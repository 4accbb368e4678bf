"""One fresh benchmark process: set up, then optionally run one timed pass.

    python3 perfbench/worker.py --workload NAME --seed N --dir DIR [--pass] [--spans FILE] [--sample]

Set-up imports ``netdp.cli`` from the checkout's ``src/`` and writes the
workload's config files under DIR; the process then records the monotonic
clock, which run.py compares with the moment it started the process.  With
``--pass`` it runs the workload's CLI calls in-process through
``netdp.cli.main``, timing them, then checks each call's output and hashes
its ``results.*`` file.  ``--spans FILE`` traces the pass and saves its spans
to FILE.  ``--sample`` runs the host-speed sampler (speed.py) through the
pass, so run.py can scale its time to the reference speed.  The last line of
standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

from speed import Sampler
from workloads import CHECKS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def _import_netdp():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import netdp
    from netdp import cli

    if Path(netdp.__file__).resolve().parent != src / "netdp":
        raise ImportError(f"netdp imported from {netdp.__file__}, not from {src}")
    return netdp, cli


def _run_call(cli, call, config_path: Path, out: Path, seed: int) -> tuple[int | None, Path | None]:
    """Run one CLI call; returns its exit code (None if it raised) and run dir."""
    captured = io.StringIO()
    try:
        with contextlib.redirect_stdout(captured):
            rc = cli.main(call.argv(config_path, out, seed))
    except Exception:  # a crash counts as one failed call; the pass goes on
        traceback.print_exc()
        return None, None
    lines = captured.getvalue().splitlines()
    return rc, Path(lines[-1]) if rc == 0 and lines else None


def _inspect_call(call, rc, run_dir: Path | None) -> dict:
    record = {"experiment": call.experiment, "rc": rc, "digest": None, "bytes": 0, "errors": []}
    if rc != 0 or run_dir is None:
        record["errors"].append(f"exit code {rc}")
        return record
    record["bytes"] = sum(p.stat().st_size for p in run_dir.rglob("*") if p.is_file())
    results = list(run_dir.glob("results.*"))
    if len(results) != 1:
        record["errors"].append(f"expected one results.* file in {run_dir}, found {len(results)}")
        return record
    record["digest"] = hashlib.sha256(results[0].read_bytes()).hexdigest()
    try:
        record["errors"] += CHECKS[call.experiment](call, run_dir)
    except (OSError, KeyError, ValueError) as exc:
        record["errors"].append(f"unreadable output: {exc!r}")
    return record


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--pass", dest="do_pass", action="store_true")
    parser.add_argument("--spans", type=Path, default=None)
    parser.add_argument("--sample", action="store_true")
    args = parser.parse_args()

    # set-up: what a user pays on every CLI call, plus writing the configs
    netdp, cli = _import_netdp()
    workload = WORKLOADS[args.workload]
    args.dir.mkdir(parents=True, exist_ok=True)
    configs = []
    for i, call in enumerate(workload.calls):
        path = args.dir / f"{i}-{call.experiment}.conf"
        path.write_text(call.config_text())
        configs.append(path)
    report = {"ready": time.monotonic()}
    if not args.do_pass:
        print(json.dumps(report))
        return 0

    tracer = None
    if args.spans is not None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    out = args.dir / "out"
    finished = []
    sampler = Sampler() if args.sample else None
    if sampler is not None:
        sampler.start()
    start = time.perf_counter()
    for call, config_path in zip(workload.calls, configs):
        finished.append(_run_call(cli, call, config_path, out, args.seed))
    wall = time.perf_counter() - start
    if sampler is not None:
        report["pass_sampler"] = sampler.stop()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if tracer is not None:
        from tracer import layer_metrics

        # snapshot before the output checks, which call traced functions too
        spans = tracer.spans()
        tracer.save(args.spans)
        report["layers"] = layer_metrics(tracer.names, spans, tracer.counters)

    import numpy
    import scipy

    report.update({
        "wall_s": wall,
        "peak_rss_mb": peak_kib / 1024.0,
        "calls": [_inspect_call(call, rc, run_dir) for call, (rc, run_dir) in zip(workload.calls, finished)],
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "netdp": netdp.__version__},
    })
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    finally:
        Sampler.disarm()  # a pending SIGALRM must not kill a failing worker
