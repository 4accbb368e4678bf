"""netdp benchmark: one workload, timed end to end or traced layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a netdp checkout; the package is imported from ``src/``.
Every pass of the workload runs in a fresh Python process (worker.py), so a
pass costs what a user's CLI call costs and its peak RSS is its own.

``--trace 0`` starts five set-up-only processes, then runs passes back to
back until the next one would end after ``--seconds`` (at least one).  It
reports the ``end_to_end`` metrics of BENCHMARK.json: ``setup_s`` (median
over all processes), ``wall_s`` and ``peak_rss_mb`` (medians over the passes).
Both times are scaled to a reference host speed, because the speed of this
kind of shared host drifts by tens of percent within minutes.  ``wall_s`` is
scaled by the sampler in speed.py, which times a fixed kernel inside the
measured process every 10 ms.  Each process's set-up is paired with a
reference start run just before it: a fresh interpreter that imports numpy
and scipy.special, the same kind of work as set-up; ``setup_s`` is the median
of set-up / reference start, times ``REF_START_S``.  The raw wall-clock
medians are printed beside both.
``--trace 1`` runs one untraced and two traced passes and reports the
``per_layer`` metrics: times are the traced passes' median, counts must
repeat exactly, and traced and untraced passes must hash the same results.

Every CLI call's ``results.*`` file is hashed and its content checked; a call
that exits non-zero, fails a check or hashes differently from the first pass
of the run is a failed operation.  A summary with units, the failure share
and the environment goes to standard output; its last line is the JSON
result.  Spans and a full report are written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5  # set-up-only processes; every pass process adds one more sample
# the reference start's typical time on the host named in README.md; any
# constant works, this one keeps setup_s close to that host's wall times
REF_START_S = 0.4
REFERENCE_START = [sys.executable, "-c", "import numpy, scipy.special"]
TRACED_PASSES = 2
RUN_LIMIT_S = 170.0  # a run must end within 180 s


class BenchError(RuntimeError):
    """The benchmark could not measure (as opposed to the program failing)."""


def _spawn(workload: str, seed: int, work_dir: Path, deadline: float, *extra: str) -> dict:
    """Run one worker process to completion; returns its JSON report plus start time."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--dir", str(work_dir), *extra]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the run's time limit: {' '.join(cmd)}") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}: {' '.join(cmd)}")
    report = json.loads(lines[-1])
    report["started"] = started
    return report


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            sizes[f"L{level}"] = size
    return sizes


def _git_commit() -> str | None:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int, versions: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        **versions,
        "git_commit": _git_commit(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def _judge(passes: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) over every CLI call of every pass.

    The first pass's digests are the reference: with one seed, every pass
    must write byte-identical results.
    """
    reference = [c["digest"] for c in passes[0]["calls"]]
    attempted = failed = 0
    messages = []
    for i, p in enumerate(passes):
        for call, ref in zip(p["calls"], reference):
            attempted += 1
            errors = list(call["errors"])
            if call["digest"] != ref:
                errors.append(f"results digest {call['digest']} differs from pass 0 ({ref})")
            if errors:
                failed += 1
                messages += [f"pass {i} {call['experiment']}: {e}" for e in errors]
    return attempted, failed, messages


def _reference_start(deadline: float) -> float:
    """Seconds a fresh interpreter takes to import numpy and scipy.special.

    The reference does the bulk of what set-up does, loading the same
    extension modules, and none of netdp, so a change to netdp leaves it
    alone while the host's drift moves both.
    """
    started = time.monotonic()
    try:
        proc = subprocess.run(REFERENCE_START, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired as exc:
        raise BenchError("the reference start exceeded the run's time limit") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"the reference start exited with {proc.returncode}")
    return time.monotonic() - started


def _spawn_paired(workload: str, seed: int, work_dir: Path, deadline: float, *extra: str) -> tuple[dict, dict]:
    """A reference start, then one worker; the worker's report and its set-up times."""
    reference = _reference_start(deadline)
    report = _spawn(workload, seed, work_dir, deadline, *extra)
    raw = report["ready"] - report["started"]
    return report, {"raw_s": raw, "reference_s": reference, "ref_s": raw / reference * REF_START_S}


def run_timed(workload: str, seed: int, seconds: float, work: Path, limit: float) -> tuple[list, list]:
    setups = []
    for i in range(SETUP_SAMPLES):
        setups.append(_spawn_paired(workload, seed, work / f"setup-{i}", limit)[1])
    passes, durations = [], []
    deadline = time.monotonic() + seconds
    while True:
        started = time.monotonic()
        report, setup = _spawn_paired(workload, seed, work / f"pass-{len(passes)}", limit,
                                      "--pass", "--sample")
        durations.append(time.monotonic() - started)
        passes.append(report)
        setups.append(setup)
        next_end = time.monotonic() + statistics.median(durations)
        if next_end > min(deadline, limit):
            return setups, passes


def run_traced(workload: str, seed: int, work: Path, limit: float) -> tuple[list, list]:
    _spawn(workload, seed, work / "setup-0", limit)  # warm the file cache, as run_timed does
    passes = [_spawn(workload, seed, work / "pass-0", limit, "--pass")]
    for i in range(1, TRACED_PASSES + 1):
        passes.append(_spawn(workload, seed, work / f"pass-{i}", limit,
                             "--pass", "--spans", str(work / f"spans-{i}.npz")))
    return passes[:1], passes[1:]


def _layer_values(untraced: list[dict], traced: list[dict], spec: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metric values, and messages for counts that did not repeat."""
    for p in traced:
        p["layers"]["cli.bytes_written"] = sum(c["bytes"] for c in p["calls"])
    messages = []
    first = traced[0]["layers"]
    for other in traced[1:]:
        for key, value in first.items():
            if not key.endswith("_s") and other["layers"].get(key) != value:
                messages.append(f"count {key} did not repeat: {value} vs {other['layers'].get(key)}")
    values = {}
    for metric in spec:
        name = metric["name"]
        if name == "trace_overhead_s":
            value = statistics.median(p["wall_s"] for p in traced) - untraced[0]["wall_s"]
        elif metric["unit"] == "s":
            value = statistics.median(p["layers"].get(name, 0.0) for p in traced)
        else:
            value = first.get(name, 0)
        values[name] = value
    return values, messages


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # turn SIGTERM into SystemExit, on which subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    run_start = time.monotonic()
    limit = run_start + RUN_LIMIT_S

    if not (ROOT / "src" / "netdp" / "cli.py").is_file():
        print(f"no netdp sources under {ROOT / 'src'}; run from a netdp checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    try:
        if args.trace:
            untraced, traced = run_traced(args.workload, args.seed, work, limit)
            passes = untraced + traced
        else:
            setups, passes = run_timed(args.workload, args.seed, args.seconds, work, limit)
    except BenchError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1

    attempted, failed, messages = _judge(passes)
    walls = [p["wall_s"] for p in passes]
    lines = [f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
             f"passes {len(passes)}  run {time.monotonic() - run_start:.1f} s"]
    if args.trace:
        values, count_messages = _layer_values(untraced, traced, spec["per_layer"])
        messages += count_messages
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        setup_ref = [s["ref_s"] for s in setups]
        wall_ref = [p["pass_sampler"]["ref_s"] for p in passes]
        measured = {
            "setup_s": statistics.median(setup_ref),
            "wall_s": statistics.median(wall_ref),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
        values = {m["name"]: measured[m["name"]] for m in spec["end_to_end"]}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        speeds = [p["pass_sampler"]["speed"] for p in passes]
        lines.append(f"  samples: setup_s {len(setups)} processes "
                     f"[{min(setup_ref):.4f} .. {max(setup_ref):.4f}], wall_s {len(walls)} passes "
                     f"[{min(wall_ref):.4f} .. {max(wall_ref):.4f}]")
        lines.append(f"  raw wall clock: setup {statistics.median(s['raw_s'] for s in setups):.4f} s, "
                     f"reference start {statistics.median(s['reference_s'] for s in setups):.4f} s, "
                     f"pass {statistics.median(walls):.4f} s; host speed during passes "
                     f"{min(speeds):.3f} .. {max(speeds):.3f} of the reference")
        unit_name, count = WORKLOADS[args.workload].work or (None, 0)
        if unit_name:
            lines.append(f"  {unit_name}_per_s = {count / values['wall_s']:.6g} {unit_name}/s "
                         f"({count} {unit_name} per pass)")
    lines += [f"  {name} = {value!r} {units[name]}" for name, value in values.items()]
    lines.append(f"  failed_ops = {failed / attempted!r} share ({failed} of {attempted} CLI calls)")
    lines.append(f"  results sha256: {[c['digest'] for c in passes[0]['calls']]}")
    env = environment(args.seed, passes[0]["versions"])
    lines.append(f"  environment: {json.dumps(env)}")
    lines += [f"  FAILED {m}" for m in messages]
    print("\n".join(lines))

    correct = not messages
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    report = {**result, "environment": env, "passes": passes,
              "setup_s_samples": None if args.trace else setups, "messages": messages}
    (work / "report.json").write_text(json.dumps(report, indent=2, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
