"""Experiment drivers: bound sweeps, empirical replay, protocol Monte Carlo,
the three-regime SGD comparison and the sigma search.

Usage:
    netdp --experiment bounds_sweep --config conf.txt --out results/ [--seed S]
          [--runs R] [--workers W] [--unchecked]

Configs are flat ``key = value`` text files ('#' starts a comment); the
command-line flags override the matching config keys.  Every run writes
``<out>/<experiment>/<timestamp>-<seed>/`` containing ``results.csv`` (or
``results.json``), ``meta.json`` with the configuration as given (config
file plus ``--set`` overrides, without the defaults the experiment fills
in), the seed, run count and package version, and any trace files.  A
re-run with the same config and seed reproduces the result files byte for
byte.

Exit codes: 0 success, 2 invalid configuration, 3 infeasible target.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .core import COMPLETE, Topology, sample_walk
from .errors import InfeasibleError, ValidityWindowError
from . import accountant as acct
from . import dpml
from . import empirical as emp
from . import protocols as proto

EXPERIMENTS = ("bounds_sweep", "empirical_sweep", "protocol_mc", "sgd_compare", "sigma_search")


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------

def _parse_value(raw: str):
    raw = raw.strip()
    if "," in raw:
        return [_parse_value(part) for part in raw.split(",") if part.strip()]
    low = raw.lower()
    if low in ("true", "false"):
        return low == "true"
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            continue
    return raw


def parse_config(path) -> dict:
    """Read a flat ``key = value`` config file."""
    config: dict = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, raw = line.split("=", 1)
            config[key.strip()] = _parse_value(raw)
    return config


def _as_list(value) -> list:
    return value if isinstance(value, list) else [value]


def derive_seed(*parts) -> int:
    """Deterministic child seed from a tuple of integers."""
    mixed = np.random.SeedSequence([int(p) & 0xFFFFFFFF for p in parts])
    return int(mixed.generate_state(1, np.uint64)[0])


def split_delta_budget(total: float, n: int, T: int, delta_hat: float | None = None) -> tuple[float, float, float]:
    """Split one total failure probability into (delta0, delta', delta_hat).

    Equal thirds: delta' = delta_hat = total/3, and the per-contribution
    delta0 spends the remaining third across the (N_v + T/n) composed
    cycles.
    """
    delta_prime = total / 3.0
    delta_hat = total / 3.0 if delta_hat is None else delta_hat
    n_v = acct.chernoff_visit_bound(T, 1.0 / n, delta_hat)
    delta0 = (total / 3.0) / (n_v + T / n)
    return delta0, delta_prime, delta_hat


def _contiguous_chunks(items: list, workers: int) -> list[list]:
    """Split ``items`` into at most ``workers`` contiguous non-empty chunks."""
    bounds = np.array_split(np.arange(len(items)), max(1, min(workers, len(items))))
    return [items[b[0]:b[-1] + 1] for b in bounds if b.size]


def _parallel_map(fn, items: list, workers: int) -> list:
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    # the pool forks all max_workers processes at the first submit
    with ProcessPoolExecutor(max_workers=min(workers, len(items))) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# Output plumbing
# ---------------------------------------------------------------------------

def _make_run_dir(out: Path, experiment: str, seed: int) -> Path:
    stamp = time.strftime("%Y%m%d-%H%M%S")
    run_dir = out / experiment / f"{stamp}-{seed}"
    suffix = 0
    while run_dir.exists():
        suffix += 1
        run_dir = out / experiment / f"{stamp}-{seed}.{suffix}"
    run_dir.mkdir(parents=True)
    return run_dir


def _write_csv(path: Path, columns: list[str], rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _fmt(row.get(k, "")) for k in columns})


def _fmt(value):
    if isinstance(value, float):
        return repr(value)
    return value


def _write_meta(run_dir: Path, experiment: str, config: dict, seed: int, runs: int,
                workers: int, unchecked: bool, extra: dict | None = None) -> None:
    meta = {
        "experiment": experiment,
        "config": config,
        "seed": seed,
        "runs": runs,
        "workers": workers,
        "unchecked": unchecked,
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    if extra:
        meta.update(extra)
    with open(run_dir / "meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True, default=str)


# ---------------------------------------------------------------------------
# bounds_sweep
# ---------------------------------------------------------------------------

def cmd_bounds_sweep(config: dict, run_dir: Path, seed: int, runs: int,
                     workers: int, unchecked: bool) -> None:
    """Theory curves over an n grid at T = t_factor * n.

    Columns: n, network_eps, local_eps, network_fixed_eps, local_fixed_eps;
    the *_fixed variants assume exactly T/n contributions per user.
    """
    n_grid = [int(v) for v in _as_list(config.get("n_grid", [20, 50, 100, 1000, 10000]))]
    if not n_grid:
        raise ValueError("empty n_grid")
    eps0 = float(config.get("eps0", 0.5))
    t_factor = int(config.get("t_factor", 100))
    rows = []
    for n in sorted(n_grid):
        T = t_factor * n
        if "delta0" in config:
            delta0 = float(config["delta0"])
            delta_prime = float(config.get("delta_prime", 1e-3))
            delta_hat = float(config.get("delta_hat", 1e-3))
        else:
            delta0, delta_prime, delta_hat = split_delta_budget(
                float(config.get("total_delta", 3e-3)), n, T
            )
        network = acct.complete_sum_bound(
            eps0, delta0, n, T, delta_prime, delta_hat, unchecked=unchecked
        )
        n_v = network.intermediates["N_v"]
        local = acct.local_baseline_sum(eps0, delta0, n_v, delta_prime)
        network_fixed = acct.complete_sum_bound(
            eps0, delta0, n, T, delta_prime, delta_hat,
            fixed_contributions=True, unchecked=unchecked,
        )
        local_fixed = acct.local_baseline_sum(eps0, delta0, T / n, delta_prime)
        rows.append({
            "n": n,
            "network_eps": network.epsilon_out,
            "local_eps": local.epsilon_out,
            "network_fixed_eps": network_fixed.epsilon_out,
            "local_fixed_eps": local_fixed.epsilon_out,
            "unchecked": network.unchecked,
        })
    _write_csv(run_dir / "results.csv",
               ["n", "network_eps", "local_eps", "network_fixed_eps", "local_fixed_eps", "unchecked"],
               rows)
    _write_meta(run_dir, "bounds_sweep", config, seed, runs, workers, unchecked,
                extra={"delta_split": "total_delta split equally into delta0*cycles, delta_prime, delta_hat"})


# ---------------------------------------------------------------------------
# empirical_sweep
# ---------------------------------------------------------------------------

def _empirical_point(args: tuple) -> tuple[int, int, float, float, float]:
    n, t_factor, eps0, delta0, delta_prime, walk_seed = args
    walk = sample_walk(Topology(COMPLETE, n), t_factor * n, walk_seed)
    matrix = emp.empirical_pair_loss_sum(walk, eps0, delta0, delta_prime)
    vals = matrix.finite_offdiagonal()
    return n, walk_seed, float(vals.mean()), float(vals.min()), float(vals.max())


def cmd_empirical_sweep(config: dict, run_dir: Path, seed: int, runs: int,
                        workers: int, unchecked: bool) -> None:
    """Per-pair empirical losses on sampled walks, pooled per n."""
    n_grid = [int(v) for v in _as_list(config.get("n_grid", [20, 100, 1000]))]
    if not n_grid:
        raise ValueError("empty n_grid")
    eps0 = float(config.get("eps0", 0.5))
    t_factor = int(config.get("t_factor", 100))
    delta0 = float(config.get("delta0", 1e-7))
    delta_prime = float(config.get("delta_prime", 1e-3))
    tasks = [
        (n, t_factor, eps0, delta0, delta_prime, derive_seed(seed, n, r))
        for n in sorted(n_grid)
        for r in range(runs)
    ]
    points = _parallel_map(_empirical_point, tasks, workers)
    rows = []
    for n in sorted(n_grid):
        stats = [(m, lo, hi) for (pn, _, m, lo, hi) in points if pn == n]
        means, los, his = zip(*stats)
        rows.append({
            "n": n,
            "mean": float(np.mean(means)),
            "min": float(np.min(los)),
            "max": float(np.max(his)),
        })
    _write_csv(run_dir / "results.csv", ["n", "mean", "min", "max"], rows)
    _write_meta(run_dir, "empirical_sweep", config, seed, runs, workers, unchecked,
                extra={"delta_convention": "per-pair delta = cycles * delta0 + delta_prime"})


# ---------------------------------------------------------------------------
# protocol_mc
# ---------------------------------------------------------------------------

def _sum_moments(errors: list, rr_counts: list) -> dict:
    arr = np.asarray(errors, dtype=float)
    return {
        "mean_error": float(arr.mean()),
        "std_error": float(arr.std(ddof=1)) if len(arr) > 1 else 0.0,
    }


def _hist_moments(errors: list, rr_counts: list) -> dict:
    errors = np.asarray(errors, dtype=float)  # (runs, L) debiased - true
    se = errors.std(axis=0, ddof=1) / math.sqrt(len(errors)) if len(errors) > 1 else np.ones(errors.shape[1])
    return {
        "max_bin_bias_se": float(np.max(np.abs(errors.mean(axis=0)) / np.maximum(se, 1e-300))),
        "rr_mean": float(np.mean(rr_counts)),
    }


def _ring_sum_expected(p: dict, steps: int) -> dict:
    if p["mode"] == "distributed":
        return {"expected_std": math.sqrt(p["sigma_loc"] ** 2 * (1 + (steps - 1) / p["n"]))}
    return {"expected_std": math.sqrt(steps // (p["n"] - 1)) * p["sigma_loc"]}


class _McProtocol(NamedTuple):
    """One protocol_mc protocol and the closed form its Monte Carlo row is
    checked against."""

    table: Callable[[dict], np.ndarray]  # contributions; depends on stream_seed only
    run: Callable[[dict, np.ndarray, int], proto.ProtocolResult]  # one run at seed s
    steps: Callable[[dict], int]  # walk length
    moments: Callable[[list, list], dict]  # observed, from errors and response counts
    expected: Callable[[dict, int], dict]  # expected_std or rr_expected, from (params, steps)


def _scalar_table(p: dict) -> np.ndarray:
    return proto.uniform_scalar_stream(p["n"], p["stream_seed"], clip=p["clip"])


def _category_table(p: dict) -> np.ndarray:
    return proto.uniform_category_stream(p["n"], p["domain_size"], p["stream_seed"])


# the run lambdas look the runner up on the protocols module at call time, so
# wrappers installed there (profilers, tracers) see every run
_MC_PROTOCOLS = {
    "ring_sum": _McProtocol(
        table=_scalar_table,
        run=lambda p, table, s: proto.run_ring_sum(
            p["n"], p["K"], table, p["sigma_loc"], mode=p["mode"], seed=s, clip=p["clip"]),
        steps=lambda p: p["K"] * p["n"],
        moments=_sum_moments,
        expected=_ring_sum_expected,
    ),
    "complete_sum": _McProtocol(
        table=_scalar_table,
        run=lambda p, table, s: proto.run_complete_sum(
            p["n"], p["T"], table, p["sigma_loc"], seed=s, clip=p["clip"]),
        steps=lambda p: p["T"],
        moments=_sum_moments,
        expected=lambda p, steps: {"expected_std": math.sqrt(steps) * p["sigma_loc"]},
    ),
    "ring_hist": _McProtocol(
        table=_category_table,
        run=lambda p, table, s: proto.run_ring_hist(
            p["n"], p["K"], p["domain_size"], table, p["gamma"], seed=s),
        steps=lambda p: p["K"] * p["n"],
        moments=_hist_moments,
        expected=lambda p, steps: {"rr_expected": math.ceil(p["gamma"] * p["n"]) + p["gamma"] * steps},
    ),
    "complete_hist": _McProtocol(
        table=_category_table,
        run=lambda p, table, s: proto.run_complete_hist(
            p["n"], p["T"], p["domain_size"], table, p["gamma"], seed=s),
        steps=lambda p: p["T"],
        moments=_hist_moments,
        expected=lambda p, steps: {"rr_expected": p["gamma"] * steps},
    ),
}


def _protocol_batch(args: tuple) -> tuple[list, list]:
    """Run a batch of seeds for one protocol; collects output - true and the
    randomized-response count per run."""
    name, params, seeds = args
    spec = _MC_PROTOCOLS[name]
    table = spec.table(params)
    errors, rr_counts = [], []
    for s in seeds:
        res = spec.run(params, table, s)
        errors.append(res.output - res.true_value)
        rr_counts.append(res.random_response_count)
    return errors, rr_counts


def cmd_protocol_mc(config: dict, run_dir: Path, seed: int, runs: int,
                    workers: int, unchecked: bool) -> None:
    """Monte Carlo estimates of protocol output moments and response counts."""
    if runs < 1:
        raise ValueError("protocol_mc needs runs >= 1")
    names = [str(v) for v in _as_list(config.get("protocols", ["ring_sum", "complete_sum"]))]
    unknown = [name for name in names if name not in _MC_PROTOCOLS]
    if unknown:
        raise ValueError(f"unknown protocol(s) {unknown}; choose from {sorted(_MC_PROTOCOLS)}")
    params = {
        "n": int(config.get("n", 100)),
        "K": int(config.get("K", 10)),
        "T": int(config.get("T", 1000)),
        "sigma_loc": float(config.get("sigma_loc", 1.0)),
        "gamma": float(config.get("gamma", 0.3)),
        "domain_size": int(config.get("domain_size", 5)),
        "clip": float(config.get("clip", 1.0)),
        "mode": str(config.get("mode", "single_noiser")),
        "stream_seed": derive_seed(seed, 0xDA7A),
    }
    rows = []
    for name in names:
        spec = _MC_PROTOCOLS[name]
        tag = zlib.crc32(name.encode()) & 0xFFFF
        # np.asarray picks one dtype for all seeds: float64 when they straddle
        # 2**63, which rounds them; kept so that existing results stay
        # byte-identical (see ROADMAP item 7)
        seeds = np.asarray([derive_seed(seed, tag, r) for r in range(runs)]).tolist()
        results = _parallel_map(
            _protocol_batch,
            [(name, params, chunk) for chunk in _contiguous_chunks(seeds, workers)],
            workers,
        )
        errors = [e for r in results for e in r[0]]
        rr_counts = [c for r in results for c in r[1]]
        steps = spec.steps(params)
        rows.append({"protocol": name, "runs": runs, "n": params["n"], "steps": steps,
                     **spec.moments(errors, rr_counts), **spec.expected(params, steps)})
    columns = ["protocol", "runs", "n", "steps", "mean_error", "std_error",
               "expected_std", "max_bin_bias_se", "rr_mean", "rr_expected"]
    _write_csv(run_dir / "results.csv", columns, rows)
    _write_meta(run_dir, "protocol_mc", config, seed, runs, workers, unchecked)


# ---------------------------------------------------------------------------
# sgd_compare
# ---------------------------------------------------------------------------

def _sgd_runs(args: tuple) -> list[dpml.TrainResult]:
    config, data, seeds, sigma = args
    return dpml.train(config, data, seeds, sigma=sigma)


def cmd_sgd_compare(config: dict, run_dir: Path, seed: int, runs: int,
                    workers: int, unchecked: bool) -> None:
    """Local vs network vs centralized DP-SGD on logistic regression."""
    dataset_kind = str(config.get("dataset", "synthetic"))
    n = int(config.get("n", 200))
    if dataset_kind == "synthetic":
        data = dpml.make_synthetic(
            n_users=n,
            points_per_user=int(config.get("points_per_user", 8)),
            dim=int(config.get("dim", 20)),
            seed=derive_seed(seed, 0xDA7A),
        )
    elif dataset_kind == "real":
        if "dataset_path" not in config:
            raise ValueError("dataset = real requires a dataset_path entry")
        data = dpml.load_csv_dataset(config["dataset_path"], n_users=n, seed=seed)
    else:
        raise ValueError(f"unknown dataset kind {dataset_kind!r}")

    T = int(config.get("T", 2000))
    delta = float(config.get("delta", 1e-6))
    cap_mult = float(config.get("cap_multiplier", 2.0))
    eps_list = [float(v) for v in _as_list(config.get("eps", [1.0, 10.0]))]
    tune_seeds = int(config.get("tune_seeds", 5))
    fixed_eta = config.get("eta")
    if fixed_eta is None and tune_seeds < 1:
        raise ValueError(f"tune_seeds must be >= 1 when eta is tuned, got {tune_seeds}")

    rows = []
    for eps in eps_list:
        for regime in (dpml.LOCAL, dpml.NETWORK, dpml.CENTRALIZED):
            base = dpml.TrainConfig(
                regime=regime, T=T, eta=1.0,
                budget=dpml.PrivacyBudget(eps, delta), cap_multiplier=cap_mult,
            )
            sigma = dpml.calibrate_regime(base, data.n_users)
            if fixed_eta is not None:
                eta = float(fixed_eta)
            else:
                eta = dpml.tune_eta(
                    base, data, sigma,
                    seeds=[derive_seed(seed, int(eps * 1000), 0xE7A, i) for i in range(tune_seeds)],
                )
            # replicas run as at most `workers` lockstep batches; a run's
            # result depends on its own seed only
            seeds = [derive_seed(seed, int(eps * 1000), r) for r in range(runs)]
            tasks = [(replace(base, eta=eta), data, chunk, sigma)
                     for chunk in _contiguous_chunks(seeds, workers)]
            results = [r for batch in _parallel_map(_sgd_runs, tasks, workers) for r in batch]
            finals = np.asarray([r.final_objective for r in results])
            accs = np.asarray([r.final_accuracy for r in results])
            diverged = sum(1 for r in results if r.diverged)
            rows.append({
                "regime": regime, "eps": eps, "sigma": sigma, "eta": eta,
                "mean_final_objective": float(finals.mean()),
                "std_final_objective": float(finals.std(ddof=1)) if runs > 1 else 0.0,
                "mean_final_accuracy": float(accs.mean()),
                "diverged_runs": diverged,
            })
            # mean traces across seeds
            dpml.write_trace_csv(
                run_dir / f"trace_{regime}_eps{eps:g}.csv",
                results[0].objective_trace[:, 0],
                np.mean([r.objective_trace[:, 1] for r in results], axis=0),
                np.mean([r.accuracy_trace[:, 1] for r in results], axis=0),
            )
    _write_csv(
        run_dir / "results.csv",
        ["regime", "eps", "sigma", "eta", "mean_final_objective",
         "std_final_objective", "mean_final_accuracy", "diverged_runs"],
        rows,
    )
    _write_meta(run_dir, "sgd_compare", config, seed, runs, workers, unchecked)


# ---------------------------------------------------------------------------
# sigma_search
# ---------------------------------------------------------------------------

def cmd_sigma_search(config: dict, run_dir: Path, seed: int, runs: int,
                     workers: int, unchecked: bool) -> None:
    """Smallest network-SGD sigma for a target budget, with a chain re-check."""
    eps = float(config["eps"])
    delta = float(config["delta"])
    T_u = float(config.get("T_u", 10))
    n = int(config.get("n", 1000))
    L = float(config.get("L", 1.0))
    try:
        sigma, alpha = acct.sigma_search(eps, delta, T_u, n, L)
    except InfeasibleError as exc:
        payload = {"error": str(exc), "diagnostics": exc.diagnostics}
        with open(run_dir / "results.json", "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        _write_meta(run_dir, "sigma_search", config, seed, runs, workers, unchecked)
        raise
    recheck = acct.rdp_to_dp(acct.sgd_network_rdp(alpha, T_u, L, sigma, n), delta)
    payload = {"sigma_min": sigma, "alpha_used": alpha, "recheck_eps": recheck}
    with open(run_dir / "results.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    _write_meta(run_dir, "sigma_search", config, seed, runs, workers, unchecked)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "bounds_sweep": cmd_bounds_sweep,
    "empirical_sweep": cmd_empirical_sweep,
    "protocol_mc": cmd_protocol_mc,
    "sgd_compare": cmd_sgd_compare,
    "sigma_search": cmd_sigma_search,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="netdp", description=__doc__.split("\n\n")[0])
    parser.add_argument("--experiment", required=True, choices=EXPERIMENTS)
    parser.add_argument("--config", type=Path, default=None, help="flat key = value file")
    parser.add_argument("--seed", type=int, default=None, help="master seed (default 0)")
    parser.add_argument("--runs", type=int, default=None, help="Monte Carlo repetitions")
    parser.add_argument("--out", type=Path, default=Path("results"))
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--unchecked", action="store_true",
                        help="evaluate bounds outside their validity windows, tagging rows")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a config entry")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = parse_config(args.config) if args.config else {}
        for override in args.set:
            if "=" not in override:
                raise ValueError(f"--set expects KEY=VALUE, got {override!r}")
            key, raw = override.split("=", 1)
            config[key.strip()] = _parse_value(raw)
        seed = args.seed if args.seed is not None else int(config.get("seed", 0))
        runs = args.runs if args.runs is not None else int(config.get("runs", 10))
        if runs < 1:
            raise ValueError(f"runs must be >= 1, got {runs}")
        run_dir = _make_run_dir(args.out, args.experiment, seed)
        _COMMANDS[args.experiment](config, run_dir, seed, runs, args.workers, args.unchecked)
    except InfeasibleError as exc:
        print(f"infeasible target: {exc} {exc.diagnostics}", file=sys.stderr)
        return 3
    except (ValueError, ValidityWindowError, KeyError, OSError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    print(run_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
