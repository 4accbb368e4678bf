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
in), the seed, run count, package version and an ``environment`` block
(Python and numpy versions, CPU count, usable CPUs, workers), and any trace
files.  A re-run with the same config and seed reproduces the result files
byte for byte.  Integer keys take an int or an integral float such as
``3.0``; any other value is an invalid configuration, and so is a negative
seed.

Exit codes: 0 success, 2 invalid configuration, 3 infeasible target.  A
failed run removes its directory if it wrote nothing there.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
import zlib
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


def _int_key(config: dict, key: str, default: int) -> int:
    """``config[key]`` (or ``default``) as an int; an int or an integral
    float such as ``3.0`` is accepted, anything else is a ``ValueError``."""
    value = config.get(key, default)
    if not (type(value) is int or type(value) is float and value.is_integer()):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(value)


def derive_seed(*parts) -> int:
    """Deterministic child seed from a tuple of non-negative integers.

    The parts enter ``SeedSequence`` whole, as their 32-bit words.  When a
    part spans more than one word, the parts' word counts go in as the
    ``spawn_key``, so (1, 5, 7) and (1 + 5 * 2**32, 7) differ; tuples of
    parts below 2**32 keep the seeds they always had.
    """
    parts = [int(p) for p in parts]
    words = [max(1, -(-p.bit_length() // 32)) for p in parts]
    mixed = np.random.SeedSequence(parts, spawn_key=words if max(words, default=1) > 1 else ())
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
    from concurrent.futures import ProcessPoolExecutor  # ~20 ms to import; serial runs skip it

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
        "environment": {
            "python": sys.version.split()[0], "numpy": np.__version__, "workers": workers,
            "cpu_count": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        },
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
    t_factor = _int_key(config, "t_factor", 100)
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

def _empirical_point(args: tuple) -> tuple[int, float, float, float, int]:
    n, t_factor, eps0, delta0, delta_prime, walk_seed = args
    walk = sample_walk(Topology(COMPLETE, n), t_factor * n, walk_seed)
    matrix = emp.empirical_pair_loss_sum(walk, eps0, delta0, delta_prime)
    vals = matrix.finite_offdiagonal()
    return n, float(vals.mean()), float(vals.min()), float(vals.max()), matrix.meta["max_cycles"]


def cmd_empirical_sweep(config: dict, run_dir: Path, seed: int, runs: int,
                        workers: int, unchecked: bool) -> None:
    """Per-pair empirical losses on sampled walks, pooled per n."""
    n_grid = [int(v) for v in _as_list(config.get("n_grid", [20, 100, 1000]))]
    if not n_grid:
        raise ValueError("empty n_grid")
    eps0 = float(config.get("eps0", 0.5))
    t_factor = _int_key(config, "t_factor", 100)
    delta0 = float(config.get("delta0", 1e-7))
    delta_prime = float(config.get("delta_prime", 1e-3))
    if not 0 < delta_prime < 1:  # checked before any walk is sampled
        raise ValueError(f"delta_prime must be in (0, 1), got {delta_prime}")
    tasks = [
        (n, t_factor, eps0, delta0, delta_prime, derive_seed(seed, n, r))
        for n in sorted(n_grid)
        for r in range(runs)
    ]
    points = _parallel_map(_empirical_point, tasks, workers)
    rows, max_cycles = [], {}
    for n in sorted(n_grid):
        means, los, his, cycles = zip(*(p[1:] for p in points if p[0] == n))
        rows.append({
            "n": n,
            "mean": float(np.mean(means)),
            "min": float(np.min(los)),
            "max": float(np.max(his)),
        })
        max_cycles[str(n)] = max(cycles)
    _write_csv(run_dir / "results.csv", ["n", "mean", "min", "max"], rows)
    # the most capped cycles any observer composed, per n (the closed-form
    # bounds provision N_v + T/n of them)
    _write_meta(run_dir, "empirical_sweep", config, seed, runs, workers, unchecked,
                extra={"delta_convention": "per-pair delta = cycles * delta0 + delta_prime",
                       "max_cycles": max_cycles})


# ---------------------------------------------------------------------------
# protocol_mc
# ---------------------------------------------------------------------------

def _sum_moments(errors: np.ndarray, rr_counts: np.ndarray) -> dict:
    return {
        "mean_error": float(errors.mean()),
        "std_error": float(errors.std(ddof=1)) if len(errors) > 1 else 0.0,
    }


def _hist_moments(errors: np.ndarray, rr_counts: np.ndarray) -> dict:
    # errors: (runs, L) debiased - true
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
    checked against.  ``run`` makes one protocol call on a list of seeds,
    one run per seed, and returns its :class:`~netdp.protocols.ProtocolRuns`."""

    table: Callable[[dict], np.ndarray]  # contributions; depends on stream_seed only
    run: Callable[[dict, np.ndarray, list[int]], proto.ProtocolRuns]  # one run per seed
    steps: Callable[[dict], int]  # walk length
    moments: Callable[[np.ndarray, np.ndarray], dict]  # observed, from errors and response counts
    expected: Callable[[dict, int], dict]  # expected_std or rr_expected, from (params, steps)


# bytes of per-run (R, T) arrays (int64 walks, flip masks) one protocol call
# may hold; sizes a call's seed list, so 200 runs of T = 10^4 take 16 calls
MC_CALL_BYTES = 1 << 20


def _scalar_table(p: dict) -> np.ndarray:
    return proto.uniform_scalar_stream(p["n"], p["stream_seed"], clip=p["clip"])


def _category_table(p: dict) -> np.ndarray:
    return proto.uniform_category_stream(p["n"], p["domain_size"], p["stream_seed"])


# the run lambdas look the runner up on the protocols module at call time, so
# wrappers installed there (profilers, tracers) see every call
_MC_PROTOCOLS = {
    "ring_sum": _McProtocol(
        table=_scalar_table,
        run=lambda p, table, s: proto.run_ring_sum(
            p["n"], p["K"], table, p["sigma_loc"], mode=p["mode"], seeds=s, clip=p["clip"]),
        steps=lambda p: p["K"] * p["n"],
        moments=_sum_moments,
        expected=_ring_sum_expected,
    ),
    "complete_sum": _McProtocol(
        table=_scalar_table,
        run=lambda p, table, s: proto.run_complete_sum(
            p["n"], p["T"], table, p["sigma_loc"], seeds=s, clip=p["clip"]),
        steps=lambda p: p["T"],
        moments=_sum_moments,
        expected=lambda p, steps: {"expected_std": math.sqrt(steps) * p["sigma_loc"]},
    ),
    "ring_hist": _McProtocol(
        table=_category_table,
        run=lambda p, table, s: proto.run_ring_hist(
            p["n"], p["K"], p["domain_size"], table, p["gamma"], seeds=s),
        steps=lambda p: p["K"] * p["n"],
        moments=_hist_moments,
        expected=lambda p, steps: {"rr_expected": math.ceil(p["gamma"] * p["n"]) + p["gamma"] * steps},
    ),
    "complete_hist": _McProtocol(
        table=_category_table,
        run=lambda p, table, s: proto.run_complete_hist(
            p["n"], p["T"], p["domain_size"], table, p["gamma"], seeds=s),
        steps=lambda p: p["T"],
        moments=_hist_moments,
        expected=lambda p, steps: {"rr_expected": p["gamma"] * steps},
    ),
}


def _protocol_batch(args: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Run a list of seeds for one protocol, one protocol call per
    :data:`MC_CALL_BYTES` of per-run walk rows; returns output - true and the
    randomized-response count per run, in seed order."""
    name, params, seeds = args
    spec = _MC_PROTOCOLS[name]
    table = spec.table(params)
    per_call = max(1, MC_CALL_BYTES // (8 * spec.steps(params)))
    # each call's result is dropped once its columns are read, so the next
    # call does not start while it holds the last one's walks
    errors, rr_counts = zip(*[_mc_columns(spec.run(params, table, seeds[i:i + per_call]))
                              for i in range(0, len(seeds), per_call)])
    return np.concatenate(errors), np.concatenate(rr_counts)


def _mc_columns(res: proto.ProtocolRuns) -> tuple[np.ndarray, np.ndarray]:
    return res.outputs - res.true_values, res.response_counts


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
        "n": _int_key(config, "n", 100),
        "K": _int_key(config, "K", 10),
        "T": _int_key(config, "T", 1000),
        "sigma_loc": float(config.get("sigma_loc", 1.0)),
        "gamma": float(config.get("gamma", 0.3)),
        "domain_size": _int_key(config, "domain_size", 5),
        "clip": float(config.get("clip", 1.0)),
        "mode": str(config.get("mode", "single_noiser")),
        "stream_seed": derive_seed(seed, 0xDA7A),
    }
    rows = []
    for name in names:
        spec = _MC_PROTOCOLS[name]
        tag = zlib.crc32(name.encode()) & 0xFFFF
        seeds = [derive_seed(seed, tag, r) for r in range(runs)]
        results = _parallel_map(
            _protocol_batch,
            [(name, params, chunk) for chunk in _contiguous_chunks(seeds, workers)],
            workers,
        )
        errors = np.concatenate([r[0] for r in results])
        rr_counts = np.concatenate([r[1] for r in results])
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
    return dpml.train(*args)  # (batch, data, runs)


def cmd_sgd_compare(config: dict, run_dir: Path, seed: int, runs: int,
                    workers: int, unchecked: bool) -> None:
    """Local vs network vs centralized DP-SGD on logistic regression.

    Every (eps, regime) pair is calibrated before any training, so an
    infeasible target fails before a run starts.  All pairs then share one
    eta search and one replica batch (split into at most ``workers``
    contiguous chunks), so the output follows from the lockstep contract of
    :func:`~netdp.protocols.run_complete_sgd`.  Each eps keys its seeds by
    ``int(eps * 1000)`` and its trace files by ``f"{eps:g}"``, so two eps
    values that share either are rejected.
    """
    dataset_kind = str(config.get("dataset", "synthetic"))
    n = _int_key(config, "n", 200)
    if dataset_kind == "synthetic":
        data = dpml.make_synthetic(
            n_users=n,
            points_per_user=_int_key(config, "points_per_user", 8),
            dim=_int_key(config, "dim", 20),
            seed=derive_seed(seed, 0xDA7A),
        )
    elif dataset_kind == "real":
        if "dataset_path" not in config:
            raise ValueError("dataset = real requires a dataset_path entry")
        data = dpml.load_csv_dataset(config["dataset_path"], n_users=n, seed=seed)
    else:
        raise ValueError(f"unknown dataset kind {dataset_kind!r}")

    T = _int_key(config, "T", 2000)
    delta = float(config.get("delta", 1e-6))
    cap_mult = float(config.get("cap_multiplier", 2.0))
    eps_list = [float(v) for v in _as_list(config.get("eps", [1.0, 10.0]))]
    seed_keys = {int(eps * 1000) for eps in eps_list}
    file_keys = {f"{eps:g}" for eps in eps_list}
    if min(len(seed_keys), len(file_keys)) < len(eps_list):
        raise ValueError(f"eps values {eps_list} must differ in int(eps * 1000) and in eps:g")
    tune_seeds = _int_key(config, "tune_seeds", 5)
    fixed_eta = config.get("eta")
    if fixed_eta is None and tune_seeds < 1:
        raise ValueError(f"tune_seeds must be >= 1 when eta is tuned, got {tune_seeds}")

    grid = [(eps, regime) for eps in eps_list
            for regime in (dpml.LOCAL, dpml.NETWORK, dpml.CENTRALIZED)]
    configs = [dpml.TrainConfig(regime=regime, T=T, eta=1.0,
                                budget=dpml.PrivacyBudget(eps, delta), cap_multiplier=cap_mult)
               for eps, regime in grid]
    sigmas = [dpml.calibrate_regime(c, data.n_users) for c in configs]
    if fixed_eta is not None:
        etas = [float(fixed_eta)] * len(grid)
    else:
        etas = dpml.tune_eta(
            dpml.RegimeBatch(configs, sigmas), data,
            [(i, derive_seed(seed, int(eps * 1000), 0xE7A, t))
             for i, (eps, _) in enumerate(grid) for t in range(tune_seeds)],
        )
    batch = dpml.RegimeBatch([replace(c, eta=eta) for c, eta in zip(configs, etas)], sigmas)
    replicas = [(i, derive_seed(seed, int(eps * 1000), r))
                for i, (eps, _) in enumerate(grid) for r in range(runs)]
    tasks = [(batch, data, chunk) for chunk in _contiguous_chunks(replicas, workers)]
    results = [r for chunk in _parallel_map(_sgd_runs, tasks, workers) for r in chunk]

    rows = []
    for i, ((eps, regime), sigma, eta) in enumerate(zip(grid, sigmas, etas)):
        pair = results[i * runs:(i + 1) * runs]
        finals = np.asarray([r.final_objective for r in pair])
        accs = np.asarray([r.final_accuracy for r in pair])
        rows.append({
            "regime": regime, "eps": eps, "sigma": sigma, "eta": eta,
            "mean_final_objective": float(finals.mean()),
            "std_final_objective": float(finals.std(ddof=1)) if runs > 1 else 0.0,
            "mean_final_accuracy": float(accs.mean()),
            "diverged_runs": sum(1 for r in pair if r.diverged),
        })
        # mean traces across seeds
        dpml.write_trace_csv(
            run_dir / f"trace_{regime}_eps{eps:g}.csv",
            pair[0].objective_trace[:, 0],
            np.mean([r.objective_trace[:, 1] for r in pair], axis=0),
            np.mean([r.accuracy_trace[:, 1] for r in pair], axis=0),
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
    n = _int_key(config, "n", 1000)
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
    run_dir = None
    try:
        config = parse_config(args.config) if args.config else {}
        for override in args.set:
            if "=" not in override:
                raise ValueError(f"--set expects KEY=VALUE, got {override!r}")
            key, raw = override.split("=", 1)
            config[key.strip()] = _parse_value(raw)
        seed = args.seed if args.seed is not None else _int_key(config, "seed", 0)
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        runs = args.runs if args.runs is not None else _int_key(config, "runs", 10)
        if runs < 1:
            raise ValueError(f"runs must be >= 1, got {runs}")
        run_dir = _make_run_dir(args.out, args.experiment, seed)
        _COMMANDS[args.experiment](config, run_dir, seed, runs, args.workers, args.unchecked)
        print(run_dir)
        return 0
    except InfeasibleError as exc:
        print(f"infeasible target: {exc} {exc.diagnostics}", file=sys.stderr)
        code = 3
    except (ValueError, ValidityWindowError, KeyError, OSError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        code = 2
    if run_dir is not None and not any(run_dir.iterdir()):
        run_dir.rmdir()  # a failed run keeps only what it wrote, such as an error payload
    return code


if __name__ == "__main__":
    sys.exit(main())
