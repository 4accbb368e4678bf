"""Experiment drivers: bound sweeps, empirical replay, protocol Monte Carlo,
the three-regime SGD comparison and the sigma search.

Usage:
    netdp --experiment bounds_sweep --config conf.txt --out results/ [--seed S]
          [--runs R] [--workers W] [--unchecked]

Configs are flat ``key = value`` text files ('#' starts a comment); ``--set``
overrides a config entry, and ``--seed``/``--runs`` override the ``seed`` and
``runs`` keys.  :data:`KEYS` lists every experiment's keys, each with its
type, default and range, and :func:`resolve_config` checks the whole config
against it before the run directory exists: an unknown key, a missing
required key, a value of the wrong type (integer keys take an int or an
integral float such as ``3.0``), a non-finite float or a value out of range
is an invalid configuration whose message names the key.

Every run writes ``<out>/<experiment>/<timestamp>-<seed>/`` containing
``results.csv`` (or ``results.json``), ``meta.json`` and any trace files.
``meta.json`` records the configuration as given (config file plus ``--set``
overrides), the ``resolved_config`` the run used (every key of the
experiment, defaults included, unset keys as null), the seed, run count,
package version and an ``environment`` block (Python and numpy versions,
CPU count, usable CPUs, workers).  A re-run with the same config and seed
reproduces the result files byte for byte.

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
from .core import COMPLETE, Topology, derive_seed, derive_seeds, sample_walk
from .errors import InfeasibleError, ValidityWindowError
from . import accountant as acct
from . import dpml
from . import empirical as emp
from . import protocols as proto

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


def _parse_entry(text: str, where: str) -> tuple[str, object]:
    if "=" not in text:
        raise ValueError(f"{where}: expected 'key = value', got {text!r}")
    key, raw = text.split("=", 1)
    return key.strip(), _parse_value(raw)


def parse_config(path) -> dict:
    """Read a flat ``key = value`` config file."""
    with open(path) as fh:
        lines = [(lineno, line.split("#", 1)[0].strip()) for lineno, line in enumerate(fh, 1)]
    return dict(_parse_entry(line, f"{path}:{lineno}") for lineno, line in lines if line)


def _indexed_seeds(rows: list[tuple]) -> list[tuple]:
    """``[(key, derive_seed(*parts)) for key, parts in rows]``, derived in one batch."""
    return list(zip([key for key, _ in rows], derive_seeds([parts for _, parts in rows])))


def split_delta_budget(total: float, n: int, T: int) -> tuple[float, float, float]:
    """Split one total failure probability into (delta0, delta', delta_hat).

    Equal thirds: delta' = delta_hat = total/3, and the per-contribution
    delta0 spends the remaining third across the (N_v + T/n) composed
    cycles.
    """
    third = total / 3.0
    n_v = acct.chernoff_visit_bound(T, 1.0 / n, third)
    return third / (n_v + T / n), third, third


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


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str)


def _write_meta(run_dir: Path, meta: dict) -> None:
    meta = {
        **meta,
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "environment": {
            "python": sys.version.split()[0], "numpy": np.__version__, "workers": meta["workers"],
            "cpu_count": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        },
    }
    _write_json(run_dir / "meta.json", meta)


# ---------------------------------------------------------------------------
# bounds_sweep
# ---------------------------------------------------------------------------

def cmd_bounds_sweep(cfg: dict, run_dir: Path, workers: int, unchecked: bool) -> dict:
    """Theory curves over an n grid at T = t_factor * n.

    Columns: n, network_eps, local_eps, network_fixed_eps, local_fixed_eps;
    the *_fixed variants assume exactly T/n contributions per user.  Without
    ``delta0``, each n splits ``total_delta`` by :func:`split_delta_budget`;
    ``meta.json`` records the (delta0, delta_prime, delta_hat) each n used.
    """
    eps0 = cfg["eps0"]
    rows, delta_split = [], {}
    for n in sorted(cfg["n_grid"]):
        T = cfg["t_factor"] * n
        if cfg["delta0"] is None:
            delta0, delta_prime, delta_hat = split_delta_budget(cfg["total_delta"], n, T)
        else:
            delta0, delta_prime, delta_hat = cfg["delta0"], cfg["delta_prime"], cfg["delta_hat"]
        delta_split[str(n)] = {"delta0": delta0, "delta_prime": delta_prime, "delta_hat": delta_hat}
        chain = (eps0, delta0, n, T, delta_prime, delta_hat)
        network = acct.complete_sum_bound(*chain, unchecked=unchecked)
        local = acct.local_baseline_sum(eps0, delta0, network.intermediates["N_v"], delta_prime)
        network_fixed = acct.complete_sum_bound(*chain, fixed_contributions=True, unchecked=unchecked)
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
    return {"delta_split": delta_split}


# ---------------------------------------------------------------------------
# empirical_sweep
# ---------------------------------------------------------------------------

def _empirical_point(args: tuple) -> tuple[int, float, float, float, int]:
    cfg, n, walk_seed = args
    walk = sample_walk(Topology(COMPLETE, n), cfg["t_factor"] * n, walk_seed)
    pairs = emp.empirical_pair_loss_summary(walk, cfg["eps0"], cfg["delta0"], cfg["delta_prime"])
    return n, pairs.mean, pairs.min, pairs.max, pairs.meta["max_cycles"]


def cmd_empirical_sweep(cfg: dict, run_dir: Path, workers: int, unchecked: bool) -> dict:
    """Per-pair empirical losses on sampled walks, pooled per n."""
    n_grid = sorted(cfg["n_grid"])
    tasks = [(cfg, n, walk_seed) for n, walk_seed in
             _indexed_seeds([(n, (cfg["seed"], n, r)) for n in n_grid for r in range(cfg["runs"])])]
    points = _parallel_map(_empirical_point, tasks, workers)
    rows, max_cycles = [], {}
    for n in n_grid:
        means, los, his, cycles = zip(*(p[1:] for p in points if p[0] == n))
        rows.append({"n": n, "mean": float(np.mean(means)),
                     "min": float(np.min(los)), "max": float(np.max(his))})
        max_cycles[str(n)] = max(cycles)
    _write_csv(run_dir / "results.csv", ["n", "mean", "min", "max"], rows)
    # the most capped cycles any observer composed, per n (the closed-form
    # bounds provision N_v + T/n of them)
    return {"delta_convention": "per-pair delta = cycles * delta0 + delta_prime",
            "max_cycles": max_cycles}


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


def cmd_protocol_mc(cfg: dict, run_dir: Path, workers: int, unchecked: bool) -> None:
    """Monte Carlo estimates of protocol output moments and response counts."""
    seed, runs = cfg["seed"], cfg["runs"]
    params = {**cfg, "stream_seed": derive_seed(seed, 0xDA7A)}
    rows = []
    for name in cfg["protocols"]:
        spec = _MC_PROTOCOLS[name]
        tag = zlib.crc32(name.encode()) & 0xFFFF
        seeds = derive_seeds([(seed, tag, r) for r in range(runs)])
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


# ---------------------------------------------------------------------------
# sgd_compare
# ---------------------------------------------------------------------------

def _sgd_runs(args: tuple) -> list[dpml.TrainResult]:
    return dpml.train(*args)  # (batch, data, runs)


def cmd_sgd_compare(cfg: dict, run_dir: Path, workers: int, unchecked: bool) -> None:
    """Local vs network vs centralized DP-SGD on logistic regression.

    Every (eps, regime) pair is calibrated before any training, so an
    infeasible target fails before a run starts.  All pairs then share one
    eta search and one replica batch (split into at most ``workers``
    contiguous chunks), so the output follows from the lockstep contract of
    :func:`~netdp.protocols.run_complete_sgd`.  Each eps keys its seeds by
    ``int(eps * 1000)`` and its trace files by ``f"{eps:g}"``, so two eps
    values that share either are rejected.
    """
    seed, runs, n, eps_list = cfg["seed"], cfg["runs"], cfg["n"], cfg["eps"]
    if cfg["dataset"] == "real" and cfg["dataset_path"] is None:
        raise ValueError("dataset = real requires a dataset_path entry")
    if min(len({int(eps * 1000) for eps in eps_list}), len({f"{eps:g}" for eps in eps_list})) < len(eps_list):
        raise ValueError(f"eps values {eps_list} must differ in int(eps * 1000) and in eps:g")
    if cfg["eta"] is None and cfg["tune_seeds"] < 1:
        raise ValueError(f"tune_seeds must be >= 1 when eta is tuned, got {cfg['tune_seeds']}")
    if cfg["dataset"] == "synthetic":
        data = dpml.make_synthetic(n_users=n, points_per_user=cfg["points_per_user"], dim=cfg["dim"],
                                   seed=derive_seed(seed, 0xDA7A))
    else:
        data = dpml.load_csv_dataset(cfg["dataset_path"], n_users=n, seed=seed)

    grid = [(eps, regime) for eps in eps_list
            for regime in (dpml.LOCAL, dpml.NETWORK, dpml.CENTRALIZED)]
    configs = [dpml.TrainConfig(regime=regime, T=cfg["T"], eta=1.0,
                                budget=dpml.PrivacyBudget(eps, cfg["delta"]),
                                cap_multiplier=cfg["cap_multiplier"])
               for eps, regime in grid]
    sigmas = [dpml.calibrate_regime(c, data.n_users) for c in configs]
    if cfg["eta"] is not None:
        etas = [cfg["eta"]] * len(grid)
    else:
        etas = dpml.tune_eta(
            dpml.RegimeBatch(configs, sigmas), data,
            _indexed_seeds([(i, (seed, int(eps * 1000), 0xE7A, t))
                            for i, (eps, _) in enumerate(grid) for t in range(cfg["tune_seeds"])]),
        )
    batch = dpml.RegimeBatch([replace(c, eta=eta) for c, eta in zip(configs, etas)], sigmas)
    replicas = _indexed_seeds([(i, (seed, int(eps * 1000), r))
                               for i, (eps, _) in enumerate(grid) for r in range(runs)])
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
        # mean traces across seeds, as Python numbers: _fmt writes floats by repr
        columns = ["step", "objective", "test_accuracy"]
        trace = zip(pair[0].objective_trace[:, 0].astype(int).tolist(),
                    np.mean([r.objective_trace[:, 1] for r in pair], axis=0).tolist(),
                    np.mean([r.accuracy_trace[:, 1] for r in pair], axis=0).tolist())
        _write_csv(run_dir / f"trace_{regime}_eps{eps:g}.csv", columns, [dict(zip(columns, p)) for p in trace])
    _write_csv(
        run_dir / "results.csv",
        ["regime", "eps", "sigma", "eta", "mean_final_objective",
         "std_final_objective", "mean_final_accuracy", "diverged_runs"],
        rows,
    )


# ---------------------------------------------------------------------------
# sigma_search
# ---------------------------------------------------------------------------

def cmd_sigma_search(cfg: dict, run_dir: Path, workers: int, unchecked: bool) -> None:
    """Smallest network-SGD sigma for a target budget, with a chain re-check.

    An infeasible target writes its error and diagnostics to
    ``results.json`` before exiting 3."""
    eps, delta, T_u, n, L = (cfg[k] for k in ("eps", "delta", "T_u", "n", "L"))
    try:
        sigma, alpha = acct.sigma_search(eps, delta, T_u, n, L)
    except InfeasibleError as exc:
        _write_json(run_dir / "results.json", {"error": str(exc), "diagnostics": exc.diagnostics})
        raise
    recheck = acct.rdp_to_dp(acct.sgd_network_rdp(alpha, T_u, L, sigma, n), delta)
    _write_json(run_dir / "results.json", {"sigma_min": sigma, "alpha_used": alpha, "recheck_eps": recheck})


# ---------------------------------------------------------------------------
# Config keys
# ---------------------------------------------------------------------------

REQUIRED = object()  # a Key default: the key must be given


class Key(NamedTuple):
    """One config key.

    ``type`` is int, float or str, or ``list[...]`` of one of them for a
    non-empty comma list (a single value counts as a one-item list).  A
    ``default`` of None leaves the key unset; :data:`REQUIRED` makes it
    mandatory.  ``range`` is an interval such as ``"[1, inf)"`` or a tuple of
    the allowed strings; it applies to every item of a list.  A key that
    ``needs`` another is read only when that one is set: given without it,
    it is an invalid configuration, and otherwise it resolves to None.
    """

    type: type
    default: object = None
    range: str | tuple[str, ...] | None = None
    needs: str | None = None


_COMMON_KEYS = {"seed": Key(int, 0, "[0, inf)"), "runs": Key(int, 10, "[1, inf)")}

# every experiment's keys; ranges guard only what would otherwise fail
# without a ValueError, or without naming the key, in this module's own
# arithmetic: the library checks its own domains
KEYS: dict[str, dict[str, Key]] = {experiment: {**keys, **_COMMON_KEYS} for experiment, keys in {
    "bounds_sweep": {
        "n_grid": Key(list[int], [20, 50, 100, 1000, 10000], "[1, inf)"),
        "eps0": Key(float, 0.5),
        "t_factor": Key(int, 100),
        "total_delta": Key(float, 3e-3),
        "delta0": Key(float),  # unset: split total_delta
        "delta_prime": Key(float, 1e-3, needs="delta0"),
        "delta_hat": Key(float, 1e-3, needs="delta0"),
    },
    "empirical_sweep": {
        "n_grid": Key(list[int], [20, 100, 1000], "[2, inf)"),
        "eps0": Key(float, 0.5),
        "t_factor": Key(int, 100),
        "delta0": Key(float, 1e-7),
        "delta_prime": Key(float, 1e-3, "(0, 1)"),
    },
    "protocol_mc": {
        "protocols": Key(list[str], ["ring_sum", "complete_sum"], tuple(_MC_PROTOCOLS)),
        "n": Key(int, 100, "[1, inf)"),
        "K": Key(int, 10, "[1, inf)"),
        "T": Key(int, 1000, "[1, inf)"),
        "sigma_loc": Key(float, 1.0),
        "gamma": Key(float, 0.3),
        "domain_size": Key(int, 5),
        "clip": Key(float, 1.0),
        "mode": Key(str, "single_noiser"),
    },
    "sgd_compare": {
        "dataset": Key(str, "synthetic", ("synthetic", "real")),
        "dataset_path": Key(str),
        "n": Key(int, 200),
        "points_per_user": Key(int, 8),
        "dim": Key(int, 20, "[1, inf)"),
        "T": Key(int, 2000),
        "eps": Key(list[float], [1.0, 10.0]),
        "delta": Key(float, 1e-6, "(0, inf)"),
        "cap_multiplier": Key(float, 2.0),
        "eta": Key(float),  # unset: tune eta
        "tune_seeds": Key(int, 5),
    },
    "sigma_search": {
        "eps": Key(float, REQUIRED),
        "delta": Key(float, REQUIRED),
        "T_u": Key(float, 10.0),
        "n": Key(int, 1000),
        "L": Key(float, 1.0),
    },
}.items()}

_TYPE_NAMES = {int: "an integer", float: "a finite number", str: "a string"}


def resolve_config(experiment: str, config: dict) -> dict:
    """Every key of ``KEYS[experiment]``, typed and range-checked, defaults
    filled in and unset keys (and keys whose ``needs`` is unset) as None.

    An unknown key, a missing required key, a value of the wrong type, a
    non-finite float, a value out of range or a key given without the key it
    ``needs`` is a ``ValueError`` naming the key.  An int key takes an int
    or an integral float such as ``3.0``; a float key takes an int or a
    float.
    """
    keys = KEYS[experiment]
    unknown = sorted(set(config) - set(keys))
    if unknown:
        raise ValueError(f"unknown key(s) {unknown} for {experiment}; known keys: {sorted(keys)}")
    resolved = {}
    for name, key in keys.items():
        value = config.get(name, key.default)
        if value is REQUIRED:
            raise ValueError(f"{name} is required")
        if value is None:  # unset
            resolved[name] = None
            continue
        kind = getattr(key.type, "__args__", (key.type,))[0]  # list[int] -> int
        values = value if kind is not key.type and isinstance(value, list) else [value]
        if not values:
            raise ValueError(f"{name} must list at least one value")
        checked = [_check_value(name, kind, v, key.range) for v in values]
        resolved[name] = checked if kind is not key.type else checked[0]
    for name, key in keys.items():
        if key.needs is not None and resolved[key.needs] is None:
            if name in config:
                raise ValueError(f"{name} is read only when {key.needs} is set")
            resolved[name] = None  # not read, so its default is not what ran
    return resolved


def _check_value(name: str, kind: type, value, allowed):
    if kind is int and type(value) is float and value.is_integer():
        value = int(value)
    elif kind is float and type(value) is int:
        value = float(value) if abs(value) <= 2**1023 else math.inf  # float() of a larger int overflows
    if type(value) is not kind or kind is float and not math.isfinite(value):
        raise ValueError(f"{name} must be {_TYPE_NAMES[kind]}, got {value!r}")
    if isinstance(allowed, str):  # an interval such as "[1, inf)" or "(0, 1)"
        lo, hi = (float(x) for x in allowed[1:-1].split(","))
        at_open_end = value == lo and allowed[0] == "(" or value == hi and allowed[-1] == ")"
        if not lo <= value <= hi or at_open_end:
            raise ValueError(f"{name} must be in {allowed}, got {value!r}")
    elif allowed is not None and value not in allowed:
        raise ValueError(f"{name} must be one of {list(allowed)}, got {value!r}")
    return value


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
EXPERIMENTS = tuple(_COMMANDS)


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
    run_dir, made = None, []
    try:
        config = parse_config(args.config) if args.config else {}
        config.update(_parse_entry(override, "--set") for override in args.set)
        flags = {k: v for k, v in (("seed", args.seed), ("runs", args.runs)) if v is not None}
        cfg = resolve_config(args.experiment, {**config, **flags})
        meta = {"experiment": args.experiment, "config": config, "resolved_config": cfg,
                "seed": cfg["seed"], "runs": cfg["runs"], "workers": args.workers,
                "unchecked": args.unchecked}
        experiment_dir = args.out / args.experiment
        made = [p for p in (experiment_dir, *experiment_dir.parents) if not p.exists()]
        run_dir = _make_run_dir(args.out, args.experiment, cfg["seed"])
        try:
            meta.update(_COMMANDS[args.experiment](cfg, run_dir, args.workers, args.unchecked) or {})
        finally:
            if any(run_dir.iterdir()):  # a failed run's error payload gets its meta.json too
                _write_meta(run_dir, meta)
        print(run_dir)
        return 0
    except InfeasibleError as exc:
        print(f"infeasible target: {exc} {exc.diagnostics}", file=sys.stderr)
        code = 3
    except (ValueError, ValidityWindowError, KeyError, OSError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        code = 2
    if run_dir is not None:  # a failed run keeps only what it wrote, such as an error
        for path in (run_dir, *made):  # payload, and no empty directory this call made
            if any(path.iterdir()):
                break
            path.rmdir()
    return code


if __name__ == "__main__":
    sys.exit(main())
