"""The benchmark's workloads: CLI calls, their configs and output checks.

Each workload is a batch job of ``netdp`` CLI experiment calls run back to
back in one process with ``--workers 1`` (a closed loop with one client).
The benchmark seed is the CLI ``--seed`` of every call, so one seed gives the
same inputs and, by the CLI's determinism contract, the same result files.

This module imports netdp only inside the check functions, so run.py can
read the workload table without loading the package.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

# z-score allowed for Monte Carlo estimates; |z| > 5 has probability < 1e-6
# per estimate, so a correct program does not fail a check on any seed in use.
Z_MAX = 5.0


@dataclass(frozen=True)
class Call:
    """One CLI experiment call: ``netdp --experiment ... --config <file>``."""

    experiment: str
    config: dict
    runs: int | None = None

    def argv(self, config_path: Path, out: Path, seed: int) -> list[str]:
        argv = ["--experiment", self.experiment, "--config", str(config_path),
                "--out", str(out), "--seed", str(seed), "--workers", "1"]
        if self.runs is not None:
            argv += ["--runs", str(self.runs)]
        return argv

    def config_text(self) -> str:
        lines = [f"# {self.experiment} config written by perfbench"]
        for key, value in self.config.items():
            text = ",".join(str(v) for v in value) if isinstance(value, (list, tuple)) else str(value)
            lines.append(f"{key} = {text}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Workload:
    """A named batch of CLI calls; why each was chosen is in BENCHMARK.json."""

    name: str
    calls: tuple[Call, ...]
    # work units per pass for the workload's throughput line: (unit, count)
    work: tuple[str, int] | None = None


PROTOCOL_MC_RUNS = 200
PROTOCOL_MC = Call("protocol_mc", {
    "protocols": ["ring_sum", "complete_sum", "ring_hist", "complete_hist"],
    "n": 500, "K": 20, "T": 10000, "domain_size": 5, "gamma": 0.3,
    "sigma_loc": 1, "mode": "distributed",
}, runs=PROTOCOL_MC_RUNS)

# T = 25 n rather than the paper's 100 n keeps one pass near 5 s, so a run
# holds several passes and their median resists the host's slow spells; the
# n = 1000 matrix (8 MB) still exceeds L2.
EMPIRICAL_SWEEP = Call("empirical_sweep", {
    "n_grid": [100, 1000], "t_factor": 25, "eps0": 0.5,
    "delta0": 1e-7, "delta_prime": 1e-3,
}, runs=1)

BOUNDS_SWEEP = Call("bounds_sweep", {})
SIGMA_SEARCH = Call("sigma_search", {"eps": 1, "delta": 1e-6, "T_u": 10, "n": 500})
SGD_COMPARE = Call("sgd_compare", {
    "dataset": "synthetic", "n": 200, "T": 2000, "eps": 1.0, "delta": 1e-6,
}, runs=10)

WORKLOADS = {
    w.name: w for w in (
        Workload(
            "protocol_mc",
            (PROTOCOL_MC,),
            work=("protocol_runs", PROTOCOL_MC_RUNS * len(PROTOCOL_MC.config["protocols"])),
        ),
        Workload(
            "empirical_sweep",
            (EMPIRICAL_SWEEP,),
            work=("walk_steps", sum(EMPIRICAL_SWEEP.config["t_factor"] * n
                                    for n in EMPIRICAL_SWEEP.config["n_grid"])),
        ),
        Workload(
            "accounting_sgd",
            (BOUNDS_SWEEP, SIGMA_SEARCH, SGD_COMPARE),
        ),
    )
}


# ---------------------------------------------------------------------------
# Output checks: each returns a list of failure messages (empty when correct)
# ---------------------------------------------------------------------------

def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_protocol_mc(call: Call, run_dir: Path) -> list[str]:
    """Monte Carlo moments agree with the protocols' closed-form expectations."""
    errors = []
    runs = call.runs
    gamma = float(call.config["gamma"])
    for row in _rows(run_dir / "results.csv"):
        name = row["protocol"]
        if name.endswith("_sum"):
            expected = float(row["expected_std"])
            ratio = float(row["std_error"]) / expected
            # std-dev estimate of R normal draws has relative s.e. 1/sqrt(2(R-1))
            if abs(ratio - 1.0) > Z_MAX / math.sqrt(2.0 * (runs - 1)):
                errors.append(f"{name}: std_error/expected_std = {ratio:.4f}")
            z = float(row["mean_error"]) / (expected / math.sqrt(runs))
            if abs(z) > Z_MAX:
                errors.append(f"{name}: mean_error is {z:.2f} standard errors from 0")
        else:
            bias = float(row["max_bin_bias_se"])
            if not bias <= Z_MAX:
                errors.append(f"{name}: max_bin_bias_se = {bias:.3f}")
            steps = int(row["steps"])
            se = math.sqrt(steps * gamma * (1.0 - gamma) / runs)
            gap = abs(float(row["rr_mean"]) - float(row["rr_expected"]))
            if gap > Z_MAX * se + 1.0:  # + 1 covers rounding of ceil(gamma n)
                errors.append(f"{name}: rr_mean is {gap:.2f} from rr_expected (s.e. {se:.2f})")
    return errors


def check_empirical_sweep(call: Call, run_dir: Path) -> list[str]:
    """Pair losses are ordered, non-negative and below the closed-form bound."""
    from netdp import accountant

    errors = []
    cfg = call.config
    for row in _rows(run_dir / "results.csv"):
        n = int(row["n"])
        lo, mean, hi = float(row["min"]), float(row["mean"]), float(row["max"])
        if not 0.0 <= lo <= mean <= hi:
            errors.append(f"n={n}: expected 0 <= min <= mean <= max, got {lo}, {mean}, {hi}")
        bound = accountant.complete_sum_bound(
            cfg["eps0"], cfg["delta0"], n, cfg["t_factor"] * n, cfg["delta_prime"], 1e-3
        ).epsilon_out
        if not mean < bound:
            errors.append(f"n={n}: mean {mean} not below complete_sum_bound {bound}")
    return errors


def check_bounds_sweep(call: Call, run_dir: Path) -> list[str]:
    """The network bound beats the local baseline from 20 users on."""
    return [
        f"n={row['n']}: network_eps {row['network_eps']} >= local_eps {row['local_eps']}"
        for row in _rows(run_dir / "results.csv")
        if int(row["n"]) >= 20 and not float(row["network_eps"]) < float(row["local_eps"])
    ]


def check_sigma_search(call: Call, run_dir: Path) -> list[str]:
    """The chosen sigma re-checks to the target budget."""
    with open(run_dir / "results.json") as fh:
        payload = json.load(fh)
    if not payload["recheck_eps"] <= call.config["eps"]:
        return [f"recheck_eps {payload['recheck_eps']} > eps {call.config['eps']}"]
    return []


def check_sgd_compare(call: Call, run_dir: Path) -> list[str]:
    """Each regime's sigma meets its budget, sigmas are ordered, objectives finite."""
    from netdp import dpml

    errors = []
    cfg = call.config
    sigma = {}
    for row in _rows(run_dir / "results.csv"):
        regime, eps = row["regime"], float(row["eps"])
        sigma[regime] = float(row["sigma"])
        config = dpml.TrainConfig(
            regime=regime, T=cfg["T"], eta=float(row["eta"]),
            budget=dpml.PrivacyBudget(eps, cfg["delta"]),
        )
        verified = dpml.verify_privacy(config, cfg["n"], sigma[regime])
        if not verified <= eps:
            errors.append(f"{regime}: verify_privacy gives {verified} > eps {eps}")
        for key in ("mean_final_objective", "std_final_objective"):
            if not math.isfinite(float(row[key])):
                errors.append(f"{regime}: {key} = {row[key]}")
    if not sigma.get("centralized", math.inf) < sigma.get("network", -math.inf) < sigma.get("local", -math.inf):
        errors.append(f"sigma not ordered centralized < network < local: {sigma}")
    return errors


CHECKS = {
    "protocol_mc": check_protocol_mc,
    "empirical_sweep": check_empirical_sweep,
    "bounds_sweep": check_bounds_sweep,
    "sigma_search": check_sigma_search,
    "sgd_compare": check_sgd_compare,
}
