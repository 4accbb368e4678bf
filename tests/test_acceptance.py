"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; the suite is deterministic (fixed seeds throughout).
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from netdp.core import COMPLETE, Topology, sample_walk, visit_counts
from netdp.cli import main as cli_main
from netdp import accountant as acct
from netdp import dpml
from netdp import empirical as emp
from netdp import protocols as proto

from conftest import criterion_line


def test_c01_ring_sum_variance():
    # n=100, K=10, sigma_loc=1, 1e5 runs: sample std within 3% of sqrt(10)
    start = time.time()
    n, K, runs = 100, 10, 100_000
    stream = proto.uniform_scalar_stream(n, seed=17)
    outs = np.empty(runs)
    for s in range(runs):
        outs[s] = proto.run_ring_sum(n, K, stream, 1.0, seed=s).output
    std = outs.std(ddof=1)
    elapsed = time.time() - start
    ok = abs(std - math.sqrt(10)) <= 0.03 * math.sqrt(10) and elapsed < 60
    criterion_line("ring_sum_variance", ok,
                   f"std={std:.4f} target={math.sqrt(10):.4f} elapsed={elapsed:.0f}s")
    assert abs(std - math.sqrt(10)) <= 0.03 * math.sqrt(10)
    assert elapsed < 60


def test_c02_ring_structural_privacy():
    # every inter-observation difference on 1e3 traces carries >= 1 noise
    # event from another user and <= 1 contribution of the observer
    configs = [(10, 3), (20, 5), (50, 2), (100, 10)]
    violations = 0
    checked = 0
    for n, K in configs:
        stream = proto.uniform_scalar_stream(n, seed=23)
        for s in range(250):
            res = proto.run_ring_sum(n, K, stream, 1.0, seed=s)
            violations += proto.audit_ring_sum_structure(res, require_other_noiser=True)
            checked += 1
    criterion_line("ring_structural_privacy", violations == 0,
                   f"{violations} violations over {checked} traces")
    assert checked == 1000
    assert violations == 0


def test_c03_cycle_bound_domination():
    # subsample_amplify(eps/sqrt(m), n, m) <= 3 eps / sqrt(n), exactly
    worst = -math.inf
    for n in (10, 10**2, 10**3, 10**4):
        for eps in (0.1, 0.5, 1.0):
            cap = acct.cycle_bound_sum(eps, n)
            for m in range(1, n + 1):
                gap = acct.subsample_amplify(eps / math.sqrt(m), n, m) - cap
                worst = max(worst, gap)
    criterion_line("cycle_bound_domination", worst <= 0.0, f"max(exact - cap)={worst:.3e}")
    assert worst <= 0.0


def _matched_bounds(n: int, T: int, eps0: float):
    delta0, dp, dh = 1e-7, 1e-3, 1e-3
    net = acct.complete_sum_bound(eps0, delta0, n, T, dp, dh)
    loc = acct.local_baseline_sum(eps0, delta0, net.intermediates["N_v"], dp)
    return net.epsilon_out, loc.epsilon_out


def test_c04_network_beats_local_from_twenty_users():
    ok = True
    details = []
    for eps0 in (0.5, 1.0):
        for n in (20, 50, 100, 1000, 10**4):
            net, loc = _matched_bounds(n, 100 * n, eps0)
            ok &= net < loc
            details.append(f"n={n},e0={eps0}:{net / loc:.3f}")
    criterion_line("crossover_n_ge_20", ok, " ".join(details[:5]))
    assert ok


def test_c05_amplification_slope():
    ns = np.array([10**2, 10**3, 10**4, 10**5], dtype=float)
    ratios = [
        _matched_bounds(int(n), int(100 * n), 0.5)[0] / _matched_bounds(int(n), int(100 * n), 0.5)[1]
        for n in ns
    ]
    slope = float(np.polyfit(np.log(ns), np.log(ratios), 1)[0])
    ok = -0.6 <= slope <= -0.4
    criterion_line("amplification_slope", ok, f"slope={slope:.4f}")
    assert -0.6 <= slope <= -0.4


def test_c06_empirical_beats_theory():
    eps0, delta0, dp, dh = 0.5, 1e-7, 1e-3, 1e-3
    all_ok = True
    details = []
    for n in (20, 100, 1000):
        T = 100 * n
        bound = acct.complete_sum_bound(eps0, delta0, n, T, dp, dh)
        n_v = bound.intermediates["N_v"]
        maxima, means, respected_maxima = [], [], []
        for r in range(10):
            walk = sample_walk(Topology(COMPLETE, n), T, seed=1000 * n + r)
            matrix = emp.empirical_pair_loss_sum(walk, eps0, delta0, dp)
            vals = matrix.finite_offdiagonal()
            maxima.append(vals.max())
            means.append(vals.mean())
            # columns of observers within the visit bound (the event the
            # delta_hat budget pays for); walks outside it are reported
            counts = visit_counts(walk)
            ok_cols = np.flatnonzero(counts <= n_v)
            sub = matrix.matrix[:, ok_cols]
            respected_maxima.append(np.nanmax(sub))
        hard_ok = max(maxima) <= bound.epsilon_out
        filtered_ok = max(respected_maxima) <= bound.epsilon_out
        mean_ratio = np.mean(means) / bound.epsilon_out
        gap_ok = mean_ratio <= 0.5 if n == 1000 else True
        all_ok &= hard_ok and filtered_ok and gap_ok
        details.append(
            f"n={n}: max/bound={max(maxima) / bound.epsilon_out:.3f} mean/bound={mean_ratio:.3f}"
        )
        assert hard_ok, f"n={n}: empirical max {max(maxima)} exceeds bound {bound.epsilon_out}"
        assert filtered_ok
        if n == 1000:
            assert mean_ratio <= 0.5, f"mean ratio {mean_ratio}"
    criterion_line("empirical_beats_theory", all_ok, " ".join(details))


def test_c07_chernoff_coverage():
    start = time.time()
    n, T, delta_hat, walks = 50, 5000, 0.05, 10_000
    n_v = acct.chernoff_visit_bound(T, 1 / n, delta_hat)
    exceed = np.zeros(n, dtype=np.int64)
    for s in range(walks):
        counts = visit_counts(sample_walk(Topology(COMPLETE, n), T, seed=s))
        exceed += counts >= n_v
    frac = exceed / walks
    elapsed = time.time() - start
    ok = bool(np.all(frac <= delta_hat)) and elapsed < 120
    criterion_line("chernoff_coverage", ok,
                   f"worst fraction={frac.max():.4f} <= {delta_hat}, elapsed={elapsed:.0f}s")
    assert np.all(frac <= delta_hat)
    assert elapsed < 120


def test_c08_histogram_unbiasedness_and_response_counts():
    # ring: n=500, K=20, L=5, gamma=0.3 over 1e4 runs
    n, K, L, gamma, runs = 500, 20, 5, 0.3, 10_000
    stream = proto.uniform_category_stream(n, L, seed=31)
    true_hist = np.bincount(np.repeat(stream - 1, K), minlength=L)
    errors = np.empty((runs, L))
    rr = np.empty(runs)
    for s in range(runs):
        res = proto.run_ring_hist(n, K, L, stream, gamma, seed=s)
        errors[s] = np.asarray(res.output) - true_hist
        rr[s] = res.random_response_count
    se = errors.std(axis=0, ddof=1) / math.sqrt(runs)
    bias_ok = bool(np.all(np.abs(errors.mean(axis=0)) <= 3 * se))
    ring_expected = gamma * n * (K + 1)
    ring_count_ok = abs(rr.mean() - ring_expected) <= 0.02 * ring_expected

    # complete graph: response count against gamma * T
    T, runs_c = 10_000, 2000
    rr_c = np.empty(runs_c)
    for s in range(runs_c):
        res = proto.run_complete_hist(n, T, L, stream, gamma, seed=s)
        rr_c[s] = res.random_response_count
    complete_count_ok = abs(rr_c.mean() - gamma * T) <= 0.02 * gamma * T

    ok = bias_ok and ring_count_ok and complete_count_ok
    criterion_line(
        "histogram_unbiasedness", ok,
        f"max|bias|/se={float(np.max(np.abs(errors.mean(axis=0)) / se)):.2f}, "
        f"ring rr={rr.mean():.1f}/{ring_expected:.1f}, complete rr={rr_c.mean():.1f}/{gamma * T:.1f}",
    )
    assert bias_ok
    assert ring_count_ok
    assert complete_count_ok


def test_c09_sgd_rdp_chain():
    # geometric-sum inequality, partial sums converged to 1e-12
    geo_ok = True
    for n in (2, 10, 100, 1000):
        x = 1 - 1 / n
        t = np.arange(1, 300_000)
        partial = float(np.sum(x**t / t)) / n
        tail = x ** 300_000 / (300_000 * (1 - x)) / n
        assert tail < 1e-12
        geo_ok &= partial <= math.log(n) / n
    # conversion identity to 1e-12
    p = acct.RdpPoint(8.0, 0.03)
    lhs = acct.rdp_to_dp(acct.rdp_compose([p] * 25), 1e-6)
    rhs = acct.rdp_to_dp(acct.RdpPoint(8.0, 25 * 0.03), 1e-6)
    conv_ok = abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))
    criterion_line("sgd_rdp_chain", geo_ok and conv_ok,
                   f"geometric ok={geo_ok}, conversion |diff|={abs(lhs - rhs):.2e}")
    assert geo_ok
    assert conv_ok


def _regime_sigmas(n, T, eps, delta, c):
    sigmas = {}
    for regime in (dpml.LOCAL, dpml.NETWORK, dpml.CENTRALIZED):
        config = dpml.TrainConfig(regime=regime, T=T, eta=1.0,
                                  budget=dpml.PrivacyBudget(eps, delta),
                                  cap_multiplier=c)
        sigmas[regime] = dpml.calibrate_regime(config, n)
    return sigmas


def test_c10_sigma_ordering():
    s = _regime_sigmas(n=2000, T=20_000, eps=1.0, delta=1e-6, c=2.0)
    ok = s[dpml.CENTRALIZED] < s[dpml.NETWORK] < s[dpml.LOCAL]
    criterion_line(
        "sigma_ordering", ok,
        f"centralized={s[dpml.CENTRALIZED]:.3f} < network={s[dpml.NETWORK]:.3f} "
        f"< local={s[dpml.LOCAL]:.3f}",
    )
    assert ok


def test_c11_desk_scale_sgd_comparison():
    start = time.time()
    n, T, delta, c, seeds = 200, 2000, 1e-6, 2.0, 20
    data = dpml.make_synthetic(n_users=n, points_per_user=8, dim=20, seed=42)
    results = {}
    for eps in (1.0, 10.0):
        sigmas = _regime_sigmas(n, T, eps, delta, c)
        for regime in (dpml.LOCAL, dpml.NETWORK, dpml.CENTRALIZED):
            base = dpml.TrainConfig(regime=regime, T=T, eta=1.0,
                                    budget=dpml.PrivacyBudget(eps, delta),
                                    cap_multiplier=c)
            eta = dpml.tune_eta(base, data, sigmas[regime], seeds=range(5))
            runs = dpml.train(
                dpml.TrainConfig(regime=regime, T=T, eta=eta,
                                 budget=dpml.PrivacyBudget(eps, delta),
                                 cap_multiplier=c),
                data, seeds=[100 + s for s in range(seeds)], sigma=sigmas[regime],
            )
            results[(regime, eps)] = {
                "objective": float(np.mean([r.final_objective for r in runs])),
                "initial": float(np.mean([r.objective_trace[0, 1] for r in runs])),
                "blown_up": sum(r.diverged for r in runs),
            }
    elapsed = time.time() - start
    ok = True
    details = []
    for eps in (1.0, 10.0):
        obj = {reg: results[(reg, eps)]["objective"] for reg in
               (dpml.LOCAL, dpml.NETWORK, dpml.CENTRALIZED)}
        ordered = obj[dpml.CENTRALIZED] <= obj[dpml.NETWORK] <= obj[dpml.LOCAL]
        ok &= ordered
        details.append(
            f"eps={eps:g}: C={obj[dpml.CENTRALIZED]:.3f} N={obj[dpml.NETWORK]:.3f} "
            f"L={obj[dpml.LOCAL]:.3f}"
        )
        assert ordered, details[-1]
    # "diverges" = training anti-progress: the mean curve ends above its
    # start (the rising-curve failure mode), or an outright blow-up
    local_low = results[(dpml.LOCAL, 1.0)]
    network_low = results[(dpml.NETWORK, 1.0)]
    diverges = (local_low["objective"] > local_low["initial"]
                or local_low["blown_up"] > 0)
    ratio = local_low["objective"] / network_low["objective"]
    degraded = diverges or ratio >= 2.0
    ok &= degraded and elapsed < 600
    criterion_line("desk_scale_sgd", ok,
                   "; ".join(details)
                   + f"; local@1: final={local_low['objective']:.3f} vs "
                   f"init={local_low['initial']:.3f} (diverges={diverges}), "
                   f"L/N ratio={ratio:.2f}, elapsed={elapsed:.0f}s")
    assert degraded, f"local@1 neither diverges nor trails network 2x (ratio={ratio:.2f})"
    assert elapsed < 600


def test_c12_spotted_contribution_trend():
    # spotted events compose with the advanced rule, whose fixed
    # sqrt(ln(1/delta')) overhead dominates a pair's term when it holds
    # only a handful of events; as T grows the overhead amortizes while the
    # walk-amplified base keeps growing, so over the pairs that carry
    # spotted events the spotted share of the total loss shrinks
    n, seeds = 100, 20
    t_grid = [100, 200, 400, 1000, 2000, 4000, 10_000]
    eps0, delta0, dp = 0.5, 1e-7, 1e-3
    mean_ratios = []
    for T in t_grid:
        ratios = []
        for s in range(seeds):
            walk = sample_walk(Topology(COMPLETE, n), T, seed=7000 + s)
            base = emp.empirical_pair_loss_sum(walk, eps0, delta0, dp)
            spot = emp.empirical_pair_loss_spotted(walk, eps0, mode="advanced",
                                                   delta_prime=dp)
            mask = ~np.eye(n, dtype=bool)
            s_vals = spot.matrix[mask]
            b_vals = base.matrix[mask]
            live = s_vals > 0
            if live.any():
                ratios.append(float(np.mean(s_vals[live] / (s_vals[live] + b_vals[live]))))
        mean_ratios.append(float(np.mean(ratios)))
    rho, pvalue = stats.spearmanr(t_grid, mean_ratios)
    decreasing = bool(np.all(np.diff(mean_ratios) <= 0))
    ok = rho < 0 and pvalue < 0.01 and decreasing
    criterion_line("spotted_trend", ok,
                   f"ratios={['%.3f' % r for r in mean_ratios]}, rho={rho:.3f}, p={pvalue:.2e}")
    assert decreasing
    assert rho < 0
    assert pvalue < 0.01


def test_c13_experiment_determinism(tmp_path):
    jobs = [
        ("bounds_sweep", "n_grid = 20,100\neps0 = 0.5\n", "results.csv", []),
        ("empirical_sweep", "n_grid = 15\neps0 = 0.5\nt_factor = 20\n", "results.csv",
         ["--runs", "3"]),
        ("protocol_mc", "protocols = ring_sum,complete_hist\nn = 30\nK = 3\nT = 200\n",
         "results.csv", ["--runs", "20"]),
        ("sigma_search", "eps = 1.0\ndelta = 1e-6\nT_u = 10\nn = 500\n", "results.json", []),
    ]
    all_ok = True
    for experiment, text, result_name, extra in jobs:
        config = tmp_path / f"{experiment}.txt"
        config.write_text(text)
        out = tmp_path / experiment
        for _ in range(2):
            code = cli_main(["--experiment", experiment, "--config", str(config),
                             "--out", str(out), "--seed", "9", *extra])
            assert code == 0
        a, b = sorted(out.glob(f"{experiment}/*/{result_name}"))
        identical = a.read_bytes() == b.read_bytes()
        all_ok &= identical
        assert identical, f"{experiment} output differs between identical runs"
    criterion_line("experiment_determinism", all_ok, f"{len(jobs)} experiments replayed")
