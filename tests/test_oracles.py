"""Privacy oracles written from first principles, independent of the package.

The waiting-time expectation.  On the complete graph the token goes to a
user drawn uniformly from the n users at every step, so the number of steps
t >= 1 until a given user next holds it has the geometric pmf
p (1 - p)^(t - 1) with p = 1/n.  Its expected inverse is

    E[1/t] = sum_{t >= 1} p (1 - p)^(t - 1) / t
           = (p / (1 - p)) * sum_{t >= 1} (1 - p)^t / t
           = (p / (1 - p)) * ln(1/p)            (Mercator series)
           = ln(n) / (n - 1).

The source paper's network-SGD analysis on the complete graph (Cyffers &
Bellet 2020, arXiv:2012.05326), as ``accountant.sgd_network_rdp`` restates
it, bounds each contribution's Renyi divergence by
2 * E[2 alpha L^2 / (sigma^2 t)] over this waiting time.  The oracle below
sums the pmf directly, is anchored on the one closed form it must meet at
n = 2 (sum 2^-t / t = ln 2), and is checked against the waiting times of
``sample_walks``' own walks.

Optimal homogeneous composition (Kairouz, Oh & Viswanath 2015, Thm 3.3).
The k-fold adaptive composition of (eps_c, delta)-DP releases is
(eps', delta_tot)-DP for every such mechanism exactly when

    (1 - delta)^k D(eps') <= delta_tot - 1 + (1 - delta)^k,
    D(eps') = (1 + e^eps_c)^-k sum_{i : (k - 2i) eps_c > eps'}
                  C(k, i) (e^{(k - i) eps_c} - e^{eps' + i eps_c}),

and randomized response attains it.  So no composition rule can report an
eps below the least such eps' for the same chain: a report under it is no
bound.  The oracle finds it by bisection on [0, k eps_c], with
``math.lgamma`` for the binomials and ``math.fsum`` for the sum, and is
anchored on k = 1 (eps' = eps_c) and on k = 2 with delta = 0
(eps' = ln(e^{2 eps_c} - delta_tot (1 + e^eps_c)^2)).

The analytic Gaussian mechanism (Balle & Wang 2018, Thm 8).  Adding
N(0, sigma^2) to a query of L2 sensitivity Delta is (eps, delta)-DP exactly
for delta >= Phi(Delta/2sigma - eps sigma/Delta)
- e^eps Phi(-Delta/2sigma - eps sigma/Delta).  The oracle is anchored on
the hockey-stick divergence of the two Gaussians, integrated numerically.
"""

import math
from functools import partial

import numpy as np
import pytest
from scipy.integrate import quad

from netdp.accountant import (complete_hist_bound, complete_sum_bound, local_baseline_sum, ring_sum_bound,
                              sgd_network_rdp)
from netdp.core import COMPLETE, Topology, sample_walks
from netdp.mechanisms import gaussian_epsilon


def expected_inverse_wait(n: int) -> float:
    """E[1/t] for the pmf p (1 - p)^(t - 1), p = 1/n, summed term by term.

    The sum stops after 60 n terms: the tail is below (1 - 1/n)^(60 n) < e^-60.
    """
    p = 1.0 / n
    return math.fsum(p * (1.0 - p) ** (t - 1) / t for t in range(1, 60 * n + 1))


def test_sum_is_ln2_at_n_2():
    # p = 1/2: the terms are 2^-t / t, the Mercator series of ln 2
    assert expected_inverse_wait(2) == pytest.approx(math.log(2.0), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("n", [2, 3, 4, 10, 200])
def test_sum_is_ln_n_over_n_minus_1(n):
    assert expected_inverse_wait(n) == pytest.approx(math.log(n) / (n - 1), rel=1e-12, abs=0.0)


def test_sampled_return_gaps_have_the_expected_inverse():
    """One user's return gaps on a sampled walk are iid draws of the waiting
    time, so their mean inverse lies within 5 standard errors of E[1/t]."""
    n, T = 4, 4 * 10**5
    steps = sample_walks(Topology(COMPLETE, n), T, [1]).row(0)
    gaps = np.diff(np.flatnonzero(steps == 1))
    inverse = 1.0 / gaps
    mean = float(inverse.mean())
    stderr = float(inverse.std(ddof=1)) / math.sqrt(inverse.size)
    assert abs(mean - expected_inverse_wait(n)) <= 5 * stderr
    # the walk tells the expectation from ln(n)/n, which understates it by (n - 1)/n
    assert abs(mean - math.log(n) / n) > 5 * stderr


# 4 ulps of relative slack: the oracle's fsum of rounded terms lands up to an
# ulp off ln(n)/(n - 1) (one ulp above it at n = 10), and the closed form's
# few roundings add as much again
ORACLE_ROUNDING = 4 * 2.0**-52


@pytest.mark.parametrize("n", [2, 10, 200])
def test_network_sgd_term_covers_the_exact_expectation(n):
    alpha, L, sigma = 2.0, 1.0, 3.0  # sigma >= L sqrt(2 alpha (alpha - 1)) = 2
    per_contribution = sgd_network_rdp(alpha, 1.0, L, sigma, n).eps_rdp
    exact = 4.0 * alpha * L * L * expected_inverse_wait(n) / sigma**2
    assert per_contribution >= exact * (1.0 - ORACLE_ROUNDING)


def optimal_composition_eps(eps_c: float, delta: float, k: int, delta_tot: float) -> float:
    """Least eps' (to 1e-13 relative) at which k releases of (eps_c, delta)-DP
    compose to (eps', delta_tot)-DP for every mechanism; needs
    delta_tot >= 1 - (1 - delta)^k."""
    log_norm = k * math.log1p(math.exp(eps_c))
    # log of C(k, i) e^{(k - i) eps_c} / (1 + e^eps_c)^k, a binomial pmf: never overflows
    log_weight = [math.lgamma(k + 1) - math.lgamma(i + 1) - math.lgamma(k - i + 1) + (k - i) * eps_c - log_norm
                  for i in range(k // 2 + 1)]

    def excess(eps_p):  # D(eps'), each term written as weight * (1 - e^{eps' - (k - 2i) eps_c}) > 0
        return math.fsum(math.exp(w) * -math.expm1(eps_p - (k - 2 * i) * eps_c)
                         for i, w in enumerate(log_weight) if (k - 2 * i) * eps_c > eps_p)

    kept = math.exp(k * math.log1p(-delta))  # (1 - delta)^k
    budget = delta_tot + math.expm1(k * math.log1p(-delta))  # delta_tot - 1 + (1 - delta)^k
    assert budget >= 0, "delta_tot below the releases' own failure probability"
    lo, hi = 0.0, k * eps_c  # D(k eps_c) = 0
    if kept * excess(lo) <= budget:
        return lo
    while hi - lo > 1e-13 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if kept * excess(mid) <= budget else (mid, hi)
    return hi


@pytest.mark.parametrize("eps_c, delta", [(0.1, 0.0), (0.7, 1e-3), (2.0, 1e-6)])
def test_one_release_composes_to_itself(eps_c, delta):
    assert optimal_composition_eps(eps_c, delta, 1, delta) == pytest.approx(eps_c, rel=1e-12)


def test_two_releases_in_closed_form():
    # delta = 0: only i = 0 counts, e^{2 eps_c} - e^eps' = delta_tot (1 + e^eps_c)^2
    eps_c, delta_tot = 0.7, 0.1
    closed = math.log(math.exp(2 * eps_c) - delta_tot * (1 + math.exp(eps_c)) ** 2)
    assert closed == pytest.approx(1.14643, abs=5e-6)
    assert optimal_composition_eps(eps_c, 0.0, 2, delta_tot) == pytest.approx(closed, rel=1e-12)


def test_optimum_is_below_simple_composition_and_grows_with_k():
    previous = 0.0
    for k in (1, 2, 5, 20, 100):
        opt = optimal_composition_eps(0.3, 1e-7, k, k * 1e-7 + 1e-3)
        assert previous < opt <= k * 0.3
        previous = opt


DELTA_PRIME = DELTA_HAT = 1e-3


def visits(T_over_n, fixed):
    """A user's contributions N_v: exactly T/n (fixed) or the Chernoff bound
    T/n + sqrt(3 T/n ln(1/delta_hat))."""
    return T_over_n if fixed else T_over_n + math.sqrt(3 * T_over_n * math.log(1 / DELTA_HAT))


def chains():
    """(report, eps_c, delta, k): each report composes k releases at
    (eps_c, delta) plus delta'.  A complete-graph walk of T = 100 n steps has
    k = N_v + T/n cycles."""
    for fixed in (False, True):
        variant = "fixed" if fixed else "chernoff"
        k = visits(100, fixed) + 100
        for n in (20, 50, 100, 1000, 10**4):
            for eps0 in (0.5, 1.0):
                report = partial(complete_sum_bound, eps0, 1e-7, n, 100 * n, DELTA_PRIME, DELTA_HAT,
                                 fixed_contributions=fixed)
                yield pytest.param(report, 3 * eps0 / math.sqrt(n), 1e-7, k,
                                   id=f"complete_sum-n{n}-eps{eps0}-{variant}")
        for n in (10**4, 10**5):
            report = partial(complete_hist_bound, 0.5, 1e-6, n, 100 * n, DELTA_PRIME, DELTA_HAT, 5,
                             fixed_contributions=fixed)
            yield pytest.param(report, 21 * math.sqrt(math.log(4 / 1e-6) / n) * 0.5, 1e-6, k,
                               id=f"complete_hist-n{n}-{variant}")
        for eps0 in (0.5, 1.0):
            report = partial(local_baseline_sum, eps0, 1e-7, visits(100, fixed), DELTA_PRIME)
            yield pytest.param(report, eps0, 1e-7, visits(100, fixed), id=f"local_sum-eps{eps0}-{variant}")
    for K, eps in ((10, 1.0), (100, 0.5)):
        yield pytest.param(partial(ring_sum_bound, eps, 1e-7, K, DELTA_PRIME, 20), eps, 1e-7, K, id=f"ring_sum-K{K}")


@pytest.mark.parametrize("report, eps_c, delta, k", chains())
def test_reported_eps_is_at_least_the_optimal_composition(report, eps_c, delta, k):
    # floor(k) releases at delta_tot = k delta + delta' (delta_hat excluded):
    # fewer releases and a larger delta_tot only lower the optimum
    optimum = optimal_composition_eps(eps_c, delta, math.floor(k), k * delta + DELTA_PRIME)
    reported = report().epsilon_out
    assert reported >= optimum, (reported, optimum)


def analytic_gaussian_delta(eps: float, sigma: float, sensitivity: float) -> float:
    """The exact delta of the Gaussian mechanism at eps (Balle & Wang 2018, Thm 8)."""
    def phi(x):
        return 0.5 * math.erfc(-x / math.sqrt(2.0))
    a, b = sensitivity / (2.0 * sigma), eps * sigma / sensitivity
    return phi(a - b) - math.exp(eps) * phi(-a - b)


@pytest.mark.parametrize("eps, sigma, sensitivity", [(0.0, 1.0, 1.0), (0.5, 2.0, 1.0), (1.0, 3.0, 2.0),
                                                     (0.2, 10.0, 1.0)])
def test_analytic_gaussian_is_the_hockey_stick_divergence(eps, sigma, sensitivity):
    # delta(eps) = integral of max(0, p(x) - e^eps q(x)), p = N(sensitivity, sigma^2), q = N(0, sigma^2);
    # p > e^eps q exactly for x > eps sigma^2 / sensitivity + sensitivity / 2
    def pdf(x, mean):
        return math.exp(-0.5 * ((x - mean) / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))
    start = eps * sigma**2 / sensitivity + sensitivity / 2
    integral, _ = quad(lambda x: pdf(x, sensitivity) - math.exp(eps) * pdf(x, 0.0), start, math.inf,
                       epsabs=1e-14, epsrel=1e-12)
    assert analytic_gaussian_delta(eps, sigma, sensitivity) == pytest.approx(integral, rel=1e-9, abs=1e-14)


def test_analytic_gaussian_at_zero_eps_is_the_total_variation():
    # TV(N(D, s^2), N(0, s^2)) = erf(D / (2 sqrt(2) s))
    assert analytic_gaussian_delta(0.0, 1.5, 1.0) == pytest.approx(math.erf(1.0 / (2 * math.sqrt(2) * 1.5)),
                                                                   rel=1e-14)


@pytest.mark.parametrize("sensitivity", [1.0, 2.0])
@pytest.mark.parametrize("delta", [1e-2, 1e-4, 1e-6, 1e-9])
def test_classic_gaussian_epsilon_is_a_bound_below_one(delta, sensitivity):
    """Wherever ``gaussian_epsilon`` claims validity (eps < 1), the exact delta
    of the mechanism at that eps is within the requested delta."""
    checked = 0
    for sigma in np.geomspace(0.5, 2000.0, 400) * sensitivity:
        eps = gaussian_epsilon(float(sigma), sensitivity, delta)
        if eps < 1:
            assert analytic_gaussian_delta(eps, float(sigma), sensitivity) <= delta, (sigma, eps)
            checked += 1
    assert checked > 100
