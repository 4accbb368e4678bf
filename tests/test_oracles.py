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
"""

import math

import numpy as np
import pytest

from netdp.accountant import sgd_network_rdp
from netdp.core import COMPLETE, Topology, sample_walks


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
    # the test can tell the docstring's ln(n)/n from the true expectation
    assert abs(mean - math.log(n) / n) > 5 * stderr


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1, defect B: sgd_network_rdp bounds E[1/t] by ln(n)/n, "
                                       "below the waiting time's exact ln(n)/(n - 1)")
@pytest.mark.parametrize("n", [2, 10, 200])
def test_network_sgd_term_covers_the_exact_expectation(n):
    alpha, L, sigma = 2.0, 1.0, 3.0  # sigma >= L sqrt(2 alpha (alpha - 1)) = 2
    per_contribution = sgd_network_rdp(alpha, 1.0, L, sigma, n).eps_rdp
    assert per_contribution >= 4.0 * alpha * L * L * expected_inverse_wait(n) / sigma**2
