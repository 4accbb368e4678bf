"""Closed-form privacy bounds for token-walk protocols.

Covers composition rules, the three amplification mechanisms (subsampling,
shuffling, iteration), Chernoff visit bounds, the full bound chains for
ring/complete summation and histograms, the Renyi-DP calculus for noisy SGD
on a complete graph, collusion adjustment and spotted-contribution terms.

All logarithms are natural.  Bounds with a stated validity window enforce it
by default; passing ``unchecked=True`` skips the check and tags the
resulting report as outside the window.  The bounds that return a bare
number (``cycle_bound_sum``, ``erlingsson_shuffle``, ``feldman_shuffle`` and
``sgd_network_rdp``) have no report to tag: for them ``unchecked`` only
skips the check.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Literal, NamedTuple, Sequence

import numpy as np

from .core import PrivacyBudget
from .errors import InfeasibleError, ValidityWindowError
from .mechanisms import rr_epsilon_to_gamma

__all__ = [
    "BoundReport",
    "RdpPoint",
    "advanced_composition",
    "advanced_composition_hetero",
    "simple_composition",
    "chernoff_visit_bound",
    "subsample_amplify",
    "cycle_bound_sum",
    "cycle_bound_hist",
    "ring_sum_bound",
    "ring_hist_bound",
    "complete_sum_bound",
    "complete_hist_bound",
    "local_baseline_sum",
    "erlingsson_shuffle",
    "feldman_shuffle",
    "FeldmanShuffleBound",
    "rdp_compose",
    "rdp_to_dp",
    "pnsgd_iteration_rdp",
    "sgd_network_rdp",
    "sgd_closed_form_bound",
    "grid_bisect",
    "network_sgd_eps",
    "sigma_search",
    "sgd_utility_bound",
    "sampled_gaussian_rdp",
    "collusion_adjust",
    "spotted_bound",
]


@dataclass(frozen=True)
class BoundReport:
    """One evaluated bound: inputs, resulting (eps, delta), intermediates.

    ``intermediates`` records every named quantity of the derivation chain
    (visit bound N_v / N_u, per-cycle eps, sampling exponent q, ...), so a
    row can be re-derived from the report alone.
    """

    name: str
    inputs: dict
    epsilon_out: float
    delta_out: float
    intermediates: dict = field(default_factory=dict)
    unchecked: bool = False

    def __post_init__(self):
        if not self.epsilon_out >= 0:  # nan included
            raise ValueError("epsilon_out must be non-negative")
        if not 0 <= self.delta_out <= 1:
            raise ValueError(f"delta_out must be in [0, 1], got {self.delta_out}")


@dataclass(frozen=True)
class RdpPoint:
    """A point (alpha, eps) on a Renyi-DP curve; alpha > 1."""

    alpha: float
    eps_rdp: float

    def __post_init__(self):
        if not self.alpha > 1:
            raise ValueError(f"alpha must be > 1, got {self.alpha}")
        if not self.eps_rdp >= 0:  # nan included
            raise ValueError("eps_rdp must be non-negative")


# ---------------------------------------------------------------------------
# Composition
# ---------------------------------------------------------------------------

def advanced_composition(eps: float, delta: float, K: float, delta_prime: float) -> PrivacyBudget:
    """Advanced composition of K adaptive (eps, delta)-DP releases.

    Returns (sqrt(2 K ln(1/delta')) eps + K eps (e^eps - 1), K delta + delta')
    [Dwork, Rothblum & Vadhan 2010].  K may be fractional when it stands for
    a high-probability bound on a random number of releases.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    if not delta_prime > 0:
        raise ValueError("delta_prime must be positive")
    if not K >= 1:
        raise ValueError(f"K must be >= 1, got {K}")
    eps_out = math.sqrt(2.0 * K * math.log(1.0 / delta_prime)) * eps + K * eps * math.expm1(eps)
    return PrivacyBudget(eps_out, K * delta + delta_prime)


def advanced_composition_hetero(eps_list: Sequence[float], delta_prime: float) -> float:
    """Advanced composition with heterogeneous per-release budgets.

    eps' = sqrt(2 ln(1/delta') sum eps_i^2) + sum eps_i (e^eps_i - 1);
    reduces to the homogeneous rule for equal eps_i.  Deltas compose
    additively on the caller's side (sum delta_i + delta').
    """
    if not delta_prime > 0:
        raise ValueError("delta_prime must be positive")
    e = np.asarray(eps_list, dtype=float)
    if e.size == 0:
        return 0.0
    if not (e >= 0).all():
        raise ValueError("per-release eps must be non-negative")
    return float(
        math.sqrt(2.0 * math.log(1.0 / delta_prime) * float(np.sum(e * e)))
        + float(np.sum(e * np.expm1(e)))
    )


def simple_composition(eps: float, delta: float, K: float) -> PrivacyBudget:
    """Basic composition: (K eps, K delta)."""
    if not eps > 0:
        raise ValueError("eps must be positive")
    if not K >= 1:
        raise ValueError(f"K must be >= 1, got {K}")
    return PrivacyBudget(K * eps, K * delta)


# ---------------------------------------------------------------------------
# Concentration and amplification primitives
# ---------------------------------------------------------------------------

def chernoff_visit_bound(T: int, p: float, delta_hat: float) -> float:
    """High-probability bound on a Binomial(T, p) count.

    N = T p + sqrt(3 T p ln(1/delta_hat)) satisfies P(X >= N) <= delta_hat
    (multiplicative Chernoff).  With p = 1/n this bounds the number of
    visits a fixed user receives on a uniform random walk of length T.
    """
    if not T >= 1:
        raise ValueError("T must be >= 1")
    if not 0 < p <= 1:
        raise ValueError("p must be in (0, 1]")
    if not 0 < delta_hat < 1:
        raise ValueError("delta_hat must be in (0, 1)")
    mean = T * p
    return mean + math.sqrt(3.0 * mean * math.log(1.0 / delta_hat))


def subsample_amplify(eps_a: float, n: int, m: int) -> float:
    """Amplification by subsampling with replacement, m draws among n users.

    eps_cycle = ln(1 + (1 - (1 - 1/n)^m)(e^eps_a - 1)) [Balle, Barthe &
    Gaboardi 2018, Thm 10]; the companion delta passes through unchanged.
    """
    if not n >= 1:
        raise ValueError("n must be >= 1")
    if not m >= 1:
        raise ValueError("m must be >= 1")
    if not eps_a >= 0:
        raise ValueError("eps_a must be non-negative")
    sampled = -math.expm1(m * math.log1p(-1.0 / n)) if n > 1 else 1.0
    return math.log1p(sampled * math.expm1(eps_a))


def _window(ok: bool, unchecked: bool, message: str) -> bool:
    """``ok``, the validity-window decision of a closed form; raises
    :class:`ValidityWindowError` with ``message`` when the window fails and
    the caller did not pass ``unchecked``."""
    if not ok and not unchecked:
        raise ValidityWindowError(message)
    return ok


def cycle_bound_sum(eps: float, n: int, unchecked: bool = False) -> float:
    """Closed-form cap 3 eps / sqrt(n) on the per-cycle loss for summation.

    Dominates subsample_amplify(eps/sqrt(m), n, m) for every cycle length
    m in [1, n]; requires eps <= 1 (e^x - 1 <= 2x on [0, 1] is used in the
    derivation).
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    _window(not eps > 1, unchecked, f"cycle bound requires eps <= 1, got {eps}")
    if not n >= 1:
        raise ValueError("n must be >= 1")
    return 3.0 * eps / math.sqrt(n)


def cycle_bound_hist(eps: float, delta: float, n: int, m: int) -> float:
    """Per-cycle loss for histogram walks: min of the two analysis arms.

    min(3 m eps / 2n, 21 sqrt(ln(4/delta) m) / n * eps): the first arm uses
    subsampling with the raw randomized-response guarantee, the second
    additionally applies shuffling inside the cycle.  Both arms increase
    with m, so the worst cycle is the longest one (m = n).
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    if not 1 <= m:
        raise ValueError("m must be >= 1")
    if not n >= 1:
        raise ValueError("n must be >= 1")
    arm_subsample = 3.0 * m * eps / (2.0 * n)
    arm_shuffle = 21.0 * math.sqrt(math.log(4.0 / delta) * m) / n * eps
    return min(arm_subsample, arm_shuffle)


# ---------------------------------------------------------------------------
# Shuffle amplification
# ---------------------------------------------------------------------------

def erlingsson_shuffle(
    eps0: float, n: int, delta: float, unchecked: bool = False
) -> float:
    """Amplification by shuffling, closed form of Erlingsson et al. 2019 (Cor. 9).

    Shuffling n reports of an eps0-LDP randomizer is (eps, delta)-DP with
    eps = 12 eps0 sqrt(ln(1/delta) / n), valid for n >= 100, eps0 < 1/2 and
    delta < 1/100.
    """
    if not eps0 > 0:
        raise ValueError("eps0 must be positive")
    if not n >= 1 or not 0 < delta < 1:
        raise ValueError(f"need n >= 1 and delta in (0, 1), got n={n}, delta={delta}")
    _window(not n < 100 and eps0 < 0.5 and 0 < delta < 0.01, unchecked,
            "shuffle closed form needs n >= 100, eps0 < 1/2, delta < 1/100 "
            f"(got n={n}, eps0={eps0}, delta={delta})")
    return 12.0 * eps0 * math.sqrt(math.log(1.0 / delta) / n)


class FeldmanShuffleBound(NamedTuple):
    exact: float
    simplified: float


def feldman_shuffle(
    eps0: float, n: int, delta: float, unchecked: bool = False
) -> FeldmanShuffleBound:
    """Amplification by shuffling via hidden clones (Feldman et al. 2021, Thm 3.1).

    exact = ln(1 + (e^eps0 - 1)/(e^eps0 + 1) *
                 (8 sqrt(e^eps0 ln(4/delta)) / sqrt(n) + 8 e^eps0 / n)),
    valid for eps0 <= ln(n / (16 ln(2/delta))).  The simplified form
    14 sqrt(ln(4/delta)) / sqrt(n) * eps0 (an upper bound for eps0 <= 1)
    is returned alongside.
    """
    if not eps0 > 0:
        raise ValueError("eps0 must be positive")
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    if not n >= 1:
        raise ValueError("n must be >= 1")
    limit = math.log(n / (16.0 * math.log(2.0 / delta))) if n > 16.0 * math.log(2.0 / delta) else float("-inf")
    _window(not eps0 > limit, unchecked,
            f"clones bound needs eps0 <= ln(n / (16 ln(2/delta))) = {limit:.4g}, got {eps0}")
    e = math.exp(eps0)
    exact = math.log1p(
        (e - 1.0) / (e + 1.0) * (8.0 * math.sqrt(e * math.log(4.0 / delta) / n) + 8.0 * e / n)
    )
    simplified = 14.0 * math.sqrt(math.log(4.0 / delta) / n) * eps0
    return FeldmanShuffleBound(exact=exact, simplified=simplified)


# ---------------------------------------------------------------------------
# Full bound chains
# ---------------------------------------------------------------------------

def ring_sum_bound(
    eps: float, delta: float, K: int, delta_prime: float, n: int
) -> BoundReport:
    """Privacy and utility of noise-once-per-lap summation on a directed ring.

    A user observes the token K times; each inter-observation difference is
    protected by one fresh (eps, delta) noise event, so the network budget
    is exactly the advanced composition over K releases.  Utility: the
    output is unbiased with standard deviation
    sqrt(floor(K n / (n - 1))) * sigma_loc.
    """
    if not n >= 2:
        raise ValueError(f"a ring needs n >= 2, got {n}")
    budget = advanced_composition(eps, delta, K, delta_prime)
    noise_events = (K * n) // (n - 1)
    return BoundReport(
        name="ring_sum",
        inputs={"eps": eps, "delta": delta, "K": K, "delta_prime": delta_prime, "n": n},
        epsilon_out=budget.epsilon,
        delta_out=budget.delta,
        intermediates={
            "noise_events": noise_events,
            "utility_stddev_factor": math.sqrt(noise_events),
        },
    )


def ring_hist_bound(
    eps: float,
    delta: float,
    n: int,
    K: int,
    domain_size: int,
    delta_prime: float,
    unchecked: bool = False,
) -> BoundReport:
    """Privacy and utility of randomized-response histograms on a ring.

    The token aggregates one lap of randomized responses between two visits,
    which is as private as a shuffle of those responses.  With
    gamma = L / (exp(12 eps sqrt(ln(1/delta)/n)) + L - 1) each visit is an
    (eps, delta)-DP release and the network budget follows by advanced
    composition over the K visits.  Validity window: eps < 1/2,
    delta < 1/100, n > 1000.  The protocol draws gamma * n * (K + 1)
    random responses in expectation (init block included).
    """
    if not n >= 1 or not 0 < delta < 1:
        raise ValueError(f"need n >= 1 and delta in (0, 1), got n={n}, delta={delta}")
    window_ok = _window(eps < 0.5 and 0 < delta < 0.01 and n > 1000, unchecked,
                        "ring histogram bound needs eps < 1/2, delta < 1/100, n > 1000 "
                        f"(got eps={eps}, delta={delta}, n={n})")
    eps0 = erlingsson_shuffle(eps, n, delta, unchecked=True)  # the window above is the stricter
    gamma = rr_epsilon_to_gamma(eps0, domain_size)
    if K == 0:
        # init-only run: the token is seeded with data-independent uniform
        # elements and never carries a contribution
        eps_out, delta_out = 0.0, 0.0
    else:
        budget = advanced_composition(eps, delta, K, delta_prime)
        eps_out, delta_out = budget.epsilon, budget.delta
    return BoundReport(
        name="ring_hist",
        inputs={
            "eps": eps, "delta": delta, "n": n, "K": K,
            "domain_size": domain_size, "delta_prime": delta_prime,
        },
        epsilon_out=eps_out,
        delta_out=delta_out,
        intermediates={
            "gamma": gamma,
            "rr_local_eps": eps0,
            "expected_random_responses": gamma * n * (K + 1),
        },
        unchecked=not window_ok,
    )


def _cycle_report(name: str, eps: float, delta: float, n: int, T: int, delta_prime: float,
                  delta_hat: float, fixed_contributions: bool, window_ok: bool, eps_cycle: float,
                  extra_inputs: dict, extras: Callable[[], dict]) -> BoundReport:
    """The :class:`BoundReport` of the complete-graph cycle chain.

    With delta_hat, N_v is the Chernoff bound on the visits of one user and
    the fictive walk adds at most T/n free observations, giving
    N_v + T/n cycles; ``fixed_contributions`` selects the fixed variant
    (exactly T/n visits, no concentration step, no delta_hat term, name
    suffix ``_fixed`` and ``delta_hat`` None in the inputs).  Each cycle
    costs eps_cycle, and the cycles compose as

        eps_f = sqrt(2 k ln(1/delta')) eps_cycle + sqrt(k) eps (e^{eps_cycle} - 1)
        delta_f = k delta + delta' (+ delta_hat),   k = N_v + T/n.

    Advanced composition of k releases at eps_cycle has the linear term
    k eps_cycle (e^{eps_cycle} - 1), not sqrt(k) eps (e^{eps_cycle} - 1); the
    strict xfail ``tests/test_accountant.py::TestChainRecomposition`` pins
    the gap (ROADMAP item 1).  ``extra_inputs`` follow the chain's inputs,
    and ``extras()``, called after the chain's checks, follows N_v,
    num_cycles and eps_cycle in the intermediates.
    """
    if not 0 < delta_prime < 1:
        raise ValueError(f"delta_prime must be in (0, 1), got {delta_prime}")
    if fixed_contributions:
        delta_hat = None
    n_v = T / n if delta_hat is None else chernoff_visit_bound(T, 1.0 / n, delta_hat)
    num_cycles = n_v + T / n
    eps_f = (
        math.sqrt(2.0 * num_cycles * math.log(1.0 / delta_prime)) * eps_cycle
        + math.sqrt(num_cycles) * eps * math.expm1(eps_cycle)
    )
    return BoundReport(
        name=name + ("_fixed" if fixed_contributions else ""),
        inputs={"eps": eps, "delta": delta, "n": n, "T": T, "delta_prime": delta_prime,
                "delta_hat": delta_hat, **extra_inputs},
        epsilon_out=eps_f,
        delta_out=num_cycles * delta + delta_prime + (0.0 if delta_hat is None else delta_hat),
        intermediates={"N_v": n_v, "num_cycles": num_cycles, "eps_cycle": eps_cycle, **extras()},
        unchecked=not window_ok,
    )


def complete_sum_bound(
    eps: float,
    delta: float,
    n: int,
    T: int,
    delta_prime: float,
    delta_hat: float,
    fixed_contributions: bool = False,
    unchecked: bool = False,
) -> BoundReport:
    """Network budget for noisy summation along a uniform walk of length T.

    Chain: the observer's visit count is Chernoff-bounded by
    N_v = T/n + sqrt(3 T/n ln(1/delta_hat)); the fictive walk caps cycles
    at length n, giving at most N_v + T/n cycles; each cycle costs at most
    3 eps / sqrt(n) (intermediate aggregation + subsampling); advanced
    composition over the cycles yields

        eps_f = sqrt((4T/n + 2 sqrt(3T/n ln(1/delta_hat))) ln(1/delta'))
                  * 3 eps / sqrt(n)
              + sqrt(2T/n + sqrt(3T/n ln(1/delta_hat))) * eps (e^{3 eps/sqrt(n)} - 1)

        delta_f = (N_v + T/n) delta + delta' + delta_hat.

    ``fixed_contributions=True`` replaces N_v by exactly T/n and drops the
    delta_hat term (every user contributes exactly T/n times).
    """
    if not n >= 1:
        raise ValueError(f"n must be >= 1, got {n}")
    window_ok = _window(not eps > 1, unchecked, f"summation bound requires eps <= 1, got {eps}")
    return _cycle_report("complete_sum", eps, delta, n, T, delta_prime, delta_hat, fixed_contributions,
                         window_ok, 3.0 * eps / math.sqrt(n), {}, dict)


def local_baseline_sum(
    eps: float, delta: float, contributions: float, delta_prime: float
) -> BoundReport:
    """Local-model baseline: compose a user's own eps-LDP contributions.

    Advanced composition over ``contributions`` releases (a Chernoff bound
    N_v or the fixed count T/n, chosen by the caller).  A single
    contribution is reported as-is, without the composition overhead.
    """
    if not contributions >= 1:
        raise ValueError("contributions must be >= 1")
    if contributions == 1:
        eps_out, delta_out = eps, delta
    else:
        budget = advanced_composition(eps, delta, contributions, delta_prime)
        eps_out, delta_out = budget.epsilon, budget.delta
    return BoundReport(
        name="local_sum",
        inputs={
            "eps": eps, "delta": delta,
            "contributions": contributions, "delta_prime": delta_prime,
        },
        epsilon_out=eps_out,
        delta_out=delta_out,
        intermediates={"num_releases": contributions},
    )


def complete_hist_bound(
    eps: float,
    delta: float,
    n: int,
    T: int,
    delta_prime: float,
    delta_hat: float,
    domain_size: int,
    fixed_contributions: bool = False,
    unchecked: bool = False,
) -> BoundReport:
    """Network budget for randomized-response histograms on a uniform walk.

    Same fictive-walk / cycle decomposition as :func:`complete_sum_bound`,
    with the per-cycle loss min(3 m eps / 2n, 21 sqrt(ln(4/delta) m)/n eps)
    capped by its worst case at m = n, i.e. 21 sqrt(ln(4/delta)/n) eps.
    Requires eps <= 1 and n >= 196 ln(4/delta) (so the shuffle arm is the
    binding one for the longest cycles).  gamma = L / (e^eps + L - 1) and
    the protocol draws gamma * T random responses in expectation.
    """
    if not n >= 1 or not 0 < delta < 1:
        raise ValueError(f"need n >= 1 and delta in (0, 1), got n={n}, delta={delta}")
    window_ok = _window(eps <= 1 and n >= 196.0 * math.log(4.0 / delta), unchecked,
                        "histogram bound needs eps <= 1 and n >= 196 ln(4/delta) "
                        f"(= {196.0 * math.log(4.0 / delta):.1f}; got eps={eps}, n={n})")

    def extras() -> dict:  # called after the chain's checks, so their errors come first
        gamma = rr_epsilon_to_gamma(eps, domain_size)
        return {"cycle_bound_form": "simplified shuffle arm at m = n", "gamma": gamma,
                "expected_random_responses": gamma * T}

    return _cycle_report("complete_hist", eps, delta, n, T, delta_prime, delta_hat, fixed_contributions,
                         window_ok, 21.0 * math.sqrt(math.log(4.0 / delta) / n) * eps,
                         {"domain_size": domain_size}, extras)


# ---------------------------------------------------------------------------
# Renyi-DP calculus for SGD
# ---------------------------------------------------------------------------

def rdp_compose(points: Sequence[RdpPoint], alpha: float | None = None) -> RdpPoint:
    """Compose RDP guarantees at a common order: epsilons add.

    ``alpha`` is only needed for an empty sequence; when given alongside
    points it must match their common order.
    """
    if not points:
        if alpha is None:
            raise ValueError("alpha required to compose an empty sequence")
        return RdpPoint(alpha, 0.0)
    a = points[0].alpha
    if alpha is not None and alpha != a:
        raise ValueError(f"alpha mismatch: {alpha} vs {a}")
    if any(p.alpha != a for p in points):
        raise ValueError("all points must share the same alpha")
    return RdpPoint(a, sum(p.eps_rdp for p in points))


def rdp_to_dp(point: RdpPoint, delta: float) -> float:
    """Convert (alpha, eps)-RDP to (eps + ln(1/delta)/(alpha - 1), delta)-DP."""
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    return point.eps_rdp + math.log(1.0 / delta) / (point.alpha - 1.0)


def pnsgd_iteration_rdp(alpha: float, L: float, sigma: float, steps_remaining: int) -> RdpPoint:
    """Amplification by iteration for projected noisy SGD.

    A contribution followed by ``steps_remaining`` contractive noisy updates
    satisfies (alpha, alpha * 2 L^2 / (sigma^2 * steps_remaining))-RDP
    [Feldman et al. 2018, Thm 23]; the caller guarantees eta <= 2/beta.
    """
    if not steps_remaining >= 1:
        raise ValueError("steps_remaining must be >= 1")
    if L < 0 or not sigma > 0:
        raise ValueError("need L >= 0 and sigma > 0")
    return RdpPoint(alpha, alpha * 2.0 * L * L / (sigma * sigma * steps_remaining))


def sgd_network_rdp(
    alpha: float, T_u: float, L: float, sigma: float, n: int, unchecked: bool = False
) -> RdpPoint:
    """Network RDP of noisy SGD on a uniform walk, for one user's T_u updates.

    The number of steps until the observer next holds the token is
    geometric with parameter 1/n, so the per-contribution divergence is

        2 * E_{t ~ Geom(1/n)} [ 2 alpha L^2 / (sigma^2 t) ]
          <= 4 alpha L^2 ln(n) / (sigma^2 n),

    where the outer factor 2 comes from weak convexity of the Renyi
    divergence (c = 1, requiring sigma >= L sqrt(2 alpha (alpha - 1))).
    Composing the T_u contributions gives
    (alpha, 4 T_u alpha L^2 ln(n) / (sigma^2 n))-network RDP.
    """
    if not n >= 2:
        raise ValueError("n must be >= 2")
    if not T_u >= 0:
        raise ValueError("T_u must be non-negative")
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    threshold = L * math.sqrt(2.0 * alpha * (alpha - 1.0))
    # 1e-9 relative slack admits orders sitting exactly on the boundary
    _window(not sigma < threshold * (1.0 - 1e-9), unchecked,
            "weak convexity needs sigma >= L sqrt(2 alpha (alpha - 1)); "
            f"got sigma={sigma}, threshold={threshold:.4g}")
    return RdpPoint(alpha, 4.0 * T_u * alpha * L * L * math.log(n) / (sigma * sigma * n))


def sgd_closed_form_bound(
    eps: float,
    delta: float,
    n: int,
    T: int,
    delta_hat: float,
    unchecked: bool = False,
) -> BoundReport:
    """Closed-form network budget for noisy SGD with per-step (eps, delta) noise.

    With N_u = T/n + sqrt(3 T/n ln(1/delta_hat)) contributions and
    q = max(2 N_u ln(n) / n, 2 ln(1/delta)),

        eps' = sqrt(2 q ln(1/delta)) * eps / sqrt(ln(1.25/delta)),

    holding with probability delta + delta_hat.  Requires eps < 1 and
    delta < 1/2.
    """
    window_ok = _window(eps < 1 and delta < 0.5, unchecked,
                        f"closed form needs eps < 1 and delta < 1/2 (got eps={eps}, delta={delta})")
    if not n >= 2 or not 0 < delta < 1:
        raise ValueError(f"need n >= 2 and delta in (0, 1), got n={n}, delta={delta}")
    n_u = chernoff_visit_bound(T, 1.0 / n, delta_hat)
    q = max(2.0 * n_u * math.log(n) / n, 2.0 * math.log(1.0 / delta))
    eps_out = math.sqrt(2.0 * q * math.log(1.0 / delta)) * eps / math.sqrt(math.log(1.25 / delta))
    return BoundReport(
        name="sgd_closed_form",
        inputs={"eps": eps, "delta": delta, "n": n, "T": T, "delta_hat": delta_hat},
        epsilon_out=eps_out,
        delta_out=delta + delta_hat,
        intermediates={"N_u": n_u, "q": q},
        unchecked=not window_ok,
    )


def network_sgd_eps(sigma: float, T_u: float, n: int, L: float, delta: float) -> tuple[float, float]:
    """(eps, alpha) for the network SGD chain at a given sigma.

    Minimizes alpha * A + ln(1/delta)/(alpha - 1) with
    A = 4 T_u L^2 ln(n) / (sigma^2 n) over the feasible orders
    1 < alpha <= alpha_max, where alpha_max solves
    sigma = L sqrt(2 alpha (alpha - 1)).  The unconstrained optimum is
    alpha* = 1 + sqrt(ln(1/delta) / A); when it violates the weak-convexity
    constraint the boundary order alpha_max is used instead.
    """
    if not (sigma > 0 and L > 0 and 0 < delta < 1):
        raise ValueError(f"need sigma > 0, L > 0 and delta in (0, 1); got sigma={sigma}, L={L}, "
                         f"delta={delta}")
    A = 4.0 * T_u * L * L * math.log(n) / (sigma * sigma * n)
    # boundary order solving sigma = L sqrt(2 a (a - 1)); the u/(sqrt(1+u)+1)
    # form avoids cancellation for small sigma
    u = 2.0 * sigma * sigma / (L * L)
    beta_max = u / (2.0 * (math.sqrt(1.0 + u) + 1.0))
    alpha_max = 1.0 + beta_max
    if A == 0.0:
        return math.log(1.0 / delta) / beta_max, alpha_max
    alpha_star = 1.0 + math.sqrt(math.log(1.0 / delta) / A)
    alpha = min(alpha_star, alpha_max)
    if alpha <= 1.0:
        return float("inf"), alpha
    eps = rdp_to_dp(sgd_network_rdp(alpha, T_u, L, sigma, n), delta)
    return eps, alpha


def grid_bisect(eps_of: Callable[[float], float], target: float, grid: Sequence[float]) -> int:
    """Smallest index i with eps_of(grid[i]) <= target, for eps_of non-increasing on grid.

    Evaluates the last grid point first to detect infeasibility, then
    bisects the index below it with the standard library's
    ``bisect.bisect_left``, so a grid of m points costs at most
    1 + ceil(log2 m) evaluations.  On a monotone grid this is the index a
    linear first-hit scan returns.  Raises :class:`InfeasibleError` with the
    eps and sigma at the last point (``best_eps``, ``at_sigma``) when no
    point meets the target.
    """
    if len(grid) == 0:
        raise InfeasibleError(
            f"empty grid cannot meet eps <= {target}",
            diagnostics={"best_eps": float("inf"), "at_sigma": float("nan")},
        )
    hi = len(grid) - 1
    eps_hi = eps_of(float(grid[hi]))
    if not eps_hi <= target:
        raise InfeasibleError(
            f"no grid point meets eps <= {target}",
            diagnostics={"best_eps": eps_hi, "at_sigma": float(grid[hi])},
        )
    return bisect.bisect_left(grid, True, hi=hi, key=lambda point: eps_of(float(point)) <= target)


def sigma_search(
    eps_target: float, delta_target: float, T_u: float, n: int, L: float
) -> tuple[float, float]:
    """Smallest noise scale meeting an SGD network-DP target, plus its order.

    Bisects the grid index (:func:`grid_bisect`) of a geometric grid from
    L * 1e-3 to L * 1e6 at 1% resolution for the smallest sigma with some
    feasible alpha > 1 such that
    rdp_to_dp(sgd_network_rdp(alpha, T_u, L, sigma, n), delta) <= eps_target;
    alpha is chosen per sigma as in :func:`network_sgd_eps`.  The bisection
    relies on eps falling along the grid, which
    ``tests/test_accountant.py::TestGridMonotonicity`` pins.  Raises
    :class:`InfeasibleError` with the eps and sigma at the ceiling as
    diagnostics when no grid point meets the target, and ``ValueError``
    unless L is positive and finite and n >= 2.
    """
    if not eps_target > 0 or not 0 < delta_target < 1:
        raise ValueError("targets must satisfy eps > 0 and delta in (0, 1)")
    if not T_u >= 1:
        raise ValueError("T_u must be >= 1")
    if not 0 < L < math.inf or not n >= 2:  # at L = 0 or inf the grid loop below never ends
        raise ValueError(f"need L positive and finite and n >= 2, got L={L}, n={n}")
    hi = L * 1e6
    # repeated multiplication, not a power of the ratio, fixes the grid's floats
    grid = []
    sigma = L * 1e-3
    while sigma <= hi:
        grid.append(sigma)
        sigma *= 1.01
    eps_of = lambda s: network_sgd_eps(s, T_u, n, L, delta_target)[0]
    try:
        sigma = grid[grid_bisect(eps_of, eps_target, grid)]
    except InfeasibleError as exc:
        raise InfeasibleError(
            f"no sigma <= {hi:.4g} meets eps <= {eps_target}",
            diagnostics={**exc.diagnostics, "ceiling": hi},
        ) from None
    return sigma, network_sgd_eps(sigma, T_u, n, L, delta_target)[1]


def sgd_utility_bound(
    D_diam: float, L: float, d: int, eps: float, delta: float, T: int
) -> float:
    """Optimization-error bound 2 D G (2 + ln T) / sqrt(T) for noisy SGD.

    G^2 = L^2 + 8 d L^2 ln(1.25/delta) / eps^2 bounds the second moment of
    the noisy gradients when the per-step noise is calibrated to
    (eps, delta) with sensitivity 2L.
    """
    if not all(v > 0 for v in (D_diam, L, d, eps, delta)) or not T >= 1:
        raise ValueError("all inputs must be positive and T >= 1")
    G = math.sqrt(L * L + 8.0 * d * L * L * math.log(1.25 / delta) / (eps * eps))
    return 2.0 * D_diam * G * (2.0 + math.log(T)) / math.sqrt(T)


# ---------------------------------------------------------------------------
# Subsampled Gaussian RDP (trusted-curator SGD baseline)
# ---------------------------------------------------------------------------

def _log_comb(a: int, k: int) -> float:
    return math.lgamma(a + 1) - math.lgamma(k + 1) - math.lgamma(a - k + 1)


MAX_RDP_ORDER = 256  # highest integer order whose ln C(alpha, i) row stays cached


@functools.lru_cache(maxsize=MAX_RDP_ORDER)
def _log_binom_row(alpha: int) -> np.ndarray:
    """ln C(alpha, i) for i = 0..alpha, read-only (shared by every caller)."""
    row = np.array([_log_comb(alpha, i) for i in range(alpha + 1)])
    row.setflags(write=False)
    return row


def _sgm_log_a_int(q: float, z: float, alpha: int) -> float:
    i = np.arange(alpha + 1)
    terms = (
        _log_binom_row(alpha) + i * math.log(q) + (alpha - i) * math.log1p(-q) + (i * i - i) / (2.0 * z * z)
    )
    # log-sum-exp with the largest term split off and the rest summed
    # through log1p (Blanchard, Higham & Higham 2021)
    k = int(np.argmax(terms))
    top = terms[k]
    shifted = np.exp(terms - top)
    shifted[k] = 0.0
    return float(math.log1p(shifted.sum()) + top)


def sampled_gaussian_rdp(q: float, noise_multiplier: float, alpha: float) -> float:
    """RDP at order alpha of the subsampled Gaussian mechanism.

    The mechanism includes each step's record with probability q and adds
    N(0, (noise_multiplier * sensitivity)^2) noise; eps(alpha) follows
    Mironov, Talwar & Zhang 2019, exact at the integer orders it accepts.
    A non-integer alpha is a ``ValueError``.

    Needs numpy and the standard library alone: log-gamma is
    ``math.lgamma`` and the binomial log-sum-exp is max-shifted in numpy.
    A noise multiplier so small that 2 z^2 underflows, or that the largest
    exponent (alpha^2 - alpha) / (2 z^2) overflows, gives +inf, the limit.
    """
    if not 0 <= q <= 1:
        raise ValueError("q must be in [0, 1]")
    if not noise_multiplier > 0:
        raise ValueError("noise_multiplier must be positive")
    if not (alpha > 1 and float(alpha).is_integer()):
        raise ValueError(f"alpha must be an integer order > 1, got {alpha}")
    if q == 0:
        return 0.0
    two_z2 = 2.0 * noise_multiplier * noise_multiplier
    if two_z2 == 0.0:  # z^2 underflows: the exponents below are infinite
        return math.inf
    if q == 1:
        return alpha / two_z2
    if (alpha * alpha - alpha) / two_z2 == math.inf:  # the largest exponent (i = alpha) overflows
        return math.inf
    log_a = _sgm_log_a_int(q, noise_multiplier, int(alpha))
    return max(log_a, 0.0) / (alpha - 1.0)


# ---------------------------------------------------------------------------
# Collusion and spotted contributions
# ---------------------------------------------------------------------------

def collusion_adjust(n: int, c: int) -> float:
    """Effective user count against c colluding observers: n / c.

    The colluders act as a single node visited with probability c/n, so
    every complete-graph bound evaluated at n/c users gives the guarantee
    against the coalition.
    """
    if not c >= 1:
        raise ValueError("c must be >= 1")
    if not c < n:
        raise ValueError(f"need c < n, got c={c}, n={n}")
    return n / c


def spotted_bound(
    N_u: float,
    n: int,
    eps: float,
    delta_tilde: float,
    delta_prime: float,
    mode: Literal["simple", "advanced"] = "simple",
) -> float:
    """Extra loss from contributions adjacent to the observer's own turns.

    When sender/receiver identities are visible, a contribution directly
    next to the observer gets no walk-based amplification and costs the
    full eps.  Each of the N_u contributions is adjacent with probability
    2/n, and Chernoff bounds the adjacent count by
    B = 2 N_u / n + sqrt(6 N_u / n * ln(1/delta_tilde)) with probability
    1 - delta_tilde.  The composed extra term is

        simple:    eps_s = B eps
        advanced:  eps_s = sqrt(2 B ln(1/delta')) eps + B eps (e^eps - 1)

    which the caller adds (together with delta_tilde) to a base bound.
    """
    if not N_u >= 0 or not n >= 1 or not eps >= 0:
        raise ValueError("need N_u >= 0, n >= 1 and eps >= 0")
    if not 0 < delta_tilde < 1 or not 0 < delta_prime < 1:
        raise ValueError("delta_tilde and delta_prime must be in (0, 1)")
    if mode not in ("simple", "advanced"):
        raise ValueError(f"unknown mode {mode!r}")
    rate = N_u / n
    B = 2.0 * rate + math.sqrt(6.0 * rate * math.log(1.0 / delta_tilde))
    if mode == "simple":
        return B * eps
    return math.sqrt(2.0 * B * math.log(1.0 / delta_prime)) * eps + B * eps * math.expm1(eps)
