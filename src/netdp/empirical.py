"""Per-pair empirical privacy accounting on actual sampled walks.

Instead of bounding the visit counts and cycle lengths with concentration
inequalities, these routines read them off a concrete walk and compose the
exact per-cycle amplification, which is how tight the deployment-time
guarantee really is.  Matrix entry (u, v) is the loss of user u's data with
respect to observer v for one walk; the diagonal is NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .core import COMPLETE, WalkTrace


@dataclass(frozen=True)
class PairLossMatrix:
    """n x n empirical losses for one walk; off-diagonal entries >= 0."""

    matrix: np.ndarray
    n: int
    T: int
    eps0: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", m)
        m.setflags(write=False)
        if m.shape != (self.n, self.n):
            raise ValueError(f"matrix shape {m.shape} does not match n={self.n}")
        if np.fmin.reduce(_offdiagonal(m), axis=None, initial=np.inf) < 0:
            raise ValueError("off-diagonal entries must be non-negative")

    def finite_offdiagonal(self) -> np.ndarray:
        off = _offdiagonal(self.matrix)
        return off[np.isfinite(off)]


def _offdiagonal(m: np.ndarray) -> np.ndarray:
    """View of the off-diagonal entries of square ``m``, rows in order.

    After the first entry, the flat array splits into rows of n + 1 that each
    end on a diagonal entry; dropping that column leaves the n(n-1) others.
    """
    n = m.shape[0]
    return m.ravel()[1:].reshape(n - 1, n + 1)[:, :n]


def _capped_segments(times: np.ndarray, n: int) -> np.ndarray:
    """Segment end positions (1-based) after capping cycles at length n.

    ``times`` are an observer's visit steps.  Every inter-visit gap longer
    than n is split by fictive observations every n steps, so each returned
    segment has length in [1, n]; the walk tail after the last visit is
    dropped (never observed).
    """
    times = np.asarray(times, dtype=np.int64)
    starts = np.concatenate(([0], times))[:-1]  # previous visit, 0 for the first
    per_visit = (times - starts - 1) // n + 1  # fictive ends, then the visit
    last = np.cumsum(per_visit) - 1
    k = np.arange(per_visit.sum()) - np.repeat(last + 1 - per_visit, per_visit)
    ends = np.repeat(starts, per_visit) + n * (k + 1)
    ends[last] = times
    return ends


def empirical_pair_loss_sum(
    walk: WalkTrace,
    eps0: float,
    delta0: float,
    delta_prime: float,
) -> PairLossMatrix:
    """Empirical per-pair loss for noisy summation along a complete-graph walk.

    For each observer v the walk splits into cycles ending at v's visits,
    capped at length n by fictive observations.  A cycle of capped length m
    aggregates m noisy values, so a single contribution inside it is
    (eps0/sqrt(m))-DP before subsampling and costs

        eps_cycle(m) = ln(1 + (1 - (1 - 1/n)^m)(e^{eps0/sqrt(m)} - 1))

    after it (the exact amplification formula, not the closed-form cap).
    Entry (u, v) composes the cycles that actually contain a contribution
    of u via advanced composition; cycles after v's last visit and cycles
    without u contribute nothing.  Step t counts its holder's cycle iff the
    holder's previous visit p (0 if none) lies in an earlier cycle, i.e. some
    cycle end e has p <= e < t, so one previous-visit index per walk makes
    each observer O(T).  Failure probabilities are bookkeeping
    only: each composed cycle consumes delta0 and the composition adds
    delta_prime, recorded in ``meta``.
    """
    if walk.topology.kind != COMPLETE:
        raise ValueError("empirical pair loss is defined for complete-graph walks")
    if not 0 < eps0 <= 1:
        raise ValueError(f"eps0 must be in (0, 1], got {eps0}")
    if not 0 < delta_prime < 1:
        raise ValueError(f"delta_prime must be in (0, 1), got {delta_prime}")
    n, T = walk.n, walk.T
    log_dp = math.log(1.0 / delta_prime)
    steps0 = walk.steps - 1
    matrix = np.zeros((n, n), dtype=float)
    max_cycles = 0

    # visit times grouped by user, one stable sort for the whole walk
    order = np.argsort(steps0, kind="stable")
    visit_times = order + 1
    bounds = np.concatenate(([0], np.cumsum(np.bincount(steps0, minlength=n))))
    # prev[t - 1]: the step of the holder's previous visit before step t, 0 if none
    prev = np.zeros(T, dtype=np.int64)
    same_user = steps0[order[1:]] == steps0[order[:-1]]
    prev[order[1:][same_user]] = visit_times[:-1][same_user]

    for v in range(n):
        times = visit_times[bounds[v]:bounds[v + 1]]
        if times.size == 0:
            continue
        ends = _capped_segments(times, n)
        lengths = np.diff(ends, prepend=0)
        max_cycles = max(max_cycles, lengths.size)
        eps_cycle = np.log1p(
            (-np.expm1(lengths * math.log1p(-1.0 / n)) if n > 1 else np.ones_like(lengths, float))
            * np.expm1(eps0 / np.sqrt(lengths))
        )
        sq = eps_cycle * eps_cycle
        lin = eps_cycle * np.expm1(eps_cycle)

        last = int(times[-1])
        # cycle[t]: 1-based cycle of step t <= last; cycle[0] = 0 is "no previous visit"
        cycle = np.repeat(np.arange(lengths.size + 1), np.concatenate(([1], lengths)))
        # step t opens a (cycle, user) pair iff the holder's previous visit
        # lies in an earlier cycle, i.e. some cycle end e has prev <= e < t
        new_pair = np.flatnonzero(cycle[1:] > cycle[prev[:last]])
        users = steps0[new_pair]
        cycle_ids = cycle[new_pair + 1] - 1
        sum_sq = np.bincount(users, weights=sq[cycle_ids], minlength=n)
        sum_lin = np.bincount(users, weights=lin[cycle_ids], minlength=n)
        counts = np.bincount(users, minlength=n)
        col = np.where(
            counts > 0,
            np.sqrt(2.0 * log_dp * sum_sq) + sum_lin,
            0.0,
        )
        matrix[:, v] = col

    np.fill_diagonal(matrix, np.nan)
    meta = {
        "delta0": delta0,
        "delta_prime": delta_prime,
        "delta_convention": "per-pair total delta = (composed cycles) * delta0 + delta_prime",
        "max_cycles": max_cycles,
    }
    return PairLossMatrix(matrix=matrix, n=n, T=T, eps0=eps0, meta=meta)


def spotted_counts(walk: WalkTrace) -> np.ndarray:
    """Count contributions of u directly preceded or followed by v, per (u, v).

    Entry (u-1, v-1) counts steps t with holder u whose predecessor or
    successor step belongs to v; a contribution flanked by v on both sides
    counts once.
    """
    steps0 = walk.steps - 1
    n = walk.n
    counts = np.bincount(steps0[1:] * n + steps0[:-1], minlength=n * n)
    counts += np.bincount(steps0[:-1] * n + steps0[1:], minlength=n * n)
    both = steps0[:-2] == steps0[2:]  # same neighbor on both sides
    counts -= np.bincount(steps0[1:-1][both] * n + steps0[2:][both], minlength=n * n)
    return counts.reshape(n, n)


def empirical_pair_loss_spotted(
    walk: WalkTrace,
    eps0: float,
    mode: Literal["simple", "advanced"] = "simple",
    delta_prime: float | None = None,
) -> PairLossMatrix:
    """Extra per-pair loss from contributions adjacent to the observer.

    When sender/receiver identities are visible, each contribution of u
    directly next to a turn of v costs the full eps0.  The returned matrix
    holds only this spotted term (composed per actual adjacency count,
    simple or advanced); add it to :func:`empirical_pair_loss_sum` output
    for the total.
    """
    if walk.topology.kind != COMPLETE:
        raise ValueError("spotted accounting is defined for complete-graph walks")
    if mode not in ("simple", "advanced"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "advanced" and delta_prime is None:
        raise ValueError("advanced mode needs delta_prime")
    counts = spotted_counts(walk).astype(float)
    if mode == "simple":
        matrix = counts * eps0
    else:
        matrix = np.where(
            counts > 0,
            np.sqrt(2.0 * counts * math.log(1.0 / delta_prime)) * eps0
            + counts * eps0 * math.expm1(eps0),
            0.0,
        )
    np.fill_diagonal(matrix, np.nan)
    meta = {"mode": mode, "delta_prime": delta_prime, "term": "spotted"}
    return PairLossMatrix(matrix=matrix, n=walk.n, T=walk.T, eps0=eps0, meta=meta)
