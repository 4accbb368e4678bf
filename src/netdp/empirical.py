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
        if np.isfinite(off).all():
            return off.ravel()  # one row-order copy, with no n x n mask beside it
        return off[np.isfinite(off)]


def _offdiagonal(m: np.ndarray) -> np.ndarray:
    """View of the off-diagonal entries of square ``m``, rows in order.

    After the first entry, the flat array splits into rows of n + 1 that each
    end on a diagonal entry; dropping that column leaves the n(n-1) others.
    """
    n = m.shape[0]
    return m.ravel()[1:].reshape(n - 1, n + 1)[:, :n]


def _capped_segments(times: np.ndarray, starts: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cycle end steps (1-based) and lengths after capping cycles at length n.

    Visit i at step ``times[i]`` follows its observer's previous visit at
    ``starts[i]`` (0 for the first).  A gap longer than n is split by fictive
    observations every n steps, so each cycle has length in [1, n]; the walk
    tail after an observer's last visit is never observed and has no cycle.
    Returns ``(ends, lengths, offsets)``: visit i's cycles are
    ``ends[offsets[i]:offsets[i + 1]]``, the last ending at ``times[i]``.
    """
    per_visit = (times - starts - 1) // n + 1  # fictive ends, then the visit
    offsets = np.concatenate(([0], np.cumsum(per_visit)))
    k = np.arange(offsets[-1]) - np.repeat(offsets[:-1], per_visit)  # cycle's place in its gap
    begins = np.repeat(starts, per_visit) + n * k
    ends = begins + n
    ends[offsets[1:] - 1] = times
    return ends, ends - begins, offsets


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
    without u contribute nothing, so entry (u, v) is exactly 0.0 iff u holds
    no step up to v's last visit.  Step t counts its holder's cycle iff the
    holder's previous visit p (0 if none) lies in an earlier cycle, i.e. some
    cycle end e has p <= e < t.  One walk-wide table holds every observer's
    capped cycles and their costs, built once per walk from the previous-visit
    index, so each observer's pass is O(T): one repeat, one comparison and
    two weighted bincounts over its new (cycle, user) pairs.  Failure
    probabilities are bookkeeping only: each composed cycle consumes delta0
    and the composition adds delta_prime, recorded in ``meta``.
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

    # visit times grouped by user, one stable sort for the whole walk
    order = np.argsort(steps0, kind="stable")
    visit_times = order + 1
    bounds = np.concatenate(([0], np.cumsum(np.bincount(steps0, minlength=n))))
    # prev[t - 1]: the step of the holder's previous visit before step t, 0 if none
    prev = np.zeros(T, dtype=np.int64)
    same_user = steps0[order[1:]] == steps0[order[:-1]]
    prev[order[1:][same_user]] = visit_times[:-1][same_user]

    # every observer's capped cycles in one table, grouped by observer
    ends, lengths, offsets = _capped_segments(visit_times, prev[order], n)
    cycle_bounds = offsets[bounds]
    eps_cycle = np.log1p(
        (-np.expm1(lengths * math.log1p(-1.0 / n)) if n > 1 else np.ones_like(lengths, float))
        * np.expm1(eps0 / np.sqrt(lengths))
    )
    sq = eps_cycle * eps_cycle
    lin = eps_cycle * np.expm1(eps_cycle)
    one = np.ones(1, dtype=np.int64)

    for v in range(n):
        c0, c1 = cycle_bounds[v], cycle_bounds[v + 1]
        if c0 == c1:
            continue
        last = int(ends[c1 - 1])
        # cycle[t]: table id of the cycle of step t <= last; cycle[0] = c0 - 1
        # lies below all of v's ids and stands for "no previous visit"
        cycle = np.repeat(np.arange(c0 - 1, c1), np.concatenate((one, lengths[c0:c1])))
        # step t opens a (cycle, user) pair iff the holder's previous visit
        # lies in an earlier cycle, i.e. some cycle end e has prev <= e < t
        of_step = cycle[1:]
        new_pair = np.flatnonzero(of_step > cycle[prev[:last]])
        users = steps0[new_pair]
        cycle_ids = of_step[new_pair]
        # a user without a new pair sums to 0.0 in both, so its entry is 0.0
        sum_sq = np.bincount(users, weights=sq[cycle_ids], minlength=n)
        sum_lin = np.bincount(users, weights=lin[cycle_ids], minlength=n)
        matrix[:, v] = np.sqrt(2.0 * log_dp * sum_sq) + sum_lin

    np.fill_diagonal(matrix, np.nan)
    meta = {
        "delta0": delta0,
        "delta_prime": delta_prime,
        "delta_convention": "per-pair total delta = (composed cycles) * delta0 + delta_prime",
        "max_cycles": int(np.diff(cycle_bounds).max()),
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
