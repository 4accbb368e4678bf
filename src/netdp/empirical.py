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
        off = m[~np.eye(self.n, dtype=bool)]
        if off.size and np.nanmin(off) < 0:
            raise ValueError("off-diagonal entries must be non-negative")

    def finite_offdiagonal(self) -> np.ndarray:
        mask = ~np.eye(self.n, dtype=bool)
        vals = self.matrix[mask]
        return vals[np.isfinite(vals)]


def _capped_segments(times: np.ndarray, n: int) -> np.ndarray:
    """Segment end positions (1-based) after capping cycles at length n.

    ``times`` are an observer's visit steps.  Every inter-visit gap longer
    than n is split by fictive observations every n steps, so each returned
    segment has length in [1, n]; the walk tail after the last visit is
    dropped (never observed).
    """
    ends: list[int] = []
    prev = 0
    for t in times:
        gap = int(t) - prev
        full = (gap - 1) // n
        ends.extend(prev + n * (j + 1) for j in range(full))
        ends.append(int(t))
        prev = int(t)
    return np.asarray(ends, dtype=np.int64)


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
    without u contribute nothing.  Failure probabilities are bookkeeping
    only: each composed cycle consumes delta0 and the composition adds
    delta_prime, recorded in ``meta``.
    """
    if walk.topology.kind != COMPLETE:
        raise ValueError("empirical pair loss is defined for complete-graph walks")
    if not 0 < eps0 <= 1:
        raise ValueError(f"eps0 must be in (0, 1], got {eps0}")
    n, T = walk.n, walk.T
    log_dp = math.log(1.0 / delta_prime)
    steps0 = walk.steps - 1
    matrix = np.zeros((n, n), dtype=float)
    max_cycles = 0

    # visit times grouped by user, one stable sort for the whole walk
    order = np.argsort(steps0, kind="stable")
    visited_users, group_starts = np.unique(steps0[order], return_index=True)
    grouped_times = np.split(order + 1, group_starts[1:])
    times_of = dict(zip(visited_users.tolist(), grouped_times))

    for v in range(1, n + 1):
        times = times_of.get(v - 1)
        if times is None:
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
        seg_of_step = np.searchsorted(ends, np.arange(1, last + 1))
        # distinct (segment, user) pairs among the observed steps
        keys = seg_of_step * n + steps0[:last]
        uniq = np.unique(keys)
        seg_ids = uniq // n
        users = uniq % n
        sum_sq = np.bincount(users, weights=sq[seg_ids], minlength=n)
        sum_lin = np.bincount(users, weights=lin[seg_ids], minlength=n)
        counts = np.bincount(users, minlength=n)
        col = np.where(
            counts > 0,
            np.sqrt(2.0 * log_dp * sum_sq) + sum_lin,
            0.0,
        )
        matrix[:, v - 1] = col

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
    n, T = walk.n, walk.T
    counts = np.zeros(n * n, dtype=np.int64)
    if T >= 2:
        prev_keys = steps0[1:] * n + steps0[:-1]
        np.add.at(counts, prev_keys, 1)
        next_keys = steps0[:-1] * n + steps0[1:]
        np.add.at(counts, next_keys, 1)
        if T >= 3:
            both = steps0[:-2] == steps0[2:]  # same neighbor on both sides
            dup_keys = steps0[1:-1][both] * n + steps0[2:][both]
            np.add.at(counts, dup_keys, -1)
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
