"""Per-pair empirical privacy accounting on actual sampled walks.

Instead of bounding the visit counts and cycle lengths with concentration
inequalities, these routines read them off a concrete walk and compose the
exact per-cycle amplification, which is how tight the deployment-time
guarantee really is.  Matrix entry (u, v) is the loss of user u's data with
respect to observer v for one walk; the diagonal is NaN.  One column pass
over the walk feeds both the full matrix and a per-observer summary (column
sums, minima and maxima) that never holds the n x n array.  Each entry point
takes a one-walk :class:`~netdp.core.Walks` and reads its ``row(0)``.
"""

from __future__ import annotations

import math
from typing import Iterator, Literal

import numpy as np

from .core import COMPLETE, Walks, record


@record
class PairLossMatrix:
    """n x n empirical losses for one walk; off-diagonal entries >= 0."""

    matrix: np.ndarray
    n: int
    T: int
    eps0: float
    meta: dict = {}  # a new dict per record

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", m)
        m.setflags(write=False)
        if m.shape != (self.n, self.n):
            raise ValueError(f"matrix shape {m.shape} does not match n={self.n}")
        if not np.minimum.reduce(_offdiagonal(m), axis=None, initial=np.inf) >= 0:  # nan fails too
            raise ValueError("off-diagonal entries must be non-negative")


@record
class PairLossSummary:
    """One walk's off-diagonal pair losses reduced per observer.

    Entry v of ``col_sum``, ``col_min`` and ``col_max`` reduces column v of
    the :class:`PairLossMatrix` without its diagonal: the losses of every
    other user's data as seen by observer v.  At n = 1 no pair exists: the
    sums are 0, the extremes are +inf and -inf, and ``mean`` is NaN.
    """

    col_sum: np.ndarray
    col_min: np.ndarray
    col_max: np.ndarray
    n: int
    T: int
    eps0: float
    meta: dict = {}  # a new dict per record

    @property
    def min(self) -> float:
        return float(self.col_min.min())

    @property
    def max(self) -> float:
        return float(self.col_max.max())

    @property
    def mean(self) -> float:
        """Mean over the n(n - 1) pairs: an fsum of the column sums.

        The true mean lies in [min, max], so rounding is kept from leaving it.
        """
        if self.n < 2:
            return math.nan
        mean = math.fsum(self.col_sum.tolist()) / (self.n * (self.n - 1))
        return min(max(mean, self.min), self.max)


def _offdiagonal(m: np.ndarray) -> np.ndarray:
    """View of the off-diagonal entries of square ``m``, rows in order.

    After the first entry, the flat array splits into rows of n + 1 that each
    end on a diagonal entry; dropping that column leaves the n(n-1) others.
    """
    n = m.shape[0]
    return m.ravel()[1:].reshape(n - 1, n + 1)[:, :n]


def _capped_segments(gaps: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Cycle lengths after capping cycles at length n.

    Visit i comes ``gaps[i]`` >= 1 steps after its observer's previous visit
    (or after step 0 for the first).  A gap longer than n is split by
    fictive observations every n steps, so each cycle has length in [1, n];
    the walk tail after an observer's last visit is never observed and has
    no cycle.  Returns ``(lengths, offsets)``: visit i's cycles are
    ``lengths[offsets[i]:offsets[i + 1]]`` in walk order, each n long but the
    last, which ends at the visit.
    """
    # in place: these T-long temporaries set the peak of a summary pass
    per_visit, last_length = np.divmod(gaps - 1, n)
    per_visit += 1  # the fictive ends, then the visit
    last_length += 1
    offsets = np.concatenate(([0], np.cumsum(per_visit)))
    lengths = np.full(offsets[-1], n, dtype=np.int64)
    lengths[offsets[1:] - 1] = last_length
    return lengths, offsets


def _one_walk(walks: Walks) -> np.ndarray:
    """The (T,) holders of ``walks``, which must be one complete-graph walk."""
    if walks.topology.kind != COMPLETE or len(walks.steps) != 1:
        raise ValueError(f"need one complete-graph walk, got R={len(walks.steps)} {walks.topology.kind} walks")
    return walks.row(0)


def _pair_loss_columns(
    walk: Walks,
    eps0: float,
    delta0: float,
    delta_prime: float,
) -> tuple[dict, Iterator[tuple[int, np.ndarray]]]:
    """Checks the arguments, builds the walk's cycle table and returns
    ``(meta, columns)``.

    ``columns`` yields ``(v, column)`` for every observer v the walk visits,
    in order of v: ``column[u]`` is entry (u, v) of the pair-loss matrix, a
    fresh length-n array whose entry v (the observer itself) is not a pair.
    An observer the walk never visits has an all-zero column and is skipped.
    See :func:`empirical_pair_loss_sum` for the accounting.  The table holds
    O(T) numbers and each column's temporaries die with it, so no pass holds
    more than O(n + T).
    """
    steps, n, T = _one_walk(walk), walk.n, walk.T
    if not 0 < eps0 <= 1:
        raise ValueError(f"eps0 must be in (0, 1], got {eps0}")
    if not 0 < delta_prime < 1:
        raise ValueError(f"delta_prime must be in (0, 1), got {delta_prime}")
    log_dp = math.log(1.0 / delta_prime)

    # visit steps grouped by user, one stable sort for the whole walk;
    # user 0 does not exist, so bounds[v - 1]:bounds[v] are user v's visits
    order = np.argsort(steps, kind="stable")
    bounds = np.cumsum(np.bincount(steps, minlength=n + 1))
    # prev[t - 1]: the step of the holder's previous visit before step t, 0 if none
    prev = np.zeros(T, dtype=np.int64)
    same_user = steps[order[1:]] == steps[order[:-1]]
    prev[order[1:][same_user]] = order[:-1][same_user] + 1
    visited = np.flatnonzero(np.diff(bounds))
    last_visit = order[bounds[visited + 1] - 1] + 1

    # every observer's capped cycles in one table, grouped by observer
    lengths, offsets = _capped_segments(order + 1 - prev[order], n)
    cycle_bounds = offsets[bounds]
    del order, offsets  # the column pass reads only the cycle table and prev
    eps_cycle = np.log1p(
        (-np.expm1(lengths * math.log1p(-1.0 / n)) if n > 1 else np.ones_like(lengths, float))
        * np.expm1(eps0 / np.sqrt(lengths))
    )
    sq = eps_cycle * eps_cycle
    lin = eps_cycle * np.expm1(eps_cycle)
    one = np.ones(1, dtype=np.int64)

    def column(v: int, last: int) -> np.ndarray:
        c0, c1 = cycle_bounds[v], cycle_bounds[v + 1]
        # cycle[t]: table id of the cycle of step t <= last; cycle[0] = c0 - 1
        # lies below all of v's ids and stands for "no previous visit"
        cycle = np.repeat(np.arange(c0 - 1, c1), np.concatenate((one, lengths[c0:c1])))
        # step t opens a (cycle, user) pair iff the holder's previous visit
        # lies in an earlier cycle, i.e. some cycle end e has prev <= e < t
        of_step = cycle[1:]
        new_pair = np.flatnonzero(of_step > cycle[prev[:last]])
        users = steps[new_pair]
        cycle_ids = of_step[new_pair]
        del cycle, of_step, new_pair  # freed before the weights are gathered
        # a user without a new pair sums to 0.0 in both, so its entry is 0.0
        sum_sq = np.bincount(users, weights=sq[cycle_ids], minlength=n + 1)[1:]
        sum_lin = np.bincount(users, weights=lin[cycle_ids], minlength=n + 1)[1:]
        return np.sqrt(2.0 * log_dp * sum_sq) + sum_lin

    meta = {
        "delta0": delta0,
        "delta_prime": delta_prime,
        "delta_convention": "per-pair total delta = (composed cycles) * delta0 + delta_prime",
        "max_cycles": int(np.diff(cycle_bounds).max()),
    }
    return meta, ((int(v), column(v, int(t))) for v, t in zip(visited, last_visit))


def empirical_pair_loss_sum(
    walk: Walks,
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

    The matrix takes n^2 floats; :func:`empirical_pair_loss_summary` reduces
    the same columns to per-observer sums and extremes without it.
    """
    meta, columns = _pair_loss_columns(walk, eps0, delta0, delta_prime)
    n = walk.n
    matrix = np.zeros((n, n), dtype=float)
    for v, column in columns:
        matrix[:, v] = column
    np.fill_diagonal(matrix, np.nan)
    return PairLossMatrix(matrix=matrix, n=n, T=walk.T, eps0=eps0, meta=meta)


def empirical_pair_loss_summary(
    walk: Walks,
    eps0: float,
    delta0: float,
    delta_prime: float,
) -> PairLossSummary:
    """Per-observer sums and extremes of :func:`empirical_pair_loss_sum`'s
    off-diagonal entries, in O(n + T) memory.

    Each observer's column is reduced as the kernel yields it, so no n x n
    array exists; minima and maxima equal the matrix's column extremes bit
    for bit.
    """
    meta, columns = _pair_loss_columns(walk, eps0, delta0, delta_prime)
    n = walk.n
    # an unvisited observer's column is all zeros
    col_sum, col_min, col_max = np.zeros(n), np.zeros(n), np.zeros(n)
    for v, column in columns:
        pairs = np.delete(column, v)
        col_sum[v] = pairs.sum()
        col_min[v] = pairs.min(initial=np.inf)
        col_max[v] = pairs.max(initial=-np.inf)
    return PairLossSummary(col_sum=col_sum, col_min=col_min, col_max=col_max,
                           n=n, T=walk.T, eps0=eps0, meta=meta)


def spotted_counts(walk: Walks) -> np.ndarray:
    """Count contributions of u directly preceded or followed by v, per (u, v).

    Entry (u-1, v-1) counts steps t with holder u whose predecessor or
    successor step belongs to v; a contribution flanked by v on both sides
    counts once.  ``walk`` is one complete-graph walk.
    """
    steps0 = _one_walk(walk) - 1
    n = walk.n
    counts = np.bincount(steps0[1:] * n + steps0[:-1], minlength=n * n)
    counts += np.bincount(steps0[:-1] * n + steps0[1:], minlength=n * n)
    both = steps0[:-2] == steps0[2:]  # same neighbor on both sides
    counts -= np.bincount(steps0[1:-1][both] * n + steps0[2:][both], minlength=n * n)
    return counts.reshape(n, n)


def empirical_pair_loss_spotted(
    walk: Walks,
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
    if mode not in ("simple", "advanced"):
        raise ValueError(f"unknown mode {mode!r}")
    if not eps0 >= 0:
        raise ValueError(f"eps0 must be non-negative, got {eps0}")
    if mode == "advanced" and not (delta_prime is not None and 0 < delta_prime < 1):
        raise ValueError(f"advanced mode needs delta_prime in (0, 1), got {delta_prime}")
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
