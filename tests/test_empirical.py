import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from netdp.core import COMPLETE, RING, Topology, Walks, sample_walks
from netdp import accountant as acct
from netdp.empirical import (
    PairLossMatrix,
    PairLossSummary,
    empirical_pair_loss_spotted,
    empirical_pair_loss_sum,
    empirical_pair_loss_summary,
    spotted_counts,
    _capped_segments,
)


def make_walk(steps, n):
    return Walks(topology=Topology(COMPLETE, n), steps=np.asarray(steps))


# Oracles: the straightforward forms the vectorized kernels must match bit for bit

def capped_segments_loop(times, n):
    ends, prev = [], 0
    for t in times:
        full = (int(t) - prev - 1) // n
        ends.extend(prev + n * (j + 1) for j in range(full))
        ends.append(int(t))
        prev = int(t)
    return np.asarray(ends, dtype=np.int64)


def pair_loss_oracle(walk, eps0, delta_prime):
    """Per observer, the distinct (segment, user) pairs via np.unique."""
    n = walk.n
    log_dp = math.log(1.0 / delta_prime)
    steps0 = walk.row(0) - 1
    matrix = np.zeros((n, n))
    max_cycles = 0
    for v in range(1, n + 1):
        times = np.flatnonzero(steps0 == v - 1) + 1
        if times.size == 0:
            continue
        ends = capped_segments_loop(times, n)
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
        uniq = np.unique(seg_of_step * n + steps0[:last])
        seg_ids, users = uniq // n, uniq % n
        sum_sq = np.bincount(users, weights=sq[seg_ids], minlength=n)
        sum_lin = np.bincount(users, weights=lin[seg_ids], minlength=n)
        counts = np.bincount(users, minlength=n)
        matrix[:, v - 1] = np.where(counts > 0, np.sqrt(2.0 * log_dp * sum_sq) + sum_lin, 0.0)
    np.fill_diagonal(matrix, np.nan)
    return matrix, max_cycles


def cycle_ends(times, lengths, offsets):
    """Each cycle's end step: a visit's cycles run back to back up to the visit."""
    ends = []
    for i, t in enumerate(times):
        seg = lengths[offsets[i]:offsets[i + 1]]
        after = np.cumsum(seg[::-1])[::-1] - seg  # length of the visit's later cycles
        ends.extend((int(t) - after).tolist())
    return np.asarray(ends, dtype=np.int64)


def spotted_counts_add_at(walk):
    steps0 = walk.row(0) - 1
    n, T = walk.n, walk.T
    counts = np.zeros(n * n, dtype=np.int64)
    if T >= 2:
        np.add.at(counts, steps0[1:] * n + steps0[:-1], 1)
        np.add.at(counts, steps0[:-1] * n + steps0[1:], 1)
        if T >= 3:
            both = steps0[:-2] == steps0[2:]
            np.add.at(counts, steps0[1:-1][both] * n + steps0[2:][both], -1)
    return counts.reshape(n, n)


def assert_matches_oracle(walk, eps0=0.5, delta_prime=1e-3):
    got = empirical_pair_loss_sum(walk, eps0, 1e-7, delta_prime)
    want, max_cycles = pair_loss_oracle(walk, eps0, delta_prime)
    assert np.array_equal(got.matrix, want, equal_nan=True)
    assert np.isnan(np.diag(got.matrix)).all()
    assert got.meta["max_cycles"] == max_cycles
    return got


@st.composite
def walks(draw, max_n=12, max_T=300):
    n = draw(st.integers(1, max_n))
    steps = draw(st.lists(st.integers(1, n), min_size=1, max_size=max_T))
    return make_walk(steps, n)


def visit_table(walk):
    """Every observer's visit steps and previous visits, grouped by observer."""
    steps0 = walk.row(0) - 1
    times = [np.flatnonzero(steps0 == v) + 1 for v in range(walk.n)]
    starts = [np.concatenate(([0], t))[:-1] for t in times]
    bounds = np.cumsum([0] + [t.size for t in times])
    return times, np.concatenate(times), np.concatenate(starts).astype(np.int64), bounds


class TestCappedSegments:
    def test_no_capping_needed(self):
        # visits at steps 2 and 4
        lengths, offsets = _capped_segments(np.array([2, 2]), n=10)
        assert lengths.tolist() == [2, 2]
        assert offsets.tolist() == [0, 1, 2]
        assert cycle_ends([2, 4], lengths, offsets).tolist() == [2, 4]

    def test_long_gap_split_every_n(self):
        # visit at 25 with n=10: fictive observations at 10 and 20
        lengths, offsets = _capped_segments(np.array([25]), n=10)
        assert cycle_ends([25], lengths, offsets).tolist() == [10, 20, 25]
        assert lengths.tolist() == [10, 10, 5]
        assert offsets.tolist() == [0, 3]

    def test_gap_multiple_of_n(self):
        lengths, offsets = _capped_segments(np.array([20]), n=10)
        assert cycle_ends([20], lengths, offsets).tolist() == [10, 20]

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 12), times=st.sets(st.integers(1, 400), max_size=40))
    def test_matches_loop(self, n, times):
        times = np.array(sorted(times), dtype=np.int64)
        gaps = np.diff(times, prepend=0)
        lengths, offsets = _capped_segments(gaps, n)
        assert lengths.dtype == np.int64
        ends = cycle_ends(times, lengths, offsets)
        assert np.array_equal(ends, capped_segments_loop(times, n))
        assert np.array_equal(lengths, np.diff(ends, prepend=0))
        assert [lengths[a:b].sum() for a, b in zip(offsets[:-1], offsets[1:])] == gaps.tolist()

    @settings(max_examples=300, deadline=None)
    @given(walk=walks())
    @example(walk=make_walk([2, 3, 2, 3], 3))  # user 1 never holds the token
    @example(walk=make_walk([2, 2, 3], 4))  # nor do users 1 and 4
    @example(walk=make_walk([1, 1, 1], 1))  # n = 1
    @example(walk=make_walk([2, 3, 1, 2, 3, 2, 3, 2, 1], 3))  # gaps of n and 2n
    @example(walk=make_walk([2, 3, 2, 3, 2, 1, 3], 3))  # user 1 first visits after step n
    def test_walk_wide_table_matches_loop(self, walk):
        times, all_times, starts, bounds = visit_table(walk)
        lengths, offsets = _capped_segments(all_times - starts, walk.n)
        assert offsets[0] == 0 and offsets[-1] == lengths.size
        ends = cycle_ends(all_times, lengths, offsets)
        cycle_bounds = offsets[bounds]
        for v, t in enumerate(times):
            want = capped_segments_loop(t, walk.n)
            assert np.array_equal(ends[cycle_bounds[v]:cycle_bounds[v + 1]], want)
            assert np.array_equal(lengths[cycle_bounds[v]:cycle_bounds[v + 1]], np.diff(want, prepend=0))
        assert np.array_equal(ends[offsets[1:] - 1], all_times)


class TestEmpiricalPairLossSum:
    def test_requires_complete_topology(self):
        walk = sample_walks(Topology(RING, 4), 8, [0])
        with pytest.raises(ValueError):
            empirical_pair_loss_sum(walk, 0.5, 1e-7, 1e-3)

    def test_more_than_one_walk_rejected(self):
        walks = sample_walks(Topology(COMPLETE, 4), 8, [0, 1])
        calls = [lambda: empirical_pair_loss_sum(walks, 0.5, 1e-7, 1e-3),
                 lambda: empirical_pair_loss_summary(walks, 0.5, 1e-7, 1e-3),
                 lambda: empirical_pair_loss_spotted(walks, 0.5), lambda: spotted_counts(walks)]
        for call in calls:
            with pytest.raises(ValueError, match="R=2"):
                call()

    def test_eps0_above_one_rejected(self):
        walk = sample_walks(Topology(COMPLETE, 4), 8, [0])
        with pytest.raises(ValueError):
            empirical_pair_loss_sum(walk, 1.5, 1e-7, 1e-3)

    @pytest.mark.parametrize("delta_prime", [0.0, 1.0, 2.0])
    def test_delta_prime_outside_unit_interval_rejected(self, delta_prime):
        walk = sample_walks(Topology(COMPLETE, 4), 8, [0])
        with pytest.raises(ValueError, match="delta_prime"):
            empirical_pair_loss_sum(walk, 0.5, 1e-7, delta_prime)

    def test_never_contributing_user_has_zero_loss(self):
        # user 1 never contributes: entry (1, v) must be 0 for every v
        walk = make_walk([2, 3, 2, 3], 3)
        m = empirical_pair_loss_sum(walk, 0.5, 1e-7, 1e-3)
        assert m.matrix[0, 1] == 0.0
        assert m.matrix[0, 2] == 0.0

    def test_contribution_after_last_visit_is_free(self):
        # v=2 last receives at step 2; u=3's later contribution leaks nothing
        walk = make_walk([1, 2, 3, 3], 3)
        m = empirical_pair_loss_sum(walk, 0.5, 1e-7, 1e-3)
        assert m.matrix[2, 1] == 0.0
        assert m.matrix[0, 1] > 0.0  # u=1 contributed before the visit

    def test_single_cycle_value_explicit(self):
        # v=3 visits once at step 3: one cycle of length 3 containing u=1, 2
        walk = make_walk([1, 2, 3], 3)
        eps0 = 0.5
        m = empirical_pair_loss_sum(walk, eps0, 1e-7, 1e-3)
        eps_cycle = acct.subsample_amplify(eps0 / math.sqrt(3), 3, 3)
        expected = acct.advanced_composition_hetero([eps_cycle], 1e-3)
        assert m.matrix[0, 2] == pytest.approx(expected, rel=1e-12)
        assert m.matrix[1, 2] == pytest.approx(expected, rel=1e-12)

    def test_single_user_walk_has_empty_offdiagonal(self):
        walk = make_walk([1, 1, 1], 1)
        m = empirical_pair_loss_sum(walk, 0.5, 1e-7, 1e-3)
        assert m.matrix.shape == (1, 1) and np.isnan(m.matrix[0, 0])
        pairs = empirical_pair_loss_summary(walk, 0.5, 1e-7, 1e-3)
        assert pairs.col_sum.tolist() == [0.0]
        assert (pairs.min, pairs.max) == (np.inf, -np.inf)
        assert math.isnan(pairs.mean)

    def test_diagonal_is_nan(self):
        walk = sample_walks(Topology(COMPLETE, 5), 100, [3])
        m = empirical_pair_loss_sum(walk, 0.5, 1e-7, 1e-3)
        assert np.all(np.isnan(np.diag(m.matrix)))

    def test_dominated_by_theory_bound(self):
        eps0, dp, dh = 0.5, 1e-3, 1e-3
        n = 100
        T = 100 * n
        bound = acct.complete_sum_bound(eps0, 1e-7, n, T, dp, dh).epsilon_out
        for seed in range(3):
            walk = sample_walks(Topology(COMPLETE, n), T, [seed])
            m = empirical_pair_loss_sum(walk, eps0, 1e-7, dp)
            assert float(np.nanmax(m.matrix)) <= bound

    def test_relabeling_equivariance(self):
        n = 6
        walk = sample_walks(Topology(COMPLETE, n), 300, [5])
        perm = np.array([3, 1, 5, 2, 6, 4])  # image of users 1..6
        relabeled = make_walk(perm[walk.row(0) - 1], n)
        m = empirical_pair_loss_sum(walk, 0.5, 1e-7, 1e-3).matrix
        mp = empirical_pair_loss_sum(relabeled, 0.5, 1e-7, 1e-3).matrix
        for u in range(n):
            for v in range(n):
                if u == v:
                    continue
                assert mp[perm[u] - 1, perm[v] - 1] == pytest.approx(m[u, v], rel=1e-12)

    def test_deterministic(self):
        walk = sample_walks(Topology(COMPLETE, 10), 500, [1])
        a = empirical_pair_loss_sum(walk, 0.5, 1e-7, 1e-3)
        b = empirical_pair_loss_sum(walk, 0.5, 1e-7, 1e-3)
        np.testing.assert_array_equal(a.matrix, b.matrix)


class TestPairLossMatchesOracle:
    """The previous-visit kernel against the per-observer np.unique oracle."""

    @settings(max_examples=400, deadline=None)
    @given(walk=walks())
    def test_arbitrary_walks(self, walk):
        assert_matches_oracle(walk)

    @pytest.mark.parametrize("n,factor", [(7, 3), (30, 25), (100, 25)])
    def test_sampled_walks(self, n, factor):
        for seed in range(3):
            assert_matches_oracle(sample_walks(Topology(COMPLETE, n), factor * n, [seed]))

    def test_walk_shorter_than_n(self):
        m = assert_matches_oracle(make_walk([3, 7, 3, 1], 10))
        assert m.matrix[6, 2] > 0.0  # 7 sits between the visits of 3
        assert m.matrix[0, 2] == 0.0  # 1 comes after the last visit of 3

    def test_never_visited_observer(self):
        m = assert_matches_oracle(make_walk([1, 2, 1, 3, 2, 1], 4))
        col = m.matrix[:, 3]
        assert np.all(col[:3] == 0.0)
        assert m.matrix[3, 0] == 0.0  # nor does user 4 contribute

    @pytest.mark.parametrize("gap_factor", [1, 2, 3])
    def test_gaps_of_whole_periods(self, gap_factor):
        # user 1 is visited at 3 (first segment ends at n = 3), then after
        # exactly gap_factor * n steps, so that gap splits into gap_factor
        # segments of length n, all ending on multiples of n
        n = 3
        steps = [2, 3, 1] + [2, 3, 2] * (gap_factor - 1) + [3, 2, 1] + [2, 3]
        m = assert_matches_oracle(make_walk(steps, n))
        assert m.meta["max_cycles"] >= 1 + gap_factor

    @pytest.mark.parametrize("steps,n,unvisited", [
        ([2, 3, 2, 3], 3, [0]),  # user 1 never holds the token
        ([2, 3, 3, 2], 4, [0, 3]),  # users 1 and 4 never do
        ([2, 3, 2, 3, 2, 1, 3], 3, []),  # user 1 first visits after step n
    ])
    def test_unvisited_observers(self, steps, n, unvisited):
        m = assert_matches_oracle(make_walk(steps, n))
        assert np.all(np.nan_to_num(m.matrix[:, unvisited]) == 0.0)

    def test_single_user_walk(self):
        m = assert_matches_oracle(make_walk([2, 2, 2, 2, 2], 4))
        assert np.all(np.nan_to_num(m.matrix[:, [0, 2, 3]]) == 0.0)
        assert np.all(m.matrix[[0, 2, 3], 1] == 0.0)
        assert assert_matches_oracle(make_walk([1, 1, 1], 1)).matrix.shape == (1, 1)


class TestZeroEntries:
    @settings(max_examples=300, deadline=None)
    @given(walk=walks(), eps0=st.floats(0.01, 1.0))
    @example(walk=make_walk([2, 3, 2, 3], 3), eps0=0.5)
    @example(walk=make_walk([3, 7, 3, 1], 10), eps0=1.0)
    def test_zero_iff_no_step_before_last_visit(self, walk, eps0):
        """Entry (u, v) is exactly 0.0 iff u holds no step up to v's last visit."""
        m = empirical_pair_loss_sum(walk, eps0, 1e-7, 1e-3).matrix
        steps = walk.row(0).tolist()
        for v in range(1, walk.n + 1):
            last = max((t for t, s in enumerate(steps, 1) if s == v), default=0)
            held = set(steps[:last])
            for u in range(1, walk.n + 1):
                if u != v:
                    assert (m[u - 1, v - 1] == 0.0) == (u not in held), (u, v)


class TestPairLossMatrix:
    def test_negative_offdiagonal_rejected(self):
        for bad in (-1e-300, -np.inf):
            m = np.zeros((3, 3))
            m[2, 1] = bad
            with pytest.raises(ValueError):
                PairLossMatrix(matrix=m, n=3, T=1, eps0=0.5)

    def test_nan_offdiagonal_rejected(self):
        for n in (2, 3):
            m = np.zeros((n, n))
            m[n - 1, 0] = np.nan
            with pytest.raises(ValueError, match="non-negative"):
                PairLossMatrix(matrix=m, n=n, T=1, eps0=0.5)

    def test_diagonal_is_not_checked(self):
        m = np.zeros((3, 3))
        np.fill_diagonal(m, -1.0)
        PairLossMatrix(matrix=m, n=3, T=1, eps0=0.5)
        PairLossMatrix(matrix=np.diag([np.nan, np.nan]), n=2, T=1, eps0=0.5)


def ulps(a: float, b: float) -> float:
    return abs(a - b) / math.ulp(max(abs(a), abs(b)))


def assert_summary_matches_matrix(walk, eps0=0.5, delta_prime=1e-3):
    pairs = empirical_pair_loss_summary(walk, eps0, 1e-7, delta_prime)
    m = empirical_pair_loss_sum(walk, eps0, 1e-7, delta_prime)
    n = walk.n
    off = m.matrix[~np.eye(n, dtype=bool)].reshape(n, n - 1)  # row u: u's losses, v != u
    cols = m.matrix.T[~np.eye(n, dtype=bool)].reshape(n, n - 1)  # row v: column v without v
    assert (pairs.n, pairs.T, pairs.eps0, pairs.meta) == (n, walk.T, eps0, m.meta)
    assert np.array_equal(pairs.col_min, cols.min(axis=1, initial=np.inf))
    assert np.array_equal(pairs.col_max, cols.max(axis=1, initial=-np.inf))
    if n == 1:
        assert math.isnan(pairs.mean) and pairs.col_sum.tolist() == [0.0]
        return pairs
    assert pairs.min == off.min() and pairs.max == off.max()
    want = math.fsum(off.ravel().tolist()) / (n * (n - 1))
    assert ulps(pairs.mean, want) <= 4, (pairs.mean, want)
    assert pairs.min <= pairs.mean <= pairs.max
    return pairs


class TestPairLossSummary:
    """The per-observer reduction against the matrix of the same walk."""

    @settings(max_examples=300, deadline=None)
    @given(walk=walks(max_n=40, max_T=400), eps0=st.floats(0.01, 1.0))
    @example(walk=make_walk([1, 2, 1, 1, 2], 2), eps0=0.5)  # n = 2
    @example(walk=make_walk([2, 2, 3], 4), eps0=0.5)  # users 1 and 4 never visited
    @example(walk=make_walk([2, 2, 2, 2, 2], 4), eps0=0.5)  # one user holds every step
    @example(walk=make_walk([1, 1, 1], 1), eps0=0.5)  # n = 1: no pair at all
    def test_matches_matrix(self, walk, eps0):
        assert_summary_matches_matrix(walk, eps0)

    @pytest.mark.parametrize("n,factor", [(2, 5), (30, 25), (200, 2)])
    def test_sampled_walks(self, n, factor):
        for seed in range(3):
            assert_summary_matches_matrix(sample_walks(Topology(COMPLETE, n), factor * n, [seed]))

    def test_unvisited_observer_column_is_zero(self):
        pairs = assert_summary_matches_matrix(make_walk([2, 3, 3, 2], 4))
        assert (pairs.col_sum[[0, 3]] == 0.0).all() and (pairs.col_max[[0, 3]] == 0.0).all()

    def test_mean_stays_between_min_and_max(self):
        # every pair loses 0.1; the fsum of the column sums 0.1 + 0.1, over
        # n(n - 1) = 6, rounds to 0.10000000000000002 without the clamp
        pairs = PairLossSummary(col_sum=np.full(3, 0.1 + 0.1), col_min=np.full(3, 0.1),
                                col_max=np.full(3, 0.1), n=3, T=6, eps0=0.5)
        assert math.fsum(pairs.col_sum.tolist()) / 6 > 0.1
        assert pairs.mean == 0.1

    def test_arguments_checked_as_for_the_matrix(self):
        with pytest.raises(ValueError, match="delta_prime"):
            empirical_pair_loss_summary(make_walk([1, 2], 2), 0.5, 1e-7, 1.0)
        with pytest.raises(ValueError, match="complete"):
            empirical_pair_loss_summary(sample_walks(Topology(RING, 4), 8, [0]), 0.5, 1e-7, 1e-3)

    def test_peak_memory_far_below_the_matrix(self):
        # one n x n float64 array is 8 MB at n = 1000; the summary must stay
        # under a quarter of it
        n = 1000
        walk = sample_walks(Topology(COMPLETE, n), 25 * n, [0])
        tracemalloc.start()
        try:
            pairs = empirical_pair_loss_summary(walk, 0.5, 1e-7, 1e-3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * n / 4, f"traced peak {peak} bytes"
        assert 0.0 < pairs.min <= pairs.mean <= pairs.max


class TestSpotted:
    def test_alternating_trace_counts(self):
        walk = make_walk([1, 2, 1, 2], 4)
        counts = spotted_counts(walk)
        assert counts[0, 1] == 2  # both contributions of user 1 touch user 2
        assert counts[1, 0] == 2

    def test_never_adjacent(self):
        walk = make_walk([1, 3, 1, 3], 4)
        counts = spotted_counts(walk)
        assert counts[0, 1] == 0

    def test_flanked_contribution_counts_once(self):
        walk = make_walk([2, 1, 2], 3)
        assert spotted_counts(walk)[0, 1] == 1

    @settings(max_examples=300, deadline=None)
    @given(walk=walks(max_n=8, max_T=200))
    def test_matches_add_at(self, walk):
        got = spotted_counts(walk)
        assert got.dtype == np.int64
        assert np.array_equal(got, spotted_counts_add_at(walk))

    def test_simple_term_value(self):
        walk = make_walk([1, 2, 1, 2], 4)
        m = empirical_pair_loss_spotted(walk, 0.4, mode="simple")
        assert m.matrix[0, 1] == pytest.approx(2 * 0.4)
        assert m.matrix[2, 3] == 0.0

    @pytest.mark.parametrize("eps0, mode, delta_prime, match", [
        (math.nan, "simple", None, "eps0 must be non-negative, got nan"),
        (-0.1, "simple", None, "eps0 must be non-negative"),
        (math.nan, "advanced", 1e-3, "eps0 must be non-negative, got nan"),
        (0.4, "advanced", None, r"delta_prime in \(0, 1\), got None"),
        (0.4, "advanced", math.nan, r"delta_prime in \(0, 1\), got nan"),
        (0.4, "advanced", 0.0, r"delta_prime in \(0, 1\)"),
        (0.4, "advanced", 1.0, r"delta_prime in \(0, 1\)"),
        (0.4, "advanced", 2.0, r"delta_prime in \(0, 1\), got 2.0"),
    ])
    def test_bad_input_raises_without_warning(self, eps0, mode, delta_prime, match):
        # a numpy RuntimeWarning would surface as an error here, not as the ValueError
        walk = make_walk([1, 2, 1, 2], 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=match):
                empirical_pair_loss_spotted(walk, eps0, mode=mode, delta_prime=delta_prime)

    def test_advanced_mode_value(self):
        walk = make_walk([1, 2, 1, 2], 4)
        m = empirical_pair_loss_spotted(walk, 0.4, mode="advanced", delta_prime=1e-3)
        expected = math.sqrt(2 * 2 * math.log(1e3)) * 0.4 + 2 * 0.4 * (math.e**0.4 - 1)
        assert m.matrix[0, 1] == pytest.approx(expected, rel=1e-12)
