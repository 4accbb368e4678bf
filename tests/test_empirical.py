import math

import numpy as np
import pytest

from netdp.core import COMPLETE, RING, Topology, WalkTrace, sample_walk
from netdp import accountant as acct
from netdp.empirical import (
    PairLossMatrix,
    empirical_pair_loss_spotted,
    empirical_pair_loss_sum,
    spotted_counts,
    _capped_segments,
)


def make_walk(steps, n):
    return WalkTrace(topology=Topology(COMPLETE, n), steps=np.asarray(steps))


class TestCappedSegments:
    def test_no_capping_needed(self):
        ends = _capped_segments(np.array([2, 4]), n=10)
        assert ends.tolist() == [2, 4]

    def test_long_gap_split_every_n(self):
        # visit at 25 with n=10: fictive observations at 10 and 20
        ends = _capped_segments(np.array([25]), n=10)
        assert ends.tolist() == [10, 20, 25]

    def test_gap_multiple_of_n(self):
        ends = _capped_segments(np.array([20]), n=10)
        assert ends.tolist() == [10, 20]


class TestEmpiricalPairLossSum:
    def test_requires_complete_topology(self):
        walk = sample_walk(Topology(RING, 4), 8, seed=0)
        with pytest.raises(ValueError):
            empirical_pair_loss_sum(walk, 0.5, 1e-7, 1e-3)

    def test_eps0_above_one_rejected(self):
        walk = sample_walk(Topology(COMPLETE, 4), 8, seed=0)
        with pytest.raises(ValueError):
            empirical_pair_loss_sum(walk, 1.5, 1e-7, 1e-3)

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
        assert m.finite_offdiagonal().size == 0

    def test_diagonal_is_nan(self):
        walk = sample_walk(Topology(COMPLETE, 5), 100, seed=3)
        m = empirical_pair_loss_sum(walk, 0.5, 1e-7, 1e-3)
        assert np.all(np.isnan(np.diag(m.matrix)))

    def test_dominated_by_theory_bound(self):
        eps0, dp, dh = 0.5, 1e-3, 1e-3
        n = 100
        T = 100 * n
        bound = acct.complete_sum_bound(eps0, 1e-7, n, T, dp, dh).epsilon_out
        for seed in range(3):
            walk = sample_walk(Topology(COMPLETE, n), T, seed=seed)
            m = empirical_pair_loss_sum(walk, eps0, 1e-7, dp)
            assert float(np.nanmax(m.matrix)) <= bound

    def test_relabeling_equivariance(self):
        n = 6
        walk = sample_walk(Topology(COMPLETE, n), 300, seed=5)
        perm = np.array([3, 1, 5, 2, 6, 4])  # image of users 1..6
        relabeled = make_walk(perm[walk.steps - 1], n)
        m = empirical_pair_loss_sum(walk, 0.5, 1e-7, 1e-3).matrix
        mp = empirical_pair_loss_sum(relabeled, 0.5, 1e-7, 1e-3).matrix
        for u in range(n):
            for v in range(n):
                if u == v:
                    continue
                assert mp[perm[u] - 1, perm[v] - 1] == pytest.approx(m[u, v], rel=1e-12)

    def test_deterministic(self):
        walk = sample_walk(Topology(COMPLETE, 10), 500, seed=1)
        a = empirical_pair_loss_sum(walk, 0.5, 1e-7, 1e-3)
        b = empirical_pair_loss_sum(walk, 0.5, 1e-7, 1e-3)
        np.testing.assert_array_equal(a.matrix, b.matrix)


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

    def test_simple_term_value(self):
        walk = make_walk([1, 2, 1, 2], 4)
        m = empirical_pair_loss_spotted(walk, 0.4, mode="simple")
        assert m.matrix[0, 1] == pytest.approx(2 * 0.4)
        assert m.matrix[2, 3] == 0.0

    def test_advanced_mode_needs_delta(self):
        walk = make_walk([1, 2, 1, 2], 4)
        with pytest.raises(ValueError):
            empirical_pair_loss_spotted(walk, 0.4, mode="advanced")
        m = empirical_pair_loss_spotted(walk, 0.4, mode="advanced", delta_prime=1e-3)
        expected = math.sqrt(2 * 2 * math.log(1e3)) * 0.4 + 2 * 0.4 * (math.e**0.4 - 1)
        assert m.matrix[0, 1] == pytest.approx(expected, rel=1e-12)
