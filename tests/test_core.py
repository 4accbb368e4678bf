import numpy as np
import pytest
from scipy import stats

from netdp.core import (
    COMPLETE,
    RING,
    PrivacyBudget,
    Topology,
    WalkTrace,
    rng_stream,
    sample_walk,
    visit_counts,
)


def make_trace(steps, n, kind=COMPLETE):
    return WalkTrace(topology=Topology(kind, n), steps=np.asarray(steps))


class TestPrivacyBudget:
    def test_valid(self):
        b = PrivacyBudget(0.5, 1e-6)
        assert b.epsilon == 0.5 and b.delta == 1e-6

    @pytest.mark.parametrize("eps,delta", [(0.0, 0.0), (-1.0, 0.1), (1.0, 1.0), (1.0, -0.1)])
    def test_invalid(self, eps, delta):
        with pytest.raises(ValueError):
            PrivacyBudget(eps, delta)


class TestTopology:
    def test_ring_needs_two(self):
        with pytest.raises(ValueError):
            Topology(RING, 1)
        assert Topology(COMPLETE, 1).n == 1

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Topology("torus", 5)


class TestSampleWalk:
    def test_ring_order_deterministic(self):
        walk = sample_walk(Topology(RING, 3), 6, seed=99)
        assert walk.steps.tolist() == [1, 2, 3, 1, 2, 3]

    def test_ring_walk_built_once_and_read_only(self):
        # the ring walk does not depend on the seed, so one trace serves all
        a = sample_walk(Topology(RING, 4), 8, seed=1)
        assert sample_walk(Topology(RING, 4), 8, seed=2) is a
        assert sample_walk(Topology(RING, 4), 12, seed=1).steps.tolist() == [1, 2, 3, 4] * 3
        with pytest.raises(ValueError):
            a.steps[0] = 2

    def test_single_user_complete(self):
        walk = sample_walk(Topology(COMPLETE, 1), 5, seed=4)
        assert walk.steps.tolist() == [1, 1, 1, 1, 1]

    def test_ring_length_must_divide(self):
        with pytest.raises(ValueError):
            sample_walk(Topology(RING, 4), 6, seed=0)

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            sample_walk(Topology(COMPLETE, 5), 0, seed=0)

    def test_visit_frequency_law_of_large_numbers(self):
        # n=10, T=1e5: every empirical frequency within one percentage point
        # of 1/n (the 3-sigma band is ~0.003, so this is a sound LLN check)
        walk = sample_walk(Topology(COMPLETE, 10), 10**5, seed=7)
        freq = visit_counts(walk) / walk.T
        assert np.all(np.abs(freq - 0.1) < 0.01)

    def test_pure_function_of_inputs(self):
        a = sample_walk(Topology(COMPLETE, 20), 500, seed=3)
        b = sample_walk(Topology(COMPLETE, 20), 500, seed=3)
        assert np.array_equal(a.steps, b.steps)
        c = sample_walk(Topology(COMPLETE, 20), 500, seed=4)
        assert not np.array_equal(a.steps, c.steps)


class TestVisitCounts:
    def test_ring_counts(self):
        walk = sample_walk(Topology(RING, 3), 6, seed=0)
        assert visit_counts(walk).tolist() == [2, 2, 2]

    def test_single_user(self):
        walk = sample_walk(Topology(COMPLETE, 1), 4, seed=0)
        assert visit_counts(walk).tolist() == [4]

    def test_counts_sum_to_T(self):
        walk = sample_walk(Topology(COMPLETE, 17), 999, seed=5)
        assert visit_counts(walk).sum() == 999

    def test_binomial_concentration(self):
        # n=4, T=1e6: every count within 4 sigma of the binomial mean
        n, T = 4, 10**6
        walk = sample_walk(Topology(COMPLETE, n), T, seed=21)
        counts = visit_counts(walk)
        sigma = np.sqrt(T * (1 / n) * (1 - 1 / n))
        assert np.all(np.abs(counts - T / n) <= 4 * sigma)

    def test_chi_square_goodness_of_fit(self):
        # visit counts look multinomial(T, 1/n): the 1% level test passes
        # on at least 95 of 100 seeds
        n, T = 50, 5000
        passes = 0
        for seed in range(100):
            counts = visit_counts(sample_walk(Topology(COMPLETE, n), T, seed=seed))
            _, p = stats.chisquare(counts)
            passes += p >= 0.01
        assert passes >= 95


class TestWalkTraceSerialization:
    def test_invalid_steps_rejected(self):
        with pytest.raises(ValueError):
            make_trace([0, 1], 2)
        with pytest.raises(ValueError):
            make_trace([1, 3], 2)


class TestRngStreams:
    def test_streams_reproducible_and_independent(self):
        a = rng_stream(42, 1).normal(size=5)
        b = rng_stream(42, 1).normal(size=5)
        c = rng_stream(42, 2).normal(size=5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_negative_seed_accepted(self):
        assert rng_stream(-1, 0).random() == rng_stream(-1, 0).random()
