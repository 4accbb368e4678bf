import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from netdp.core import (
    COMPLETE,
    RING,
    PrivacyBudget,
    Topology,
    Walks,
    derive_seed,
    derive_seeds,
    rng_stream,
    rng_stream_list,
    rng_streams,
    sample_walks,
    visit_counts,
)


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


def walk_of(topology, T, seed):
    """The one walk ``sample_walks`` draws for ``seed``, as (T,) holders."""
    return sample_walks(topology, T, [seed]).row(0)


class TestSampleWalk:
    def test_ring_order_deterministic(self):
        assert walk_of(Topology(RING, 3), 6, seed=99).tolist() == [1, 2, 3, 1, 2, 3]

    def test_ring_walk_is_seed_free_and_read_only(self):
        # the ring walk does not depend on the seed, so a batch holds one row
        a = walk_of(Topology(RING, 4), 8, seed=1)
        assert walk_of(Topology(RING, 4), 8, seed=2).tolist() == a.tolist()
        assert walk_of(Topology(RING, 4), 12, seed=1).tolist() == [1, 2, 3, 4] * 3
        batch = sample_walks(Topology(RING, 4), 8, [1, 2, 3])
        assert batch.steps.tolist() == [a.tolist()] and batch.T == 8
        for steps in (a, batch.steps):
            with pytest.raises(ValueError):
                steps[0] = 2

    def test_complete_walks_are_the_seeds_walks(self):
        batch = sample_walks(Topology(COMPLETE, 7), 50, [3, 9, 3])
        assert batch.steps.shape == (3, 50)
        for row, seed in zip(batch.steps, [3, 9, 3]):
            assert row.tolist() == walk_of(Topology(COMPLETE, 7), 50, seed).tolist()
        with pytest.raises(ValueError):
            batch.steps[0, 0] = 1

    def test_single_user_complete(self):
        assert walk_of(Topology(COMPLETE, 1), 5, seed=4).tolist() == [1, 1, 1, 1, 1]

    def test_ring_length_must_divide(self):
        with pytest.raises(ValueError):
            sample_walks(Topology(RING, 4), 6, [0])

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            sample_walks(Topology(COMPLETE, 5), 0, [0])

    def test_no_seeds_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            sample_walks(Topology(COMPLETE, 5), 10, [])

    def test_visit_frequency_law_of_large_numbers(self):
        # n=10, T=1e5: every empirical frequency within one percentage point
        # of 1/n (the 3-sigma band is ~0.003, so this is a sound LLN check)
        walk = sample_walks(Topology(COMPLETE, 10), 10**5, [7])
        freq = visit_counts(walk)[0] / walk.T
        assert np.all(np.abs(freq - 0.1) < 0.01)

    def test_pure_function_of_inputs(self):
        a = walk_of(Topology(COMPLETE, 20), 500, seed=3)
        b = walk_of(Topology(COMPLETE, 20), 500, seed=3)
        assert np.array_equal(a, b)
        c = walk_of(Topology(COMPLETE, 20), 500, seed=4)
        assert not np.array_equal(a, c)


class TestVisitCounts:
    def test_ring_counts(self):
        assert visit_counts(sample_walks(Topology(RING, 3), 6, [0])).tolist() == [[2, 2, 2]]

    def test_single_user(self):
        assert visit_counts(sample_walks(Topology(COMPLETE, 1), 4, [0])).tolist() == [[4]]

    def test_counts_sum_to_T(self):
        assert visit_counts(sample_walks(Topology(COMPLETE, 17), 999, [5])).sum() == 999

    def test_rows_count_each_walk(self):
        walks = sample_walks(Topology(COMPLETE, 6), 40, [1, 2, 1])
        counts = visit_counts(walks)
        assert counts.shape == (3, 6) and counts.sum(axis=1).tolist() == [40] * 3
        for row, steps in zip(counts, walks.steps):
            assert row.tolist() == np.bincount(steps - 1, minlength=6).tolist()

    def test_binomial_concentration(self):
        # n=4, T=1e6: every count within 4 sigma of the binomial mean
        n, T = 4, 10**6
        counts = visit_counts(sample_walks(Topology(COMPLETE, n), T, [21]))[0]
        sigma = np.sqrt(T * (1 / n) * (1 - 1 / n))
        assert np.all(np.abs(counts - T / n) <= 4 * sigma)

    def test_chi_square_goodness_of_fit(self):
        # visit counts look multinomial(T, 1/n): the 1% level test passes
        # on at least 95 of 100 seeds
        n, T = 50, 5000
        passes = 0
        for counts in visit_counts(sample_walks(Topology(COMPLETE, n), T, range(100))):
            _, p = stats.chisquare(counts)
            passes += p >= 0.01
        assert passes >= 95


class TestWalks:
    def test_invalid_steps_rejected(self):
        with pytest.raises(ValueError):
            Walks(Topology(COMPLETE, 2), np.asarray([0, 1]))
        with pytest.raises(ValueError):
            Walks(Topology(COMPLETE, 2), np.asarray([1, 3]))

    def test_one_walk_is_one_row(self):
        walks = Walks(Topology(COMPLETE, 3), [2, 3, 1, 1])
        assert walks.steps.shape == (1, 4) and walks.steps.dtype == np.int64
        assert (walks.T, walks.n) == (4, 3)

    def test_steps_are_read_only(self):
        walks = Walks(Topology(COMPLETE, 3), np.array([[1, 2], [3, 3]]))
        assert not walks.steps.flags.writeable and not walks.row(1).flags.writeable
        with pytest.raises(ValueError):
            walks.steps[0, 0] = 2
        one = np.array([1, 2, 3])
        Walks(Topology(COMPLETE, 3), one)
        with pytest.raises(ValueError):
            one[0] = 2  # the (1, T) view of a 1-d input has no writeable base

    def test_one_row_serves_every_run(self):
        walks = Walks(Topology(RING, 3), [1, 2, 3, 1, 2, 3])
        for r in (0, 1, 7):
            assert walks.row(r).tolist() == [1, 2, 3, 1, 2, 3]

    def test_rows_of_many_walks(self):
        walks = Walks(Topology(COMPLETE, 3), [[1, 2], [3, 3]])
        assert walks.row(0).tolist() == [1, 2] and walks.row(1).tolist() == [3, 3]

    @pytest.mark.parametrize("steps", [[], [[]], np.ones((1, 2, 2), dtype=np.int64), 1, [[0, 1]], [[1, 4]]],
                             ids=["empty", "empty-row", "3-d", "0-d", "below-1", "above-n"])
    def test_bad_shapes_and_entries_rejected(self, steps):
        with pytest.raises(ValueError):
            Walks(Topology(COMPLETE, 3), steps)


class TestRngStreams:
    def test_streams_reproducible_and_independent(self):
        a = rng_stream(42, 1).normal(size=5)
        b = rng_stream(42, 1).normal(size=5)
        c = rng_stream(42, 2).normal(size=5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_negative_seed_accepted(self):
        assert rng_stream(-1, 0).random() == rng_stream(-1, 0).random()

    # edge seeds of both 32-bit word counts and of the 64-bit wrap, and seeds
    # as the CLI derives them
    SEEDS = [-1, 0, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**70 + 3,
             *derive_seeds([(1, 0x5EED, r) for r in range(3)] + [(2**32 + 1, 0x5EED, 0)])]

    @staticmethod
    def first_draws(rng):
        # an odd count of 32-bit draws leaves half a word buffered in the Philox
        return rng.integers(0, 2**32, size=3, dtype=np.uint32).tolist(), rng.random(3).tolist()

    @pytest.mark.parametrize("stream", [0, 1, 2, 3, 4, 2**32 - 1])
    def test_stream_is_numpy_philox_keyed_by_seed_and_stream(self, stream):
        # the key's low 64-bit word is the seed mod 2**64, its high word the stream id
        for seed in self.SEEDS:
            numpy_rng = np.random.Generator(np.random.Philox(key=(seed % 2**64) + (stream << 64)))
            assert self.first_draws(rng_stream(seed, stream)) == self.first_draws(numpy_rng)

    @pytest.mark.parametrize("stream", [0, 1, 2, 3, 4])
    def test_bulk_streams_draw_as_rng_stream(self, stream):
        expected = [self.first_draws(rng_stream(seed, stream)) for seed in self.SEEDS]
        assert [self.first_draws(rng) for rng in rng_streams(self.SEEDS, stream)] == expected
        assert [self.first_draws(rng) for rng in rng_stream_list(self.SEEDS, stream)] == expected

    def test_rng_stream_list_generators_are_independent_objects(self):
        a, b = rng_stream_list([5, 5], 1)
        assert a.random() == b.random()

    def test_no_seeds_no_streams(self):
        assert list(rng_streams([], 1)) == [] and rng_stream_list([], 1) == []

    @pytest.mark.parametrize("stream", [-1, 2**32])
    def test_stream_id_out_of_range(self, stream):
        with pytest.raises(ValueError, match="stream"):
            rng_stream(1, stream)

    def test_stream_ids_do_not_alias_wide_seeds(self):
        assert rng_stream(12345, 1).random(4).tolist() != rng_stream(12345 + 2**32, 0).random(4).tolist()
        assert rng_stream(12345, 1).random(4).tolist() != rng_stream(12345 + 2**64, 0).random(4).tolist()


def blake2b_seed(*parts):
    # derive_seed written from its contract: BLAKE2b-64 of the decimal parts, comma-joined
    digest = hashlib.blake2b(",".join(map(str, parts)).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


class TestDeriveSeeds:
    def test_derive_seed_deterministic(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
        assert derive_seed(1, 2, 3) != derive_seed(1, 2, 4)

    def test_derive_seed_keeps_bits_above_32(self):
        # literals, so that a change to the encoding fails here even if blake2b_seed follows it
        assert derive_seed(1, 2, 3) == 3034334815109854690
        assert derive_seed(2**32 - 1, 0xDA7A) == 10335390484846426639
        assert derive_seed(1, 0xDA7A) == 16136955230087940122
        assert derive_seed(2**32 + 1, 0xDA7A) != derive_seed(1, 0xDA7A)
        assert derive_seed(2**64 + 1, 7) != derive_seed(1, 7)

    def test_derive_seed_parts_do_not_alias(self):
        # the same 32-bit words, split into parts differently
        assert derive_seed(1, 5, 7) != derive_seed(1 + 5 * 2**32, 7)
        assert derive_seed(5, 1, 7) != derive_seed(5 * 2**32 + 1, 7)
        assert derive_seed(2**32 + 1, 2) != derive_seed(2**32 + 1 + 2 * 2**64)

    @pytest.mark.parametrize("seed", [0, 7, 2**32 + 1])
    def test_derive_seed_trailing_zero_part_does_not_alias(self, seed):
        assert derive_seed(seed, 12) != derive_seed(seed, 12, 0)
        # sgd_compare's replica 0 at eps = 55.93 against its dataset seed
        assert derive_seed(seed, 55930, 0) != derive_seed(seed, 0xDA7A)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.one_of(st.integers(0, 2**32 - 1), st.integers(0, 2**70)), max_size=4),
                    max_size=6))
    def test_derive_seeds_is_blake2b_of_the_parts(self, rows):
        expected = [blake2b_seed(*parts) for parts in rows]
        assert derive_seeds(rows) == expected == [derive_seed(*parts) for parts in rows]

    def test_derive_seed_rejects_negative_parts(self):
        with pytest.raises(ValueError, match="non-negative"):
            derive_seed(1, -2)
