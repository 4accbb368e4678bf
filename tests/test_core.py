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
    WalkTrace,
    derive_seed,
    derive_seeds,
    rng_stream,
    rng_stream_list,
    rng_streams,
    sample_walk,
    sample_walks,
    seed_sequence_state,
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

    def test_ring_walk_is_seed_free_and_read_only(self):
        # the ring walk does not depend on the seed, so a batch holds one row
        a = sample_walk(Topology(RING, 4), 8, seed=1)
        assert sample_walk(Topology(RING, 4), 8, seed=2).steps.tolist() == a.steps.tolist()
        assert sample_walk(Topology(RING, 4), 12, seed=1).steps.tolist() == [1, 2, 3, 4] * 3
        batch = sample_walks(Topology(RING, 4), 8, [1, 2, 3])
        assert batch.steps.tolist() == [a.steps.tolist()] and batch.T == 8
        for steps in (a.steps, batch.steps):
            with pytest.raises(ValueError):
                steps[0] = 2

    def test_complete_walks_are_the_seeds_walks(self):
        batch = sample_walks(Topology(COMPLETE, 7), 50, [3, 9, 3])
        assert batch.steps.shape == (3, 50)
        for row, seed in zip(batch.steps, [3, 9, 3]):
            assert row.tolist() == sample_walk(Topology(COMPLETE, 7), 50, seed).steps.tolist()
        with pytest.raises(ValueError):
            batch.steps[0, 0] = 1

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

    # edge seeds of both word counts, and seeds as the CLI derives them
    # (the last from a --seed of 2**32 + 1, the spawn-key path)
    SEEDS = [-1, 0, 2**32 - 1, 2**32, 2**64 - 1,
             *derive_seeds([(1, 0x5EED, r) for r in range(3)] + [(2**32 + 1, 0x5EED, 0)])]

    @staticmethod
    def first_draws(rng):
        # an odd count of 32-bit draws leaves half a word buffered in the Philox
        return rng.integers(0, 2**32, size=3, dtype=np.uint32).tolist(), rng.random(3).tolist()

    @pytest.mark.parametrize("stream", [0, 1, 2, 3, 4])
    def test_stream_is_numpy_seed_sequence_philox(self, stream):
        for seed in self.SEEDS:
            numpy_rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed % 2**64, stream))))
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

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2: core._seed_words zero-pads the (seed, stream) "
                                           "words to SeedSequence's pool, so stream k of s aliases s + k * 2**32")
    def test_stream_ids_do_not_alias_wide_seeds(self):
        assert rng_stream(12345, 1).random(4).tolist() != rng_stream(12345 + 2**32, 0).random(4).tolist()


class TestDeriveSeeds:
    def test_derive_seed_deterministic(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
        assert derive_seed(1, 2, 3) != derive_seed(1, 2, 4)

    def test_derive_seed_keeps_bits_above_32(self):
        # parts below 2**32 keep the values they always had
        assert derive_seed(1, 2, 3) == 12997252459554536576
        assert derive_seed(2**32 - 1, 0xDA7A) == 2706235518615794121
        assert derive_seed(1, 0xDA7A) == 5339024011857495557
        assert derive_seed(2**32 + 1, 0xDA7A) != derive_seed(1, 0xDA7A)
        assert derive_seed(2**64 + 1, 7) != derive_seed(1, 7)

    def test_derive_seed_parts_do_not_alias(self):
        # the same 32-bit words, split into parts differently
        assert derive_seed(1, 5, 7) != derive_seed(1 + 5 * 2**32, 7)
        assert derive_seed(5, 1, 7) != derive_seed(5 * 2**32 + 1, 7)
        assert derive_seed(2**32 + 1, 2) != derive_seed(2**32 + 1 + 2 * 2**64)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2: core._seed_words zero-pads a tuple's words to "
                                           "SeedSequence's 4-word pool, so a trailing zero part is lost")
    def test_derive_seed_trailing_zero_part_does_not_alias(self):
        assert derive_seed(7, 12) != derive_seed(7, 12, 0)

    @staticmethod
    def numpy_derive_seed(*parts):
        # derive_seed written with numpy's SeedSequence itself
        words = [max(1, -(-p.bit_length() // 32)) for p in parts]
        mixed = np.random.SeedSequence(parts, spawn_key=words if max(words, default=1) > 1 else ())
        return int(mixed.generate_state(1, np.uint64)[0])

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.one_of(st.integers(0, 2**32 - 1), st.integers(0, 2**70)), max_size=4),
                    max_size=6))
    def test_derive_seeds_is_seed_sequence(self, rows):
        # rows of every word count, spawn-key rows among them, in one call
        expected = [self.numpy_derive_seed(*parts) for parts in rows]
        assert derive_seeds(rows) == expected == [derive_seed(*parts) for parts in rows]

    def test_derive_seed_rejects_negative_parts(self):
        with pytest.raises(ValueError, match="non-negative"):
            derive_seed(1, -2)


WORD = st.integers(0, 2**32 - 1)


class TestSeedSequenceState:
    @settings(max_examples=150, deadline=None)
    @given(rows=st.integers(1, 8).flatmap(lambda width: st.lists(
               st.lists(WORD, min_size=width, max_size=width), min_size=1, max_size=5)),
           n_words=st.sampled_from([1, 2, 4]))
    def test_matches_seed_sequence(self, rows, n_words):
        expected = [np.random.SeedSequence(row).generate_state(n_words, np.uint64) for row in rows]
        got = seed_sequence_state(np.array(rows, dtype=np.uint32), n_words)
        assert got.dtype == np.uint64 and got.tolist() == np.array(expected).tolist()

    @settings(max_examples=150, deadline=None)
    @given(entropy=st.lists(WORD, min_size=1, max_size=6),
           spawn_key=st.lists(st.integers(1, 3), min_size=1, max_size=3),
           n_words=st.sampled_from([1, 2, 4]))
    def test_spawn_key_layout(self, entropy, spawn_key, n_words):
        # SeedSequence pads the run entropy to its 4-word pool before the spawn key
        row = entropy + [0] * (4 - len(entropy)) + spawn_key
        expected = np.random.SeedSequence(entropy, spawn_key=spawn_key).generate_state(n_words, np.uint64)
        assert seed_sequence_state([row], n_words).tolist() == [expected.tolist()]

    def test_no_rows(self):
        assert seed_sequence_state(np.zeros((0, 3), dtype=np.uint32), 2).shape == (0, 2)
