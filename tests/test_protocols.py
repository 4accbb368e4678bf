import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from netdp.core import COMPLETE, RING, Topology, sample_walk
from netdp.protocols import (
    CHECKPOINT_EVERY,
    audit_ring_sum_structure,
    occurrence_index,
    ring_noise_steps,
    run_complete_hist,
    run_complete_sgd,
    run_complete_sum,
    run_ring_hist,
    run_ring_sum,
    uniform_category_stream,
    uniform_scalar_stream,
)


class TestRingNoiseSchedule:
    def test_default_count_matches_utility_formula(self):
        for n, K in [(100, 10), (3, 2), (2, 4), (7, 20), (50, 49)]:
            steps = ring_noise_steps(n, K)
            assert steps.size == (K * n) // (n - 1)
            assert np.all(np.diff(steps) == n - 1)

    def test_protected_variant_perturbs_first_step(self):
        steps = ring_noise_steps(100, 10, protect_first_cycle=True)
        assert steps[0] == 1
        assert steps.size == math.ceil(10 * 100 / 99)

    def test_every_window_of_n_steps_contains_noise(self):
        for protect in (False, True):
            for n, K in [(10, 3), (100, 10), (5, 7)]:
                steps = set(ring_noise_steps(n, K, protect).tolist())
                for start in range(1, K * n - n + 2):
                    assert any(s in steps for s in range(start, start + n))


class TestRunRingSum:
    def test_noiseless_equals_exact_sum(self):
        stream = uniform_scalar_stream(10, seed=3)
        res = run_ring_sum(10, 4, stream, sigma_loc=0.0, seed=5)
        assert float(res.output) == pytest.approx(res.true_value, abs=1e-12)
        assert res.true_value == pytest.approx(4 * np.sum(stream))

    def test_noise_event_count_and_spacing(self):
        res = run_ring_sum(100, 10, uniform_scalar_stream(100, 1), 1.0, seed=2)
        steps = res.noise_steps
        assert steps.size == 10
        assert np.all(np.diff(steps) == 99)
        assert np.all(res.noise_scales == 1.0)

    def test_structural_audit_default_schedule(self):
        res = run_ring_sum(20, 5, uniform_scalar_stream(20, 1), 1.0, seed=2)
        assert audit_ring_sum_structure(res, require_other_noiser=True) == 0

    def test_structural_audit_protected_schedule(self):
        res = run_ring_sum(20, 5, uniform_scalar_stream(20, 1), 1.0, seed=2,
                           protect_first_cycle=True)
        assert audit_ring_sum_structure(res, require_other_noiser=True) == 0

    def test_monte_carlo_stddev(self):
        # smaller sibling of the acceptance run: 2e4 runs, 5% tolerance
        stream = uniform_scalar_stream(100, seed=9)
        outs = np.array([
            float(run_ring_sum(100, 10, stream, 1.0, seed=s).output)
            for s in range(20_000)
        ])
        assert outs.std(ddof=1) == pytest.approx(math.sqrt(10), rel=0.05)
        assert outs.mean() == pytest.approx(float(10 * np.sum(stream)), abs=0.1)

    def test_distributed_mode_schedule(self):
        n, K = 100, 10
        res = run_ring_sum(n, K, uniform_scalar_stream(n, 1), 2.0, mode="distributed", seed=3)
        assert res.noise_steps.size == K * n
        assert res.noise_scales[0] == 2.0
        assert res.noise_scales[1] == pytest.approx(2.0 / math.sqrt(n))

    def test_distributed_mode_stddev(self):
        # total noise std sqrt(floor(Kn/(n-1)) + 1) sigma up to a 1/n term
        stream = uniform_scalar_stream(100, seed=9)
        outs = np.array([
            float(run_ring_sum(100, 10, stream, 1.0, mode="distributed", seed=s).output)
            for s in range(20_000)
        ])
        assert outs.std(ddof=1) == pytest.approx(math.sqrt(11), rel=0.05)

    def test_purity(self):
        stream = uniform_scalar_stream(10, seed=3)
        a = run_ring_sum(10, 2, stream, 1.0, seed=7)
        b = run_ring_sum(10, 2, stream, 1.0, seed=7)
        assert float(a.output) == float(b.output)

    def test_laplace_noise_kind(self):
        stream = uniform_scalar_stream(50, seed=3)
        outs = np.array([
            float(run_ring_sum(50, 4, stream, 1.0, seed=s, noise_kind="laplace").output)
            for s in range(4000)
        ])
        # laplace draws are scaled so the per-event std is still sigma_loc
        assert outs.std(ddof=1) == pytest.approx(math.sqrt((4 * 50) // 49), rel=0.1)

    def test_bad_arguments(self):
        stream = uniform_scalar_stream(10, seed=3)
        with pytest.raises(ValueError):
            run_ring_sum(1, 2, stream, 1.0)
        with pytest.raises(ValueError):
            run_ring_sum(10, 0, stream, 1.0)
        with pytest.raises(ValueError):
            run_ring_sum(10, 2, stream, 1.0, mode="triple")


def audit_loop(result, require_other_noiser=True):
    """Reference window-by-window audit the vectorized one must reproduce."""
    n = result.trace.n
    K = result.trace.T // n
    noise_steps = result.noise_steps
    violations = 0
    for p in range(1, n + 1):
        for i in range(1, K):
            lo = p + (i - 1) * n
            hi = p - 1 + i * n
            window = (noise_steps >= lo) & (noise_steps <= hi)
            own = np.sum(result.trace.steps[lo - 1 : hi] == p)
            ok = window.any() and own <= 1
            if ok and require_other_noiser:
                positions = (noise_steps[window] - 1) % n + 1
                ok = bool(np.any(positions != p))
            violations += not ok
    return violations


def with_noise_steps(res, keep):
    return dataclasses.replace(res, noise_steps=res.noise_steps[keep], noise_scales=res.noise_scales[keep])


class TestAuditRingSumStructure:
    CASES = [(2, 3), (5, 1), (7, 4), (20, 5)]

    @pytest.mark.parametrize("n,K", CASES)
    @pytest.mark.parametrize("require", [True, False])
    def test_default_schedules_match_loop(self, n, K, require):
        stream = uniform_scalar_stream(n, 1)
        for kwargs in ({}, {"protect_first_cycle": True}, {"mode": "distributed"}):
            res = run_ring_sum(n, K, stream, 1.0, seed=2, **kwargs)
            assert audit_ring_sum_structure(res, require) == audit_loop(res, require) == 0

    @pytest.mark.parametrize("n,K", CASES)
    @pytest.mark.parametrize("require", [True, False])
    def test_removed_noise_events_match_loop(self, n, K, require):
        res = run_ring_sum(n, K, uniform_scalar_stream(n, 1), 1.0, seed=2, mode="distributed")
        rng = np.random.Generator(np.random.Philox(n * K))
        found = 0
        for frac in (0.0, 0.5, 0.9, 0.97):
            keep = rng.random(res.noise_steps.size) >= frac
            thinned = with_noise_steps(res, keep)
            got = audit_ring_sum_structure(thinned, require)
            assert got == audit_loop(thinned, require)
            found += got
        assert found > 0 or K == 1

    def test_only_own_noise_is_flagged(self):
        # keep only steps 1, n + 1, 2n + 1, ...: each holder-1 window has
        # noise, but all of it is user 1's own
        n, K = 6, 4
        res = run_ring_sum(n, K, uniform_scalar_stream(n, 1), 1.0, seed=2, mode="distributed")
        thinned = with_noise_steps(res, (res.noise_steps - 1) % n == 0)
        assert audit_ring_sum_structure(thinned, False) == audit_loop(thinned, False)
        assert audit_ring_sum_structure(thinned, True) == audit_loop(thinned, True) > 0

    @pytest.mark.parametrize("require", [True, False])
    def test_repeated_holders_match_loop(self, require):
        # a complete-graph trace repeats holders inside a window
        n, K = 5, 6
        res = run_ring_sum(n, K, uniform_scalar_stream(n, 1), 1.0, seed=2)
        for seed in range(5):
            mixed = dataclasses.replace(res, trace=sample_walk(Topology(COMPLETE, n), K * n, seed))
            assert audit_ring_sum_structure(mixed, require) == audit_loop(mixed, require)


class TestRunRingHist:
    def test_gamma_zero_exact(self):
        stream = uniform_category_stream(50, 4, seed=2)
        res = run_ring_hist(50, 3, 4, stream, gamma=0.0, seed=1)
        np.testing.assert_allclose(np.asarray(res.output), res.true_value)
        assert res.init_randomized == 0
        assert res.random_response_count == 0

    def test_gamma_one_rejected(self):
        stream = uniform_category_stream(50, 4, seed=2)
        with pytest.raises(ValueError):
            run_ring_hist(50, 3, 4, stream, gamma=1.0)

    def test_pre_debias_counts_are_nonnegative_integers(self):
        stream = uniform_category_stream(50, 4, seed=2)
        res = run_ring_hist(50, 3, 4, stream, gamma=0.4, seed=1)
        counts = np.asarray(res.pre_debias)
        assert counts.dtype.kind == "i"
        assert np.all(counts >= 0)
        assert counts.sum() == 50 * 3 + res.init_randomized

    def test_debias_unbiased_small_monte_carlo(self):
        n, K, L, gamma, runs = 200, 5, 5, 0.3, 2000
        stream = uniform_category_stream(n, L, seed=8)
        errors = np.array([
            np.asarray(run_ring_hist(n, K, L, stream, gamma, seed=s).output)
            - np.bincount(np.repeat(stream - 1, K), minlength=L)
            for s in range(runs)
        ])
        se = errors.std(axis=0, ddof=1) / math.sqrt(runs)
        assert np.all(np.abs(errors.mean(axis=0)) < 4 * se)

    def test_random_response_count_mean(self):
        n, K, L, gamma, runs = 500, 4, 5, 0.3, 500
        stream = uniform_category_stream(n, L, seed=8)
        counts = [
            run_ring_hist(n, K, L, stream, gamma, seed=s).random_response_count
            for s in range(runs)
        ]
        assert np.mean(counts) == pytest.approx(gamma * n * (K + 1), rel=0.02)


class TestOccurrenceIndex:
    def test_matches_bruteforce(self, rng):
        arr = rng.integers(1, 7, size=300)
        got = occurrence_index(arr)
        seen = {}
        for i, v in enumerate(arr):
            assert got[i] == seen.get(v, 0)
            seen[v] = seen.get(v, 0) + 1

    def test_single_user(self):
        assert occurrence_index(np.ones(4, dtype=np.int64)).tolist() == [0, 1, 2, 3]

    @given(st.lists(st.one_of(st.integers(0, 6), st.integers(2**16 - 3, 2**16 + 3)), max_size=200))
    def test_matches_naive_counter(self, values):
        # values >= 2**16 take the int64 sort, the rest the uint16 one
        seen = {}
        expected = []
        for v in values:
            expected.append(seen.get(v, 0))
            seen[v] = seen.get(v, 0) + 1
        got = occurrence_index(np.array(values, dtype=np.int64))
        assert got.dtype == np.int64
        assert got.tolist() == expected

    @pytest.mark.parametrize("n,K", [(2, 1), (5, 3), (100, 10), (500, 20)])
    def test_ring_walk_visit_counter_is_the_lap(self, n, K):
        # per-visit tables on a ring read column k on lap k
        steps = sample_walk(Topology(RING, n), K * n, seed=0).steps
        assert occurrence_index(steps).tolist() == np.repeat(np.arange(K), n).tolist()


class TestRunCompleteSum:
    def test_noiseless_exact(self):
        stream = uniform_scalar_stream(20, seed=4)
        res = run_complete_sum(20, 500, stream, sigma_loc=0.0, seed=6)
        assert float(res.output) == pytest.approx(res.true_value, abs=1e-12)

    def test_single_user_structure(self):
        res = run_complete_sum(1, 7, np.array([0.25]), 0.0, seed=1)
        assert res.trace.steps.tolist() == [1] * 7
        assert res.true_value == pytest.approx(7 * 0.25)
        assert res.noise_steps.size == 7

    def test_monte_carlo_stddev(self):
        stream = uniform_scalar_stream(50, seed=4)
        errs = np.array([
            float(run_complete_sum(50, 400, stream, 1.0, seed=s).output)
            - run_complete_sum(50, 400, stream, 0.0, seed=s).true_value
            for s in range(5000)
        ])
        assert errs.std(ddof=1) == pytest.approx(math.sqrt(400), rel=0.05)

    def test_contributions_clipped(self):
        res = run_complete_sum(5, 50, np.full(5, 10.0), 0.0, seed=1, clip=1.0)
        assert res.true_value == pytest.approx(50 * 0.5)


class TestRunCompleteHist:
    def test_gamma_zero_exact(self):
        stream = uniform_category_stream(30, 6, seed=5)
        res = run_complete_hist(30, 200, 6, stream, gamma=0.0, seed=3)
        np.testing.assert_allclose(np.asarray(res.output), res.true_value)

    def test_random_response_count_mean(self):
        n, T, L, gamma, runs = 100, 2000, 5, 0.3, 500
        stream = uniform_category_stream(n, L, seed=8)
        counts = [
            run_complete_hist(n, T, L, stream, gamma, seed=s).random_response_count
            for s in range(runs)
        ]
        assert np.mean(counts) == pytest.approx(gamma * T, rel=0.02)

    def test_debias_unbiased_small_monte_carlo(self):
        n, T, L, gamma, runs = 100, 1000, 4, 0.25, 2000
        stream = uniform_category_stream(n, L, seed=8)
        errors = []
        for s in range(runs):
            res = run_complete_hist(n, T, L, stream, gamma, seed=s)
            errors.append(np.asarray(res.output) - np.asarray(res.true_value))
        errors = np.array(errors)
        se = errors.std(axis=0, ddof=1) / math.sqrt(runs)
        assert np.all(np.abs(errors.mean(axis=0)) < 4 * se)


def quadratic_grad(A, b):
    """Batched least-squares gradient A^T (A w - b) for each row w of W."""
    return lambda W, users: (W @ A.T - b) @ A


def zero_grad(d):
    return lambda W, users: np.zeros((len(users), d))


def assert_bits_equal(a, b):
    np.testing.assert_array_equal(np.asarray(a, dtype=float).view(np.int64),
                                  np.asarray(b, dtype=float).view(np.int64))


class TestRunCompleteSgd:
    def test_noiseless_quadratic_converges_to_closed_form(self):
        rng = np.random.Generator(np.random.Philox(3))
        A = rng.normal(size=(3, 2))
        b = rng.normal(size=3)
        w_star = np.linalg.lstsq(A, b, rcond=None)[0]
        res = run_complete_sgd(
            n=1, T=2000, grad_fn=quadratic_grad(A, b),
            eta=0.3, sigma=0.0, seeds=[1], d=2,
        )
        np.testing.assert_allclose(res.models[0], w_star, atol=1e-6)

    def test_noise_magnitude(self):
        # zero gradient isolates the injected noise: the squared displacement
        # between checkpoints, CHECKPOINT_EVERY steps apart, has mean
        # CHECKPOINT_EVERY * d * sigma^2 (relative s.e. sqrt(2/d) / 10 here)
        d, sigma, T = 100, 1.5, 10_000
        res = run_complete_sgd(
            n=4, T=T, grad_fn=zero_grad(d),
            eta=1.0, sigma=sigma, seeds=[2], d=d,
        )
        assert np.all(np.diff(res.checkpoint_steps) == CHECKPOINT_EVERY)
        moves = np.diff(res.iterates[0], axis=0)
        assert np.mean(np.sum(moves**2, axis=1)) == pytest.approx(
            CHECKPOINT_EVERY * d * sigma**2, rel=0.05)

    def test_every_iterate_reaches_the_gradient(self):
        # every step's iterate reaches the gradient, checkpoints or not, and
        # a checkpoint keeps the iterate the next step's gradient sees
        d, T = 5, 500
        seen = []

        def grad(W, users):
            seen.append(W.copy())
            return np.ones((len(users), d))

        res = run_complete_sgd(n=3, T=T, grad_fn=grad, eta=0.5, sigma=1.0, seeds=[3], d=d)
        assert len(seen) == T
        for c, step in enumerate(res.checkpoint_steps[:-1]):
            assert_bits_equal(seen[step][0], res.iterates[0, c])

    def test_contribution_cap_and_network_noise(self):
        d, T, cap = 2, 300, 5
        calls = {u: 0 for u in range(1, 5)}

        def counting_grad(W, users):
            for u in users:
                calls[int(u)] += 1
            return np.zeros((len(users), d))

        res = run_complete_sgd(
            n=4, T=T, grad_fn=counting_grad,
            eta=0.1, sigma=0.5, seeds=[4], d=d,
            max_contributions=cap, noise_when_capped=True,
        )
        assert all(c <= cap for c in calls.values())
        assert res.noised[0].sum() == T  # capped holders still add noise

    def test_capped_local_mode_forwards_untouched(self):
        d, T, cap = 2, 300, 5
        res = run_complete_sgd(
            n=4, T=T, grad_fn=zero_grad(d),
            eta=0.1, sigma=0.5, seeds=[4], d=d,
            max_contributions=cap, noise_when_capped=False,
        )
        assert res.noised[0].sum() == 4 * cap

    def test_deterministic(self):
        args = dict(n=3, T=100, grad_fn=lambda W, users: np.ones((len(users), 2)),
                    eta=0.1, sigma=1.0, seeds=[11], d=2)
        a = run_complete_sgd(**args)
        b = run_complete_sgd(**args)
        np.testing.assert_array_equal(a.iterates, b.iterates)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            run_complete_sgd(
                n=2, T=10, grad_fn=zero_grad(3),
                eta=0.1, sigma=0.0, seeds=[1], d=2,
            )

    def test_one_grad_call_per_step_with_live_runs(self):
        # runs sharing a seed share its walk and noise; eta differs per run
        calls = []

        def grad(W, users):
            calls.append(len(users))
            return np.ones((len(users), 2))

        res = run_complete_sgd(n=3, T=250, grad_fn=grad, eta=[0.1, 0.2, 0.1], sigma=0.5,
                               seeds=[5, 5, 6], d=2, max_contributions=60,
                               noise_when_capped=False)
        # rows of trace and noised follow the distinct seeds 5, 6
        assert len(calls) <= 250 and sum(calls) == res.noised[[0, 0, 1]].sum()
        assert res.trace.steps.shape == res.noised.shape == (2, 250) and res.trace.T == 250
        assert res.checkpoint_steps.tolist() == [0, 100, 200, 250]
        assert res.iterates.shape == (3, 4, 2)
        assert not np.array_equal(res.models[0], res.models[1])

    @staticmethod
    def live_runs(res, seeds, cap):
        """(B, T) mask: run b's holder contributes at step t + 1."""
        distinct = list(dict.fromkeys(seeds))
        per_seed = np.stack([occurrence_index(walk) < cap for walk in res.trace.steps])
        return per_seed[[distinct.index(s) for s in seeds]]

    def test_no_grad_call_when_no_run_contributes(self):
        calls = []

        def grad(W, users):
            calls.append(len(users))
            return np.ones((len(users), 2))

        seeds, cap = [1, 2, 3], 20
        res = run_complete_sgd(n=3, T=250, grad_fn=grad, eta=0.1, sigma=0.5, seeds=seeds, d=2,
                               max_contributions=cap, noise_when_capped=True)
        any_live = self.live_runs(res, seeds, cap).any(axis=0)
        assert not any_live.all()  # the runs' caps run out before step T
        assert len(calls) == any_live.sum()

    def test_all_contributing_runs_share_one_full_call(self):
        calls = []

        def grad(W, users):
            assert W.shape == (len(users), 2)
            calls.append(len(users))
            return np.ones((len(users), 2))

        seeds, cap = [4, 5, 4, 6], 30
        res = run_complete_sgd(n=3, T=300, grad_fn=grad, eta=[0.1, 0.2, 0.3, 0.1], sigma=0.5,
                               seeds=seeds, d=2, max_contributions=cap, noise_when_capped=False)
        live = self.live_runs(res, seeds, cap).sum(axis=0)
        expected = live[live > 0].tolist()
        assert len(seeds) in expected and any(0 < k < len(seeds) for k in expected)
        assert calls == expected  # len(users) == B on the steps where every run contributes

    def test_grad_fn_cannot_write_the_iterates(self):
        # an all-contributing step hands grad_fn the iterate array itself
        def grad(W, users):
            W += 1.0
            return np.zeros((len(users), 2))

        with pytest.raises(ValueError, match="read-only"):
            run_complete_sgd(n=3, T=5, grad_fn=grad, eta=0.1, sigma=0.5, seeds=[1, 2], d=2)

    def test_runs_that_do_not_move_keep_their_iterates(self):
        # local regime without noise: run b moves exactly when it contributes,
        # to w - eta g, and a run that sits a step out keeps its iterate bit
        # for bit
        d, eta, cap = 3, 0.4, 40
        rng = np.random.Generator(np.random.Philox(5))
        seen = []

        def grad(W, users):
            g = rng.normal(0.0, 10.0, size=(len(users), d))
            seen.append((W.copy(), g))
            return g

        seeds = [7, 8, 9]
        res = run_complete_sgd(n=3, T=400, grad_fn=grad, eta=eta, sigma=0.0, seeds=seeds, d=d,
                               max_contributions=cap, noise_when_capped=False)
        live = self.live_runs(res, seeds, cap)
        calls = iter(seen)
        expected = np.zeros((len(seeds), d))  # each run's iterate after its last move
        for t in range(400):
            runs = np.flatnonzero(live[:, t])
            if runs.size == 0:
                continue
            W, g = next(calls)
            assert 0 < runs.size <= len(seeds) and W.shape == (runs.size, d)
            assert_bits_equal(W, expected[runs])
            expected[runs] = W - eta * g
        assert (live.any(axis=0) & ~live.all(axis=0)).any()  # steps where some runs sit out
        assert_bits_equal(res.models, expected)

    def test_no_block_sized_noise_gather(self):
        # 50 runs on 5 seeds, as an eta search batches them: per-seed noise
        # blocks are (5, block, d), and no (B, block, d) array is built
        B, T, d = 50, 200, 20
        args = dict(n=20, grad_fn=zero_grad(d), sigma=1.0, d=d, max_contributions=15)
        run_complete_sgd(T=1, eta=1.0, seeds=[1], **args)  # first-call imports and caches
        tracemalloc.start()
        try:
            run_complete_sgd(T=T, eta=np.geomspace(0.01, 1.0, B), seeds=[1, 2, 3, 4, 5] * 10, **args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < B * CHECKPOINT_EVERY * d * 8

    def test_arrays_are_read_only(self):
        res = run_complete_sgd(2, 5, constant_grad, 0.1, 0.5, d=2, seeds=[1])
        for arr in (res.models, res.iterates, res.noised, res.checkpoint_steps, res.trace.steps):
            with pytest.raises(ValueError):
                arr[0] = 0

    @pytest.mark.parametrize("kwargs", [
        dict(seeds=[]), dict(eta=0.0), dict(eta=[0.1, -1.0]), dict(sigma=-1.0), dict(T=0),
        dict(eta=[0.1, math.inf]),
    ])
    def test_invalid_arguments(self, kwargs):
        args = dict(n=2, T=5, grad_fn=constant_grad, eta=0.1, sigma=0.5, d=2, seeds=[1, 2])
        with pytest.raises(ValueError):
            run_complete_sgd(**{**args, **kwargs})


class TestProtocolResultSchedule:
    def test_arrays_are_typed_and_read_only(self):
        res = run_ring_hist(20, 3, 4, uniform_category_stream(20, 4, seed=2), 0.4, seed=1)
        assert res.noise_steps.dtype == np.int64
        assert res.noise_scales.dtype == np.float64
        assert np.all(np.diff(res.noise_steps) > 0)
        with pytest.raises(ValueError):
            res.noise_steps[0] = 1
        with pytest.raises(ValueError):
            res.noise_scales[0] = 0.0

    def test_mismatched_lengths_rejected(self):
        res = run_ring_sum(4, 2, uniform_scalar_stream(4, 1), 1.0)
        with pytest.raises(ValueError):
            dataclasses.replace(res, noise_scales=np.ones(res.noise_steps.size + 1))

    def test_output_arrays_are_read_only(self):
        res = run_ring_hist(20, 3, 4, uniform_category_stream(20, 4, seed=2), 0.4, seed=1)
        for arr in (res.output, res.pre_debias):
            assert isinstance(arr, np.ndarray)
            with pytest.raises(ValueError):
                arr[0] = 0
        assert isinstance(run_ring_sum(4, 2, uniform_scalar_stream(4, 1), 1.0).output, float)

    def test_random_response_count_is_plain_int(self):
        res = run_ring_hist(20, 3, 4, uniform_category_stream(20, 4, seed=2), 0.4, seed=1)
        assert type(res.random_response_count) is int
        assert res.random_response_count == res.init_randomized + res.noise_steps.size


def constant_grad(W, users):
    return np.ones((len(users), 2))


class TestPinnedRuns:
    """Exact outputs and noise schedules of small runs.

    The values were produced by the per-event implementation these arrays
    replaced; any change to the draw order of a stream moves them.
    """

    @staticmethod
    def check(res, payload, true_value, steps, scales):
        got = res.output
        assert (got.tolist() if isinstance(got, np.ndarray) else got) == payload
        tv = res.true_value
        assert (tv.tolist() if isinstance(tv, np.ndarray) else tv) == true_value
        assert res.noise_steps.tolist() == steps
        assert res.noise_scales.tolist() == scales

    def test_ring_sum_single_noiser(self):
        res = run_ring_sum(6, 3, uniform_scalar_stream(6, 11), 1.0, seed=5)
        self.check(res, 2.295934511539557, -2.163848472741783, [5, 10, 15], [1.0] * 3)

    def test_ring_sum_distributed(self):
        res = run_ring_sum(5, 2, uniform_scalar_stream(5, 11), 2.0, mode="distributed", seed=5)
        self.check(res, 0.917365653244911, -1.0479187990540617, list(range(1, 11)),
                   [2.0] + [0.8944271909999159] * 9)

    def test_ring_sum_laplace_protected(self):
        res = run_ring_sum(6, 3, uniform_scalar_stream(6, 11), 1.5, seed=5,
                           noise_kind="laplace", protect_first_cycle=True)
        self.check(res, -1.0272614226613164, -2.163848472741783, [1, 6, 11, 16], [1.5] * 4)

    def test_ring_sum_per_visit_table(self):
        res = run_ring_sum(5, 3, uniform_scalar_stream(5, 11, k_max=3), 1.0, seed=5)
        self.check(res, 2.845947460887868, -1.6138355233934716, [4, 8, 12], [1.0] * 3)

    def test_ring_sum_per_visit_table_distributed(self):
        res = run_ring_sum(4, 3, uniform_scalar_stream(4, 11, k_max=3), 1.0, mode="distributed", seed=5)
        self.check(res, 1.061254993683345, -0.9289585395373507, list(range(1, 13)),
                   [1.0] + [0.5] * 11)

    def test_complete_sum_gaussian(self):
        res = run_complete_sum(4, 12, uniform_scalar_stream(4, 12, k_max=12), 0.7, seed=6)
        self.check(res, -7.517539898312643, -2.3639463763963557, list(range(1, 13)), [0.7] * 12)

    def test_complete_sum_laplace(self):
        res = run_complete_sum(4, 12, uniform_scalar_stream(4, 12), 0.7, seed=6, noise_kind="laplace")
        self.check(res, 3.2102393094119344, -0.7642479756317032, list(range(1, 13)), [0.7] * 12)

    def test_ring_hist(self):
        res = run_ring_hist(6, 3, 4, uniform_category_stream(6, 4, 2), 0.4, seed=2)
        self.check(res, [5.750000000000001, 4.083333333333334, 2.416666666666667, 5.750000000000001],
                   [6, 3, 3, 6], [2, 3, 4, 5, 6, 8, 9, 11, 12, 13, 18], [0.4] * 11)
        assert res.pre_debias.tolist() == [6, 5, 4, 6]
        assert res.init_randomized == 3

    def test_ring_hist_per_visit_table(self):
        res = run_ring_hist(6, 3, 4, uniform_category_stream(6, 4, 2, k_max=3), 0.4, seed=2)
        self.check(res, [7.416666666666667, 0.75, 4.083333333333334, 5.750000000000001],
                   [8, 2, 5, 3], [2, 3, 4, 5, 6, 8, 9, 11, 12, 13, 18], [0.4] * 11)
        assert res.pre_debias.tolist() == [7, 3, 5, 6]
        assert res.init_randomized == 3

    def test_complete_hist(self):
        res = run_complete_hist(5, 15, 3, uniform_category_stream(5, 3, 3, k_max=15), 0.5, seed=4)
        self.check(res, [5.0, 7.0, 3.0], [5, 5, 5], [1, 2, 3, 5, 8, 10, 11, 14], [0.5] * 8)
        assert res.pre_debias.tolist() == [5, 6, 4]
        assert res.init_randomized == 0

    def test_complete_sgd_capped(self):
        res = run_complete_sgd(3, 10, constant_grad, 0.1, 0.5, seeds=[7], d=2,
                               max_contributions=2, noise_when_capped=False)
        assert res.models[0].tolist() == [-0.6291538748937988, -0.5300487625988829]
        assert (np.flatnonzero(res.noised[0]) + 1).tolist() == [1, 2, 3, 4, 5, 7]
