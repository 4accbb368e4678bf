import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from netdp.core import COMPLETE, RING, Topology, Walks, sample_walks
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
        res = run_ring_sum(10, 4, stream, sigma_loc=0.0, seeds=[5])
        assert float(res.outputs[0]) == pytest.approx(res.true_values[0], abs=1e-12)
        assert res.true_values[0] == pytest.approx(4 * np.sum(stream))

    def test_noise_event_count_and_spacing(self):
        res = run_ring_sum(100, 10, uniform_scalar_stream(100, 1), 1.0, seeds=[2])
        steps = res.noise_steps(0)
        assert steps.size == 10
        assert np.all(np.diff(steps) == 99)
        assert np.all(res.scales[steps - 1] == 1.0)

    def test_structural_audit_default_schedule(self):
        res = run_ring_sum(20, 5, uniform_scalar_stream(20, 1), 1.0, seeds=[2])
        assert audit_ring_sum_structure(20, res.trace.row(0), res.noise_steps(0), require_other_noiser=True) == 0

    def test_structural_audit_protected_schedule(self):
        res = run_ring_sum(20, 5, uniform_scalar_stream(20, 1), 1.0, seeds=[2],
                           protect_first_cycle=True)
        assert audit_ring_sum_structure(20, res.trace.row(0), res.noise_steps(0), require_other_noiser=True) == 0

    def test_monte_carlo_stddev(self):
        # smaller sibling of the acceptance run: 2e4 runs, 5% tolerance
        stream = uniform_scalar_stream(100, seed=9)
        outs = run_ring_sum(100, 10, stream, 1.0, seeds=range(20_000)).outputs
        assert outs.std(ddof=1) == pytest.approx(math.sqrt(10), rel=0.05)
        assert outs.mean() == pytest.approx(float(10 * np.sum(stream)), abs=0.1)

    def test_distributed_mode_schedule(self):
        n, K = 100, 10
        res = run_ring_sum(n, K, uniform_scalar_stream(n, 1), 2.0, mode="distributed", seeds=[3])
        assert res.noise_steps(0).size == K * n
        assert res.scales[0] == 2.0
        assert res.scales[1] == pytest.approx(2.0 / math.sqrt(n))

    def test_distributed_mode_stddev(self):
        # total noise std sqrt(floor(Kn/(n-1)) + 1) sigma up to a 1/n term
        stream = uniform_scalar_stream(100, seed=9)
        outs = run_ring_sum(100, 10, stream, 1.0, mode="distributed", seeds=range(20_000)).outputs
        assert outs.std(ddof=1) == pytest.approx(math.sqrt(11), rel=0.05)

    def test_purity(self):
        stream = uniform_scalar_stream(10, seed=3)
        a = run_ring_sum(10, 2, stream, 1.0, seeds=[7])
        b = run_ring_sum(10, 2, stream, 1.0, seeds=[7])
        assert float(a.outputs[0]) == float(b.outputs[0])

    def test_laplace_noise_kind(self):
        stream = uniform_scalar_stream(50, seed=3)
        outs = run_ring_sum(50, 4, stream, 1.0, seeds=range(4000), noise_kind="laplace").outputs
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


def audit_loop(n, steps, noise_steps, require_other_noiser=True):
    """Reference window-by-window audit the vectorized one must reproduce."""
    K = steps.size // n
    violations = 0
    for p in range(1, n + 1):
        for i in range(1, K):
            lo = p + (i - 1) * n
            hi = p - 1 + i * n
            window = (noise_steps >= lo) & (noise_steps <= hi)
            own = np.sum(steps[lo - 1 : hi] == p)
            ok = window.any() and own <= 1
            if ok and require_other_noiser:
                positions = (noise_steps[window] - 1) % n + 1
                ok = bool(np.any(positions != p))
            violations += not ok
    return violations


class TestAuditRingSumStructure:
    CASES = [(2, 3), (5, 1), (7, 4), (20, 5)]

    @pytest.mark.parametrize("n,K", CASES)
    @pytest.mark.parametrize("require", [True, False])
    def test_default_schedules_match_loop(self, n, K, require):
        stream = uniform_scalar_stream(n, 1)
        for kwargs in ({}, {"protect_first_cycle": True}, {"mode": "distributed"}):
            res = run_ring_sum(n, K, stream, 1.0, seeds=[2], **kwargs)
            args = (n, res.trace.row(0), res.noise_steps(0), require)
            assert audit_ring_sum_structure(*args) == audit_loop(*args) == 0

    @pytest.mark.parametrize("n,K", CASES)
    @pytest.mark.parametrize("require", [True, False])
    def test_removed_noise_events_match_loop(self, n, K, require):
        res = run_ring_sum(n, K, uniform_scalar_stream(n, 1), 1.0, seeds=[2], mode="distributed")
        noise_steps = res.noise_steps(0)
        rng = np.random.Generator(np.random.Philox(n * K))
        found = 0
        for frac in (0.0, 0.5, 0.9, 0.97):
            keep = rng.random(noise_steps.size) >= frac
            args = (n, res.trace.row(0), noise_steps[keep], require)
            got = audit_ring_sum_structure(*args)
            assert got == audit_loop(*args)
            found += got
        assert found > 0 or K == 1

    def test_only_own_noise_is_flagged(self):
        # keep only steps 1, n + 1, 2n + 1, ...: each holder-1 window has
        # noise, but all of it is user 1's own
        n, K = 6, 4
        res = run_ring_sum(n, K, uniform_scalar_stream(n, 1), 1.0, seeds=[2], mode="distributed")
        noise_steps = res.noise_steps(0)
        thinned = (n, res.trace.row(0), noise_steps[(noise_steps - 1) % n == 0])
        assert audit_ring_sum_structure(*thinned, False) == audit_loop(*thinned, False)
        assert audit_ring_sum_structure(*thinned, True) == audit_loop(*thinned, True) > 0

    @pytest.mark.parametrize("require", [True, False])
    def test_repeated_holders_match_loop(self, require):
        # a complete-graph trace repeats holders inside a window
        n, K = 5, 6
        res = run_ring_sum(n, K, uniform_scalar_stream(n, 1), 1.0, seeds=[2])
        for seed in range(5):
            mixed = (n, sample_walks(Topology(COMPLETE, n), K * n, [seed]).row(0), res.noise_steps(0), require)
            assert audit_ring_sum_structure(*mixed) == audit_loop(*mixed)


class TestRunRingHist:
    def test_gamma_zero_exact(self):
        stream = uniform_category_stream(50, 4, seed=2)
        res = run_ring_hist(50, 3, 4, stream, gamma=0.0, seeds=[1])
        np.testing.assert_allclose(res.outputs[0], res.true_values[0])
        assert res.response_counts[0] == 0  # no init block, no flips

    def test_gamma_one_rejected(self):
        stream = uniform_category_stream(50, 4, seed=2)
        with pytest.raises(ValueError):
            run_ring_hist(50, 3, 4, stream, gamma=1.0)

    def test_pre_debias_counts_are_nonnegative_integers(self):
        stream = uniform_category_stream(50, 4, seed=2)
        res = run_ring_hist(50, 3, 4, stream, gamma=0.4, seeds=[1])
        counts = res.pre_debias[0]
        assert counts.dtype.kind == "i"
        assert np.all(counts >= 0)
        assert counts.sum() == 50 * 3 + math.ceil(0.4 * 50)

    def test_debias_unbiased_small_monte_carlo(self):
        n, K, L, gamma, runs = 200, 5, 5, 0.3, 2000
        stream = uniform_category_stream(n, L, seed=8)
        errors = (run_ring_hist(n, K, L, stream, gamma, seeds=range(runs)).outputs
                  - np.bincount(np.repeat(stream - 1, K), minlength=L))
        se = errors.std(axis=0, ddof=1) / math.sqrt(runs)
        assert np.all(np.abs(errors.mean(axis=0)) < 4 * se)

    def test_random_response_count_mean(self):
        n, K, L, gamma, runs = 500, 4, 5, 0.3, 500
        stream = uniform_category_stream(n, L, seed=8)
        counts = run_ring_hist(n, K, L, stream, gamma, seeds=range(runs)).response_counts
        assert np.mean(counts) == pytest.approx(gamma * n * (K + 1), rel=0.02)

    @pytest.mark.parametrize("table", [[1, 2, 0, 3], [1, 2, 5, 3], [[1, 2], [3, 1], [2, 9], [1, 1]]],
                             ids=["below", "above", "per_visit"])
    def test_out_of_domain_table_rejected(self, table):
        with pytest.raises(ValueError, match="outside domain"):
            run_ring_hist(4, 2, 4, np.array(table), 0.3, seeds=[1, 2])


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
        steps = sample_walks(Topology(RING, n), K * n, [0]).row(0)
        assert occurrence_index(steps).tolist() == np.repeat(np.arange(K), n).tolist()


class TestUniformTables:
    @pytest.mark.parametrize("clip", [-1.0, math.nan, math.inf])
    def test_clip_outside_range_rejected(self, clip):
        # numpy's own messages were `high - low < 0` and an OverflowError
        with pytest.raises(ValueError, match=r"clip must be in \[0, inf\), got"):
            uniform_scalar_stream(5, 0, clip=clip)

    @pytest.mark.parametrize("build", [lambda n: uniform_scalar_stream(n, 0),
                                       lambda n: uniform_category_stream(n, 4, 0, k_max=2)],
                             ids=["scalar", "category"])
    def test_negative_user_count_rejected(self, build):
        with pytest.raises(ValueError, match="n must be >= 0, got -1"):
            build(-1)
        assert build(0).shape[0] == 0

    def test_zero_clip_gives_zeros(self):
        assert uniform_scalar_stream(4, 0, clip=0.0).tolist() == [0.0] * 4


class TestRunCompleteSum:
    def test_noiseless_exact(self):
        stream = uniform_scalar_stream(20, seed=4)
        res = run_complete_sum(20, 500, stream, sigma_loc=0.0, seeds=[6])
        assert float(res.outputs[0]) == pytest.approx(res.true_values[0], abs=1e-12)

    def test_single_user_structure(self):
        res = run_complete_sum(1, 7, np.array([0.25]), 0.0, seeds=[1])
        assert res.trace.row(0).tolist() == [1] * 7
        assert res.true_values[0] == pytest.approx(7 * 0.25)
        assert res.noise_steps(0).size == 7

    def test_monte_carlo_stddev(self):
        stream = uniform_scalar_stream(50, seed=4)
        noisy = run_complete_sum(50, 400, stream, 1.0, seeds=range(5000))
        errs = noisy.outputs - run_complete_sum(50, 400, stream, 0.0, seeds=range(5000)).true_values
        assert errs.std(ddof=1) == pytest.approx(math.sqrt(400), rel=0.05)

    def test_contributions_clipped(self):
        res = run_complete_sum(5, 50, np.full(5, 10.0), 0.0, seeds=[1], clip=1.0)
        assert res.true_values[0] == pytest.approx(50 * 0.5)

    def test_negative_clip_rejected(self):
        # np.clip with its lower bound above the upper one would set every entry to -0.5
        table = np.full(10, -0.5)
        for run in (run_complete_sum, run_ring_sum):
            with pytest.raises(ValueError, match="sensitivity must be >= 0, got -1.0"):
                run(10, 5 if run is run_ring_sum else 50, table, 1.0, seeds=[1, 2], clip=-1.0)


class TestRunCompleteHist:
    @pytest.mark.parametrize("domain_size", [0, -1])
    def test_empty_category_domain_rejected(self, domain_size):
        with pytest.raises(ValueError, match="domain_size must be >= 1"):
            uniform_category_stream(5, domain_size, seed=0)

    def test_gamma_zero_exact(self):
        stream = uniform_category_stream(30, 6, seed=5)
        res = run_complete_hist(30, 200, 6, stream, gamma=0.0, seeds=[3])
        np.testing.assert_allclose(res.outputs[0], res.true_values[0])

    def test_random_response_count_mean(self):
        n, T, L, gamma, runs = 100, 2000, 5, 0.3, 500
        stream = uniform_category_stream(n, L, seed=8)
        counts = run_complete_hist(n, T, L, stream, gamma, seeds=range(runs)).response_counts
        assert np.mean(counts) == pytest.approx(gamma * T, rel=0.02)

    def test_debias_unbiased_small_monte_carlo(self):
        n, T, L, gamma, runs = 100, 1000, 4, 0.25, 2000
        stream = uniform_category_stream(n, L, seed=8)
        res = run_complete_hist(n, T, L, stream, gamma, seeds=range(runs))
        errors = res.outputs - res.true_values
        se = errors.std(axis=0, ddof=1) / math.sqrt(runs)
        assert np.all(np.abs(errors.mean(axis=0)) < 4 * se)

    @pytest.mark.parametrize("table", [[1, 2, 0], [1, 2, 4], [[1, 2], [3, 1], [2, 4]]],
                             ids=["below", "above", "per_visit"])
    def test_out_of_domain_table_rejected(self, table):
        # an entry outside [1, L] is rejected even if no walk would visit it
        with pytest.raises(ValueError, match="outside domain"):
            run_complete_hist(3, 2, 3, np.array(table), 0.3, seeds=[1, 2])


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
        res = run_ring_hist(20, 3, 4, uniform_category_stream(20, 4, seed=2), 0.4, seeds=[1])
        assert res.noise_steps(0).dtype == np.int64
        assert res.noised.dtype == bool and res.noised.shape == (1, 60)
        assert res.scales.dtype == np.float64 and res.scales.shape == (60,)
        assert np.all(np.diff(res.noise_steps(0)) > 0)
        with pytest.raises(ValueError):
            res.noised[0, 0] = True
        with pytest.raises(ValueError):
            res.scales[0] = 0.0

    def test_output_arrays_are_read_only(self):
        res = run_ring_hist(20, 3, 4, uniform_category_stream(20, 4, seed=2), 0.4, seeds=[1, 2])
        for arr in (res.outputs, res.pre_debias, res.true_values, res.response_counts, res.trace.steps):
            assert isinstance(arr, np.ndarray)
            with pytest.raises(ValueError):
                arr[0] = 0
        sums = run_ring_sum(4, 2, uniform_scalar_stream(4, 1), 1.0, seeds=[1, 2])
        assert sums.outputs.dtype == np.float64 and sums.outputs.shape == (2,)
        assert sums.pre_debias is None

    def test_response_counts_are_int64(self):
        res = run_ring_hist(20, 3, 4, uniform_category_stream(20, 4, seed=2), 0.4, seeds=[1, 2])
        assert res.response_counts.dtype == np.int64
        for r in range(2):
            assert res.response_counts[r] == math.ceil(0.4 * 20) + res.noise_steps(r).size


def assert_run_is_single_call(batch, r, single):
    """Run r of ``batch`` equals the one-seed call ``single``, bit for bit."""
    pairs = [(batch.outputs[r], single.outputs[0]), (batch.true_values[r], single.true_values[0]),
             (batch.response_counts[r], single.response_counts[0]), (batch.trace.row(r), single.trace.row(0)),
             (batch.noise_steps(r), single.noise_steps(0)), (batch.scales, single.scales)]
    if single.pre_debias is not None:
        pairs.append((batch.pre_debias[r], single.pre_debias[0]))
    for got, want in pairs:
        got, want = np.asarray(got), np.asarray(want)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


# small seeds repeat within a list, large ones reach the top of the uint64 range
SEED_LISTS = st.lists(st.one_of(st.integers(0, 3), st.integers(0, 2**64 - 1)), min_size=1, max_size=6)


class TestSeedLists:
    """A call on a seed list makes the runs the one-seed calls make."""

    @given(seeds=SEED_LISTS, n=st.integers(2, 6), K=st.integers(1, 4), per_visit=st.booleans(),
           mode=st.sampled_from(["single_noiser", "distributed"]), protect=st.booleans(),
           noise_kind=st.sampled_from(["gaussian", "laplace"]), sigma=st.sampled_from([0.0, 0.7]))
    def test_ring_sum(self, seeds, n, K, per_visit, mode, protect, noise_kind, sigma):
        table = uniform_scalar_stream(n, 11, clip=1.5, k_max=K if per_visit else None)
        args = dict(n=n, K=K, table=table, sigma_loc=sigma, mode=mode, noise_kind=noise_kind,
                    protect_first_cycle=protect)
        batch = run_ring_sum(**args, seeds=seeds)
        assert batch.trace.steps.shape == batch.noised.shape == (1, K * n)
        for r, seed in enumerate(seeds):
            assert_run_is_single_call(batch, r, run_ring_sum(**args, seeds=[seed]))

    @given(seeds=SEED_LISTS, n=st.integers(1, 6), T=st.integers(1, 30), per_visit=st.booleans(),
           noise_kind=st.sampled_from(["gaussian", "laplace"]), sigma=st.sampled_from([0.0, 0.7]))
    def test_complete_sum(self, seeds, n, T, per_visit, noise_kind, sigma):
        table = uniform_scalar_stream(n, 12, clip=1.5, k_max=T if per_visit else None)
        args = dict(n=n, T=T, table=table, sigma_loc=sigma, noise_kind=noise_kind, clip=0.8)
        batch = run_complete_sum(**args, seeds=seeds)
        assert batch.trace.steps.shape == (len(seeds), T) and batch.noised.shape == (1, T)
        for r, seed in enumerate(seeds):
            assert_run_is_single_call(batch, r, run_complete_sum(**args, seeds=[seed]))

    @given(seeds=SEED_LISTS, n=st.integers(2, 6), K=st.integers(1, 4), L=st.integers(2, 5),
           per_visit=st.booleans(), gamma=st.sampled_from([0.0, 0.4, 0.9]))
    def test_ring_hist(self, seeds, n, K, L, per_visit, gamma):
        table = uniform_category_stream(n, L, 13, k_max=K if per_visit else None)
        args = dict(n=n, K=K, domain_size=L, table=table, gamma=gamma)
        batch = run_ring_hist(**args, seeds=seeds)
        assert batch.trace.steps.shape == (1, K * n) and batch.noised.shape == (len(seeds), K * n)
        for r, seed in enumerate(seeds):
            assert_run_is_single_call(batch, r, run_ring_hist(**args, seeds=[seed]))

    @given(seeds=SEED_LISTS, n=st.integers(1, 6), T=st.integers(1, 30), L=st.integers(2, 5),
           per_visit=st.booleans(), gamma=st.sampled_from([0.0, 0.4, 0.9]))
    def test_complete_hist(self, seeds, n, T, L, per_visit, gamma):
        table = uniform_category_stream(n, L, 14, k_max=T if per_visit else None)
        args = dict(n=n, T=T, domain_size=L, table=table, gamma=gamma)
        batch = run_complete_hist(**args, seeds=seeds)
        assert batch.trace.steps.shape == batch.noised.shape == (len(seeds), T)
        for r, seed in enumerate(seeds):
            assert_run_is_single_call(batch, r, run_complete_hist(**args, seeds=[seed]))

    CALLS = {
        "ring_sum": lambda **kw: run_ring_sum(**{**dict(n=4, K=2, table=np.zeros(4), sigma_loc=1.0), **kw}),
        "complete_sum": lambda **kw: run_complete_sum(**{**dict(n=4, T=8, table=np.zeros(4), sigma_loc=1.0), **kw}),
        "ring_hist": lambda **kw: run_ring_hist(**{**dict(n=4, K=2, domain_size=3, table=np.ones(4, dtype=int),
                                                          gamma=0.3), **kw}),
        "complete_hist": lambda **kw: run_complete_hist(**{**dict(n=4, T=8, domain_size=3,
                                                                  table=np.ones(4, dtype=int), gamma=0.3), **kw}),
        "complete_sgd": lambda **kw: run_complete_sgd(**{**dict(n=4, T=8, grad_fn=constant_grad, eta=0.1, sigma=1.0,
                                                                d=2), **kw}),
    }
    WALK_LENGTHS = [("ring_sum", dict(K=3), 12), ("complete_sum", dict(T=10), 10), ("ring_hist", dict(K=3), 12),
                    ("complete_hist", dict(T=10), 10), ("complete_sgd", dict(T=10), 10)]

    @pytest.mark.parametrize("name,kwargs,T", WALK_LENGTHS, ids=[name for name, _, _ in WALK_LENGTHS])
    def test_trace_holds_the_walks_asked_for(self, name, kwargs, T):
        # step counters, such as the benchmark tracer's, read ``result.trace.T`` off every run_* call
        res = self.CALLS[name](seeds=[1, 2], **kwargs)
        assert type(res.trace) is Walks and res.trace.T == T
        assert res.trace.steps.shape == (1 if name.startswith("ring") else 2, T)
    BAD = [("ring_sum", dict(seeds=[])), ("ring_sum", dict(sigma_loc=-1.0)), ("ring_sum", dict(mode="triple")),
           ("ring_sum", dict(n=1)), ("ring_sum", dict(K=0)),
           ("complete_sum", dict(seeds=[])), ("complete_sum", dict(sigma_loc=-0.5)), ("complete_sum", dict(n=0)),
           ("complete_sum", dict(T=0)),
           ("ring_hist", dict(seeds=[])), ("ring_hist", dict(gamma=1.0)), ("ring_hist", dict(gamma=-0.1)),
           ("ring_hist", dict(n=1)), ("ring_hist", dict(K=0)),
           ("complete_hist", dict(seeds=[])), ("complete_hist", dict(gamma=1.0)), ("complete_hist", dict(n=0)),
           ("complete_hist", dict(T=0))]

    @pytest.mark.parametrize("name,kwargs", BAD, ids=[f"{n}-{sorted(k)[0]}={list(k.values())[0]}" for n, k in BAD])
    def test_invalid_arguments(self, name, kwargs):
        # checked once per call, so a multi-seed call rejects what a one-seed call does
        with pytest.raises(ValueError):
            self.CALLS[name](**{"seeds": [1, 2], **kwargs})


def constant_grad(W, users):
    return np.ones((len(users), 2))


class TestPinnedRuns:
    """Exact outputs and noise schedules of small runs.

    The values were produced by the per-event implementation these arrays
    replaced; any change to the draw order of a stream moves them.
    """

    @staticmethod
    def check(res, payload, true_value, steps, scales):
        assert res.outputs[0].tolist() == payload
        assert res.true_values[0].tolist() == true_value
        assert res.noise_steps(0).tolist() == steps
        assert res.scales[res.noise_steps(0) - 1].tolist() == scales

    def test_ring_sum_single_noiser(self):
        res = run_ring_sum(6, 3, uniform_scalar_stream(6, 11), 1.0, seeds=[5])
        self.check(res, 2.374718672655794, 1.5041025145855267, [5, 10, 15], [1.0] * 3)

    def test_ring_sum_distributed(self):
        res = run_ring_sum(5, 2, uniform_scalar_stream(5, 11), 2.0, mode="distributed", seeds=[5])
        self.check(res, 1.3807314220639275, 0.5947728056932395, list(range(1, 11)),
                   [2.0] + [0.8944271909999159] * 9)

    def test_ring_sum_laplace_protected(self):
        res = run_ring_sum(6, 3, uniform_scalar_stream(6, 11), 1.5, seeds=[5],
                           noise_kind="laplace", protect_first_cycle=True)
        self.check(res, 4.653835308379986, 1.5041025145855267, [1, 6, 11, 16], [1.5] * 4)

    def test_ring_sum_per_visit_table(self):
        res = run_ring_sum(5, 3, uniform_scalar_stream(5, 11, k_max=3), 1.0, seeds=[5])
        self.check(res, 2.034779355592831, 1.1641631975225637, [4, 8, 12], [1.0] * 3)

    def test_ring_sum_per_visit_table_distributed(self):
        res = run_ring_sum(4, 3, uniform_scalar_stream(4, 11, k_max=3), 1.0, mode="distributed", seeds=[5])
        self.check(res, 2.059109310524417, 1.7269813219461745, list(range(1, 13)),
                   [1.0] + [0.5] * 11)

    def test_complete_sum_gaussian(self):
        res = run_complete_sum(4, 12, uniform_scalar_stream(4, 12, k_max=12), 0.7, seeds=[6])
        self.check(res, -1.8497277776236096, -0.842292915229674, list(range(1, 13)), [0.7] * 12)

    def test_complete_sum_laplace(self):
        res = run_complete_sum(4, 12, uniform_scalar_stream(4, 12), 0.7, seeds=[6], noise_kind="laplace")
        self.check(res, -4.20288859433963, 1.3876748362366267, list(range(1, 13)), [0.7] * 12)

    def test_ring_hist(self):
        res = run_ring_hist(6, 3, 4, uniform_category_stream(6, 4, 2), 0.4, seeds=[2])
        self.check(res, [-0.9166666666666667, 17.416666666666668, 2.416666666666667, -0.9166666666666667],
                   [0, 12, 3, 3], [2, 5, 7, 9, 15, 16, 17, 18], [0.4] * 8)
        assert res.pre_debias[0].tolist() == [2, 13, 4, 2]
        assert res.response_counts[0] == 3 + 8

    def test_ring_hist_per_visit_table(self):
        res = run_ring_hist(6, 3, 4, uniform_category_stream(6, 4, 2, k_max=3), 0.4, seeds=[2])
        self.check(res, [2.416666666666667, 9.083333333333334, 2.416666666666667, 4.083333333333334],
                   [2, 5, 5, 6], [2, 5, 7, 9, 15, 16, 17, 18], [0.4] * 8)
        assert res.pre_debias[0].tolist() == [4, 8, 4, 5]
        assert res.response_counts[0] == 3 + 8

    def test_complete_hist(self):
        res = run_complete_hist(5, 15, 3, uniform_category_stream(5, 3, 3, k_max=15), 0.5, seeds=[4])
        self.check(res, [-3.0, 13.0, 5.0], [2, 7, 6], [3, 6, 7, 8], [0.5] * 4)
        assert res.pre_debias[0].tolist() == [1, 9, 5]
        assert res.response_counts[0] == 4

    def test_complete_sgd_capped(self):
        res = run_complete_sgd(3, 10, constant_grad, 0.1, 0.5, seeds=[7], d=2,
                               max_contributions=2, noise_when_capped=False)
        assert res.models[0].tolist() == [-0.6639023811310293, -0.5022336880107299]
        assert (np.flatnonzero(res.noised[0]) + 1).tolist() == [1, 2, 3, 4, 6, 8]
