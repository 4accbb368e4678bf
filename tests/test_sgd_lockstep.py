"""The lockstep SGD kernel against the per-run loop it replaced.

``oracle_sgd`` is the one-run-at-a-time noisy SGD loop, kept here verbatim
in behaviour: one ``logistic_grad``-style call per step on the holder's own
rows and one ``normal(0, sigma, size=d)`` draw per noised step.  Every
lockstep run must reproduce it bit for bit, at every checkpoint.
"""

import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from netdp import dpml
from netdp.core import COMPLETE, STREAM_NOISE, PrivacyBudget, Topology, rng_stream, sample_walk
from netdp.protocols import CHECKPOINT_EVERY, run_complete_sgd


def oracle_grad(w, data):
    X, y = data
    margins = y * (X @ w)
    with np.errstate(over="ignore"):
        s = 1.0 / (1.0 + np.exp(margins))  # the package's sigmoid(-margins)
    return -(X * (s * y)[:, None]).mean(axis=0)


def oracle_sgd(n, T, datasets, eta, sigma, d, seed, max_contributions=None,
               noise_when_capped=True):
    """Per-run loop; returns the (T+1, d) iterates and the noised-step mask."""
    w = np.zeros(d)
    steps = sample_walk(Topology(COMPLETE, n), T, seed).steps
    rng = rng_stream(seed, STREAM_NOISE)
    iterates = np.empty((T + 1, d))
    iterates[0] = w
    contributed = np.zeros(n, dtype=np.int64)
    noised = np.zeros(T, dtype=bool)
    for t in range(1, T + 1):
        u = int(steps[t - 1])
        capped = max_contributions is not None and contributed[u - 1] >= max_contributions
        g = None
        if not capped:
            g = oracle_grad(w, datasets[u - 1])
            contributed[u - 1] += 1
        if capped and not noise_when_capped:
            iterates[t] = w
            continue
        z = rng.normal(0.0, sigma, size=d) if sigma > 0 else np.zeros(d)
        w = w - eta * (z if g is None else g + z)
        iterates[t] = w
        noised[t - 1] = sigma > 0
    return iterates, noised


def user_datasets(data):
    return [(data.X_train[idx], data.y_train[idx]) for idx in data.user_rows]


def assert_bits_equal(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))


@pytest.fixture(scope="module")
def equal_rows():
    return dpml.make_synthetic(n_users=12, points_per_user=5, dim=6, seed=8)


@pytest.fixture(scope="module")
def unequal_rows():
    rng = np.random.Generator(np.random.Philox(21))
    y = np.where(rng.random(97) < 0.5, 1.0, -1.0)
    X = rng.normal(size=(97, 10)) + 0.5 * y[:, None]
    data = dpml.preprocess(X, y, n_users=14, seed=2)
    # 5 and 6 rows: zero-padding the 5-row users to 6 rows moves bits of
    # their gemv margins on OpenBLAS, which this data catches
    assert {idx.size for idx in data.user_rows} == {5, 6}
    return data


def check_against_oracle(data, T, etas, seeds, sigma, noise_when_capped=True, **kwargs):
    """One lockstep call against the oracle run by run; ``sigma`` and
    ``noise_when_capped`` take one value or one per run."""
    runs = run_complete_sgd(
        n=data.n_users, T=T, grad_fn=dpml._batched_grad(data), eta=etas, sigma=sigma,
        d=data.dim, seeds=seeds, noise_when_capped=noise_when_capped, **kwargs,
    )
    expected_steps = list(range(0, T, CHECKPOINT_EVERY)) + [T]
    assert runs.checkpoint_steps.tolist() == expected_steps
    sigmas = np.broadcast_to(sigma, len(seeds)).tolist()
    modes = np.broadcast_to(noise_when_capped, len(seeds)).tolist()
    distinct = list(dict.fromkeys(seeds))
    noise_keys = list(dict.fromkeys(zip(seeds, sigmas, modes)))
    assert runs.trace.steps.shape == (len(distinct), T)
    assert runs.noised.shape == (len(noise_keys), T)
    for b, key in enumerate(zip(etas, seeds, sigmas, modes)):
        eta, seed, sig, mode = key
        iterates, noised = oracle_sgd(data.n_users, T, user_datasets(data), eta, sig,
                                      data.dim, seed, noise_when_capped=mode, **kwargs)
        assert_bits_equal(runs.iterates[b], iterates[expected_steps])
        assert_bits_equal(runs.models[b], iterates[-1])
        np.testing.assert_array_equal(runs.trace.steps[distinct.index(seed)],
                                      sample_walk(Topology(COMPLETE, data.n_users), T, seed).steps)
        np.testing.assert_array_equal(runs.noised[noise_keys.index((seed, sig, mode))], noised)
    return runs


class TestLockstepMatchesPerRunLoop:
    @pytest.mark.parametrize("regime, sigma", [
        (dpml.LOCAL, 3.0), (dpml.NETWORK, 0.7), (dpml.CENTRALIZED, 0.2),
    ])
    def test_regimes_with_capping(self, equal_rows, regime, sigma):
        T = 250
        cap = dpml.contribution_cap(T, equal_rows.n_users, 1.0)
        runs = check_against_oracle(
            equal_rows, T, etas=[0.05, 0.5, 0.05, 0.5, 1.3], seeds=[1, 1, 2, 2, 3],
            sigma=sigma, max_contributions=cap, noise_when_capped=regime == dpml.NETWORK,
        )
        capped = runs.noised.sum(axis=1) < T
        assert capped.any() == (regime != dpml.NETWORK)

    def test_zero_sigma(self, equal_rows):
        check_against_oracle(equal_rows, 220, etas=[0.3, 0.9], seeds=[4, 5], sigma=0.0,
                             max_contributions=15, noise_when_capped=False)

    def test_unequal_row_counts(self, unequal_rows):
        check_against_oracle(unequal_rows, 260, etas=[0.2, 0.8, 0.2], seeds=[8, 8, 9],
                             sigma=0.4, max_contributions=15, noise_when_capped=True)

    def test_single_run(self, unequal_rows):
        check_against_oracle(unequal_rows, 210, etas=[0.4], seeds=[10], sigma=0.9,
                             max_contributions=12, noise_when_capped=False)

    def test_run_does_not_depend_on_its_batch(self, equal_rows):
        args = dict(n=equal_rows.n_users, T=180, grad_fn=dpml._batched_grad(equal_rows),
                    sigma=0.6, d=equal_rows.dim, max_contributions=10)
        alone = run_complete_sgd(eta=0.4, seeds=[13], **args)
        batched = run_complete_sgd(eta=[0.1, 0.4, 0.4], seeds=[12, 13, 14], **args)
        assert_bits_equal(batched.iterates[1], alone.iterates[0])

    def test_per_run_sigma_and_noise_mode(self, equal_rows):
        # two seeds, each run under every (sigma, noise mode) pair, sigma = 0
        # included, on a walk whose cap binds: runs sharing a seed share its
        # walk but not their noise, and each draws what it draws alone
        T = 240
        cap = dpml.contribution_cap(T, equal_rows.n_users, 1.0)
        settings = [(0.7, True), (0.7, False), (2.5, True), (2.5, False), (0.0, True), (0.0, False)]
        seeds = [21] * len(settings) + [22] * len(settings)
        sigmas = [sig for sig, _ in settings] * 2
        modes = [mode for _, mode in settings] * 2
        etas = np.linspace(0.1, 0.9, len(seeds)).tolist()
        runs = check_against_oracle(equal_rows, T, etas=etas, seeds=seeds, sigma=sigmas,
                                    noise_when_capped=modes, max_contributions=cap)
        assert runs.trace.steps.shape[0] == 2
        assert runs.noised.shape[0] == len(seeds)
        capped = ~runs.noised[1]  # seed 21, sigma 0.7, no noise when capped
        assert capped.any() and runs.noised[0].all()
        assert not runs.noised[[4, 5, 10, 11]].any()

    def test_final_only_keeps_the_final_models(self, unequal_rows):
        args = dict(n=unequal_rows.n_users, T=235, grad_fn=dpml._batched_grad(unequal_rows),
                    eta=[0.3, 0.7], sigma=[0.4, 1.1], d=unequal_rows.dim, seeds=[5, 6],
                    max_contributions=14, noise_when_capped=[False, True])
        full = run_complete_sgd(**args)
        final = run_complete_sgd(final_only=True, **args)
        assert final.checkpoint_steps.tolist() == [235]
        assert final.iterates.shape == (2, 1, unequal_rows.dim)
        assert_bits_equal(final.models, full.models)
        np.testing.assert_array_equal(final.noised, full.noised)

    def test_runs_sharing_a_noise_key_share_one_row(self, equal_rows):
        runs = check_against_oracle(equal_rows, 150, etas=[0.2, 0.6, 0.2, 0.6],
                                    seeds=[3, 3, 3, 3], sigma=[0.5, 0.5, 1.5, 1.5],
                                    noise_when_capped=False, max_contributions=8)
        assert runs.trace.steps.shape[0] == 1
        assert runs.noised.shape[0] == 2


def rows_dataset(sizes, d, seed, zero_cols=0, all_negative=False):
    """A Dataset whose users hold ``sizes`` train rows, in that order; its
    first ``zero_cols`` feature columns are zero, and every label is -1
    under ``all_negative``."""
    rng = np.random.Generator(np.random.Philox(seed))
    total = int(sum(sizes))
    X = rng.normal(size=(total + 4, d))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    X[:, :zero_cols] = 0.0
    y = np.where(rng.random(total + 4) < 0.5, 1.0, -1.0)
    if all_negative:
        y[:] = -1.0
    bounds = np.cumsum([0, *sizes])
    perm = rng.permutation(total)
    user_rows = tuple(np.sort(perm[a:b]).astype(np.int64) for a, b in zip(bounds, bounds[1:]))
    return dpml.Dataset(X[:total], y[:total], X[total:], y[total:], user_rows)


class TestBatchedGrad:
    @pytest.mark.parametrize("equal", [True, False])
    @pytest.mark.parametrize("m", [1, 7, 8, 9])
    @pytest.mark.parametrize("d", [1, 2, 20])
    def test_rows_match_single_slice_calls(self, d, m, equal):
        sizes = [m] * 9 if equal else [m, m + 1, m + 2] * 3
        data = rows_dataset(sizes, d, seed=100 * d + m)
        rng = np.random.Generator(np.random.Philox(m + d))
        users = np.array([3, 1, 9, 3, 5, 2, 2, 8, 7, 6, 4, 9, 1])
        W = rng.normal(size=(users.size, d)) * 4.0
        G = dpml._batched_grad(data)(W, users)
        for b, u in enumerate(users):
            X, y = data.X_train[data.user_rows[u - 1]], data.y_train[data.user_rows[u - 1]]
            assert_bits_equal(G[b], dpml.logistic_grad(W[b], X, y))
            assert_bits_equal(G[b], oracle_grad(W[b], (X, y)))

    def test_one_feature_run_does_not_depend_on_its_batch(self):
        data = dpml.make_synthetic(n_users=12, points_per_user=8, dim=1, seed=4)
        assert data.dim == 1 and {idx.size for idx in data.user_rows} == {8}
        args = dict(n=data.n_users, T=160, grad_fn=dpml._batched_grad(data), d=1,
                    max_contributions=12)
        alone = run_complete_sgd(eta=0.7, sigma=0.3, seeds=[6], **args)
        batched = run_complete_sgd(eta=[0.2, 0.7, 0.7, 1.1], sigma=[0.3, 0.3, 0.0, 0.3],
                                   seeds=[5, 6, 6, 7], **args)
        assert_bits_equal(batched.iterates[1], alone.iterates[0])
        check_against_oracle(data, 160, etas=[0.2, 0.7, 1.1], seeds=[5, 6, 7], sigma=0.3,
                             max_contributions=12)


LN_DBL_MAX = np.log(np.finfo(float).max)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 200), m=st.integers(1, 10),
       d=st.integers(1, 25), equal=st.booleans(), zero_cols=st.integers(0, 3),
       all_negative=st.booleans(), scale=st.sampled_from([4.0, 1e4]))
@example(seed=1, k=200, m=8, d=20, equal=True, zero_cols=2, all_negative=True, scale=1e4)
@example(seed=2, k=1, m=5, d=1, equal=False, zero_cols=0, all_negative=False, scale=1e4)
@example(seed=3, k=150, m=9, d=1, equal=True, zero_cols=1, all_negative=True, scale=4.0)
def test_signed_stacks_match_logistic_grad_per_holder(seed, k, m, d, equal, zero_cols,
                                                      all_negative, scale):
    """Each row of ``_batched_grad``, which signs every user's rows once into
    a stack, equals ``logistic_grad`` and the oracle on the holder's own
    rows, sign of zero included.  All-zero feature columns with every
    y = -1 sum signed-zero terms; at scale 1e4 margins pass ln(DBL_MAX), so
    exp overflows and s = 0."""
    sizes = [m] * 9 if equal else [m, m + 1, m + 2] * 3
    data = rows_dataset(sizes, d, seed, zero_cols=zero_cols, all_negative=all_negative)
    rng = np.random.Generator(np.random.Philox(seed + 1))
    users = rng.integers(1, len(sizes) + 1, size=k)
    W = rng.normal(size=(k, d)) * scale
    with np.errstate(over="ignore"):  # the lockstep caller's scope
        G = dpml._batched_grad(data)(W, users)
    margins = []
    for b, u in enumerate(users):
        X, y = data.X_train[data.user_rows[u - 1]], data.y_train[data.user_rows[u - 1]]
        assert_bits_equal(G[b], dpml.logistic_grad(W[b], X, y))
        assert_bits_equal(G[b], oracle_grad(W[b], (X, y)))
        margins.append(np.abs(X @ W[b]).max())
    if scale == 1e4 and k >= 20 and zero_cols < d:
        assert max(margins) > LN_DBL_MAX


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 2000), d=st.integers(1, 25),
       zero_cols=st.integers(0, 3), all_negative=st.booleans(),
       scale=st.sampled_from([0.0, 4.0, 1e4, 1e300]))
@example(seed=1, rows=1600, d=20, zero_cols=2, all_negative=True, scale=0.0)
@example(seed=2, rows=7, d=1, zero_cols=1, all_negative=True, scale=4.0)
def test_train_objective_is_logistic_objective(seed, rows, d, zero_cols, all_negative, scale):
    """The checkpoint objective of ``train`` and ``tune_eta``, on rows signed
    and negated once, equals ``logistic_objective`` bit for bit: at w = 0
    every margin is a signed zero, and at scale 1e300 they dwarf ln(DBL_MAX)."""
    data = rows_dataset([rows], d, seed, zero_cols=zero_cols, all_negative=all_negative)
    rng = np.random.Generator(np.random.Philox(seed + 1))
    objective = dpml._train_objective(data)
    for w in rng.normal(size=(3, d)) * scale:
        assert_bits_equal(objective(w), dpml.logistic_objective(w, data.X_train, data.y_train))


class TestTrainAndTuneMatchPerRunLoop:
    def test_train_traces(self, unequal_rows):
        T = 130
        budget = PrivacyBudget(1.0, 1e-6)
        batch = dpml.RegimeBatch(
            [dpml.TrainConfig(regime=dpml.LOCAL, T=T, eta=0.6, budget=budget, cap_multiplier=1.5),
             dpml.TrainConfig(regime=dpml.NETWORK, T=T, eta=0.3, budget=budget, cap_multiplier=1.5)],
            [0.8, 0.5],
        )
        results = dpml.train(batch, unequal_rows, [(0, 3), (1, 4), (0, 4)])
        assert len(results) == 3
        cap = dpml.contribution_cap(T, unequal_rows.n_users, 1.5)
        cases = [(results[0], 3, 0.6, 0.8, False), (results[2], 4, 0.6, 0.8, False),
                 (results[1], 4, 0.3, 0.5, True)]
        for res, seed, eta, sigma, mode in cases:
            iterates, _ = oracle_sgd(unequal_rows.n_users, T, user_datasets(unequal_rows), eta,
                                     sigma, unequal_rows.dim, seed, max_contributions=cap,
                                     noise_when_capped=mode)
            steps = [0, 100, 130]
            assert res.sigma == sigma and res.max_contributions == cap
            assert res.objective_trace[:, 0].tolist() == steps
            assert res.objective_trace[:, 1].tolist() == [
                dpml.logistic_objective(iterates[s], unequal_rows.X_train, unequal_rows.y_train)
                for s in steps]
            assert res.accuracy_trace[:, 1].tolist() == [
                dpml.test_accuracy(iterates[s], unequal_rows.X_test, unequal_rows.y_test)
                for s in steps]
            assert_bits_equal(res.model, iterates[-1])

    @pytest.mark.parametrize("over", ["warn", "raise"])
    def test_overflowing_train_leaves_errstate_and_warns_nothing(self, equal_rows, over):
        # eta = 200 takes the iterates to |w| ~ 1e4, so the margins of later
        # steps pass ln(DBL_MAX); the lockstep call silences that overflow
        # alone and hands the caller's error state back unchanged
        T, eta, sigma = 150, 200.0, 5.0
        batch = dpml.RegimeBatch(
            [dpml.TrainConfig(regime=dpml.LOCAL, T=T, eta=eta, budget=PrivacyBudget(1.0, 1e-6))],
            [sigma],
        )
        with np.errstate(over=over), warnings.catch_warnings():
            warnings.simplefilter("error")
            state = np.geterr()
            (result,) = dpml.train(batch, equal_rows, [(0, 3)])
            assert np.geterr() == state
        cap = dpml.contribution_cap(T, equal_rows.n_users, 2.0)
        iterates, _ = oracle_sgd(equal_rows.n_users, T, user_datasets(equal_rows), eta, sigma,
                                 equal_rows.dim, 3, max_contributions=cap,
                                 noise_when_capped=False)
        assert_bits_equal(result.model, iterates[-1])
        assert np.abs(equal_rows.X_train @ iterates[:-1].T).max() > LN_DBL_MAX
        assert np.isfinite(result.final_objective)

    def test_tune_eta_picks_the_per_run_argmin(self, equal_rows):
        T = 120
        grid = np.geomspace(1e-2, 2.0, 5)
        budget = PrivacyBudget(1.0, 1e-6)
        # the last config's first seed alone would pick another eta than the
        # mean over its seeds, so a scorer reading only first runs fails here
        cases = [(dpml.NETWORK, 0.5, [1, 2, 3]), (dpml.LOCAL, 1.5, [2, 4]),
                 (dpml.CENTRALIZED, 0.1, [1, 2, 3]), (dpml.NETWORK, 0.5, [4, 1, 2])]
        batch = dpml.RegimeBatch(
            [dpml.TrainConfig(regime=regime, T=T, eta=1.0, budget=budget, cap_multiplier=2.0)
             for regime, _, _ in cases],
            [sigma for _, sigma, _ in cases],
        )
        cap = dpml.contribution_cap(T, equal_rows.n_users, 2.0)
        expected, first_only = [], []
        for regime, sigma, seeds in cases:
            means, firsts = [], []
            for eta in grid:
                finals = [
                    dpml.logistic_objective(
                        oracle_sgd(equal_rows.n_users, T, user_datasets(equal_rows), float(eta),
                                   sigma, equal_rows.dim, s, max_contributions=cap,
                                   noise_when_capped=regime == dpml.NETWORK)[0][-1],
                        equal_rows.X_train, equal_rows.y_train)
                    for s in seeds
                ]
                means.append(float(np.mean(finals)))
                firsts.append(finals[0])
            expected.append(float(grid[int(np.argmin(means))]))
            first_only.append(float(grid[int(np.argmin(firsts))]))
        assert first_only[-1] != expected[-1]
        # the configs' runs interleave; each config is scored on its own, in seed order
        seeds = [seeds for _, _, seeds in cases]
        runs = [(i, s) for j in range(3) for i in range(len(cases)) for s in seeds[i][j:j + 1]]
        assert dpml.tune_eta(batch, equal_rows, runs, grid=grid) == expected
        for i in range(len(cases)):  # one config alone picks what it picks in the batch
            alone = dpml.RegimeBatch([batch.configs[i]], [batch.sigmas[i]])
            runs = [(0, s) for s in seeds[i]]
            assert dpml.tune_eta(alone, equal_rows, runs, grid=grid) == [expected[i]]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), k=st.integers(0, 40), d=st.integers(1, 30),
       sigma=st.floats(1e-3, 1e3))
def test_block_normal_draw_equals_per_step_draws(seed, k, d, sigma):
    """The kernel's (k, d) noise block consumes the Philox stream exactly as
    k per-step ``size=d`` draws do."""
    block = rng_stream(seed, STREAM_NOISE).normal(0.0, sigma, size=(k, d))
    rng = rng_stream(seed, STREAM_NOISE)
    per_step = np.array([rng.normal(0.0, sigma, size=d) for _ in range(k)]).reshape(k, d)
    assert_bits_equal(block, per_step)


LAYOUTS = {  # the same (k, m, d) values under other memory orders
    "C": lambda A: A,
    "visit-major": lambda A: np.ascontiguousarray(np.swapaxes(A, 0, 1)).swapaxes(0, 1),
    "feature-major": lambda A: np.ascontiguousarray(np.moveaxis(A, -1, 0)).transpose(1, 2, 0),
    "F": np.asfortranarray,
}


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 200), m=st.integers(1, 12),
       d=st.integers(1, 25), zero_cols=st.integers(0, 3), all_negative=st.booleans(),
       scale=st.sampled_from([10.0, 1e4]), layout=st.sampled_from(sorted(LAYOUTS)))
@example(seed=1, k=200, m=8, d=20, zero_cols=2, all_negative=True, scale=10.0, layout="C")
@example(seed=2, k=7, m=9, d=1, zero_cols=0, all_negative=False, scale=1e4, layout="F")
@example(seed=3, k=150, m=8, d=20, zero_cols=0, all_negative=False, scale=10.0,
         layout="feature-major")  # rows have the smallest stride: einsum would sum them innermost
def test_stacked_logistic_grad_is_bitwise_per_slice(seed, k, m, d, zero_cols, all_negative,
                                                    scale, layout):
    """Each slice of a stacked call, in any memory layout, equals the oracle on
    that user's own C-contiguous rows, sign of zero included.  All-zero
    feature columns sum signed-zero terms; at scale 1e4 nearly half the
    margins pass ln(DBL_MAX), so exp overflows and s = 0."""
    rng = np.random.Generator(np.random.Philox(seed))
    X = rng.normal(size=(k, m, d))
    X /= np.linalg.norm(X, axis=-1, keepdims=True)
    X[..., :zero_cols] = 0.0
    y = -np.ones((k, m)) if all_negative else np.where(rng.random((k, m)) < 0.5, 1.0, -1.0)
    W = rng.normal(size=(k, d)) * rng.uniform(0.0, scale)
    Xl, yl = LAYOUTS[layout](X), LAYOUTS[layout](y[..., None])[..., 0]
    assert np.array_equal(Xl, X) and np.array_equal(yl, y)
    G = dpml.logistic_grad(W, Xl, yl)
    for j in range(k):
        assert_bits_equal(G[j], oracle_grad(W[j], (X[j], y[j])))
        assert_bits_equal(dpml.logistic_grad(W[j], Xl[j], yl[j]), G[j])


def test_row_sum_does_not_fuse_multiply_add():
    """``logistic_grad``'s d > 1 row sum (its einsum) must round each row's
    product before adding it, as ``.mean(axis=-2)`` does.  a*b = 1 - 2**-60
    rounds to 1, so the second row cancels the first to 0; a fused
    multiply-add keeps -2**-60."""
    a, b = 1 + 2.0**-30, 1 - 2.0**-30
    assert Fraction(a) * Fraction(b) - 1 == Fraction(-1, 2**60)
    for stack in [(), (3,), (150,)]:  # one slice and stacks
        X = np.broadcast_to([[-1.0, -1.0], [a, a]], (*stack, 2, 2)).copy()
        weights = np.broadcast_to([1.0, b], (*stack, 2)).copy()
        got = np.einsum("...ij,...i->...j", X, weights)
        assert np.array_equal(got, np.zeros((*stack, 2))), (
            "numpy's einsum fuses its multiply-add on this build (got "
            f"{got.min()!r}, FMA gives {-2.0**-60!r}): logistic_grad's rows no longer sum "
            "as .mean(axis=-2) does, so gradients and the replay digests move")
