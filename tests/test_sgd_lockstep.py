"""The lockstep SGD kernel against the per-run loop it replaced.

``oracle_sgd`` is the one-run-at-a-time noisy projected SGD loop, kept here
verbatim in behaviour: one ``logistic_grad``-style call per step on the
holder's own rows, one ``normal(0, sigma, size=d)`` draw per noised step
and an ``np.linalg.norm`` projection.  Every lockstep run must reproduce it
bit for bit, at every checkpoint.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netdp import dpml
from netdp.core import COMPLETE, STREAM_NOISE, PrivacyBudget, Topology, rng_stream, sample_walk
from netdp.protocols import CHECKPOINT_EVERY, run_complete_sgd


def oracle_grad(w, data):
    X, y = data
    margins = y * (X @ w)
    with np.errstate(over="ignore"):
        s = 1.0 / (1.0 + np.exp(margins))  # the package's sigmoid(-margins)
    return -(X * (s * y)[:, None]).mean(axis=0)


def oracle_sgd(n, T, datasets, eta, sigma, d, seed, projection_radius=None,
               max_contributions=None, noise_when_capped=True):
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
        if projection_radius is not None:
            norm = float(np.linalg.norm(w))
            if norm > projection_radius:
                w = w * (projection_radius / norm)
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


def check_against_oracle(data, T, etas, seeds, sigma, **kwargs):
    runs = run_complete_sgd(
        n=data.n_users, T=T, grad_fn=dpml._batched_grad(data), eta=etas, sigma=sigma,
        d=data.dim, seeds=seeds, **kwargs,
    )
    expected_steps = list(range(0, T, CHECKPOINT_EVERY)) + [T]
    assert runs.checkpoint_steps.tolist() == expected_steps
    distinct = list(dict.fromkeys(seeds))
    assert runs.noised.shape == runs.trace.steps.shape == (len(distinct), T)
    for b, (eta, seed) in enumerate(zip(etas, seeds)):
        iterates, noised = oracle_sgd(data.n_users, T, user_datasets(data), eta, sigma,
                                      data.dim, seed, **kwargs)
        assert_bits_equal(runs.iterates[b], iterates[expected_steps])
        assert_bits_equal(runs.models[b], iterates[-1])
        np.testing.assert_array_equal(runs.noised[distinct.index(seed)], noised)
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

    def test_projection_radius(self, equal_rows):
        runs = check_against_oracle(equal_rows, 230, etas=[0.5, 2.0, 2.0], seeds=[6, 6, 7],
                                    sigma=1.5, projection_radius=0.3)
        assert np.all(np.linalg.norm(runs.models, axis=1) <= 0.3 + 1e-12)

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


class TestTrainAndTuneMatchPerRunLoop:
    def test_train_traces(self, unequal_rows):
        T = 130
        config = dpml.TrainConfig(regime=dpml.LOCAL, T=T, eta=0.6,
                                  budget=PrivacyBudget(1.0, 1e-6), cap_multiplier=1.5)
        results = dpml.train(config, unequal_rows, seeds=[3, 4], sigma=0.8)
        cap = dpml.contribution_cap(T, unequal_rows.n_users, 1.5)
        for res, seed in zip(results, (3, 4)):
            iterates, _ = oracle_sgd(unequal_rows.n_users, T, user_datasets(unequal_rows), 0.6,
                                     0.8, unequal_rows.dim, seed, max_contributions=cap,
                                     noise_when_capped=False)
            steps = [0, 100, 130]
            assert res.objective_trace[:, 0].tolist() == steps
            assert res.objective_trace[:, 1].tolist() == [
                dpml.logistic_objective(iterates[s], unequal_rows.X_train, unequal_rows.y_train)
                for s in steps]
            assert res.accuracy_trace[:, 1].tolist() == [
                dpml.test_accuracy(iterates[s], unequal_rows.X_test, unequal_rows.y_test)
                for s in steps]
            assert_bits_equal(res.model, iterates[-1])

    def test_tune_eta_picks_the_per_run_argmin(self, equal_rows):
        T, sigma, seeds = 120, 0.5, [1, 2, 3]
        grid = np.geomspace(1e-2, 2.0, 5)
        config = dpml.TrainConfig(regime=dpml.NETWORK, T=T, eta=1.0,
                                  budget=PrivacyBudget(1.0, 1e-6), cap_multiplier=2.0)
        cap = dpml.contribution_cap(T, equal_rows.n_users, 2.0)
        means = []
        for eta in grid:
            finals = [
                dpml.logistic_objective(
                    oracle_sgd(equal_rows.n_users, T, user_datasets(equal_rows), float(eta), sigma,
                               equal_rows.dim, s, max_contributions=cap)[0][-1],
                    equal_rows.X_train, equal_rows.y_train)
                for s in seeds
            ]
            means.append(float(np.mean(finals)))
        expected = float(grid[int(np.argmin(means))])
        assert dpml.tune_eta(config, equal_rows, sigma, seeds=seeds, grid=grid) == expected


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


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 20), m=st.integers(1, 12),
       d=st.integers(1, 25))
def test_stacked_logistic_grad_is_bitwise_per_slice(seed, k, m, d):
    rng = np.random.Generator(np.random.Philox(seed))
    X = rng.normal(size=(k, m, d))
    X /= np.linalg.norm(X, axis=-1, keepdims=True)
    y = np.where(rng.random((k, m)) < 0.5, 1.0, -1.0)
    W = rng.normal(size=(k, d)) * rng.uniform(0.0, 10.0)
    G = dpml.logistic_grad(W, X, y)
    for j in range(k):
        assert_bits_equal(G[j], oracle_grad(W[j], (X[j], y[j])))
        assert_bits_equal(dpml.logistic_grad(W[j], X[j], y[j]), G[j])

