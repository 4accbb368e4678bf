import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import special

from netdp.core import PrivacyBudget
from netdp import accountant as acct, dpml
from netdp.errors import InfeasibleError
from netdp.mechanisms import calibrate_gaussian


@pytest.fixture(scope="module")
def small_data():
    return dpml.make_synthetic(n_users=20, points_per_user=8, dim=10, seed=3)


def user_data(data, u):
    idx = data.user_rows[u]
    return data.X_train[idx], data.y_train[idx]


class TestPreprocess:
    def test_rows_unit_norm(self, small_data):
        norms = np.linalg.norm(small_data.X_train, axis=1)
        assert np.all((norms > 1 - 1e-12) & (norms <= 1 + 1e-12))
        norms_test = np.linalg.norm(small_data.X_test, axis=1)
        assert np.all(norms_test <= 1 + 1e-12)

    def test_split_sizes(self):
        data = dpml.make_synthetic(n_users=10, points_per_user=8, dim=5, seed=1)
        total = len(data.y_train) + len(data.y_test)
        assert abs(len(data.y_test) - round(0.2 * total)) <= 1

    def test_synthetic_users_hold_points_per_user_rows(self):
        # the total is fixed only where the test split left the users uneven,
        # so every (n, p) pair that was right keeps its data bit for bit
        for n in range(2, 40):
            for p in range(1, 12):
                data = dpml.make_synthetic(n_users=n, points_per_user=p, dim=2, seed=n * p)
                assert [idx.size for idx in data.user_rows] == [p] * n, (n, p)
                rows = n * p
                drawn = rows + math.ceil(rows * 0.25)
                if drawn - round(0.2 * drawn) == rows:
                    assert data.y_train.size + data.y_test.size == drawn, (n, p)

    def test_partition_covers_train_rows(self, small_data):
        all_rows = np.concatenate(small_data.user_rows)
        assert len(all_rows) == len(small_data.y_train)
        assert len(np.unique(all_rows)) == len(all_rows)

    def test_paper_scale_partition(self):
        # 2000 users x 8 points per user available from the train split
        data = dpml.make_synthetic(n_users=2000, points_per_user=8, dim=5, seed=1)
        sizes = [len(rows) for rows in data.user_rows]
        assert len(sizes) == 2000
        assert min(sizes) >= 8

    def test_constant_column_dropped(self):
        rng = np.random.Generator(np.random.Philox(5))
        X = rng.normal(size=(100, 4))
        X[:, 2] = 7.0
        y = np.where(rng.random(100) < 0.5, 1.0, -1.0)
        with pytest.warns(UserWarning):
            data = dpml.preprocess(X, y, n_users=5, seed=2)
        assert data.dim == 3

    def test_nan_rejected(self):
        X = np.full((10, 2), np.nan)
        with pytest.raises(ValueError):
            dpml.preprocess(X, np.ones(10), n_users=2, seed=0)

    @pytest.mark.parametrize("X", [np.empty((30, 0)), np.full((30, 2), 4.0)],
                             ids=["no_columns", "only_constant_columns"])
    def test_no_feature_rejected(self, X):
        with pytest.raises(ValueError, match="feature"):
            dpml.preprocess(X, np.ones(30), n_users=3, seed=0)

    @pytest.mark.parametrize("n_users,points_per_user", [(0, 8), (5, 0)])
    def test_empty_synthetic_dataset_rejected_without_warnings(self, n_users, points_per_user):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning on the way to the error
            with pytest.raises(ValueError, match="train split has 0 rows"):
                dpml.make_synthetic(n_users=n_users, points_per_user=points_per_user, dim=3)

    def test_fewer_train_rows_than_users_rejected(self):
        rng = np.random.Generator(np.random.Philox(5))
        X = rng.normal(size=(10, 2))
        # 8 train rows: enough for 8 users, not for 9
        assert dpml.preprocess(X, np.ones(10), n_users=8, seed=0).n_users == 8
        with pytest.raises(ValueError, match="rows for 9 users"):
            dpml.preprocess(X, np.ones(10), n_users=9, seed=0)


class TestCsvIngestion:
    def test_round_trip(self, tmp_path):
        rng = np.random.Generator(np.random.Philox(4))
        X = rng.normal(size=(60, 3))
        y = np.where(rng.random(60) < 0.5, 1, -1)
        path = tmp_path / "data.csv"
        with open(path, "w") as fh:
            fh.write("f0,f1,f2,label\n")
            for row, label in zip(X, y):
                fh.write(",".join(str(v) for v in row) + f",{label}\n")
        data = dpml.load_csv_dataset(path, n_users=6, seed=1)
        assert data.n_users == 6
        assert data.dim == 3
        assert set(np.unique(data.y_train)) <= {-1.0, 1.0}

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            dpml.load_csv_dataset(path, n_users=2)

    def test_bad_labels_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,label\n1.0,2\n2.0,0\n")
        with pytest.raises(ValueError):
            dpml.load_csv_dataset(path, n_users=2)


class TestLogisticGrad:
    def test_zero_weights_closed_form(self, small_data):
        X, y = user_data(small_data, 0)
        got = dpml.logistic_grad(np.zeros(small_data.dim), X, y)
        np.testing.assert_allclose(got, -(X * y[:, None]).mean(axis=0) / 2, atol=1e-12)

    def test_finite_difference(self, small_data):
        X, y = user_data(small_data, 1)
        rng = np.random.Generator(np.random.Philox(7))
        w = rng.normal(size=small_data.dim)
        grad = dpml.logistic_grad(w, X, y)
        h = 1e-6
        for j in range(small_data.dim):
            e = np.zeros_like(w)
            e[j] = h
            fd = (dpml.logistic_objective(w + e, X, y) - dpml.logistic_objective(w - e, X, y)) / (2 * h)
            assert grad[j] == pytest.approx(fd, rel=1e-6, abs=1e-9)

    @staticmethod
    def sigmoid_of(margins):
        # one row x = 1 with y = 1: the gradient is -sigmoid(-margin), exactly
        margins = np.asarray(margins, dtype=float)
        ones = np.ones(margins.shape + (1,))
        return -dpml.logistic_grad(margins[:, None], ones[..., None], ones)[:, 0]

    def test_sigmoid_matches_expit(self):
        rng = np.random.Generator(np.random.Philox(4))
        margins = np.concatenate([rng.normal(0, 5, 20_000), rng.uniform(-800, 800, 20_000),
                                  np.linspace(-1e4, 1e4, 2001)])
        np.testing.assert_array_max_ulp(self.sigmoid_of(margins), special.expit(-margins), maxulp=4)

    def test_sigmoid_tails_raise_no_warning(self):
        with warnings.catch_warnings(), np.errstate(over="raise"):
            warnings.simplefilter("error")
            s = self.sigmoid_of([-1e4, 1e4])
        assert s.tolist() == [1.0, 0.0]

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), B=st.integers(1, 60), m=st.integers(1, 20),
           d=st.integers(1, 64))
    @example(seed=1, B=60, m=20, d=1)  # m >= 8 rows summed along a contiguous axis
    @example(seed=2, B=1, m=8, d=64)
    @example(seed=3, B=50, m=8, d=20)  # the benchmark's stacks
    def test_reduction_matches_mean_bitwise(self, seed, B, m, d):
        rng = np.random.Generator(np.random.Philox(seed))
        X = rng.normal(size=(B, m, d))
        X /= np.linalg.norm(X, axis=-1, keepdims=True)
        y = np.where(rng.random((B, m)) < 0.5, 1.0, -1.0)
        W = rng.normal(size=(B, d)) * rng.uniform(0.0, 10.0)
        margins = y * (X @ W[..., None])[..., 0]
        s = 1.0 / (1.0 + np.exp(margins))
        mean_form = -(X * (s * y)[..., None]).mean(axis=-2)
        got = dpml.logistic_grad(W, X, y)
        np.testing.assert_array_equal(got.view(np.int64), mean_form.view(np.int64))

    def test_lipschitz_bound(self):
        rng = np.random.Generator(np.random.Philox(9))
        for _ in range(200):
            X = rng.normal(size=(8, 6))
            X /= np.linalg.norm(X, axis=1, keepdims=True)
            y = np.where(rng.random(8) < 0.5, 1.0, -1.0)
            w = rng.normal(size=6) * rng.uniform(0, 20)
            assert np.linalg.norm(dpml.logistic_grad(w, X, y)) <= 1.0 + 1e-12


class TestCalibration:
    def test_single_release_matches_gaussian_mechanism(self):
        # cap == 1 reduces the local regime to the plain Gaussian formula
        config = dpml.TrainConfig(
            regime=dpml.LOCAL, T=10, eta=0.1,
            budget=PrivacyBudget(0.5, 1e-6), cap_multiplier=0.1,
        )
        sigma = dpml.calibrate_regime(config, n=100)
        exact = calibrate_gaussian(2.0, PrivacyBudget(0.5, 1e-6))
        assert exact <= sigma <= exact * 1.011

    def test_network_recheck_meets_target(self):
        config = dpml.TrainConfig(
            regime=dpml.NETWORK, T=2000, eta=0.1,
            budget=PrivacyBudget(1.0, 1e-6), cap_multiplier=2.0,
        )
        sigma = dpml.calibrate_regime(config, n=200)
        assert dpml.verify_privacy(config, 200, sigma) <= 1.0

    def test_centralized_recheck_meets_target(self):
        config = dpml.TrainConfig(
            regime=dpml.CENTRALIZED, T=500, eta=0.1,
            budget=PrivacyBudget(1.0, 1e-6), cap_multiplier=2.0,
        )
        sigma = dpml.calibrate_regime(config, n=100)
        assert dpml.verify_privacy(config, 100, sigma) <= 1.0

    @pytest.mark.parametrize("regime, golden", [
        (dpml.CENTRALIZED, 2.993278852861266),
        (dpml.LOCAL, 296.90797640615386),
        (dpml.NETWORK, 21.8101814029232),
    ])
    def test_golden_sigma(self, regime, golden):
        # exact grid sigmas at n=200, T=2000, eps=1, delta=1e-6, cap_multiplier=2
        config = dpml.TrainConfig(
            regime=regime, T=2000, eta=0.1,
            budget=PrivacyBudget(1.0, 1e-6), cap_multiplier=2.0,
        )
        assert dpml.calibrate_regime(config, n=200) == golden

    @pytest.mark.parametrize("regime", [dpml.LOCAL, dpml.CENTRALIZED])
    def test_infeasible_target(self, regime):
        config = dpml.TrainConfig(
            regime=regime, T=2000, eta=0.1,
            budget=PrivacyBudget(1e-9, 1e-6), cap_multiplier=2.0,
        )
        with pytest.raises(InfeasibleError) as exc:
            dpml.calibrate_regime(config, n=200)
        expected = {"regime": regime, "ceiling": float(dpml._sigma_grid()[-1])}
        if regime == dpml.CENTRALIZED:
            expected["order_cap_floor"] = math.log(1e6) / (acct.MAX_RDP_ORDER - 1)
        assert exc.value.diagnostics == expected

    def test_centralized_failure_names_the_order_cap_floor(self):
        # eps = 0.05 lies below ln(1/delta)/255 = 0.054: even the grid's
        # largest sigma leaves eps above the floor, which binds, not sigma
        config = dpml.TrainConfig(
            regime=dpml.CENTRALIZED, T=2000, eta=0.1,
            budget=PrivacyBudget(0.05, 1e-6), cap_multiplier=2.0,
        )
        with pytest.raises(InfeasibleError) as exc:
            dpml.calibrate_regime(config, n=200)
        floor = exc.value.diagnostics["order_cap_floor"]
        assert floor == pytest.approx(0.0542, abs=1e-4)
        at_ceiling = dpml.centralized_sgd_epsilon(exc.value.diagnostics["ceiling"], 2000, 200, 1e-6)
        assert 0.05 < floor <= at_ceiling < 1.01 * floor

    def test_single_release_outside_window_is_inf(self):
        # the classic Gaussian bound only holds for eps < 1
        sigma = calibrate_gaussian(2.0, PrivacyBudget(0.5, 1e-6))
        assert dpml.local_sgd_epsilon(sigma, 1, 1e-6) == pytest.approx(0.5)
        assert dpml.local_sgd_epsilon(sigma / 3.0, 1, 1e-6) == math.inf
        assert dpml.local_sgd_epsilon(1.0, 1, 1e-6) == math.inf

    def test_contribution_cap_value(self):
        assert dpml.contribution_cap(20000, 2000, 2.0) == 20
        assert dpml.contribution_cap(10, 100, 2.0) == 1


class TestCentralizedOrders:
    """eps(alpha) of the centralized regime, bisected over the integer orders."""

    @staticmethod
    def eps_by_order(sigma, T, n, delta):
        """eps at the integer orders 2..MAX_RDP_ORDER."""
        def eps_at(alpha):
            return (T * acct.sampled_gaussian_rdp(1.0 / n, sigma / dpml.GRAD_SENSITIVITY, alpha)
                    + math.log(1.0 / delta) / (alpha - 1.0))
        return np.array([eps_at(float(a)) for a in range(2, acct.MAX_RDP_ORDER + 1)])

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=5000),
        T=st.integers(min_value=1, max_value=50_000),
        delta=st.floats(min_value=1e-10, max_value=1e-2),
        data=st.data(),
    )
    def test_eps_is_unimodal_in_order(self, n, T, delta, data):
        # the order search bisects on this: eps falls, then never falls again
        grid = dpml._sigma_grid()
        sigma = float(grid[data.draw(st.integers(min_value=0, max_value=len(grid) - 1))])
        eps = self.eps_by_order(sigma, T, n, delta)
        k = int(np.argmin(eps))
        assert np.all(np.diff(eps[:k + 1]) < 0) and np.all(np.diff(eps[k:]) >= 0)
        assert dpml.centralized_sgd_epsilon(sigma, T, n, delta) == eps[k]

    def test_search_reaches_the_highest_order(self):
        # at the grid ceiling eps falls over every order up to the cap
        sigma, T, n, delta = float(dpml._sigma_grid()[-1]), 2000, 200, 1e-6
        eps = self.eps_by_order(sigma, T, n, delta)
        assert np.all(np.diff(eps) < 0) and eps[-1] < 0.2
        assert dpml.centralized_sgd_epsilon(sigma, T, n, delta) == eps[-1]

    def test_vanishing_noise_gives_infinite_eps(self):
        # every order's RDP is +inf once 2 z^2 underflows; the search still ends
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert dpml.centralized_sgd_epsilon(1e-170, 100, 50, 1e-6) == math.inf

    def test_small_eps_calibrates(self):
        # the orders 2..64 alone cannot go below ln(1e6) / 63 = 0.219
        config = dpml.TrainConfig(
            regime=dpml.CENTRALIZED, T=2000, eta=0.1,
            budget=PrivacyBudget(0.2, 1e-6), cap_multiplier=2.0,
        )
        sigma = dpml.calibrate_regime(config, n=200)
        assert dpml.verify_privacy(config, 200, sigma) <= 0.2


class TestTrain:
    def test_noiseless_objective_decreases(self, small_data):
        config = dpml.TrainConfig(
            regime=dpml.LOCAL, T=400, eta=0.5,
            budget=PrivacyBudget(1.0, 1e-6), cap_multiplier=100.0,
        )
        res = dpml.train(dpml.RegimeBatch([config], [0.0]), small_data, [(0, 5)])
        (objs,) = res.objective
        assert np.all(np.diff(objs) <= 1e-6)
        assert objs[-1] < 0.9 * objs[0]
        assert res.diverged.tolist() == [False]

    def test_deterministic_traces(self, small_data):
        config = dpml.TrainConfig(
            regime=dpml.NETWORK, T=200, eta=0.05,
            budget=PrivacyBudget(1.0, 1e-6), cap_multiplier=2.0,
        )
        batch = dpml.RegimeBatch([config], [5.0])
        a = dpml.train(batch, small_data, [(0, 9)])
        b = dpml.train(batch, small_data, [(0, 9)])
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_divergence_flagged_not_fatal(self, small_data):
        config = dpml.TrainConfig(
            regime=dpml.LOCAL, T=300, eta=2.0,
            budget=PrivacyBudget(1.0, 1e-6), cap_multiplier=100.0,
        )
        res = dpml.train(dpml.RegimeBatch([config], [300.0]), small_data, [(0, 4)])
        assert res.diverged.tolist() == [True]

    def test_one_read_only_record_in_run_order(self, small_data):
        config = dpml.TrainConfig(
            regime=dpml.NETWORK, T=150, eta=0.05,
            budget=PrivacyBudget(1.0, 1e-6), cap_multiplier=2.0,
        )
        batch = dpml.RegimeBatch([config], [5.0])
        both = dpml.train(batch, small_data, [(0, 2), (0, 7)])
        assert both.steps.tolist() == [0, 100, 150]
        assert both.objective.shape == both.accuracy.shape == (2, 3)
        assert both.models.shape == (2, small_data.dim)
        assert not any(arr.flags.writeable for arr in both)
        for b, seed in enumerate((2, 7)):
            alone = dpml.train(batch, small_data, [(0, seed)])
            np.testing.assert_array_equal(alone.steps, both.steps)
            for name in ("objective", "accuracy", "models"):
                np.testing.assert_array_equal(getattr(alone, name)[0], getattr(both, name)[b])


class TestTrainRunsDiverged:
    def test_matches_the_per_run_rule(self):
        # (initial, final) objectives around the threshold 1e3 * max(initial, 1e-12)
        at_half = dpml.DIVERGENCE_FACTOR * 0.5
        at_floor = dpml.DIVERGENCE_FACTOR * 1e-12
        cases = [
            ((0.5, at_half), False),  # exactly at the threshold
            ((0.5, np.nextafter(at_half, math.inf)), True),  # just above it
            ((0.5, math.nan), True),
            ((0.5, math.inf), True),
            ((0.5, 0.1), False),
            ((0.0, at_floor), False),  # a zero start hits the 1e-12 floor
            ((0.0, np.nextafter(at_floor, math.inf)), True),
            ((0.0, 0.0), False),
            ((math.nan, 0.1), True),
        ]
        objective = np.array([[initial, 0.3, final] for (initial, final), _ in cases])
        runs = dpml.TrainRuns(steps=np.array([0, 100, 200]), objective=objective,
                              accuracy=np.zeros_like(objective), models=np.zeros((len(cases), 2)))
        per_run_rule = [not final <= dpml.DIVERGENCE_FACTOR * max(initial, 1e-12)
                       for (initial, final), _ in cases]
        assert runs.diverged.dtype == bool
        assert runs.diverged.tolist() == per_run_rule == [flag for _, flag in cases]


class TestTuneEta:
    def test_picks_grid_value_and_is_deterministic(self, small_data):
        config = dpml.TrainConfig(
            regime=dpml.NETWORK, T=100, eta=1.0,
            budget=PrivacyBudget(1.0, 1e-6), cap_multiplier=2.0,
        )
        grid = np.geomspace(1e-3, 1e-1, 3)
        batch = dpml.RegimeBatch([config], [2.0])
        (eta1,) = dpml.tune_eta(batch, small_data, [(0, 1), (0, 2)], grid=grid)
        (eta2,) = dpml.tune_eta(batch, small_data, [(0, 1), (0, 2)], grid=grid)
        assert eta1 == eta2
        assert eta1 in grid

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_all_diverging_grid_is_infeasible(self):
        # no grid eta keeps a run finite, so there is no eta to pick
        data = dpml.make_synthetic(12, seed=1)
        config = dpml.TrainConfig(regime=dpml.NETWORK, T=150, eta=1.0, budget=PrivacyBudget(1.0, 1e-6))
        batch = dpml.RegimeBatch([config], [dpml.calibrate_regime(config, data.n_users)])
        with pytest.raises(InfeasibleError, match="finite mean objective") as info:
            dpml.tune_eta(batch, data, [(0, 1), (0, 2)], grid=[1e307, 1e308])
        assert info.value.diagnostics["etas"] == [1e307, 1e308]
        assert info.value.diagnostics["eps"] == 1.0 and "network config at eps = 1.0" in str(info.value)
        assert not np.isfinite(info.value.diagnostics["mean_objectives"]).any()
        # one finite eta is enough
        assert dpml.tune_eta(batch, data, [(0, 1), (0, 2)], grid=[1e307, 1e-2]) == [1e-2]


class TestRegimeBatch:
    def config(self, **kwargs):
        args = dict(regime=dpml.LOCAL, T=100, eta=0.1, budget=PrivacyBudget(1.0, 1e-6),
                    cap_multiplier=2.0)
        return dpml.TrainConfig(**{**args, **kwargs})

    def test_exposes_shared_T_and_cap(self):
        batch = dpml.RegimeBatch([self.config(), self.config(regime=dpml.NETWORK)], [1.0, 2.0])
        assert batch.T == 100
        assert batch.cap(20) == dpml.contribution_cap(100, 20, 2.0)
        assert batch.sigmas == (1.0, 2.0)

    @pytest.mark.parametrize("configs, sigmas", [
        ([], []),
        (["base"], [1.0, 2.0]),
        (["base", {"T": 200}], [1.0, 1.0]),
        (["base", {"cap_multiplier": 3.0}], [1.0, 1.0]),
    ], ids=["empty", "sigma_count", "mixed_T", "mixed_cap"])
    def test_rejects_invalid_batches(self, configs, sigmas):
        configs = [self.config() if c == "base" else self.config(**c) for c in configs]
        with pytest.raises(ValueError):
            dpml.RegimeBatch(configs, sigmas)

    def test_rejects_config_index_out_of_range(self, small_data):
        batch = dpml.RegimeBatch([self.config(), self.config()], [1.0, 1.0])
        for index in (2, -1):  # a negative index would otherwise wrap to the last config
            with pytest.raises(ValueError, match="config index out of range"):
                dpml.train(batch, small_data, [(0, 1), (index, 2)])
            with pytest.raises(ValueError, match="config index out of range"):
                dpml.tune_eta(batch, small_data, [(0, 1), (1, 1), (index, 2)])

    def test_tune_eta_needs_a_run_per_config(self, small_data):
        batch = dpml.RegimeBatch([self.config(), self.config()], [1.0, 1.0])
        with pytest.raises(ValueError, match="at least one tuning run"):
            dpml.tune_eta(batch, small_data, [(1, 1), (1, 2)])
