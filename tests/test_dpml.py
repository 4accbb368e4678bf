import math
import warnings

import numpy as np
import pytest

from netdp.core import PrivacyBudget
from netdp import dpml
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
        assert exc.value.diagnostics == {"regime": regime, "ceiling": float(dpml._sigma_grid()[-1])}

    def test_single_release_outside_window_is_inf(self):
        # the classic Gaussian bound only holds for eps < 1
        sigma = calibrate_gaussian(2.0, PrivacyBudget(0.5, 1e-6))
        assert dpml.local_sgd_epsilon(sigma, 1, 1e-6) == pytest.approx(0.5)
        assert dpml.local_sgd_epsilon(sigma / 3.0, 1, 1e-6) == math.inf
        assert dpml.local_sgd_epsilon(1.0, 1, 1e-6) == math.inf

    def test_contribution_cap_value(self):
        assert dpml.contribution_cap(20000, 2000, 2.0) == 20
        assert dpml.contribution_cap(10, 100, 2.0) == 1


class TestTrain:
    def test_noiseless_objective_decreases(self, small_data):
        config = dpml.TrainConfig(
            regime=dpml.LOCAL, T=400, eta=0.5,
            budget=PrivacyBudget(1.0, 1e-6), cap_multiplier=100.0,
        )
        (res,) = dpml.train(config, small_data, seeds=[5], sigma=0.0)
        objs = res.objective_trace[:, 1]
        assert np.all(np.diff(objs) <= 1e-6)
        assert res.final_objective < 0.9 * objs[0]
        assert not res.diverged

    def test_deterministic_traces(self, small_data):
        config = dpml.TrainConfig(
            regime=dpml.NETWORK, T=200, eta=0.05,
            budget=PrivacyBudget(1.0, 1e-6), cap_multiplier=2.0,
        )
        (a,) = dpml.train(config, small_data, seeds=[9], sigma=5.0)
        (b,) = dpml.train(config, small_data, seeds=[9], sigma=5.0)
        np.testing.assert_array_equal(a.objective_trace, b.objective_trace)
        np.testing.assert_array_equal(a.model, b.model)

    def test_divergence_flagged_not_fatal(self, small_data):
        config = dpml.TrainConfig(
            regime=dpml.LOCAL, T=300, eta=2.0,
            budget=PrivacyBudget(1.0, 1e-6), cap_multiplier=100.0,
        )
        (res,) = dpml.train(config, small_data, seeds=[4], sigma=300.0)
        assert res.diverged

    def test_trace_csv(self, small_data, tmp_path):
        config = dpml.TrainConfig(
            regime=dpml.LOCAL, T=100, eta=0.1,
            budget=PrivacyBudget(1.0, 1e-6), cap_multiplier=2.0,
        )
        (res,) = dpml.train(config, small_data, seeds=[1], sigma=1.0)
        path = tmp_path / "trace.csv"
        dpml.write_trace_csv(path, res.objective_trace[:, 0], res.objective_trace[:, 1],
                             res.accuracy_trace[:, 1])
        lines = path.read_text().splitlines()
        assert lines[0] == "step,objective,test_accuracy"
        assert len(lines) == len(res.objective_trace) + 1


class TestTuneEta:
    def test_picks_grid_value_and_is_deterministic(self, small_data):
        config = dpml.TrainConfig(
            regime=dpml.NETWORK, T=100, eta=1.0,
            budget=PrivacyBudget(1.0, 1e-6), cap_multiplier=2.0,
        )
        grid = np.geomspace(1e-3, 1e-1, 3)
        eta1 = dpml.tune_eta(config, small_data, sigma=2.0, seeds=[1, 2], grid=grid)
        eta2 = dpml.tune_eta(config, small_data, sigma=2.0, seeds=[1, 2], grid=grid)
        assert eta1 == eta2
        assert eta1 in grid
