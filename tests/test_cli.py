import csv
import io
import json
import math
import warnings

import numpy as np
import pytest

from netdp import dpml, empirical as emp
from netdp.cli import main, parse_config, split_delta_budget
from netdp.core import COMPLETE, Topology, derive_seed, sample_walks


def write_config(tmp_path, text, name="conf.txt"):
    path = tmp_path / name
    path.write_text(text)
    return path


def run_cli(*args):
    return main([str(a) for a in args])


def results_files(out, experiment, pattern="results.csv"):
    return sorted((out / experiment).glob(f"*/{pattern}"))


def run_dirs(out):
    return sorted(out.glob("*/*"))


class TestConfigParsing:
    def test_types(self, tmp_path):
        path = write_config(
            tmp_path,
            """
            # comment line
            n = 100
            eps0 = 0.5   # trailing comment
            flag = true
            grid = 10,20,30
            name = synthetic
            """,
        )
        config = parse_config(path)
        assert config == {
            "n": 100, "eps0": 0.5, "flag": True,
            "grid": [10, 20, 30], "name": "synthetic",
        }

    def test_malformed_line(self, tmp_path):
        path = write_config(tmp_path, "just a line without equals\n")
        with pytest.raises(ValueError):
            parse_config(path)

    def test_delta_split_spends_thirds(self):
        total, n, T = 3e-3, 100, 10**4
        d0, dp, dh = split_delta_budget(total, n, T)
        assert dp == dh == pytest.approx(total / 3)
        from netdp.accountant import chernoff_visit_bound
        cycles = chernoff_visit_bound(T, 1 / n, dh) + T / n
        assert d0 * cycles == pytest.approx(total / 3)


class TestBoundsSweep:
    def test_columns_and_crossover(self, tmp_path):
        config = write_config(tmp_path, "n_grid = 20,100\neps0 = 0.5\n")
        out = tmp_path / "out"
        assert run_cli("--experiment", "bounds_sweep", "--config", config, "--out", out) == 0
        (csv_path,) = results_files(out, "bounds_sweep")
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "n,network_eps,local_eps,network_fixed_eps,local_fixed_eps,unchecked"
        for line in lines[1:]:
            parts = line.split(",")
            assert float(parts[1]) < float(parts[2])  # network beats local for n >= 20
        meta = json.loads((csv_path.parent / "meta.json").read_text())
        assert meta["experiment"] == "bounds_sweep"

    def test_empty_grid_is_invalid(self, tmp_path):
        config = write_config(tmp_path, "eps0 = 0.5\n")
        out = tmp_path / "out"
        code = run_cli("--experiment", "bounds_sweep", "--config", config,
                       "--out", out, "--set", "n_grid=")
        assert code == 2

    @pytest.mark.parametrize("key", ["delta_prime", "delta_hat"])
    def test_composition_delta_without_delta0_exits_2(self, tmp_path, capsys, key):
        # without delta0 the bounds split total_delta, so the given value would go unused
        out = tmp_path / "out"
        assert run_cli("--experiment", "bounds_sweep", "--out", out, "--set", "n_grid=20",
                       "--set", f"{key}=2e-3") == 2
        assert f"{key} is read only when delta0 is set" in capsys.readouterr().err
        assert run_dirs(out) == []
        assert run_cli("--experiment", "bounds_sweep", "--out", out, "--set", "n_grid=20",
                       "--set", f"{key}=2e-3", "--set", "delta0=1e-8") == 0

    def test_deterministic_output(self, tmp_path):
        config = write_config(tmp_path, "n_grid = 20,50\neps0 = 1.0\n")
        out = tmp_path / "out"
        assert run_cli("--experiment", "bounds_sweep", "--config", config, "--out", out, "--seed", 3) == 0
        assert run_cli("--experiment", "bounds_sweep", "--config", config, "--out", out, "--seed", 3) == 0
        a, b = results_files(out, "bounds_sweep")
        assert a.read_bytes() == b.read_bytes()


class TestEmpiricalSweep:
    def test_single_run_collapses_stats(self, tmp_path):
        config = write_config(tmp_path, "n_grid = 15\neps0 = 0.5\nt_factor = 20\n")
        out = tmp_path / "out"
        assert run_cli("--experiment", "empirical_sweep", "--config", config,
                       "--out", out, "--runs", 1) == 0
        (csv_path,) = results_files(out, "empirical_sweep")
        header, row = csv_path.read_text().splitlines()
        assert header == "n,mean,min,max"
        _, mean, lo, hi = row.split(",")
        assert float(lo) <= float(mean) <= float(hi)

    def test_meta_records_max_cycles_per_n(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("--experiment", "empirical_sweep", "--out", out, "--runs", 3, "--seed", 11,
                       "--set", "n_grid=12,15", "--set", "t_factor=10") == 0
        (csv_path,) = results_files(out, "empirical_sweep")
        meta = json.loads((csv_path.parent / "meta.json").read_text())
        want = {
            str(n): max(
                emp.empirical_pair_loss_sum(
                    sample_walks(Topology(COMPLETE, n), 10 * n, [derive_seed(11, n, r)]), 0.5, 1e-7, 1e-3
                ).meta["max_cycles"]
                for r in range(3)
            )
            for n in (12, 15)
        }
        assert meta["max_cycles"] == want
        assert all(type(c) is int and c >= 1 for c in want.values())
        assert "max_cycles" not in csv_path.read_text()

    def test_seed_replay_bit_identical(self, tmp_path):
        config = write_config(tmp_path, "n_grid = 12,15\neps0 = 0.5\nt_factor = 10\n")
        out = tmp_path / "out"
        for _ in range(2):
            assert run_cli("--experiment", "empirical_sweep", "--config", config,
                           "--out", out, "--runs", 3, "--seed", 11) == 0
        a, b = results_files(out, "empirical_sweep")
        assert a.read_bytes() == b.read_bytes()

    def test_workers_do_not_change_results(self, tmp_path):
        config = write_config(tmp_path, "n_grid = 12\neps0 = 0.5\nt_factor = 10\n")
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert run_cli("--experiment", "empirical_sweep", "--config", config,
                       "--out", out1, "--runs", 4, "--seed", 5) == 0
        assert run_cli("--experiment", "empirical_sweep", "--config", config,
                       "--out", out2, "--runs", 4, "--seed", 5, "--workers", 2) == 0
        (a,) = results_files(out1, "empirical_sweep")
        (b,) = results_files(out2, "empirical_sweep")
        assert a.read_bytes() == b.read_bytes()

    def test_pool_size_capped_by_task_count(self, tmp_path, monkeypatch):
        import concurrent.futures

        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        # the CLI imports the pool class only when it runs more than one worker
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        config = write_config(tmp_path, "n_grid = 12\neps0 = 0.5\nt_factor = 10\n")
        assert run_cli("--experiment", "empirical_sweep", "--config", config,
                       "--out", tmp_path / "out", "--runs", 2, "--workers", 64) == 0
        assert sizes == [2]

    @pytest.mark.parametrize("delta_prime", [0, 1, 2])
    def test_delta_prime_outside_unit_interval_rejected_before_sampling(
            self, tmp_path, monkeypatch, capsys, delta_prime):
        import netdp.cli as cli

        def no_walks(*args):
            raise AssertionError("a walk was sampled")

        monkeypatch.setattr(cli, "sample_walks", no_walks)
        config = write_config(tmp_path, f"n_grid = 12\nt_factor = 10\ndelta_prime = {delta_prime}\n")
        assert run_cli("--experiment", "empirical_sweep", "--config", config,
                       "--out", tmp_path / "out", "--runs", 1) == 2
        assert "delta_prime must be in (0, 1)" in capsys.readouterr().err


class TestProtocolMc:
    def test_empty_category_domain_names_the_key(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("--experiment", "protocol_mc", "--out", out, "--runs", 2,
                       "--set", "protocols=complete_hist", "--set", "n=6", "--set", "T=12",
                       "--set", "domain_size=0") == 2
        assert "domain_size must be >= 1, got 0" in capsys.readouterr().err
        assert run_dirs(out) == []

    def test_negative_clip_names_the_key(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("--experiment", "protocol_mc", "--out", out, "--runs", 2,
                       "--set", "n=6", "--set", "clip=-1") == 2
        assert "clip must be in [0, inf), got -1.0" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_runs_invalid(self, tmp_path):
        config = write_config(tmp_path, "protocols = ring_sum\nn = 10\nK = 2\n")
        assert run_cli("--experiment", "protocol_mc", "--config", config,
                       "--out", tmp_path / "out", "--runs", 0) == 2

    def test_noiseless_sanity_row(self, tmp_path):
        config = write_config(
            tmp_path, "protocols = ring_sum\nn = 10\nK = 2\nsigma_loc = 0\n"
        )
        out = tmp_path / "out"
        assert run_cli("--experiment", "protocol_mc", "--config", config,
                       "--out", out, "--runs", 5) == 0
        (csv_path,) = results_files(out, "protocol_mc")
        header, row = csv_path.read_text().splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        assert float(cols["std_error"]) == 0.0
        assert float(cols["expected_std"]) == 0.0

    def test_hist_row_reports_counts(self, tmp_path):
        config = write_config(
            tmp_path,
            "protocols = complete_hist\nn = 50\nT = 500\ngamma = 0.3\ndomain_size = 4\n",
        )
        out = tmp_path / "out"
        assert run_cli("--experiment", "protocol_mc", "--config", config,
                       "--out", out, "--runs", 50) == 0
        (csv_path,) = results_files(out, "protocol_mc")
        header, row = csv_path.read_text().splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        assert float(cols["rr_expected"]) == pytest.approx(0.3 * 500)
        assert float(cols["rr_mean"]) == pytest.approx(150, rel=0.1)


    @pytest.mark.parametrize("mode,ring_sum_std", [
        ("single_noiser", "2.598076211353316"), ("distributed", "2.9459415181858972"),
    ])
    def test_expected_moments_pinned(self, tmp_path, mode, ring_sum_std):
        # (steps, expected_std, rr_expected) per protocol, as the rows carry them
        out = tmp_path / "out"
        assert run_cli("--experiment", "protocol_mc", "--out", out, "--runs", 3, "--seed", 2,
                       "--set", "protocols=ring_sum,complete_sum,ring_hist,complete_hist",
                       "--set", "n=7", "--set", "K=3", "--set", "T=30", "--set", "sigma_loc=1.5",
                       "--set", "gamma=0.3", "--set", "domain_size=3", "--set", f"mode={mode}") == 0
        (csv_path,) = results_files(out, "protocol_mc")
        header, *rows = csv_path.read_text().splitlines()
        cols = header.split(",")
        got = {r["protocol"]: (r["steps"], r["expected_std"], r["rr_expected"])
               for r in (dict(zip(cols, row.split(","))) for row in rows)}
        assert got == {
            "ring_sum": ("21", ring_sum_std, ""),
            "complete_sum": ("30", "8.215838362577491", ""),
            "ring_hist": ("21", "", "9.3"),
            "complete_hist": ("30", "", "9.0"),
        }

    def test_seeds_apart_by_2_pow_32_differ(self, tmp_path):
        digests = []
        for seed in (1, 2**32 + 1):
            out = tmp_path / f"out{seed}"
            assert run_cli("--experiment", "protocol_mc", "--out", out, "--runs", 3, "--seed", seed,
                           "--set", "n=6", "--set", "K=2", "--set", "T=12") == 0
            (csv_path,) = results_files(out, "protocol_mc")
            digests.append(csv_path.read_bytes())
        assert digests[0] != digests[1]

    @pytest.mark.parametrize("how", ["flag", "config"])
    def test_negative_seed_exits_2(self, tmp_path, how, capsys):
        seed = ["--seed", -1] if how == "flag" else ["--set", "seed=-1"]
        assert run_cli("--experiment", "protocol_mc", "--out", tmp_path / "out", "--runs", 2,
                       *seed, "--set", "n=5", "--set", "K=2") == 2
        assert "seed must be in [0, inf), got -1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_run_seeds_are_exact_ints(self, tmp_path, monkeypatch):
        import zlib

        from netdp import cli

        seen = []
        real_batch = cli._protocol_batch

        def recording_batch(args):
            seen.extend(args[2])
            return real_batch(args)

        monkeypatch.setattr(cli, "_protocol_batch", recording_batch)
        tag = zlib.crc32(b"ring_sum") & 0xFFFF
        # a seed of 2**32 or more, and 10**4 seeds derived in one call
        for seed, runs in [(1, 20), (2**32 + 1, 20), (1, 10**4)]:
            seen.clear()
            assert run_cli("--experiment", "protocol_mc", "--out", tmp_path / f"out{seed}-{runs}",
                           "--runs", runs, "--seed", seed, "--set", "protocols=ring_sum", "--set", "n=5",
                           "--set", "K=2") == 0
            assert seen == [derive_seed(seed, tag, r) for r in range(runs)]
            assert all(type(s) is int for s in seen)
            assert any(s >= 2**63 for s in seen)  # where float64 would round

    def test_unknown_protocol_rejected_before_any_run(self, tmp_path, monkeypatch):
        import netdp.protocols as proto

        calls = []
        monkeypatch.setattr(proto, "run_ring_sum", lambda *a, **k: calls.append(a))
        code = run_cli("--experiment", "protocol_mc", "--out", tmp_path / "out", "--runs", 2,
                       "--set", "protocols=ring_sum,ring_summ", "--set", "n=5", "--set", "K=2")
        assert code == 2
        assert calls == []
        assert results_files(tmp_path / "out", "protocol_mc") == []


class TestSgdCompare:
    def test_small_run_emits_rows_and_traces(self, tmp_path):
        config = write_config(
            tmp_path,
            "dataset = synthetic\nn = 20\npoints_per_user = 8\ndim = 5\n"
            "T = 60\neps = 10\ndelta = 1e-6\neta = 0.05\n",
        )
        out = tmp_path / "out"
        assert run_cli("--experiment", "sgd_compare", "--config", config,
                       "--out", out, "--runs", 2) == 0
        (csv_path,) = results_files(out, "sgd_compare")
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("regime,eps,sigma,eta,mean_final_objective")
        assert len(lines) == 1 + 3  # one row per regime
        traces = sorted(csv_path.parent.glob("trace_*.csv"))
        assert len(traces) == 3

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_non_finite_objectives_count_as_diverged(self, tmp_path):
        # eta = 1e308 sends every iterate to inf, then nan: a nan final
        # objective fails every comparison, so it must count as diverged,
        # and a nan model predicts nothing, so its accuracy is nan too
        out = tmp_path / "out"
        assert run_cli("--experiment", "sgd_compare", "--out", out, "--set", "eta=1e308",
                       "--set", "n=12", "--set", "T=150", "--runs", 2) == 0
        (csv_path,) = results_files(out, "sgd_compare")
        rows = list(csv.DictReader(io.StringIO(csv_path.read_text())))
        assert len(rows) == 6
        for row in rows:
            assert not np.isfinite(float(row["mean_final_objective"]))
            assert math.isnan(float(row["mean_final_accuracy"]))
            assert row["diverged_runs"] == "2"

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_all_diverging_eta_grid_exits_3(self, tmp_path, monkeypatch, capsys):
        tune_eta = dpml.tune_eta
        monkeypatch.setattr(dpml, "tune_eta", lambda *args: tune_eta(*args, grid=[1e307, 1e308]))
        out = tmp_path / "out"
        assert run_cli("--experiment", "sgd_compare", "--out", out, "--set", "eps=1",
                       "--set", "n=12", "--set", "T=150", "--set", "tune_seeds=2") == 3
        err = capsys.readouterr().err
        assert "finite mean objective" in err and "config at eps = 1.0 " in err and "'eps': 1.0" in err
        assert not out.exists()

    def test_real_dataset_requires_path(self, tmp_path):
        config = write_config(tmp_path, "dataset = real\nn = 10\nT = 50\neps = 10\n")
        assert run_cli("--experiment", "sgd_compare", "--config", config,
                       "--out", tmp_path / "out") == 2

    @pytest.mark.parametrize("content", ["", "f0,f1,label\n"], ids=["empty", "header_only"])
    def test_dataset_without_rows_is_invalid(self, tmp_path, content):
        data = tmp_path / "data.csv"
        data.write_text(content)
        config = write_config(
            tmp_path, f"dataset = real\ndataset_path = {data}\nn = 10\nT = 50\neps = 10\n"
        )
        assert run_cli("--experiment", "sgd_compare", "--config", config,
                       "--out", tmp_path / "out") == 2

    def test_dataset_without_features_is_invalid(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("label\n" + "1\n-1\n" * 5)
        config = write_config(
            tmp_path, f"dataset = real\ndataset_path = {data}\nn = 2\nT = 50\neps = 10\n"
        )
        assert run_cli("--experiment", "sgd_compare", "--config", config,
                       "--out", tmp_path / "out") == 2

    @pytest.mark.parametrize("bad", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("row", [0, 8], ids=["train_row", "test_row"])
    def test_dataset_with_non_finite_feature_is_invalid(self, tmp_path, capsys, bad, row):
        # seed 0 holds out rows 8 and 2 of 10 for the test split
        rows = [[f"{v}.5", f"{(3 * v) % 7}.25", str(1 - 2 * (v % 2))] for v in range(10)]
        rows[row][1] = bad
        data = tmp_path / "data.csv"
        data.write_text("f0,f1,label\n" + "".join(",".join(r) + "\n" for r in rows))
        with pytest.raises(ValueError, match="features must be finite"):
            dpml.load_csv_dataset(data, n_users=2)
        config = write_config(
            tmp_path, f"dataset = real\ndataset_path = {data}\nn = 2\nT = 50\neps = 10\n"
        )
        assert run_cli("--experiment", "sgd_compare", "--config", config,
                       "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert "features must be finite" in err and "constant feature" not in err
        assert not (tmp_path / "out").exists()

    def test_dataset_with_fewer_rows_than_users_is_invalid(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("f0,label\n" + "".join(f"{v}.5,{1 - 2 * (v % 2)}\n" for v in range(5)))
        config = write_config(
            tmp_path, f"dataset = real\ndataset_path = {data}\nn = 10\nT = 50\neps = 10\n"
        )
        assert run_cli("--experiment", "sgd_compare", "--config", config,
                       "--out", tmp_path / "out") == 2

    @pytest.mark.parametrize("tune_seeds", [0, -1])
    def test_eta_search_without_seeds_is_invalid(self, tmp_path, tune_seeds, capsys):
        config = write_config(
            tmp_path, f"dataset = synthetic\nn = 10\nT = 50\neps = 10\ntune_seeds = {tune_seeds}\n"
        )
        assert run_cli("--experiment", "sgd_compare", "--config", config,
                       "--out", tmp_path / "out") == 2
        assert "tune_seeds must be >= 1" in capsys.readouterr().err
        assert results_files(tmp_path / "out", "sgd_compare") == []

    def test_infeasible_target_exits_before_training(self, tmp_path, capsys):
        # centralized eps = 0.05 lies below its floor ln(1/delta)/255 = 0.054;
        # every (eps, regime) pair is calibrated before the first run
        config = write_config(
            tmp_path,
            "dataset = synthetic\nn = 10\npoints_per_user = 4\ndim = 3\n"
            "T = 40\neps = 1,0.05\ndelta = 1e-6\ntune_seeds = 1\n",
        )
        out = tmp_path / "out"
        assert run_cli("--experiment", "sgd_compare", "--config", config,
                       "--out", out, "--runs", 2) == 3
        assert "infeasible target" in capsys.readouterr().err
        assert list(out.glob("sgd_compare/*/trace_*.csv")) == []
        assert results_files(out, "sgd_compare") == []

    @pytest.mark.parametrize("eps", ["1,1", "1,1.0004", "1234567,1234568"],
                             ids=["equal", "same_seed_key", "same_file_name"])
    def test_colliding_eps_values_rejected_before_calibration(self, tmp_path, monkeypatch,
                                                               capsys, eps):
        # 1 and 1.0004 share int(eps * 1000), hence their seeds; 1234567 and
        # 1234568 share eps:g ("1.23457e+06"), hence their trace files
        def no_calibration(*args):
            raise AssertionError("a regime was calibrated")

        monkeypatch.setattr(dpml, "calibrate_regime", no_calibration)
        out = tmp_path / "out"
        assert run_cli("--experiment", "sgd_compare", "--out", out, "--set", "n=10",
                       "--set", "T=40", "--set", f"eps={eps}") == 2
        assert "must differ" in capsys.readouterr().err
        assert run_dirs(out) == []

    def test_failed_run_leaves_no_run_directory(self, tmp_path, capsys):
        # the centralized regime cannot reach eps = 0.05 at n = 200 (its
        # order-cap floor is 0.054), so the run exits 3 after calibrating
        out = tmp_path / "out"
        assert run_cli("--experiment", "sgd_compare", "--out", out, "--set", "n=200",
                       "--set", "T=2000", "--set", "eps=1.0,0.05") == 3
        err = capsys.readouterr().err
        assert "regime centralized" in err and "order_cap_floor" in err
        assert run_dirs(out) == []

    @pytest.mark.parametrize("dataset", ["synthetic", "unequal_csv"])
    def test_output_independent_of_workers(self, tmp_path, dataset):
        # every (eps, regime) pair shares one eta-search batch and one replica
        # batch, split across the workers; each run depends on its own config,
        # sigma and seed only, so the files match byte for byte, and match a
        # reference that trains one regime per public dpml call
        n, T, runs, seed, tune_seeds = 12, 120, 3, 5, 2
        text = f"n = {n}\nT = {T}\neps = 1,10\ndelta = 1e-6\ntune_seeds = {tune_seeds}\n"
        if dataset == "synthetic":
            text += "dataset = synthetic\npoints_per_user = 4\ndim = 3\n"
            data = dpml.make_synthetic(n_users=n, points_per_user=4, dim=3,
                                       seed=derive_seed(seed, 0xDA7A))
        else:
            rng = np.random.Generator(np.random.Philox(6))
            path = tmp_path / "data.csv"
            # 67 rows leave 54 train rows: 4 or 5 per user
            rows = [f"{a},{b},{1 if a + b > 0 else -1}"
                    for a, b in rng.normal(size=(67, 2)).tolist()]
            path.write_text("f0,f1,label\n" + "\n".join(rows) + "\n")
            text += f"dataset = real\ndataset_path = {path}\n"
            data = dpml.load_csv_dataset(path, n_users=n, seed=seed)
        config = write_config(tmp_path, text)
        files = {}
        for workers in (1, 2):
            out = tmp_path / f"out{workers}"
            assert run_cli("--experiment", "sgd_compare", "--config", config, "--out", out,
                           "--runs", runs, "--workers", workers, "--seed", seed) == 0
            (run_dir,) = (out / "sgd_compare").iterdir()
            files[workers] = {p.name: p.read_bytes() for p in sorted(run_dir.glob("*.csv"))}
        assert len(files[1]) == 7  # results.csv and one trace per (eps, regime)
        assert files[1] == files[2]

        reference_rows = [["regime", "eps", "sigma", "eta", "mean_final_objective",
                           "std_final_objective", "mean_final_accuracy", "diverged_runs"]]
        for eps in (1.0, 10.0):
            for regime in (dpml.LOCAL, dpml.NETWORK, dpml.CENTRALIZED):
                config = dpml.TrainConfig(regime=regime, T=T, eta=1.0,
                                          budget=dpml.PrivacyBudget(eps, 1e-6))
                sigma = dpml.calibrate_regime(config, n)
                (eta,) = dpml.tune_eta(
                    dpml.RegimeBatch([config], [sigma]), data,
                    [(0, derive_seed(seed, int(eps * 1000), 0xE7A, i)) for i in range(tune_seeds)],
                )
                res = dpml.train(
                    dpml.RegimeBatch([config.replace(eta=eta)], [sigma]), data,
                    [(0, derive_seed(seed, int(eps * 1000), r)) for r in range(runs)],
                )
                finals = np.array(res.objective[:, -1].tolist())
                reference_rows.append([
                    regime, repr(eps), repr(sigma), repr(eta), repr(float(finals.mean())),
                    repr(float(finals.std(ddof=1))),
                    repr(float(np.mean(res.accuracy[:, -1].tolist()))),
                    str(int(res.diverged.sum())),
                ])
                trace = io.StringIO()
                writer = csv.writer(trace)
                writer.writerow(["step", "objective", "test_accuracy"])
                for step, obj, acc in zip(res.steps, np.mean(res.objective.tolist(), axis=0),
                                          np.mean(res.accuracy.tolist(), axis=0)):
                    writer.writerow([int(step), repr(float(obj)), repr(float(acc))])
                assert files[1][f"trace_{regime}_eps{eps:g}.csv"] == trace.getvalue().encode()
        assert list(csv.reader(io.StringIO(files[1]["results.csv"].decode()))) == reference_rows


class TestSigmaSearch:
    def test_json_payload(self, tmp_path):
        config = write_config(tmp_path, "eps = 1.0\ndelta = 1e-6\nT_u = 10\nn = 500\n")
        out = tmp_path / "out"
        assert run_cli("--experiment", "sigma_search", "--config", config, "--out", out) == 0
        (json_path,) = results_files(out, "sigma_search", "results.json")
        payload = json.loads(json_path.read_text())
        assert set(payload) == {"sigma_min", "alpha_used", "recheck_eps"}
        assert payload["recheck_eps"] <= 1.0

    def test_monotone_in_target(self, tmp_path):
        sigmas = []
        for eps in (0.5, 2.0):
            config = write_config(tmp_path, f"eps = {eps}\ndelta = 1e-6\nT_u = 10\nn = 500\n",
                                  name=f"conf{eps}.txt")
            out = tmp_path / f"out{eps}"
            assert run_cli("--experiment", "sigma_search", "--config", config, "--out", out) == 0
            (json_path,) = results_files(out, "sigma_search", "results.json")
            sigmas.append(json.loads(json_path.read_text())["sigma_min"])
        assert sigmas[1] <= sigmas[0]

    def test_infeasible_exit_code_and_error_json(self, tmp_path):
        config = write_config(
            tmp_path, "eps = 1e-9\ndelta = 1e-6\nT_u = 1e9\nn = 2\n"
        )
        out = tmp_path / "out"
        assert run_cli("--experiment", "sigma_search", "--config", config, "--out", out) == 3
        (json_path,) = results_files(out, "sigma_search", "results.json")
        payload = json.loads(json_path.read_text())
        assert "error" in payload and "diagnostics" in payload

    def test_missing_required_key(self, tmp_path):
        config = write_config(tmp_path, "delta = 1e-6\n")
        assert run_cli("--experiment", "sigma_search", "--config", config,
                       "--out", tmp_path / "out") == 2

    @pytest.mark.parametrize("override", ["L=0", "L=-1", "n=1"])
    def test_degenerate_arguments_exit_2(self, tmp_path, capsys, override):
        out = tmp_path / "out"
        assert run_cli("--experiment", "sigma_search", "--out", out, "--set", "eps=1.0",
                       "--set", "delta=1e-6", "--set", override) == 2
        assert "invalid configuration" in capsys.readouterr().err
        assert run_dirs(out) == []

    def test_non_integral_n_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("--experiment", "sigma_search", "--out", out, "--set", "eps=1.0",
                       "--set", "delta=1e-6", "--set", "n=2.9") == 2
        assert "n must be an integer, got 2.9" in capsys.readouterr().err
        assert run_dirs(out) == []

    def test_integral_float_n_runs_as_its_int(self, tmp_path):
        payloads = []
        for n in ("500", "500.0"):
            out = tmp_path / n
            assert run_cli("--experiment", "sigma_search", "--out", out, "--set", "eps=1.0",
                           "--set", "delta=1e-6", "--set", f"n={n}") == 0
            (json_path,) = results_files(out, "sigma_search", "results.json")
            payloads.append(json_path.read_bytes())
        assert payloads[0] == payloads[1]


class TestMeta:
    @pytest.mark.parametrize("value", ["2.5", "abc", "true", "1,2"])
    def test_integer_keys_reject_other_values(self, tmp_path, capsys, value):
        out = tmp_path / "out"
        assert run_cli("--experiment", "bounds_sweep", "--out", out, "--set", "n_grid=20",
                       "--set", f"t_factor={value}") == 2
        assert "t_factor must be an integer" in capsys.readouterr().err
        assert run_dirs(out) == []

    @pytest.mark.parametrize("experiment, sets", [
        ("sgd_compare", ["n=0"]),
        ("protocol_mc", ["protocols=complete_hist", "domain_size=0"]),
    ])
    def test_failed_run_removes_the_directories_it_made(self, tmp_path, capsys, experiment,
                                                        sets):
        # both configurations resolve, so the run directory exists before they exit 2
        args = ["--experiment", experiment, *(arg for s in sets for arg in ("--set", s))]
        assert run_cli(*args, "--out", tmp_path / "new" / "out") == 2
        assert "invalid configuration" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        # directories that were there before stay, empty or not
        out = tmp_path / "out"
        (out / experiment).mkdir(parents=True)
        (out / "other").mkdir()
        assert run_cli(*args, "--out", out) == 2
        assert sorted(p.name for p in out.iterdir()) == sorted([experiment, "other"])
        assert run_dirs(out) == []

    def test_resolved_config_beside_config_as_given(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("--experiment", "bounds_sweep", "--out", out, "--set", "n_grid=20",
                       "--set", "t_factor=10.0", "--seed", 4) == 0
        (csv_path,) = results_files(out, "bounds_sweep")
        meta = json.loads((csv_path.parent / "meta.json").read_text())
        assert meta["config"] == {"n_grid": 20, "t_factor": 10.0}
        assert meta["resolved_config"] == {
            "n_grid": [20], "eps0": 0.5, "t_factor": 10, "total_delta": 3e-3, "delta0": None,
            "delta_prime": None, "delta_hat": None, "seed": 4, "runs": 10,
        }
        assert "resolved_config" not in csv_path.read_text()

    def test_empty_config_resolves_to_the_defaults(self):
        from netdp.cli import resolve_config

        assert resolve_config("bounds_sweep", {}) == {
            "n_grid": [20, 50, 100, 1000, 10000], "eps0": 0.5, "t_factor": 100,
            "total_delta": 3e-3, "delta0": None, "delta_prime": None, "delta_hat": None,
            "seed": 0, "runs": 10,
        }
        given = resolve_config("bounds_sweep", {"delta0": 1e-8})
        assert (given["delta_prime"], given["delta_hat"]) == (1e-3, 1e-3)

    @pytest.mark.parametrize("given", [[], ["delta0=1e-8", "delta_prime=2e-3", "delta_hat=4e-3"]],
                             ids=["split", "given"])
    def test_delta_split_recorded_as_numbers(self, tmp_path, given):
        out = tmp_path / "out"
        sets = [arg for s in ["n_grid=100,20", "t_factor=10", *given] for arg in ("--set", s)]
        assert run_cli("--experiment", "bounds_sweep", "--out", out, *sets) == 0
        (csv_path,) = results_files(out, "bounds_sweep")
        split = json.loads((csv_path.parent / "meta.json").read_text())["delta_split"]
        for n in (20, 100):
            want = split_delta_budget(3e-3, n, 10 * n) if not given else (1e-8, 2e-3, 4e-3)
            assert split[str(n)] == dict(zip(("delta0", "delta_prime", "delta_hat"), want))
        assert "delta" not in csv_path.read_text()

    def test_environment_block(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("--experiment", "bounds_sweep", "--out", out, "--set", "n_grid=20",
                       "--workers", 3) == 0
        (csv_path,) = results_files(out, "bounds_sweep")
        meta = json.loads((csv_path.parent / "meta.json").read_text())
        env = meta["environment"]
        assert set(env) == {"python", "numpy", "cpu_count", "usable_cpus", "workers"}
        assert env["numpy"] == np.__version__ and env["workers"] == 3
        assert env["python"].count(".") == 2
        assert 1 <= env["usable_cpus"] <= env["cpu_count"]
        assert "environment" not in csv_path.read_text()


class TestKeyTable:
    """The CLI contract on one-key-at-a-time variations of small configs:
    every run exits 0, 2 or 3, and an invalid configuration leaves no run
    directory."""

    BASE = {
        "bounds_sweep": ["n_grid=20", "t_factor=10"],
        # with delta0 set, delta_prime and delta_hat reach the bounds
        "bounds_sweep_delta0": ["n_grid=20", "t_factor=10", "delta0=1e-7"],
        "empirical_sweep": ["n_grid=12", "t_factor=5"],
        "protocol_mc": ["protocols=ring_sum,complete_sum,ring_hist,complete_hist",
                        "n=6", "K=2", "T=12", "domain_size=3"],
        "sgd_compare": ["n=6", "T=20", "eta=0.05", "eps=10", "points_per_user=2", "dim=2"],
        "sigma_search": ["eps=1.0", "delta=1e-6", "n=50"],
    }
    VALUES = ["0", "-1", "2.5", "nan", "inf", "x"]
    # before the key table, the first 13 exited 1 with a traceback and left
    # an empty run directory, and a mistyped key was ignored
    PINNED = [
        ("bounds_sweep", "n_grid", "0"), ("bounds_sweep", "n_grid", "0.5"),
        ("bounds_sweep", "n_grid", "inf"), ("empirical_sweep", "n_grid", "inf"),
        ("protocol_mc", "n", "0"), ("protocol_mc", "K", "0"), ("protocol_mc", "T", "0"),
        ("protocol_mc", "clip", "nan"), ("protocol_mc", "clip", "inf"),
        ("sgd_compare", "delta", "0"), ("sgd_compare", "dim", "0"),
        ("sgd_compare", "eps", "inf"), ("sgd_compare", "cap_multiplier", "inf"),
        ("protocol_mc", "sigma_lco", "2"),  # a mistyped key
    ]

    @staticmethod
    def run(tmp_path, experiment, key, value):
        out = tmp_path / f"{experiment}-{key}-{value}"
        base = [s for s in TestKeyTable.BASE[experiment] if s.split("=")[0] != key]
        sets = [arg for s in [*base, f"{key}={value}"] for arg in ("--set", s)]
        runs = [] if key == "runs" else ["--runs", 2]
        return run_cli("--experiment", experiment.removesuffix("_delta0"), "--out", out,
                       "--workers", 1, *runs, *sets), out

    @staticmethod
    def edges(key) -> list[str]:
        if isinstance(key.range, tuple):
            return list(key.range)
        if key.range is None:
            return []
        return [x.strip() for x in key.range[1:-1].split(",") if x.strip() != "inf"]

    @pytest.mark.parametrize("experiment", sorted(BASE))
    def test_one_key_at_a_time(self, tmp_path, experiment):
        from netdp.cli import KEYS

        for name, key in KEYS[experiment.removesuffix("_delta0")].items():
            for value in dict.fromkeys([*self.edges(key), *self.VALUES]):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    code, out = self.run(tmp_path, experiment, name, value)
                assert code in (0, 2, 3), (name, value, code)
                if code == 2:
                    assert run_dirs(out) == [], (name, value)
                # an invalid value is reported by its error alone
                runtime = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
                assert runtime == [], (name, value, runtime)

    def test_values_are_typed_and_edges_kept(self):
        from netdp.cli import resolve_config

        cfg = resolve_config("protocol_mc", {"n": 6.0, "K": 1, "runs": 1, "seed": 0,
                                             "protocols": "ring_sum", "sigma_loc": 2})
        assert (cfg["n"], cfg["K"], cfg["runs"], cfg["seed"]) == (6, 1, 1, 0)
        assert type(cfg["n"]) is int and type(cfg["sigma_loc"]) is float
        assert cfg["protocols"] == ["ring_sum"]
        assert resolve_config("sgd_compare", {"delta": 0.5})["eta"] is None  # unset

    @pytest.mark.parametrize("experiment,config,message", [
        ("sigma_search", {"delta": 1e-6}, "eps is required"),
        ("empirical_sweep", {"delta_prime": 1}, "delta_prime must be in (0, 1), got 1.0"),
        ("empirical_sweep", {"n_grid": [20, 1]}, "n_grid must be in [2, inf), got 1"),
        ("empirical_sweep", {"n_grid": []}, "n_grid must list at least one value"),
        ("protocol_mc", {"protocols": ["ring_sum", "x"]}, "protocols must be one of"),
        ("protocol_mc", {"clip": float("nan")}, "clip must be a finite number, got nan"),
        ("protocol_mc", {"K": [1, 2]}, "K must be an integer, got [1, 2]"),
        ("protocol_mc", {"mode": True}, "mode must be a string, got True"),
        ("protocol_mc", {"sigma_lco": 2}, "unknown key(s) ['sigma_lco']"),
        ("sgd_compare", {"eps": 10**400}, "eps must be a finite number, got inf"),
    ])
    def test_invalid_values_name_their_key(self, experiment, config, message):
        from netdp.cli import resolve_config

        with pytest.raises(ValueError) as exc:
            resolve_config(experiment, config)
        assert message in str(exc.value)

    @pytest.mark.parametrize("experiment,key,value", PINNED)
    def test_pinned_cases_exit_2_naming_the_key(self, tmp_path, capsys, experiment, key, value):
        code, out = self.run(tmp_path, experiment, key, value)
        assert code == 2
        assert key in capsys.readouterr().err
        assert not out.exists()


def test_readme_key_table_matches_keys():
    """README's key table lists every key of ``cli.KEYS`` with its type,
    default and range, and nothing else."""
    from pathlib import Path

    from netdp.cli import KEYS, REQUIRED

    def shown(key) -> tuple[str, str, str]:
        kind = str(key.type) if hasattr(key.type, "__args__") else key.type.__name__
        default = ("unset" if key.default is None else "required" if key.default is REQUIRED
                   else ",".join(map(str, key.default)) if isinstance(key.default, list)
                   else str(key.default))
        allowed = (", ".join(key.range) if isinstance(key.range, tuple)
                   else key.range if key.range else "—")
        return kind, default, allowed

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = {}
    for line in readme.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if line.startswith("| ") and len(cells) == 6 and cells[1].startswith("`"):
            experiment, key, kind, default, allowed, _ = cells
            rows.setdefault(experiment, {})[key.strip("`")] = (kind, default.split(":")[0], allowed)
    common = rows.pop("every experiment")
    assert set(rows) == set(KEYS)
    for experiment, keys in KEYS.items():
        assert {**rows[experiment], **common} == {name: shown(key) for name, key in keys.items()}
