import json

import numpy as np
import pytest

from netdp.cli import main, parse_config, split_delta_budget, derive_seed


def write_config(tmp_path, text, name="conf.txt"):
    path = tmp_path / name
    path.write_text(text)
    return path


def run_cli(*args):
    return main([str(a) for a in args])


def results_files(out, experiment, pattern="results.csv"):
    return sorted((out / experiment).glob(f"*/{pattern}"))


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

    def test_derive_seed_deterministic(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
        assert derive_seed(1, 2, 3) != derive_seed(1, 2, 4)

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
        import netdp.cli as cli

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

        monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
        config = write_config(tmp_path, "n_grid = 12\neps0 = 0.5\nt_factor = 10\n")
        assert run_cli("--experiment", "empirical_sweep", "--config", config,
                       "--out", tmp_path / "out", "--runs", 2, "--workers", 64) == 0
        assert sizes == [2]


class TestProtocolMc:
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

    @pytest.mark.parametrize("dataset", ["synthetic", "unequal_csv"])
    def test_output_independent_of_workers(self, tmp_path, dataset):
        # replicas run as one lockstep batch per worker; each run depends on
        # its own seed only, so the files match byte for byte
        text = "n = 12\nT = 120\neps = 10\ndelta = 1e-6\ntune_seeds = 2\n"
        if dataset == "synthetic":
            text += "dataset = synthetic\npoints_per_user = 4\ndim = 3\n"
        else:
            rng = np.random.Generator(np.random.Philox(6))
            path = tmp_path / "data.csv"
            # 67 rows leave 54 train rows: 4 or 5 per user
            rows = [f"{a},{b},{1 if a + b > 0 else -1}"
                    for a, b in rng.normal(size=(67, 2)).tolist()]
            path.write_text("f0,f1,label\n" + "\n".join(rows) + "\n")
            text += f"dataset = real\ndataset_path = {path}\n"
        config = write_config(tmp_path, text)
        files = {}
        for workers in (1, 2):
            out = tmp_path / f"out{workers}"
            assert run_cli("--experiment", "sgd_compare", "--config", config, "--out", out,
                           "--runs", 3, "--workers", workers, "--seed", 5) == 0
            (run_dir,) = (out / "sgd_compare").iterdir()
            files[workers] = {p.name: p.read_bytes() for p in sorted(run_dir.glob("*.csv"))}
        assert len(files[1]) == 4  # results.csv and one trace per regime
        assert files[1] == files[2]


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
