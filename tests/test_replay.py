"""Replay contract across trees: every experiment's outputs, pinned by digest.

Runs all five CLI experiments at small configs and compares the SHA-256 of
each ``results.*`` and ``trace_*.csv`` file with a table taken for the
installed numpy version (its generators and ufuncs fix the bits).  A change
that moves a digest updates the table and says in CHANGES.md which value
moved and why.
"""

import hashlib
import math

import numpy as np
import pytest

from netdp import dpml
from netdp.cli import EXPERIMENTS, main

SEED = 7
SGD = ["--set", "n=12", "--set", "T=150", "--set", "eps=1,10", "--set", "delta=1e-6",
       "--set", "tune_seeds=2", "--runs", "3"]
CASES = {
    "bounds_sweep": ["--set", "n_grid=20,100", "--set", "eps0=0.5"],
    "empirical_sweep": ["--set", "n_grid=12,15", "--set", "eps0=0.5", "--set", "t_factor=10",
                        "--runs", "3"],
    # at T = 2n about 14% of observers are never visited and one visit gap
    # in six exceeds n, so the cycle table has empty observers and fictive ends
    "empirical_sweep_sparse": ["--set", "n_grid=200,1000", "--set", "eps0=0.5",
                               "--set", "t_factor=2", "--runs", "2"],
    "protocol_mc": ["--set", "protocols=ring_sum,complete_sum,ring_hist,complete_hist",
                    "--set", "n=30", "--set", "K=3", "--set", "T=200", "--runs", "20",
                    "--workers", "2"],
    "sgd_compare": ["--set", "dataset=synthetic", "--set", "points_per_user=4",
                    "--set", "dim=3", *SGD],
    "sgd_compare_csv": ["--set", "dataset=real", "--set", "dataset_path={csv}", *SGD],
    # at these eps the gradient noise is small enough not to absorb the
    # last bits of a one-feature gradient, so the outputs pin how its rows are summed
    "sgd_compare_csv_d1": ["--set", "dataset=real", "--set", "dataset_path={csv_d1}", *SGD,
                           "--set", "eps=100,10000"],
    # nine rows a user, where in-order and pairwise row sums part ways, at
    # eps whose noise leaves a d > 1 gradient's last bits in the outputs
    "sgd_compare_m9": ["--set", "dataset=synthetic", "--set", "points_per_user=9",
                       "--set", "dim=3", *SGD, "--set", "eps=100,10000"],
    "sigma_search": ["--set", "eps=1.0", "--set", "delta=1e-6", "--set", "T_u=10",
                     "--set", "n=500"],
}

# numpy version -> {"<case>/<file>": sha256}
DIGESTS = {
    "2.4.6": {
        "bounds_sweep/results.csv": "40183261852ac687d52a085e1d91477bdc21ac4fc845b0ab19ab14c93299fd21",
        "empirical_sweep/results.csv": "0c4718af85de4ba2375056bb4a9b052eb8f028738bcdc15ab6ad7f36a5a25ec4",
        "empirical_sweep_sparse/results.csv": "c2d42495de0e6b6c0c71793453b62846a373039ad774736436c8bf2164c7cf26",
        "protocol_mc/results.csv": "b52e3dfeeb1ff18ac8ec874b594204ed861f09c655b1b8186759669b6f80c78a",
        "sgd_compare/results.csv": "37ff596f9c167ec2324792cb69dbd2537cb51aeeb00f1c586c039fff78bdcc09",
        "sgd_compare/trace_centralized_eps1.csv": "0b4a8dd943d875d94bf947ccd823a72afffb5688e20650a1a4a68c95dbf0b6b9",
        "sgd_compare/trace_centralized_eps10.csv": "111bf9ad38c071e504f77986b6977983ddb73de09868856a3477bd4568d53577",
        "sgd_compare/trace_local_eps1.csv": "50ee4a002d8b7b73c7b690f41c238bbc619b521e2ff2844af821556c50e4bd34",
        "sgd_compare/trace_local_eps10.csv": "d8289487667c6b4317839a128aa1325286459a44eccddbfeabf292be73709aa9",
        "sgd_compare/trace_network_eps1.csv": "3da532f7a3cd6dbf92aae847f14c686f4fa8479fefcdeefe3f89fdf1375bf037",
        "sgd_compare/trace_network_eps10.csv": "570fcb2bef2d44f55c4a002b47096130c524f0c7dff9b1f683a336d662e927cd",
        "sgd_compare_csv/results.csv": "acba624bd0bdc3bd97498cf939fe1b6e936d2e75f859918c857f8da115486bd7",
        "sgd_compare_csv/trace_centralized_eps1.csv": "36dc795f066053cd35dd461c8b9097ec1c9fd5b27e3f0a32e1a5e4db1f39998b",
        "sgd_compare_csv/trace_centralized_eps10.csv": "d7564ffcf530b7e7133b843b705ed9696d3b9001cfbd09491b3431f9bb3a6a3b",
        "sgd_compare_csv/trace_local_eps1.csv": "cfb0ff1e0186e1540d830ffaff045a19816b9a79cf95e9ff37520e996550fecd",
        "sgd_compare_csv/trace_local_eps10.csv": "1e8d86b384bc556088fd542f17b0851fb96ada9ded2d2dd653c70c82152e5385",
        "sgd_compare_csv/trace_network_eps1.csv": "5d805fd0a5b83882f643d55065e0706a90169f248fca461c4d29abf6c17091cb",
        "sgd_compare_csv/trace_network_eps10.csv": "e3074eefc3556253188d24a35847a03fe53a3dc6f5a530c5865df0c6106f331f",
        "sgd_compare_csv_d1/results.csv": "2bed687e1ca11443d66fe51251ae333888334ced222624c3dc9ea519212ddef1",
        "sgd_compare_csv_d1/trace_centralized_eps100.csv": "3230c58d1f038dd658cc33ee84136ec7e98a9a3c201991f379592f88c004ec2d",
        "sgd_compare_csv_d1/trace_centralized_eps10000.csv": "db2e7a7c1709a2c722f1289e50ae552ce9bb53e8df3051cd46259f73e0691f10",
        "sgd_compare_csv_d1/trace_local_eps100.csv": "392eb026ebf0cff45ec0df4462fcf7a6a678ce286b1ea0f31065583949d1cd37",
        "sgd_compare_csv_d1/trace_local_eps10000.csv": "874a14dfc23a43d01725ad3f1ad610f05941074ab52100b265383b39aaabefaf",
        "sgd_compare_csv_d1/trace_network_eps100.csv": "eb89e996e36fe69b68fad3487ab8523a689640b041a155094e24e131a6cf6871",
        "sgd_compare_csv_d1/trace_network_eps10000.csv": "5920ba4809083aa42eeff649cb8399a3e2bc51f16c70b86a6961b7396874a2a9",
        "sgd_compare_m9/results.csv": "24ac14d6a88f50b42f2cff224b38ce028743b2809e9a666f44cd70c5af3c52a0",
        "sgd_compare_m9/trace_centralized_eps100.csv": "04cdb7099aa60836f96fc9b9aa36ef5a224389b7117c877eab28eeb75e0ab07f",
        "sgd_compare_m9/trace_centralized_eps10000.csv": "dddd2f94f7350d20056d5e6d823699cf9a0540b18aae5cd96d2c69422e5dd704",
        "sgd_compare_m9/trace_local_eps100.csv": "a25b68abbe339ad0c3d31947d0b19d04d9956ce786836c508e7088bd5b3dd432",
        "sgd_compare_m9/trace_local_eps10000.csv": "bc996b811a77bd6ffc0241f0b8304a8da24b780f8ac2ac8dab78176c3cec6cef",
        "sgd_compare_m9/trace_network_eps100.csv": "b3e9247fe7f991ee666789bf30b2b06a32a363b1ca6ba37c0a41c6e46ecde5b0",
        "sgd_compare_m9/trace_network_eps10000.csv": "017534b2d1a09c18b4013989272eeae847eb75983841f5c3aa63af9e64626af1",
        "sigma_search/results.json": "08166649dd832fb7856cd06ab629367b06aee487e800806b0c421c4dc9cf7d03",
    },
}


def write_unequal_csv(path):
    """67 rows in two features: 54 train rows, so 12 users hold 4 or 5 rows,
    which sends ``sgd_compare`` through the row-count groups of its
    gradient.  Written from closed forms, so no generator is involved."""
    lines = ["f0,f1,label"]
    for i in range(67):
        a, b = math.sin(1.7 * i + 0.3), math.cos(2.9 * i)
        lines.append(f"{a!r},{b!r},{1 if a + 0.5 * b > 0.1 else -1}")
    path.write_text("\n".join(lines) + "\n")


def write_one_feature_csv(path):
    """125 rows in one feature: 100 train rows, so 12 users hold 8 or 9 rows.
    With one feature a user's gradient sums m >= 8 scalars, where numpy's
    pairwise and sequential sums part ways."""
    lines = ["f0,label"]
    for i in range(125):
        a = math.sin(1.3 * i + 0.7)
        lines.append(f"{a!r},{1 if a + 0.4 * math.cos(3.1 * i) > 0 else -1}")
    path.write_text("\n".join(lines) + "\n")


def experiment_of(case):
    """The experiment a case runs: its name, or the prefix before ``_<variant>``."""
    return next(e for e in EXPERIMENTS if case == e or case.startswith(e + "_"))


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    root = tmp_path_factory.mktemp("replay")
    csv_path, csv_d1_path = root / "unequal.csv", root / "one_feature.csv"
    write_unequal_csv(csv_path)
    write_one_feature_csv(csv_d1_path)
    data = dpml.load_csv_dataset(csv_path, n_users=12, seed=SEED)
    assert {rows.size for rows in data.user_rows} == {4, 5}
    data = dpml.load_csv_dataset(csv_d1_path, n_users=12, seed=SEED)
    assert data.dim == 1 and {rows.size for rows in data.user_rows} == {8, 9}
    found = {}
    for case, args in CASES.items():
        experiment = experiment_of(case)
        out = root / case
        argv = ["--experiment", experiment, "--out", str(out), "--seed", str(SEED),
                *(a.format(csv=csv_path, csv_d1=csv_d1_path) for a in args)]
        assert main(argv) == 0, case
        (run_dir,) = (out / experiment).iterdir()
        for path in sorted([*run_dir.glob("results.*"), *run_dir.glob("trace_*.csv")]):
            found[f"{case}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return found


def test_outputs_match_pinned_digests(digests):
    pinned = DIGESTS.get(np.__version__)
    assert pinned is not None, (
        f"no replay digests for numpy {np.__version__}; take them at a trusted commit "
        f"and add them under that version")
    moved = sorted(k for k in pinned.keys() | digests.keys() if pinned.get(k) != digests.get(k))
    assert not moved, f"outputs moved: {moved}"


def test_every_experiment_is_pinned(digests):
    experiments = {experiment_of(key.split("/")[0]) for key in digests}
    assert experiments == {"bounds_sweep", "empirical_sweep", "protocol_mc", "sgd_compare",
                           "sigma_search"}
    assert sum(key.startswith("sgd_compare_csv/trace_") for key in digests) == 6
    assert sum(key.startswith("sgd_compare_csv_d1/trace_") for key in digests) == 6
    assert sum(key.startswith("sgd_compare_m9/trace_") for key in digests) == 6
