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
        "empirical_sweep/results.csv": "882e1ad60e848ccd7f2f974de1ca7c712d648c77fb27b5245730ccc4a389a791",
        "empirical_sweep_sparse/results.csv": "d5484fd96f85ad7d1fcab8db34e9654384f9cdf298473a3a7d3e3e995f976e3d",
        "protocol_mc/results.csv": "59f8ffdee3a7ad553a4303518fce8f231686e4d7bd794e0973de65fd4201b0f9",
        "sgd_compare/results.csv": "4f401744731c430d713e72e3fcdf0ea3f4f9a45b370fd90b03f4e1f717bbcfb3",
        "sgd_compare/trace_centralized_eps1.csv": "6890f48484b41a96bbc96da333f15aca6a02d09acbaf71ff2b68dbdbc40746a3",
        "sgd_compare/trace_centralized_eps10.csv": "8557782d396574e76ea465398b90211045f048b44dc620f8a5747f6c1467e9d1",
        "sgd_compare/trace_local_eps1.csv": "f141f7e2fd585e627af9f9cda8d5e5a898d825904c67a32a5dcbdf3c0ca5195c",
        "sgd_compare/trace_local_eps10.csv": "7ea8ab1cf26867b9ce1aae5274fd27ea28e1908aaf196c3acc3b9a58749b511a",
        "sgd_compare/trace_network_eps1.csv": "5304da395751ade2ce6e90ef67c19adc1c67a5d14eb3f74ff6f10d737026afaf",
        "sgd_compare/trace_network_eps10.csv": "9ab8258a3f8dc4a884d62927811511923c857a8c571605418aace1e40ccdd02a",
        "sgd_compare_csv/results.csv": "03fc732beb7c4a4f0a3a971c775f94f6ab58e3765b67d1fac0b58bda3984340d",
        "sgd_compare_csv/trace_centralized_eps1.csv": "c50872b0a0e2e91e0db0463f29b64d157784e34e3c0a488974a8eb96c689baae",
        "sgd_compare_csv/trace_centralized_eps10.csv": "7c49860fb723761d922d4c71f3479d5519d25e7fa72a3e70049ec743c5dc3089",
        "sgd_compare_csv/trace_local_eps1.csv": "8c513c2301ca06f5e1aa69415fe6d4240b49d8346ad7713a07aa9cd023546584",
        "sgd_compare_csv/trace_local_eps10.csv": "394da0e09dcd1cad5a81240163291500b37470e7213b319ffe21e50ae570e631",
        "sgd_compare_csv/trace_network_eps1.csv": "da73b4b11040a94cbd00beb8d9c2f2fc1e8c351bca3a080d0bfa79484ba49d3b",
        "sgd_compare_csv/trace_network_eps10.csv": "9601aaf96cd6edfe5c45fede166a53626293db3489eca88490d512a2f336868d",
        "sgd_compare_csv_d1/results.csv": "0204b8aab8d034aaf37e2ba3dd5a59e97a57b8735b74ff693c21745acd9e1f22",
        "sgd_compare_csv_d1/trace_centralized_eps100.csv": "906e460abd24cc03f6b822fc05f8ad48ef61dcfc1ec16f5ee779bdb4d2ee645a",
        "sgd_compare_csv_d1/trace_centralized_eps10000.csv": "83c5c2d67d38e2c240af0b6cf85e7a2bf721a699f1e74f48dbaa5f0d7da9e1ea",
        "sgd_compare_csv_d1/trace_local_eps100.csv": "ec533373f3a3c2f992cfd6123df94aa46be80b098ee741d1987a0dde76ea1482",
        "sgd_compare_csv_d1/trace_local_eps10000.csv": "ce45c36b943fcee48f5d88e2777135a164dd2f5e5561e78691aebe75eab07a2f",
        "sgd_compare_csv_d1/trace_network_eps100.csv": "fd6918838764f2f2ff6c73b28d402a7c6a67ed96f2c88a87c94c5fb3d5365b1f",
        "sgd_compare_csv_d1/trace_network_eps10000.csv": "724482b9074cf661257410ed28d38561fd18dda69f5faa6d429573c7d3a94e3f",
        "sgd_compare_m9/results.csv": "cb18758f2c0dee579c12ceabe976480ef92d1ee900768d96c130e7b39431e057",
        "sgd_compare_m9/trace_centralized_eps100.csv": "cd6d4295e29f146a37e48ea76722e4e116c9ae9b7c9431c643770150ddf65d0e",
        "sgd_compare_m9/trace_centralized_eps10000.csv": "9159822dbd69a205e051b6acf9d562e8cfb54af0a845087d30f8df86528f4f0d",
        "sgd_compare_m9/trace_local_eps100.csv": "0759e42d28afe1ebfe7052e9ee0a408bfa6316418c3fd796f03f7afcb93a63af",
        "sgd_compare_m9/trace_local_eps10000.csv": "94d4132fb0aeae5b04dabffcf95ce7d65908baf6da2df54cc1c192d09020c3c8",
        "sgd_compare_m9/trace_network_eps100.csv": "d5ab8ec74974521ba7a4f673b50c4267ef7f8f7221985aaf6c107f8f0653c16b",
        "sgd_compare_m9/trace_network_eps10000.csv": "c5d9ff25ac67cb03bb0fc49792ae36fa506961270307330bc0448b89fa471a9f",
        "sigma_search/results.json": "c284f410191f00a12388a5c34fef2ac1c688e072ab88e19dab8ab2af307f5124",
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
    # the new table rows, ready to paste over the pinned ones (None: no such file any more)
    new_rows = "".join(f"\n        {k!r}: {digests.get(k)!r}," for k in moved).replace("'", '"')
    assert not moved, f"outputs moved: {moved}; new digests:{new_rows}"


def test_every_experiment_is_pinned(digests):
    experiments = {experiment_of(key.split("/")[0]) for key in digests}
    assert experiments == {"bounds_sweep", "empirical_sweep", "protocol_mc", "sgd_compare",
                           "sigma_search"}
    assert sum(key.startswith("sgd_compare_csv/trace_") for key in digests) == 6
    assert sum(key.startswith("sgd_compare_csv_d1/trace_") for key in digests) == 6
    assert sum(key.startswith("sgd_compare_m9/trace_") for key in digests) == 6
