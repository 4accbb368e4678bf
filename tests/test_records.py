"""The frozen-record contract of the package's ten record classes.

Each record takes its fields by position or keyword, in declaration order,
with defaults for the trailing ones (a dict default is a new dict per
instance).  It refuses assignment and deletion, compares equal to a record
of the same class with equal fields (never to another class or a plain
tuple), hashes by its fields, prints as ``Name(field=value, ...)``, and
survives pickling (the CLI's worker pool pickles training batches) and
copying, which rebuild it through its checks: a read-only array stays
read-only, and a pickle of an invalid state is refused.  Array fields here
hold one entry, so that ``==`` on them is a plain truth value.
"""

import copy
import pickle
from types import SimpleNamespace

import numpy as np
import pytest

from netdp.accountant import BoundReport, RdpPoint
from netdp.core import PrivacyBudget, Topology, Walks
from netdp.dpml import Dataset, RegimeBatch, TrainConfig
from netdp.empirical import PairLossMatrix, PairLossSummary

BUDGET = PrivacyBudget(1.0, 1e-6)
CONFIG = TrainConfig("local", 10, 0.1, PrivacyBudget(2.0))


def spec(cls, fields, defaults, changed, text, hashable=True):
    """One record case: every field's value in order, the defaulted fields'
    defaults, a one-field change that makes the record unequal, and its repr."""
    return pytest.param(cls, fields, defaults, changed, text, hashable, id=cls.__name__)


RECORDS = [
    spec(PrivacyBudget, {"epsilon": 1.0, "delta": 1e-6}, {"delta": 0.0}, {"epsilon": 2.0},
         "PrivacyBudget(epsilon=1.0, delta=1e-06)"),
    spec(Topology, {"kind": "ring", "n": 5}, {}, {"n": 6}, "Topology(kind='ring', n=5)"),
    spec(Walks, {"topology": Topology("complete", 3), "steps": np.array([[2]])}, {},
         {"steps": np.array([[3]])},
         "Walks(topology=Topology(kind='complete', n=3), steps=array([[2]]))", hashable=False),
    spec(BoundReport, {"name": "ring_sum", "inputs": {"n": 10}, "epsilon_out": 0.5, "delta_out": 1e-6,
                       "intermediates": {"K": 2}, "unchecked": True},
         {"intermediates": {}, "unchecked": False}, {"epsilon_out": 0.75},
         "BoundReport(name='ring_sum', inputs={'n': 10}, epsilon_out=0.5, delta_out=1e-06, "
         "intermediates={'K': 2}, unchecked=True)", hashable=False),
    spec(RdpPoint, {"alpha": 2.0, "eps_rdp": 0.5}, {}, {"eps_rdp": 0.25},
         "RdpPoint(alpha=2.0, eps_rdp=0.5)"),
    spec(Dataset, {"X_train": np.array([[0.5]]), "y_train": np.array([1.0]), "X_test": np.array([[0.25]]),
                   "y_test": np.array([-1.0]), "user_rows": (np.array([0]),)}, {},
         {"y_test": np.array([1.0])},
         "Dataset(X_train=array([[0.5]]), y_train=array([1.]), X_test=array([[0.25]]), "
         "y_test=array([-1.]), user_rows=(array([0]),))", hashable=False),
    spec(TrainConfig, {"regime": "network", "T": 10, "eta": 0.1, "budget": BUDGET, "cap_multiplier": 3.0},
         {"cap_multiplier": 2.0}, {"eta": 0.2},
         "TrainConfig(regime='network', T=10, eta=0.1, "
         "budget=PrivacyBudget(epsilon=1.0, delta=1e-06), cap_multiplier=3.0)"),
    spec(RegimeBatch, {"configs": (CONFIG,), "sigmas": (2.0,)}, {}, {"sigmas": (3.0,)},
         "RegimeBatch(configs=(TrainConfig(regime='local', T=10, eta=0.1, "
         "budget=PrivacyBudget(epsilon=2.0, delta=0.0), cap_multiplier=2.0),), sigmas=(2.0,))"),
    spec(PairLossMatrix, {"matrix": np.array([[0.0]]), "n": 1, "T": 4, "eps0": 0.5, "meta": {"seed": 1}},
         {"meta": {}}, {"T": 5},
         "PairLossMatrix(matrix=array([[0.]]), n=1, T=4, eps0=0.5, meta={'seed': 1})", hashable=False),
    spec(PairLossSummary, {"col_sum": np.array([0.0]), "col_min": np.array([1.0]), "col_max": np.array([2.0]),
                           "n": 1, "T": 4, "eps0": 0.5, "meta": {"seed": 1}},
         {"meta": {}}, {"eps0": 0.25},
         "PairLossSummary(col_sum=array([0.]), col_min=array([1.]), col_max=array([2.]), "
         "n=1, T=4, eps0=0.5, meta={'seed': 1})", hashable=False),
]

FIELDS = "cls, fields, defaults, changed, text, hashable"

# A field value that each record's check refuses; Dataset and
# PairLossSummary check nothing.
INVALID = {
    PrivacyBudget: {"epsilon": 0.0},
    Topology: {"kind": "completX"},
    Walks: {"steps": np.array([[4]])},
    BoundReport: {"delta_out": 2.0},
    RdpPoint: {"alpha": 1.0},
    TrainConfig: {"T": 0},
    RegimeBatch: {"sigmas": ()},
    PairLossMatrix: {"matrix": np.zeros((2, 2))},
}


@pytest.mark.parametrize(FIELDS, RECORDS)
def test_construction_by_position_and_keyword(cls, fields, defaults, changed, text, hashable):
    assert cls(*fields.values()) == cls(**fields)
    required = {name: value for name, value in fields.items() if name not in defaults}
    record = cls(**required)
    assert cls(*required.values()) == record == cls(**{**fields, **defaults})
    for name, default in defaults.items():
        assert getattr(record, name) == default
    first = next(iter(fields))
    with pytest.raises(TypeError):
        cls(*fields.values(), **{first: fields[first]})  # given twice
    with pytest.raises(TypeError):
        cls(**fields, unknown=1)


@pytest.mark.parametrize(FIELDS, [r for r in RECORDS if r.id in ("BoundReport", "PairLossMatrix", "PairLossSummary")])
def test_dict_default_is_fresh_per_instance(cls, fields, defaults, changed, text, hashable):
    required = {name: value for name, value in fields.items() if name not in defaults}
    first, second = cls(**required), cls(**required)
    for name in (name for name, default in defaults.items() if isinstance(default, dict)):
        getattr(first, name)["added"] = 1
        assert getattr(second, name) == {}
        assert getattr(cls(**required), name) == {}


@pytest.mark.parametrize(FIELDS, RECORDS)
def test_fields_cannot_be_assigned_or_deleted(cls, fields, defaults, changed, text, hashable):
    record = cls(**fields)
    name, value = next(iter(changed.items()))
    with pytest.raises(AttributeError):
        setattr(record, name, value)
    with pytest.raises(AttributeError):
        record.extra = 1
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert record == cls(**fields)


@pytest.mark.parametrize(FIELDS, RECORDS)
def test_equality_and_hash_by_fields(cls, fields, defaults, changed, text, hashable):
    record = cls(**fields)
    assert record == cls(**fields)
    assert record != cls(**{**fields, **changed})
    assert record != tuple(fields.values())
    assert record != SimpleNamespace(**fields)
    if hashable:
        assert hash(record) == hash(cls(**fields))
        assert len({record, cls(**fields), cls(**{**fields, **changed})}) == 2
    else:
        with pytest.raises(TypeError):
            hash(record)


@pytest.mark.parametrize(FIELDS, RECORDS)
def test_repr(cls, fields, defaults, changed, text, hashable):
    assert repr(cls(**fields)) == text


@pytest.mark.parametrize(FIELDS, RECORDS)
def test_pickle_and_copy_round_trip(cls, fields, defaults, changed, text, hashable):
    record = cls(**fields)
    for clone in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record)):
        assert type(clone) is cls and clone == record and repr(clone) == text


@pytest.mark.parametrize(FIELDS, RECORDS)
def test_arrays_stay_read_only_after_pickle_and_copy(cls, fields, defaults, changed, text, hashable):
    record = cls(**fields)
    arrays = [name for name in fields if isinstance(getattr(record, name), np.ndarray)]
    for clone in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record)):
        for name in arrays:
            assert getattr(clone, name).flags.writeable == getattr(record, name).flags.writeable


@pytest.mark.parametrize(FIELDS, RECORDS)
def test_pickle_of_an_invalid_state_is_refused(cls, fields, defaults, changed, text, hashable):
    if cls not in INVALID:
        assert not hasattr(cls, "__post_init__")  # nothing to check
        return
    tampered = object.__new__(cls)  # the state a pickle would carry, bypassing the checks
    tampered.__dict__.update({**fields, **INVALID[cls]})
    with pytest.raises(ValueError):
        pickle.loads(pickle.dumps(tampered))
    with pytest.raises(ValueError):
        copy.deepcopy(tampered)


def test_edited_pickle_bytes_are_refused():
    data = pickle.dumps(Topology("complete", 5))
    assert pickle.loads(data) == Topology("complete", 5)
    with pytest.raises(ValueError, match="unknown topology kind 'completX'"):
        pickle.loads(data.replace(b"complete", b"completX"))


def test_read_only_array_fields():
    walks = Walks(Topology("complete", 3), np.array([[2]]))
    matrix = PairLossMatrix(np.array([[0.0]]), 1, 4, 0.5)
    assert not walks.steps.flags.writeable and not matrix.matrix.flags.writeable


def test_default_budget_repr():
    assert repr(PrivacyBudget(1.0)) == "PrivacyBudget(epsilon=1.0, delta=0.0)"


def test_replace_changes_fields_and_revalidates():
    config = TrainConfig("network", 10, 0.1, BUDGET)
    assert config.replace(eta=0.5, T=20) == TrainConfig("network", 20, 0.5, BUDGET)
    assert config == TrainConfig("network", 10, 0.1, BUDGET)
    with pytest.raises(ValueError, match="need T >= 1, eta > 0, cap_multiplier > 0"):
        config.replace(eta=-1.0)
    with pytest.raises(TypeError):
        config.replace(sigma=1.0)
