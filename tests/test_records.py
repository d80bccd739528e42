"""The record contract of qkdnet's value and result types.

Every record is built from its fields positionally or by keyword, shows
them as ``Name(field=value, ...)``, and compares by its fields.  The
ten immutable ones hash alike when equal and refuse assignment; the two
records built in every trial (``SessionOutcome``, ``TrialResult``) are
mutable slotted records and unhashable.  None is a dataclass: decorating
one generates its methods with ``exec`` on every cold import.
"""

import dataclasses
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import qkdnet
from qkdnet.adversary import AdversaryConfig, AdversaryView
from qkdnet.bits import BitString
from qkdnet.errors import OutOfRange, ParameterViolation, ValidationError
from qkdnet.mac import MacKey
from qkdnet.network import NetworkGraph, PathSet, QkdLink
from qkdnet.protocol import SecurityParams, SessionOutcome
from qkdnet.sim import (
    MonteCarloRun,
    OracleCheck,
    OracleReport,
    Scenario,
    Stats,
    TrialResult,
)

ROOT = Path(__file__).resolve().parent.parent

PATHS = PathSet("alice", "bob", (("alice", "n1", "bob"), ("alice", "n2", "bob")))
PARAMS = SecurityParams(64, 16, 4, 2, 0.05)
GRAPH = NetworkGraph({"alice", "n1", "n2", "bob"},
                     [QkdLink("alice", "n1"), QkdLink("n1", "bob"),
                      QkdLink("alice", "n2"), QkdLink("n2", "bob")])
STATS_FIELDS = dict(trials=10, successes=9, empirical=0.9, ci_low=0.5,
                    ci_high=0.99, p_im=0.07, agreement_bound=0.8,
                    privacy_bound=0.3, verdict="PASS", degenerate=False,
                    events=(1, 0, 0, 0))
STATS = Stats(**STATS_FIELDS)
CHECK = OracleCheck("parity_miss", "1/4", "1/4", True)

#: Each record's fields in order, with sample values.
FIELDS = {
    QkdLink: dict(a="alice", b="n1", epsilon=0.25, alive=False),
    PathSet: dict(a=PATHS.a, b=PATHS.b, paths=PATHS.paths),
    SecurityParams: dict(n=64, s=16, m=4, ell=2, epsilon=0.05),
    AdversaryConfig: dict(corrupted=frozenset({"n1"}),
                          strategies=("forge_auth",)),
    MacKey: dict(material=BitString.from_int(0xA5, 8)),
    Scenario: dict(name="demo", graph=GRAPH, params=PARAMS,
                   adversary=AdversaryConfig(), trials=10, seed=7,
                   paths=PATHS),
    Stats: STATS_FIELDS,
    MonteCarloRun: dict(stats=STATS, results=(), scenario="demo",
                        master_seed=7),
    OracleCheck: dict(name="parity_miss", expected="1/4", observed="1/4",
                      exact_match=True),
    OracleReport: dict(checks=(CHECK,)),
    SessionOutcome: dict(result=1, result_prime=1, keys_equal=True,
                         final_key_a=5, final_key_b=5,
                         trash_a=frozenset({3}), trash_b=frozenset({3}),
                         challenge_copies=((9, 8), None),
                         response_copies=((2, 9), (2, 9)),
                         accepted_b=0, accepted_a=0,
                         view=AdversaryView(2, 64)),
    TrialResult: dict(index=0, seed=123, result=1, result_prime=1,
                      keys_equal=True, succeeded=True, final_key_len=28,
                      trash_size=4, leaked_epochs=0, failure_tags=()),
}
#: One field of each record with a second valid value.
OTHER = {
    QkdLink: ("alive", True), PathSet: ("paths", PATHS.paths[:1]),
    SecurityParams: ("m", 3), AdversaryConfig: ("strategies", ()),
    MacKey: ("material", BitString.from_int(0xA5, 10)),
    Scenario: ("seed", 8), Stats: ("successes", 8),
    MonteCarloRun: ("master_seed", 8), OracleCheck: ("exact_match", False),
    OracleReport: ("checks", ()), SessionOutcome: ("accepted_a", None),
    TrialResult: ("seed", 124),
}
PER_TRIAL = (SessionOutcome, TrialResult)
IMMUTABLE = [cls for cls in FIELDS if cls not in PER_TRIAL]
#: The value types whose constructor checks its fields.
VALIDATED = (QkdLink, PathSet, SecurityParams, AdversaryConfig, MacKey)
ids = [cls.__name__ for cls in FIELDS]


def _qkdnet_classes():
    for info in pkgutil.iter_modules(qkdnet.__path__, "qkdnet."):
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                yield obj


def test_no_class_is_a_dataclass():
    classes = list(_qkdnet_classes())
    assert set(FIELDS) <= set(classes)
    assert [c.__name__ for c in classes if dataclasses.is_dataclass(c)] == []


def test_cold_import_loads_no_dataclasses():
    # -S: no site hook may load the module first
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, qkdnet.cli; print('dataclasses' in sys.modules)"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout == "False\n"


@pytest.mark.parametrize("cls", FIELDS, ids=ids)
def test_positional_and_keyword_construction_agree(cls):
    fields = FIELDS[cls]
    by_position = cls(*fields.values())
    by_keyword = cls(**fields)
    assert by_position == by_keyword
    assert [getattr(by_keyword, name) for name in fields] == list(
        fields.values())
    if cls in IMMUTABLE:
        assert hash(by_position) == hash(by_keyword)
    else:
        with pytest.raises(TypeError):
            hash(by_position)


@pytest.mark.parametrize("cls", FIELDS, ids=ids)
def test_records_of_different_fields_differ(cls):
    name, value = OTHER[cls]
    assert cls(**FIELDS[cls]) != cls(**dict(FIELDS[cls], **{name: value}))


@pytest.mark.parametrize("cls", FIELDS, ids=ids)
def test_repr_names_every_field(cls):
    fields = FIELDS[cls]
    shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(cls(**fields)) == f"{cls.__name__}({shown})"


@pytest.mark.parametrize("cls", IMMUTABLE, ids=[c.__name__ for c in IMMUTABLE])
def test_immutable_records_refuse_assignment(cls):
    record = cls(**FIELDS[cls])
    for name, value in FIELDS[cls].items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
    with pytest.raises(AttributeError):
        record.unknown = 0
    assert tuple(getattr(record, name) for name in FIELDS[cls]) == tuple(
        FIELDS[cls].values())


@pytest.mark.parametrize("cls", PER_TRIAL, ids=[c.__name__ for c in PER_TRIAL])
def test_per_trial_records_take_only_their_fields(cls):
    record = cls(**FIELDS[cls])
    name = next(iter(FIELDS[cls]))
    setattr(record, name, 0)
    assert getattr(record, name) == 0
    with pytest.raises(AttributeError):
        record.unknown = 0


@pytest.mark.parametrize("record,change,error", [
    (QkdLink("a", "b"), dict(b="a"), ValidationError),
    (PathSet("a", "b", (("a", "x", "b"), ("a", "b"))), dict(b="c"),
     ValidationError),
    (SecurityParams(64, 16, 4, 2), dict(s=3), ParameterViolation),
    (AdversaryConfig(), dict(strategies="passive"), ValidationError),
    (MacKey(BitString.from_int(0xA5, 8)),
     dict(material=BitString.from_int(1, 3)), OutOfRange),
], ids=[cls.__name__ for cls in VALIDATED])
def test_replace_and_make_run_the_checks(record, change, error):
    # _replace builds through _make; the named-tuple default of both
    # skips __new__, and PathSet's len() counts paths, not fields
    with pytest.raises(error):
        record._replace(**change)
    fields = [change.get(name, value)
              for name, value in zip(record._fields, record)]
    with pytest.raises(error):
        type(record)._make(fields)


@pytest.mark.parametrize("cls", VALIDATED, ids=[c.__name__ for c in VALIDATED])
def test_valid_replace_and_make_equal_the_constructor(cls):
    name, value = OTHER[cls]
    changed = dict(FIELDS[cls], **{name: value})
    replaced = cls(**FIELDS[cls])._replace(**{name: value})
    made = cls._make(changed.values())
    assert replaced == made == cls(**changed)
    assert type(replaced) is type(made) is cls


def test_replace_normalises_like_the_constructor():
    config = AdversaryConfig()._replace(corrupted=["n1"])
    assert type(config.corrupted) is frozenset
    assert config == AdversaryConfig(frozenset({"n1"}))


def test_path_set_length_counts_paths():
    assert len(PATHS) == 2
    assert len(PathSet("alice", "bob")) == 0
    assert len(PathSet("a", "b", (("a", "b"), ("a", "x", "b"),
                                  ("a", "y", "b")))) == 3


def test_adversary_config_holds_a_frozenset():
    config = AdversaryConfig(["n1", "n2"])
    assert type(config.corrupted) is frozenset
    assert config == AdversaryConfig(frozenset({"n1", "n2"}))


def test_security_params_widths_are_computed_once(monkeypatch):
    widths = ("word_bits", "test_bits", "challenge_bits",
              "session_demand_bits")
    calls = []
    for name in widths:
        prop = SecurityParams.__dict__[name]

        def counted(self, func=prop.func, name=name):
            calls.append(name)
            return func(self)
        monkeypatch.setattr(prop, "func", counted)
    params = SecurityParams(64, 16, 4, 2)
    for _ in range(3):
        assert (params.word_bits, params.test_bits, params.challenge_bits,
                params.session_demand_bits) == (8, 32, 132, 261)
    assert sorted(calls) == sorted(widths)
    with pytest.raises(AttributeError):
        params.test_bits = 0
    # a second instance computes its own
    assert SecurityParams(32, 4, 2, 2).test_bits == 24
    assert calls.count("test_bits") == 2
