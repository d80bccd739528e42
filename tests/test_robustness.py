"""Robustness fuzz: a mutated shipped document, or a public call on
JSON-like arguments, is run or refused by name.

Each document example takes one of the twelve checked-in scenario
documents (``demos/scenarios`` and the benchmark's ``perfbench/inputs``,
read only) and replaces, deletes or nudges one to three of its fields.
``load_scenario`` must load it or raise ``ParseError`` or
``ValidationError``, a 3-trial ``run_monte_carlo`` of what loads must
succeed or raise a ``QkdNetError``, and ``qkdnet run`` on the written
document must exit 0, 1 or 2 and print no traceback.  Each call example
passes JSON-like values to a public constructor or function, which must
return or raise a ``QkdNetError``.  A refusal from the library API must
also print an over-long int by its size.

The examples are derandomized, so every run checks the same ones.  A
longer search draws more of them:

    QKDNET_FUZZ_EXAMPLES=5000 python -m pytest tests/test_robustness.py
"""

import contextlib
import copy
import io
import json
import os
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdnet.adversary import AdversaryConfig, AdversaryView, guessing_advantage
from qkdnet.cli import main
from qkdnet.errors import (
    OutOfRange,
    ParameterViolation,
    ParseError,
    QkdNetError,
    ValidationError,
)
from qkdnet.mac import impersonation_bound, reduction_polynomial
from qkdnet.network import NetworkGraph, PathSet, QkdLink, vertex_disjoint_paths
from qkdnet.protocol import SecurityParams
from qkdnet.sim import (
    clopper_pearson,
    dpa_uniformity_exact,
    exact_oracles,
    load_scenario,
    mac_forgery_exact,
    parity_miss_rate_exact,
    parity_miss_rate_tuple_enumeration,
    run_monte_carlo,
    share_privacy_exact,
)

ROOT = Path(__file__).resolve().parent.parent
DOCUMENTS = {path.relative_to(ROOT).as_posix(): path.read_text()
             for pattern in ("demos/scenarios/*.json", "perfbench/inputs/*.json")
             for path in sorted(ROOT.glob(pattern))}
EXAMPLES = int(os.environ.get("QKDNET_FUZZ_EXAMPLES", 300))

#: Replacement values: every JSON kind, the shipped node and strategy
#: names, and numbers at the edges the loader must refuse or accept.
POOL = [
    None, True, False, 0, 1, -1, 2, 3, 0.5, -0.0, 1.5, 1e308,
    float("inf"), float("nan"), 2**31, 2**64, "", "x", "alice", "bob",
    "a1", "n1", "passive", "drop_auth", [], ["alice"], ["alice", "alice"],
    {}, {"a": "alice", "b": "bob"},
]


def positions(node, path=()):
    """The path of every field and list entry below ``node``."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from positions(child, path + (key,))


def nudged(value):
    """Neighbours of ``value`` of the same JSON kind."""
    if isinstance(value, bool):
        return [not value]
    if isinstance(value, (int, float)):
        return [value + 1, value - 1, value * 2, -value, value + 0.5]
    if isinstance(value, str):
        return [value + "x", value[:-1], value.upper()]
    if isinstance(value, list):
        return [value[1:], value + value[:1], value[::-1]]
    if isinstance(value, dict):
        return [{**value, "extra": 1}, dict(list(value.items())[1:])]
    return [value]


@st.composite
def mutated_documents(draw):
    name = draw(st.sampled_from(sorted(DOCUMENTS)))
    doc = json.loads(DOCUMENTS[name])
    edits = []
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(positions(doc))))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        op = draw(st.sampled_from(["replace", "delete", "nudge"]))
        if op == "delete":
            del parent[path[-1]]
        else:
            choices = POOL if op == "replace" else nudged(parent[path[-1]])
            # a copy: a later edit may change it in place
            parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(choices)))
        edits.append((op, path))
    return name, edits, doc


def test_the_twelve_shipped_documents_run():
    assert len(DOCUMENTS) == 12
    for text in DOCUMENTS.values():
        run_monte_carlo(load_scenario(json.loads(text)), trials=3)


@settings(max_examples=EXAMPLES, derandomize=True, deadline=None)
@given(mutated_documents())
def test_mutated_document_runs_or_is_refused(tmp_path_factory, case):
    name, edits, doc = case
    try:
        scenario = load_scenario(doc)
    except (ParseError, ValidationError):
        pass
    else:
        try:
            run_monte_carlo(scenario, trials=3)
        except QkdNetError:
            pass
    path = tmp_path_factory.getbasetemp() / "fuzzed.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["run", "--scenario", str(path), "--trials", "3"])
    assert rc in (0, 1, 2), (name, edits, rc)
    assert "Traceback" not in err.getvalue(), (name, edits)


#: An int past the interpreter's 4300-digit int-to-str limit, and how a
#: refusal prints it.
HUGE = 10**5000
HUGE_TEXT = "<16610-bit int>"


def _view(share_bits, shares=()):
    view = AdversaryView(2, share_bits)
    for i, share in enumerate(shares):
        view.record_share(i, share)
    return view


#: Each call is refused before any work; only the argument named in the
#: id is over-long.
HUGE_CALLS = {
    "params_n": (lambda: SecurityParams(-HUGE, 16, 4, 2), ParameterViolation),
    "params_s": (lambda: SecurityParams(64, HUGE, 4, 2), ParameterViolation),
    "params_m": (lambda: SecurityParams(64, 16, HUGE, 2), ParameterViolation),
    "params_ell": (lambda: SecurityParams(64, 16, 4, HUGE), ParameterViolation),
    "impersonation_w": (lambda: impersonation_bound(-HUGE, 8), OutOfRange),
    "impersonation_message_bits": (lambda: impersonation_bound(4, -HUGE),
                                   OutOfRange),
    "clopper_pearson_successes": (lambda: clopper_pearson(HUGE, 10),
                                  ValidationError),
    "paths_count": (lambda: vertex_disjoint_paths(
        NetworkGraph({"a", "b"}, [QkdLink("a", "b")]), "a", "b", -HUGE),
        OutOfRange),
    "advantage_share_bits": (lambda: guessing_advantage(_view(-HUGE)),
                             OutOfRange),
    "advantage_known_share": (lambda: guessing_advantage(_view(4, [HUGE])),
                              OutOfRange),
    "forgery_w": (lambda: mac_forgery_exact(-HUGE, 4), OutOfRange),
    "forgery_message_bits": (lambda: mac_forgery_exact(2, -HUGE), OutOfRange),
    "reduction_polynomial": (lambda: reduction_polynomial(-HUGE),
                             ParameterViolation),
    "parity_miss_m": (lambda: parity_miss_rate_exact(4, -HUGE, 1),
                      ValidationError),
    "parity_tuples_m": (lambda: parity_miss_rate_tuple_enumeration(4, -HUGE, 1),
                        ValidationError),
    "dpa_key_bits": (lambda: dpa_uniformity_exact(-HUGE), ValidationError),
    "share_privacy_share": (lambda: share_privacy_exact(4, [HUGE, 0]),
                            OutOfRange),
}


@pytest.mark.parametrize("call,error", HUGE_CALLS.values(), ids=HUGE_CALLS)
def test_over_long_int_is_named_by_its_size(call, error):
    # printing the int itself raises a bare ValueError
    with pytest.raises(error, match=HUGE_TEXT):
        call()


#: Node and strategy names, so that some drawn calls are valid.
NAMES = ["a", "b", "x", "y", "passive", "tamper_shares", "forge_auth",
         "drop_auth"]
#: Ints past a width or count limit, which every call must refuse by
#: name or take in its stride (bools are drawn beside them).  Drawn by
#: index: Hypothesis cannot print a strategy that holds ``HUGE``.
EDGE_INTS = (-1, 2**31, 2**64, HUGE, -HUGE)
EDGES = st.sampled_from(range(len(EDGE_INTS))).map(EDGE_INTS.__getitem__)


def json_like(ints):
    """JSON-like values (None, bools, ``ints``, floats with NaN and
    infinities, strings, lists, dicts) nested up to five leaves."""
    scalars = (st.none() | st.booleans() | ints | st.floats()
               | st.text(max_size=3) | st.sampled_from(NAMES))
    return st.recursive(
        scalars,
        lambda inner: (st.lists(inner, max_size=3)
                       | st.dictionaries(st.text(max_size=3), inner,
                                         max_size=3)),
        max_leaves=5)


ANY = json_like(st.integers(-3, 300) | EDGES)
#: Path indices of a view's known shares: the hashable JSON scalars (a
#: view is a dict keyed by path index).
INDICES = (st.none() | st.booleans() | st.integers(-3, 300) | EDGES
           | st.floats() | st.text(max_size=3))


def advantage(n_paths, share_bits, shares):
    view = AdversaryView(n_paths, share_bits)
    for i, share in shares:
        view.record_share(i, share)
    return guessing_advantage(view)


def oracles(params, dpa_configs, oracle_seed):
    # a tuple (never drawn by json_like) is a SecurityParams's fields
    if isinstance(params, tuple):
        params = SecurityParams(*params)
    return exact_oracles(params, dpa_configs, oracle_seed)


#: The oracle instance's (n, s, m, ell) and clopper_pearson's trial
#: count are bounded so that a valid call takes milliseconds (test_bits
#: <= 10, trials <= 10^4); each still draws the refused edges.
SMALL = st.integers(-1, 14) | EDGES
#: A valid instance, built from (s, test_bits, m, ell), or any ints.
ORACLE_PARAMS = (st.tuples(st.sampled_from([2, 4]), st.integers(2, 10),
                           st.integers(1, 9), st.integers(2, 4)).map(
                     lambda p: (p[1] + 2 * p[0], p[0], min(p[2], p[1] - 1),
                                p[3]))
                 | st.tuples(SMALL, SMALL, SMALL, SMALL))
COUNTS = json_like(st.integers(-3, 10**4) | EDGES.filter(
    lambda n: not 10**4 < n <= 10**18))

CALLS = {
    "SecurityParams": (SecurityParams, st.tuples(ANY, ANY, ANY, ANY, ANY)),
    "QkdLink": (QkdLink, st.tuples(ANY, ANY, ANY, ANY)),
    "PathSet": (PathSet, st.tuples(
        ANY, ANY, st.lists(st.lists(ANY, max_size=4), max_size=3) | ANY)),
    "AdversaryConfig": (AdversaryConfig, st.tuples(
        st.lists(st.sampled_from(NAMES) | ANY, max_size=3) | ANY,
        st.lists(st.sampled_from(NAMES) | ANY, max_size=3) | ANY)),
    "guessing_advantage": (advantage, st.tuples(
        ANY, ANY, st.lists(st.tuples(INDICES, ANY), max_size=3))),
    "clopper_pearson": (clopper_pearson, st.tuples(
        json_like(st.integers(-3, 10**4) | EDGES), COUNTS)),
    "impersonation_bound": (impersonation_bound, st.tuples(ANY, ANY)),
    "exact_oracles": (oracles, st.tuples(
        ORACLE_PARAMS | ANY,
        st.integers(0, 100) | json_like(st.integers(-2, 100) | EDGES),
        st.integers(0, 2**32) | ANY)),
}


@settings(max_examples=EXAMPLES, derandomize=True, deadline=None)
@given(st.sampled_from(sorted(CALLS)).flatmap(
    lambda name: st.tuples(st.just(name), CALLS[name][1])))
def test_public_call_returns_or_is_refused(case):
    name, args = case
    try:
        CALLS[name][0](*args)
    except QkdNetError:
        pass
