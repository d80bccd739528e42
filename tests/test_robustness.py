"""Robustness fuzz: a mutated shipped document is run or refused by name.

Each example takes one of the twelve checked-in scenario documents
(``demos/scenarios`` and the benchmark's ``perfbench/inputs``, read
only) and replaces, deletes or nudges one to three of its fields.
``load_scenario`` must load it or raise ``ParseError`` or
``ValidationError``, a 3-trial ``run_monte_carlo`` of what loads must
succeed or raise a ``QkdNetError``, and ``qkdnet run`` on the written
document must exit 0, 1 or 2 and print no traceback.  A refusal from
the library API must also print an over-long int by its size.

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

from qkdnet.adversary import AdversaryView, guessing_advantage
from qkdnet.cli import main
from qkdnet.errors import (
    OutOfRange,
    ParameterViolation,
    ParseError,
    QkdNetError,
    ValidationError,
)
from qkdnet.mac import impersonation_bound, reduction_polynomial
from qkdnet.network import NetworkGraph, QkdLink, vertex_disjoint_paths
from qkdnet.protocol import SecurityParams
from qkdnet.sim import (
    clopper_pearson,
    dpa_uniformity_exact,
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
