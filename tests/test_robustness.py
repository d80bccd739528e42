"""Robustness fuzz: a mutated shipped document is run or refused by name.

Each example takes one of the twelve checked-in scenario documents
(``demos/scenarios`` and the benchmark's ``perfbench/inputs``, read
only) and replaces, deletes or nudges one to three of its fields.
``load_scenario`` plus a 3-trial ``run_monte_carlo`` must succeed or
raise a ``QkdNetError``, and ``qkdnet run`` on the written document
must exit 0, 1 or 2 and print no traceback.

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

from hypothesis import given, settings
from hypothesis import strategies as st

from qkdnet.cli import main
from qkdnet.errors import QkdNetError
from qkdnet.sim import load_scenario, run_monte_carlo

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
        run_monte_carlo(load_scenario(doc), trials=3)
    except QkdNetError:
        pass
    path = tmp_path_factory.getbasetemp() / "fuzzed.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["run", "--scenario", str(path), "--trials", "3"])
    assert rc in (0, 1, 2), (name, edits, rc)
    assert "Traceback" not in err.getvalue(), (name, edits)
