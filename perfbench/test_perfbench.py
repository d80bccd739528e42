"""Self-checks of the benchmark: inputs, recorded gates, exact per-trial
counts and the tracer.

    python3 -m pytest perfbench
"""

import dataclasses
import importlib.util
import json
from pathlib import Path

import pytest

import worker
from tracer import SPECS, Spec, Tracer, layer_metrics, unit_of
from workloads import C3_STRATEGIES, RECORDED, WORKLOADS, load_doc

ROOT = Path(__file__).resolve().parent.parent


def _acceptance_module():
    spec = importlib.util.spec_from_file_location(
        "_acceptance", ROOT / "tests" / "test_acceptance.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_criterion3_inputs_match_acceptance_documents():
    build = _acceptance_module().direct_plus_relays_doc
    for ell in (2, 3):
        for idx, strategy in enumerate(C3_STRATEGIES):
            expected = build(ell, strategies=(strategy,), corrupted=("a1",),
                             t=1, trials=100_000, seed=1000 * ell + idx)
            assert load_doc(f"criterion3_ell{ell}_{strategy}.json") == expected


def test_two_chains_input_matches_demo():
    demo = json.loads(
        (ROOT / "demos" / "scenarios" / "two_chains.json").read_text())
    assert load_doc("two_chains.json") == demo


def test_every_document_has_a_recorded_gate():
    docs = {d for wl in WORKLOADS.values() for d in wl.docs}
    assert docs == set(RECORDED)


@pytest.mark.parametrize("name", ["honest_chains", "criterion3_mix",
                                  "long_keys_w16", "oracles"])
def test_default_seed_passes_the_gate(name):
    runner = worker.make_runner(name, 0)
    assert runner.run_pass().failed == 0


def _traced(name, trials, specs=SPECS, passes=2):
    wl = WORKLOADS[name]
    runner = worker.MonteCarlo(dataclasses.replace(wl, trials=trials), 1)
    runner.run_pass()
    tracer, done, counts = worker.run_traced(runner, specs, 0, passes)
    assert all(p.failed == 0 for p in done)
    return tracer, counts, layer_metrics(tracer, runner.root_span)


@pytest.mark.parametrize("name,hops,hashes,multiplies", [
    ("honest_chains", 18, 22, 248),
    ("long_keys_w16", 21, 25, 1922),
])
def test_exact_counts_per_trial(name, hops, hashes, multiplies):
    _, counts, m = _traced(name, trials=8)
    assert counts[0] == counts[1]
    assert m["transport.hops_per_trial"] == hops
    assert m["mac.hash_calls_per_trial"] == hashes
    assert m["mac.hash_blocks_per_trial"] == multiplies
    assert m["sim.guessing_advantage_calls"] == 0
    assert m["protocol.distill_calls_per_trial"] == 2


def test_criterion3_counts_repeat_and_adversary_is_busy():
    _, counts, m = _traced("criterion3_mix", trials=4)
    assert counts[0] == counts[1]
    assert m["adversary.intercepts_per_trial"] > 0
    assert m["sim.guessing_advantage_calls"] == 0


def test_missing_boundary_is_reported_not_fatal():
    specs = tuple(
        dataclasses.replace(s, targets=(("qkdnet.transport", "_gone"),))
        if s.span == "transport.hop" else s
        for s in SPECS
    )
    tracer, _, m = _traced("honest_chains", trials=2, specs=specs)
    assert tracer.missing == ["transport.hop"]
    assert m["transport.hop_us.p50"] is None
    assert m["transport.hops_per_trial"] is None
    assert m["transport.share"] is None
    assert m["mac.hash_calls_per_trial"] == 22


def test_uninstall_restores_every_name():
    from qkdnet import bits, sim, transport

    before = (sim.full_session, transport._hop_transfer,
              transport.LinkKeyPool.__dict__["take"],
              bits.BitString.__dict__["from_int"])
    tracer = Tracer(SPECS + (Spec("x", "sim", ((sim, "no_such_name"),)),))
    tracer.install()
    assert sim.full_session is not before[0]
    tracer.uninstall()
    after = (sim.full_session, transport._hop_transfer,
             transport.LinkKeyPool.__dict__["take"],
             bits.BitString.__dict__["from_int"])
    assert after == before
    assert tracer.missing == ["x"]


def test_benchmark_json_lists_every_layer_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    _, _, m = _traced("honest_chains", trials=2)
    produced = set(m) | set(worker.EXTRA_LAYER_METRICS) | {
        "setup.import_s", "setup.load_ms", "network.paths_ms",
        "setup.first_trial_ms"}
    declared = {x["name"]: x["unit"] for x in bench["per_layer"]}
    assert set(declared) == produced
    assert all(unit_of(name) == unit for name, unit in declared.items())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in bench["workloads"]] == [
        w.why for w in WORKLOADS.values()]
