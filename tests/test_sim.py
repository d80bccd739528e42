import contextlib
import hashlib
import itertools
import json
import math
import random
import sys
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path
from statistics import NormalDist
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdnet import protocol, sim
from qkdnet.adversary import DEFAULT_STRATEGIES, AdversaryConfig
from qkdnet.cli import main
from qkdnet.errors import (
    OutOfRange,
    ParameterViolation,
    ParseError,
    TooLarge,
    ValidationError,
)
from qkdnet.network import PathSet, QkdLink, vertex_disjoint_paths
from qkdnet.protocol import (
    EVENTS,
    MAX_WORD_BITS,
    SecurityParams,
    SessionOutcome,
    _decode_challenge,
    _key_parts,
    _make_challenge,
    _verify_challenge,
    full_session,
)
from qkdnet.sim import (
    CONFIDENCE,
    EXACT_LIMIT_BITS,
    MonteCarloRun,
    Stats,
    TrialResult,
    _forgery_messages,
    aggregate,
    check_bounds,
    clopper_pearson,
    derive_trial_seed,
    dpa_uniformity_exact,
    emit_report,
    exact_oracles,
    load_scenario,
    mac_forgery_exact,
    parity_miss_rate_exact,
    parity_miss_rate_tuple_enumeration,
    run_monte_carlo,
    run_trial,
    share_privacy_exact,
)

ROOT = Path(__file__).resolve().parent.parent


def session_outcome(result, result_prime, keys_equal, final_key_a,
                    final_key_b, trash_a, trash_b):
    """A ``SessionOutcome`` with these verdicts and final keys, and no
    wire copies."""
    return SessionOutcome(result, result_prime, keys_equal, final_key_a,
                          final_key_b, trash_a, trash_b, (), (), None, None,
                          None)


def two_chains_doc(**overrides):
    doc = {
        "name": "two-chains",
        "nodes": ["alice", "n1", "n2", "n3", "n4", "bob"],
        "links": [
            {"a": "alice", "b": "n1"}, {"a": "n1", "b": "n2"},
            {"a": "n2", "b": "bob"},
            {"a": "alice", "b": "n3"}, {"a": "n3", "b": "n4"},
            {"a": "n4", "b": "bob"},
        ],
        "endpoints": ["alice", "bob"],
        "params": {"n": 64, "s": 16, "m": 4, "ell": 2, "w": 8},
        "trials": 20,
        "seed": 7,
    }
    doc.update(overrides)
    return doc


def with_first_link(**fields):
    doc = two_chains_doc()
    doc["links"][0].update(fields)
    return doc


#: Documents the loader refuses by a fact no session reads, with the
#: refusal's message.
REFUSED = {
    "corrupted_endpoint": (
        two_chains_doc(adversary={"corrupted": ["alice"], "t": 1}),
        "endpoints cannot be corrupted: ['alice']"),
    "t_below_corrupted_count": (
        two_chains_doc(adversary={"corrupted": ["n1", "n2", "n1"], "t": 1}),
        "2 corrupted nodes exceed t=1"),
    "negative_t": (two_chains_doc(adversary={"corrupted": [], "t": -1}),
                   "adversary 't' must be >= 0, got -1"),
    "negative_distance": (with_first_link(distance_km=-1),
                          "distance_km must be >= 0, got -1.0"),
    "nan_distance": (with_first_link(distance_km=math.nan),
                     "distance_km must be >= 0, got nan"),
}


class TestLoadScenario:
    def test_two_chains_document(self):
        sc = load_scenario(two_chains_doc())
        assert sc.params.ell == 2
        assert sc.a == "alice" and sc.b == "bob"
        # no adversary block: the empty adversary, see test_cli's
        # test_no_adversary_forms
        assert sc.adversary == load_scenario(
            two_chains_doc(adversary={"corrupted": []})).adversary
        assert len(sc.graph.links) == 6

    def test_accepts_str_and_path(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(two_chains_doc()))
        assert load_scenario(str(path)).name == "two-chains"
        assert load_scenario(path).name == "two-chains"

    def test_parse_error_on_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_scenario(path)

    def test_m_constraint_violation(self):
        doc = two_chains_doc(params={"n": 64, "s": 16, "m": 32, "ell": 2, "w": 8})
        with pytest.raises(ValidationError, match="m < n - 2s"):
            load_scenario(doc)

    def test_unknown_corrupted_node(self):
        doc = two_chains_doc(adversary={"corrupted": ["ghost"], "t": 1})
        with pytest.raises(ValidationError):
            load_scenario(doc)

    def test_endpoint_corruption_rejected(self):
        doc = two_chains_doc(adversary={"corrupted": ["alice"], "t": 1})
        with pytest.raises(ValidationError, match="endpoints cannot be corrupted"):
            load_scenario(doc)

    @pytest.mark.parametrize("doc,message", REFUSED.values(), ids=REFUSED)
    def test_refused_document_exits_2(self, tmp_path, capsys, doc, message):
        with pytest.raises(ValidationError) as refusal:
            load_scenario(doc)
        assert str(refusal.value) == message
        path = tmp_path / "refused.json"
        path.write_text(json.dumps(doc))   # NaN is written as NaN
        assert main(["run", "--scenario", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_document_only_fields_are_not_kept(self):
        # t may equal the distinct corrupted count; neither it nor a
        # link's distance_km reaches the records
        doc = two_chains_doc(adversary={"corrupted": ["n1", "n2", "n1"],
                                        "t": 2})
        doc["links"][0]["distance_km"] = 0.0
        sc = load_scenario(doc)
        assert sc.adversary == AdversaryConfig(frozenset({"n1", "n2"}))
        assert sc.graph.link_between("alice", "n1") == QkdLink("alice", "n1")

    def test_insufficient_paths(self):
        doc = two_chains_doc(params={"n": 64, "s": 16, "m": 4, "ell": 3, "w": 8})
        with pytest.raises(ValidationError, match="disjoint paths"):
            load_scenario(doc)

    def test_inconsistent_w(self):
        doc = two_chains_doc(params={"n": 64, "s": 16, "m": 4, "ell": 2, "w": 4})
        with pytest.raises(ValidationError, match="s = 2w"):
            load_scenario(doc)

    @pytest.mark.parametrize("s", [130, 2**20])
    def test_word_size_past_the_bound_refused(self, s):
        # w = s/2 > 64: the first MAC call would search for a degree-w
        # reduction polynomial (1.45 s at w = 256)
        doc = two_chains_doc(params={"n": 2 * s + 8, "s": s, "m": 4, "ell": 2})
        with pytest.raises(ValidationError, match=r"s must be even and in \[2, 128\]"):
            load_scenario(doc)

    def test_largest_word_size_loads(self):
        doc = two_chains_doc(params={"n": 264, "s": 128, "m": 4, "ell": 2})
        assert load_scenario(doc).params.word_bits == MAX_WORD_BITS == 64

    def test_missing_field(self):
        doc = two_chains_doc()
        del doc["endpoints"]
        with pytest.raises(ValidationError, match="endpoints"):
            load_scenario(doc)

    @pytest.mark.parametrize("corrupted", [["n1", "n3"], ["n2", "n4"]])
    def test_every_path_controlled_rejected(self, corrupted):
        # both bounds assume at most ell-1 controlled paths
        doc = two_chains_doc(adversary={"corrupted": corrupted, "t": 2})
        with pytest.raises(ValidationError,
                           match="corrupted relays sit on all 2 paths"):
            load_scenario(doc)

    @pytest.mark.parametrize("path", sorted(
        p.relative_to(ROOT) for folder in ("demos/scenarios", "perfbench/inputs")
        for p in (ROOT / folder).glob("*.json")
    ), ids=str)
    def test_shipped_documents_load(self, path):
        # strict key checking must accept every checked-in document
        assert load_scenario(ROOT / path).trials >= 1

    def test_strategies_default_and_empty_list(self):
        # an omitted list reads the one default and an empty one reads
        # as given; both run as passive, with the same trial records
        adv = {"corrupted": ["n1"], "t": 1}
        default = load_scenario(two_chains_doc(adversary=adv))
        empty = load_scenario(two_chains_doc(adversary={**adv,
                                                        "strategies": []}))
        assert default.adversary.strategies == DEFAULT_STRATEGIES
        assert AdversaryConfig().strategies == DEFAULT_STRATEGIES
        assert empty.adversary.strategies == ()
        seeds = [derive_trial_seed(0, i) for i in range(20)]
        assert ([run_trial(default, s) for s in seeds]
                == [run_trial(empty, s) for s in seeds])

    @pytest.mark.parametrize("epsilon", [0.0, 0.04, 0.05, 0.5])
    def test_understated_epsilon_rejected(self, epsilon):
        # the session's epsilon is the links' epsilon: a params value is
        # refused whether it is below the leakiest link's or not
        doc = two_chains_doc()
        doc["params"]["epsilon"] = epsilon
        doc["links"][4]["epsilon"] = 0.05
        with pytest.raises(ValidationError,
                           match="^unknown field 'epsilon' in params$"):
            load_scenario(doc)

    @pytest.mark.parametrize("epsilon,expected", [
        (None, 0.05), (0.05, 0.05), (0.5, 0.5)])
    def test_epsilon_at_least_every_link_accepted(self, epsilon, expected):
        # the session's epsilon is the largest link epsilon; ``epsilon``
        # is a third link's, None where that link omits it
        doc = two_chains_doc()
        if epsilon is not None:
            doc["links"][2]["epsilon"] = epsilon
        doc["links"][1]["epsilon"] = 0.05
        doc["links"][4]["epsilon"] = 0.01
        assert load_scenario(doc).params.epsilon == expected

    def test_epsilon_is_zero_without_link_epsilon(self):
        assert load_scenario(two_chains_doc()).params.epsilon == 0.0

    @pytest.mark.parametrize("endpoints", [["alice", "zed"], ["bob", "bob"]],
                             ids=["outside_graph", "equal"])
    def test_endpoint_refused(self, endpoints):
        with pytest.raises(ValidationError,
                           match="^endpoints .*must be (distinct|graph nodes)"):
            load_scenario(two_chains_doc(endpoints=endpoints))

    def test_dead_link_breaks_connectivity(self):
        doc = two_chains_doc()
        doc["links"][0]["alive"] = False
        with pytest.raises(ValidationError, match="disjoint paths"):
            load_scenario(doc)


#: Every field of each scenario object with its kind, written out here
#: rather than read from ``sim._FIELDS`` so that a new field cannot skip
#: the sweep below.
FIELD_KINDS = {
    "scenario": {"name": "string", "nodes": "strings", "links": "list",
                 "endpoints": "strings", "params": "object",
                 "adversary": "object_or_null", "trials": "integer",
                 "seed": "integer"},
    "params": {"n": "integer", "s": "integer", "m": "integer",
               "ell": "integer", "w": "integer"},
    "link": {"a": "string", "b": "string", "distance_km": "number",
             "epsilon": "number", "alive": "bool"},
    "adversary": {"corrupted": "strings", "t": "integer",
                  "strategies": "strings"},
}
REQUIRED_FIELDS = {"scenario": {"nodes", "links", "endpoints", "params"},
                   "params": {"n", "s", "m", "ell"}, "link": {"a", "b"},
                   "adversary": set()}
#: One JSON value of each JSON type, with the field kinds that accept it.
JSON_VALUES = [
    (None, {"object_or_null"}), (True, {"bool"}), (2, {"integer", "number"}),
    (1.5, {"number"}), ("x", {"string"}), ([], {"list", "strings"}),
    ({}, {"object", "object_or_null"}),
]
ALL_FIELDS = [(where, field) for where, fields in FIELD_KINDS.items()
              for field in fields]


def full_doc():
    """The two-chains document with every field of every object given."""
    doc = two_chains_doc(adversary={"corrupted": ["n1"], "t": 1,
                                    "strategies": ["passive"]})
    doc["links"][0].update(distance_km=1.0, epsilon=0.0, alive=True)
    return doc


def readme_example():
    """The scenario document of README's "Scenario format" section."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## Scenario format\n", 1)[1]
    return json.loads(block.split("```json\n", 1)[1].split("```", 1)[0])


def object_of(doc, where):
    return {"scenario": doc, "params": doc["params"],
            "link": doc["links"][0], "adversary": doc["adversary"]}[where]


class TestFieldTable:
    def test_table_lists_every_field(self):
        assert {where: {field: kind for field, (kind, _) in fields.items()}
                for where, fields in sim._FIELDS.items()} == FIELD_KINDS
        assert {where: {field for field, (_, default) in fields.items()
                        if default is sim._REQUIRED}
                for where, fields in sim._FIELDS.items()} == REQUIRED_FIELDS

    def test_readme_example_shows_every_field(self):
        # README says a key "not shown above" is refused, so its scenario
        # example must name exactly the accepted keys of each object
        example = readme_example()
        assert {where: set(object_of(example, where))
                for where in sim._FIELDS} == {
            where: set(fields) for where, fields in sim._FIELDS.items()}

    def test_readme_example_loads(self):
        # the documented example is a scenario that runs and passes
        run = run_monte_carlo(load_scenario(readme_example()), trials=50)
        assert run.stats.verdict == "PASS"

    @pytest.mark.parametrize("where,field", ALL_FIELDS)
    def test_wrong_kind_names_the_field(self, where, field):
        kind = FIELD_KINDS[where][field]
        label = repr(field) if where == "scenario" else f"{where} {field!r}"
        for value, kinds in JSON_VALUES:
            if kind in kinds:
                continue
            doc = full_doc()
            object_of(doc, where)[field] = value
            with pytest.raises(ValidationError) as info:
                load_scenario(doc)
            assert label in str(info.value), value

    @pytest.mark.parametrize("where,field", ALL_FIELDS)
    def test_omitted_field(self, where, field):
        doc = full_doc()
        del object_of(doc, where)[field]
        if field in REQUIRED_FIELDS[where]:
            with pytest.raises(ValidationError,
                               match=f"^missing field '{field}' in {where}$"):
                load_scenario(doc)
        else:
            load_scenario(doc)


class TestSeedDerivation:
    def test_deterministic_and_distinct(self):
        seeds = [derive_trial_seed(42, i) for i in range(100)]
        assert seeds == [derive_trial_seed(42, i) for i in range(100)]
        assert len(set(seeds)) == 100

    def test_master_seed_matters(self):
        assert derive_trial_seed(1, 0) != derive_trial_seed(2, 0)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_over_long_seed_named_at_load(self, sign):
        # derive_trial_seed writes the seed in decimal, which Python
        # refuses past sys.get_int_max_str_digits() digits
        with pytest.raises(ValidationError, match="^seed must have at most"):
            load_scenario(two_chains_doc(seed=sign * 10**5000))

    @pytest.mark.parametrize("sign", [1, -1])
    def test_over_long_seed_override_named(self, sign):
        sc = load_scenario(two_chains_doc())
        with pytest.raises(ValidationError, match="^seed must have at most"):
            run_monte_carlo(sc, trials=1, seed=sign * 10**5000)

    def test_longest_printable_seed_derives_as_before(self):
        seed = int("9" * sys.get_int_max_str_digits())
        sc = load_scenario(two_chains_doc(seed=seed))
        expected = hashlib.sha256(f"qkdnet:{seed}:0".encode()).digest()[:8]
        for run in (run_monte_carlo(sc, trials=1),
                    run_monte_carlo(load_scenario(two_chains_doc()),
                                    trials=1, seed=seed)):
            assert run.master_seed == seed
            assert run.results[0].seed == int.from_bytes(expected, "big")


class TestRunTrial:
    def test_honest_trial_succeeds(self):
        sc = load_scenario(two_chains_doc())
        r = run_trial(sc, derive_trial_seed(sc.seed, 0))
        assert r.result == 1 and r.result_prime == 1
        assert r.keys_equal and r.succeeded
        assert r.failure_tags == ()
        assert r.final_key_len is not None
        assert sc.params.test_bits - sc.params.m <= r.final_key_len

    def test_final_keys_compare_value_and_width(self):
        # Final keys are integers of test_bits - len(trash) bits: equal
        # values of different widths (an accepted forged challenge gives
        # the two sides different trash sets) are still a mismatch.
        def outcome(trash_b):
            return session_outcome(1, 1, True, 0b1, 0b1, frozenset({1}),
                                   trash_b)

        assert outcome(frozenset({2})).events == ()
        assert outcome(frozenset({1, 2})).events == ("final_key_mismatch",)

    @pytest.mark.parametrize(
        "result,result_prime,keys_equal,finals_equal,trash_equal",
        itertools.product((0, 1), (0, 1), *[(False, True)] * 3))
    def test_events_and_success_truth_table(self, result, result_prime,
                                            keys_equal, finals_equal,
                                            trash_equal):
        # A distills only when it accepts (result' = 1), B only when it
        # accepts (result = 1); the expected values are the README's
        # definitions, written out.
        final_a = final_b = trash_a = trash_b = None
        if result_prime:
            final_a, trash_a = 0b101, frozenset({1})
        if result:
            final_b = 0b101 if finals_equal else 0b100
            trash_b = frozenset({2}) if trash_equal else frozenset({2, 3})
        out = session_outcome(result, result_prime, keys_equal, final_a,
                              final_b, trash_a, trash_b)
        expected = {
            "parity_miss": result == 1 and not keys_equal,
            "challenge_rejected": result == 0 and keys_equal,
            "response_mismatch": result != result_prime,
            "final_key_mismatch": (result == result_prime == 1
                                   and not (finals_equal and trash_equal)),
        }
        assert out.events == tuple(e for e in EVENTS if expected[e])
        assert out.succeeded == (result == result_prime == int(keys_equal))

    @pytest.mark.parametrize("a,b", [("n1", "n3"), ("bob", "alice")])
    def test_path_override_between_other_endpoints_rejected(self, a, b):
        sc = load_scenario(two_chains_doc())
        paths = vertex_disjoint_paths(sc.graph, a, b, 2)
        state = sim._TRIAL_RNG.getstate()
        with pytest.raises(ParameterViolation,
                           match=f"paths run {a}->{b}, the scenario alice->bob"):
            run_trial(sc, 1, paths=paths)
        assert sim._TRIAL_RNG.getstate() == state

    def test_path_override_between_the_endpoints_runs(self):
        # the scenario's own paths, in the other order: same endpoints
        sc = load_scenario(two_chains_doc())
        flipped = PathSet(sc.paths.a, sc.paths.b, sc.paths.paths[::-1])
        assert run_trial(sc, 1, paths=flipped).succeeded

    def test_replay_is_identical(self):
        sc = load_scenario(two_chains_doc())
        seed = derive_trial_seed(sc.seed, 3)
        assert run_trial(sc, seed, index=3) == run_trial(sc, seed, index=3)

    def test_trial_does_not_depend_on_what_ran_before(self, monkeypatch,
                                                      forwarded_shares):
        # A record is a function of its seed alone: trial order, trials of
        # another scenario and sessions on an outside generator in between
        # change nothing, and each record is what one session on a fresh
        # ``random.Random(seed)`` gives.  Every tamper record here reads
        # "rejected", so the sessions' wire data is compared as well.
        _, received = forwarded_shares

        def wire(out):
            # ``out`` is the last session, so B's shares are the last ones
            return (received[-out.view.n_paths:], out.challenge_copies,
                    out.response_copies, out.final_key_a, out.final_key_b,
                    out.trash_a, out.trash_b, out.view.leaked_epochs)

        sessions = []

        def session(*args, **kwargs):
            sessions.append(full_session(*args, **kwargs))
            return sessions[-1]

        monkeypatch.setattr(sim, "full_session", session)
        tamper = load_scenario(
            ROOT / "perfbench" / "inputs" / "criterion3_ell3_tamper_shares.json")
        chains = load_scenario(ROOT / "demos" / "scenarios" / "two_chains.json")
        seeds = [derive_trial_seed(tamper.seed, i) for i in range(20)]

        def trial(i):
            record = run_trial(tamper, seeds[i], index=i)
            return record, wire(sessions[-1])

        in_order = [trial(i) for i in range(20)]
        backwards = {i: trial(i) for i in reversed(range(20))}
        outside = random.Random(5)
        mixed = []
        for i in range(20):
            run_trial(chains, derive_trial_seed(chains.seed, i), index=i)
            full_session(chains.graph, chains.paths, chains.params,
                         chains.adversary, outside)
            mixed.append(trial(i))
        assert in_order == [backwards[i] for i in range(20)] == mixed
        tb = tamper.params.test_bits
        for (r, got), s in zip(in_order, seeds):
            out = full_session(tamper.graph, tamper.paths, tamper.params,
                               tamper.adversary, random.Random(s))
            trash = out.trash_a
            assert (r.seed, r.result, r.result_prime, r.keys_equal,
                    r.succeeded, r.final_key_len, r.trash_size,
                    r.leaked_epochs, r.failure_tags) == (
                s, out.result, out.result_prime, out.keys_equal,
                out.succeeded, None if trash is None else tb - len(trash),
                None if trash is None else len(trash),
                out.view.leaked_epochs, out.events)
            assert got == wire(out)

    def test_tamper_strategy_mostly_detected(self):
        doc = two_chains_doc(adversary={
            "corrupted": ["n1"], "t": 1, "strategies": ["tamper_shares"],
        })
        sc = load_scenario(doc)
        detected = 0
        for i in range(200):
            r = run_trial(sc, derive_trial_seed(1, i), index=i)
            assert not r.keys_equal
            detected += r.result == 0
        # miss rate is 2^-4; expect ~187 detections, allow slack
        assert detected >= 170


class TestClopperPearson:
    def test_boundary_closed_forms(self):
        # Independent closed forms at k=0 and k=n.
        n = 50
        alpha = 0.01
        low, high = clopper_pearson(0, n)
        assert low == 0.0
        assert high == pytest.approx(1 - (alpha / 2) ** (1 / n), rel=1e-9)
        low, high = clopper_pearson(n, n)
        assert high == 1.0
        assert low == pytest.approx((alpha / 2) ** (1 / n), rel=1e-9)

    def test_interval_contains_point_estimate(self):
        for k, n in [(1, 10), (5, 10), (73, 100), (999, 1000)]:
            low, high = clopper_pearson(k, n)
            assert low <= k / n <= high

    @pytest.mark.parametrize("k,n,confidence,expected", [
        (0, 1, 0.99, (0.0, 0.995)),
        (1, 1, 0.99, (0.005000000000000006, 1.0)),
        (3, 10, 0.99, (0.037007221096232105, 0.7351139852871307)),
        # the high Wilson start rounds to 1 (the start guard takes the edge)
        (10**15 - 1, 10**15, 0.99, (0.9999999999999926, 0.9999999999999999)),
        (0, 100000, 0.99, (0.0, 5.2981770081923407e-05)),
        (100000, 100000, 0.99, (0.999947018229918, 1.0)),
        (7, 100000, 0.99, (2.037377846344629e-05, 0.0001713272515971727)),
        (99123, 100000, 0.99, (0.990441776329295, 0.9919710685142383)),
        # the low Wilson start rounds to 1: without the start guard,
        # p = 1 divides by zero
        (10**17 - 1, 10**17, 0.99, (0.9999999999999999, 0.9999999999999999)),
        # the low endpoint's edge rounds to 1: kept below 1 like the high
        # one's, else p = 1 divides by zero; 1 - 5.3e-17 rounds to 1,
        # mirroring (0.0, 5.3e-17) at k = 0
        (10**17, 10**17, 0.99, (1.0, 1.0)),
        (10**18, 10**18, 0.99, (1.0, 1.0)),
    ])
    def test_pinned_endpoints(self, k, n, confidence, expected):
        # Exact floats of the in-house root finder at the level each row
        # names, within the accuracy contract that the two tests below
        # check; summary.json prints these endpoints, so replay depends
        # on every bit.
        assert confidence == CONFIDENCE
        assert clopper_pearson(k, n) == expected

    def test_z_is_the_normal_quantile_of_the_level(self):
        # the Wilson start's z is a literal that must stay this quantile
        assert sim._Z == -NormalDist().inv_cdf((1.0 - CONFIDENCE) / 2)

    @staticmethod
    def _tail(k, n, p, upper):
        # exact P[Bin(n, p) >= k] (upper) or P[Bin(n, p) <= k]
        p = Fraction(p)
        js = range(k, n + 1) if upper else range(k + 1)
        return sum(math.comb(n, j) * p ** j * (1 - p) ** (n - j) for j in js)

    @pytest.mark.parametrize("confidence", [CONFIDENCE])
    @pytest.mark.parametrize("n", list(range(1, 13)) + [20, 40])
    def test_exact_tail_brackets_alpha_within_16_ulps(self, n, confidence):
        # The exact rational tail crosses alpha/2 between endpoint -/+ 16
        # ulps.  scipy's betaincinv misses this by up to 43 ulps (low
        # endpoint, n = 20) and 22 ulps (high endpoint).
        half = Fraction(1.0 - confidence) / 2
        for k in range(n + 1):
            low, high = clopper_pearson(k, n)
            for x, upper, closed in ((low, True, k == 0),
                                     (high, False, k == n)):
                if closed:
                    continue
                u = 16 * math.ulp(x)
                a, b = self._tail(k, n, x - u, upper), self._tail(k, n, x + u, upper)
                assert min(a, b) <= half <= max(a, b), (k, n, confidence, x)

    def test_matches_betaincinv_on_a_grid(self):
        # scipy is a test-only dependency (the "test" extra)
        from scipy import special
        alpha = 1.0 - CONFIDENCE
        for n in (13, 50, 100, 250, 1000, 2000, 10000, 100000):
            for k in sorted({0, 1, 2, n // 100, n // 10, n // 3, n // 2,
                             n - n // 10, n - n // 100, n - 2, n - 1, n}):
                low, high = clopper_pearson(k, n)
                ref_low = 0.0 if k == 0 else float(
                    special.betaincinv(k, n - k + 1, alpha / 2))
                ref_high = 1.0 if k == n else float(
                    special.betaincinv(k + 1, n - k, 1 - alpha / 2))
                assert low == pytest.approx(ref_low, rel=1e-12, abs=0)
                assert high == pytest.approx(ref_high, rel=1e-12, abs=0)

    @pytest.mark.parametrize("k,n", [(5, 4), (-1, 4)])
    def test_out_of_range_arguments_rejected(self, k, n):
        # no finite interval answers these
        with pytest.raises(ValidationError, match="successes must be in"):
            clopper_pearson(k, n)

    @pytest.mark.parametrize("k,n", [
        (True, 4), (1, True), (False, 1), (1.0, 4), (1, 4.0), ("1", 4),
        (None, 4), (np.int64(1), 4),
    ])
    def test_non_integer_counts_rejected(self, k, n):
        with pytest.raises(ValidationError, match="must be an integer"):
            clopper_pearson(k, n)


def bounds_from_formula(n, s, m, ell, epsilon=0.0):
    """(p_im, agreement, privacy) as Fractions, written out from the
    paper's formulas: p_im = L/2^w (at most 1) for the m*(n-2s+1)-bit
    challenge, L its w-bit blocks plus the length block."""
    w = s // 2
    blocks = -(-m * (n - 2 * s + 1) // w) + 1
    p_im = min(Fraction(blocks, 2 ** w), Fraction(1))
    eps = Fraction(epsilon)
    agreement = (1 - eps) * (1 - Fraction(1, 2 ** m)) * (1 - p_im) ** (2 * ell - 2)
    privacy = Fraction(1, 2 ** m) + 2 * ell * p_im + 2 * eps
    return p_im, agreement, privacy


class TestCheckBounds:
    def test_frozen_example(self):
        # w = 8, a 132-bit challenge: p_im = 18/256, and every float
        # operation is exact
        p_im, agreement, privacy = check_bounds(
            SecurityParams(n=64, s=16, m=4, ell=2))
        assert p_im == 18 / 256
        assert Fraction(agreement) == Fraction(15, 16) * Fraction(238, 256) ** 2
        assert privacy == 1 / 16 + 4 * 18 / 256 == 0.34375

    def test_epsilon_one_kills_agreement(self):
        params = SecurityParams(n=64, s=16, m=4, ell=2, epsilon=1.0)
        _, agreement, privacy = check_bounds(params)
        assert agreement == 0.0
        assert privacy == pytest.approx(2.34375, rel=1e-15)

    @pytest.mark.parametrize("point", [
        dict(n=64, s=16, m=4, ell=2),
        dict(n=64, s=16, m=4, ell=3, epsilon=0.01),
        dict(n=96, s=16, m=8, ell=2),
        dict(n=256, s=32, m=16, ell=5, epsilon=1e-6),
        dict(n=160, s=64, m=30, ell=2),
        dict(n=11, s=4, m=2, ell=2),        # p_im clamps to 1
        dict(n=64, s=16, m=4, ell=100),
    ])
    def test_each_value_follows_the_formula(self, point):
        got = check_bounds(SecurityParams(**point))
        for value, exact in zip(got, bounds_from_formula(**point)):
            assert value == pytest.approx(float(exact), rel=1e-12, abs=0)

    def test_limits(self):
        # w = 32 and m = 30: the 990-bit challenge is 31 content blocks
        # plus the length block, p_im = 32/2^32, and both figures
        # approach their limits
        p_im, agreement, privacy = check_bounds(
            SecurityParams(n=160, s=64, m=30, ell=2))
        assert p_im == 2.0 ** -27
        assert 1.0 - 2.0 ** -25 < agreement < 1.0
        assert privacy == 2.0 ** -30 + 2.0 ** -25

    def test_monotonicity(self):
        def figures(**changes):
            point = dict(n=64, s=16, m=4, ell=2, epsilon=0.0) | changes
            return check_bounds(SecurityParams(**point))

        def monotone(rows, column, sign):
            values = [row[column] for row in rows]
            return all(sign * (b - a) >= 0 for a, b in zip(values, values[1:]))

        # epsilon and ell leave p_im alone; agreement falls, privacy rises
        for rows in ([figures(epsilon=e) for e in (0.0, 0.1, 0.5, 1.0)],
                     [figures(ell=ell) for ell in (2, 3, 5, 9)]):
            assert monotone(rows, 0, 0)
            assert monotone(rows, 1, -1) and monotone(rows, 2, 1)
        # a longer remainder lengthens the challenge: p_im rises
        rows = [figures(n=n) for n in (64, 96, 128, 256)]
        assert monotone(rows, 0, 1) and rows[0][0] < rows[-1][0]
        assert monotone(rows, 1, -1) and monotone(rows, 2, 1)

    def test_protocol_p_im_uses_challenge_length(self):
        params = SecurityParams(n=64, s=16, m=4, ell=2)
        # challenge is 4*33=132 bits; 17 content blocks + length block
        assert check_bounds(params)[0] == 18 / 256


class TestRunMonteCarlo:
    def test_honest_run_passes(self):
        sc = load_scenario(two_chains_doc())
        run = run_monte_carlo(sc)
        assert run.stats.empirical == 1.0
        assert run.stats.verdict == "PASS"
        assert len(run.results) == sc.trials

    def test_single_trial_flagged_degenerate(self):
        sc = load_scenario(two_chains_doc(trials=1))
        run = run_monte_carlo(sc)
        assert run.stats.degenerate

    def test_reproducible(self):
        sc = load_scenario(two_chains_doc())
        a = run_monte_carlo(sc)
        b = run_monte_carlo(sc)
        assert a.results == b.results and a.stats == b.stats

    def test_aggregate_order_invariant(self):
        sc = load_scenario(two_chains_doc(adversary={
            "corrupted": ["n1"], "t": 1, "strategies": ["tamper_shares"],
        }, trials=60))
        run = run_monte_carlo(sc)
        shuffled = list(run.results)
        random.Random(5).shuffle(shuffled)
        assert aggregate(shuffled, sc.params) == run.stats

    @pytest.mark.parametrize("params,epsilon", [
        ({"n": 16, "s": 4, "m": 2, "ell": 2, "w": 2}, 0.0),   # p_im = 1
        ({"n": 64, "s": 16, "m": 4, "ell": 2, "w": 8}, 0.5),  # privacy >= 1
    ])
    def test_vacuous_bound_never_passes(self, params, epsilon):
        # ``epsilon`` is every link's
        links = [{**link, "epsilon": epsilon}
                 for link in two_chains_doc()["links"]]
        sc = load_scenario(two_chains_doc(params=params, links=links, trials=5))
        st = run_monte_carlo(sc).stats
        assert st.agreement_bound <= 0 or st.privacy_bound >= 1
        assert st.successes == 5   # every honest session agreed
        assert st.verdict == "VACUOUS" and not st.passed

    def test_accepted_forgery_rate_within_privacy_figure(self):
        # Mutually-accepted sessions whose final keys differ require an
        # accepted forged challenge; their frequency stays below the
        # 2^-m + 2*ell*p_im figure with room to spare.
        sc = load_scenario(two_chains_doc(adversary={
            "corrupted": ["n1"], "t": 1, "strategies": ["forge_auth"],
        }, trials=5000))
        st = run_monte_carlo(sc).stats
        mismatches = st.events[EVENTS.index("final_key_mismatch")]
        assert mismatches / 5000 <= st.privacy_bound

    def test_stats_count_each_event_of_the_records(self):
        # Stats.events is the per-record count of each event; this run
        # shows a parity miss and a one-sided verdict
        sc = load_scenario(two_chains_doc(adversary={
            "corrupted": ["n1"], "t": 1, "strategies": ["tamper_shares"],
        }, trials=2000, seed=3))
        run = run_monte_carlo(sc)
        counted = tuple(sum(e in r.failure_tags for r in run.results)
                        for e in EVENTS)
        assert run.stats.events == counted
        assert sum(map(bool, counted)) >= 2, counted


def _traced_peak(error, fn, *args):
    """Peak traced allocation of ``fn(*args)``, which must raise ``error``
    (or return, when ``error`` is None)."""
    tracemalloc.start()
    try:
        with pytest.raises(error) if error else contextlib.nullcontext():
            fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


class TestParityOracles:
    def test_rate_is_exactly_two_to_minus_m(self):
        # (test_bits=8, m=3): exactly 1/8 over the full challenge space.
        for diff in (1, 0b10000000, 0b10110101, 255):
            assert parity_miss_rate_exact(8, 3, diff) == Fraction(1, 8)

    def test_tuple_enumeration_matches_factorized(self):
        cases = [(4, m, diff) for m in (1, 2, 3) for diff in range(1, 16)]
        for bits, m, diff in cases + [(5, 2, 0b10001)]:
            assert parity_miss_rate_tuple_enumeration(bits, m, diff) == \
                parity_miss_rate_exact(bits, m, diff)

    def test_zero_diff_rejected(self):
        with pytest.raises(ValidationError):
            parity_miss_rate_exact(8, 3, 0)

    def test_session_and_oracle_share_one_parity(self, monkeypatch):
        # a wrong parity that reads no key bit reaches both B's check and
        # the oracle: the genuine challenge is rejected, every vector misses
        params = SecurityParams(n=16, s=4, m=2, ell=2)
        first, _, remainder = _key_parts(0xBEEF, params)
        rng = random.Random(3)
        lambdas = tuple([rng.getrandbits(params.test_bits) for _ in range(params.m)])
        copy = _make_challenge(first, remainder, lambdas, params)
        _, parities = _decode_challenge(copy[0] >> params.word_bits,
                                        params.test_bits, params.m)
        assert any(parities)
        assert _verify_challenge([copy], first, remainder, params)[0] == 1
        assert parity_miss_rate_exact(8, 2, 0b1011) == Fraction(1, 4)

        monkeypatch.setattr(protocol, "_parities",
                            lambda lambdas, key: [0] * len(lambdas))
        assert _verify_challenge([copy], first, remainder, params)[0] == 0
        assert parity_miss_rate_exact(8, 2, 0b1011) == 1

    @pytest.mark.parametrize("diff", [0, 16, 17, -1])
    @pytest.mark.parametrize("oracle", [
        parity_miss_rate_exact, parity_miss_rate_tuple_enumeration,
    ], ids=["factorized", "tuples"])
    def test_diff_outside_key_rejected(self, oracle, diff):
        with pytest.raises(ValidationError,
                           match="diff must be a nonzero key_bits-bit value"):
            oracle(4, 2, diff)

    def test_tuple_enumeration_size_guard(self):
        with pytest.raises(TooLarge):
            parity_miss_rate_tuple_enumeration(10, 3, 1)

    @pytest.mark.parametrize("oracle,key_bits,m", [
        (parity_miss_rate_exact, EXACT_LIMIT_BITS, 3),
        (parity_miss_rate_tuple_enumeration, EXACT_LIMIT_BITS // 2, 2),
    ], ids=["factorized", "tuples"])
    def test_one_table_limit(self, oracle, key_bits, m):
        # a table of 2^EXACT_LIMIT_BITS entries is enumerated, twice
        # that is refused
        assert oracle(key_bits, m, 1) == Fraction(1, 1 << m)
        with pytest.raises(TooLarge, match=f"2\\^{EXACT_LIMIT_BITS} "):
            oracle(key_bits + 1, m, 1)

    def test_size_checked_before_any_large_integer(self):
        # 2^8000000 tuples: the exponent is tested, the count never built
        peak = _traced_peak(TooLarge, parity_miss_rate_tuple_enumeration,
                            8_000_000, 1, 1)
        assert peak < 64 << 10

    @pytest.mark.parametrize("key_bits,m", [
        (4, -1), (4, 0), (0, 2), (-1, 2), (-1, -1),
    ])
    @pytest.mark.parametrize("oracle", [
        parity_miss_rate_exact, parity_miss_rate_tuple_enumeration,
    ], ids=["factorized", "tuples"])
    def test_sizes_below_one_rejected(self, oracle, key_bits, m):
        with pytest.raises(ValidationError, match="must be >= 1"):
            oracle(key_bits, m, 1)


class TestDpaOracle:
    def test_uniform_for_random_configs(self):
        rng = random.Random(9)
        for _ in range(20):
            lambdas = [rng.getrandbits(6) for _ in range(3)]
            assert dpa_uniformity_exact(6, lambdas)

    def test_adversarial_configs(self):
        rep = [0b100000] * 4
        disj = [0b100000, 0b010000, 0b001000, 0b000100]
        zero = [0] * 2
        for lambdas in (rep, disj, zero):
            assert dpa_uniformity_exact(6, lambdas)

    def test_negative_key_bits_rejected(self):
        with pytest.raises(ValidationError):
            dpa_uniformity_exact(-1, [1])

    def test_size_checked_before_any_table(self):
        # 21 bits is one past the limit, and cheap enough to enumerate
        # if the check were missing
        with pytest.raises(TooLarge):
            dpa_uniformity_exact(21, [1, 3])

    def test_vector_count_checked_before_any_table(self):
        # 2 key bits and 70 vectors ask for 2^71 count cells
        with pytest.raises(TooLarge, match="70 vectors"):
            dpa_uniformity_exact(2, [1] * 70)

    def test_largest_accepted_table(self):
        # key_bits + vectors = EXACT_LIMIT_BITS is accepted, one more
        # vector is not
        rng = random.Random(12)
        key_bits = EXACT_LIMIT_BITS - 4
        lambdas = [rng.getrandbits(key_bits) for _ in range(4)]
        assert dpa_uniformity_exact(key_bits, lambdas)
        with pytest.raises(TooLarge):
            dpa_uniformity_exact(key_bits, lambdas + [1])

    def test_every_position_trashed(self):
        # no surviving bit: the distilled key is the scalar 0 for all keys
        assert dpa_uniformity_exact(2, [0b10, 0b01])
        assert dpa_uniformity_exact(3, [0b111, 0b011, 0b001, 0b101])

    def test_table_call_matches_scalar_calls(self):
        # the oracle distills the whole numpy key table in one call
        rng = random.Random(11)
        keys = np.arange(1 << 8, dtype=np.uint64)
        for _ in range(20):
            lambdas = [rng.getrandbits(8) for _ in range(rng.randrange(1, 6))]
            table, trash = sim.deterministic_pa(keys, 8, lambdas)
            for kv in range(1 << 8):
                assert sim.deterministic_pa(kv, 8, lambdas) == (
                    int(table[kv]), trash)

    @staticmethod
    def distill_wrong_on_one_key(monkeypatch, bad, only=None):
        # for the vector set ``only`` alone, when given; a scalar
        # distilled key of a whole key table (all trashed) stays right
        real = sim.deterministic_pa

        def wrong_on_one_key(key, nbits, lambdas):
            out, trash = real(key, nbits, lambdas)
            if only is not None and list(lambdas) != only:
                pass
            elif isinstance(out, np.ndarray):
                out = out.copy()
                out[bad] ^= 1
            elif not isinstance(key, np.ndarray) and key == bad:
                out ^= 1
            return out, trash

        monkeypatch.setattr(sim, "deterministic_pa", wrong_on_one_key)

    @pytest.mark.parametrize("bad", [5, 37])
    def test_distillation_wrong_on_one_key_fails(self, monkeypatch, bad):
        self.distill_wrong_on_one_key(monkeypatch, bad)
        assert not dpa_uniformity_exact(6, [0b110100, 0b011001])

    @pytest.mark.parametrize("lambdas", [[0, 0b011001], [0b110100, 0]])
    @pytest.mark.parametrize("bad", [5, 37])
    def test_empty_parity_group_does_not_hide_a_bad_one(
            self, monkeypatch, bad, lambdas):
        # a zero lambda has even parity on every key, so half the parity
        # groups are empty; the wrong key lies in a non-empty one
        assert dpa_uniformity_exact(6, lambdas)
        self.distill_wrong_on_one_key(monkeypatch, bad)
        assert not dpa_uniformity_exact(6, lambdas)

    # at test_bits 8 and m = 2, one count table holds 2^20 / 2^10 = 1024
    # configurations, so index 1500 lies in the second table
    @pytest.mark.parametrize("where", [0, 17, 1023, 1500, -1])
    def test_one_bad_config_in_a_batch_fails(self, monkeypatch, where):
        rng = random.Random(13)
        configs = [[rng.getrandbits(8) for _ in range(2)] for _ in range(1600)]
        configs[where] = target = [0b10110100, 0b01011001]
        assert dpa_uniformity_exact(8, *configs)
        self.distill_wrong_on_one_key(monkeypatch, 77, only=target)
        assert not dpa_uniformity_exact(8, *configs)
        assert dpa_uniformity_exact(8, *configs[:where], *configs[where:][1:])

    def test_batch_matches_per_config_calls(self, monkeypatch):
        # the configurations keep different widths (all trashed to none
        # trashed) and hold different vector counts, zero to four
        rng = random.Random(14)
        for tb in range(1, 11):
            configs = [
                [1 << i for i in range(min(tb, 4))],    # trashes min(tb, 4)
                [],
                [0] * rng.randint(1, 4),
                [rng.getrandbits(tb) or 1] * rng.randint(2, 4),
            ] + [[rng.getrandbits(tb) for _ in range(rng.randint(1, 4))]
                 for _ in range(6)]
            assert dpa_uniformity_exact(tb, *configs)
            for target, bad in itertools.product(
                    configs, rng.sample(range(1 << tb), min(3, 1 << tb))):
                self.distill_wrong_on_one_key(monkeypatch, bad, only=target)
                each = [dpa_uniformity_exact(tb, c) for c in configs]
                assert dpa_uniformity_exact(tb, *configs) == all(each)
                monkeypatch.undo()

    def test_batch_sizes_checked_before_any_table(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a table was built before the size check")

        monkeypatch.setattr(sim, "deterministic_pa", refuse)
        wide = [1] * (EXACT_LIMIT_BITS - 7)
        with pytest.raises(TooLarge, match=f"{len(wide)} vectors"):
            dpa_uniformity_exact(8, *[[1, 2]] * 5000, wide)
        with pytest.raises(ValidationError):
            dpa_uniformity_exact(-1, [1], [2])

    def test_large_batch_is_counted_in_bounded_tables(self):
        # 5000 configurations at test_bits 8 and m = 2 would need one
        # table of 5000 * 2^10 counts (40 MB); each chunk's is 8 MB
        rng = random.Random(15)
        configs = [[rng.getrandbits(8) for _ in range(2)] for _ in range(5000)]
        assert dpa_uniformity_exact(8, [1, 2])    # numpy loaded untraced
        peak = _traced_peak(None, dpa_uniformity_exact, 8, *configs)
        assert peak < 16 << 20

    def test_key_past_the_kept_width_fails(self, monkeypatch):
        # the vectors read only the two leading bits, so a distillation
        # that returns the whole key fills each kept value once, all in
        # the even-parity row; the other 192 keys land past the 2^6 kept
        # values, and must not go unseen
        lambdas = [0b10000000, 0b01000000]
        assert dpa_uniformity_exact(8, [1, 2], lambdas)
        real = sim.deterministic_pa
        monkeypatch.setattr(sim, "deterministic_pa", lambda key, nbits, lam: (
            key, real(key, nbits, lam)[1]))
        assert not dpa_uniformity_exact(8, lambdas)

    def test_no_config_is_uniform(self):
        assert dpa_uniformity_exact(8)


class TestSharePrivacyOracle:
    def test_random_assignments(self):
        rng = random.Random(10)
        for _ in range(5):
            shares = [rng.getrandbits(6) for _ in range(3)]
            assert share_privacy_exact(6, shares)

    def test_refused_past_the_limit_before_any_enumeration(self, monkeypatch):
        calls = []
        monkeypatch.setattr(sim, "guessing_advantage",
                            lambda view: calls.append(view) or Fraction(0))
        with pytest.raises(TooLarge, match="1025 shares exceeds 1024"):
            share_privacy_exact(6, [0] * (sim.SHARE_PRIVACY_LIMIT + 1))
        assert calls == []

    def test_oracle_instance_enumerates_once(self, monkeypatch):
        # the advantage does not depend on the known shares' values, so
        # the pass enumerates the subsets of one share set: its 2 subsets
        # are 2 views of one 16-bit unknown share
        calls = []
        real = sim.guessing_advantage
        monkeypatch.setattr(sim, "guessing_advantage",
                            lambda view: calls.append(view) or real(view))
        assert exact_oracles(SecurityParams(n=16, s=4, m=2, ell=2)).all_exact
        assert [(len(v.learned_shares), v.n_paths, v.share_bits)
                for v in calls] == [(1, 2, 16)] * 2

    def test_no_share_refused_before_any_view(self, monkeypatch):
        def build(*args, **kwargs):
            raise AssertionError("a view was built")

        monkeypatch.setattr(sim, "AdversaryView", build)
        with pytest.raises(ValidationError, match="at least 1 share, got 0"):
            share_privacy_exact(6, [])

    def test_share_not_an_int_refused(self):
        # 1.5 lies inside [0, 16), and the check used to return True
        with pytest.raises(OutOfRange, match="share 1.5 on path 0 does not fit"):
            share_privacy_exact(4, [1.5, 2])

    @pytest.mark.parametrize("n,ell", [(64, 2), (64, 3), (256, 2)])
    def test_session_widths(self, n, ell):
        rng = random.Random(n + ell)
        assert share_privacy_exact(n, [rng.getrandbits(n) for _ in range(ell)])

    def test_one_share_is_private(self):
        # the empty subset knows nothing of the one share
        assert share_privacy_exact(6, [0b101101])

    def test_the_limit_itself_is_admitted(self, monkeypatch):
        class Enumerated(Exception):
            pass

        def enumerate_view(view):
            raise Enumerated

        monkeypatch.setattr(sim, "guessing_advantage", enumerate_view)
        with pytest.raises(Enumerated):
            share_privacy_exact(1, [0] * sim.SHARE_PRIVACY_LIMIT)


class TestMacForgeryOracle:
    @pytest.mark.parametrize("w", [1, 2, 3])
    def test_bound_holds(self, w):
        best = mac_forgery_exact(w, w)
        assert best <= Fraction(2, 1 << w)

    @pytest.mark.parametrize("w,message_bits,best", [
        (3, 0, "0"),    # no other message pads to zero content blocks
        (1, 1, "1/2"), (1, 2, "1"),
        (2, 1, "1/2"), (2, 2, "1/2"), (2, 3, "3/4"), (2, 4, "3/4"),
        (3, 1, "1/4"), (3, 2, "1/4"), (3, 3, "1/4"),
        (3, 4, "3/8"), (3, 5, "3/8"), (3, 6, "3/8"),
        (4, 1, "1/8"), (4, 2, "1/8"), (4, 3, "1/8"), (4, 4, "1/8"),
        (4, 5, "3/16"), (4, 8, "3/16"),
    ])
    def test_pinned_values(self, w, message_bits, best):
        # recorded from the per-key enumeration that re-tagged every
        # key's class once per key
        assert mac_forgery_exact(w, message_bits) == Fraction(best)

    def test_too_large(self):
        with pytest.raises(TooLarge):
            mac_forgery_exact(8, 8)

    @pytest.mark.parametrize("w,message_bits", [(7, 7), (6, 12)])
    def test_too_large_past_table_limit(self, w, message_bits):
        # past 2^21 (key, message) entries: w=7 one block, w=6 two
        # blocks; w=6 one block and w=5 two blocks fit
        with pytest.raises(TooLarge):
            mac_forgery_exact(w, message_bits)

    @pytest.mark.parametrize("message_bits", [20_000, 8_000_000])
    def test_size_checked_before_any_large_integer(self, message_bits):
        # a message count of more than 4300 digits is neither formatted
        # nor built
        peak = _traced_peak(TooLarge, mac_forgery_exact, 1, message_bits)
        assert peak < 64 << 10

    @pytest.mark.parametrize("w,message_bits", [
        (w, bits) for w in (1, 2, 3) for bits in range(1, 2 * w + 1)
    ])
    def test_table_matches_public_tag(self, w, message_bits):
        # the oracle's messages: the observed one first, then every other
        # message padding to the same block count
        messages = _forgery_messages(w, message_bits)
        observed = (1 % (1 << message_bits), message_bits)
        blocks = -(-message_bits // w)
        expected = {(v, nb) for nb in range(1, blocks * w + 1)
                    if -(-nb // w) == blocks for v in range(1 << nb)}
        assert messages[0] == observed
        assert len(messages) == len(expected)
        assert set(messages) == expected

    @pytest.mark.parametrize("w,message_bits", [(0, 1), (-1, 1), (2, -3)])
    def test_out_of_range_arguments(self, w, message_bits):
        # as impersonation_bound rejects them
        with pytest.raises(OutOfRange):
            mac_forgery_exact(w, message_bits)

    def test_hashes_through_the_session_hash(self, monkeypatch):
        # one positional call per hash key and message, through the
        # module attribute the transport hop and the tracer use
        calls = []
        real = sim.mac._hash_value

        def record(*args, **kwargs):
            calls.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(sim.mac, "_hash_value", record)
        assert mac_forgery_exact(2, 2) == Fraction(1, 2)
        assert calls == [{}] * (4 * len(_forgery_messages(2, 2)))


class TestExactOracles:
    def test_small_params_all_exact(self):
        params = SecurityParams(n=12, s=2, m=2, ell=2)
        report = exact_oracles(params, dpa_configs=10)
        assert report.all_exact
        assert any("parity_miss" in c.name for c in report.checks)
        assert any("dpa_uniformity" in c.name for c in report.checks)
        assert any("share_privacy" in c.name for c in report.checks)
        assert any("mac_forgery" in c.name for c in report.checks)

    def test_too_large_params(self):
        with pytest.raises(TooLarge):
            exact_oracles(SecurityParams(n=64, s=16, m=4, ell=2))

    def test_widest_accepted_params(self):
        # test_bits 12 with 4 vectors: the largest uniformity table the
        # oracles build stays under its cap
        report = exact_oracles(SecurityParams(n=16, s=2, m=4, ell=3),
                               dpa_configs=2)
        assert report.all_exact

    @pytest.mark.parametrize("params", [
        SecurityParams(n=16, s=2, m=5, ell=2),
        SecurityParams(n=16, s=4, m=2, ell=4),
    ], ids=["m5", "ell4"])
    def test_runs_every_instance_its_oracles_admit(self, params):
        # no size rule beyond each oracle's own: five vectors and four
        # paths fit every table
        assert exact_oracles(params, dpa_configs=2).all_exact

    def test_wide_shares_pass_share_privacy(self):
        # the closed form has no width limit: 17-bit shares are checked
        # like any others, and every other table of this instance fits
        report = exact_oracles(SecurityParams(n=17, s=4, m=2, ell=2),
                               dpa_configs=2)
        assert report.all_exact
        assert report.checks[0].name == "share_privacy(n=17, ell=2)"

    def test_many_vectors_refused_by_the_uniformity_table(self):
        # test_bits 12 + 11 vectors = 2^23 cells
        with pytest.raises(TooLarge, match="uniformity count table"):
            exact_oracles(SecurityParams(n=16, s=2, m=11, ell=2), dpa_configs=2)

    @pytest.mark.parametrize("ell", [sim.SHARE_PRIVACY_LIMIT + 1,
                                     protocol.MAX_DRAW_BITS])
    def test_many_paths_refused_before_any_share_is_drawn(
            self, monkeypatch, ell):
        # share_privacy_exact counts its shares only once the first list
        # is drawn, and 2^31 - 1 shares would not fit in memory
        class NoDraws:
            def __init__(self, seed):
                pass

            def getrandbits(self, bits):
                raise AssertionError("a share was drawn")

        monkeypatch.setattr(sim, "random", SimpleNamespace(Random=NoDraws))
        with pytest.raises(TooLarge, match=f"{ell} shares exceeds"):
            exact_oracles(SecurityParams(n=16, s=4, m=2, ell=ell))


class TestEmitReport:
    def test_writes_and_replays_identically(self, tmp_path):
        sc = load_scenario(two_chains_doc(trials=10))
        run = run_monte_carlo(sc)
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        for out in (out1, out2):
            emit_report(run, out)
        assert (out1 / "trials.jsonl").read_bytes() == \
            (out2 / "trials.jsonl").read_bytes()
        assert (out1 / "summary.json").read_bytes() == \
            (out2 / "summary.json").read_bytes()
        lines = (out1 / "trials.jsonl").read_text().splitlines()
        assert len(lines) == 10
        summary = json.loads((out1 / "summary.json").read_text())
        assert summary["verdict"] == "PASS"
        assert summary["scenario"] == "two-chains"

    def test_unwritable_destination(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        sc = load_scenario(two_chains_doc(trials=2))
        run = run_monte_carlo(sc)
        with pytest.raises(OSError):
            emit_report(run, blocker / "sub")


STATS = Stats(trials=1, successes=1, empirical=1.0, ci_low=0.0, ci_high=1.0,
              p_im=0.0, agreement_bound=0.5, privacy_bound=0.5,
              verdict="PASS", degenerate=True, events=(0,) * len(EVENTS))


def reference_line(r):
    """The trial line as ``json.dumps`` writes the record's dict."""
    record = {
        "index": r.index,
        "seed": r.seed,
        "result": r.result,
        "result_prime": r.result_prime,
        "delta": int(r.keys_equal),
        "succeeded": int(r.succeeded),
        "final_key_len": r.final_key_len,
        "trash_size": r.trash_size,
        "leaked_epochs": r.leaked_epochs,
        "tags": list(r.failure_tags),
    }
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


trial_results = st.builds(
    TrialResult,
    index=st.integers(0, 10**9),
    seed=st.integers(0, 2**64 - 1),
    result=st.integers(0, 1),
    result_prime=st.integers(0, 1),
    keys_equal=st.booleans(),
    succeeded=st.booleans(),
    final_key_len=st.none() | st.integers(0, 4096),
    trash_size=st.none() | st.integers(0, 64),
    leaked_epochs=st.integers(0, 2**40),
    failure_tags=st.sets(st.sampled_from(EVENTS)).map(
        lambda tags: tuple(t for t in EVENTS if t in tags)),
)


class TestTrialLineWriter:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(trial_results, min_size=1, max_size=8))
    def test_lines_match_sorted_json_dumps(self, results):
        with tempfile.TemporaryDirectory() as out:
            emit_report(MonteCarloRun(STATS, tuple(results), "unnamed", 0), out)
            with open(Path(out) / "trials.jsonl", newline="") as fh:
                lines = fh.readlines()
        assert lines == [reference_line(r) for r in results]

    def test_every_tag_subset_is_written(self):
        # Monte-Carlo runs show few of the subsets of EVENTS, so cover
        # every subset explicitly.
        results = [
            TrialResult(index=i, seed=i, result=0, result_prime=0,
                        keys_equal=False, succeeded=True, final_key_len=None,
                        trash_size=None, leaked_epochs=0,
                        failure_tags=tuple(t for j, t in enumerate(EVENTS)
                                           if i >> j & 1))
            for i in range(1 << len(EVENTS))
        ]
        with tempfile.TemporaryDirectory() as out:
            emit_report(MonteCarloRun(STATS, tuple(results), "unnamed", 0), out)
            text = (Path(out) / "trials.jsonl").read_text()
        assert text == "".join(reference_line(r) for r in results)
