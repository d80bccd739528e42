import hashlib
import json
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdnet import sim
from qkdnet.errors import OutOfRange, ParseError, TooLarge, ValidationError
from qkdnet.protocol import SecurityParams, full_session
from qkdnet.sim import (
    MonteCarloRun,
    Stats,
    TrialResult,
    _failure_tags,
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
    protocol_impersonation_bound,
    run_monte_carlo,
    run_trial,
    share_privacy_exact,
)

ROOT = Path(__file__).resolve().parent.parent


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
        from qkdnet.errors import EndpointCorruption
        doc = two_chains_doc(adversary={"corrupted": ["alice"], "t": 1})
        with pytest.raises(EndpointCorruption):
            load_scenario(doc)

    def test_insufficient_paths(self):
        doc = two_chains_doc(params={"n": 64, "s": 16, "m": 4, "ell": 3, "w": 8})
        with pytest.raises(ValidationError, match="disjoint paths"):
            load_scenario(doc)

    def test_inconsistent_w(self):
        doc = two_chains_doc(params={"n": 64, "s": 16, "m": 4, "ell": 2, "w": 4})
        with pytest.raises(ValidationError, match="s = 2w"):
            load_scenario(doc)

    def test_missing_field(self):
        doc = two_chains_doc()
        del doc["endpoints"]
        with pytest.raises(ValidationError, match="endpoints"):
            load_scenario(doc)

    @pytest.mark.parametrize("path", sorted(
        p.relative_to(ROOT) for folder in ("demos/scenarios", "perfbench/inputs")
        for p in (ROOT / folder).glob("*.json")
    ), ids=str)
    def test_shipped_documents_load(self, path):
        # strict key checking must accept every checked-in document
        assert load_scenario(ROOT / path).trials >= 1

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
               "ell": "integer", "w": "integer", "epsilon": "number"},
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
    doc["params"]["epsilon"] = 0.0
    doc["links"][0].update(distance_km=1.0, epsilon=0.0, alive=True)
    return doc


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
            return SimpleNamespace(result=1, result_prime=1, keys_equal=True,
                                   final_key_a=0b1, final_key_b=0b1,
                                   trash_a=frozenset({1}), trash_b=trash_b)

        assert _failure_tags(outcome(frozenset({2}))) == ()
        assert _failure_tags(outcome(frozenset({1, 2}))) == (
            "final_key_mismatch",)

    def test_replay_is_identical(self):
        sc = load_scenario(two_chains_doc())
        seed = derive_trial_seed(sc.seed, 3)
        assert run_trial(sc, seed, index=3) == run_trial(sc, seed, index=3)

    def test_trial_does_not_depend_on_what_ran_before(self, monkeypatch):
        # A record is a function of its seed alone: trial order, trials of
        # another scenario and sessions on an outside generator in between
        # change nothing, and each record is what one session on a fresh
        # ``random.Random(seed)`` gives.  Every tamper record here reads
        # "rejected", so the sessions' wire data is compared as well.
        def wire(out):
            return (out.shares_received, out.challenge_copies,
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
            full_session(chains.graph, chains.a, chains.b, chains.params,
                         chains.adversary, outside, paths=chains.paths)
            mixed.append(trial(i))
        assert in_order == [backwards[i] for i in range(20)] == mixed
        tb = tamper.params.test_bits
        for (r, got), s in zip(in_order, seeds):
            out = full_session(tamper.graph, tamper.a, tamper.b, tamper.params,
                               tamper.adversary, random.Random(s),
                               paths=tamper.paths)
            trash = out.trash_a
            assert (r.seed, r.result, r.result_prime, r.keys_equal,
                    r.succeeded, r.final_key_len, r.trash_size,
                    r.leaked_epochs, r.failure_tags) == (
                s, out.result, out.result_prime, out.keys_equal,
                out.succeeded, None if trash is None else tb - len(trash),
                None if trash is None else len(trash),
                out.view.leaked_epochs, _failure_tags(out))
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
        low, high = clopper_pearson(0, n, 0.99)
        assert low == 0.0
        assert high == pytest.approx(1 - (alpha / 2) ** (1 / n), rel=1e-9)
        low, high = clopper_pearson(n, n, 0.99)
        assert high == 1.0
        assert low == pytest.approx((alpha / 2) ** (1 / n), rel=1e-9)

    def test_interval_contains_point_estimate(self):
        for k, n in [(1, 10), (5, 10), (73, 100), (999, 1000)]:
            low, high = clopper_pearson(k, n)
            assert low <= k / n <= high

    @pytest.mark.parametrize("k,n,confidence,expected", [
        (0, 1, 0.99, (0.0, 0.995)),
        (1, 1, 0.99, (0.0050000000000000044, 1.0)),
        (3, 10, 0.99, (0.03700722109623209, 0.7351139852871307)),
        (3, 10, 0.95, (0.0667395111777345, 0.6524528500599973)),
        (0, 100000, 0.99, (0.0, 5.2981770081923407e-05)),
        (100000, 100000, 0.99, (0.999947018229918, 1.0)),
        (7, 100000, 0.99, (2.0373778463446272e-05, 0.0001713272515971727)),
        (99123, 100000, 0.99, (0.990441776329295, 0.9919710685142382)),
    ])
    def test_pinned_endpoints(self, k, n, confidence, expected):
        # Exact floats recorded from scipy.special.betaincinv; summary.json
        # prints these endpoints, so replay depends on every bit.
        assert clopper_pearson(k, n, confidence) == expected

    @pytest.mark.parametrize("k,n,confidence", [
        (5, 4, 0.99), (-1, 4, 0.99), (1, 4, 1.5), (1, 4, 1.0), (1, 4, 0.0),
        (1, 4, -0.2), (1, 4, float("nan")),
    ])
    def test_out_of_range_arguments_rejected(self, k, n, confidence):
        # scipy would return NaN endpoints or a finite non-interval
        with pytest.raises(ValidationError):
            clopper_pearson(k, n, confidence)


class TestCheckBounds:
    def test_frozen_example(self):
        params = SecurityParams(n=64, s=16, m=4, ell=2)
        agreement, privacy = check_bounds(params, 2.0 ** -8)
        assert agreement == pytest.approx(975375 / 1048576, abs=1e-12)
        assert privacy == pytest.approx(0.078125, abs=1e-15)

    def test_epsilon_one_kills_agreement(self):
        params = SecurityParams(n=64, s=16, m=4, ell=2, epsilon=1.0)
        agreement, _ = check_bounds(params, 0.01)
        assert agreement == 0.0

    def test_limits(self):
        params = SecurityParams(n=128, s=16, m=30, ell=2)
        agreement, privacy = check_bounds(params, 0.0)
        assert agreement == pytest.approx(1.0, abs=1e-6)
        assert privacy == pytest.approx(2.0 ** -30, abs=1e-9)

    def test_monotonicity(self):
        base = dict(n=64, s=16, ell=2)
        # nonincreasing in epsilon and p_im, nondecreasing in m
        for m in (1, 2, 4, 8):
            prev = None
            for eps in (0.0, 0.1, 0.5, 1.0):
                a, _ = check_bounds(SecurityParams(m=m, epsilon=eps, **base), 0.01)
                if prev is not None:
                    assert a <= prev
                prev = a
        prev = None
        for p_im in (0.0, 0.01, 0.1, 0.9):
            a, _ = check_bounds(SecurityParams(m=4, **base), p_im)
            if prev is not None:
                assert a <= prev
            prev = a
        prev = None
        for m in (1, 2, 4, 8):
            a, _ = check_bounds(SecurityParams(m=m, **base), 0.01)
            if prev is not None:
                assert a >= prev
            prev = a

    def test_protocol_p_im_uses_challenge_length(self):
        params = SecurityParams(n=64, s=16, m=4, ell=2)
        # challenge is 4*33=132 bits; 17 content blocks + length block
        assert protocol_impersonation_bound(params) == 18 / 256


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
        sc = load_scenario(two_chains_doc(
            params={**params, "epsilon": epsilon}, trials=5))
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
        run = run_monte_carlo(sc)
        mismatches = sum(
            "final_key_mismatch" in r.failure_tags for r in run.results
        )
        assert mismatches / 5000 <= run.stats.privacy_bound


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
    def distill_wrong_on_one_key(monkeypatch, bad):
        real = sim.deterministic_pa

        def wrong_on_one_key(key, nbits, lambdas):
            out, trash = real(key, nbits, lambdas)
            if isinstance(out, np.ndarray):
                out = out.copy()
                out[bad] ^= 1
            elif key == bad:
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


class TestSharePrivacyOracle:
    def test_random_assignments(self):
        rng = random.Random(10)
        for _ in range(5):
            shares = [rng.getrandbits(6) for _ in range(3)]
            assert share_privacy_exact(6, 3, shares)

    @pytest.mark.parametrize("ell,count", [(3, 2), (2, 3)])
    def test_share_count_must_match_ell(self, ell, count):
        with pytest.raises(ValidationError, match=f"need {ell} shares"):
            share_privacy_exact(6, ell, [1] * count)


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


FAILURE_TAGS = ("parity_miss", "challenge_rejected", "response_mismatch",
                "final_key_mismatch")
STATS = Stats(trials=1, successes=1, empirical=1.0, ci_low=0.0, ci_high=1.0,
              confidence=0.99, p_im=0.0, agreement_bound=0.5,
              privacy_bound=0.5, verdict="PASS", degenerate=True)


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
    failure_tags=st.sets(st.sampled_from(FAILURE_TAGS)).map(
        lambda tags: tuple(t for t in FAILURE_TAGS if t in tags)),
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
        # The Monte-Carlo runs never write parity_miss or
        # final_key_mismatch, so cover all 16 subsets explicitly.
        results = [
            TrialResult(index=i, seed=i, result=0, result_prime=0,
                        keys_equal=False, succeeded=True, final_key_len=None,
                        trash_size=None, leaked_epochs=0,
                        failure_tags=tuple(t for j, t in enumerate(FAILURE_TAGS)
                                           if i >> j & 1))
            for i in range(16)
        ]
        with tempfile.TemporaryDirectory() as out:
            emit_report(MonteCarloRun(STATS, tuple(results), "unnamed", 0), out)
            text = (Path(out) / "trials.jsonl").read_text()
        assert text == "".join(reference_line(r) for r in results)
