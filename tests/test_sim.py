import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from qkdnet.bits import BitString
from qkdnet.errors import ParseError, TooLarge, ValidationError
from qkdnet.protocol import SecurityParams
from qkdnet.sim import (
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
        assert sc.adversary is None
        assert len(sc.graph.links) == 6

    def test_accepts_json_text_and_file(self, tmp_path):
        text = json.dumps(two_chains_doc())
        assert load_scenario(text).name == "two-chains"
        path = tmp_path / "scenario.json"
        path.write_text(text)
        assert load_scenario(str(path)).name == "two-chains"

    def test_parse_error_on_bad_json(self):
        with pytest.raises(ParseError):
            load_scenario("{not json")

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


class TestSeedDerivation:
    def test_deterministic_and_distinct(self):
        seeds = [derive_trial_seed(42, i) for i in range(100)]
        assert seeds == [derive_trial_seed(42, i) for i in range(100)]
        assert len(set(seeds)) == 100

    def test_master_seed_matters(self):
        assert derive_trial_seed(1, 0) != derive_trial_seed(2, 0)


class TestRunTrial:
    def test_honest_trial_succeeds(self):
        sc = load_scenario(two_chains_doc())
        r = run_trial(sc, derive_trial_seed(sc.seed, 0))
        assert r.result == 1 and r.result_prime == 1
        assert r.keys_equal and r.succeeded
        assert r.failure_tags == ()
        assert r.final_key_len is not None
        assert sc.params.test_bits - sc.params.m <= r.final_key_len

    def test_replay_is_identical(self):
        sc = load_scenario(two_chains_doc())
        seed = derive_trial_seed(sc.seed, 3)
        assert run_trial(sc, seed, index=3) == run_trial(sc, seed, index=3)

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

    def test_small_keys_carry_exact_advantage(self):
        doc = two_chains_doc(params={"n": 12, "s": 2, "m": 2, "ell": 2, "w": 1},
                       adversary={"corrupted": ["n1"], "t": 1,
                                  "strategies": ["passive"]})
        sc = load_scenario(doc)
        r = run_trial(sc, derive_trial_seed(0, 0))
        assert r.advantage == 0.0 and r.advantage_exact


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
        # Exact floats recorded from scipy.stats.beta.ppf; summary.json
        # prints these endpoints, so replay depends on every bit.
        assert clopper_pearson(k, n, confidence) == expected


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
        for bits, m, diff in [(4, 2, 0b1010), (4, 3, 1), (5, 2, 0b10001)]:
            assert parity_miss_rate_tuple_enumeration(bits, m, diff) == \
                parity_miss_rate_exact(bits, m, diff)

    def test_zero_diff_rejected(self):
        with pytest.raises(ValidationError):
            parity_miss_rate_exact(8, 3, 0)

    def test_tuple_enumeration_size_guard(self):
        with pytest.raises(TooLarge):
            parity_miss_rate_tuple_enumeration(10, 3, 1)


class TestDpaOracle:
    def test_uniform_for_random_configs(self):
        rng = random.Random(9)
        for _ in range(20):
            lambdas = [BitString.random(6, rng) for _ in range(3)]
            assert dpa_uniformity_exact(6, lambdas)

    def test_adversarial_configs(self):
        rep = [BitString("100000")] * 4
        disj = [BitString("100000"), BitString("010000"),
                BitString("001000"), BitString("000100")]
        zero = [BitString("000000")] * 2
        for lambdas in (rep, disj, zero):
            assert dpa_uniformity_exact(6, lambdas)


class TestSharePrivacyOracle:
    def test_random_assignments(self):
        rng = random.Random(10)
        for _ in range(5):
            shares = [BitString.random(6, rng) for _ in range(3)]
            assert share_privacy_exact(6, 3, shares)


class TestMacForgeryOracle:
    @pytest.mark.parametrize("w", [1, 2, 3])
    def test_bound_holds(self, w):
        best = mac_forgery_exact(w, w)
        assert best <= Fraction(2, 1 << w)

    def test_too_large(self):
        with pytest.raises(TooLarge):
            mac_forgery_exact(8, 8)


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
            emit_report(run.stats, run.results, out,
                        scenario_name=sc.name, master_seed=sc.seed)
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
            emit_report(run.stats, run.results, blocker / "sub")
