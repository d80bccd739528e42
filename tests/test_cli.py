import json

import pytest

from qkdnet.cli import main
from qkdnet.errors import ValidationError
from qkdnet.sim import load_scenario


PARAMS = {"n": 64, "s": 16, "m": 4, "ell": 2, "w": 8}
CHAIN_LINKS = [
    {"a": "alice", "b": "n1"}, {"a": "n1", "b": "n2"}, {"a": "n2", "b": "bob"},
    {"a": "alice", "b": "n3"}, {"a": "n3", "b": "n4"}, {"a": "n4", "b": "bob"},
]


def two_chains_scenario_file(tmp_path, **overrides):
    doc = {
        "name": "two-chains",
        "nodes": ["alice", "n1", "n2", "n3", "n4", "bob"],
        "links": CHAIN_LINKS,
        "endpoints": ["alice", "bob"],
        "params": PARAMS,
        "trials": 15,
        "seed": 3,
    }
    doc.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestPlan:
    def test_one_way_t3(self, capsys):
        assert main(["plan", "--t", "3", "--mode", "one_way"]) == 0
        assert "10" in capsys.readouterr().out

    def test_two_way_t3(self, capsys):
        assert main(["plan", "--t", "3", "--mode", "two_way"]) == 0
        assert "7" in capsys.readouterr().out

    def test_feedback(self, capsys):
        assert main(["plan", "--t", "2", "--u", "2", "--mode", "feedback"]) == 0
        assert "5" in capsys.readouterr().out


class TestBounds:
    def test_prints_bounds(self, capsys):
        rc = main(["bounds", "--n", "64", "--s", "16", "--m", "4",
                   "--ell", "2", "--w", "8"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "agreement_bound:" in out and "privacy_bound:" in out
        assert "p_im: 0.0703125" in out

    def test_inconsistent_w(self, capsys):
        rc = main(["bounds", "--n", "64", "--s", "16", "--m", "4",
                   "--ell", "2", "--w", "4"])
        assert rc == 2


class TestPaths:
    def test_lists_disjoint_paths(self, tmp_path, capsys):
        rc = main(["paths", "--scenario", two_chains_scenario_file(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "path 0: alice -> n1 -> n2 -> bob" in out
        assert "path 1: alice -> n3 -> n4 -> bob" in out

    def test_too_many_requested(self, tmp_path, capsys):
        rc = main(["paths", "--scenario", two_chains_scenario_file(tmp_path),
                   "--ell", "3"])
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestRun:
    def test_honest_run_passes_and_writes_report(self, tmp_path, capsys):
        out_dir = tmp_path / "report"
        rc = main(["run", "--scenario", two_chains_scenario_file(tmp_path),
                   "--out", str(out_dir)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "verdict: PASS" in out
        assert (out_dir / "summary.json").exists()
        assert len((out_dir / "trials.jsonl").read_text().splitlines()) == 15

    def test_trial_override(self, tmp_path, capsys):
        rc = main(["run", "--scenario", two_chains_scenario_file(tmp_path),
                   "--trials", "5"])
        assert rc == 0
        assert "trials: 5" in capsys.readouterr().out

    def test_vacuous_bound_is_not_a_pass(self, tmp_path, capsys):
        # w=2 over an 18-bit challenge: p_im = 1, so the agreement bound
        # is 0 and the privacy figure exceeds 1.
        params = {"n": 16, "s": 4, "m": 2, "ell": 2, "w": 2}
        rc = main(["run", "--scenario",
                   two_chains_scenario_file(tmp_path, params=params)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "verdict: VACUOUS" in out
        assert "PASS" not in out

    def test_invalid_scenario_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        rc = main(["run", "--scenario", str(bad)])
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestOracle:
    def test_all_exact(self, capsys):
        rc = main(["oracle", "--max-bits", "6", "--configs", "5"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "all exact" in out
        assert "parity_miss" in out


def _run_malformed(tmp_path, capsys, doc):
    rc = main(["run", "--scenario", two_chains_scenario_file(tmp_path, **doc)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and "Traceback" not in err
    return err


def _with_link_field(field, value):
    links = [dict(link) for link in CHAIN_LINKS]
    links[0][field] = value
    return {"links": links}


class TestMalformedScenario:
    @pytest.mark.parametrize("field,value", [
        ("n", "x"), ("s", None), ("m", [4]), ("ell", "two"), ("w", "eight"),
        ("epsilon", "small"),
    ])
    def test_non_numeric_param(self, tmp_path, capsys, field, value):
        err = _run_malformed(tmp_path, capsys,
                             {"params": {**PARAMS, field: value}})
        assert f"params '{field}'" in err

    @pytest.mark.parametrize("field,value", [
        ("trials", "many"), ("seed", {"s": 1}),
    ])
    def test_non_numeric_top_level(self, tmp_path, capsys, field, value):
        err = _run_malformed(tmp_path, capsys, {field: value})
        assert f"'{field}'" in err

    @pytest.mark.parametrize("field", ["epsilon", "distance_km"])
    def test_non_numeric_link_field(self, tmp_path, capsys, field):
        err = _run_malformed(tmp_path, capsys, _with_link_field(field, "far"))
        assert f"link '{field}'" in err

    def test_non_numeric_t(self, tmp_path, capsys):
        err = _run_malformed(tmp_path, capsys, {"adversary": {
            "corrupted": ["n1"], "t": "one"}})
        assert "adversary 't'" in err

    def test_corrupted_string_is_not_iterated(self, tmp_path, capsys):
        # "n1" iterated by character would be the node set {"n", "1"}.
        err = _run_malformed(tmp_path, capsys, {"adversary": {
            "corrupted": "n1", "t": 1}})
        assert "adversary 'corrupted' must be a list of strings" in err

    def test_strategies_string_is_not_iterated(self, tmp_path, capsys):
        err = _run_malformed(tmp_path, capsys, {"adversary": {
            "corrupted": ["n1"], "t": 1, "strategies": "passive"}})
        assert "adversary 'strategies' must be a list of strings" in err

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_alive_must_be_boolean(self, tmp_path, capsys, value):
        # "false" is truthy, so a string used to leave the link alive.
        err = _run_malformed(tmp_path, capsys, _with_link_field("alive", value))
        assert "link 'alive' must be true or false" in err

    def test_unknown_top_level_key(self, tmp_path, capsys):
        # a misspelt "trials" used to run the default 1000 trials
        err = _run_malformed(tmp_path, capsys, {"trails": 5})
        assert "unknown field 'trails' in scenario" in err

    def test_unknown_params_key(self, tmp_path, capsys):
        err = _run_malformed(tmp_path, capsys,
                             {"params": {**PARAMS, "eps": 0.1}})
        assert "unknown field 'eps' in params" in err

    def test_unknown_link_key(self, tmp_path, capsys):
        err = _run_malformed(tmp_path, capsys, _with_link_field("alvie", False))
        assert "unknown field 'alvie' in link" in err

    def test_unknown_adversary_key(self, tmp_path, capsys):
        err = _run_malformed(tmp_path, capsys, {"adversary": {
            "corrupted": ["n1"], "t": 1, "strategy": ["tamper_shares"]}})
        assert "unknown field 'strategy' in adversary" in err

    def test_load_scenario_raises_validation_error(self):
        with pytest.raises(ValidationError, match="params 'n'"):
            load_scenario({
                "nodes": ["alice", "bob"], "links": [{"a": "alice", "b": "bob"}],
                "endpoints": ["alice", "bob"],
                "params": {**PARAMS, "n": "x", "ell": 1},
            })
