import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qkdnet import cli, network, protocol, sim
from qkdnet.cli import main
from qkdnet.errors import ValidationError
from qkdnet.protocol import SecurityParams
from qkdnet.sim import exact_oracles, load_scenario, run_monte_carlo


PARAMS = {"n": 64, "s": 16, "m": 4, "ell": 2, "w": 8}
CHAIN_LINKS = [
    {"a": "alice", "b": "n1"}, {"a": "n1", "b": "n2"}, {"a": "n2", "b": "bob"},
    {"a": "alice", "b": "n3"}, {"a": "n3", "b": "n4"}, {"a": "n4", "b": "bob"},
]
ROOT = Path(__file__).resolve().parent.parent
TWO_CHAINS = ROOT / "demos" / "scenarios" / "two_chains.json"


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
                   "--ell", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "agreement_bound:" in out and "privacy_bound:" in out
        assert "p_im: 0.0703125" in out

    def test_w_option_is_gone(self, capsys):
        # w is s/2, so a --w flag could only repeat or contradict --s
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--n", "64", "--s", "16", "--m", "4",
                  "--ell", "2", "--w", "8"])
        assert exc.value.code == 2
        assert "--w" in capsys.readouterr().err


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

    def test_brace_named_file_is_read_as_a_path(self, tmp_path, monkeypatch,
                                                capsys):
        # a relative path that starts with "{" is a file name, not JSON text
        Path(two_chains_scenario_file(tmp_path)).rename(tmp_path / "{ring}.json")
        monkeypatch.chdir(tmp_path)
        rc = main(["run", "--scenario", "{ring}.json"])
        captured = capsys.readouterr()
        assert rc == 0, captured.err
        assert "verdict: PASS" in captured.out

    @pytest.mark.parametrize("seed_args,master_seed", [
        (["--seed", "5"], 5), ([], 3)])
    def test_summary_records_the_run_seed(self, tmp_path, capsys, seed_args,
                                          master_seed):
        out_dir = tmp_path / "report"
        rc = main(["run", "--scenario", two_chains_scenario_file(tmp_path),
                   "--trials", "3", "--out", str(out_dir), *seed_args])
        assert rc == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["master_seed"] == master_seed
        assert summary["scenario"] == "two-chains"

    def test_run_record_carries_the_seed_override(self, tmp_path):
        sc = load_scenario(two_chains_scenario_file(tmp_path))
        run = run_monte_carlo(sc, trials=2, seed=9)
        assert run.master_seed == 9
        assert run_monte_carlo(sc, trials=2).master_seed == sc.seed == 3


class TestPathDiscoveryCount:
    """The loader finds the scenario's paths; nothing finds them again."""

    @pytest.fixture
    def calls(self, monkeypatch):
        count = [0]

        def counted(*args, **kwargs):
            count[0] += 1
            return network.vertex_disjoint_paths(*args, **kwargs)

        for module in (sim, protocol, cli):
            monkeypatch.setattr(module, "vertex_disjoint_paths", counted)
        return count

    def test_run_finds_paths_once(self, calls, capsys):
        assert main(["run", "--scenario", str(TWO_CHAINS),
                     "--trials", "5"]) == 0
        assert calls[0] == 1

    def test_paths_without_ell_finds_paths_once(self, calls, capsys):
        assert main(["paths", "--scenario", str(TWO_CHAINS)]) == 0
        assert "path 1:" in capsys.readouterr().out
        assert calls[0] == 1


class TestSharedParser:
    def test_consecutive_calls_match_fresh_parsers(self, tmp_path, capsys,
                                                   monkeypatch):
        # Each subcommand runs with and then without its options, so a
        # value left behind by the previous call would show.
        scenario = two_chains_scenario_file(tmp_path)
        calls = (
            ["run", "--scenario", scenario, "--trials", "5", "--seed", "9"],
            ["run", "--scenario", scenario],
            ["paths", "--scenario", scenario, "--ell", "3"],
            ["paths", "--scenario", scenario],
            ["plan", "--t", "2", "--u", "1", "--mode", "feedback"],
            ["plan", "--t", "2"],
            ["bounds", "--n", "64", "--s", "16", "--m", "4", "--ell", "2",
             "--eps", "0.01"],
            ["bounds", "--n", "64", "--s", "16", "--m", "4", "--ell", "2"],
        )

        def outputs():
            got = []
            for argv in calls:
                rc = main(list(argv))
                captured = capsys.readouterr()
                got.append((rc, captured.out, captured.err))
            return got

        shared = outputs()
        assert cli._shared_parser() is cli._shared_parser()
        monkeypatch.setattr(cli, "_shared_parser", cli.make_parser)
        assert outputs() == shared
        assert [rc for rc, _, _ in shared] == [0, 0, 2, 0, 0, 0, 0, 0]


class TestOracle:
    def test_all_exact(self, capsys):
        rc = main(["oracle", "--max-bits", "6", "--configs", "5"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "all exact" in out
        assert "parity_miss" in out

    @pytest.mark.parametrize("argv,digest", [
        ([], "bf2c95bc3a0e5f1d7ae0e572d61ea301cd265ca09c8589364ea335e0bf3accc7"),
        (["--max-bits", "6", "--configs", "5"],
         "8f44c74139e871f7bffbda382853a13f56b314db86f40832627111009ade7b95"),
    ], ids=["defaults", "max-bits-6"])
    def test_stdout_pinned(self, argv, digest, capsys):
        # sha256 of the whole report, recorded from the per-row uniformity
        # loop and the per-block fold of every guessing_advantage call
        assert main(["oracle", *argv]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("bits", ["2", "9", "20", "-1"])
    def test_max_bits_out_of_range_exits_2(self, bits, capsys):
        rc = main(["oracle", "--max-bits", bits, "--configs", "0"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "--max-bits" in captured.err

    def test_negative_configs_exits_2(self, capsys):
        rc = main(["oracle", "--max-bits", "3", "--configs", "-5"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "dpa_configs" in captured.err

    def test_exact_oracles_rejects_negative_configs(self):
        with pytest.raises(ValidationError):
            exact_oracles(SecurityParams(n=11, s=4, m=2, ell=2), dpa_configs=-1)


SCIPY_PROBE = """
import contextlib, io, json, sys
from qkdnet.cli import main
scenario = "demos/scenarios/two_chains.json"
commands = [
    ["oracle", "--max-bits", "3", "--configs", "1"],
    ["bounds", "--n", "64", "--s", "16", "--m", "4", "--ell", "2"],
    ["plan", "--t", "3", "--mode", "one_way"],
    ["paths", "--scenario", scenario],
    ["run", "--scenario", scenario, "--trials", "5"],
]
seen = []
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    seen.append([argv[0], rc, "scipy" in sys.modules])
print(json.dumps(seen))
"""


def test_only_run_loads_scipy():
    # scipy is only needed for the Clopper-Pearson interval of `run`, and
    # importing it costs most of a cold start.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SCIPY_PROBE], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout) == [
        ["oracle", 0, False], ["bounds", 0, False], ["plan", 0, False],
        ["paths", 0, False], ["run", 0, True],
    ]


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

    @pytest.mark.parametrize("doc,field", [
        ({"params": {**PARAMS, "n": 64.9}}, "params 'n'"),
        ({"params": {**PARAMS, "ell": 2.5}}, "params 'ell'"),
        ({"params": {**PARAMS, "m": True}}, "params 'm'"),
        ({"params": {**PARAMS, "epsilon": True}}, "params 'epsilon'"),
        ({"trials": 1.7}, "'trials'"),
        ({"trials": "100"}, "'trials'"),
        (_with_link_field("epsilon", "0.5"), "link 'epsilon'"),
    ], ids=["n_fraction", "ell_fraction", "m_bool", "epsilon_bool",
            "trials_fraction", "trials_string", "link_epsilon_string"])
    def test_numbers_are_strict(self, tmp_path, capsys, doc, field):
        # each used to be truncated (64.9 -> 64, true -> 1) or parsed
        # from its string and run
        err = _run_malformed(tmp_path, capsys, doc)
        assert field in err

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

    @pytest.mark.parametrize("value", [[], 0, "", False],
                             ids=["list", "zero", "empty_string", "false"])
    def test_falsy_adversary_is_not_absent(self, tmp_path, capsys, value):
        # each used to run as "no adversary"
        err = _run_malformed(tmp_path, capsys, {"adversary": value})
        assert "'adversary' must be an object or null" in err

    @pytest.mark.parametrize("value", [{"a": 1}, 7, None, True, ["x"]],
                             ids=["object", "int", "null", "bool", "list"])
    def test_name_must_be_a_string(self, tmp_path, capsys, value):
        # each used to reach summary.json as its Python repr
        err = _run_malformed(tmp_path, capsys, {"name": value})
        assert "'name' must be a string" in err

    @pytest.mark.parametrize("doc", [{"adversary": None}, {"adversary": {}}, {}],
                             ids=["null", "empty_object", "omitted"])
    def test_no_adversary_forms(self, tmp_path, capsys, doc):
        # Each form is the one empty adversary, the same as an explicit
        # empty corrupted list.  With every link at epsilon 1 each trial
        # leaks all 6 hops of the two key shares; these forms used to
        # record none of them.
        leaky = [{**link, "epsilon": 1.0} for link in CHAIN_LINKS]
        forms = {"form": doc, "no_corrupted": {"adversary": {"corrupted": []}}}
        configs, reports = [], []
        for name, form in forms.items():
            (tmp_path / name).mkdir()
            path = two_chains_scenario_file(tmp_path / name, links=leaky,
                                            trials=50, **form)
            configs.append(load_scenario(path).adversary)
            out = tmp_path / name / "report"
            assert main(["run", "--scenario", path, "--out", str(out)]) == 1
            assert "verdict: VACUOUS" in capsys.readouterr().out
            report = (out / "trials.jsonl").read_bytes()
            leaked = [json.loads(line)["leaked_epochs"]
                      for line in report.splitlines()]
            assert leaked == [6] * 50, name
            reports.append(report)
        assert reports[0] == reports[1]
        assert configs[0] == configs[1]
        assert not configs[0].corrupted

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

    def test_disclose_all_is_not_a_strategy(self, tmp_path, capsys):
        # disclosure is reading the session's view, not a strategy
        err = _run_malformed(tmp_path, capsys, {"adversary": {
            "corrupted": ["n1"], "t": 1,
            "strategies": ["forge_auth", "disclose_all"]}})
        assert "unknown strategy 'disclose_all'" in err

    @pytest.mark.parametrize("doc", [
        {"endpoints": [["alice"], "bob"]},
        {"endpoints": ["alice", {"n": "bob"}]},
        _with_link_field("a", ["alice"]),
        _with_link_field("b", ["n1"]),
    ])
    def test_node_name_must_be_a_string(self, tmp_path, capsys, doc):
        # a list used to reach a set lookup and raise TypeError: unhashable
        _run_malformed(tmp_path, capsys, doc)

    def test_nan_distance_rejected(self, tmp_path, capsys):
        err = _run_malformed(tmp_path, capsys,
                             _with_link_field("distance_km", float("nan")))
        assert "distance_km" in err

    def test_non_utf8_file(self, tmp_path, capsys):
        bad = tmp_path / "latin1.json"
        bad.write_bytes('{"name": "caf\u00e9"}'.encode("latin-1"))
        rc = main(["run", "--scenario", str(bad)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and "UTF-8" in err

    def test_over_long_integer_literal(self, tmp_path, capsys):
        # json.loads raises a plain ValueError past Python's 4300-digit
        # limit for int conversion; it used to escape as a traceback
        long_seed = tmp_path / "long_seed.json"
        text = TWO_CHAINS.read_text()
        long_seed.write_text(text.replace('"seed": 7', '"seed": ' + "9" * 5000))
        assert long_seed.read_text() != text
        rc = main(["run", "--scenario", str(long_seed)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and "not valid JSON" in err

    def test_deeply_nested_json(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000 + "]" * 200_000)
        rc = main(["run", "--scenario", str(deep)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and "nested too deeply" in err

    def test_load_scenario_raises_validation_error(self):
        with pytest.raises(ValidationError, match="params 'n'"):
            load_scenario({
                "nodes": ["alice", "bob"], "links": [{"a": "alice", "b": "bob"}],
                "endpoints": ["alice", "bob"],
                "params": {**PARAMS, "n": "x", "ell": 1},
            })
