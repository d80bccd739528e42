"""Byte-identical replay of ``qkdnet run --out``.

The digests below were recorded from the reference implementation.  A
change that alters any trial record or the summary (RNG order, pool
consumption, challenge encoding, MAC, report format) changes a digest;
such a change must say why and record the new digests.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from qkdnet.cli import main
from qkdnet.protocol import full_session
from qkdnet.sim import derive_trial_seed, load_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "demos" / "scenarios"

# 5-hop honest chain plus a passive corrupted relay at w = 16, so the
# session runs every hop and the challenge through the GF(2^16) hash.
W16_DOC = {
    "name": "replay-w16",
    "nodes": ["alice", "h1", "h2", "h3", "h4", "bob", "a1"],
    "links": [
        {"a": u, "b": v, "epsilon": 0.05}
        for u, v in (("alice", "h1"), ("h1", "h2"), ("h2", "h3"),
                     ("h3", "h4"), ("h4", "bob"), ("alice", "a1"),
                     ("a1", "bob"))
    ],
    "endpoints": ["alice", "bob"],
    "params": {"n": 256, "s": 32, "m": 16, "ell": 2, "w": 16},
    "adversary": {"corrupted": ["a1"], "t": 1, "strategies": ["passive"]},
    "trials": 20,
    "seed": 5,
}

# The two_chains demo with every link at epsilon 0.05 and no adversary
# block, so the leaked_epochs of each trial line come from epsilon leaks.
_TWO_CHAINS = json.loads((SCENARIOS / "two_chains.json").read_text())
NO_ADVERSARY_EPS_DOC = {
    **_TWO_CHAINS,
    "name": "replay-no-adversary-eps",
    "links": [{**link, "epsilon": 0.05} for link in _TWO_CHAINS["links"]],
}

INLINE_DOCS = {"w16": W16_DOC, "no_adversary_eps": NO_ADVERSARY_EPS_DOC}

RECORDED = {
    "two_chains": (
        200,
        "15695f9e8a97ada6e449e91df33a1090da8f581b7a5308025606c70eb50d6ddc",
        "c47585679a177f77ad2f9509885b6ec41074ebfb4a946c4b3ec70f17d1a4d2bb",
    ),
    "forge_three_paths": (
        200,
        "979f58081aaee7bae7cbafb155994dcd2d9b4f1bb19e101d4ce60fc848c58f1c",
        "24677ce851d9a69cb9824d8a7efdc7da7c8188a9a6dea5d515fa5590ce2d0bfd",
    ),
    "w16": (
        20,
        "88871892fe2093780e15544cdcec1cd43e8f8693ed5e25d6fbf25648142f7c54",
        "314e582ff92a60e1131630e3e8945da6e892c777c1dd4c5a450f837d30fa2452",
    ),
    "no_adversary_eps": (
        200,
        "16c63725d083e8556434d6a397536f805b6e0f1ba7721cbe59f4ed90bb762f16",
        "96eea355309218c0a190f3a00e645d8b4192db082c5af11037089eb9633e84a5",
    ),
}


def _scenario_path(name, tmp_path):
    if name in INLINE_DOCS:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(INLINE_DOCS[name]))
        return path
    return SCENARIOS / f"{name}.json"


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(RECORDED))
def test_run_report_is_byte_identical(name, tmp_path, capsys):
    trials, trials_digest, summary_digest = RECORDED[name]
    out = tmp_path / "report"
    rc = main(["run", "--scenario", str(_scenario_path(name, tmp_path)),
               "--trials", str(trials), "--out", str(out)])
    capsys.readouterr()
    assert rc == 0
    assert _sha256(out / "trials.jsonl") == trials_digest
    assert _sha256(out / "summary.json") == summary_digest


# The run reports hold no MAC value: sender and receiver share the tag
# function, so a wrong hash still verifies.  The transcript holds the
# challenge and response payloads with their tags bit for bit.
TRANSCRIPTS = {
    "two_chains": (
        50,
        "2aae5c2e75bbcfa5a81e1d80fad4d3194725b3e144197408a4894d12d111385a",
    ),
    "w16": (
        20,
        "fa3eeeb02d89e0662e7b29a9d5c165c0371a1cccb673cdb99c64b3d4d58c30b0",
    ),
}


@pytest.mark.parametrize("name", sorted(TRANSCRIPTS))
def test_auth_transcripts_are_byte_identical(name, tmp_path):
    trials, digest = TRANSCRIPTS[name]
    scenario = load_scenario(_scenario_path(name, tmp_path))
    h = hashlib.sha256()
    for i in range(trials):
        outcome = full_session(
            scenario.graph, scenario.a, scenario.b, scenario.params,
            scenario.adversary, random.Random(derive_trial_seed(scenario.seed, i)),
        )
        h.update(outcome.transcript().encode())
    assert h.hexdigest() == digest
