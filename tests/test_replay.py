"""Byte-identical replay of ``qkdnet run --out``.

The digests below were recorded from the reference implementation.  A
change that alters any trial record or the summary (RNG order, pool
consumption, challenge encoding, MAC, report format) changes a digest;
such a change must say why and record the new digests.
"""

import hashlib
import json
from pathlib import Path

import pytest

from qkdnet.cli import main

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
}


def _scenario_path(name, tmp_path):
    if name == "w16":
        path = tmp_path / "w16.json"
        path.write_text(json.dumps(W16_DOC))
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
