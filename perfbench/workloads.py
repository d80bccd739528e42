"""Workload table of the qkdnet benchmark.

Stdlib only: the orchestrator imports this module without importing
qkdnet.  Every Monte-Carlo document lives in ``inputs/``; a run with
``--seed s`` uses each document's own seed plus ``s`` as the master
seed, so ``--seed 0`` reproduces the documents exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

INPUTS = Path(__file__).resolve().parent / "inputs"

C3_STRATEGIES = ("passive", "tamper_shares", "forge_auth", "drop_auth")

#: ``qkdnet oracle`` defaults: --max-bits 8 gives n=16, s=4, m=2, ell=2.
ORACLE_PARAMS = {"n": 16, "s": 4, "m": 2, "ell": 2}
ORACLE_CONFIGS = 25
ORACLE_SEED = 2024


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    docs: tuple          # input file names; empty for the oracle workload
    trials: int          # trials per document in one pass
    all_succeed: bool    # no active adversary: every trial must succeed


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "honest_chains",
            "two 3-hop chains, w=8, no adversary: per-trial fixed cost and "
            "transport dominate, the adversary layer is idle",
            ("two_chains.json",), 2000, True,
        ),
        Workload(
            "criterion3_mix",
            "the eight criterion-3 acceptance documents (ell 2/3 x four "
            "strategies) that dominate Tier-1: short paths, busy adversary",
            tuple(f"criterion3_ell{ell}_{s}.json"
                  for ell in (2, 3) for s in C3_STRATEGIES),
            250, False,
        ),
        Workload(
            "long_keys_w16",
            "5-hop chain plus a passive relay, n=256, w=16, eps=0.05: "
            "3104-bit hops make the generic GF(2^16) MAC hash dominate",
            ("long_keys_w16.json",), 200, True,
        ),
        Workload(
            "oracles",
            "qkdnet oracle defaults plus the w=4 MAC forgery enumeration: "
            "exhaustive oracles on the public BitString MAC API, no "
            "Monte-Carlo trials",
            (), 0, False,
        ),
    )
}

#: Correctness gate at --seed 0: per document, the sha256 of the gated
#: per-trial fields (see ``gated_digest``) and the success count.
RECORDED = {
    "two_chains.json": (
        "50f71a25fee4704367cadc262339480cb208ddfddde5f3e3a6070ed3559f7447", 2000),
    "criterion3_ell2_passive.json": (
        "b49f8a7da3835980aa40cdbc88b60c070db375561d89fd2a9543e5f9f18121be", 250),
    "criterion3_ell2_tamper_shares.json": (
        "5668f6ae658e124f182c791cc3824e4a38335f9db743ba17f6e90991c27c072e", 250),
    "criterion3_ell2_forge_auth.json": (
        "35940d8042ca6a417defca50551f4b4571cf421d596d8d1b2f9b82b2d48b3398", 245),
    "criterion3_ell2_drop_auth.json": (
        "864a8fd58921e97459efcd274dd6a03f08371a7daf2b98106153d0fee9a83ac3", 250),
    "criterion3_ell3_passive.json": (
        "8721af40ef4f6f196d92ceb7d8f2bf9cfd2480faf42287129e434bd4ba6a7bb0", 250),
    "criterion3_ell3_tamper_shares.json": (
        "e3e675097c119905fe5b280c2ca9ec666de26552cb7315b76fd6a271994ddb12", 250),
    "criterion3_ell3_forge_auth.json": (
        "d61f2d388d08304c0ede0794c42104885f2f2ef20231884b2141f65c1ec741c2", 248),
    "criterion3_ell3_drop_auth.json": (
        "5bab166d319ac9ee2ebb5c6aeb9eb031bcaf72904a7ed41711950899d033bf7f", 250),
    "long_keys_w16.json": (
        "5e751e9881ad541fe313d0b905394b4bfd3ffd094085cfc832836905eee5b87d", 200),
}


def load_doc(name: str) -> dict:
    return json.loads((INPUTS / name).read_text())


def gated_digest(records) -> str:
    """sha256 over the per-trial outcome fields that define a trial.

    Only these fields are hashed, not the file bytes, so adding record
    fields or changing reported parameters leaves the gate intact.
    """
    import hashlib

    h = hashlib.sha256()
    for r in records:
        h.update(json.dumps(
            [r["index"], r["seed"], r["result"], r["result_prime"], r["delta"],
             r["succeeded"], r["final_key_len"], r["trash_size"]],
            separators=(",", ":"),
        ).encode())
        h.update(b"\n")
    return h.hexdigest()
