"""
Scripted Byzantine strategies versus the agreement bound
========================================================

Runs a few thousand seeded trials for each adversary script on a
three-path topology (one corrupted relay) and compares the empirical
frequency of the agreement event

    result = result' = [keys equal]

against the analytic lower bound (1-eps)(1-2^-m)(1-p_im)^(2 ell - 2).
"""

from qkdnet.protocol import EVENTS
from qkdnet.sim import load_scenario, run_monte_carlo

BASE = {
    "name": "three-paths-one-corrupted",
    "nodes": ["alice", "bob", "a1", "a2"],
    "links": [
        {"a": "alice", "b": "bob"},
        {"a": "alice", "b": "a1"}, {"a": "a1", "b": "bob"},
        {"a": "alice", "b": "a2"}, {"a": "a2", "b": "bob"},
    ],
    "endpoints": ["alice", "bob"],
    "params": {"n": 64, "s": 16, "m": 4, "ell": 3, "w": 8},
    "trials": 4000,
    "seed": 11,
}

print(f"{'strategy':<15} {'empirical':>10} {'ci99 low':>10} {'bound':>10} verdict")
stats = {}
for strategy in ("passive", "tamper_shares", "forge_auth", "drop_auth"):
    doc = dict(BASE)
    doc["adversary"] = {"corrupted": ["a1"], "t": 1, "strategies": [strategy]}
    st = stats[strategy] = run_monte_carlo(load_scenario(doc)).stats
    print(f"{strategy:<15} {st.empirical:>10.5f} {st.ci_low:>10.5f} "
          f"{st.agreement_bound:>10.5f} {st.verdict}")

print()
print("failure tags seen under tamper_shares (first 4000 seeds):")
tags = {e: c for e, c in zip(EVENTS, stats["tamper_shares"].events) if c}
print(tags if tags else "(none: every tampered trial was caught)")
