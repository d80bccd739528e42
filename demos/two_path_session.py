"""
Two-path key agreement, end to end
==================================

Two chains of trusted repeaters join alice and bob.  A fresh share rides
each chain hop-by-hop (one-time pad plus per-hop authentication from the
link key pools); the XOR of the shares becomes the session key, the
parity challenge confirms both ends hold the same key, and deterministic
distillation strips the disclosed parity bits.

Then a repeater on the first chain turns Byzantine and flips bits in the
share it relays: both ends still finish the protocol, but the challenge
round detects the mismatch and both sides reject.
"""

import random

from qkdnet import (
    AdversaryConfig,
    NetworkGraph,
    QkdLink,
    SecurityParams,
    corrupt,
    full_session,
)

graph = NetworkGraph(
    {"alice", "n1", "n2", "n3", "n4", "bob"},
    [
        QkdLink("alice", "n1", distance_km=25), QkdLink("n1", "n2", distance_km=30),
        QkdLink("n2", "bob", distance_km=20),
        QkdLink("alice", "n3", distance_km=40), QkdLink("n3", "n4", distance_km=35),
        QkdLink("n4", "bob", distance_km=25),
    ],
)
params = SecurityParams(n=64, s=16, m=4, ell=2)

print("== honest run ==")
out = full_session(graph, "alice", "bob", params, AdversaryConfig(),
                   random.Random(7))
print(f"paths: {[' -> '.join(p) for p in out.paths.paths]}")
print(f"result={out.result} result'={out.result_prime} "
      f"keys_equal={out.keys_equal}")
width = params.test_bits - len(out.trash_a)   # keys are plain integers
print(f"alice final key ({width} bits): {out.final_key_a:0{width}b}")
print(f"bob   final key ({width} bits): {out.final_key_b:0{width}b}")
print(f"trashed positions: {sorted(out.trash_a)}")
print()
print("transcript:")
print(out.transcript())

print("== one repeater tampers with its share ==")
config = corrupt(graph, {"n1"}, t=1, endpoints=("alice", "bob"),
                 strategies=("tamper_shares",))
out = full_session(graph, "alice", "bob", params, config, random.Random(7))
print(f"result={out.result} result'={out.result_prime} "
      f"keys_equal={out.keys_equal}")
print(f"final keys: alice={out.final_key_a} bob={out.final_key_b}")
print("both sides rejected; neither accepted a desynchronized key")
