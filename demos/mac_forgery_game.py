"""
How far can a forger get against the polynomial MAC?
====================================================

The tag of an L-block message is a degree-L polynomial in the hash key
plus a one-time pad.  After one observed message-tag pair, the best
forgery acceptance probability is at most L/2^w.  Small fields make the
whole game enumerable: condition the key on the observed pair, try every
forgery, count.

The same reserved key segment covers two messages by splitting into
disjoint halves, one sub-key per direction; the cross-direction game
shows the observed pair buys the forger nothing.
"""

import random
from fractions import Fraction

from qkdnet import BitString, MacKey, impersonation_bound, tag
from qkdnet.sim import mac_forgery_exact


def split(segment, w):
    """The two 2w-bit MAC keys of a 4w-bit reserved segment, first half
    for the challenge and second half for the response."""
    mask = (1 << (2 * w)) - 1
    return (MacKey(BitString.from_int(segment >> (2 * w), 2 * w)),
            MacKey(BitString.from_int(segment & mask, 2 * w)))


print("single-pair forgery, exhaustive over keys and forgeries")
print(f"{'w':>2} {'L':>2} {'bound L/2^w':>12} {'best forgery':>14}")
for w in (1, 2, 3, 4):
    best = mac_forgery_exact(w, w)  # one content block + length block
    bound = Fraction(2, 1 << w)
    print(f"{w:>2} {2:>2} {str(bound):>12} {str(best):>14}")

print()
print("impersonation bound grows with message length (w=8):")
for bits in (0, 16, 64, 132, 520):
    print(f"  {bits:>4} bits -> {impersonation_bound(8, bits):.6f}")

print()
print("split-key two-message round trip")
rng = random.Random(1)
w = 8
k_first, k_second = split(rng.getrandbits(4 * w), w)
challenge = BitString.from_int(rng.getrandbits(40), 40)
response = BitString.from_int(1, 1)
sent = tag(k_first, challenge)
print(f"  challenge tag verifies: {tag(k_first, challenge) == sent}")
sent = tag(k_second, response)
print(f"  response  tag verifies: {tag(k_second, response) == sent}")

print()
print("cross-direction forgery: the observed pair under the first half")
print("says nothing about the second half")
hits = 0
trials = 20000
for _ in range(trials):
    ka, kb = split(rng.getrandbits(4 * w), w)
    tag(ka, challenge)  # the pair the forger observed
    forged_bit = BitString.from_int(rng.getrandbits(1), 1)
    forged_tag = BitString.from_int(rng.getrandbits(w), w)
    hits += tag(kb, forged_bit) == forged_tag
print(f"  accepted {hits}/{trials} "
      f"(p_im for a 1-bit message = {impersonation_bound(w, 1):.4f})")
