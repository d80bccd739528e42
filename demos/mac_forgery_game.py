"""
How far can a forger get against the polynomial MAC?
====================================================

The tag of an L-block message is a degree-L polynomial in the hash key
plus a one-time pad.  After one observed message-tag pair, the best
forgery acceptance probability is at most L/2^w.  Small fields make the
whole game enumerable: condition the key on the observed pair, try every
forgery, count.

The same reserved key segment covers two messages by splitting into
disjoint halves, one sub-key per direction.  The sender tags with the
public ``tag``; the receiver, holding the same segment, checks each tag
with the integer kernel the session uses, and rejects a challenge with
any one bit flipped.  The cross-direction game shows the observed pair
buys the forger nothing.
"""

import random
from fractions import Fraction

from qkdnet import BitString, MacKey, impersonation_bound, tag
from qkdnet.mac import _tag_value
from qkdnet.sim import mac_forgery_exact


def split(segment, w):
    """The two 2w-bit MAC keys of a 4w-bit reserved segment, first half
    for the challenge and second half for the response."""
    mask = (1 << (2 * w)) - 1
    return (MacKey(BitString.from_int(segment >> (2 * w), 2 * w)),
            MacKey(BitString.from_int(segment & mask, 2 * w)))


def receiver_accepts(sub_key, message, sent, w):
    """The receiver's check: the received tag against ``_tag_value`` of
    the received message under its own copy of the sub-key."""
    return _tag_value(w, sub_key, message.value, message.length) == sent.value


print("single-pair forgery, exhaustive over keys and forgeries")
print(f"{'w':>2} {'L':>2} {'bound L/2^w':>12} {'best forgery':>14}")
for w in (1, 2, 3, 4, 5, 6):
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
segment = rng.getrandbits(4 * w)
k_first, k_second = split(segment, w)  # the sender's keys
first, second = segment >> (2 * w), segment & ((1 << (2 * w)) - 1)
challenge = BitString.from_int(rng.getrandbits(40), 40)
response = BitString.from_int(1, 1)
sent = tag(k_first, challenge)
print(f"  challenge tag verifies: "
      f"{receiver_accepts(first, challenge, sent, w)}")
flips = [BitString.from_int(challenge.value ^ (1 << i), challenge.length)
         for i in range(challenge.length)]
rejected = sum(not receiver_accepts(first, f, sent, w) for f in flips)
print(f"  one-bit-flipped challenges rejected: {rejected}/{len(flips)}")
sent = tag(k_second, response)
print(f"  response  tag verifies: "
      f"{receiver_accepts(second, response, sent, w)}")

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
