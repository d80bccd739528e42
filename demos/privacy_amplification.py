"""
Deterministic privacy amplification, bit by bit
===============================================

Each parity disclosed during key authentication leaks one linear
function of the remainder key.  Distillation trashes one pivot position
per independently informative vector, with pivots taken from the
row-reduced vectors.  The reduction matters: pivoting on the raw
leading bit lets a combination of two vectors land entirely on
surviving positions, and the exhaustive oracle below would catch the
leak.
"""

import random

from qkdnet import deterministic_pa
from qkdnet.sim import dpa_uniformity_exact

N = 6
key = 0b101101


def bits(value, width=N):
    """A key or vector as its '0'/'1' text, position 1 leftmost."""
    return format(value, f"0{width}b") if width else ""


def distill(lambdas):
    kstar, trash = deterministic_pa(key, N, lambdas)
    return sorted(trash), bits(kstar, N - len(trash))


print("independent vectors: one pivot each")
lambdas = [0b100010, 0b010001]
trash, kstar = distill(lambdas)
print(f"  key={bits(key)} vectors={[bits(v) for v in lambdas]}")
print(f"  trash={trash} distilled={kstar}")

print()
print("dependent vector: reduces to a fresh pivot")
lambdas = [0b011000, 0b010000]
trash, kstar = distill(lambdas)
print(f"  vectors={[bits(v) for v in lambdas]}")
print(f"  010000 reduces against 011000 to 001000, so position 3 is"
      f" trashed too")
print(f"  trash={trash} distilled={kstar}")

print()
print("repeated vector: second copy says nothing new")
trash, kstar = distill([0b011000, 0b011000])
print(f"  trash={trash} distilled={kstar}")

print()
print("the cancellation trap: raw-pivot greedy would trash {1,2,4} here,")
print("leaving (v1 xor v3) = 001010 on surviving positions 3 and 5")
trash, kstar = distill([0b011101, 0b100111, 0b010111])
print(f"  reduced pivots give trash={trash} distilled={kstar}")

print()
print("exhaustive uniformity over all 2^10 keys, 30 random vector sets:")
rng = random.Random(3)
ok = all(
    dpa_uniformity_exact(10, [rng.getrandbits(10) for _ in range(4)])
    for _ in range(30)
)
print(f"  conditional distribution of the distilled key uniform: {ok}")
