import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdnet.bits import BitString
from qkdnet.errors import OutOfRange
from qkdnet.mac import (
    MacKey,
    MacParams,
    Tag,
    _hash_value,
    _log_tables,
    _mul_generic,
    impersonation_bound,
    reduction_polynomial,
    split_for_two_messages,
    tag,
    verify,
)


def random_key(w, rng):
    return MacKey(BitString.random(2 * w, rng))


def all_keys(w):
    return [MacKey(BitString.from_int(v, 2 * w)) for v in range(1 << (2 * w))]


def all_messages(max_bits):
    """Every bit string of length 0..max_bits."""
    for n in range(max_bits + 1):
        for v in range(1 << n):
            yield BitString.from_int(v, n)


class TestReductionPolynomials:
    def test_fixed_table_is_irreducible(self):
        # Independent check: an irreducible polynomial of degree w has no
        # root generating a proper factor; verify by trial division over
        # all lower-degree polynomials.
        for w in (1, 2, 3, 4, 8):
            poly = reduction_polynomial(w)
            assert poly.bit_length() == w + 1
            for cand in range(2, 1 << w):
                # polynomial long division poly / cand over GF(2)
                rem = poly
                while rem.bit_length() >= cand.bit_length():
                    rem ^= cand << (rem.bit_length() - cand.bit_length())
                assert rem != 0, f"poly for w={w} divisible by {cand:#b}"

    def test_w16_entry(self):
        assert reduction_polynomial(16) == 0x1002B


class TestTagVerify:
    def test_round_trip_over_samples(self):
        rng = random.Random(11)
        for w in (1, 2, 4, 8):
            for _ in range(50):
                key = random_key(w, rng)
                msg = BitString.random(rng.randrange(0, 4 * w + 1), rng)
                assert verify(key, msg, tag(key, msg))

    def test_deterministic(self):
        rng = random.Random(2)
        key = random_key(8, rng)
        msg = BitString.random(40, rng)
        assert tag(key, msg) == tag(key, msg)

    def test_tag_bit_flip_rejected(self):
        rng = random.Random(3)
        key = random_key(8, rng)
        msg = BitString.random(24, rng)
        t = tag(key, msg)
        flipped = Tag(t.value ^ BitString("00000001"))
        assert not verify(key, msg, flipped)

    def test_message_bit_flip_rejected(self):
        rng = random.Random(4)
        key = random_key(8, rng)
        msg = BitString.random(24, rng)
        t = tag(key, msg)
        assert not verify(key, msg ^ BitString.from_int(1, 24), t)

    def test_wrong_tag_length_rejected(self):
        key = MacKey(BitString("10110100"))
        msg = BitString("1010")
        assert not verify(key, msg, Tag(BitString("101")))

    def test_acceptance_iff_tag_equal_exhaustive(self):
        # w=2: all keys x all 0..4-bit messages x all 4 candidate tags.
        for key in all_keys(2):
            for msg in all_messages(4):
                true_tag = tag(key, msg)
                for tv in range(4):
                    cand = Tag(BitString.from_int(tv, 2))
                    assert verify(key, msg, cand) == (cand == true_tag)

    def test_random_key_acceptance_rate(self):
        # verify under an unrelated uniform key accepts with probability
        # exactly 2^-w, which is below the L/2^w bound.
        rng = random.Random(5)
        w = 8
        key = random_key(w, rng)
        msg = BitString.random(16, rng)
        t = tag(key, msg)
        trials = 100_000
        hits = sum(
            verify(random_key(w, rng), msg, t) for _ in range(trials)
        )
        assert hits / trials <= impersonation_bound(MacParams(w), 16)


class TestImpersonationBound:
    def test_frozen_values(self):
        assert impersonation_bound(MacParams(8), 16) == 3 / 256
        assert impersonation_bound(MacParams(8), 0) == 1 / 256
        assert impersonation_bound(MacParams(16), 16) == 2 / 65536

    def test_monotone_in_message_length(self):
        p = MacParams(8)
        bounds = [impersonation_bound(p, n) for n in range(0, 257, 8)]
        assert bounds == sorted(bounds)

    def test_clamped_to_probability(self):
        assert impersonation_bound(MacParams(1), 1000) == 1.0

    def test_negative_length_rejected(self):
        with pytest.raises(OutOfRange):
            impersonation_bound(MacParams(8), -1)


def forgery_success(w, observed_msg, forged_msgs):
    """Best impersonation success after one observed pair, by brute force.

    For every true key, condition on the observed (M, T): the verifier's
    key is uniform over the keys producing the same tag.  The forger
    picks the (M', T') maximizing the posterior acceptance probability.
    Returns that maximum as an exact Fraction.
    """
    n_keys = 1 << (2 * w)
    best = Fraction(0)
    for kv in range(n_keys):
        key = MacKey(BitString.from_int(kv, 2 * w))
        observed_tag = tag(key, observed_msg)
        consistent = [
            k2 for k2 in all_keys(w) if tag(k2, observed_msg) == observed_tag
        ]
        for fm in forged_msgs:
            if fm == observed_msg:
                continue
            counts = {}
            for k2 in consistent:
                tv = tag(k2, fm)
                counts[tv] = counts.get(tv, 0) + 1
            if counts:
                frac = Fraction(max(counts.values()), len(consistent))
                best = max(best, frac)
    return best


class TestForgeryEnumeration:
    @pytest.mark.parametrize("w", [1, 2, 3])
    def test_single_block_bound_exact(self, w):
        # Observed message of one content block; forgeries drawn from all
        # messages padding to the same block count.  The success
        # probability never exceeds L/2^w, with L = 2 here.
        observed = BitString.from_int(1, w)
        forged = [m for m in all_messages(w) if m.length >= 1]
        success = forgery_success(w, observed, forged)
        bound = Fraction(2, 1 << w)
        assert success <= bound

    def test_w2_two_blocks(self):
        observed = BitString.from_int(0b101, 3)  # pads to 2 content blocks
        forged = [m for m in all_messages(4) if m.length >= 3]
        success = forgery_success(2, observed, forged)
        assert success <= Fraction(3, 4)  # L = 3

    def test_bound_is_tight_at_w3(self):
        # Messages of 1..w bits all pad to L=2 blocks; differing lengths
        # make the difference polynomial degree-2 with a linear term, so
        # two roots are achievable: success == L/2^w exactly.
        w = 3
        observed = BitString.from_int(1, w)
        forged = [m for m in all_messages(w) if 1 <= m.length]
        success = forgery_success(w, observed, forged)
        assert success == Fraction(2, 1 << w)


class TestTwoMessageSplit:
    def test_halves(self):
        k1, k2 = split_for_two_messages(BitString("1011"))
        assert str(k1.material) == "10"
        assert str(k2.material) == "11"

    def test_concat_round_trip(self):
        rng = random.Random(6)
        key2 = BitString.random(32, rng)
        k1, k2 = split_for_two_messages(key2)
        assert k1.material.concat(k2.material) == key2

    def test_wrong_length(self):
        with pytest.raises(OutOfRange):
            split_for_two_messages(BitString("101010"))

    def test_cross_key_forgery_monte_carlo(self):
        # Adversary sees Alice's (M, T) under the first sub-key and tries
        # to forge Bob's one-bit response under the second sub-key.  The
        # sub-keys occupy disjoint bits, so the observed pair is useless:
        # acceptance frequency stays below p_im for the 1-bit message.
        rng = random.Random(7)
        w = 8
        p_im = impersonation_bound(MacParams(w), 1)
        trials = 100_000
        hits = 0
        for _ in range(trials):
            key2 = BitString.random(4 * w, rng)
            ka, kb = split_for_two_messages(key2)
            msg = BitString.random(16, rng)
            _ = tag(ka, msg)  # observed by the adversary, unused below
            forged_res = BitString.from_int(rng.getrandbits(1), 1)
            forged_tag = Tag(BitString.random(w, rng))
            hits += verify(kb, forged_res, forged_tag)
        assert hits / trials <= p_im

    def test_two_message_game_exhaustive_w2(self):
        # Exhaustive over all 4w-bit split keys: after seeing one pair in
        # each direction, the best forgery against either direction
        # succeeds with probability <= 2 * p_im.
        w = 2
        msg_a = BitString.from_int(0b10, 2)
        msg_b = BitString.from_int(1, 1)
        p_im = Fraction(2, 1 << w)  # L=2 blocks for both messages
        candidates = [m for m in all_messages(2) if m.length >= 1]
        worst = Fraction(0)
        for kv in range(1 << (4 * w)):
            key2 = BitString.from_int(kv, 4 * w)
            ka, kb = split_for_two_messages(key2)
            ta, tb = tag(ka, msg_a), tag(kb, msg_b)
            consistent = [
                (BitString.from_int(v, 4 * w))
                for v in range(1 << (4 * w))
            ]
            consistent = [
                k2 for k2 in consistent
                if tag(split_for_two_messages(k2)[0], msg_a) == ta
                and tag(split_for_two_messages(k2)[1], msg_b) == tb
            ]
            best = Fraction(0)
            for direction in (0, 1):
                target = msg_a if direction == 0 else msg_b
                for fm in candidates:
                    if fm == target:
                        continue
                    counts = {}
                    for k2 in consistent:
                        sub = split_for_two_messages(k2)[direction]
                        tv = tag(sub, fm)
                        counts[tv] = counts.get(tv, 0) + 1
                    best = max(
                        best, Fraction(max(counts.values()), len(consistent))
                    )
            worst = max(worst, best)
        assert worst <= 2 * p_im

    def test_sub_key_independence_exhaustive(self):
        # Conditioning on any tag under the first sub-key leaves the
        # second sub-key exactly uniform.
        w = 2
        msg = BitString.from_int(0b11, 2)
        by_tag = {}
        for kv in range(1 << (4 * w)):
            key2 = BitString.from_int(kv, 4 * w)
            ka, kb = split_for_two_messages(key2)
            t = tag(ka, msg)
            by_tag.setdefault(t, []).append(kb.material)
        for group in by_tag.values():
            counts = {}
            for kb in group:
                counts[kb] = counts.get(kb, 0) + 1
            assert len(counts) == 1 << (2 * w)
            assert len(set(counts.values())) == 1


def horner_reference(w, x, value, nbits):
    """Bit-serial Horner evaluation of the hash, one block at a time."""
    poly = reduction_polynomial(w)
    nb = -(-nbits // w)
    padded = value << (nb * w - nbits)
    blocks = [(padded >> (w * (nb - 1 - i))) % (1 << w) for i in range(nb)]
    acc = 0
    for c in blocks + [nbits % (1 << w)]:
        acc = _mul_generic(acc, x, w, poly) ^ c
    return _mul_generic(acc, x, w, poly)


@st.composite
def hash_inputs(draw):
    w = draw(st.integers(1, 17))
    nbits = draw(st.integers(0, 6 * w + 5))
    x = draw(st.integers(0, (1 << w) - 1))
    value = draw(st.integers(0, (1 << nbits) - 1))
    return w, x, value, nbits


class TestHashKernel:
    @settings(max_examples=400, deadline=None)
    @given(hash_inputs())
    def test_matches_bit_serial_reference(self, args):
        assert _hash_value(*args) == horner_reference(*args)

    @pytest.mark.parametrize("w", range(1, 18))
    def test_edge_cases_every_word_size(self, w):
        ones = (1 << w) - 1
        cases = [
            (0, 0, 0),                           # empty message, zero key
            (ones, 0, 0),                        # empty message
            (0, (1 << (3 * w)) - 1, 3 * w),      # zero key
            (ones, (1 << (3 * w)) - 1, 3 * w),   # all ones
            (ones, (1 << (2 * w + 1)) - 1, 2 * w + 1),  # partial last block
            (1, 1, 2 * w + 1),
        ]
        for x, value, nbits in cases:
            assert _hash_value(w, x, value, nbits) == horner_reference(
                w, x, value, nbits), (x, value, nbits)
        assert _hash_value(w, 0, 0, 0) == 0

    def test_block_order_is_big_endian(self):
        # Blocks [1, 0] then length 32, key x = 2 (the polynomial x):
        # x^3 + 0*x^2 + 32*x = 8 ^ 64 with no reduction.  Reversed blocks
        # give 4 ^ 64; little-endian bytes inside a block give 2048 ^ 64.
        assert _hash_value(16, 2, 0x0001_0000, 32) == 8 ^ 64
        assert _hash_value(8, 2, 0x01_00, 16) == 8 ^ 32

    @pytest.mark.parametrize("w", range(1, 17))
    def test_log_tables_are_inverse_bijections(self, w):
        exp, log = _log_tables(w)
        order = (1 << w) - 1
        nonzero = range(1, 1 << w)
        assert sorted(exp[:order]) == list(nonzero)
        assert all(log[exp[i]] == i for i in range(order))
        assert all(exp[log[a]] == a for a in nonzero)
        assert all(exp[log[a] + log[0]] == 0 for a in range(1 << w))

    @pytest.mark.parametrize("w", range(1, 17))
    def test_log_tables_multiply(self, w):
        exp, log = _log_tables(w)
        poly = reduction_polynomial(w)
        rng = random.Random(w)
        pairs = [(0, 0), (0, 1), (1, 0), ((1 << w) - 1, (1 << w) - 1)] + [
            (rng.randrange(1 << w), rng.randrange(1 << w)) for _ in range(200)
        ]
        for a, b in pairs:
            assert exp[log[a] + log[b]] == _mul_generic(a, b, w, poly)
