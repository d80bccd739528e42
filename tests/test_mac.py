import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdnet.bits import BitString
from qkdnet.errors import OutOfRange, ParameterViolation
from qkdnet.mac import (
    _CLOSED_FORM_MIN_BLOCKS,
    MacKey,
    _hash_value,
    _is_irreducible,
    _log_tables,
    _mul_generic,
    _mul_rows,
    _tag_value,
    impersonation_bound,
    reduction_polynomial,
    tag,
)
from qkdnet.protocol import SecurityParams, _key_parts
from qkdnet.sim import mac_forgery_exact


def random_bits(nbits, rng):
    return BitString.from_int(rng.getrandbits(nbits), nbits)


def random_key(w, rng):
    return MacKey(random_bits(2 * w, rng))


def all_keys(w):
    return [MacKey(BitString.from_int(v, 2 * w)) for v in range(1 << (2 * w))]


def all_messages(max_bits):
    """Every bit string of length 0..max_bits."""
    for n in range(max_bits + 1):
        for v in range(1 << n):
            yield BitString.from_int(v, n)


class TestReductionPolynomials:
    def test_search_result_is_irreducible(self):
        # Independent check by trial division over GF(2): a reducible
        # polynomial of degree w has a factor of degree <= w/2.
        for w in range(1, 17):
            poly = reduction_polynomial(w)
            assert poly.bit_length() == w + 1
            for cand in range(2, 1 << (w // 2 + 1)):
                # polynomial long division poly / cand over GF(2)
                rem = poly
                while rem.bit_length() >= cand.bit_length():
                    rem ^= cand << (rem.bit_length() - cand.bit_length())
                assert rem != 0, f"poly for w={w} divisible by {cand:#b}"

    def test_smallest_irreducible_is_pinned(self):
        assert [reduction_polynomial(w) for w in range(1, 18)] == [
            0x3, 0x7, 0xB, 0x13, 0x25, 0x43, 0x83, 0x11B, 0x203, 0x409,
            0x805, 0x1009, 0x201B, 0x4021, 0x8003, 0x1002B, 0x20009]

    def test_x_plus_one_is_irreducible(self):
        # x mod (x+1) is 1; an integer remainder 0b10 % 0b11 = 2 is not
        assert _is_irreducible(0b11, 1)

    def test_w16_entry(self):
        assert reduction_polynomial(16) == 0x1002B


class TestTagVerify:
    def test_round_trip_over_samples(self):
        rng = random.Random(11)
        for w in (1, 2, 4, 8):
            for _ in range(50):
                key = random_key(w, rng)
                msg = random_bits(rng.randrange(0, 4 * w + 1), rng)
                t = tag(key, msg)
                assert t.length == w
                assert t.value == _tag_value(w, key.material.value,
                                             msg.value, msg.length)

    def test_deterministic(self):
        rng = random.Random(2)
        key = random_key(8, rng)
        msg = random_bits(40, rng)
        assert tag(key, msg) == tag(key, msg)

    def test_tag_bit_flip_rejected(self):
        rng = random.Random(3)
        key = random_key(8, rng)
        msg = random_bits(24, rng)
        t = tag(key, msg)
        flipped = BitString.from_int(t.value ^ 1, 8)
        assert tag(key, msg) != flipped

    def test_message_bit_flip_rejected(self):
        rng = random.Random(4)
        key = random_key(8, rng)
        msg = random_bits(24, rng)
        t = tag(key, msg)
        assert tag(key, BitString.from_int(msg.value ^ 1, 24)) != t

    def test_wrong_tag_length_rejected(self):
        key = MacKey(BitString.from_int(0b10110100, 8))
        msg = BitString.from_int(0b1010, 4)
        t = tag(key, msg)
        assert t.length == 4
        assert t != BitString.from_int(0b101, 3)
        assert t != BitString.from_int(t.value, 5)

    def test_acceptance_iff_tag_equal_exhaustive(self):
        # w=2: all keys x all 0..4-bit messages x all 4 candidate tags.
        for key in all_keys(2):
            for msg in all_messages(4):
                t = tag(key, msg)
                assert sum(t == BitString.from_int(tv, 2)
                           for tv in range(4)) == 1

    def test_random_key_acceptance_rate(self):
        # a tag under an unrelated uniform key matches with probability
        # exactly 2^-w, which is below the L/2^w bound.
        rng = random.Random(5)
        w = 8
        key = random_key(w, rng)
        msg = random_bits(16, rng)
        t = tag(key, msg)
        trials = 100_000
        hits = sum(
            tag(random_key(w, rng), msg) == t for _ in range(trials)
        )
        assert hits / trials <= impersonation_bound(w, 16)


class TestImpersonationBound:
    def test_frozen_values(self):
        assert impersonation_bound(8, 16) == 3 / 256
        assert impersonation_bound(8, 0) == 1 / 256
        assert impersonation_bound(16, 16) == 2 / 65536

    def test_monotone_in_message_length(self):
        bounds = [impersonation_bound(8, n) for n in range(0, 257, 8)]
        assert bounds == sorted(bounds)

    def test_clamped_to_probability(self):
        assert impersonation_bound(1, 1000) == 1.0

    def test_negative_length_rejected(self):
        with pytest.raises(OutOfRange):
            impersonation_bound(8, -1)

    @pytest.mark.parametrize("w", [0, -1])
    def test_word_size_must_be_positive(self, w):
        with pytest.raises(OutOfRange):
            impersonation_bound(w, 8)


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

    @pytest.mark.parametrize("w,message_bits", [
        *((w, bits) for w in (1, 2) for bits in range(1, 2 * w + 1)),
        (3, 1), (3, 2), (3, 3),
    ])
    def test_oracle_matches_brute_force(self, w, message_bits):
        # sim's oracle enumerates hash keys only; the brute force
        # conditions on the observed tag over every 2w-bit key
        observed = BitString.from_int(1 % (1 << message_bits), message_bits)
        blocks = -(-message_bits // w)
        forged = [m for m in all_messages(blocks * w)
                  if -(-m.length // w) == blocks]
        assert mac_forgery_exact(w, message_bits) == forgery_success(
            w, observed, forged)


class TestTwoMessageSplit:
    """The session's split of its reserved prefix (``_key_parts``) into
    one 2w-bit MAC sub-key per direction."""

    def test_halves(self):
        params = SecurityParams(n=6, s=2, m=1, ell=2)   # w=1, 2 test bits
        assert _key_parts(0b10_11_01, params) == (0b10, 0b11, 0b01)

    def test_concat_round_trip(self):
        rng = random.Random(6)
        params = SecurityParams(n=40, s=16, m=1, ell=2)
        key = rng.getrandbits(40)
        k1, k2, rest = _key_parts(key, params)
        assert k1 >> 16 == k2 >> 16 == 0
        assert (((k1 << 16) | k2) << params.test_bits) | rest == key

    def test_wrong_length(self):
        # a reserved segment splits only into two 2w-bit sub-keys
        with pytest.raises(ParameterViolation):
            SecurityParams(n=13, s=3, m=1, ell=2)

    def test_cross_key_forgery_monte_carlo(self):
        # Adversary sees Alice's (M, T) under the first sub-key and tries
        # to forge Bob's one-bit response under the second sub-key.  The
        # sub-keys occupy disjoint bits, so the observed pair is useless:
        # acceptance frequency stays below p_im for the 1-bit message.
        rng = random.Random(7)
        w = 8
        params = SecurityParams(n=4 * w + 2, s=2 * w, m=1, ell=2)
        p_im = impersonation_bound(w, 1)
        trials = 100_000
        hits = 0
        for _ in range(trials):
            ka, kb, _ = _key_parts(
                rng.getrandbits(4 * w) << params.test_bits, params)
            _tag_value(w, ka, rng.getrandbits(16), 16)  # observed, unused
            forged_res = rng.getrandbits(1)
            forged_tag = rng.getrandbits(w)
            hits += _tag_value(w, kb, forged_res, 1) == forged_tag
        assert hits / trials <= p_im

    def test_sub_key_independence_exhaustive(self):
        # Conditioning on any tag under the first sub-key leaves the
        # second sub-key exactly uniform.
        w = 2
        params = SecurityParams(n=10, s=4, m=1, ell=2)
        by_tag = {}
        for k in range(1 << (4 * w)):
            ka, kb, _ = _key_parts(k << params.test_bits, params)
            by_tag.setdefault(_tag_value(w, ka, 0b11, 2), []).append(kb)
        for group in by_tag.values():
            counts = Counter(group)
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


@st.composite
def long_w16_inputs(draw):
    nbits = draw(st.integers((_CLOSED_FORM_MIN_BLOCKS - 1) * 16, 4000))
    x = draw(st.integers(0, (1 << 16) - 1))
    value = draw(st.integers(0, (1 << nbits) - 1))
    return 16, x, value, nbits


class TestHashKernel:
    @settings(max_examples=400, deadline=None)
    @given(hash_inputs())
    def test_matches_bit_serial_reference(self, args):
        assert _hash_value(*args) == horner_reference(*args)

    @settings(max_examples=200, deadline=None)
    @given(long_w16_inputs())
    def test_long_w16_matches_bit_serial_reference(self, args):
        assert _hash_value(*args) == horner_reference(*args)

    # Both sides of the closed-form threshold, 47-49 blocks (where it
    # was first measured), the challenge (3088 bits) and hop (3104 bits)
    # frames of the long-key benchmark, and a length block of
    # nbits mod 2^16 == 0.
    @pytest.mark.parametrize("nbits", sorted({
        (_CLOSED_FORM_MIN_BLOCKS - 1) * 16,
        _CLOSED_FORM_MIN_BLOCKS * 16,
        (_CLOSED_FORM_MIN_BLOCKS + 1) * 16,
        752, 768, 784,
        3088,
        3104,
        1 << 16,
    }))
    def test_long_w16_edge_cases(self, nbits):
        ones = (1 << 16) - 1
        rng = random.Random(nbits)
        partial = nbits - 5                      # same block count, partial last block
        gaps = sum(rng.randrange(1, ones + 1) << (16 * i)
                   for i in range(nbits // 16) if i % 3)
        cases = [(x, value, length)
                 for x in (0, 1, ones, rng.randrange(2, ones))
                 for value, length in [
                     (0, nbits),                 # all-zero message
                     ((1 << nbits) - 1, nbits),  # all-ones message
                     (rng.getrandbits(nbits), nbits),
                     (rng.getrandbits(partial), partial),
                     (gaps, nbits),              # zero blocks among nonzero
                 ]]
        for x, value, length in cases:
            assert _hash_value(16, x, value, length) == horner_reference(
                16, x, value, length), (x, length)

    def test_w8_every_hash_key_at_session_lengths(self):
        # The session's w = 8 messages: response (1 bit) and its hop
        # frame (9), share (64), challenge (132) and its hop frame (140).
        rng = random.Random(8)
        for nbits in (1, 9, 64, 132, 140):
            for x in range(256):
                value = rng.getrandbits(nbits)
                assert _hash_value(8, x, value, nbits) == horner_reference(
                    8, x, value, nbits), (x, nbits)

    def test_w4_and_w8_calls_with_one_key_keep_their_rows(self):
        # A row cache keyed by x alone would hand one word size the
        # other's row.
        rng = random.Random(48)
        for x in range(16):
            for w in (4, 8, 4, 8):
                value = rng.getrandbits(64)
                assert _hash_value(w, x, value, 64) == horner_reference(
                    w, x, value, 64), (w, x)

    @pytest.mark.parametrize("w", range(1, 9))
    def test_mul_rows_match_generic_multiply(self, w):
        rows = _mul_rows(w)
        poly = reduction_polynomial(w)
        assert len(rows) == 1 << w
        for x, row in enumerate(rows):
            assert row == [_mul_generic(a, x, w, poly) for a in range(1 << w)]

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

    def test_generator_is_the_smallest_primitive_element(self):
        # Recorded from the table build that factored 2^w - 1.  At w = 8
        # the candidate 2 has order 51, at w = 9 both 2 and 3 have order
        # 73, and at w = 16 the candidate 2 has order 21845: the build
        # must abandon each of those fills and keep the next candidate.
        assert [_log_tables(w)[0][1] for w in range(1, 17)] == [
            1, 2, 2, 2, 2, 2, 2, 3, 7, 2, 2, 3, 2, 7, 2, 3]

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
