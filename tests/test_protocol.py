import json
import random
from fractions import Fraction
from functools import reduce
from operator import xor
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdnet import protocol
from qkdnet.adversary import (
    STRATEGIES,
    AdversaryConfig,
    AdversaryView,
    ScriptedAdversary,
    corrupt,
    guessing_advantage,
)
from qkdnet.bits import BitString
from qkdnet.errors import (
    InsufficientConnectivity,
    LengthMismatch,
    LinkDown,
    OutOfRange,
    ParameterViolation,
)
from qkdnet.mac import _tag_value
from qkdnet.network import NetworkGraph, PathSet, QkdLink
from qkdnet.protocol import (
    MAX_DRAW_BITS,
    SecurityParams,
    _authenticate,
    _decode_challenge,
    _encode_challenge,
    _key_parts,
    _make_challenge,
    _make_response,
    _open_first,
    _pivot_basis,
    _seal,
    _verify_challenge,
    _verify_response,
    deterministic_pa,
    full_session,
)
from qkdnet.sim import derive_trial_seed, load_scenario, run_trial

ROOT = Path(__file__).resolve().parent.parent

# Small parameter set: w=1, s=2, reserved 4, remainder 4 bits.
TINY = SecurityParams(n=8, s=2, m=2, ell=2)
# Production-ish set: w=8, s=16, reserved 32, remainder 32 bits.
STD = SecurityParams(n=64, s=16, m=4, ell=2)
# The empty adversary: no corrupted node, t = 0.
EMPTY = AdversaryConfig()
# Wire lengths of a challenge copy and a response copy (message || tag).
TINY_CH = TINY.challenge_bits + TINY.word_bits
STD_CH = STD.challenge_bits + STD.word_bits
STD_RESP = 1 + STD.word_bits


def draw_vectors(params, rng):
    """m parity vectors drawn as ``full_session`` draws them."""
    return tuple([rng.getrandbits(params.test_bits) for _ in range(params.m)])


def keyed_challenge(key, params, lambdas):
    """Challenge payload for chosen parity vectors, built without
    _make_challenge."""
    first, _, remainder = _key_parts(key, params)
    tb = params.test_bits
    parities = [(lam & remainder).bit_count() & 1 for lam in lambdas]
    message = _encode_challenge(lambdas, parities, tb)
    w = params.word_bits
    return (message << w) | _tag_value(w, first, message, params.challenge_bits)


class TestSecurityParams:
    def test_m_bound_enforced(self):
        with pytest.raises(ParameterViolation):
            SecurityParams(n=8, s=2, m=4, ell=2)

    def test_reserved_bits_must_fit(self):
        with pytest.raises(ParameterViolation):
            SecurityParams(n=4, s=2, m=1, ell=2)

    def test_ell_minimum(self):
        with pytest.raises(ParameterViolation):
            SecurityParams(n=8, s=2, m=1, ell=1)

    def test_s_must_be_even(self):
        with pytest.raises(ParameterViolation):
            SecurityParams(n=9, s=3, m=1, ell=2)

    def test_session_demand_fits_one_key_draw(self):
        # 5n - 4s + 5 = 2^31 - 1 at s = 2, m = 4
        edge = SecurityParams(n=429_496_730, s=2, m=4, ell=2)
        assert edge.session_demand_bits == MAX_DRAW_BITS
        with pytest.raises(ParameterViolation, match="session demand"):
            SecurityParams(n=429_496_731, s=2, m=4, ell=2)
        with pytest.raises(ParameterViolation, match="session demand"):
            SecurityParams(n=10**400, s=16, m=4, ell=2)

    def test_ell_fits_one_key_draw(self):
        SecurityParams(n=64, s=16, m=4, ell=MAX_DRAW_BITS)
        with pytest.raises(ParameterViolation, match="ell must be"):
            SecurityParams(n=64, s=16, m=4, ell=MAX_DRAW_BITS + 1)

    @pytest.mark.parametrize("field,value", [
        ("n", 64.5), ("n", 64.0), ("s", 16.0), ("m", True), ("m", 4.0),
        ("ell", True), ("ell", "2"),
    ])
    def test_widths_must_be_ints(self, field, value):
        # a float n would construct and then fail inside getrandbits,
        # and m=True would count as one challenge
        fields = {"n": 64, "s": 16, "m": 4, "ell": 2, field: value}
        with pytest.raises(ParameterViolation,
                           match=f"{field} must be an integer"):
            SecurityParams(**fields)

    @pytest.mark.parametrize("value", ["x", None, True, [0.1]])
    def test_epsilon_must_be_a_number(self, value):
        # bare TypeErrors from the range check, or True taken as 1
        with pytest.raises(ParameterViolation,
                           match="epsilon must be an int or float"):
            SecurityParams(n=64, s=16, m=4, ell=2, epsilon=value)

    def test_int_epsilon_accepted(self):
        assert SecurityParams(n=64, s=16, m=4, ell=2, epsilon=0).epsilon == 0

    def test_derived_sizes(self):
        p = SecurityParams(n=64, s=16, m=4, ell=3)
        assert p.word_bits == 8
        assert p.test_bits == 32
        assert p.challenge_bits == 4 * 33


class TestSplitSessionKey:
    def test_slices(self):
        assert _key_parts(0b10110100, TINY) == (0b10, 0b11, 0b0100)


class TestMakeChallenge:
    def test_message_length_is_m_times_testbits_plus_one(self):
        # test_bits=4, m=2 -> 2 * 5 = 10 bits on the wire before the tag
        rng = random.Random(0)
        key = rng.getrandbits(8)
        first, _, remainder = _key_parts(key, TINY)
        lambdas = draw_vectors(TINY, rng)
        copy = _make_challenge(first, remainder, lambdas, TINY)
        assert TINY.challenge_bits == 10
        assert copy[1] == 10 + TINY.word_bits
        assert 0 <= copy[0] < 1 << (10 + TINY.word_bits)
        assert isinstance(lambdas, tuple) and len(lambdas) == 2
        assert all(0 <= lam < 1 << 4 for lam in lambdas)
        assert _verify_challenge([copy], first, remainder, TINY) == (
            1, 0, lambdas)

    def test_zero_remainder_gives_zero_parities(self):
        rng = random.Random(1)
        first, _, remainder = _key_parts(0b1011_0000, TINY)
        lambdas = draw_vectors(TINY, rng)
        payload, _ = _make_challenge(first, remainder, lambdas, TINY)
        _, parities = _decode_challenge(payload >> TINY.word_bits, 4, 2)
        assert parities == [0, 0]

    def test_parity_by_hand(self):
        payload = keyed_challenge(0b0000_1010, TINY, [0b1100, 0b0010])
        _, parities = _decode_challenge(payload >> TINY.word_bits, 4, 2)
        assert parities == [1, 1]

    def test_parities_match_inner_products(self):
        rng = random.Random(2)
        first, _, remainder = _key_parts(rng.getrandbits(64), STD)
        lambdas = draw_vectors(STD, rng)
        payload, _ = _make_challenge(first, remainder, lambdas, STD)
        _, parities = _decode_challenge(payload >> STD.word_bits,
                                        STD.test_bits, STD.m)
        assert parities == [(lam & remainder).bit_count() & 1
                            for lam in lambdas]

    def test_encode_decode_round_trip(self):
        rng = random.Random(3)
        first, _, remainder = _key_parts(rng.getrandbits(64), STD)
        lambdas = draw_vectors(STD, rng)
        payload, _ = _make_challenge(first, remainder, lambdas, STD)
        message = payload >> STD.word_bits
        values, parities = _decode_challenge(message, STD.test_bits, STD.m)
        assert values == lambdas
        assert _encode_challenge(values, parities, STD.test_bits) == message

    def test_split_payload_is_message_and_tag(self):
        rng = random.Random(3)
        first, _, remainder = _key_parts(rng.getrandbits(64), STD)
        lambdas = draw_vectors(STD, rng)
        payload, _ = _make_challenge(first, remainder, lambdas, STD)
        w = STD.word_bits
        message, tag = payload >> w, payload & ((1 << w) - 1)
        assert message < 1 << STD.challenge_bits
        assert tag == _tag_value(w, first, message, STD.challenge_bits)

    def test_decode_rejects_wrong_length(self):
        # A copy one bit short or long is never decoded: it is skipped
        # like a forged copy.
        rng = random.Random(4)
        key = rng.getrandbits(64)
        first, second, remainder = _key_parts(key, STD)
        lambdas = draw_vectors(STD, rng)
        genuine = _make_challenge(first, remainder, lambdas, STD)
        payload = genuine[0]
        for bad in ((payload >> 1, STD_CH - 1), (payload << 1, STD_CH + 1)):
            out = _verify_challenge([bad, genuine], first, remainder, STD)
            assert out == (1, 1, lambdas)
            assert _verify_challenge([bad], first, remainder, STD) == (
                0, None, None)
        genuine = _make_response(1, second, STD)
        response = genuine[0]
        for bad in ((response >> 1, STD_RESP - 1), (response, STD_RESP + 1)):
            assert _verify_response([bad, genuine], second, STD) == (1, 1)
            assert _verify_response([bad], second, STD) == (0, None)


class TestVerifyChallenge:
    def test_honest_run_accepts_lowest_path(self):
        rng = random.Random(4)
        key = rng.getrandbits(64)
        first, _, remainder = _key_parts(key, STD)
        lambdas = draw_vectors(STD, rng)
        copy = _make_challenge(first, remainder, lambdas, STD)
        out = _verify_challenge([copy, copy], first, remainder, STD)
        assert out == (1, 0, lambdas)

    def test_differing_prefix_rejects_all_copies(self):
        rng = random.Random(5)
        key_a = rng.getrandbits(64)
        key_b = key_a ^ (1 << 63)  # flip a prefix bit
        first_a, _, rem_a = _key_parts(key_a, STD)
        first_b, _, rem_b = _key_parts(key_b, STD)
        lambdas = draw_vectors(STD, rng)
        copy = _make_challenge(first_a, rem_a, lambdas, STD)
        out = _verify_challenge([copy, copy], first_b, rem_b, STD)
        assert out == (0, None, None)

    def test_remainder_mismatch_caught_by_chosen_vector(self):
        # kappa prefixes equal, remainders differ in bit 1; a vector
        # probing that bit flags the mismatch deterministically.
        payload = keyed_challenge(0b0000_1010, TINY, [0b1000, 0b0001])
        first_b, _, rem_b = _key_parts(0b0000_0010, TINY)
        result, accepted, _ = _verify_challenge([(payload, TINY_CH)],
                                                first_b, rem_b, TINY)
        assert result == 0 and accepted == 0

    def test_miss_rate_exhaustive_single_vector(self):
        # kappa equal, remainders differ by d != 0: over all 16 vectors
        # exactly half miss (parities agree), the 2^-m rate at m=1.
        params = SecurityParams(n=8, s=2, m=1, ell=2)
        first_b, _, rem_b = _key_parts(0b1100_0110, params)
        misses = 0
        for lam in range(16):
            payload = keyed_challenge(0b1100_1010, params, [lam])
            copy = (payload, params.challenge_bits + params.word_bits)
            misses += _verify_challenge([copy], first_b, rem_b, params)[0]
        assert misses == 8

    def test_dropped_copies_are_mac_failures(self):
        rng = random.Random(6)
        key = rng.getrandbits(64)
        first, _, remainder = _key_parts(key, STD)
        lambdas = draw_vectors(STD, rng)
        copy = _make_challenge(first, remainder, lambdas, STD)
        out = _verify_challenge([None, copy], first, remainder, STD)
        assert out == (1, 1, lambdas)
        out_all_dropped = _verify_challenge([None, None], first, remainder, STD)
        assert out_all_dropped == (0, None, None)

    def test_unauthentic_copy_skipped_and_identified(self):
        rng = random.Random(7)
        key = rng.getrandbits(64)
        first, _, remainder = _key_parts(key, STD)
        lambdas = draw_vectors(STD, rng)
        genuine = _make_challenge(first, remainder, lambdas, STD)
        forged = (rng.getrandbits(STD_CH), STD_CH)
        out = _verify_challenge([forged, genuine], first, remainder, STD)
        assert out == (1, 1, lambdas)


class TestResponse:
    def test_round_trip_when_keys_equal(self):
        rng = random.Random(8)
        _, second, _ = _key_parts(rng.getrandbits(64), STD)
        for bit in (0, 1):
            copy = _make_response(bit, second, STD)
            assert copy[1] == STD_RESP
            assert _verify_response([copy, copy], second, STD) == (bit, 0)

    def test_differing_keys_reject(self):
        rng = random.Random(9)
        _, second_a, _ = _key_parts(rng.getrandbits(64), STD)
        _, second_b, _ = _key_parts(rng.getrandbits(64), STD)
        copy = _make_response(1, second_b, STD)
        assert _verify_response([copy, copy], second_a, STD) == (0, None)

    def test_forged_copy_identified_next_to_genuine(self):
        rng = random.Random(10)
        _, second, _ = _key_parts(rng.getrandbits(64), STD)
        genuine = _make_response(1, second, STD)
        forged = (rng.getrandbits(STD_RESP), STD_RESP)
        assert _verify_response([forged, genuine], second, STD) == (1, 1)

    def test_non_bit_result_rejected(self):
        with pytest.raises(OutOfRange):
            _make_response(2, 0, STD)


class TestFrame:
    """``_seal``/``_open_first``, the one ``message || w-bit tag`` codec."""

    @pytest.mark.parametrize("w", range(1, 17))
    def test_opens_only_at_its_width_with_an_intact_tag(self, w):
        rng = random.Random(w)
        key2w = rng.getrandbits(2 * w)
        for nbits in (1, 2 * w + 3):
            message = rng.getrandbits(nbits)
            copy = _seal(key2w, message, nbits, w)
            assert copy[1] == nbits + w
            assert _open_first([copy], key2w, nbits, w) == (0, message)
            assert _open_first([None, copy], key2w, nbits, w) == (1, message)
            for other in (nbits - 1, nbits + 1):
                assert _open_first([copy], key2w, other, w) == (None, None)
                assert _open_first([(copy[0], other + w)], key2w, nbits,
                                   w) == (None, None)
            for b in range(w):
                flipped = (copy[0] ^ (1 << b), copy[1])
                assert _open_first([flipped], key2w, nbits, w) == (None, None)
                assert _open_first([flipped, copy], key2w, nbits, w) == (
                    1, message)


class TestDeterministicPa:
    def test_hand_trace_two_pivots(self):
        k, trash = deterministic_pa(0b1010, 4, [0b1000, 0b0100])
        assert trash == {1, 2}
        assert k == 0b10

    def test_hand_trace_dependent_vector(self):
        # Second vector reduces against the first (0100 ^ 0110 = 0010),
        # so its pivot is position 3: sigma1 xor sigma2 equals bit 3,
        # which therefore cannot survive.
        k, trash = deterministic_pa(0b1010, 4, [0b0110, 0b0100])
        assert trash == {2, 3}
        assert k == 0b10

    def test_repeated_vector_trashes_once(self):
        k, trash = deterministic_pa(0b1010, 4, [0b0110, 0b0110])
        assert trash == {2}
        assert k == 0b110

    def test_leaky_greedy_counterexample_is_covered(self):
        # With the raw-vector greedy rule this configuration trashes
        # {1,2,4} and leaves (lam1 ^ lam3) supported on surviving
        # positions {3,5}; the reduced-pivot rule trashes {1,2,3}.
        lambdas = [0b011101, 0b100111, 0b010111]
        _, trash = deterministic_pa(0b101010, 6, lambdas)
        assert trash == {1, 2, 3}
        span = set()
        for mask in range(1, 8):
            acc = 0
            for i in range(3):
                if mask >> i & 1:
                    acc ^= lambdas[i]
            span.add(acc)
        for combo in span:
            if combo:
                covered = any((combo >> (6 - pos)) & 1 for pos in trash)
                assert covered, f"combination {combo:06b} escapes the trash"

    def test_no_vectors_is_identity(self):
        assert deterministic_pa(0b1010, 4, []) == (0b1010, frozenset())

    def test_all_zero_vector_contributes_nothing(self):
        assert deterministic_pa(0b1011, 4, [0]) == (0b1011, frozenset())

    def test_length_mismatch(self):
        for _ in range(2):   # a failure is not memoised
            with pytest.raises(LengthMismatch):
                deterministic_pa(0b101, 3, [0b1000])

    def test_trash_bounded_by_vector_count(self):
        rng = random.Random(11)
        for _ in range(100):
            nb = rng.randrange(2, 12)
            m = rng.randrange(0, nb)
            lambdas = [rng.getrandbits(nb) for _ in range(m)]
            key = rng.getrandbits(nb)
            k, trash = deterministic_pa(key, nb, lambdas)
            assert len(trash) <= m
            assert k.bit_length() <= nb - len(trash)

    def test_conditional_uniformity_smoke(self):
        # Exhaustive at 6 bits: K* must be uniform within each parity class.
        lambdas = [0b110000, 0b101000, 0b000011]
        groups = {}
        for kv in range(64):
            parities = tuple((lam & kv).bit_count() & 1 for lam in lambdas)
            kstar, trash = deterministic_pa(kv, 6, lambdas)
            groups.setdefault(parities, []).append(kstar)
        for members in groups.values():
            counts = {}
            for kstar in members:
                counts[kstar] = counts.get(kstar, 0) + 1
            assert len(set(counts.values())) == 1
            assert len(counts) == 1 << (6 - len(trash))


class TestPivotMemo:
    """The pivots are memoised per vector tuple; the memo must not change
    what any call returns or raises."""

    def test_lists_and_tuples_agree(self):
        lambdas = [0b011101, 0b100111, 0b010111]
        assert deterministic_pa(0b101010, 6, lambdas) == deterministic_pa(
            0b101010, 6, tuple(lambdas))

    def test_cold_and_warm_calls_agree(self):
        lambdas = (0b0110, 0b0100)
        _pivot_basis.cache_clear()
        cold = deterministic_pa(0b1010, 4, lambdas)
        warm = deterministic_pa(0b1010, 4, lambdas)
        assert cold == warm == (0b10, frozenset({2, 3}))
        assert _pivot_basis.cache_info().hits == 1

    def test_ends_with_different_vectors_get_their_own_pivots(self):
        rng = random.Random(3)
        key = rng.getrandbits(32)
        mine = [rng.getrandbits(32) for _ in range(4)]
        theirs = [v ^ 1 for v in mine]
        for lambdas in (mine, theirs, mine):
            assert deterministic_pa(key, 32, lambdas) == distill_reference(
                key, 32, lambdas)


def distill_reference(key, nb, lambdas):
    """Distillation with one step per surviving bit (the original loop)."""
    basis = {}
    for v in lambdas:
        while v:
            pos = nb - v.bit_length() + 1
            if pos not in basis:
                basis[pos] = v
                break
            v ^= basis[pos]
    trash = frozenset(basis)
    out = 0
    for pos in range(1, nb + 1):
        if pos not in trash:
            out = (out << 1) | ((key >> (nb - pos)) & 1)
    return out, trash


@st.composite
def distill_inputs(draw):
    nb = draw(st.integers(1, 48))
    vector = st.one_of(
        st.integers(0, (1 << nb) - 1),
        st.sampled_from([
            0,                    # all-zero vector
            1 << (nb - 1),        # pivot at position 1
            1,                    # pivot at position nb
            (1 << nb) - 1,
        ]),
    )
    values = draw(st.lists(vector, max_size=nb + 2))
    if values and draw(st.booleans()):
        values.append(draw(st.sampled_from(values)))   # a repeated vector
    key = draw(st.integers(0, (1 << nb) - 1))
    return key, nb, values


class TestDistillRunCopy:
    @settings(max_examples=500, deadline=None)
    @given(distill_inputs())
    def test_matches_per_bit_reference(self, args):
        assert deterministic_pa(*args) == distill_reference(*args)

    @pytest.mark.parametrize("key,lambdas,trash,out", [
        ("1011", [], set(), "1011"),
        ("1011", ["0000", "0000"], set(), "1011"),
        ("1011", ["1000"], {1}, "011"),
        ("1011", ["0001"], {4}, "101"),
        ("1011", ["1000", "0001"], {1, 4}, "01"),
        ("1011", ["0001", "0001", "1001"], {1, 4}, "01"),
        ("1011", ["1111", "0111", "0011", "0001"], {1, 2, 3, 4}, ""),
        ("1", ["1"], {1}, ""),
    ])
    def test_edges(self, key, lambdas, trash, out):
        got = deterministic_pa(int(key, 2), len(key),
                               [int(lam, 2) for lam in lambdas])
        assert got == (int(out or "0", 2), frozenset(trash))
        assert len(key) - len(trash) == len(out)


class TestIntegerSessionMatchesWrappers:
    """``full_session`` is establish plus its core: the outcome equals
    ``_authenticate``'s on the session's keys and vectors, with a relay
    that replays the session's copies."""

    @pytest.mark.parametrize("strategy", [
        None, "passive", "tamper_shares", "forge_auth", "drop_auth"])
    @pytest.mark.parametrize("seed", range(4))
    def test_same_bits(self, two_chains_graph, session_paths,
                       forwarded_shares, strategy, seed):
        sent, received = forwarded_shares
        cfg = EMPTY if strategy is None else corrupt(
            two_chains_graph, {"n1"}, endpoints=("alice", "bob"),
            strategies=(strategy,))
        out = full_session(two_chains_graph, session_paths(two_chains_graph, 2),
                           STD, cfg, random.Random(seed))
        copies = {"challenge": out.challenge_copies,
                  "response": out.response_copies}
        # path 1 avoids n1: its copies are the ones each end sent
        lambdas, _ = _decode_challenge(copies["challenge"][1][0] >> STD.word_bits,
                                       STD.test_bits, STD.m)

        def replay(kind, copy):
            assert copy == copies[kind][1]
            return copies[kind]

        core = _authenticate(reduce(xor, sent), reduce(xor, received),
                             lambdas, STD, replay, out.view)
        assert core == out


def relay_of(substitutes=()):
    """A relay built from data: every path delivers the copy sent, except
    each ``(kind, path index): copy`` of ``substitutes`` (None drops)."""
    substitutes = dict(substitutes)

    def relay(kind, copy):
        return tuple(substitutes.get((kind, i), copy) for i in range(STD.ell))
    return relay


class TestAuthenticate:
    """The draw-free core on chosen keys, vectors and relayed copies."""

    KEY = random.Random(42).getrandbits(STD.n)
    LAMBDAS = (1 << 31, 1 << 30, 0b11, 0b101)
    FIRST, SECOND, REM = _key_parts(KEY, STD)

    def run(self, key_b, relay):
        return _authenticate(self.KEY, key_b, self.LAMBDAS, STD, relay,
                             AdversaryView(STD.ell, STD.n))

    def test_honest_round_trip(self):
        out = self.run(self.KEY, relay_of())
        challenge = _make_challenge(self.FIRST, self.REM, self.LAMBDAS, STD)
        assert out.challenge_copies == (challenge, challenge)
        assert out.response_copies == (_make_response(1, self.SECOND, STD),) * 2
        assert (out.result, out.result_prime) == (1, 1)
        assert (out.accepted_b, out.accepted_a) == (0, 0)
        distilled = deterministic_pa(self.REM, STD.test_bits, self.LAMBDAS)
        assert (out.final_key_a, out.trash_a) == distilled
        assert (out.final_key_b, out.trash_b) == distilled
        assert out.succeeded and out.events == ()
        assert out.identified_dishonest == frozenset()

    def test_second_sub_keys_differ_so_a_rejects_the_response(self):
        key_b = self.KEY ^ (1 << STD.test_bits)   # last bit of sub-key 2
        assert _key_parts(key_b, STD)[::2] == (self.FIRST, self.REM)
        out = self.run(key_b, relay_of())
        assert (out.result, out.accepted_b) == (1, 0)
        assert (out.result_prime, out.accepted_a) == (0, None)
        assert out.final_key_a is None and out.trash_a is None
        assert (out.final_key_b, out.trash_b) == deterministic_pa(
            self.REM, STD.test_bits, self.LAMBDAS)
        assert out.events == ("parity_miss", "response_mismatch")

    def test_substitute_challenge_on_a_lower_path_sets_b_s_vectors(self):
        # sealed under B's first sub-key, with other vectors whose
        # parities match B's remainder: B accepts it on path 0 and
        # distils with its vectors, A with her own
        tb = STD.test_bits
        key_b = self.KEY ^ 1                      # last remainder bit
        first_b, _, rem_b = _key_parts(key_b, STD)
        other = (1, 0b10, 0b100, 0b1000)
        message = _encode_challenge(
            other, [(v & rem_b).bit_count() & 1 for v in other], tb)
        forged = _seal(first_b, message, STD.challenge_bits, STD.word_bits)
        out = self.run(key_b, relay_of({("challenge", 0): forged}))
        assert out.challenge_copies[0] == forged
        assert (out.result, out.accepted_b) == (1, 0)
        assert (out.result_prime, out.accepted_a) == (1, 0)
        assert (out.final_key_b, out.trash_b) == deterministic_pa(rem_b, tb, other)
        assert (out.final_key_a, out.trash_a) == deterministic_pa(
            self.REM, tb, self.LAMBDAS)
        assert out.trash_a != out.trash_b
        assert out.identified_dishonest == frozenset({1})


class TestMultipathEstablish:
    """The establish phase, observed through ``full_session``."""

    def test_honest_keys_equal_and_are_share_xor(self, two_chains_graph,
                                                 session_paths,
                                                 forwarded_shares):
        sent, received = forwarded_shares
        out = full_session(two_chains_graph, session_paths(two_chains_graph, 2),
                           STD, EMPTY, random.Random(12))
        assert received == sent
        # the challenge authenticates, and the final key distils, under
        # the XOR of the shares
        first, _, remainder = _key_parts(reduce(xor, sent), STD)
        result, _, lambdas = _verify_challenge(out.challenge_copies, first,
                                               remainder, STD)
        assert result == 1
        assert deterministic_pa(remainder, STD.test_bits, lambdas) == (
            out.final_key_a, out.trash_a)

    def test_insufficient_connectivity(self, two_chains_graph,
                                       session_paths):
        # two disjoint paths are too few for ell=3, whether searched for
        # or handed to the session
        params = SecurityParams(n=64, s=16, m=4, ell=3)
        with pytest.raises(InsufficientConnectivity):
            session_paths(two_chains_graph, 3)
        with pytest.raises(ParameterViolation):
            full_session(two_chains_graph, session_paths(two_chains_graph, 2),
                         params, EMPTY, random.Random(0))

    @pytest.mark.parametrize("ell", [2, 4])
    def test_path_count_must_equal_ell(self, ell):
        # the three-path set of forge_three_paths.json under any other
        # ell is refused before the session draws anything
        scenario = load_scenario(ROOT / "demos/scenarios/forge_three_paths.json")
        params = SecurityParams(n=scenario.params.n, s=scenario.params.s,
                                m=scenario.params.m, ell=ell)
        rng = random.Random(0)
        state = rng.getstate()
        with pytest.raises(ParameterViolation, match=f"ell={ell} paths, got 3"):
            full_session(scenario.graph, scenario.paths, params,
                         scenario.adversary, rng)
        assert rng.getstate() == state

    def test_tampering_desynchronizes_silently(self, two_chains_graph,
                                               session_paths,
                                               forwarded_shares):
        sent, received = forwarded_shares
        cfg = corrupt(two_chains_graph, {"n1"}, endpoints=("alice", "bob"),
                      strategies=("tamper_shares",))
        full_session(two_chains_graph, session_paths(two_chains_graph, 2),
                     STD, cfg, random.Random(13))
        assert received[0] != sent[0]   # via n1
        assert received[1] == sent[1]
        assert reduce(xor, received) != reduce(xor, sent)

    def test_ell_minus_one_controlled_keeps_key_private(self, three_path_graph,
                                                        session_paths):
        # 8-bit keys, adversary passively owns 2 of 3 paths: exact
        # posterior over the full key stays uniform.
        params = SecurityParams(n=8, s=2, m=2, ell=3)
        cfg = corrupt(three_path_graph, {"x1", "x2"}, endpoints=("alice", "bob"))
        out = full_session(three_path_graph, session_paths(three_path_graph, 3),
                           params, cfg, random.Random(14))
        assert set(out.view.learned_shares) == {0, 1}
        res = guessing_advantage(out.view)
        assert res == Fraction(0)

    def test_observed_shares_are_exactly_those_of_corrupted_paths(
            self, three_path_graph, session_paths, forwarded_shares):
        # paths sort x1, x2, x3; the adversary on x1/x3 sees those two
        # shares verbatim and nothing from the honest middle path.
        params = SecurityParams(n=16, s=2, m=2, ell=3)
        sent, _ = forwarded_shares
        cfg = corrupt(three_path_graph, {"x1", "x3"}, endpoints=("alice", "bob"))
        out = full_session(three_path_graph, session_paths(three_path_graph, 3),
                           params, cfg, random.Random(15))
        assert set(out.view.learned_shares) == {0, 2}
        assert out.view.learned_shares == {0: sent[0], 2: sent[2]}


class TestFullSession:
    def test_honest_session(self, two_chains_graph, session_paths):
        out = full_session(two_chains_graph, session_paths(two_chains_graph, 2),
                           STD, EMPTY, random.Random(15))
        assert out.result == 1 and out.result_prime == 1
        assert out.keys_equal
        assert out.identified_dishonest == frozenset()
        assert out.final_key_a == out.final_key_b
        assert out.trash_a == out.trash_b
        assert len(out.trash_a) <= STD.m
        assert out.final_key_a.bit_length() <= STD.test_bits - len(out.trash_a)
        assert out.succeeded

    def test_deterministic_replay(self, two_chains_graph, session_paths,
                                  forwarded_shares):
        sent, _ = forwarded_shares
        paths = session_paths(two_chains_graph, 2)
        a = full_session(two_chains_graph, paths, STD, EMPTY, random.Random(16))
        b = full_session(two_chains_graph, paths, STD, EMPTY, random.Random(16))
        assert a.final_key_a == b.final_key_a
        assert a.transcript() == b.transcript()
        assert sent[:STD.ell] == sent[STD.ell:]

    def test_tampered_share_fails_both_sides(self, two_chains_graph,
                                             session_paths):
        cfg = corrupt(two_chains_graph, {"n2"}, endpoints=("alice", "bob"),
                      strategies=("tamper_shares",))
        failures = 0
        paths = session_paths(two_chains_graph, 2)
        for seed in range(50):
            out = full_session(two_chains_graph, paths, STD, cfg,
                               random.Random(seed))
            assert not out.keys_equal
            assert out.final_key_a is None or out.result_prime == 1
            failures += out.result == 0
            assert out.succeeded == (out.result == out.result_prime == 0)
        # miss probability 2^-4 per trial; 50 trials virtually never all miss
        assert failures >= 40

    def test_drop_on_one_path_still_succeeds(self, two_chains_graph,
                                             session_paths):
        cfg = corrupt(two_chains_graph, {"n1"}, endpoints=("alice", "bob"),
                      strategies=("drop_auth",))
        out = full_session(two_chains_graph, session_paths(two_chains_graph, 2),
                           STD, cfg, random.Random(17))
        assert out.result == 1 and out.result_prime == 1
        assert out.keys_equal and out.succeeded
        assert out.final_key_a == out.final_key_b
        # path 0 crosses n1: both of its classical copies are dropped
        assert out.challenge_copies[0] is None
        assert out.identified_dishonest == frozenset({0})

    def test_transcript_serialization_layout(self, two_chains_graph,
                                             session_paths):
        out = full_session(two_chains_graph, session_paths(two_chains_graph, 2),
                           STD, EMPTY, random.Random(18))
        lines = out.transcript().splitlines()
        assert len(lines) == 2 * STD.ell + 1
        assert lines[0].startswith("challenge path=0 bits=")
        assert lines[-1] == "result=1 result_prime=1"

    @pytest.mark.parametrize("strategy", (None,) + STRATEGIES)
    def test_session_builds_no_bit_string(self, two_chains_graph, session_paths,
                                          monkeypatch, strategy):
        def refuse(*args, **kwargs):
            raise AssertionError("the session built a BitString")

        monkeypatch.setattr(BitString, "__init__", refuse)
        monkeypatch.setattr(BitString, "from_int", classmethod(refuse))
        cfg = EMPTY if strategy is None else corrupt(
            two_chains_graph, {"n1"}, endpoints=("alice", "bob"),
            strategies=(strategy,))
        out = full_session(two_chains_graph, session_paths(two_chains_graph, 2),
                           STD, cfg, random.Random(21))
        assert out.result == 1 or strategy == "tamper_shares"


class TestLinkPlan:
    """``provision_pools`` resolves links once per graph and path set;
    the cached plan must not change what a session sees."""

    PATHS = PathSet("alice", "bob", (("alice", "x", "bob"),
                                     ("alice", "y", "bob")))

    @staticmethod
    def graph(**link_kw):
        return NetworkGraph(
            {"alice", "bob", "x", "y"},
            [QkdLink("alice", "x", **link_kw), QkdLink("x", "bob", **link_kw),
             QkdLink("alice", "y"), QkdLink("y", "bob")])

    def test_plan_holds_each_hops_link_and_mark(self):
        graph = self.graph()
        link = graph.link_between
        assert protocol._link_plan(graph, self.PATHS, frozenset({"x"})) == (
            ((link("alice", "x"), True), (link("x", "bob"), False)),
            ((link("alice", "y"), False), (link("y", "bob"), False)))

    def test_one_pool_per_hop_in_path_hop_order(self):
        graph = self.graph(epsilon=0.5)
        hops = protocol.provision_pools(graph, self.PATHS, frozenset(), 40,
                                        random.Random(9))
        rng = random.Random(9)
        expected = []
        for path in self.PATHS.paths:
            for u, v in zip(path, path[1:]):
                link = graph.link_between(u, v)
                expected.append((link, rng.getrandbits(40),
                                 rng.random() < link.epsilon))
        assert [(pool.link, pool.value, pool.compromised)
                for route in hops for pool, _ in route] == expected

    def test_list_paths_run_like_tuples(self):
        # a list path set was a bare TypeError from the plan's cache key
        graph = NetworkGraph({"a", "b", "x"}, [
            QkdLink("a", "b"), QkdLink("a", "x"), QkdLink("x", "b")])
        runs = [full_session(graph, PathSet("a", "b", paths), TINY, EMPTY,
                             random.Random(3))
                for paths in ([["a", "b"], ["a", "x", "b"]],
                              (("a", "b"), ("a", "x", "b")))]
        listed, tupled = runs
        assert listed._values()[:-1] == tupled._values()[:-1]
        assert listed.view.learned_shares == tupled.view.learned_shares
        assert listed.transcript() == tupled.transcript()

    def test_dead_link_raises_with_a_warm_plan(self):
        graph = self.graph(alive=False)
        for seed in (1, 2):
            with pytest.raises(LinkDown):
                full_session(graph, self.PATHS, TINY, EMPTY,
                             random.Random(seed))

    @pytest.mark.parametrize("first", [0.0, 1.0])
    def test_graphs_differing_in_epsilon_do_not_share_a_plan(self, first):
        leaked = {}
        for eps in (first, 1.0 - first):
            out = full_session(self.graph(epsilon=eps), self.PATHS, TINY,
                               EMPTY, random.Random(7))
            leaked[eps] = out.view.leaked_epochs
        # epsilon 1 flags both links of path 0 compromised
        assert leaked == {0.0: 0, 1.0: 2}


def spy_relay_hooks(monkeypatch):
    """Record ``(hook, path index)`` for every relay hook call."""
    calls = []
    for name in ("on_key_hop", "on_classical_hop"):
        real = getattr(ScriptedAdversary, name)

        def spy(self, path_index, *rest, _name=name, _real=real):
            calls.append((_name, path_index))
            return _real(self, path_index, *rest)

        monkeypatch.setattr(ScriptedAdversary, name, spy)
    return calls


class TestRelayHooksFireOnlyAtCorruptedRelays:
    """Honest relays forward without calling the adversary: the session's
    hop plan marks only the hops into corrupted relays."""

    def test_empty_adversary_fires_no_hook(self, monkeypatch):
        calls = spy_relay_hooks(monkeypatch)
        scenario = load_scenario(ROOT / "demos/scenarios/two_chains.json")
        for i in range(5):
            run_trial(scenario, derive_trial_seed(scenario.seed, i), i)
        assert calls == []

    def test_only_the_corrupted_path_fires(self, monkeypatch):
        calls = spy_relay_hooks(monkeypatch)
        scenario = load_scenario(
            ROOT / "perfbench/inputs/criterion3_ell3_passive.json")
        (a1,) = [i for i, path in enumerate(scenario.paths.paths)
                 if "a1" in path]
        for i in range(5):
            calls.clear()
            run_trial(scenario, derive_trial_seed(scenario.seed, i), i)
            assert sorted(calls) == [("on_classical_hop", a1)] * 2 + [
                ("on_key_hop", a1)]

    def test_plan_is_keyed_by_the_corrupted_set(self, monkeypatch):
        # one graph object and path set, so only the corrupted set can
        # tell the three plans apart
        calls = spy_relay_hooks(monkeypatch)
        graph = TestLinkPlan.graph()
        x_corrupted = corrupt(graph, {"x"}, endpoints=("alice", "bob"))
        fired = []
        for cfg in (EMPTY, x_corrupted, EMPTY):
            calls.clear()
            full_session(graph, TestLinkPlan.PATHS, TINY, cfg,
                         random.Random(3))
            fired.append(sorted(calls))
        assert fired == [
            [], [("on_classical_hop", 0)] * 2 + [("on_key_hop", 0)], []]


class TestOneEpochPools:
    """Every link gets one epoch of ``session_demand_bits`` per session;
    the three transfers over it must fit that epoch exactly."""

    @pytest.mark.parametrize("n,s,m", [
        (8, 2, 2), (64, 16, 4), (48, 8, 7), (256, 32, 16), (200, 10, 30)])
    def test_hop_demands_sum_to_session_demand(self, n, s, m):
        params = SecurityParams(n=n, s=s, m=m, ell=2)
        w = params.word_bits
        share = n + 2 * w
        challenge = params.challenge_bits + w + 2 * w   # frame + hop key
        response = 1 + w + 2 * w
        assert share + challenge + response == params.session_demand_bits

    @staticmethod
    def left_after_sessions(monkeypatch, doc, sessions=30):
        """Bits left in each link's pool after each of ``sessions``
        trials of ``doc``."""
        captured = []
        real = protocol.provision_pools

        def spy(*args):
            routes = real(*args)
            captured.append([pool for route in routes for pool, _ in route])
            return routes

        monkeypatch.setattr(protocol, "provision_pools", spy)
        scenario = load_scenario(doc)
        left = []
        for i in range(sessions):
            run_trial(scenario, derive_trial_seed(scenario.seed, i), i)
            left.append([pool.available for pool in captured[-1]])
        return left

    @pytest.mark.parametrize("doc", [
        "demos/scenarios/two_chains.json",
        "perfbench/inputs/long_keys_w16.json",
        *(f"perfbench/inputs/criterion3_ell{ell}_{strategy}.json"
          for ell in (2, 3)
          for strategy in ("passive", "tamper_shares", "forge_auth")),
    ])
    def test_sessions_use_up_every_epoch(self, monkeypatch, doc):
        left = self.left_after_sessions(
            monkeypatch, json.loads((ROOT / doc).read_text()))
        assert all(bits == 0 for trial in left for bits in trial)

    @pytest.mark.parametrize("ell", [2, 3])
    def test_dropped_messages_leave_bits_unused(self, monkeypatch, ell):
        doc = json.loads((ROOT / "perfbench" / "inputs" /
                          f"criterion3_ell{ell}_drop_auth.json").read_text())
        # a drop at the relay leaves the relay's outgoing link with the
        # challenge and response hops it never made (no InsufficientKey)
        left = self.left_after_sessions(monkeypatch, doc)
        assert all(bits >= 0 for trial in left for bits in trial)
        assert {bits for trial in left for bits in trial} == {0, 181}


class TestLeakedSharesRecordedOnce:
    def test_two_chains_every_link_leaking(self, session_paths,
                                           forwarded_shares):
        sent, _ = forwarded_shares
        chain = ("alice", "n1", "n2", "bob"), ("alice", "n3", "n4", "bob")
        graph = NetworkGraph(
            {"alice", "n1", "n2", "n3", "n4", "bob"},
            [QkdLink(u, v, epsilon=1.0)
             for path in chain for u, v in zip(path[:-1], path[1:])])
        out = full_session(graph, session_paths(graph, 2), STD, EMPTY,
                           random.Random(8))
        assert out.view.learned_shares == {0: sent[0], 1: sent[1]}
        assert out.view.leaked_epochs == 6

    def test_share_tampered_then_leaked_keeps_the_sent_share(
            self, session_paths, forwarded_shares):
        # n1 tampers with path 0's share, then the n1-n2 hop leaks the
        # tampered value: the view keeps the share alice sent
        sent, received = forwarded_shares
        graph = NetworkGraph(
            {"alice", "n1", "n2", "n3", "n4", "bob"},
            [QkdLink("alice", "n1"), QkdLink("n1", "n2", epsilon=1.0),
             QkdLink("n2", "bob"), QkdLink("alice", "n3"),
             QkdLink("n3", "n4"), QkdLink("n4", "bob")])
        cfg = corrupt(graph, {"n1"}, endpoints=("alice", "bob"),
                      strategies=("tamper_shares",))
        out = full_session(graph, session_paths(graph, 2), STD, cfg,
                           random.Random(9))
        assert out.view.leaked_epochs == 1
        assert received[0] != sent[0]
        assert out.view.learned_shares == {0: sent[0]}
