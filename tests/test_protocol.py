import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdnet import protocol
from qkdnet.adversary import corrupt, guessing_advantage
from qkdnet.bits import BitString, inner_product, xor_combine
from qkdnet.errors import (
    InsufficientConnectivity,
    LengthMismatch,
    OutOfRange,
    ParameterViolation,
)
from qkdnet.mac import tag as mac_tag
from qkdnet.protocol import (
    Challenge,
    SecurityParams,
    decode_challenge,
    deterministic_pa,
    encode_challenge,
    full_session,
    make_challenge,
    make_response,
    multipath_establish,
    split_challenge_payload,
    split_session_key,
    verify_challenge,
    verify_response,
)

# Small parameter set: w=1, s=2, reserved 4, remainder 4 bits.
TINY = SecurityParams(n=8, s=2, m=2, ell=2)
# Production-ish set: w=8, s=16, reserved 32, remainder 32 bits.
STD = SecurityParams(n=64, s=16, m=4, ell=2)


def keyed_challenge(full_key, params, lambdas):
    """Challenge with chosen parity vectors (same construction as
    make_challenge, with the random draw replaced)."""
    parts = split_session_key(full_key, params)
    parities = tuple(inner_product(lam, parts.remainder) for lam in lambdas)
    message = encode_challenge(lambdas, parities, params.test_bits)
    return Challenge(tuple(lambdas), parities, message,
                     mac_tag(parts.auth_first, message))


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

    def test_derived_sizes(self):
        p = SecurityParams(n=64, s=16, m=4, ell=3)
        assert p.word_bits == 8
        assert p.reserved_bits == 32
        assert p.test_bits == 32
        assert p.challenge_bits == 4 * 33


class TestSplitSessionKey:
    def test_slices(self):
        key = BitString("10110100")
        parts = split_session_key(key, TINY)
        assert str(parts.auth_first.material) == "10"
        assert str(parts.auth_second.material) == "11"
        assert str(parts.remainder) == "0100"

    def test_wrong_length(self):
        with pytest.raises(OutOfRange):
            split_session_key(BitString("101"), TINY)


class TestMakeChallenge:
    def test_message_length_is_m_times_testbits_plus_one(self):
        # test_bits=4, m=2 -> 2 * 5 = 10 bits on the wire before the tag
        rng = random.Random(0)
        ch = make_challenge(BitString.random(8, rng), TINY, rng)
        assert ch.message.length == 10
        assert ch.payload().length == 10 + TINY.word_bits

    def test_zero_remainder_gives_zero_parities(self):
        rng = random.Random(1)
        key = BitString("1011" + "0000")
        ch = make_challenge(key, TINY, rng)
        assert ch.parities == (0, 0)

    def test_parity_by_hand(self):
        key = BitString("0000" + "1010")
        ch = keyed_challenge(key, TINY, [BitString("1100"), BitString("0010")])
        assert ch.parities == (1, 1)

    def test_parities_match_inner_products(self):
        rng = random.Random(2)
        key = BitString.random(64, rng)
        ch = make_challenge(key, STD, rng)
        rem = split_session_key(key, STD).remainder
        assert ch.parities == tuple(inner_product(l, rem) for l in ch.lambdas)

    def test_encode_decode_round_trip(self):
        rng = random.Random(3)
        ch = make_challenge(BitString.random(64, rng), STD, rng)
        assert decode_challenge(ch.message, STD) == (ch.lambdas, ch.parities)

    def test_split_payload_is_message_and_tag(self):
        rng = random.Random(3)
        ch = make_challenge(BitString.random(64, rng), STD, rng)
        assert split_challenge_payload(ch.payload(), STD) == (ch.message, ch.tag)

    def test_decode_rejects_wrong_length(self):
        assert decode_challenge(BitString("10101"), STD) is None
        assert split_challenge_payload(BitString("101"), STD) is None


class TestVerifyChallenge:
    def test_honest_run_accepts_lowest_path(self):
        rng = random.Random(4)
        key = BitString.random(64, rng)
        ch = make_challenge(key, STD, rng)
        payload = ch.payload()
        out = verify_challenge([payload, payload], key, STD)
        assert out.result == 1
        assert out.accepted_path == 0
        assert out.lambdas == ch.lambdas
        assert out.identified_dishonest == frozenset()

    def test_differing_prefix_rejects_all_copies(self):
        rng = random.Random(5)
        key_a = BitString.random(64, rng)
        key_b = key_a ^ BitString.from_int(1 << 63, 64)  # flip a prefix bit
        ch = make_challenge(key_a, STD, rng)
        out = verify_challenge([ch.payload(), ch.payload()], key_b, STD)
        assert out.result == 0 and out.accepted_path is None

    def test_remainder_mismatch_caught_by_chosen_vector(self):
        # kappa prefixes equal, remainders differ in bit 1; a vector
        # probing that bit flags the mismatch deterministically.
        key_a = BitString("0000" + "1010")
        key_b = BitString("0000" + "0010")
        ch = keyed_challenge(key_a, TINY, [BitString("1000"), BitString("0001")])
        out = verify_challenge([ch.payload()], key_b, TINY)
        assert out.result == 0 and out.accepted_path == 0

    def test_miss_rate_exhaustive_single_vector(self):
        # kappa equal, remainders differ by d != 0: over all 16 vectors
        # exactly half miss (parities agree), the 2^-m rate at m=1.
        params = SecurityParams(n=8, s=2, m=1, ell=2)
        key_a = BitString("1100" + "1010")
        key_b = BitString("1100" + "0110")
        misses = 0
        for lv in range(16):
            lam = BitString.from_int(lv, 4)
            ch = keyed_challenge(key_a, params, [lam])
            out = verify_challenge([ch.payload()], key_b, params)
            misses += out.result
        assert misses == 8

    def test_dropped_copies_are_mac_failures(self):
        rng = random.Random(6)
        key = BitString.random(64, rng)
        ch = make_challenge(key, STD, rng)
        out = verify_challenge([None, ch.payload()], key, STD)
        assert out.result == 1 and out.accepted_path == 1
        assert out.identified_dishonest == frozenset({0})
        out_all_dropped = verify_challenge([None, None], key, STD)
        assert out_all_dropped.result == 0

    def test_unauthentic_copy_skipped_and_identified(self):
        rng = random.Random(7)
        key = BitString.random(64, rng)
        ch = make_challenge(key, STD, rng)
        forged = BitString.random(ch.payload().length, rng)
        out = verify_challenge([forged, ch.payload()], key, STD)
        assert out.result == 1 and out.accepted_path == 1
        assert out.identified_dishonest == frozenset({0})


class TestResponse:
    def test_round_trip_when_keys_equal(self):
        rng = random.Random(8)
        key = BitString.random(64, rng)
        for bit in (0, 1):
            payload = make_response(bit, key, STD)
            out = verify_response([payload, payload], key, STD)
            assert out.result_prime == bit
            assert out.accepted_path == 0

    def test_differing_keys_reject(self):
        rng = random.Random(9)
        key_a = BitString.random(64, rng)
        key_b = BitString.random(64, rng)
        payload = make_response(1, key_b, STD)
        out = verify_response([payload, payload], key_a, STD)
        assert out.result_prime == 0 and out.accepted_path is None

    def test_forged_copy_identified_next_to_genuine(self):
        rng = random.Random(10)
        key = BitString.random(64, rng)
        genuine = make_response(1, key, STD)
        forged = BitString.random(genuine.length, rng)
        out = verify_response([forged, genuine], key, STD)
        assert out.result_prime == 1
        assert out.accepted_path == 1
        assert out.identified_dishonest == frozenset({0})

    def test_non_bit_result_rejected(self):
        with pytest.raises(OutOfRange):
            make_response(2, BitString.zeros(64), STD)


class TestDeterministicPa:
    def test_hand_trace_two_pivots(self):
        k, trash = deterministic_pa(
            BitString("1010"), [BitString("1000"), BitString("0100")]
        )
        assert trash == {1, 2}
        assert str(k) == "10"

    def test_hand_trace_dependent_vector(self):
        # Second vector reduces against the first (0100 ^ 0110 = 0010),
        # so its pivot is position 3: sigma1 xor sigma2 equals bit 3,
        # which therefore cannot survive.
        k, trash = deterministic_pa(
            BitString("1010"), [BitString("0110"), BitString("0100")]
        )
        assert trash == {2, 3}
        assert str(k) == "10"

    def test_repeated_vector_trashes_once(self):
        k, trash = deterministic_pa(
            BitString("1010"), [BitString("0110"), BitString("0110")]
        )
        assert trash == {2}
        assert str(k) == "110"

    def test_leaky_greedy_counterexample_is_covered(self):
        # With the raw-vector greedy rule this configuration trashes
        # {1,2,4} and leaves (lam1 ^ lam3) supported on surviving
        # positions {3,5}; the reduced-pivot rule trashes {1,2,3}.
        lambdas = [BitString("011101"), BitString("100111"),
                   BitString("010111")]
        _, trash = deterministic_pa(BitString("101010"), lambdas)
        assert trash == {1, 2, 3}
        span = set()
        for mask in range(1, 8):
            acc = 0
            for i in range(3):
                if mask >> i & 1:
                    acc ^= lambdas[i].value
            span.add(acc)
        for combo in span:
            if combo:
                covered = any((combo >> (6 - pos)) & 1 for pos in trash)
                assert covered, f"combination {combo:06b} escapes the trash"

    def test_no_vectors_is_identity(self):
        k, trash = deterministic_pa(BitString("1010"), [])
        assert k == BitString("1010") and trash == frozenset()

    def test_all_zero_vector_contributes_nothing(self):
        k, trash = deterministic_pa(BitString("1011"), [BitString("0000")])
        assert k == BitString("1011") and trash == frozenset()

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            deterministic_pa(BitString("101"), [BitString("1000")])

    def test_trash_bounded_by_vector_count(self):
        rng = random.Random(11)
        for _ in range(100):
            nb = rng.randrange(2, 12)
            m = rng.randrange(0, nb)
            lambdas = [BitString.random(nb, rng) for _ in range(m)]
            key = BitString.random(nb, rng)
            k, trash = deterministic_pa(key, lambdas)
            assert len(trash) <= m
            assert k.length == nb - len(trash)

    def test_conditional_uniformity_smoke(self):
        # Exhaustive at 6 bits: K* must be uniform within each parity class.
        lambdas = [BitString("110000"), BitString("101000"), BitString("000011")]
        groups = {}
        for kv in range(64):
            key = BitString.from_int(kv, 6)
            parities = tuple(inner_product(l, key) for l in lambdas)
            kstar, trash = deterministic_pa(key, lambdas)
            groups.setdefault(parities, []).append(kstar)
        for members in groups.values():
            counts = {}
            for kstar in members:
                counts[kstar] = counts.get(kstar, 0) + 1
            assert len(set(counts.values())) == 1
            assert len(counts) == 1 << members[0].length


def distill_reference(key, lambdas):
    """Distillation with one step per surviving bit (the original loop)."""
    nb = key.length
    basis = {}
    for lam in lambdas:
        v = lam.value
        while v:
            pos = nb - v.bit_length() + 1
            if pos not in basis:
                basis[pos] = v
                break
            v ^= basis[pos]
    trash = frozenset(basis)
    out = out_len = 0
    for pos in range(1, nb + 1):
        if pos not in trash:
            out = (out << 1) | ((key.value >> (nb - pos)) & 1)
            out_len += 1
    return BitString.from_int(out, out_len), trash


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
    return (BitString.from_int(key, nb),
            [BitString.from_int(v, nb) for v in values])


class TestDistillRunCopy:
    @settings(max_examples=500, deadline=None)
    @given(distill_inputs())
    def test_matches_per_bit_reference(self, args):
        key, lambdas = args
        assert deterministic_pa(key, lambdas) == distill_reference(key, lambdas)

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
        got = deterministic_pa(BitString(key), [BitString(l) for l in lambdas])
        assert got == (BitString(out), frozenset(trash))


class TestIntegerSessionMatchesWrappers:
    """``full_session`` (integer level) and the public BitString wrappers
    give the same payloads, verdicts and vectors for the same keys and
    RNG state."""

    @pytest.mark.parametrize("strategy", [
        None, "passive", "tamper_shares", "forge_auth", "drop_auth"])
    @pytest.mark.parametrize("seed", range(4))
    def test_same_bits(self, two_chains_graph, monkeypatch, strategy, seed):
        states = []
        real = protocol._make_challenge

        def spy(auth_first, remainder, params, rng):
            states.append(rng.getstate())
            return real(auth_first, remainder, params, rng)

        monkeypatch.setattr(protocol, "_make_challenge", spy)
        cfg = None if strategy is None else corrupt(
            two_chains_graph, {"n1"}, 1, endpoints=("alice", "bob"),
            strategies=(strategy,))
        out = full_session(two_chains_graph, "alice", "bob", STD, cfg,
                           random.Random(seed))
        key_a = xor_combine(list(out.shares_sent))
        key_b = xor_combine(list(out.shares_received))
        challenges = out.transcript.challenge_copies
        responses = out.transcript.response_copies

        rng = random.Random()
        rng.setstate(states[0])
        ch = make_challenge(key_a, STD, rng)
        assert ch.lambdas == out.challenge_lambdas
        assert challenges[1] == ch.payload()   # path 1 avoids n1

        cv = verify_challenge(challenges, key_b, STD)
        assert cv.result == out.result
        assert responses[1] == make_response(cv.result, key_b, STD)
        rv = verify_response(responses, key_a, STD)
        assert rv.result_prime == out.result_prime
        assert (cv.identified_dishonest | rv.identified_dishonest
                == out.transcript.identified_dishonest)
        assert out.keys_equal == (
            split_session_key(key_a, STD).remainder
            == split_session_key(key_b, STD).remainder)
        assert out.full_keys_equal == (key_a == key_b)

        if out.result == 1:
            assert deterministic_pa(split_session_key(key_b, STD).remainder,
                                    cv.lambdas) == (out.final_key_b, out.trash_b)
        if out.result_prime == 1:
            assert deterministic_pa(split_session_key(key_a, STD).remainder,
                                    ch.lambdas) == (out.final_key_a, out.trash_a)


class TestMultipathEstablish:
    def test_honest_keys_equal_and_are_share_xor(self, two_chains_graph):
        rng = random.Random(12)
        est = multipath_establish(two_chains_graph, "alice", "bob", STD, rng)
        assert est.key_a == est.key_b
        assert est.key_a == xor_combine(list(est.shares_sent))
        assert est.shares_received == est.shares_sent

    def test_insufficient_connectivity(self, two_chains_graph):
        params = SecurityParams(n=64, s=16, m=4, ell=3)
        with pytest.raises(InsufficientConnectivity):
            multipath_establish(two_chains_graph, "alice", "bob", params, random.Random(0))

    def test_tampering_desynchronizes_silently(self, two_chains_graph):
        from qkdnet.adversary import AdversaryView, ScriptedAdversary

        rng = random.Random(13)
        cfg = corrupt(two_chains_graph, {"n1"}, 1, endpoints=("alice", "bob"),
                      strategies=("tamper_shares",))
        view = AdversaryView(2, STD.n)
        est = multipath_establish(
            two_chains_graph, "alice", "bob", STD, rng,
            interceptor=ScriptedAdversary(cfg, view, rng),
        )
        assert est.key_a != est.key_b

    def test_ell_minus_one_controlled_keeps_key_private(self, three_path_graph):
        # 8-bit keys, adversary passively owns 2 of 3 paths: exact
        # posterior over the full key stays uniform.
        from qkdnet.adversary import AdversaryView, ScriptedAdversary

        params = SecurityParams(n=8, s=2, m=2, ell=3)
        rng = random.Random(14)
        cfg = corrupt(three_path_graph, {"x1", "x2"}, 2,
                      endpoints=("alice", "bob"))
        view = AdversaryView(3, 8)
        est = multipath_establish(
            three_path_graph, "alice", "bob", params, rng,
            interceptor=ScriptedAdversary(cfg, view, rng),
        )
        res = guessing_advantage(view, est.key_a, 8)
        assert res.exact and res.advantage == Fraction(0)

    def test_observed_shares_are_exactly_the_controlled_paths(self, three_path_graph):
        # paths sort x1, x2, x3; the adversary on x1/x3 sees those two
        # shares verbatim and nothing from the honest middle path.
        from qkdnet.adversary import AdversaryView, ScriptedAdversary

        params = SecurityParams(n=16, s=2, m=2, ell=3)
        rng = random.Random(15)
        cfg = corrupt(three_path_graph, {"x1", "x3"}, 2,
                      endpoints=("alice", "bob"))
        view = AdversaryView(3, 16)
        est = multipath_establish(
            three_path_graph, "alice", "bob", params, rng,
            interceptor=ScriptedAdversary(cfg, view, rng),
        )
        assert set(view.learned_shares) == {0, 2}
        assert view.learned_shares[0] == [est.shares_sent[0]]
        assert view.learned_shares[2] == [est.shares_sent[2]]


class TestFullSession:
    def test_honest_session(self, two_chains_graph):
        out = full_session(two_chains_graph, "alice", "bob", STD, None, random.Random(15))
        assert out.result == 1 and out.result_prime == 1
        assert out.keys_equal and out.full_keys_equal
        assert out.final_key_a == out.final_key_b
        assert out.trash_a == out.trash_b
        assert len(out.trash_a) <= STD.m
        assert out.final_key_a.length == STD.test_bits - len(out.trash_a)
        assert out.succeeded

    def test_deterministic_replay(self, two_chains_graph):
        a = full_session(two_chains_graph, "alice", "bob", STD, None, random.Random(16))
        b = full_session(two_chains_graph, "alice", "bob", STD, None, random.Random(16))
        assert a.final_key_a == b.final_key_a
        assert a.transcript.serialize() == b.transcript.serialize()
        assert a.shares_sent == b.shares_sent

    def test_tampered_share_fails_both_sides(self, two_chains_graph):
        cfg = corrupt(two_chains_graph, {"n2"}, 1, endpoints=("alice", "bob"),
                      strategies=("tamper_shares",))
        failures = 0
        for seed in range(50):
            out = full_session(two_chains_graph, "alice", "bob", STD, cfg,
                               random.Random(seed))
            assert not out.keys_equal
            assert out.final_key_a is None or out.result_prime == 1
            failures += out.result == 0
            assert out.succeeded == (out.result == out.result_prime == 0)
        # miss probability 2^-4 per trial; 50 trials virtually never all miss
        assert failures >= 40

    def test_drop_on_one_path_still_succeeds(self, two_chains_graph):
        cfg = corrupt(two_chains_graph, {"n1"}, 1, endpoints=("alice", "bob"),
                      strategies=("drop_auth",))
        out = full_session(two_chains_graph, "alice", "bob", STD, cfg, random.Random(17))
        assert out.result == 1 and out.result_prime == 1
        assert out.keys_equal and out.succeeded
        assert out.final_key_a == out.final_key_b

    def test_transcript_serialization_layout(self, two_chains_graph):
        out = full_session(two_chains_graph, "alice", "bob", STD, None, random.Random(18))
        lines = out.transcript.serialize().splitlines()
        assert len(lines) == 2 * STD.ell + 1
        assert lines[0].startswith("challenge path=0 bits=")
        assert lines[-1] == "result=1 result_prime=1"

    def test_disclosure_published(self, three_path_graph):
        params = SecurityParams(n=8, s=2, m=2, ell=3)
        cfg = corrupt(three_path_graph, {"x1"}, 1, endpoints=("alice", "bob"),
                      strategies=("passive", "disclose_all"))
        out = full_session(three_path_graph, "alice", "bob", params, cfg,
                           random.Random(19))
        assert out.published is not None
        assert 0 in out.published.shares

    def test_transcripts_only_from_corrupted_nodes(self, three_path_graph):
        params = SecurityParams(n=8, s=2, m=2, ell=3)
        cfg = corrupt(three_path_graph, {"x2"}, 1, endpoints=("alice", "bob"))
        out = full_session(three_path_graph, "alice", "bob", params, cfg,
                           random.Random(20))
        assert out.view.transcripts  # the corrupted node saw both rounds
        assert {t[2] for t in out.view.transcripts} == {"x2"}
        assert {t[0] for t in out.view.transcripts} == {1}  # its path only
