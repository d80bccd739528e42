import itertools
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdnet.adversary import (
    AdversaryConfig,
    AdversaryView,
    ScriptedAdversary,
    corrupt,
    guessing_advantage,
)
from qkdnet.errors import OutOfRange, ValidationError
from qkdnet.network import NetworkGraph, PathSet, QkdLink
from qkdnet.protocol import SecurityParams, _link_plan, full_session


def two_chains_graph():
    return NetworkGraph(
        {"alice", "n1", "n2", "n3", "n4", "bob"},
        [QkdLink("alice", "n1"), QkdLink("n1", "n2"), QkdLink("n2", "bob"),
         QkdLink("alice", "n3"), QkdLink("n3", "n4"), QkdLink("n4", "bob")],
    )


def two_chains_paths():
    return PathSet("alice", "bob", (
        ("alice", "n1", "n2", "bob"),
        ("alice", "n3", "n4", "bob"),
    ))


def hop_marks(graph, paths, cfg):
    """Each path's hop marks in the session's plan: true where the hop
    enters a corrupted relay."""
    _, routes = _link_plan(graph, paths, cfg.corrupted)
    return [tuple(mark for _, mark in route) for route in routes]


class TestCorrupt:
    def test_valid_single_corruption_controls_one_path(self):
        cfg = corrupt(two_chains_graph(), {"n1"}, endpoints=("alice", "bob"))
        assert hop_marks(two_chains_graph(), two_chains_paths(), cfg) == [
            (True, False, False), (False, False, False)]

    def test_empty_corruption(self):
        cfg = corrupt(two_chains_graph(), set(), endpoints=("alice", "bob"))
        assert hop_marks(two_chains_graph(), two_chains_paths(), cfg) == [
            (False, False, False)] * 2
        assert cfg == AdversaryConfig()

    def test_endpoint_corruption_rejected(self):
        with pytest.raises(ValidationError,
                           match=r"^endpoints cannot be corrupted: \['alice'\]$"):
            corrupt(two_chains_graph(), {"alice"}, endpoints=("alice", "bob"))

    def test_endpoints_are_required(self):
        # without them the endpoint check could not run
        with pytest.raises(TypeError):
            corrupt(two_chains_graph(), {"alice"})

    def test_unknown_node(self):
        with pytest.raises(ValidationError):
            corrupt(two_chains_graph(), {"mallory"}, endpoints=("alice", "bob"))

    def test_plain_set_is_frozen_and_runs_a_session(self):
        cfg = AdversaryConfig({"n1"})
        assert type(cfg.corrupted) is frozenset
        out = full_session(two_chains_graph(), two_chains_paths(),
                           SecurityParams(n=64, s=16, m=4, ell=2), cfg,
                           random.Random(0))
        assert out.view.learned_shares.keys() == {0}

    def test_unknown_strategy(self):
        with pytest.raises(ValidationError):
            AdversaryConfig(frozenset(), strategies=("jam_quantum",))

    @pytest.mark.parametrize("args", [
        (frozenset(), 5), ({"n1"}, 1), (frozenset(), "passive"),
    ], ids=["int", "positional_t", "bare_string"])
    def test_strategies_must_be_a_list_or_tuple_of_names(self, args):
        # a bare string would read as the names of its characters, 'p', ...
        with pytest.raises(ValidationError,
                           match="^strategies must be a list or tuple of names"):
            AdversaryConfig(*args)


class TestHopMarks:
    """Only the hop into a corrupted relay is marked: never the hop out
    of it, nor the last hop into the endpoint."""

    def test_middle_path_of_three(self):
        paths = PathSet("a", "b", (
            ("a", "x1", "b"), ("a", "x2", "b"), ("a", "x3", "b"),
        ))
        g = NetworkGraph(
            {"a", "b", "x1", "x2", "x3"},
            [QkdLink("a", v) for v in ("x1", "x2", "x3")]
            + [QkdLink(v, "b") for v in ("x1", "x2", "x3")],
        )
        cfg = corrupt(g, {"x2"}, endpoints=("a", "b"))
        assert hop_marks(g, paths, cfg) == [
            (False, False), (True, False), (False, False)]

    def test_all_paths_controlled(self):
        paths = two_chains_paths()
        cfg = corrupt(two_chains_graph(), {"n2", "n4"}, endpoints=("alice", "bob"))
        assert hop_marks(two_chains_graph(), paths, cfg) == [
            (False, True, False)] * 2


class TestScriptedAdversary:
    def test_passive_forwards_and_records(self):
        view = AdversaryView(2, 8)
        adv = ScriptedAdversary(
            AdversaryConfig(frozenset({"x"})), view, random.Random(0)
        )
        share = 0b10101010
        assert adv.on_key_hop(0, share, 8) == share
        assert view.learned_shares[0] == share
        assert adv.on_classical_hop(0, "challenge", 0b1111, 4) == 0b1111

    def test_tamper_always_changes_value(self):
        view = AdversaryView(1, 8)
        adv = ScriptedAdversary(
            AdversaryConfig(frozenset({"x"}), ("tamper_shares",)),
            view, random.Random(1),
        )
        share = 0b10101010
        for _ in range(100):
            out = adv.on_key_hop(0, share, 8)
            assert out != share and 0 <= out < 1 << 8

    def test_drop_beats_forge(self):
        view = AdversaryView(1, 8)
        adv = ScriptedAdversary(
            AdversaryConfig(frozenset({"x"}), ("forge_auth", "drop_auth")),
            view, random.Random(2),
        )
        assert adv.on_classical_hop(0, "challenge", 0b1111, 4) is None

    def test_forge_replaces_with_same_length(self):
        view = AdversaryView(1, 8)
        adv = ScriptedAdversary(
            AdversaryConfig(frozenset({"x"}), ("forge_auth",)),
            view, random.Random(3),
        )
        out = adv.on_classical_hop(0, "response", (1 << 40) - 1, 40)
        assert out is not None and 0 <= out < 1 << 40


class TestGuessingAdvantage:
    def test_missing_share_gives_exact_zero(self):
        view = AdversaryView(n_paths=2, share_bits=4)
        view.record_share(0, 0b1010)
        res = guessing_advantage(view)
        assert res == Fraction(0)

    def test_all_shares_determine_key(self):
        view = AdversaryView(n_paths=2, share_bits=4)
        view.record_share(0, 0b1010)
        view.record_share(1, 0b0011)
        res = guessing_advantage(view)
        assert res == Fraction(1) - Fraction(1, 16)

    def test_empty_view_is_zero(self):
        res = guessing_advantage(AdversaryView(3, 4))
        assert res == Fraction(0)

    def test_zero_width_shares_rejected(self):
        with pytest.raises(OutOfRange):
            guessing_advantage(AdversaryView(n_paths=2, share_bits=0))

    @pytest.mark.parametrize("n_paths,index,value", [
        (2, 0, 1 << 40), (3, 0, 1 << 40), (2, 1, 16), (2, 0, -1),
        (2, 5, 3), (2, -1, 3), (2, 1, 1.5), (2, 1, True),
        (2, 1, np.int64(3)), (1, 0.5, 3), (2, True, 3),
    ])
    def test_known_share_outside_view_rejected(self, n_paths, index, value):
        # A share wider than the view, a share or path index that is not
        # an int, or a path the view does not have, is named before any
        # enumeration.
        view = AdversaryView(n_paths=n_paths, share_bits=4)
        view.record_share(index, value)
        with pytest.raises(OutOfRange, match=f"on path {index} "):
            guessing_advantage(view)

    @pytest.mark.parametrize("n_paths,share_bits", [
        (2, 4.0), (2.5, 4), (True, 4), (2, True), (np.int64(2), 4),
    ])
    def test_non_int_view_fields_rejected(self, n_paths, share_bits):
        # a float width or count, or a bool that would count as 0 or 1,
        # is named before any enumeration
        with pytest.raises(OutOfRange, match="must be an int"):
            guessing_advantage(AdversaryView(n_paths, share_bits))

    def test_negative_path_count_rejected(self):
        # named before any enumeration, not a bare "negative shift count"
        with pytest.raises(OutOfRange, match="got -1"):
            guessing_advantage(AdversaryView(-1, 4))

    def test_widest_share_on_last_path_accepted(self):
        view = AdversaryView(n_paths=3, share_bits=4)
        view.record_share(2, 15)
        assert guessing_advantage(view) == 0

    def test_wide_view_without_shares_is_zero(self):
        view = AdversaryView(n_paths=2, share_bits=24)
        assert guessing_advantage(view) == 0

    @pytest.mark.parametrize("bits,unknown", [(17, 1), (11, 2), (7, 3), (3, 7),
                                              (64, 1), (256, 2)])
    def test_wide_views_take_the_closed_form(self, bits, unknown):
        # 2^(unknown * bits) share assignments, up to the session's n =
        # 256: exactly 0 while a share is unknown (a one-time pad on the
        # rest), 1 - 2^-bits once the view holds every share
        view = AdversaryView(n_paths=unknown + 1, share_bits=bits)
        view.record_share(0, (1 << bits) - 1)
        assert guessing_advantage(view) == 0
        for i in range(1, unknown + 1):
            view.record_share(i, i)
        assert guessing_advantage(view) == 1 - Fraction(1, 1 << bits)

    @pytest.mark.parametrize("bits,ell", [(4, 2), (6, 2), (4, 3), (8, 3)])
    def test_any_missing_share_exact_zero_exhaustive(self, bits, ell):
        # Every choice of ell-1 known shares leaves the key perfectly
        # hidden: advantage exactly 0 for every share assignment tested.
        rng = random.Random(5)
        for _ in range(10):
            shares = [rng.getrandbits(bits) for _ in range(ell)]
            for known in itertools.combinations(range(ell), ell - 1):
                view = AdversaryView(n_paths=ell, share_bits=bits)
                for i in known:
                    view.record_share(i, shares[i])
                res = guessing_advantage(view)
                assert res == Fraction(0)


#: Widest enumeration the reference runs (the widest example asks 18
#: bits): a view that loses its shares fails at once instead of hanging.
REFERENCE_LIMIT_BITS = 20


def advantage_reference(view, key_len):
    """Per-assignment enumeration: the independent reference for
    ``guessing_advantage``'s closed form."""
    known = [view.learned_shares.get(i) for i in range(view.n_paths)]
    unknown = sum(1 for share in known if share is None)
    if unknown * key_len > REFERENCE_LIMIT_BITS:
        raise AssertionError(
            f"{unknown} unknown {key_len}-bit shares: {unknown * key_len} "
            f"bits exceed the reference's {REFERENCE_LIMIT_BITS}")
    base = 0
    for share in known:
        if share is not None:
            base ^= share
    uniform = Fraction(1, 1 << key_len)
    if unknown == 0:
        return Fraction(1) - uniform
    counts = [0] * (1 << key_len)
    total = 1 << (unknown * key_len)
    mask = (1 << key_len) - 1
    for assignment in range(total):
        k = base
        a = assignment
        for _ in range(unknown):
            k ^= a & mask
            a >>= key_len
        counts[k] += 1
    return Fraction(max(counts), total) - uniform


@st.composite
def advantage_views(draw):
    key_len = draw(st.integers(1, 8))
    unknown = draw(st.integers(0, min(3, 12 // key_len)))
    n_known = draw(st.integers(0 if unknown else 1, 3))
    n_paths = n_known + unknown
    known = draw(st.permutations(range(n_paths)))[:n_known]
    view = AdversaryView(n_paths, key_len)
    for i in known:
        value = draw(st.integers(0, (1 << key_len) - 1))
        view.record_share(i, value)
    return view, key_len


class TestGuessingAdvantageEnumeration:
    @settings(max_examples=150, deadline=None)
    @given(advantage_views())
    def test_matches_per_assignment_loop(self, case):
        view, key_len = case
        assert guessing_advantage(view) == advantage_reference(view, key_len)

    @settings(max_examples=100, deadline=None)
    @given(advantage_views(), st.data())
    def test_known_share_values_do_not_matter(self, case, data):
        # XOR by the known shares only permutes the key histogram: the
        # lemma behind enumerating once per (key_len, unknown count)
        view, key_len = case
        other = AdversaryView(view.n_paths, key_len)
        for i in view.learned_shares:
            other.record_share(i, data.draw(st.integers(0, (1 << key_len) - 1)))
        res = guessing_advantage(view)
        assert res == advantage_reference(view, key_len)
        assert guessing_advantage(other) == res
        assert advantage_reference(other, key_len) == res

    @pytest.mark.parametrize("key_len,unknown,known", [
        (16, 1, 1), (16, 1, 2), (12, 1, 1), (9, 2, 1),
    ])
    def test_wide_keys_match_per_assignment_loop(self, key_len, unknown, known):
        # past the strategy's key_len <= 8: the reference loop counts
        # up to 2^18 assignments
        rng = random.Random(key_len * 4 + known)
        view = AdversaryView(n_paths=known + unknown, share_bits=key_len)
        for i in range(known):
            view.record_share(i, rng.randrange(1, 1 << key_len))
        assert guessing_advantage(view) == advantage_reference(view, key_len)

    def test_back_to_back_enumerations_match_reference(self):
        # views of many key lengths and unknown counts in a row, either
        # side of a 17-bit view, each match the scalar loop
        rng = random.Random(11)
        views = []
        for key_len, unknown, known in [(8, 2, 1), (4, 4, 0), (16, 1, 1),
                                        (2, 8, 2), (5, 3, 1), (6, 3, 1),
                                        (3, 2, 0)]:
            view = AdversaryView(n_paths=unknown + known, share_bits=key_len)
            for i in range(known):
                view.record_share(i, rng.getrandbits(key_len))
            views.append(view)
        for view in views:
            assert guessing_advantage(view) == advantage_reference(
                view, view.share_bits)
        assert guessing_advantage(AdversaryView(n_paths=2, share_bits=17)) == 0
        for view in reversed(views):
            assert guessing_advantage(view) == advantage_reference(
                view, view.share_bits)

    @pytest.mark.parametrize("bits,unknown", [(8, 2), (5, 4), (10, 2)])
    def test_warm_call_allocates_no_block(self, bits, unknown):
        # the closed form builds no table: a call's peak stays below
        # one 2^16 block of uint32 (256 KiB)
        view = AdversaryView(n_paths=unknown + 1, share_bits=bits)
        view.record_share(0, 1)
        guessing_advantage(view)
        tracemalloc.start()
        try:
            res = guessing_advantage(view)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res == Fraction(0)
        assert peak < 1 << 18


def honest_view(own_index, own_share, disclosed):
    """An honest path's view: its own share plus every share of the
    ``disclosed`` adversary view."""
    view = AdversaryView(disclosed.n_paths, disclosed.share_bits)
    view.record_share(own_index, own_share)
    for i, share in disclosed.learned_shares.items():
        view.record_share(i, share)
    return view


class TestHonestButCurious:
    def test_two_honest_paths_resist_disclosure(self):
        # ell=3, adversary controls path 0 and publishes; each honest
        # path still has exact advantage 0.
        rng = random.Random(6)
        shares = [rng.getrandbits(4) for _ in range(3)]
        adv_view = AdversaryView(n_paths=3, share_bits=4)
        adv_view.record_share(0, shares[0])
        for honest in (1, 2):
            view = honest_view(honest, shares[honest], adv_view)
            res = guessing_advantage(view)
            assert res == Fraction(0)

    def test_single_honest_path_reconstructs_after_disclosure(self):
        rng = random.Random(7)
        shares = [rng.getrandbits(4) for _ in range(3)]
        adv_view = AdversaryView(n_paths=3, share_bits=4)
        adv_view.record_share(0, shares[0])
        adv_view.record_share(1, shares[1])
        view = honest_view(2, shares[2], adv_view)
        res = guessing_advantage(view)
        assert res == Fraction(1) - Fraction(1, 16)
