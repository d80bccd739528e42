import random

import pytest

from qkdnet.errors import InsufficientKey, LinkDown
from qkdnet.network import NetworkGraph, PathSet, QkdLink
from qkdnet.protocol import provision_pools
from qkdnet.transport import (
    LinkKeyPool,
    _classical_over,
    _forward_key_over,
    _hop_transfer,
)

W = 8


def fresh_pool(epsilon=0.0, alive=True, bits=4096, rng=None):
    link = QkdLink("u", "v", epsilon=epsilon, alive=alive)
    return LinkKeyPool(link, bits, rng or random.Random(0))


def chain_hops(path, bits=4096, rng=None, epsilon=0.0, alive=True):
    """The session's ``(pool, receiver)`` hops for a single ``path``."""
    graph = NetworkGraph(set(path), [
        QkdLink(u, v, epsilon=epsilon, alive=alive)
        for u, v in zip(path[:-1], path[1:])])
    paths = PathSet(path[0], path[-1], (path,))
    return provision_pools(graph, paths, bits, rng or random.Random(0))[0]


class Recorder:
    """Minimal interceptor stub: records, optionally rewrites.

    Follows the integer hook contract of :mod:`qkdnet.transport`.
    """

    def __init__(self, corrupted=(), tamper=None, classical=None):
        self.corrupted = set(corrupted)
        self.tamper = tamper
        self.classical = classical
        self.key_hops = []
        self.classical_hops = []
        self.leaks = []

    def on_key_hop(self, path_index, node, value, nbits):
        self.key_hops.append((path_index, node, value, nbits))
        if node in self.corrupted and self.tamper:
            return self.tamper(value)
        return value

    def on_classical_hop(self, path_index, node, kind, value, nbits):
        self.classical_hops.append((path_index, node, kind, value, nbits))
        if node in self.corrupted and self.classical:
            return self.classical(value)
        return value

    def on_hop_leak(self, path_index, value):
        self.leaks.append((path_index, value))


class TestQkdGenerate:
    """Building a pool draws its one epoch."""

    def test_appends_uncompromised_at_epsilon_zero(self):
        pool = fresh_pool(bits=128, rng=random.Random(1))
        assert pool.available == 128
        _, leaked = pool.take(128)
        assert not leaked

    def test_always_compromised_at_epsilon_one(self):
        rng = random.Random(2)
        link = QkdLink("u", "v", epsilon=1.0)
        for _ in range(20):
            assert LinkKeyPool(link, 8, rng).take(8)[1]

    def test_link_down(self):
        rng = random.Random(3)
        with pytest.raises(LinkDown):
            fresh_pool(alive=False, bits=8, rng=rng)
        # the check comes before any draw
        assert rng.getstate() == random.Random(3).getstate()

    def test_compromise_rate_matches_epsilon(self):
        # Binomial check: 1e5 epochs at eps=0.01 stay within 3 sigma.
        rng = random.Random(4)
        link = QkdLink("u", "v", epsilon=0.01)
        n = 100_000
        hits = sum(LinkKeyPool(link, 1, rng).compromised for _ in range(n))
        frac = hits / n
        sigma = (0.01 * 0.99 / n) ** 0.5
        assert abs(frac - 0.01) <= 3 * sigma


def epoch_pool(value, nbits, compromised=False):
    """A pool holding the given epoch."""
    pool = fresh_pool(bits=nbits)
    pool.value, pool.compromised = value, compromised
    return pool


class TestPoolTake:
    def test_bits_in_order_within_the_epoch(self):
        pool = epoch_pool(0b101101, 6, True)
        assert pool.take(3) == (0b101, True)
        assert pool.available == 3
        assert pool.take(3) == (0b101, True)
        assert pool.available == 0

    def test_whole_epoch_in_one_take(self):
        pool = epoch_pool(0b101101, 6)
        assert pool.take(0) == (0, False)
        assert pool.take(6) == (0b101101, False)   # ends exactly on the epoch
        assert pool.take(0) == (0, False)
        assert pool.available == 0

    def test_insufficient_key(self):
        pool = fresh_pool(bits=16)
        with pytest.raises(InsufficientKey):
            pool.take(17)
        assert pool.available == 16   # a refused take consumes nothing
        pool.take(16)
        with pytest.raises(InsufficientKey):
            pool.take(1)

    def test_never_reuses_bits(self):
        rng = random.Random(5)
        pool = fresh_pool(bits=64, rng=rng)
        a, _ = pool.take(32)
        b, _ = pool.take(32)
        whole = fresh_pool(bits=64, rng=random.Random(5))
        full, _ = whole.take(64)
        assert (a << 32) | b == full


class TestHopSend:
    """One hop: ``_hop_transfer`` pads, tags and delivers a payload."""

    def test_round_trip_and_pool_accounting(self):
        rng = random.Random(6)
        pool = fresh_pool(rng=rng)
        payload = rng.getrandbits(96)
        before = pool.available
        received, leaked = _hop_transfer(pool, payload, 96, W)
        assert received == payload
        assert not leaked
        assert before - pool.available == 96 + 2 * W

    def test_sequential_sends_use_disjoint_segments(self):
        rng = random.Random(9)
        pool = fresh_pool(rng=rng)
        p1 = rng.getrandbits(40)
        p2 = rng.getrandbits(40)
        r1, _ = _hop_transfer(pool, p1, 40, W)
        r2, _ = _hop_transfer(pool, p2, 40, W)
        assert (r1, r2) == (p1, p2)
        assert pool.available == 4096 - 2 * (40 + 2 * W)
        # the next bits come right after both hops' pads and MAC keys
        whole = fresh_pool(rng=random.Random(9))
        full, _ = whole.take(4096)
        rest, _ = pool.take(pool.available)
        assert rest == full & ((1 << (4096 - 2 * (40 + 2 * W))) - 1)

    def test_leak_flag_follows_epoch(self):
        rng = random.Random(10)
        pool = fresh_pool(epsilon=1.0, rng=rng)
        _, leaked = _hop_transfer(pool, rng.getrandbits(16), 16, W)
        assert leaked

    def test_down_link_refuses(self):
        # A down link gets no pool, so no path over it gets hops.
        with pytest.raises(LinkDown):
            chain_hops(("u", "v"), alive=False)


class TestPathForwardKey:
    def test_honest_path_delivers_and_all_internals_observe(self):
        rng = random.Random(11)
        path = ("a", "x", "y", "b")
        hops = chain_hops(path)
        share = rng.getrandbits(64)
        rec = Recorder()
        out = _forward_key_over(hops, share, 64, W, rec, 0)
        assert out == share
        assert rec.key_hops == [(0, "x", share, 64), (0, "y", share, 64)]

    def test_passive_corruption_sees_share(self):
        rng = random.Random(12)
        path = ("a", "x", "b")
        hops = chain_hops(path)
        share = rng.getrandbits(32)
        rec = Recorder(corrupted={"x"})
        out = _forward_key_over(hops, share, 32, W, rec, 0)
        assert out == share
        assert rec.key_hops[0][2] == share

    def test_tampering_node_changes_delivery_undetected(self):
        rng = random.Random(13)
        path = ("a", "x", "b")
        hops = chain_hops(path)
        share = rng.getrandbits(32)
        rec = Recorder(corrupted={"x"}, tamper=lambda v: v ^ 0b101)
        out = _forward_key_over(hops, share, 32, W, rec, 0)
        assert out == share ^ 0b101  # no exception: transport cannot tell

    def test_epsilon_leak_reported(self):
        rng = random.Random(14)
        path = ("a", "x", "b")
        hops = chain_hops(path, epsilon=1.0)
        share = rng.getrandbits(16)
        rec = Recorder()
        out = _forward_key_over(hops, share, 16, W, rec, 0)
        assert out == share
        assert len(rec.leaks) == 2  # both hops leaked
        assert rec.leaks[0][1] == share


class TestClassicalSend:
    def test_honest_path_always_delivers(self):
        rng = random.Random(15)
        path = ("a", "x", "y", "b")
        hops = chain_hops(path, bits=100_000)
        for _ in range(50):
            nbits = rng.randrange(1, 200)
            m = rng.getrandbits(nbits)
            out = _classical_over(hops, m, nbits,
                                  W, Recorder(), 0, "challenge")
            assert out == (m, nbits)

    def test_drop_yields_bottom(self):
        path = ("a", "x", "b")
        hops = chain_hops(path)
        rec = Recorder(corrupted={"x"}, classical=lambda m: None)
        out = _classical_over(hops, 0b1101, 4, W, rec, 0,
                              "response")
        assert out is None

    def test_substitution_delivers_adversary_choice(self):
        path = ("a", "x", "b")
        hops = chain_hops(path)
        rec = Recorder(corrupted={"x"}, classical=lambda m: 0b0000)
        out = _classical_over(hops, 0b1101, 4, W, rec, 0,
                              "challenge")
        assert out == (0b0000, 4)
        assert rec.classical_hops == [(0, "x", "challenge", 0b1101, 4)]

    def test_kind_is_passed_to_interceptor(self):
        path = ("a", "x", "b")
        hops = chain_hops(path)
        rec = Recorder()
        _classical_over(hops, 1, 1, W, rec, 0, "challenge")
        assert rec.classical_hops[0][2] == "challenge"
