import random

import pytest

from qkdnet.bits import BitString
from qkdnet.errors import InsufficientKey, LinkDown
from qkdnet.network import QkdLink
from qkdnet.transport import (
    LinkKeyPool,
    _hop_transfer,
    classical_send,
    path_forward_key,
    qkd_generate,
)

W = 8


def fresh_pool(epsilon=0.0, alive=True, bits=4096, rng=None, link=None):
    link = link or QkdLink("u", "v", epsilon=epsilon, alive=alive)
    pool = LinkKeyPool(link)
    qkd_generate(pool, bits, rng or random.Random(0))
    return pool


def chain_pools(path, bits=4096, rng=None, epsilon=0.0):
    rng = rng or random.Random(0)
    pools = {}
    for u, v in zip(path[:-1], path[1:]):
        key = (u, v) if u <= v else (v, u)
        pool = LinkKeyPool(QkdLink(*key, epsilon=epsilon))
        qkd_generate(pool, bits, rng)
        pools[key] = pool
    return pools


class Recorder:
    """Minimal interceptor stub: records, optionally rewrites."""

    def __init__(self, corrupted=(), tamper=None, classical=None):
        self.corrupted = set(corrupted)
        self.tamper = tamper
        self.classical = classical
        self.key_hops = []
        self.classical_hops = []
        self.leaks = []

    def on_key_hop(self, path_index, node, value):
        self.key_hops.append((path_index, node, value))
        if node in self.corrupted and self.tamper:
            return self.tamper(value)
        return value

    def on_classical_hop(self, path_index, node, kind, message):
        self.classical_hops.append((path_index, node, kind, message))
        if node in self.corrupted and self.classical:
            return self.classical(message)
        return message

    def on_hop_leak(self, path_index, link, value):
        self.leaks.append((path_index, link.key, value))


class TestQkdGenerate:
    def test_appends_uncompromised_at_epsilon_zero(self):
        rng = random.Random(1)
        pool = LinkKeyPool(QkdLink("u", "v", epsilon=0.0))
        qkd_generate(pool, 128, rng)
        assert pool.available == 128
        assert pool.epochs == [(128, False)]

    def test_always_compromised_at_epsilon_one(self):
        rng = random.Random(2)
        pool = LinkKeyPool(QkdLink("u", "v", epsilon=1.0))
        for _ in range(20):
            qkd_generate(pool, 8, rng)
        assert all(flag for _, flag in pool.epochs)

    def test_link_down(self):
        pool = LinkKeyPool(QkdLink("u", "v", alive=False))
        with pytest.raises(LinkDown):
            qkd_generate(pool, 8, random.Random(3))

    def test_compromise_rate_matches_epsilon(self):
        # Binomial check: 1e5 epochs at eps=0.01 stay within 3 sigma.
        rng = random.Random(4)
        pool = LinkKeyPool(QkdLink("u", "v", epsilon=0.01))
        n = 100_000
        for _ in range(n):
            qkd_generate(pool, 1, rng)
        frac = sum(flag for _, flag in pool.epochs) / n
        sigma = (0.01 * 0.99 / n) ** 0.5
        assert abs(frac - 0.01) <= 3 * sigma


class TestPoolTake:
    def test_bits_in_order_across_epochs(self):
        pool = LinkKeyPool(QkdLink("u", "v"))
        pool._append_epoch(0b1011, 4, False)
        pool._append_epoch(0b01, 2, True)
        first, leaked1 = pool.take(3)
        assert (first, leaked1) == (0b101, False)
        second, leaked2 = pool.take(3)
        assert (second, leaked2) == (0b101, True)  # straddles into epoch 2
        assert pool.consumed == 6
        assert pool.available == 0

    def test_whole_epochs_in_one_take_each(self):
        pool = LinkKeyPool(QkdLink("u", "v"))
        pool._append_epoch(0b1011, 4, False)
        pool._append_epoch(0b01, 2, True)
        assert pool.take(4) == (0b1011, False)   # ends exactly on the epoch
        assert pool.take(0) == (0, False)
        assert pool.take(2) == (0b01, True)
        assert (pool.consumed, pool.available) == (6, 0)

    def test_insufficient_key(self):
        pool = fresh_pool(bits=16)
        with pytest.raises(InsufficientKey):
            pool.take(17)

    def test_never_reuses_bits(self):
        rng = random.Random(5)
        pool = fresh_pool(bits=64, rng=rng)
        a, _ = pool.take(32)
        b, _ = pool.take(32)
        whole = LinkKeyPool(QkdLink("u", "v"))
        qkd_generate(whole, 64, random.Random(5))
        full, _ = whole.take(64)
        assert (a << 32) | b == full


class TestHopSend:
    """One hop: ``_hop_transfer`` pads, tags and delivers a payload."""

    def test_round_trip_and_pool_accounting(self):
        rng = random.Random(6)
        pool = fresh_pool(rng=rng)
        payload = BitString.random(96, rng)
        before = pool.available
        received, leaked = _hop_transfer(pool, payload.value, 96, W)
        assert received == payload.value
        assert not leaked
        assert before - pool.available == 96 + 2 * W
        assert pool.consumed == 96 + 2 * W

    def test_sequential_sends_use_disjoint_segments(self):
        rng = random.Random(9)
        pool = fresh_pool(rng=rng)
        p1 = BitString.random(40, rng)
        p2 = BitString.random(40, rng)
        r1, _ = _hop_transfer(pool, p1.value, 40, W)
        r2, _ = _hop_transfer(pool, p2.value, 40, W)
        assert (r1, r2) == (p1.value, p2.value)
        assert pool.consumed == 2 * (40 + 2 * W)
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
        # A down link gets no key material, so no hop can cross it.
        down = LinkKeyPool(QkdLink("u", "v", alive=False))
        with pytest.raises(LinkDown):
            qkd_generate(down, 64, random.Random(0))
        assert down.available == 0
        with pytest.raises(InsufficientKey):
            _hop_transfer(down, 0b1010, 4, W)
        with pytest.raises(InsufficientKey):
            path_forward_key(("u", "v"), BitString("1010"),
                             {("u", "v"): down}, W)


class TestPathForwardKey:
    def test_honest_path_delivers_and_all_internals_observe(self):
        rng = random.Random(11)
        path = ("a", "x", "y", "b")
        pools = chain_pools(path)
        share = BitString.random(64, rng)
        rec = Recorder()
        out = path_forward_key(path, share, pools, W, interceptor=rec)
        assert out == share
        assert [(i, n) for i, n, _ in rec.key_hops] == [(0, "x"), (0, "y")]
        assert all(v == share for _, _, v in rec.key_hops)

    def test_passive_corruption_sees_share(self):
        rng = random.Random(12)
        path = ("a", "x", "b")
        pools = chain_pools(path)
        share = BitString.random(32, rng)
        rec = Recorder(corrupted={"x"})
        out = path_forward_key(path, share, pools, W, interceptor=rec)
        assert out == share
        assert rec.key_hops[0][2] == share

    def test_tampering_node_changes_delivery_undetected(self):
        rng = random.Random(13)
        path = ("a", "x", "b")
        pools = chain_pools(path)
        share = BitString.random(32, rng)
        mask = BitString.from_int(0b101, 32)
        rec = Recorder(corrupted={"x"}, tamper=lambda v: v ^ mask)
        out = path_forward_key(path, share, pools, W, interceptor=rec)
        assert out == share ^ mask  # no exception: transport cannot tell

    def test_epsilon_leak_reported(self):
        rng = random.Random(14)
        path = ("a", "x", "b")
        pools = chain_pools(path, epsilon=1.0)
        share = BitString.random(16, rng)
        rec = Recorder()
        out = path_forward_key(path, share, pools, W, interceptor=rec)
        assert out == share
        assert len(rec.leaks) == 2  # both hops leaked
        assert rec.leaks[0][2] == share


class TestClassicalSend:
    def test_honest_path_always_delivers(self):
        rng = random.Random(15)
        path = ("a", "x", "y", "b")
        pools = chain_pools(path, bits=100_000)
        for _ in range(50):
            m = BitString.random(rng.randrange(1, 200), rng)
            assert classical_send(path, m, pools, W) == m

    def test_drop_yields_bottom(self):
        path = ("a", "x", "b")
        pools = chain_pools(path)
        rec = Recorder(corrupted={"x"}, classical=lambda m: None)
        out = classical_send(path, BitString("1101"), pools, W, interceptor=rec)
        assert out is None

    def test_substitution_delivers_adversary_choice(self):
        path = ("a", "x", "b")
        pools = chain_pools(path)
        fake = BitString("0000")
        rec = Recorder(corrupted={"x"}, classical=lambda m: fake)
        out = classical_send(path, BitString("1101"), pools, W, interceptor=rec)
        assert out == fake

    def test_kind_is_passed_to_interceptor(self):
        path = ("a", "x", "b")
        pools = chain_pools(path)
        rec = Recorder()
        classical_send(path, BitString("1"), pools, W,
                       interceptor=rec, kind="challenge")
        assert rec.classical_hops[0][2] == "challenge"
