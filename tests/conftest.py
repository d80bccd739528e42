import json
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import pytest

from qkdnet import protocol
from qkdnet.network import NetworkGraph, QkdLink, vertex_disjoint_paths
from qkdnet.sim import load_scenario, run_monte_carlo


def _chain_links(names, **kw):
    return [QkdLink(u, v, **kw) for u, v in zip(names[:-1], names[1:])]


@pytest.fixture
def two_chains_graph():
    """Two chains of trusted nodes between alice and bob."""
    nodes = {"alice", "n1", "n2", "n3", "n4", "bob"}
    links = _chain_links(("alice", "n1", "n2", "bob")) + \
        _chain_links(("alice", "n3", "n4", "bob"))
    return NetworkGraph(nodes, links)


@pytest.fixture
def three_path_graph():
    """Three two-hop paths alice-xK-bob, K in {1,2,3}."""
    nodes = {"alice", "bob", "x1", "x2", "x3"}
    links = []
    for x in ("x1", "x2", "x3"):
        links += [QkdLink("alice", x), QkdLink(x, "bob")]
    return NetworkGraph(nodes, links)


@pytest.fixture
def session_paths():
    """The ``ell`` disjoint alice-bob paths of a graph, found as
    ``load_scenario`` finds a scenario's: ``session_paths(graph, ell)``."""
    def paths(graph, ell):
        return vertex_disjoint_paths(graph, "alice", "bob", ell)
    return paths


@pytest.fixture
def forwarded_shares(monkeypatch):
    """``(sent, received)``: the share each ``_forward_key_over`` call
    puts on its path and the share it delivers at the far end, in call
    order, so ``received[-ell:]`` are B's shares of the last session."""
    sent, received = [], []
    real = protocol._forward_key_over

    def spy(hops, value, nbits, w, interceptor, path_index):
        sent.append(value)
        received.append(real(hops, value, nbits, w, interceptor, path_index))
        return received[-1]

    monkeypatch.setattr(protocol, "_forward_key_over", spy)
    return sent, received


def run_stats(doc):
    """The ``Stats`` of one Monte-Carlo run of a scenario document (a
    worker returns these, not the run's per-trial records)."""
    return run_monte_carlo(load_scenario(doc)).stats


class RunTable:
    """Monte-Carlo runs keyed by their scenario document, which holds
    the seed and the trial count: each runs once per test session.

    :meth:`submit` starts runs in the process pool, so that every gate
    reading them waits only for its own; without a pool a run happens
    in this process when its stats are first read.  A run is a pure
    function of its document, so both give the same stats.
    """

    def __init__(self, pool=None):
        self._pool = pool
        self._futures = {}
        self._stats = {}

    def submit(self, docs):
        if self._pool is None:
            return
        for doc in docs:
            key = json.dumps(doc, sort_keys=True)
            if key not in self._futures and key not in self._stats:
                self._futures[key] = self._pool.submit(run_stats, doc)

    def stats(self, doc):
        key = json.dumps(doc, sort_keys=True)
        if key not in self._stats:
            future = self._futures.pop(key, None)
            self._stats[key] = future.result() if future else run_stats(doc)
        return self._stats[key]


@pytest.fixture(scope="session")
def run_table():
    """The session's :class:`RunTable`, over a spawn pool of at most
    eight workers (the criterion-3 cases), or serial on one CPU."""
    workers = min(os.cpu_count() or 1, 8)
    if workers < 2:
        yield RunTable()
        return
    # spawn: workers import what they run, and a fork of a process with
    # threads is unsafe (a DeprecationWarning, an error here, on 3.12)
    pool = ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("spawn"))
    try:
        yield RunTable(pool)
    finally:
        pool.shutdown(cancel_futures=True)
