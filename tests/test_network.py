import hashlib
import itertools
import math
import random

import pytest

from qkdnet.errors import InsufficientConnectivity, OutOfRange, ValidationError
from qkdnet.network import (
    NetworkGraph,
    PathSet,
    QkdLink,
    required_paths,
    vertex_disjoint_paths,
)


def graph_from_edges(edges, extra_nodes=()):
    nodes = set(extra_nodes)
    links = []
    for e in edges:
        nodes.update(e[:2])
        links.append(QkdLink(*e[:2], **(e[2] if len(e) > 2 else {})))
    return NetworkGraph(nodes, links)


def two_chains_graph():
    """Two chains of trusted nodes between alice and bob."""
    return graph_from_edges([
        ("alice", "n1"), ("n1", "n2"), ("n2", "bob"),
        ("alice", "n3"), ("n3", "n4"), ("n4", "bob"),
    ])


# --- independent oracle: exhaustive disjoint-path search -----------------

def all_simple_paths(graph, a, b):
    paths = []
    alive_neighbors = {v: [] for v in graph.nodes}
    for link in graph.links:
        if link.alive:
            alive_neighbors[link.a].append(link.b)
            alive_neighbors[link.b].append(link.a)

    def dfs(node, seen, acc):
        if node == b:
            paths.append(tuple(acc))
            return
        for nxt in sorted(alive_neighbors[node]):
            if nxt not in seen:
                dfs(nxt, seen | {nxt}, acc + [nxt])

    dfs(a, {a}, [a])
    return paths


def menger_by_enumeration(graph, a, b):
    """Max internally-disjoint path count by brute force over path subsets."""
    paths = all_simple_paths(graph, a, b)
    best = 0

    def extend(idx, used_internal, size):
        nonlocal best
        best = max(best, size)
        for j in range(idx, len(paths)):
            interior = set(paths[j][1:-1])
            if interior & used_internal:
                continue
            extend(j + 1, used_internal | interior, size + 1)

    extend(0, set(), 0)
    return best


class TestQkdLink:
    def test_self_loop_rejected(self):
        with pytest.raises(ValidationError):
            QkdLink("x", "x")

    def test_epsilon_bounds(self):
        with pytest.raises(ValidationError):
            QkdLink("x", "y", epsilon=1.5)

    @pytest.mark.parametrize("field,value", [
        ("epsilon", math.nan), ("distance_km", -1.0), ("distance_km", math.nan),
    ])
    def test_nan_and_negative_rejected(self, field, value):
        with pytest.raises(ValidationError):
            QkdLink("x", "y", **{field: value})

    def test_canonical_key_is_sorted(self):
        assert QkdLink("b", "a").key == ("a", "b")


class TestNetworkGraph:
    def test_unknown_node_rejected(self):
        with pytest.raises(ValidationError):
            NetworkGraph({"a"}, [QkdLink("a", "b")])

    def test_duplicate_link_rejected(self):
        with pytest.raises(ValidationError):
            NetworkGraph({"a", "b"}, [QkdLink("a", "b"), QkdLink("b", "a")])


class TestPathSet:
    def test_rejects_shared_internal_node(self):
        with pytest.raises(ValidationError):
            PathSet("a", "b", (("a", "x", "b"), ("a", "x", "b")))

    def test_rejects_wrong_endpoints(self):
        with pytest.raises(ValidationError):
            PathSet("a", "b", (("a", "c"),))


class TestVertexDisjointPaths:
    def test_two_chain_topology(self):
        ps = vertex_disjoint_paths(two_chains_graph(), "alice", "bob", 2)
        assert ps.paths == (
            ("alice", "n1", "n2", "bob"),
            ("alice", "n3", "n4", "bob"),
        )

    def test_chain_insufficient(self):
        g = graph_from_edges([("a", "n"), ("n", "b")])
        with pytest.raises(InsufficientConnectivity) as exc:
            vertex_disjoint_paths(g, "a", "b", 2)
        assert exc.value.max_paths == 1

    def test_complete_graph_three_paths(self):
        g = graph_from_edges(
            [(u, v) for u, v in itertools.combinations("abcd", 2)]
        )
        ps = vertex_disjoint_paths(g, "a", "b", 3)
        assert ps.paths == (("a", "b"), ("a", "c", "b"), ("a", "d", "b"))

    def test_deterministic(self):
        g = two_chains_graph()
        first = vertex_disjoint_paths(g, "alice", "bob", 2)
        again = vertex_disjoint_paths(g, "alice", "bob", 2)
        assert first == again

    def test_dead_link_removes_a_path(self):
        g = graph_from_edges([
            ("alice", "n1"), ("n1", "n2"), ("n2", "bob"),
            ("alice", "n3"), ("n3", "n4", {"alive": False}), ("n4", "bob"),
        ])
        with pytest.raises(InsufficientConnectivity) as exc:
            vertex_disjoint_paths(g, "alice", "bob", 2)
        assert exc.value.max_paths == 1

    def test_endpoint_validation(self):
        g = two_chains_graph()
        with pytest.raises(ValidationError):
            vertex_disjoint_paths(g, "alice", "alice", 1)
        with pytest.raises(ValidationError):
            vertex_disjoint_paths(g, "alice", "ghost", 1)
        with pytest.raises(OutOfRange):
            vertex_disjoint_paths(g, "alice", "bob", 0)

    def test_menger_against_enumeration_on_random_graphs(self):
        # Cross-check max-flow result and returned-path validity against
        # exhaustive enumeration on graphs with <= 8 nodes.
        rng = random.Random(2024)
        names = list("abcdefgh")
        for trial in range(40):
            k = rng.randrange(4, 9)
            nodes = names[:k]
            edges = [
                (u, v) for u, v in itertools.combinations(nodes, 2)
                if rng.random() < 0.45
            ]
            g = NetworkGraph(nodes, [QkdLink(u, v) for u, v in edges])
            expected = menger_by_enumeration(g, "a", "b")
            if expected:
                ps = vertex_disjoint_paths(g, "a", "b", expected)
                # PathSet validates disjointness; also check edges exist
                for path in ps.paths:
                    for u, v in zip(path[:-1], path[1:]):
                        g.link_between(u, v)
            with pytest.raises(InsufficientConnectivity) as exc:
                vertex_disjoint_paths(g, "a", "b", expected + 1)
            assert exc.value.max_paths == expected

    def test_second_path_cancels_the_first_augmentation(self):
        # The first augmenting path is a-e-c-b.  The only second path
        # runs a-f-c and must cancel the e->c arc, rerouting e to g.
        g = graph_from_edges([
            ("a", "e"), ("a", "f"), ("b", "c"), ("b", "g"),
            ("c", "e"), ("c", "f"), ("d", "f"), ("e", "g"),
        ])
        ps = vertex_disjoint_paths(g, "a", "b", 2)
        assert ps.paths == (("a", "e", "g", "b"), ("a", "f", "c", "b"))
        with pytest.raises(InsufficientConnectivity) as exc:
            vertex_disjoint_paths(g, "a", "b", 3)
        assert exc.value.max_paths == 2

    def test_chosen_paths_pinned_on_random_graphs(self):
        # Which paths are chosen, not only how many: one digest over the
        # paths (or the maximum when too few exist) for every count
        # 1..k-1 on seeded graphs with dead links and random endpoints.
        rng = random.Random(21)
        digest = hashlib.sha256()
        for _ in range(300):
            k = rng.randrange(3, 10)
            nodes = list("abcdefghi"[:k])
            links = [
                QkdLink(u, v, alive=rng.random() < 0.85)
                for u, v in itertools.combinations(nodes, 2)
                if rng.random() < 0.5
            ]
            g = NetworkGraph(nodes, links)
            a, b = rng.sample(nodes, 2)
            for count in range(1, k):
                try:
                    result = vertex_disjoint_paths(g, a, b, count).paths
                except InsufficientConnectivity as exc:
                    result = exc.max_paths
                digest.update(f"{result}\n".encode())
        assert digest.hexdigest() == (
            "9377f7c6215f4cf821457a469565fae3ba0771e77c6a79fe9441ccf5fd965657"
        )


class TestRequiredPaths:
    def test_one_way_t3(self):
        assert required_paths(3, mode="one_way") == 10

    def test_two_way_t3(self):
        assert required_paths(3, mode="two_way") == 7

    def test_feedback_t2_u2(self):
        assert required_paths(2, u=2, mode="feedback") == 5

    def test_t0_is_one_in_every_mode(self):
        for mode in ("one_way", "two_way", "feedback"):
            assert required_paths(0, mode=mode) == 1

    def test_feedback_matches_one_way_at_u0(self):
        for t in range(6):
            assert required_paths(t, u=0, mode="feedback") == \
                required_paths(t, mode="one_way")

    def test_feedback_nonincreasing_with_floor(self):
        for t in range(6):
            prev = None
            for u in range(8):
                val = required_paths(t, u=u, mode="feedback")
                assert val >= required_paths(t, mode="two_way")
                if prev is not None:
                    assert val <= prev
                prev = val

    def test_unknown_mode(self):
        with pytest.raises(ValidationError):
            required_paths(1, mode="sideways")

    def test_negative_rejected(self):
        with pytest.raises(OutOfRange):
            required_paths(-1)
