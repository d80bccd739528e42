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
        ("epsilon", math.nan), ("epsilon", -1.0),
    ])
    def test_nan_and_negative_rejected(self, field, value):
        # a document's distance_km is checked by the loader (test_sim)
        with pytest.raises(ValidationError):
            QkdLink("x", "y", **{field: value})

    def test_canonical_key_is_sorted(self):
        assert QkdLink("b", "a").key == ("a", "b")

    @pytest.mark.parametrize("args,kw,field", [
        ((1, "b"), {}, "endpoints"), (("a", ["b"]), {}, "endpoints"),
        (("a", "b"), {"epsilon": "x"}, "epsilon"),
        (("a", "b"), {"epsilon": None}, "epsilon"),
        (("a", "b"), {"epsilon": True}, "epsilon"),
        (("a", "b"), {"alive": "no"}, "alive"),
        (("a", "b"), {"alive": 1}, "alive"),
    ])
    def test_field_types_are_named(self, args, kw, field):
        # a bare TypeError from the range check, or a silent accept
        with pytest.raises(ValidationError, match=f"^link {field} must be"):
            QkdLink(*args, **kw)

    def test_int_epsilon_accepted(self):
        assert QkdLink("a", "b", epsilon=1).epsilon == 1


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

    def test_rejects_the_direct_path_twice(self):
        # the one repeat the internal-node check cannot see: both copies
        # would ride the a-b link's one pool
        with pytest.raises(ValidationError, match="given twice"):
            PathSet("a", "b", (("a", "b"), ("a", "b")))

    def test_lists_are_held_as_tuples(self):
        ps = PathSet("a", "b", [["a", "b"], ["a", "x", "b"]])
        assert ps == PathSet("a", "b", (("a", "b"), ("a", "x", "b")))
        assert type(ps.paths) is tuple
        assert all(type(path) is tuple for path in ps.paths)
        hash(ps)

    @pytest.mark.parametrize("paths,match", [
        (5, "paths must be"), ("ab", "paths must be"),
        ({"a": "b"}, "paths must be"), ([5], "paths must be"),
        (["ab"], "paths must be"), ([["a", ["x"], "b"]], "nodes must be"),
        ([["a", 10**5000, "b"]], "<16610-bit int>"),
    ])
    def test_rejects_malformed_paths(self, paths, match):
        with pytest.raises(ValidationError, match=match):
            PathSet("a", "b", paths)

    def test_rejects_non_string_endpoints(self):
        with pytest.raises(ValidationError, match="nodes must be strings"):
            PathSet(1, "b")


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
