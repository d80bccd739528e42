"""Network graph model, disjoint-path discovery, and connectivity thresholds.

A trusted-repeater network is an undirected graph of nodes joined by QKD
links.  Sessions between two endpoints ride on internally vertex-disjoint
paths; discovery runs unit-capacity max-flow on the node-split graph, so
the returned count is Menger-maximal.  One residual map serves both the
augmentation and the decomposition: the paths are read off its saturated
arcs.  All tie-breaking is lexicographic on node labels, making results
deterministic for a given graph.

Links whose ``alive`` flag is cleared (eavesdropping-induced abort or
administrative down) are excluded from path discovery.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .errors import InsufficientConnectivity, OutOfRange, ValidationError

NodeId = str


def link_key(u: NodeId, v: NodeId) -> tuple[NodeId, NodeId]:
    """Canonical (sorted) endpoint pair naming the link between u and v."""
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class QkdLink:
    """An undirected QKD link between two distinct nodes.

    ``epsilon`` is the per-key failure probability of keys generated on
    this link (the epsilon-ideal key source model); ``alive`` models
    eavesdropping-induced abort of the link.  ``distance_km`` is
    descriptive: it is validated and stored, but nothing reads it, so it
    changes no result.  It stays because checked-in scenario documents
    carry it.
    """

    a: NodeId
    b: NodeId
    distance_km: float = 0.0
    epsilon: float = 0.0
    alive: bool = True

    def __post_init__(self):
        if self.a == self.b:
            raise ValidationError(f"link endpoints must differ, got {self.a!r}")
        if not self.distance_km >= 0:   # also rejects NaN
            raise ValidationError(f"distance_km must be >= 0, got {self.distance_km}")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValidationError(f"epsilon must lie in [0, 1], got {self.epsilon}")

    @property
    def key(self) -> tuple[NodeId, NodeId]:
        """Canonical (sorted) endpoint pair identifying this link."""
        return link_key(self.a, self.b)


class NetworkGraph:
    """Immutable node/link collection."""

    def __init__(self, nodes, links):
        self.nodes = frozenset(nodes)
        self._links: dict[tuple[NodeId, NodeId], QkdLink] = {}
        for link in links:
            if link.a not in self.nodes or link.b not in self.nodes:
                raise ValidationError(
                    f"link {link.a!r}-{link.b!r} references unknown node"
                )
            if link.key in self._links:
                raise ValidationError(f"duplicate link {link.key}")
            self._links[link.key] = link

    @property
    def links(self) -> tuple[QkdLink, ...]:
        return tuple(self._links[k] for k in sorted(self._links))

    def link_between(self, u: NodeId, v: NodeId) -> QkdLink:
        try:
            return self._links[link_key(u, v)]
        except KeyError:
            raise ValidationError(f"no link between {u!r} and {v!r}") from None


@dataclass(frozen=True)
class PathSet:
    """Internally vertex-disjoint paths between two endpoints.

    Each path is a node sequence from ``a`` to ``b`` with no repeats;
    distinct paths share no node other than the endpoints.
    """

    a: NodeId
    b: NodeId
    paths: tuple[tuple[NodeId, ...], ...] = field(default=())

    def __post_init__(self):
        seen_internal: set[NodeId] = set()
        for path in self.paths:
            if len(path) < 2 or path[0] != self.a or path[-1] != self.b:
                raise ValidationError(f"path {path} does not run {self.a}->{self.b}")
            if len(set(path)) != len(path):
                raise ValidationError(f"path {path} repeats a node")
            interior = set(path[1:-1])
            if interior & seen_internal:
                raise ValidationError(
                    f"paths share internal node(s) {interior & seen_internal}"
                )
            seen_internal |= interior

    def __len__(self):
        return len(self.paths)

    def interior(self, i: int) -> tuple[NodeId, ...]:
        return self.paths[i][1:-1]


# Node-split graph vertices: (label, _IN) receives, (label, _OUT) sends.
_IN, _OUT = 0, 1


def vertex_disjoint_paths(
    graph: NetworkGraph, a: NodeId, b: NodeId, count: int
) -> PathSet:
    """Find ``count`` internally vertex-disjoint paths from a to b.

    Unit-capacity max-flow on the node-split graph, held in one residual
    map ``residual[u][v]``: every node other than the endpoints is an
    (label, _IN) -> (label, _OUT) arc, and each alive link is a unit arc
    from one end's exit to the other's entry, in both orientations.  BFS
    augments along shortest paths, visiting each node's arcs in (label,
    side) order, sorted once since the arc set never changes.  When BFS
    finds no augmenting path before ``count`` units flow, raises
    :class:`InsufficientConnectivity` carrying the flow, which is then
    the maximum.  Each path is read off the map from one saturated
    source arc, then at every exit node its one saturated link arc (the
    arc into another label's entry).  Deterministic for a given graph.
    """
    if a == b or a not in graph.nodes or b not in graph.nodes:
        raise ValidationError(f"endpoints {a!r}, {b!r} must be distinct graph nodes")
    if count < 1:
        raise OutOfRange(f"path count must be >= 1, got {count}")
    source, sink = (a, _OUT), (b, _IN)
    residual: dict[tuple, dict[tuple, int]] = {source: {}}

    def add_arc(u, v):
        residual.setdefault(u, {})[v] = 1
        residual.setdefault(v, {})[u] = 0

    for v in graph.nodes - {a, b}:
        add_arc((v, _IN), (v, _OUT))
    for link in graph.links:
        for u, v in ((link.a, link.b), (link.b, link.a)):
            if link.alive and v != a and u != b:
                add_arc(source if u == a else (u, _OUT), sink if v == b else (v, _IN))
    residual = {u: dict(sorted(arcs.items())) for u, arcs in residual.items()}

    for flow in range(count):
        parent = {source: None}
        queue = deque([source])
        while queue and sink not in parent:
            u = queue.popleft()
            for v, free in residual[u].items():
                if free and v not in parent:
                    parent[v] = u
                    queue.append(v)
        if sink not in parent:
            raise InsufficientConnectivity(count, flow)
        v = sink
        while v != source:
            u = parent[v]
            residual[u][v] -= 1
            residual[v][u] += 1
            v = u

    paths = []
    for head, free in residual[source].items():
        if free:
            continue
        path = [a]
        while head != sink:
            label = head[0]
            path.append(label)
            head = next(v for v, left in residual[(label, _OUT)].items()
                        if not left and v[0] != label)
        paths.append((*path, b))
    return PathSet(a, b, tuple(sorted(paths)))


def required_paths(t: int, u: int = 0, mode: str = "one_way") -> int:
    """Disjoint-path counts for private transmission against t corrupted nodes.

    one_way: 3t+1.  two_way: 2t+1.  feedback: max(3t+1-2u, 2t+1), where
    u counts feedback paths vertex-disjoint from the forward ones.
    """
    if t < 0 or u < 0:
        raise OutOfRange(f"t and u must be >= 0, got t={t}, u={u}")
    if mode == "one_way":
        return 3 * t + 1
    if mode == "two_way":
        return 2 * t + 1
    if mode == "feedback":
        return max(3 * t + 1 - 2 * u, 2 * t + 1)
    raise ValidationError(f"unknown mode {mode!r}")
