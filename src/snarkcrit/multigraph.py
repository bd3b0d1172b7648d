"""Immutable multigraph model and local surgery on cubic graphs.

Graphs here are multigraphs in the widest sense: loops and parallel edges
are allowed, and an edge may keep only one attached endpoint (a "dangling"
edge, produced by vertex removal).  Dangling edges are kept because they
carry colors and flow values across the boundary of a removed vertex pair.

Every operation is a pure function: inputs are never mutated, results are
freshly built graphs.  Vertex and edge ids are small integers; surgery
preserves the ids of surviving edges and allocates fresh ids for edges it
creates, so witnesses computed on a derived graph can be traced back.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from operator import itemgetter
from typing import Iterable, NamedTuple, Union


class GraphError(ValueError):
    """Malformed graph, or an operation applied outside its domain."""


class NonSuppressibleError(GraphError):
    """Suppressing an edge would have to splice a vertex into itself."""


class _EndpointMarker(Enum):
    DANGLING = 0

    # the marker is a singleton compared by identity; the identity hash
    # keeps hashing edges and endpoint sets in C
    __hash__ = object.__hash__

    def __repr__(self) -> str:
        return "DANGLING"


#: Marker for the detached side of a dangling edge.
DANGLING = _EndpointMarker.DANGLING

Endpoint = Union[int, _EndpointMarker]


class Edge(NamedTuple):
    """One edge record; ``a == b`` is a loop, a DANGLING slot a lost endpoint."""

    id: int
    a: Endpoint
    b: Endpoint

    @property
    def is_loop(self) -> bool:
        return self.a is not DANGLING and self.a == self.b

    @property
    def is_dangling(self) -> bool:
        return (self.a is DANGLING) ^ (self.b is DANGLING)

    @property
    def is_free(self) -> bool:
        return self.a is DANGLING and self.b is DANGLING

    def real_endpoints(self) -> tuple[int, ...]:
        return tuple(x for x in (self.a, self.b) if x is not DANGLING)

    def other_endpoint(self, v: int) -> Endpoint:
        """The endpoint opposite ``v``; for a loop at ``v`` this is ``v`` itself."""
        if self.a == v:
            return self.b
        if self.b == v:
            return self.a
        raise GraphError(f"vertex {v} is not an endpoint of edge {self.id}")


class VertexPair(tuple):
    """An unordered pair of distinct vertices, stored with ``u < v``.

    A tuple, so that building, hashing and comparing a pair, which the
    decision tables do for every key, run in C.
    """

    __slots__ = ()

    def __new__(cls, u: int, v: int) -> VertexPair:
        if u == v:
            raise GraphError("vertex pair must consist of two distinct vertices")
        return tuple.__new__(cls, (u, v) if u < v else (v, u))

    u = property(itemgetter(0))
    v = property(itemgetter(1))

    def __getnewargs__(self) -> tuple[int, int]:
        return tuple(self)

    def __repr__(self) -> str:
        return f"VertexPair(u={self[0]}, v={self[1]})"


@dataclass(frozen=True)
class CubicGraph:
    """A multigraph with loops, parallel edges, and dangling edges.

    Despite the name, instances are not necessarily cubic: surgery produces
    subcubic intermediates.  ``is_cubic`` reports whether every vertex has
    degree exactly three, where a loop counts twice and the dangling side
    of an edge counts for nothing.
    """

    vertices: frozenset[int]
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        # set operations decide validity; the loop below only names the
        # first offender in edge order
        if self.edges:
            ids, tails, heads = zip(*self.edges)
            ends = set(tails)
            ends.update(heads)
            ends.discard(DANGLING)
            if len(set(ids)) == len(ids) and ends <= self.vertices:
                return
        seen = set()
        for e in self.edges:
            if e.id in seen:
                raise GraphError(f"duplicate edge id {e.id}")
            seen.add(e.id)
            for x in (e.a, e.b):
                if x is not DANGLING and x not in self.vertices:
                    raise GraphError(f"edge {e.id} references missing vertex {x}")

    def __repr__(self) -> str:
        return f"CubicGraph(order={self.order}, edges={len(self.edges)})"

    # ------------------------------------------------------------------
    # basic queries

    @property
    def order(self) -> int:
        return len(self.vertices)

    @cached_property
    def _by_id(self) -> dict[int, Edge]:
        return {e.id: e for e in self.edges}

    @cached_property
    def _position(self) -> dict[int, int]:
        """Edge id -> index in ``edges``."""
        return {e.id: i for i, e in enumerate(self.edges)}

    def edge(self, edge_id: int) -> Edge:
        try:
            return self._by_id[edge_id]
        except KeyError:
            raise GraphError(f"no edge with id {edge_id}") from None

    @cached_property
    def _incidence(self) -> dict[int, tuple[Edge, ...]]:
        inc: dict[int, list[Edge]] = {v: [] for v in self.vertices}
        for e in self.edges:
            a, b = e.a, e.b
            if a is not DANGLING:
                inc[a].append(e)
            if b is not DANGLING and b != a:
                inc[b].append(e)
        return {v: tuple(es) for v, es in inc.items()}

    def incident_edges(self, v: int) -> tuple[Edge, ...]:
        """Edges incident with ``v``; a loop appears once in the tuple."""
        if v not in self.vertices:
            raise GraphError(f"no vertex {v}")
        return self._incidence[v]

    def degree(self, v: int) -> int:
        """Number of edge-endpoint incidences at ``v`` (a loop counts twice)."""
        return sum(2 if e.a == e.b else 1 for e in self.incident_edges(v))

    def degrees(self) -> dict[int, int]:
        """Degree of every vertex, counted in one pass over the edges."""
        degree = dict.fromkeys(self.vertices, 0)
        for _, a, b in self.edges:
            if a is not DANGLING:
                degree[a] += 1
            if b is not DANGLING:
                degree[b] += 1
        return degree

    @cached_property
    def is_cubic(self) -> bool:
        return all(d == 3 for d in self.degrees().values())

    def connecting_edges(self, u: int, v: int) -> tuple[int, ...]:
        """Ids of non-loop edges joining ``u`` and ``v``, in id order."""
        if u not in self.vertices or v not in self.vertices:
            raise GraphError("both vertices must belong to the graph")
        if u == v:
            return ()
        return tuple(e.id for e in self.incident_edges(u) if e.other_endpoint(u) == v)

    def loops_at(self, v: int) -> tuple[int, ...]:
        return tuple(e.id for e in self.incident_edges(v) if e.is_loop)

    @cached_property
    def has_dangling(self) -> bool:
        return any(e.is_dangling or e.is_free for e in self.edges)

    def components(self) -> tuple[frozenset[int], ...]:
        """Vertex sets of connected components; dangling edges join nothing."""
        remaining = set(self.vertices)
        comps = []
        while remaining:
            root = min(remaining)
            comp = {root}
            stack = [root]
            while stack:
                x = stack.pop()
                for e in self._incidence[x]:
                    w = e.b if e.a == x else e.a
                    if w is not DANGLING and w not in comp:
                        comp.add(w)
                        stack.append(w)
            remaining -= comp
            comps.append(frozenset(comp))
        return tuple(comps)

    @cached_property
    def is_connected(self) -> bool:
        """True iff there is exactly one component.  The empty graph is not connected."""
        return len(self.components()) == 1

    def max_edge_id(self) -> int:
        return max((e.id for e in self.edges), default=-1)


# ----------------------------------------------------------------------
# construction


def _normalize_slots(a: Endpoint, b: Endpoint) -> tuple[Endpoint, Endpoint]:
    # dangling edges are stored with the attached vertex in slot a
    if a is DANGLING and b is not DANGLING:
        return b, a
    return a, b


def build_graph(vertex_count: int, edge_list: Iterable[tuple[Endpoint, Endpoint]]) -> CubicGraph:
    """Build an immutable graph on vertices ``0 .. vertex_count - 1``.

    Each entry of ``edge_list`` is a pair of endpoints, where an endpoint is
    a vertex id or :data:`DANGLING`.  Equal endpoints denote a loop.
    """
    if vertex_count < 0:
        raise GraphError("vertex count must be nonnegative")
    pairs = list(edge_list)
    for pair in pairs:
        for x in pair:
            if x is DANGLING:
                continue
            if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < vertex_count:
                raise GraphError(f"endpoint {x!r} is not a vertex below {vertex_count}")
    edges = tuple(Edge(i, *_normalize_slots(a, b)) for i, (a, b) in enumerate(pairs))
    return CubicGraph(frozenset(range(vertex_count)), edges)


def _rebuild(vertices: Iterable[int], edges: Iterable[Edge]) -> CubicGraph:
    return CubicGraph(frozenset(vertices), tuple(sorted(edges, key=lambda e: e.id)))


# ----------------------------------------------------------------------
# surgery operations


def remove_vertex_pair(graph: CubicGraph, pair: VertexPair) -> CubicGraph:
    """Remove two vertices but keep the severed edges as dangling edges.

    Edges with exactly one endpoint at the pair become dangling; edges with
    both endpoints inside the pair (loops there, and any edge joining the
    two vertices) are deleted outright, since they would keep no
    attachment.  An edge that was already dangling and attached at the pair
    degenerates into a free edge.  Only the edges at the pair are visited,
    in a copy of the edge tuple, which keeps their order.
    """
    u, v = pair
    if u not in graph.vertices or v not in graph.vertices:
        raise GraphError("both vertices of the pair must belong to the graph")
    edges = list(graph.edges)
    position = graph._position
    deleted = set()
    for eid, a, b in graph._incidence[u] + graph._incidence[v]:
        if a == u or a == v:
            if b == u or b == v:
                # a loop at the pair, or an edge joining it: no attachment left
                deleted.add(position[eid])
                continue
            edges[position[eid]] = Edge(eid, b, DANGLING)  # b survives, or the edge is now free
        else:
            edges[position[eid]] = Edge(eid, a, DANGLING)
    for i in sorted(deleted, reverse=True):
        del edges[i]
    return CubicGraph(graph.vertices - {u, v}, tuple(edges))


def identify_vertices(graph: CubicGraph, pair: VertexPair) -> CubicGraph:
    """Merge two distinct vertices into one; connecting edges become loops.

    Parallel edges and loops are retained.  The merged vertex reuses the
    smaller of the two ids.  Only the edges at the other vertex are
    visited, in a copy of the edge tuple, which keeps their order; with no
    dangling edges, no edge needs its slots normalized.
    """
    u, v = pair
    if u not in graph.vertices or v not in graph.vertices:
        raise GraphError("both vertices of the pair must belong to the graph")
    if graph.has_dangling:
        raise GraphError("cannot identify vertices in a graph with dangling edges")
    merged, gone = min(u, v), max(u, v)
    edges = list(graph.edges)
    position = graph._position
    for eid, a, b in graph._incidence[gone]:
        edges[position[eid]] = Edge(eid, merged if a == gone else a, merged if b == gone else b)
    return CubicGraph(graph.vertices - {gone}, tuple(edges))


def delete_edge(graph: CubicGraph, edge_id: int) -> CubicGraph:
    """Remove one edge; its endpoints simply lose a degree (no stubs)."""
    graph.edge(edge_id)
    return _rebuild(graph.vertices, (e for e in graph.edges if e.id != edge_id))


def contract_edge(graph: CubicGraph, edge_id: int) -> CubicGraph:
    """Contract a non-loop edge: identify its endpoints, drop the resulting loop.

    Loops created from parallel companions of the contracted edge are kept.
    Contracting a loop or a dangling edge is undefined.
    """
    e = graph.edge(edge_id)
    if e.is_loop:
        raise GraphError(f"cannot contract loop {edge_id}")
    if e.is_dangling or e.is_free:
        raise GraphError(f"cannot contract dangling edge {edge_id}")
    merged = identify_vertices(graph, VertexPair(e.a, e.b))
    return delete_edge(merged, edge_id)


def suppress_edge(graph: CubicGraph, edge_id: int) -> CubicGraph:
    """Delete an edge from a cubic graph and splice the two degree-2 vertices.

    Each endpoint of the deleted edge is replaced by a direct edge between
    its two remaining neighbors; splicing may create parallel edges or
    loops, and the result is cubic again.  If an endpoint's two remaining
    incidences form a loop at that endpoint there is no sensible splice and
    :class:`NonSuppressibleError` is raised.
    """
    e = graph.edge(edge_id)
    if not graph.is_cubic:
        raise GraphError("suppression is defined for cubic graphs only")
    if not graph.is_connected:
        raise GraphError("suppression is defined for connected graphs only")
    if e.is_loop:
        raise GraphError(f"cannot suppress loop {edge_id}")

    edges: dict[int, Edge] = {x.id: x for x in graph.edges}
    del edges[edge_id]
    vertices = set(graph.vertices)
    next_id = graph.max_edge_id() + 1

    for w in sorted((e.a, e.b)):
        slots: list[tuple[int, Endpoint]] = []
        for x in list(edges.values()):
            if x.is_loop and x.a == w:
                raise NonSuppressibleError(
                    f"vertex {w} keeps only a loop after deleting edge {edge_id}"
                )
            if x.a == w or x.b == w:
                slots.append((x.id, x.other_endpoint(w)))
        if len(slots) != 2:
            raise GraphError(f"vertex {w} does not have degree 2 after deletion")
        (id1, n1), (id2, n2) = slots
        del edges[id1], edges[id2]
        vertices.remove(w)
        edges[next_id] = Edge(next_id, *_normalize_slots(n1, n2))
        next_id += 1

    return _rebuild(vertices, edges.values())


def expand_triangle(graph: CubicGraph, v: int) -> CubicGraph:
    """Replace a degree-3 vertex by a triangle of three new vertices.

    Each new vertex inherits one former incidence of ``v``; three fresh
    edges connect the new vertices pairwise.  The order grows by two.
    """
    if v not in graph.vertices:
        raise GraphError(f"no vertex {v}")
    if graph.loops_at(v):
        raise GraphError(f"cannot expand vertex {v}: it carries a loop")
    if graph.degree(v) != 3:
        raise GraphError(f"cannot expand vertex {v}: degree is {graph.degree(v)}, not 3")

    base = max(graph.vertices) + 1
    corners = (base, base + 1, base + 2)
    incident = sorted(graph.incident_edges(v), key=lambda e: e.id)
    replaced = {}
    for corner, e in zip(corners, incident):
        a = corner if e.a == v else e.a
        b = corner if e.b == v else e.b
        replaced[e.id] = Edge(e.id, *_normalize_slots(a, b))
    new_edges = [replaced.get(e.id, e) for e in graph.edges]
    next_id = graph.max_edge_id() + 1
    for i, j in ((0, 1), (0, 2), (1, 2)):
        new_edges.append(Edge(next_id, corners[i], corners[j]))
        next_id += 1
    return _rebuild((graph.vertices - {v}) | set(corners), new_edges)
