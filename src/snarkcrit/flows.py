"""Nowhere-zero group flows on multigraphs, valued in Z4 or Z2 x Z2.

A flow assignment fixes a reference orientation (the stored endpoint order
of each edge, so dangling edges point outward) and gives every edge a
nonzero group element such that conservation holds at each vertex: the sum
of incoming values equals the sum of outgoing ones.  A loop contributes
once in and once out, hence nothing; a dangling edge contributes only at
its attached vertex.

The search works per component over a DFS spanning tree: values on cotree
edges, loops, and dangling edges are the free variables, and tree-edge
values are forced bottom-up by the conservation law at their deeper
endpoint.  Vertices are scheduled in reversed DFS preorder, which keeps
each subtree contiguous just before its root, so when a forced value fails
the search backtracks into the decisions made inside that subtree, the
ones that fixed it.  A forced identity value prunes the branch, so bridges
of dangling-free graphs fail immediately.  Group arithmetic is
table-driven, which keeps the solver generic over the two groups.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .multigraph import (
    DANGLING,
    CubicGraph,
    Endpoint,
    GraphError,
    VertexPair,
    identify_vertices,
)


@dataclass(frozen=True)
class FlowGroup:
    """A small abelian group given by value tables over ``0 .. order-1``."""

    name: str
    add_table: tuple[tuple[int, ...], ...]
    neg_table: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.neg_table)

    def add(self, x: int, y: int) -> int:
        return self.add_table[x][y]

    def neg(self, x: int) -> int:
        return self.neg_table[x]

    def nonzero(self) -> tuple[int, ...]:
        return tuple(range(1, self.order))

    def __repr__(self) -> str:
        return f"FlowGroup({self.name})"


Z4 = FlowGroup(
    "Z4",
    tuple(tuple((x + y) % 4 for y in range(4)) for x in range(4)),
    tuple((4 - x) % 4 for x in range(4)),
)

KLEIN = FlowGroup(
    "Z2xZ2",
    tuple(tuple(x ^ y for y in range(4)) for x in range(4)),
    tuple(range(4)),  # every element is self-inverse
)

GROUPS = {g.name: g for g in (Z4, KLEIN)}


@dataclass(frozen=True, eq=False)
class FlowAssignment:
    """Orientation plus nonzero group values, one per edge of ``graph``."""

    graph: CubicGraph
    group: FlowGroup
    orientation: dict[int, Endpoint]  # edge id -> head endpoint
    values: dict[int, int]

    def value(self, edge_id: int) -> int:
        return self.values[edge_id]

    def is_nowhere_zero(self) -> bool:
        return all(v != 0 for v in self.values.values())

    def with_edge_reversed(self, edge_id: int) -> "FlowAssignment":
        """Flip one edge's orientation and negate its value."""
        e = self.graph.edge(edge_id)
        head = self.orientation[edge_id]
        new_head = e.a if head == e.b else e.b
        orientation = dict(self.orientation)
        orientation[edge_id] = new_head
        values = dict(self.values)
        values[edge_id] = self.group.neg(values[edge_id])
        return FlowAssignment(self.graph, self.group, orientation, values)


def verify_kirchhoff(graph: CubicGraph, flow: FlowAssignment) -> bool:
    """True iff conservation holds at every vertex of ``graph``.

    The flow must assign an orientation and a group value to every edge;
    anything missing or out of range is an input error.  Only conservation
    is checked here, not the nowhere-zero condition.
    """
    group = flow.group
    sums = {v: 0 for v in graph.vertices}
    for e in graph.edges:
        if e.id not in flow.values or e.id not in flow.orientation:
            raise GraphError(f"flow does not cover edge {e.id}")
        val = flow.values[e.id]
        if not 0 <= val < group.order:
            raise GraphError(f"value {val} on edge {e.id} is outside the group")
        head = flow.orientation[e.id]
        if not (head == e.a or head == e.b):
            raise GraphError(f"head of edge {e.id} is not one of its endpoints")
        if e.is_loop:
            continue  # once in, once out
        for x in e.real_endpoints():
            contribution = val if head == x else group.neg(val)
            sums[x] = group.add(sums[x], contribution)
    return all(s == 0 for s in sums.values())


def nowhere_zero_flow(graph: CubicGraph, group: FlowGroup) -> Optional[FlowAssignment]:
    """Find a nowhere-zero flow in the given group, or None if there is none.

    Components are solved independently.  Loops and free edges take the
    first nonzero element; dangling edges are free variables constrained
    only at their attached vertex, oriented outward.
    """
    values: dict[int, int] = {}
    orientation = {e.id: e.b for e in graph.edges}
    for e in graph.edges:
        if e.is_loop or e.is_free:
            values[e.id] = group.nonzero()[0]
    for comp in graph.components():
        part = _flow_component(graph, comp, group)
        if part is None:
            return None
        values.update(part)
    return FlowAssignment(graph, group, orientation, values)


def flow_on_identification(
    graph: CubicGraph, pair: VertexPair, group: FlowGroup
) -> Optional[FlowAssignment]:
    """Decide a nowhere-zero flow on the graph with the pair identified.

    The witness, when present, lives on the identified graph.
    """
    return nowhere_zero_flow(identify_vertices(graph, pair), group)


# ----------------------------------------------------------------------
# solver internals

_DECIDE, _FORCE, _CHECK = 0, 1, 2


def _flow_component(
    graph: CubicGraph, comp: frozenset[int], group: FlowGroup
) -> Optional[dict[int, int]]:
    # spanning tree by DFS over real non-loop edges; vertices are numbered
    # in preorder, and parent[i] is the tree edge into vertex i
    local: dict[int, int] = {}
    parent: list = []
    incident: list = []
    stack = [(min(comp), None)]
    while stack:
        v, pe = stack.pop()
        if v in local:
            continue
        local[v] = len(parent)
        parent.append(pe)
        inc = sorted(graph.incident_edges(v))
        incident.append(inc)
        for e in reversed(inc):
            w = e.b if e.a == v else e.a
            if w is not DANGLING and w not in local:
                stack.append((w, e))

    # schedule, one step per entry of the five lists: vertices in reversed
    # preorder; decide the cotree and dangling edges first seen at each
    # vertex, then force its tree edge, finally check balance at the root.  The detached side of a
    # dangling edge points at a sink slot that no step reads.
    sink = len(parent)
    kind: list[int] = []
    edge: list[int] = []
    vertex: list[int] = []
    head: list[int] = []
    tail: list[int] = []
    scheduled: set[int] = set()

    def step(k: int, e, vi: int) -> None:
        kind.append(k)
        edge.append(e.id)
        vertex.append(vi)
        head.append(sink if e.b is DANGLING else local[e.b])
        tail.append(sink if e.a is DANGLING else local[e.a])

    for vi in range(sink - 1, -1, -1):
        pe = parent[vi]
        for e in incident[vi]:
            if e.a == e.b or e is pe or e.id in scheduled:
                continue
            scheduled.add(e.id)
            step(_DECIDE, e, -1)
        if pe is None:
            kind.append(_CHECK)
            edge.append(-1)
            vertex.append(vi)
            head.append(sink)
            tail.append(sink)
        else:
            scheduled.add(pe.id)
            step(_FORCE, pe, vi)

    # backtracking search; val[p] is the value step p last applied (0 before
    # its first try), so a decision resumes from it and a forced value that
    # has been tried has no alternative
    add_t = group.add_table
    neg_t = group.neg_table
    order = group.order
    n = len(kind)
    sums = [0] * (sink + 1)
    val = [0] * n
    pos = 0
    while pos < n:
        k = kind[pos]
        x = val[pos]
        if k == _DECIDE:
            x += 1
            ok = x < order
        elif x:
            ok = False
        elif k == _FORCE:
            # the forced value zeroes the balance at the step's vertex
            vi = vertex[pos]
            x = neg_t[sums[vi]] if head[pos] == vi else sums[vi]
            ok = x != 0
        else:  # _CHECK: nothing to apply, the sink absorbs x == 0
            ok = sums[vertex[pos]] == 0
        if ok:
            val[pos] = x
            h = head[pos]
            t = tail[pos]
            sums[h] = add_t[sums[h]][x]
            sums[t] = add_t[sums[t]][neg_t[x]]
            pos += 1
            continue
        val[pos] = 0
        pos -= 1
        if pos < 0:
            return None
        x = val[pos]
        h = head[pos]
        t = tail[pos]
        sums[h] = add_t[sums[h]][neg_t[x]]
        sums[t] = add_t[sums[t]][x]
    return {edge[p]: val[p] for p in range(n) if kind[p] != _CHECK}
