"""Nowhere-zero group flows on multigraphs, valued in Z4 or Z2 x Z2.

A flow assignment fixes a reference orientation (the stored endpoint order
of each edge, so dangling edges point outward) and gives every edge a
nonzero group element such that conservation holds at each vertex: the sum
of incoming values equals the sum of outgoing ones.  A loop contributes
once in and once out, hence nothing; a dangling edge contributes only at
its attached vertex.

A call makes one pass over the graph's edges, which yields the reference
orientation, the values of loops and free edges and each vertex's
incidence list, and then searches each component in closing order, as
DSATUR does for vertex colouring (Brelaz, CACM 1979).  A vertex with one
undecided edge left has that edge forced at once by the conservation law;
a vertex closed from the far end of an edge has its balance checked right
there; otherwise the next decided edge is at the reached vertex with the
fewest undecided edges, so a merged vertex of high degree waits until its
neighbours have constrained it.  Which edges are decided never depends on
their values, so the order is fixed before the search, and a failed forced
value or check backtracks into the decisions just before it.  A forced
identity value prunes the branch.  Group arithmetic is table-driven,
which keeps the solver generic over the two groups.  Each component is
found by the walk that orders it.

A hint, such as the flow on a sibling derived graph (surgery keeps edge
ids), puts each decided edge's hinted value first among its tries.  The
first decided edge of each component tries one value only: its hinted
value, or 1 with no hint.  No single value there loses a flow:
- In Z2 x Z2 every permutation of the nonzero elements is a group
  automorphism, and automorphisms map flows to flows.
- In Z4, if a component has a flow at all, each of its edges takes each
  of 1, 2 and 3 in some flow.  A graph has a nowhere-zero Z4 flow exactly
  when two even subgraphs C1, C2 cover its edges: Tutte's count of
  nowhere-zero flows depends only on the order of the group, and the two
  coordinates of a Z2 x Z2 flow are such a pair.  A cover gives the Z4
  flow o1 + 2 * o2, where o1 and o2 orient C1 and C2 as circulations of
  +-1; it is odd exactly on C1.  Replacing (C1, C2) by (C2, C1) or by
  (C1 + C2, C2), with + the symmetric difference, keeps a cover, so any
  one edge can be put inside C1 or outside it: it takes 2 in one flow and
  an odd value in another, and negating that flow gives the other odd
  value.
Dangling edges count as edges to one extra vertex, whose balance follows
from the others'.

The number of search-loop iterations is added to :data:`search_steps`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Optional

from .multigraph import DANGLING, CubicGraph, Endpoint, GraphError

# the decision table builds identifications through this module's name, where
# the benchmark's tracer wraps it
from .multigraph import identify_vertices  # noqa: F401


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

    @cached_property
    def tries(self) -> tuple[tuple[int, ...], ...]:
        """Successor tables of the value order on a decided edge, two per hint.

        ``tries[h][x]`` is the value tried after ``x`` on an edge whose
        hinted value ``h`` goes first (``h`` = 0: no hint, values in
        increasing order); ``tries[h][0]`` is the first value and 0 follows
        the last.  Row ``order + h`` serves the first decided edge of a
        component, which tries ``h`` alone, or 1 with no hint: see the
        module docstring for why one value there loses no flow.
        """
        tables = []
        for h in range(self.order):
            succ = [0] * self.order
            prev = 0
            first = (h,) if h else ()
            for x in first + tuple(x for x in self.nonzero() if x != h):
                succ[prev] = x
                prev = x
            tables.append(tuple(succ))
        for h in range(self.order):
            succ = [0] * self.order
            succ[0] = h or 1
            tables.append(tuple(succ))
        return tuple(tables)

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

#: Iterations of the search loop, summed over every call in this process.
search_steps = 0


@dataclass(frozen=True, eq=False)
class FlowAssignment:
    """Orientation plus nonzero group values, one per edge of ``graph``."""

    graph: CubicGraph
    group: FlowGroup
    orientation: dict[int, Endpoint]  # edge id -> head endpoint
    values: dict[int, int]

    def is_nowhere_zero(self) -> bool:
        return all(v != 0 for v in self.values.values())


def verify_kirchhoff(graph: CubicGraph, flow: FlowAssignment) -> bool:
    """True iff conservation holds at every vertex of ``graph``.

    The flow must assign an orientation and a group value to every edge;
    anything missing or out of range is an input error.  Only conservation
    is checked here, not the nowhere-zero condition.  One pass over the
    edges, which adds each value at its head and its negation at its tail;
    a loop adds both at its vertex, and the detached side of a dangling
    edge goes to a sink that is not checked.
    """
    values, orientation = flow.values, flow.orientation
    order = flow.group.order
    add, neg = flow.group.add_table, flow.group.neg_table
    sums = dict.fromkeys(graph.vertices, 0)
    sums[DANGLING] = 0
    for eid, a, b in graph.edges:
        try:
            val = values[eid]
            head = orientation[eid]
        except KeyError:
            raise GraphError(f"flow does not cover edge {eid}") from None
        if not 0 <= val < order:
            raise GraphError(f"value {val} on edge {eid} is outside the group")
        if head == b:
            tail = a
        elif head == a:
            tail = b
        else:
            raise GraphError(f"head of edge {eid} is not one of its endpoints")
        sums[head] = add[sums[head]][val]
        sums[tail] = add[sums[tail]][neg[val]]
    del sums[DANGLING]
    return not any(sums.values())


def nowhere_zero_flow(
    graph: CubicGraph, group: FlowGroup, *, hint: Optional[Mapping[int, int]] = None
) -> Optional[FlowAssignment]:
    """Find a nowhere-zero flow in the given group, or None if there is none.

    Components are solved independently.  Loops and free edges take the
    first nonzero element; dangling edges are free variables constrained
    only at their attached vertex, oriented outward.  ``hint`` (edge id ->
    value, say a flow on a sibling graph) only changes the order of tries:
    a decided edge tries its hinted value first.  The first decided edge of
    each component tries that value alone, or 1 with no hint, which loses
    no flow (see the module docstring).  The search stays complete either
    way.
    """
    # one pass over the edges: the reference orientation, the values of
    # loops and free edges, and each vertex's other incidences as (other
    # end, edge id, whether the vertex is the edge's tail)
    incident: dict[int, list] = {v: [] for v in graph.vertices}
    orientation: dict[int, Endpoint] = {}
    values: dict[int, int] = {}
    first = group.nonzero()[0]
    for eid, a, b in graph.edges:
        orientation[eid] = b
        if a == b:  # a loop, or a free edge: no vertex constrains it
            values[eid] = first
            continue
        if a is not DANGLING:
            incident[a].append((b, eid, True))
        if b is not DANGLING:
            incident[b].append((a, eid, False))

    global search_steps
    # each vertex not yet reached roots a component: its smallest vertex
    seen: set[int] = set()
    steps = 0
    for root in sorted(incident):
        if root in seen:
            continue
        part, n = _flow_component(incident, root, group, seen, hint)
        steps += n
        if part is None:
            search_steps += steps
            return None
        values.update(part)
    search_steps += steps
    return FlowAssignment(graph, group, orientation, values)


# ----------------------------------------------------------------------
# solver internals

# step kinds; a decision step's kind is instead its row of FlowGroup.tries:
# its edge's hinted value, 0 for none, plus the group order on the first
# decided edge of a component
_FORCE, _CHECK = -1, -2


def _flow_component(
    incident: dict[int, list],
    root: int,
    group: FlowGroup,
    seen: set[int],
    hint: Optional[Mapping[int, int]],
) -> tuple[Optional[dict[int, int]], int]:
    """Values on one component's decided and forced edges, or None; and the loop's iterations."""
    # schedule in closing order, one step per entry of the five lists.
    # Vertices get slots as they are reached from root, and left[i] counts
    # the undecided incidences of slot i.  A vertex with one left has that
    # edge forced at once; a vertex closed from the far end of an edge gets
    # a balance check right after it; otherwise the next decision is an
    # edge at the open vertex with the fewest left, the earliest reached
    # on ties.  Which edges are decided never depends on their values, so
    # the order is fixed before the search.  The detached side of a
    # dangling edge, and both sides of a check, point at the sink slot -1,
    # which no step reads.
    order = group.order
    local = {root: 0}
    reached = [root]
    left = [len(incident[root])]
    ready = [0] if left[0] == 1 else []  # slots with one incidence left
    low = 0  # the earliest reached slot that may still be open
    decided: set[int] = set()
    kind: list[int] = []
    edge: list[int] = []
    vertex: list[int] = []
    head: list[int] = []
    tail: list[int] = []
    while True:
        if ready:
            i = ready.pop()
            if left[i] != 1:
                continue  # closed from the far end meanwhile
        else:
            while low < len(left) and not left[low]:
                low += 1
            if low == len(left):
                break
            # no open slot has fewer than 2 left now
            i = low
            for j in range(low + 1, len(left)):
                if left[i] == 2:
                    break
                if 0 < left[j] < left[i]:
                    i = j
        v = reached[i]
        for w, eid, out in incident[v]:
            if eid not in decided:
                break
        decided.add(eid)
        left[i] -= 1
        if w is DANGLING:
            j = -1
        else:
            j = local.get(w)
            if j is None:
                j = local[w] = len(reached)
                reached.append(w)
                left.append(len(incident[w]))
            left[j] -= 1
        if left[i]:
            h = hint.get(eid, 0) if hint else 0
            kind.append(h if 0 < h < order else 0)
            vertex.append(-1)
            if left[i] == 1:
                ready.append(i)
        else:
            kind.append(_FORCE)
            vertex.append(i)
        edge.append(eid)
        head.append(j if out else i)
        tail.append(i if out else j)
        if j >= 0:
            if left[j] == 1:
                ready.append(j)
            elif not left[j]:
                kind.append(_CHECK)
                edge.append(-1)
                vertex.append(j)
                head.append(-1)
                tail.append(-1)
    seen.update(reached)

    # the first decided edge tries one value only (FlowGroup.tries)
    first = next((p for p, k in enumerate(kind) if k >= 0), None)
    if first is not None:
        kind[first] += order

    # backtracking search; val[p] is the value step p last applied (0 before
    # its first try), so a decision resumes after it in its try order, and
    # a forced value or a passed check has no alternative.  Each iteration
    # advances or backtracks one step, so counting the backtracks gives the
    # iterations from the net advance.
    add_t = group.add_table
    neg_t = group.neg_table
    tries = group.tries
    n = len(kind)
    sums = [0] * (len(reached) + 1)
    val = [0] * n
    back = 0
    pos = 0
    while pos < n:
        k = kind[pos]
        x = val[pos]
        if k >= 0:
            x = tries[k][x]
            ok = x != 0
        elif x:
            ok = False
        elif k == _FORCE:
            # the forced value zeroes the balance at the step's vertex
            vi = vertex[pos]
            x = neg_t[sums[vi]] if head[pos] == vi else sums[vi]
            ok = x != 0
        else:  # _CHECK: passes once, with a value that only the sink sees
            ok = sums[vertex[pos]] == 0
            x = 1
        if ok:
            val[pos] = x
            h = head[pos]
            t = tail[pos]
            sums[h] = add_t[sums[h]][x]
            sums[t] = add_t[sums[t]][neg_t[x]]
            pos += 1
            continue
        val[pos] = 0
        back += 1
        pos -= 1
        if pos < 0:
            return None, 2 * back - 1
        x = val[pos]
        h = head[pos]
        t = tail[pos]
        sums[h] = add_t[sums[h]][neg_t[x]]
        sums[t] = add_t[sums[t]][x]
    values = {edge[p]: val[p] for p in range(n) if kind[p] != _CHECK}
    return values, 2 * back + n
