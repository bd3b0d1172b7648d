"""Proper 3-edge-coloring with colors from the nonzero Klein four-group.

The three colors are the nonzero elements of Z2 x Z2 written as two-bit
values 01, 10, 11.  They XOR to zero, so at a degree-3 vertex any two
distinct colors force the third; the solver gets this propagation for free
from per-vertex used-color bitmasks.  Degree-1 and degree-2 vertices (from
dangling edges or edge deletions) only impose pairwise distinctness.

Any loop makes its vertex uncolorable, so graphs containing loops are
rejected outright.  Connected components are solved independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Optional

from .multigraph import DANGLING, CubicGraph, GraphError


class KleinColor(IntEnum):
    """Nonzero elements of Z2 x Z2; the XOR of all three is zero."""

    C01 = 1
    C10 = 2
    C11 = 3


KLEIN_COLORS = (KleinColor.C01, KleinColor.C10, KleinColor.C11)


@dataclass(frozen=True, eq=False)
class EdgeColoring:
    """A color for every non-loop edge of ``graph``, dangling edges included."""

    graph: CubicGraph
    assignment: dict[int, KleinColor]

    def color(self, edge_id: int) -> KleinColor:
        return self.assignment[edge_id]

    def is_proper(self) -> bool:
        """Check the defining constraints directly against the graph.

        Proper means: every non-loop edge has a nonzero color, no loops
        exist, and the colors meeting at any vertex are pairwise distinct.
        """
        non_loop = [e for e in self.graph.edges if not e.is_loop]
        if len(non_loop) != len(self.graph.edges):
            return False
        if set(self.assignment) != {e.id for e in non_loop}:
            return False
        if any(c not in (1, 2, 3) for c in self.assignment.values()):
            return False
        for v in self.graph.vertices:
            colors = [self.assignment[e.id] for e in self.graph.incident_edges(v)]
            if len(set(colors)) != len(colors):
                return False
        return True

    def permuted(self, mapping: dict[int, int]) -> "EdgeColoring":
        """Apply a permutation of the three colors."""
        if sorted(mapping) != [1, 2, 3] or sorted(mapping.values()) != [1, 2, 3]:
            raise GraphError("mapping must permute the colors 1, 2, 3")
        return EdgeColoring(
            self.graph,
            {eid: KleinColor(mapping[int(c)]) for eid, c in self.assignment.items()},
        )


def three_edge_colorable(graph: CubicGraph) -> Optional[EdgeColoring]:
    """Find a proper 3-edge-coloring, or None if there is none.

    Vertices of degree above three are an input error.  The search runs per
    component, visiting edges in BFS order from a maximum-degree vertex;
    the start vertex's edges are pinned to fixed colors, which quotients
    away the six color permutations.
    """
    degree = graph.degrees()
    for v, d in degree.items():
        if d > 3:
            raise GraphError(f"vertex {v} has degree {d} > 3")
    if any(e.is_loop for e in graph.edges):
        return None

    assignment: dict[int, KleinColor] = {}
    for e in graph.free_edges():
        assignment[e.id] = KleinColor.C01  # no vertex constrains a free edge
    for comp in graph.components():
        part = _color_component(graph, comp, degree)
        if part is None:
            return None
        assignment.update(part)
    return EdgeColoring(graph, assignment)


def chromatic_index_is_4(graph: CubicGraph) -> bool:
    """True iff the graph has no proper 3-edge-coloring."""
    return three_edge_colorable(graph) is None


def coloring_as_flow(coloring: EdgeColoring):
    """Reinterpret a proper coloring as a Z2 x Z2 flow on the same graph.

    The edge values are unchanged; orientation is immaterial because every
    Klein element is self-inverse.  Conservation holds at every vertex of
    degree three (the three distinct nonzero elements XOR to zero); at
    vertices of lower degree it generally does not.
    """
    from .flows import KLEIN, FlowAssignment

    orientation = {e.id: e.b for e in coloring.graph.edges if e.id in coloring.assignment}
    values = {eid: int(c) for eid, c in coloring.assignment.items()}
    return FlowAssignment(coloring.graph, KLEIN, orientation, values)


# ----------------------------------------------------------------------
# solver internals


def _edge_order(
    graph: CubicGraph, comp: frozenset[int], degree: dict[int, int]
) -> tuple[list, int]:
    """BFS edge order over one component, starting at a max-degree vertex.

    Returns the ordered edge list and the number of leading edges incident
    with the start vertex (those get pinned colors).
    """
    start = min(comp, key=lambda v: (-degree[v], v))
    order = []
    listed = set()
    seen = {start}
    queue = [start]
    for v in queue:
        for e in sorted(graph.incident_edges(v)):
            if e.id not in listed:
                listed.add(e.id)
                order.append(e)
            w = e.b if e.a == v else e.a
            if w is not DANGLING and w not in seen:
                seen.add(w)
                queue.append(w)
    return order, degree[start]


def _color_component(
    graph: CubicGraph, comp: frozenset[int], degree: dict[int, int]
) -> Optional[dict[int, KleinColor]]:
    order, pinned = _edge_order(graph, comp, degree)
    m = len(order)
    if m == 0:
        return {}

    # one used-color bitmask per vertex, and one more per dangling edge for
    # its detached side, which thus never conflicts with anything
    index = {v: i for i, v in enumerate(comp)}
    slots = len(index)
    end_a: list[int] = []
    end_b: list[int] = []
    for _, a, b in order:
        if a is DANGLING:
            a, slots = slots, slots + 1
        else:
            a = index[a]
        if b is DANGLING:
            b, slots = slots, slots + 1
        else:
            b = index[b]
        end_a.append(a)
        end_b.append(b)
    used = [0] * slots

    # the start vertex's edges take colors 1, 2, 3 in turn; with nothing
    # else colored they cannot conflict
    color = [0] * m
    for pos in range(pinned):
        color[pos] = c = pos + 1
        used[end_a[pos]] |= 1 << c
        used[end_b[pos]] |= 1 << c

    # backtracking search; color[p] is the color edge p last took (0 before
    # its first try), so a retry resumes from the next color
    pos = pinned
    while pos < m:
        a = end_a[pos]
        b = end_b[pos]
        busy = used[a] | used[b]
        c = color[pos] + 1
        while c <= 3 and busy >> c & 1:
            c += 1
        if c <= 3:
            color[pos] = c
            used[a] |= 1 << c
            used[b] |= 1 << c
            pos += 1
            continue
        color[pos] = 0
        pos -= 1
        if pos < pinned:
            return None
        bit = 1 << color[pos]
        used[end_a[pos]] ^= bit
        used[end_b[pos]] ^= bit
    return {e.id: KLEIN_COLORS[c - 1] for e, c in zip(order, color)}
