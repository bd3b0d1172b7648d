"""Proper 3-edge-coloring with colors from the nonzero Klein four-group.

The three colors are the nonzero elements of Z2 x Z2 written as two-bit
values 01, 10, 11.  They XOR to zero, so at a degree-3 vertex any two
distinct colors force the third; the solver gets this propagation for free
from per-vertex used-color bitmasks.  Degree-1 and degree-2 vertices (from
dangling edges or edge deletions) only impose pairwise distinctness.

Any loop makes its vertex uncolorable, so graphs containing loops are
rejected outright.  Connected components are solved independently, each
found by the BFS that orders its edges.  The search is table-driven: an
edge's state (its try order and its current color) and the colors busy at
its endpoints index the next state, so a try costs one lookup.  A hint,
such as the coloring of a sibling derived graph, only picks each edge's
try order.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Mapping, Optional

from .multigraph import DANGLING, CubicGraph, Edge, GraphError


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


def three_edge_colorable(
    graph: CubicGraph, *, hint: Optional[Mapping[int, int]] = None
) -> Optional[EdgeColoring]:
    """Find a proper 3-edge-coloring, or None if there is none.

    Vertices of degree above three are an input error.  The search runs per
    component, visiting edges in BFS order from a maximum-degree vertex;
    the start vertex's edges are pinned to fixed colors, which quotients
    away the six color permutations.  ``hint`` (edge id -> color, say a
    coloring of a sibling graph) only changes the order of tries: an edge
    tries its hinted color first, after the hint is relabelled so that it
    agrees with the pinned colors.  The search stays complete either way.
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
    # each vertex not yet reached starts a component; in this order it is
    # the smallest vertex of maximum degree there
    slot: dict[int, int] = {}
    used: list[int] = []
    for start in sorted(degree, key=lambda v: (-degree[v], v)):
        if start in slot:
            continue
        order = _edge_order(graph, start, slot, used)
        part = _color_component(order, degree[start], slot, used, hint)
        if part is None:
            return None
        assignment.update(part)
    return EdgeColoring(graph, assignment)


def chromatic_index_is_4(
    graph: CubicGraph, *, hint: Optional[Mapping[int, int]] = None
) -> bool:
    """True iff the graph has no proper 3-edge-coloring."""
    return three_edge_colorable(graph, hint=hint) is None


# ----------------------------------------------------------------------
# solver internals


def _successors() -> tuple[int, ...]:
    """Transition table of the color tries, indexed by ``state << 4 | busy``.

    An edge's state is ``4 * h + c``: ``h`` names its try order (0 and 1:
    1, 2, 3; 2: 2, 1, 3; 3: 3, 1, 2) and ``c`` the color it holds, 0 for
    none.  ``busy`` holds a bit ``1 << c`` for each color at its endpoints.
    The entry is the state of the next free color in the try order, or
    ``4 * h`` when there is none left.
    """
    tries = ((1, 2, 3), (1, 2, 3), (2, 1, 3), (3, 1, 2))
    table = [0] * 256
    for h, seq in enumerate(tries):
        for c in range(4):
            rest = seq[seq.index(c) + 1 :] if c else seq
            for busy in range(16):
                free = [x for x in rest if not busy >> x & 1]
                table[(4 * h + c) << 4 | busy] = 4 * h + (free[0] if free else 0)
    return tuple(table)


_NEXT = _successors()


def _edge_order(
    graph: CubicGraph, start: int, slot: dict[int, int], used: list[int]
) -> list[Edge]:
    """BFS edge order over the component of ``start``.

    Each vertex reached gets the next slot of ``used``, its used-color
    bitmask.
    """
    slot[start] = len(used)
    used.append(0)
    order = []
    listed = set()
    queue = [start]
    for v in queue:
        for e in sorted(graph.incident_edges(v)):
            if e.id not in listed:
                listed.add(e.id)
                order.append(e)
            w = e.b if e.a == v else e.a
            if w is not DANGLING and w not in slot:
                slot[w] = len(used)
                used.append(0)
                queue.append(w)
    return order


def _relabelling(
    order: list[Edge], pinned: int, hint: Mapping[int, int]
) -> dict[int, int]:
    """The color permutation taking the hint's colors on the pinned edges to 1, 2, 3."""
    perm: dict[int, int] = {}
    for pos in range(pinned):
        h = hint.get(order[pos].id)
        if h in (1, 2, 3) and h not in perm:
            perm[h] = pos + 1
    spare = [c for c in (1, 2, 3) if c not in perm.values()]
    for h in (1, 2, 3):
        if h not in perm:
            perm[h] = spare.pop(0)
    return perm


def _color_component(
    order: list[Edge],
    pinned: int,
    slot: dict[int, int],
    used: list[int],
    hint: Optional[Mapping[int, int]],
) -> Optional[dict[int, KleinColor]]:
    m = len(order)
    if m == 0:
        return {}

    # the detached side of a dangling edge gets a used-color slot of its
    # own, which thus never conflicts with anything
    end_a: list[int] = []
    end_b: list[int] = []
    for _, a, b in order:
        if a is DANGLING:
            a = len(used)
            used.append(0)
        else:
            a = slot[a]
        if b is DANGLING:
            b = len(used)
            used.append(0)
        else:
            b = slot[b]
        end_a.append(a)
        end_b.append(b)

    # state[p] is edge p's state in _NEXT: its try order and the color it
    # holds, so a retry resumes after that color
    if hint:
        perm = _relabelling(order, pinned, hint)
        state = [4 * perm.get(hint.get(e.id), 0) for e in order]
    else:
        state = [0] * m

    # the start vertex's edges take colors 1, 2, 3 in turn; with nothing
    # else colored they cannot conflict
    for pos in range(pinned):
        state[pos] = c = pos + 1
        used[end_a[pos]] |= 1 << c
        used[end_b[pos]] |= 1 << c

    pos = pinned
    while pos < m:
        a = end_a[pos]
        b = end_b[pos]
        s = _NEXT[state[pos] << 4 | used[a] | used[b]]
        state[pos] = s
        c = s & 3
        if c:
            used[a] |= 1 << c
            used[b] |= 1 << c
            pos += 1
            continue
        pos -= 1
        if pos < pinned:
            return None
        bit = 1 << (state[pos] & 3)
        used[end_a[pos]] ^= bit
        used[end_b[pos]] ^= bit
    return {e.id: KLEIN_COLORS[(s & 3) - 1] for e, s in zip(order, state)}
