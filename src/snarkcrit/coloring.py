"""Proper 3-edge-coloring with colors from the nonzero Klein four-group.

The three colors are the nonzero elements of Z2 x Z2 written as two-bit
values 01, 10, 11.  They XOR to zero, so at a degree-3 vertex any two
distinct colors force the third; the solver gets this propagation for free
from per-vertex used-color bitmasks.  Degree-1 and degree-2 vertices (from
dangling edges or edge deletions) only impose pairwise distinctness.

A call makes one pass over the graph's edges, which yields each vertex's
incidence list (hence its degree), whether there is a loop, and the free
edges, and then searches.  Any loop makes its vertex uncolorable, so
graphs containing loops are rejected outright.  Connected components are
solved independently, each found by the BFS that orders its edges.  The
search is table-driven: an edge's state (its try order and its current
color) and the colors busy at its endpoints index the next state, so a try
costs one lookup.  A hint, such as the coloring of a sibling derived graph,
only picks each edge's try order.  The number of search-loop iterations is
added to :data:`search_steps`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Mapping, Optional

from .multigraph import DANGLING, CubicGraph, GraphError


class KleinColor(IntEnum):
    """Nonzero elements of Z2 x Z2; the XOR of all three is zero."""

    C01 = 1
    C10 = 2
    C11 = 3


KLEIN_COLORS = (KleinColor.C01, KleinColor.C10, KleinColor.C11)
_BITS = {1: 2, 2: 4, 3: 8}  # a color's bit in a used-color mask

#: Iterations of the search loop, summed over every call in this process.
search_steps = 0


@dataclass(frozen=True, eq=False)
class EdgeColoring:
    """A color for every non-loop edge of ``graph``, dangling edges included."""

    graph: CubicGraph
    assignment: dict[int, KleinColor]

    def is_proper(self) -> bool:
        """Check the defining constraints directly against the graph.

        Proper means: every non-loop edge has a nonzero color, no loops
        exist, and the colors meeting at any vertex are pairwise distinct.
        One pass over the edges, with a used-color bitmask per vertex; a
        loop meets itself at its vertex.  The assignment holds no other edge
        when it colors every edge and has as many entries as there are edges.
        """
        assignment = self.assignment
        used = dict.fromkeys(self.graph.vertices, 0)
        try:
            for eid, a, b in self.graph.edges:
                bit = _BITS.get(assignment.get(eid))
                if bit is None:
                    return False
                if a is not DANGLING:
                    if used[a] & bit:
                        return False
                    used[a] |= bit
                if b is not DANGLING:
                    if used[b] & bit:
                        return False
                    used[b] |= bit
        except TypeError:  # an unhashable color
            return False
        return len(assignment) == len(self.graph.edges)


def three_edge_colorable(
    graph: CubicGraph, *, hint: Optional[Mapping[int, int]] = None
) -> Optional[EdgeColoring]:
    """Find a proper 3-edge-coloring, or None if there is none.

    Vertices of degree above three are an input error, reported before a
    loop makes the answer None.  The search runs per component, visiting
    edges in BFS order from a maximum-degree vertex; the start vertex's
    edges are pinned to fixed colors, which quotients away the six color
    permutations.  ``hint`` (edge id -> color, say a coloring of a sibling
    graph) only changes the order of tries: an edge tries its hinted color
    first, after the hint is relabelled so that it agrees with the pinned
    colors.  The search stays complete either way.
    """
    # one pass over the edges: each vertex's incidences as (edge id, other
    # end), where a loop is listed twice, so their lengths are the degrees
    incident: dict[int, list] = {v: [] for v in graph.vertices}
    assignment: dict[int, KleinColor] = {}
    has_loop = False
    for eid, a, b in graph.edges:
        if a is DANGLING:
            if b is DANGLING:
                assignment[eid] = KleinColor.C01  # no vertex constrains a free edge
                continue
            a, b = b, a
        incident[a].append((eid, b))
        if b is not DANGLING:
            incident[b].append((eid, a))
            if a == b:
                has_loop = True
    for v, inc in incident.items():
        if len(inc) > 3:
            raise GraphError(f"vertex {v} has degree {len(inc)} > 3")
    if has_loop:
        return None

    global search_steps
    # each vertex not yet reached starts a component; in this order it is
    # the smallest vertex of maximum degree there
    slot: dict[int, int] = {}
    used: list[int] = []
    steps = 0
    for start in sorted(incident, key=lambda v: (-len(incident[v]), v)):
        if start in slot:
            continue
        ids, end_a, end_b = _edge_order(incident, start, slot, used)
        part, n = _color_component(ids, end_a, end_b, len(incident[start]), used, hint)
        steps += n
        if part is None:
            search_steps += steps
            return None
        assignment.update(part)
    search_steps += steps
    return EdgeColoring(graph, assignment)


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
    incident: dict[int, list], start: int, slot: dict[int, int], used: list[int]
) -> tuple[list[int], list[int], list[int]]:
    """BFS edge order over the component of ``start``: edge ids and end slots.

    Each vertex reached gets the next slot of ``used``, its used-color
    bitmask, so vertex slots grow in BFS order and an edge is listed from
    whichever end is visited first.  The detached side of a dangling edge
    gets a slot of its own, which thus never conflicts with anything.
    """
    slot[start] = len(used)
    used.append(0)
    ids: list[int] = []
    end_a: list[int] = []
    end_b: list[int] = []
    queue = [start]
    for v in queue:
        sv = slot[v]
        for eid, w in incident[v]:
            if w is DANGLING:
                sw = len(used)
                used.append(0)
            else:
                sw = slot.get(w)
                if sw is None:
                    slot[w] = sw = len(used)
                    used.append(0)
                    queue.append(w)
                elif sw < sv:
                    continue  # listed when w was visited
            ids.append(eid)
            end_a.append(sv)
            end_b.append(sw)
    return ids, end_a, end_b


def _relabelling(ids: list[int], pinned: int, hint: Mapping[int, int]) -> dict[int, int]:
    """The color permutation taking the hint's colors on the pinned edges to 1, 2, 3."""
    perm: dict[int, int] = {}
    for pos in range(pinned):
        h = hint.get(ids[pos])
        if h in (1, 2, 3) and h not in perm:
            perm[h] = pos + 1
    spare = [c for c in (1, 2, 3) if c not in perm.values()]
    for h in (1, 2, 3):
        if h not in perm:
            perm[h] = spare.pop(0)
    return perm


def _color_component(
    ids: list[int],
    end_a: list[int],
    end_b: list[int],
    pinned: int,
    used: list[int],
    hint: Optional[Mapping[int, int]],
) -> tuple[Optional[dict[int, KleinColor]], int]:
    """Color one component's edges, or None; also the search loop's iteration count."""
    m = len(ids)
    # state[p] is edge p's state in _NEXT: its try order and the color it
    # holds, so a retry resumes after that color
    if hint:
        perm = _relabelling(ids, pinned, hint)
        state = [4 * perm.get(hint.get(eid), 0) for eid in ids]
    else:
        state = [0] * m

    # the start vertex's edges take colors 1, 2, 3 in turn; with nothing
    # else colored they cannot conflict
    for pos in range(pinned):
        state[pos] = c = pos + 1
        used[end_a[pos]] |= 1 << c
        used[end_b[pos]] |= 1 << c

    # each iteration advances or backtracks one edge, so counting the
    # backtracks gives the iterations from the net advance
    back = 0
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
        back += 1
        pos -= 1
        if pos < pinned:
            return None, 2 * back - 1
        bit = 1 << (state[pos] & 3)
        used[end_a[pos]] ^= bit
        used[end_b[pos]] ^= bit
    colors = {eid: KLEIN_COLORS[(s & 3) - 1] for eid, s in zip(ids, state)}
    return colors, 2 * back + m - pinned
