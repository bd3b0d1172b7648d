"""Structural diagnostics: girth, bridges, cyclic edge-connectivity.

Cyclic edge-connectivity is the smallest number of edges whose removal
leaves at least two components that each contain a cycle; it is undefined
for graphs without two vertex-disjoint cycles.  For a connected cubic graph
it is first bracketed between two cheap bounds: below by the
edge-connectivity lambda (at most 3), which is the answer whenever
lambda <= 2, and above by the girth, which settles the answer at 3 when
lambda = 3 and a triangle leaves a cycle behind (six or more vertices).
Only the remaining graphs get the exhaustive search: lambda = 3 with no
triangle or fewer than six vertices, which takes in every cyclically
4-edge-connected graph.  The search pairs up chordless cycles (loops
count as 1-cycles, parallel pairs as 2-cycles) and takes the minimum edge
cut separating any vertex-disjoint pair, found by augmenting paths with
both cycles contracted, stopping early once a cut of size lambda turns
up.  Every cycle-containing side of a cut contains a chordless cycle, so
scanning all chordless-cycle pairs is exact.  The tests check the result
against the plain all-pairs search and, on small instances, against
exhaustive cut enumeration.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Optional, Union

from .multigraph import DANGLING, CubicGraph, GraphError


@dataclass(frozen=True)
class StructureProfile:
    connected: bool
    bridge_count: int
    girth: Union[int, float]  # math.inf for forests
    cyclic_edge_connectivity: Optional[int]  # None when undefined or not computed


def structure_profile(graph: CubicGraph) -> StructureProfile:
    """Collect the diagnostics; cyclic connectivity only where it is defined.

    For non-cubic or disconnected input the cyclic-connectivity slot is None
    (the dedicated function refuses such graphs loudly instead).
    """
    cec: Optional[int] = None
    if graph.is_cubic and graph.is_connected and not graph.has_dangling:
        cec = cyclic_edge_connectivity(graph)
    return StructureProfile(
        connected=graph.is_connected,
        bridge_count=len(find_bridges(graph)),
        girth=girth(graph),
        cyclic_edge_connectivity=cec,
    )


def girth(graph: CubicGraph) -> Union[int, float]:
    """Length of a shortest cycle: a loop is 1, a parallel pair 2, forests inf."""
    if any(e.is_loop for e in graph.edges):
        return 1
    seen_pairs = set()
    for e in graph.edges:
        reals = e.real_endpoints()
        if len(reals) == 2:
            key = frozenset(reals)
            if key in seen_pairs:
                return 2
            seen_pairs.add(key)
    # simple at this point: BFS from every vertex, shortest cycle through edges
    adj: dict[int, list[int]] = {v: [] for v in graph.vertices}
    for e in graph.edges:
        reals = e.real_endpoints()
        if len(reals) == 2:
            adj[reals[0]].append(reals[1])
            adj[reals[1]].append(reals[0])
    best = math.inf
    for s in graph.vertices:
        dist = {s: 0}
        parent = {s: -1}
        queue = deque([s])
        while queue:
            x = queue.popleft()
            if dist[x] * 2 >= best:
                break
            for y in adj[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    parent[y] = x
                    queue.append(y)
                elif parent[x] != y:
                    best = min(best, dist[x] + dist[y] + 1)
    return best


def find_bridges(graph: CubicGraph) -> tuple[int, ...]:
    """Ids of all cut-edges; loops, parallels, and dangling edges never qualify."""
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    bridges: list[int] = []
    counter = 0
    inc = {
        v: [
            (e.id, e.other_endpoint(v))
            for e in graph.incident_edges(v)
            if not e.is_loop and e.other_endpoint(v) is not DANGLING
        ]
        for v in graph.vertices
    }
    for root in sorted(graph.vertices):
        if root in disc:
            continue
        # iterative DFS; entering edge ids distinguish parallel companions
        stack: list[tuple[int, int, int]] = [(root, -1, 0)]
        disc[root] = low[root] = counter
        counter += 1
        while stack:
            v, via, i = stack.pop()
            if i < len(inc[v]):
                stack.append((v, via, i + 1))
                eid, w = inc[v][i]
                if eid == via:
                    continue
                if w not in disc:
                    disc[w] = low[w] = counter
                    counter += 1
                    stack.append((w, eid, 0))
                else:
                    low[v] = min(low[v], disc[w])
            elif via != -1:
                # leaving v: fold its low value into the parent
                e = graph.edge(via)
                p = e.other_endpoint(v)
                low[p] = min(low[p], low[v])
                if low[v] > disc[p]:
                    bridges.append(via)
    return tuple(sorted(bridges))


def cyclic_edge_connectivity(graph: CubicGraph) -> Optional[int]:
    """Minimum cyclic edge cut size for a connected cubic graph, or None.

    None means no two vertex-disjoint cycles exist, so no cut can separate
    two cycle-containing parts.  Non-cubic input is refused.

    The value is bracketed first and searched for only if the brackets
    do not meet:

    * Lower bound.  A cyclic cut disconnects the graph, so it has at least
      lambda edges, the edge-connectivity.  The non-loop edges at any
      vertex form a cut, so lambda <= 3.  When lambda <= 2 the bound is
      attained: a side S of a k-edge cut spans (3|S| - k) / 2 edges, at
      least |S| whenever |S| >= k, which holds for k = 1 and, as
      3|S| - k is even, for k = 2.  A multigraph with at least as many
      edges as vertices holds a cycle, loops and parallel pairs included,
      so both sides of a minimum cut hold one.
    * Upper bound.  The girth bounds the answer from above where the
      complement of a shortest cycle still holds a cycle; it meets the
      lower bound only for girth 3.  With lambda = 3 the graph has no
      loops or parallel edges (either would give a smaller cut) unless it
      is the theta graph, so a triangle T has |delta(T)| = 3.  G - V(T)
      has n - 3 vertices and (3(n - 3) - 3) / 2 edges, at least n - 3 once
      n >= 6, so delta(T) is a cyclic 3-cut and the answer is 3.
    * Otherwise every disjoint pair of chordless cycles gets a max-flow,
      capped at the best cut so far, and the search stops once a cut of
      size lambda turns up.  Every cycle-containing side of a cut holds a
      chordless cycle, so the minimum over all pairs is exact.
    """
    if not graph.is_cubic or graph.has_dangling:
        raise GraphError("cyclic edge-connectivity is computed for cubic graphs only")
    if not graph.is_connected:
        raise GraphError("cyclic edge-connectivity needs a connected graph")

    lower = _edge_connectivity(graph)
    if lower <= 2:
        return lower
    if graph.order >= 6 and _has_triangle(graph):
        return 3
    return _min_cut_over_cycle_pairs(graph, chordless_cycles(graph), lower)


def _edge_connectivity(graph: CubicGraph) -> int:
    """Edge-connectivity of a connected graph with more than one vertex, capped at 3.

    Each edge is labelled with the fundamental cycles through it, relative
    to a BFS spanning tree, as a bit set.  An edge set is a cut exactly
    when every cycle meets it an even number of times, so a bridge is an
    edge with an empty label and a 2-edge cut is a pair of equal labels.
    """
    root = min(graph.vertices)
    tree_edge = {root: None}  # vertex -> the tree edge to its parent
    order = [root]
    for v in order:  # BFS; ``order`` grows while it is walked
        for e in graph.incident_edges(v):
            w = e.other_endpoint(v)
            if w not in tree_edge and w is not DANGLING:
                tree_edge[w] = e
                order.append(w)

    tree = {e.id for e in tree_edge.values() if e is not None}
    below = dict.fromkeys(graph.vertices, 0)  # XOR of the non-tree labels at a vertex
    labels: list[int] = []
    bit = 1
    for e in graph.edges:
        if e.id in tree or e.is_loop:
            continue
        labels.append(bit)
        below[e.a] ^= bit
        below[e.b] ^= bit
        bit <<= 1
    for v in reversed(order[1:]):  # the tree edge above v: the XOR over its subtree
        labels.append(below[v])
        below[tree_edge[v].other_endpoint(v)] ^= below[v]

    if 0 in labels:
        return 1
    if len(set(labels)) < len(labels):
        return 2
    return 3


def _has_triangle(graph: CubicGraph) -> bool:
    """Whether a graph without loops has three pairwise adjacent vertices."""
    neighbors = {v: graph.neighbors(v) for v in graph.vertices}
    return any(neighbors[u] & neighbors[w] for u in neighbors for w in neighbors[u])


def _min_cut_over_cycle_pairs(
    graph: CubicGraph, cycles: list[frozenset[int]], lower: int
) -> Optional[int]:
    """Smallest max-flow between two disjoint cycles; None without such a pair.

    Returns as soon as a cut of size ``lower`` is found, since none is
    smaller.  Vertices are renumbered 0..n-1 once.  Few pairs of cycles
    are disjoint, so the partners of each cycle are read off a bit set over
    the cycles instead of testing every pair.
    """
    index = {v: i for i, v in enumerate(sorted(graph.vertices))}
    arcs: list[list[tuple[int, int, int]]] = [[] for _ in index]
    edge_count = 0
    for e in graph.edges:
        if e.is_loop:
            continue
        x, y = index[e.a], index[e.b]
        arcs[x].append((edge_count, y, 1))
        arcs[y].append((edge_count, x, -1))
        edge_count += 1

    members = [[index[v] for v in c] for c in sorted(cycles, key=len)]
    masks = [sum(1 << x for x in c) for c in members]  # vertex bit sets
    through = [0] * len(index)  # vertex -> bit set of the cycles through it
    for j, cycle in enumerate(members):
        for x in cycle:
            through[x] |= 1 << j
    every_cycle = (1 << len(members)) - 1

    best: Union[int, float] = math.inf
    for i, cycle in enumerate(members):
        meets = 0
        for x in cycle:
            meets |= through[x]
        later = (every_cycle ^ meets) >> i  # bit p: cycle i + p is disjoint from cycle i
        while later:
            low = later & -later
            later ^= low
            j = i + low.bit_length() - 1
            best = _max_flow(arcs, edge_count, cycle, masks[j], best)
            if best == lower:
                return lower
    return None if best is math.inf else int(best)


def _max_flow(
    arcs: list[list[tuple[int, int, int]]],
    edge_count: int,
    sources: list[int],
    sink_mask: int,
    cap: Union[int, float],
) -> Union[int, float]:
    """Unit-capacity max-flow from a vertex set to a disjoint one, or ``cap``.

    ``arcs[x]`` lists ``(edge, y, sign)`` for every edge between x and y;
    ``flow[edge]`` is +1 or -1 when the edge carries flow in the direction
    of sign +1 or -1.  Augmentation stops once the flow reaches ``cap``,
    in which case ``cap`` is returned.
    """
    flow = [0] * edge_count
    value = 0
    while value < cap:
        # BFS from all sources at once, which contracts them to one terminal
        prev: list = [None] * len(arcs)
        for x in sources:
            prev[x] = ()
        queue = list(sources)
        end = -1
        for x in queue:
            for k, y, sign in arcs[x]:
                if prev[y] is None and sign * flow[k] < 1:
                    prev[y] = (k, sign, x)
                    if sink_mask >> y & 1:
                        end = y
                        break
                    queue.append(y)
            if end >= 0:
                break
        if end < 0:
            return value
        step = prev[end]
        while step:
            k, sign, x = step
            flow[k] += sign
            step = prev[x]
        value += 1
    return cap


def chordless_cycles(graph: CubicGraph) -> list[frozenset[int]]:
    """Vertex sets of all chordless cycles; loops and parallel pairs included."""
    out: list[frozenset[int]] = []
    seen: set[frozenset[int]] = set()
    for e in graph.edges:
        if e.is_loop:
            key = frozenset((e.a,))
            if key not in seen:
                seen.add(key)
                out.append(key)
    pair_mult: dict[frozenset[int], int] = {}
    for e in graph.edges:
        reals = e.real_endpoints()
        if len(reals) == 2 and reals[0] != reals[1]:
            key = frozenset(reals)
            pair_mult[key] = pair_mult.get(key, 0) + 1
    for key, mult in pair_mult.items():
        if mult >= 2 and key not in seen:
            seen.add(key)
            out.append(key)

    adj: dict[int, set[int]] = {v: set() for v in graph.vertices}
    for key in pair_mult:
        x, y = tuple(key)
        adj[x].add(y)
        adj[y].add(x)

    # simple chordless cycles of length >= 3, anchored at their smallest vertex;
    # each open path carries the bit set of its interior's neighbours
    around = {v: sum(1 << w for w in adj[v]) for v in adj}
    ordered = {v: sorted(adj[v]) for v in adj}
    for s in sorted(graph.vertices):
        firsts = [x for x in ordered[s] if x > s]
        for first in firsts:
            stack = [([s, first], 0)]
            while stack:
                path, blocked = stack.pop()
                last = path[-1]
                for u in ordered[last]:
                    if u <= s or u in path:
                        continue
                    # a chord to the interior rules u out entirely
                    if blocked >> u & 1:
                        continue
                    if s in adj[u]:
                        if len(path) >= 2 and path[1] < u:
                            cyc = frozenset(path + [u])
                            if cyc not in seen:
                                seen.add(cyc)
                                out.append(cyc)
                        continue  # extending past u would leave a chord to s
                    stack.append((path + [u], blocked | around[last]))
    return out
