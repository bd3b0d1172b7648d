"""Independent oracles the tests compare the production solvers against.

Everything here reads the graph structure directly and decides by plain
enumeration (vectorized over full assignment tables, or naive backtracking
without any of the production solver's ordering, forcing, or symmetry
tricks).  Nothing imports the production decision procedures; the one
production helper used is ``chordless_cycles``, which the cycle-pair oracle
enumerates over.  The three surgery oracles are the earlier rebuild-and-sort
versions of the production operations, which visit only the edges at the
surgery.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import combinations
from typing import Optional, Union

import networkx as nx
import numpy as np

from snarkcrit.multigraph import (
    DANGLING,
    CubicGraph,
    Edge,
    GraphError,
    NonSuppressibleError,
    VertexPair,
)
from snarkcrit.structure import chordless_cycles

_LOW_DIGITS = 10  # a chunk enumerates the 3**10 settings of the first ten positions


def _all_settings(m: int):
    """All 3**m tuples over 1..3 in lexicographic order of the reversed tuple.

    Yields one ``(m, chunk)`` array per chunk, one row per position: the low
    rows run through every setting of the first positions, the high rows hold
    one fixed setting of the rest.  The array is reused between chunks.
    """
    low = min(m, _LOW_DIGITS)
    digits = np.empty((m, 3**low), dtype=np.int64)
    codes = np.arange(3**low, dtype=np.int64)
    for j in range(low):
        digits[j] = codes // 3**j % 3 + 1
    for high in range(3 ** (m - low)):
        for j in range(low, m):
            digits[j] = high // 3 ** (j - low) % 3 + 1
        yield digits


def _vertex_slots(graph: CubicGraph, edges) -> dict[int, list[tuple[int, int]]]:
    """vertex -> list of (edge position, sign); +1 where the vertex is the head."""
    slots: dict[int, list[tuple[int, int]]] = {v: [] for v in graph.vertices}
    for pos, e in enumerate(edges):
        if e.is_loop:
            continue
        if e.a is not DANGLING:
            slots[e.a].append((pos, -1))
        if e.b is not DANGLING:
            slots[e.b].append((pos, +1))
    return slots


def _rebuild(vertices, edges) -> CubicGraph:
    return CubicGraph(frozenset(vertices), tuple(sorted(edges, key=lambda e: e.id)))


def remove_vertex_pair_by_rebuild(graph: CubicGraph, pair: VertexPair) -> CubicGraph:
    """Vertex-pair removal, edge by edge from the endpoint counts, then re-sorted.

    A removed endpoint becomes DANGLING in its own slot.
    """
    u, v = pair
    if u not in graph.vertices or v not in graph.vertices:
        raise GraphError("both vertices of the pair must belong to the graph")
    gone = {u, v}
    new_edges = []
    for e in graph.edges:
        inside = sum(1 for x in (e.a, e.b) if x is not DANGLING and x in gone)
        if inside == 0:
            new_edges.append(e)
        elif inside == len(e.real_endpoints()) >= 2:
            continue  # loop at the pair, or an edge joining it: no attachment left
        else:
            new_edges.append(Edge(e.id, *(DANGLING if x in gone else x for x in (e.a, e.b))))
    return _rebuild(graph.vertices - gone, new_edges)


def identify_vertices_by_rebuild(graph: CubicGraph, pair: VertexPair) -> CubicGraph:
    """Vertex identification by remapping every endpoint, then re-sorted."""
    u, v = pair
    if u not in graph.vertices or v not in graph.vertices:
        raise GraphError("both vertices of the pair must belong to the graph")
    if graph.has_dangling:
        raise GraphError("cannot identify vertices in a graph with dangling edges")
    merged = min(u, v)

    def remap(x):
        return merged if x in (u, v) else x

    new_edges = [Edge(e.id, remap(e.a), remap(e.b)) for e in graph.edges]
    return _rebuild((graph.vertices - {u, v}) | {merged}, new_edges)


def suppress_edge_by_rebuild(graph: CubicGraph, edge_id: int) -> CubicGraph:
    """Edge suppression over a dict of every edge, scanned once per endpoint, then re-sorted."""
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
        slots: list[tuple] = []
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
        edges[next_id] = Edge(next_id, n1, n2)
        next_id += 1

    return _rebuild(vertices, edges.values())


def colorable_by_full_enumeration(graph: CubicGraph) -> bool:
    """Try all 3^m color assignments, vectorized in chunks."""
    if any(e.is_loop for e in graph.edges):
        return False
    edges = list(graph.edges)
    m = len(edges)
    if m == 0:
        return True
    slots = _vertex_slots(graph, edges)
    for digits in _all_settings(m):  # colors 1..3
        ok = np.ones(digits.shape[1], dtype=bool)
        for v, incident in slots.items():
            positions = [p for p, _ in incident]
            for i, j in combinations(positions, 2):
                ok &= digits[i] != digits[j]
        if ok.any():
            return True
    return False


def colorable_by_backtracking(graph: CubicGraph) -> bool:
    """Plain recursive backtracking in breadth-first edge order.

    No Klein-sum forcing and no color symmetry breaking; the only pruning
    is rejecting a color already present at an endpoint.
    """
    if any(e.is_loop for e in graph.edges):
        return False
    edges = _bfs_edge_order(graph)
    m = len(edges)
    used: dict[int, set[int]] = {v: set() for v in graph.vertices}

    def place(i: int) -> bool:
        if i == m:
            return True
        e = edges[i]
        ends = [x for x in e.real_endpoints()]
        for c in (1, 2, 3):
            if any(c in used[x] for x in ends):
                continue
            for x in ends:
                used[x].add(c)
            if place(i + 1):
                return True
            for x in ends:
                used[x].remove(c)
        return False

    return place(0)


def components(graph: CubicGraph) -> list[set[int]]:
    """Vertex sets of the connected components, by their smallest vertex.

    Dangling edges join nothing.
    """
    g = nx.Graph()
    g.add_nodes_from(sorted(graph.vertices))
    g.add_edges_from(e.real_endpoints() for e in graph.edges if not e.is_dangling)
    return list(nx.connected_components(g))


def _bfs_edge_order(graph: CubicGraph):
    order, listed = [], set()
    for comp in components(graph):
        queue = [min(comp)]
        seen = {queue[0]}
        while queue:
            v = queue.pop(0)
            for e in sorted(graph.incident_edges(v), key=lambda e: e.id):
                if e.id not in listed:
                    listed.add(e.id)
                    order.append(e)
                w = e.other_endpoint(v)
                if w is not DANGLING and w not in seen:
                    seen.add(w)
                    queue.append(w)
    for e in graph.edges:
        if e.id not in listed:  # free edges
            listed.add(e.id)
            order.append(e)
    return order


def flow_exists_by_enumeration(graph: CubicGraph, group: str) -> bool:
    """Try all nonzero value assignments; conservation checked per vertex.

    ``group`` is "Z4" (signed sums mod 4) or "Z2xZ2" (XOR, sign-free).
    Loops and free edges are unconstrained and skipped.
    """
    edges = [e for e in graph.edges if e.real_endpoints() and not e.is_loop]
    m = len(edges)
    if m == 0:
        return True
    slots = _vertex_slots(graph, edges)
    for digits in _all_settings(m):  # values 1..3
        ok = np.ones(digits.shape[1], dtype=bool)
        for v, incident in slots.items():
            if not incident:
                continue
            if group == "Z2xZ2":
                acc = np.zeros(digits.shape[1], dtype=np.int64)
                for pos, _sign in incident:
                    acc ^= digits[pos]
            else:
                acc = np.zeros(digits.shape[1], dtype=np.int64)
                for pos, sign in incident:
                    acc = (acc + sign * digits[pos]) % 4
            ok &= acc == 0
        if ok.any():
            return True
    return False


def colors_cancel_at_cubic_vertices(graph: CubicGraph, colors: dict[int, int]) -> bool:
    """True iff the colors at every vertex of degree three XOR to zero.

    The three distinct nonzero elements of Z2 x Z2 sum to zero, so a proper
    coloring is a Z2 x Z2 flow wherever a vertex has degree three; at
    vertices of lower degree the sum generally does not vanish.
    """
    sums = dict.fromkeys(graph.vertices, 0)
    for eid, a, b in graph.edges:
        for x in (a, b):
            if x is not DANGLING:
                sums[x] ^= colors[eid]
    return all(not sums[v] for v in graph.vertices if graph.degree(v) == 3)


def girth_by_cycle_enumeration(graph: CubicGraph):
    """Smallest cycle length by enumerating simple cycles from each vertex."""
    best = math.inf
    for e in graph.edges:
        if e.is_loop:
            return 1
    mult: dict[frozenset, int] = {}
    for e in graph.edges:
        reals = e.real_endpoints()
        if len(reals) == 2:
            key = frozenset(reals)
            mult[key] = mult.get(key, 0) + 1
    if any(c >= 2 for c in mult.values()):
        return 2
    adj: dict[int, set[int]] = {v: set() for v in graph.vertices}
    for key in mult:
        x, y = tuple(key)
        adj[x].add(y)
        adj[y].add(x)

    def walk(path: list[int]) -> None:
        nonlocal best
        if len(path) >= best:
            return
        last = path[-1]
        for w in adj[last]:
            if w == path[0] and len(path) >= 3:
                best = min(best, len(path))
            elif w not in path and w > path[0]:
                walk(path + [w])

    for s in graph.vertices:
        walk([s])
    return best


def bridges_by_removal(graph: CubicGraph) -> tuple[int, ...]:
    """An edge is a bridge iff removing it increases the component count."""
    base = len(components(graph))
    out = []
    for e in graph.edges:
        if e.is_loop or len(e.real_endpoints()) < 2:
            continue
        from snarkcrit.multigraph import delete_edge

        if len(components(delete_edge(graph, e.id))) > base:
            out.append(e.id)
    return tuple(sorted(out))


def cyclic_cut_by_subset_enumeration(graph: CubicGraph, max_size=None):
    """Smallest edge set whose removal leaves two cycle-containing components.

    Tries every subset of non-loop edges by increasing size.  Returns None
    when no such cut exists up to ``max_size`` (defaults to all edges,
    which proves undefinedness outright on small graphs).
    """
    candidates = [e for e in graph.edges if not e.is_loop]
    limit = len(candidates) if max_size is None else min(max_size, len(candidates))
    for k in range(1, limit + 1):
        for subset in combinations(candidates, k):
            removed = {e.id for e in subset}
            if _has_two_cyclic_components(graph, removed):
                return k
    return None


def no_smaller_cyclic_matching_cut(graph: CubicGraph, bound: int) -> bool:
    """True iff no cyclic edge cut with fewer than ``bound`` edges exists.

    In a cubic graph a minimum cyclic cut is a matching: a vertex with two
    cut edges could move to the other side, keeping both sides cyclic and
    shrinking the cut.  So it suffices to enumerate matchings by size.

    Vertices are bits: each candidate edge carries the mask of its real
    endpoints, and the graph left after removing the chosen edges is kept
    as neighbour masks plus, per vertex, twice the number of edges it
    brings to its component (a loop or a dangling edge counts whole).  The
    check is that of :func:`_has_two_cyclic_components`: two components
    with at least as many edges as vertices.
    """
    index = {v: i for i, v in enumerate(sorted(graph.vertices))}
    n = len(index)
    adjacent = [0] * n  # neighbour bit masks
    weight = [0] * n  # twice the edges a vertex brings to its component
    multiplicity: dict[tuple[int, int], int] = {}
    candidates: list[tuple[int, int, int]] = []  # (endpoint mask, end, end or -1)
    for e in graph.edges:
        ends = [index[x] for x in e.real_endpoints()]
        if e.is_loop:
            weight[ends[0]] += 2
        elif len(ends) == 2:
            i, j = sorted(ends)
            adjacent[i] |= 1 << j
            adjacent[j] |= 1 << i
            multiplicity[i, j] = multiplicity.get((i, j), 0) + 1
            weight[i] += 1
            weight[j] += 1
            candidates.append((1 << i | 1 << j, i, j))
        elif ends:
            weight[ends[0]] += 2
            candidates.append((1 << ends[0], ends[0], -1))
        else:
            candidates.append((0, -1, -1))  # a free edge touches nothing
    m = len(candidates)

    def toggle(c: int, sign: int) -> None:
        """Remove (sign -1) or restore (sign +1) candidate edge ``c``."""
        _, i, j = candidates[c]
        if j >= 0:
            weight[i] += sign
            weight[j] += sign
            multiplicity[i, j] += sign
            if multiplicity[i, j] == (0 if sign < 0 else 1):
                adjacent[i] ^= 1 << j
                adjacent[j] ^= 1 << i
        elif i >= 0:
            weight[i] += 2 * sign

    def two_cyclic_components() -> bool:
        remaining = (1 << n) - 1
        cyclic = 0
        while remaining:
            comp = frontier = remaining & -remaining
            size = twice_edges = 0
            while frontier:
                bit = frontier & -frontier
                frontier ^= bit
                v = bit.bit_length() - 1
                size += 1
                twice_edges += weight[v]
                new = adjacent[v] & ~comp
                comp |= new
                frontier |= new
            if twice_edges >= 2 * size:
                cyclic += 1
                if cyclic == 2:
                    return True
            remaining &= ~comp
        return False

    def search(k: int, start: int, used: int) -> bool:
        if k == 0:
            return two_cyclic_components()
        for c in range(start, m):
            mask = candidates[c][0]
            if mask & used:
                continue
            toggle(c, -1)
            found = search(k - 1, c + 1, used | mask)
            toggle(c, +1)
            if found:
                return True
        return False

    return not any(search(k, 0, 0) for k in range(1, bound))


def _has_two_cyclic_components(graph: CubicGraph, removed: set[int]) -> bool:
    parent = {v: v for v in graph.vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edge_count: dict[int, int] = {}
    kept = []
    for e in graph.edges:
        if e.id in removed:
            continue
        reals = e.real_endpoints()
        if len(reals) == 2 and reals[0] != reals[1]:
            ra, rb = find(reals[0]), find(reals[1])
            if ra != rb:
                parent[ra] = rb
        kept.append(e)
    sizes: dict[int, int] = {}
    for v in graph.vertices:
        root = find(v)
        sizes[root] = sizes.get(root, 0) + 1
    for e in kept:
        reals = e.real_endpoints()
        if not reals:
            continue
        root = find(reals[0])
        edge_count[root] = edge_count.get(root, 0) + 1
    cyclic = sum(
        1 for root, size in sizes.items() if edge_count.get(root, 0) >= size
    )
    return cyclic >= 2


def cyclic_connectivity_by_cycle_pairs(graph: CubicGraph) -> Optional[int]:
    """Minimum cyclic edge cut of a connected cubic graph, or None, by brute force.

    Runs a max-flow between every vertex-disjoint pair of chordless cycles
    and takes the smallest; None when no such pair exists.  Every
    cycle-containing side of a cut contains a chordless cycle, so this is
    exact, with no bounds and no early exit.
    """
    cycles = sorted(chordless_cycles(graph), key=len)
    best: Union[int, float] = math.inf
    found_pair = False
    for i, ci in enumerate(cycles):
        for cj in cycles[i + 1 :]:
            if ci & cj:
                continue
            found_pair = True
            best = min(best, _min_cut_between(graph, ci, cj))
    return int(best) if found_pair else None


def _min_cut_between(
    graph: CubicGraph, side_a: frozenset[int], side_b: frozenset[int]
) -> int:
    """Unit-capacity max-flow between two disjoint vertex sets, each contracted."""
    S, T = -1, -2

    def node(x: int) -> int:
        if x in side_a:
            return S
        if x in side_b:
            return T
        return x

    capacity: dict[int, dict[int, int]] = {}
    for e in graph.edges:
        reals = e.real_endpoints()
        if len(reals) != 2:
            continue
        x, y = node(reals[0]), node(reals[1])
        if x == y:
            continue
        capacity.setdefault(x, {})[y] = capacity.get(x, {}).get(y, 0) + 1
        capacity.setdefault(y, {})[x] = capacity.get(y, {}).get(x, 0) + 1

    flow = 0
    while True:
        prev = {S: S}
        queue = deque([S])
        while queue and T not in prev:
            x = queue.popleft()
            for y, c in capacity.get(x, {}).items():
                if c > 0 and y not in prev:
                    prev[y] = x
                    queue.append(y)
        if T not in prev:
            return flow
        y = T
        while y != S:
            x = prev[y]
            capacity[x][y] -= 1
            capacity[y][x] = capacity.get(y, {}).get(x, 0) + 1
            y = x
        flow += 1
