"""Independent oracles the tests compare the production solvers against.

Everything here reads the graph structure directly and decides by plain
enumeration (vectorized over full assignment tables, or naive backtracking
without any of the production solver's ordering, forcing, or symmetry
tricks).  Nothing imports the production decision procedures; the one
production helper used is ``chordless_cycles``, which the cycle-pair oracle
enumerates over.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import combinations
from typing import Optional, Union

import numpy as np

from snarkcrit.multigraph import DANGLING, CubicGraph
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


def _bfs_edge_order(graph: CubicGraph):
    order, listed = [], set()
    for comp in graph.components():
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
    edges = [e for e in graph.edges if not (e.is_loop or e.is_free)]
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
    base = len(graph.components())
    out = []
    for e in graph.edges:
        if e.is_loop or len(e.real_endpoints()) < 2:
            continue
        from snarkcrit.multigraph import delete_edge

        if len(delete_edge(graph, e.id).components()) > base:
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
    """
    edges = [e for e in graph.edges if not e.is_loop]
    n = len(edges)

    def search(k: int, start: int, chosen: list, used_vertices: set) -> bool:
        if len(chosen) == k:
            return _has_two_cyclic_components(graph, {e.id for e in chosen})
        for i in range(start, n):
            e = edges[i]
            ends = set(e.real_endpoints())
            if ends & used_vertices:
                continue
            chosen.append(e)
            if search(k, i + 1, chosen, used_vertices | ends):
                return True
            chosen.pop()
        return False

    for k in range(1, bound):
        if search(k, 0, [], set()):
            return False
    return True


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
