"""Isomorphism testing for the small multigraphs this package works with.

Backtracking over vertex assignments with iterated degree refinement keeps
this comfortably fast for the cubic graphs of a few dozen vertices that
appear here; it is not meant for anything bigger.  Loops, parallel edges,
and dangling edges all participate in the signature.
"""

from __future__ import annotations

from collections import Counter

from snarkcrit.multigraph import CubicGraph


def _signature(graph: CubicGraph) -> tuple:
    loops = Counter()
    dangling = Counter()
    mult: dict[tuple[int, int], int] = {}
    for e in graph.edges:
        if e.is_free:
            continue
        if e.is_loop:
            loops[e.a] += 1
        elif e.is_dangling:
            dangling[e.real_endpoints()[0]] += 1
        else:
            x, y = sorted(e.real_endpoints())
            mult[(x, y)] = mult.get((x, y), 0) + 1
    return loops, dangling, mult


def _refine_colors(graph: CubicGraph, loops, dangling, mult) -> dict[int, int]:
    """Iterated neighborhood refinement; returns a color per vertex."""
    neigh: dict[int, list[int]] = {v: [] for v in graph.vertices}
    for (x, y), m in mult.items():
        neigh[x].extend([y] * m)
        neigh[y].extend([x] * m)
    color = {
        v: hash((graph.degree(v), loops[v], dangling[v])) for v in graph.vertices
    }
    for _ in range(max(1, len(graph.vertices).bit_length())):
        color = {
            v: hash((color[v], tuple(sorted(color[w] for w in neigh[v]))))
            for v in graph.vertices
        }
    return color


def are_isomorphic(g: CubicGraph, h: CubicGraph) -> bool:
    """Decide whether two multigraphs are isomorphic."""
    if g.order != h.order or len(g.edges) != len(h.edges):
        return False
    g_loops, g_dang, g_mult = _signature(g)
    h_loops, h_dang, h_mult = _signature(h)
    if len([e for e in g.edges if e.is_free]) != len([e for e in h.edges if e.is_free]):
        return False
    if sorted(g_loops.values()) != sorted(h_loops.values()):
        return False
    if sorted(g_dang.values()) != sorted(h_dang.values()):
        return False
    if sorted(g_mult.values()) != sorted(h_mult.values()):
        return False
    if sorted(g.degree(v) for v in g.vertices) != sorted(
        h.degree(v) for v in h.vertices
    ):
        return False

    g_color = _refine_colors(g, g_loops, g_dang, g_mult)
    h_color = _refine_colors(h, h_loops, h_dang, h_mult)
    if sorted(Counter(g_color.values()).values()) != sorted(
        Counter(h_color.values()).values()
    ):
        return False

    g_verts = sorted(g.vertices, key=lambda v: (Counter(g_color.values())[g_color[v]], g_color[v], v))
    candidates = {
        v: [w for w in h.vertices if h_color[w] == g_color[v]] for v in g.vertices
    }
    if any(not c for c in candidates.values()):
        return False

    g_adj = {v: Counter() for v in g.vertices}
    for (x, y), m in g_mult.items():
        g_adj[x][y] += m
        g_adj[y][x] += m
    h_adj = {v: Counter() for v in h.vertices}
    for (x, y), m in h_mult.items():
        h_adj[x][y] += m
        h_adj[y][x] += m

    mapping: dict[int, int] = {}
    used: set[int] = set()

    def extend(i: int) -> bool:
        if i == len(g_verts):
            return True
        v = g_verts[i]
        for w in candidates[v]:
            if w in used:
                continue
            if g_loops[v] != h_loops[w] or g_dang[v] != h_dang[w]:
                continue
            ok = True
            for x, m in g_adj[v].items():
                if x in mapping and h_adj[w][mapping[x]] != m:
                    ok = False
                    break
            if ok:
                # also require no stray adjacencies into the mapped part
                mapped_mult = sum(m for x, m in g_adj[v].items() if x in mapping)
                image_mult = sum(
                    m for y, m in h_adj[w].items() if y in used
                )
                if mapped_mult != image_mult:
                    ok = False
            if not ok:
                continue
            mapping[v] = w
            used.add(w)
            if extend(i + 1):
                return True
            del mapping[v]
            used.remove(w)
        return False

    return extend(0)
