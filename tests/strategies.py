"""Hypothesis strategies and seeded random-graph pools for the test suite."""

from __future__ import annotations

import random

import networkx as nx
from hypothesis import strategies as st

from snarkcrit.multigraph import DANGLING, CubicGraph, build_graph


@st.composite
def multigraphs(
    draw,
    max_vertices: int = 8,
    max_edges: int = 12,
    allow_dangling: bool = True,
    degree_cap: int = 3,
) -> CubicGraph:
    """Arbitrary small multigraphs respecting a per-vertex degree cap."""
    n = draw(st.integers(min_value=0, max_value=max_vertices))
    target = draw(st.integers(min_value=0, max_value=max_edges))
    capacity = {v: degree_cap for v in range(n)}
    edges: list[tuple] = []
    for _ in range(target):
        open_vertices = [v for v in range(n) if capacity[v] >= 1]
        loopable = [v for v in range(n) if capacity[v] >= 2]
        kinds = []
        if len(open_vertices) >= 2:
            kinds.append("edge")
        if loopable:
            kinds.append("loop")
        if allow_dangling and open_vertices:
            kinds.append("dangling")
        if not kinds:
            break
        kind = draw(st.sampled_from(kinds))
        if kind == "edge":
            a = draw(st.sampled_from(open_vertices))
            others = [v for v in open_vertices if v != a]
            b = draw(st.sampled_from(others))
            edges.append((a, b))
            capacity[a] -= 1
            capacity[b] -= 1
        elif kind == "loop":
            v = draw(st.sampled_from(loopable))
            edges.append((v, v))
            capacity[v] -= 2
        else:
            v = draw(st.sampled_from(open_vertices))
            edges.append((v, DANGLING))
            capacity[v] -= 1
    return build_graph(n, edges)


def random_cubic_graphs(
    count: int,
    orders: tuple[int, ...],
    seed: int,
    require_bridgeless: bool = False,
) -> list[CubicGraph]:
    """Seeded pool of connected simple cubic graphs with the given orders."""
    rng = random.Random(seed)
    out: list[CubicGraph] = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > count * 200:
            raise RuntimeError("rejection sampling is not terminating")
        n = orders[len(out) % len(orders)]
        g = nx.random_regular_graph(3, n, seed=rng.randrange(2**31))
        if not nx.is_connected(g):
            continue
        if require_bridgeless and nx.has_bridges(g):
            continue
        out.append(build_graph(n, [tuple(e) for e in g.edges()]))
    return out


def random_simple_graphs(seed: int, max_order: int = 70) -> list[CubicGraph]:
    """Seeded G(n, p) graphs of every order 0..max_order, sparse and dense in turn."""
    rng = random.Random(seed)
    densities = (0.05, 0.5, 0.95)
    out: list[CubicGraph] = []
    for n in range(max_order + 1):
        g = nx.gnp_random_graph(n, densities[n % 3], seed=rng.randrange(2**31))
        out.append(build_graph(n, list(g.edges())))
    return out


def random_cubic_multigraphs(
    count: int, orders: tuple[int, ...], seed: int
) -> list[CubicGraph]:
    """Seeded pool of connected cubic multigraphs, loops and parallel edges kept.

    Pairs up three stubs per vertex uniformly at random (the configuration
    model) and keeps the connected results; orders must be even.
    """
    rng = random.Random(seed)
    out: list[CubicGraph] = []
    while len(out) < count:
        n = orders[len(out) % len(orders)]
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        g = build_graph(n, list(zip(stubs[::2], stubs[1::2])))
        if g.is_connected:
            out.append(g)
    return out
