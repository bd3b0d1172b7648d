from __future__ import annotations

from snarkcrit.graph_io import blanusa, petersen
from snarkcrit.multigraph import DANGLING, build_graph
from isomorphism import are_isomorphic


def test_relabeled_petersen():
    g = petersen()
    n = g.order
    relabel = {v: (v * 3 + 1) % n for v in g.vertices}
    h = build_graph(n, [(relabel[e.a], relabel[e.b]) for e in g.edges])
    assert are_isomorphic(g, h)


def test_different_graphs():
    k4 = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    cycle = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)])
    assert are_isomorphic(k4, cycle)  # K4 drawn two ways
    prism = build_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                            (0, 3), (1, 4), (2, 5)])
    k33 = build_graph(6, [(i, j) for i in (0, 1, 2) for j in (3, 4, 5)])
    assert not are_isomorphic(prism, k33)


def test_multigraph_features_distinguish():
    loop = build_graph(1, [(0, 0)])
    free = build_graph(1, [(DANGLING, DANGLING)])
    assert not are_isomorphic(loop, free)
    theta = build_graph(2, [(0, 1)] * 3)
    path3 = build_graph(2, [(0, 1), (0, 1), (0, DANGLING)])
    assert not are_isomorphic(theta, path3)
    assert are_isomorphic(theta, build_graph(2, [(1, 0)] * 3))


def test_blanusa_pair_distinct():
    assert not are_isomorphic(blanusa(1), blanusa(2))
