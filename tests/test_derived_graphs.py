"""Both solvers against the brute-force oracles on every local surgery.

The classifiers call the solvers almost only on derived graphs: vertex-pair
removals (dangling edges), identifications (a degree-6 vertex, loops from
joining edges), edge deletions (degree-2 vertices), contractions (a
degree-4 vertex) and suppressions (parallel edges, loops).  Every such
graph of a few small cubic graphs is checked here, witnesses included.
"""

from __future__ import annotations

from itertools import combinations

import pytest

from snarkcrit.coloring import three_edge_colorable
from snarkcrit.flows import KLEIN, Z4, nowhere_zero_flow, verify_kirchhoff
from snarkcrit.graph_io import complete4, petersen, theta
from snarkcrit.multigraph import (
    GraphError,
    NonSuppressibleError,
    VertexPair,
    build_graph,
    contract_edge,
    delete_edge,
    identify_vertices,
    remove_vertex_pair,
    suppress_edge,
)
from oracles import colorable_by_full_enumeration, flow_exists_by_enumeration

BASES = {
    "k4": complete4,
    "k33": lambda: build_graph(6, [(i, j) for i in range(3) for j in range(3, 6)]),
    "theta": theta,
    "petersen": petersen,
}


def _pairs(graph):
    return [VertexPair(u, v) for u, v in combinations(sorted(graph.vertices), 2)]


def _suppressions(graph):
    for e in graph.edges:
        try:
            yield suppress_edge(graph, e.id)
        except NonSuppressibleError:
            continue


SURGERIES = {
    "removal": lambda g: [remove_vertex_pair(g, p) for p in _pairs(g)],
    "identification": lambda g: [identify_vertices(g, p) for p in _pairs(g)],
    "deletion": lambda g: [delete_edge(g, e.id) for e in g.edges],
    "contraction": lambda g: [contract_edge(g, e.id) for e in g.edges if not e.is_loop],
    "suppression": lambda g: list(_suppressions(g)),
}


@pytest.mark.parametrize("surgery", sorted(SURGERIES))
@pytest.mark.parametrize("base", sorted(BASES))
def test_solvers_match_enumeration_on_derived_graphs(base, surgery):
    derived = SURGERIES[surgery](BASES[base]())
    # every edge of theta is non-suppressible; nothing else may come out empty
    assert derived or (base, surgery) == ("theta", "suppression")
    for g in derived:
        if max(g.degrees().values(), default=0) > 3:
            with pytest.raises(GraphError):
                three_edge_colorable(g)
        else:
            coloring = three_edge_colorable(g)
            assert (coloring is not None) == colorable_by_full_enumeration(g)
            if coloring is not None:
                assert coloring.graph is g and coloring.is_proper()
        for group in (Z4, KLEIN):
            flow = nowhere_zero_flow(g, group)
            assert (flow is not None) == flow_exists_by_enumeration(g, group.name)
            if flow is not None:
                assert flow.graph is g
                assert flow.is_nowhere_zero() and verify_kirchhoff(g, flow)
