"""Maps and checks on witnesses that the tests use to check the solvers' outputs.

A coloring's colors must XOR to zero at each vertex of degree three, the
Klein flow it already is; a permutation of the colors takes a coloring to
a coloring, and turning one edge around, with its value negated, takes a
flow to a flow.
"""

from __future__ import annotations

from snarkcrit.coloring import EdgeColoring, KleinColor
from snarkcrit.flows import FlowAssignment
from snarkcrit.multigraph import DANGLING, CubicGraph, Edge, GraphError


def colors_cancel_at_cubic_vertices(coloring: EdgeColoring) -> bool:
    """True iff the colors at every vertex of degree three XOR to zero.

    The three distinct nonzero elements of Z2 x Z2 sum to zero, so a proper
    coloring is a Z2 x Z2 flow wherever a vertex has degree three; at
    vertices of lower degree the sum generally does not vanish.
    """
    graph = coloring.graph
    degrees = graph.degrees()
    sums = dict.fromkeys(graph.vertices, 0)
    for eid, a, b in graph.edges:
        for x in (a, b):
            if x is not DANGLING:
                sums[x] ^= int(coloring.assignment[eid])
    return all(not sums[v] for v, d in degrees.items() if d == 3)


def permuted(coloring: EdgeColoring, mapping: dict[int, int]) -> EdgeColoring:
    """Apply a permutation of the three colors."""
    if sorted(mapping) != [1, 2, 3] or sorted(mapping.values()) != [1, 2, 3]:
        raise GraphError("mapping must permute the colors 1, 2, 3")
    return EdgeColoring(
        coloring.graph,
        {eid: KleinColor(mapping[int(c)]) for eid, c in coloring.assignment.items()},
    )


def with_edge_reversed(flow: FlowAssignment, edge_id: int) -> FlowAssignment:
    """Swap one edge's slots in a rebuilt graph and negate its value."""
    graph = flow.graph
    edges = tuple(Edge(e.id, e.b, e.a) if e.id == edge_id else e for e in graph.edges)
    values = dict(flow.values)
    values[edge_id] = -values[edge_id] % 4
    return FlowAssignment(CubicGraph(graph.vertices, edges), values)
