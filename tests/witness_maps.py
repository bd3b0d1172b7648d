"""Maps between witnesses that the tests use to check the solvers' outputs.

Each takes a valid witness to another valid witness: a coloring to the
Klein flow it already is, a coloring to its image under a permutation of
the colors, a flow to the same flow with one edge turned around.
"""

from __future__ import annotations

from snarkcrit.coloring import EdgeColoring, KleinColor
from snarkcrit.flows import KLEIN, FlowAssignment
from snarkcrit.multigraph import GraphError


def coloring_as_flow(coloring: EdgeColoring) -> FlowAssignment:
    """Reinterpret a proper coloring as a Z2 x Z2 flow on the same graph.

    The edge values are unchanged; orientation is immaterial because every
    Klein element is self-inverse.  Conservation holds at every vertex of
    degree three (the three distinct nonzero elements XOR to zero); at
    vertices of lower degree it generally does not.
    """
    orientation = {e.id: e.b for e in coloring.graph.edges if e.id in coloring.assignment}
    values = {eid: int(c) for eid, c in coloring.assignment.items()}
    return FlowAssignment(coloring.graph, KLEIN, orientation, values)


def permuted(coloring: EdgeColoring, mapping: dict[int, int]) -> EdgeColoring:
    """Apply a permutation of the three colors."""
    if sorted(mapping) != [1, 2, 3] or sorted(mapping.values()) != [1, 2, 3]:
        raise GraphError("mapping must permute the colors 1, 2, 3")
    return EdgeColoring(
        coloring.graph,
        {eid: KleinColor(mapping[int(c)]) for eid, c in coloring.assignment.items()},
    )


def with_edge_reversed(flow: FlowAssignment, edge_id: int) -> FlowAssignment:
    """Flip one edge's orientation and negate its value."""
    e = flow.graph.edge(edge_id)
    head = flow.orientation[edge_id]
    orientation = dict(flow.orientation)
    orientation[edge_id] = e.a if head == e.b else e.b
    values = dict(flow.values)
    values[edge_id] = flow.group.neg(values[edge_id])
    return FlowAssignment(flow.graph, flow.group, orientation, values)
