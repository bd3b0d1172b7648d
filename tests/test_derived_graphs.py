"""Both solvers against the brute-force oracles on every local surgery.

The classifiers call the solvers almost only on derived graphs: vertex-pair
removals (dangling edges), identifications (a degree-6 vertex, loops from
joining edges), edge deletions (degree-2 vertices), contractions (a
degree-4 vertex) and suppressions (parallel edges, loops).  Every such
graph of a few small cubic graphs is checked here, witnesses included,
with hints and with its edges shuffled: a hint or an edge order only
reorders the tries, so it never changes a verdict.  A whole flow given as
the hint comes back as it is, since the one value the first decided edge
of a component tries is its hinted one.
"""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from snarkcrit.coloring import is_proper_coloring, three_edge_colorable
from snarkcrit.flows import nowhere_zero_flow, verify_kirchhoff
from snarkcrit.graph_io import complete4, petersen, theta
from snarkcrit.multigraph import (
    CubicGraph,
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
        if max(map(g.degree, g.vertices), default=0) > 3:
            with pytest.raises(GraphError):
                three_edge_colorable(g)
        else:
            coloring = three_edge_colorable(g)
            assert (coloring is not None) == colorable_by_full_enumeration(g)
            if coloring is not None:
                assert is_proper_coloring(g, coloring)
        flow = nowhere_zero_flow(g)
        assert (flow is not None) == flow_exists_by_enumeration(g, "Z4")
        assert (flow is not None) == flow_exists_by_enumeration(g, "Z2xZ2")
        if flow is not None:
            assert all(flow.values()) and verify_kirchhoff(g, flow)


def _check_coloring(g, coloring):
    if coloring is not None:
        assert is_proper_coloring(g, coloring)
    return coloring is not None


def _check_flow(g, flow):
    if flow is not None:
        assert all(flow.values()) and verify_kirchhoff(g, flow)
    return flow is not None


@pytest.mark.parametrize("surgery", sorted(SURGERIES))
@pytest.mark.parametrize("base", sorted(BASES))
def test_hints_never_change_a_verdict(base, surgery):
    # hints as the decision table gives them, from the sibling decided
    # last, and arbitrary ones
    rng = random.Random(f"{base}-{surgery}")
    sibling_coloring: dict = {}
    sibling_flow: dict = {}
    for g in SURGERIES[surgery](BASES[base]()):
        ids = [e.id for e in g.edges] + [max((e.id for e in g.edges), default=0) + 1]
        random_hint = {eid: rng.randint(1, 3) for eid in ids}
        if max(map(g.degree, g.vertices), default=0) <= 3:
            colorings = [
                three_edge_colorable(g, hint=hint)
                for hint in (None, sibling_coloring, random_hint)
            ]
            assert len({_check_coloring(g, c) for c in colorings}) == 1
            if colorings[1] is not None:
                sibling_coloring = colorings[1]
        flows = [
            nowhere_zero_flow(g, hint=hint) for hint in (None, sibling_flow, random_hint)
        ]
        assert len({_check_flow(g, f) for f in flows}) == 1
        if flows[1] is not None:
            sibling_flow = flows[1]


@pytest.mark.parametrize("surgery", sorted(SURGERIES))
@pytest.mark.parametrize("base", sorted(BASES))
def test_edge_order_never_changes_a_verdict(base, surgery):
    # the solvers take their try order from the order of graph.edges, which
    # surgery keeps in id order; any other order must give the same verdicts
    rng = random.Random(f"{base}-{surgery}")
    for g in SURGERIES[surgery](BASES[base]()):
        edges = list(g.edges)
        rng.shuffle(edges)
        shuffled = CubicGraph(g.vertices, tuple(edges))
        if max(map(g.degree, g.vertices), default=0) <= 3:
            assert _check_coloring(shuffled, three_edge_colorable(shuffled)) == (
                three_edge_colorable(g) is not None
            )
        assert _check_flow(shuffled, nowhere_zero_flow(shuffled)) == (
            nowhere_zero_flow(g) is not None
        )


# maps of the nonzero values that take every flow to a flow: identity, negation
_IMAGES = ({1: 1, 2: 2, 3: 3}, {1: 3, 2: 2, 3: 1})


@pytest.mark.parametrize("surgery", sorted(SURGERIES))
@pytest.mark.parametrize("base", sorted(BASES))
def test_a_flow_given_as_hint_comes_back(base, surgery):
    # the first decided edge of a component tries only its hinted value, so
    # a whole flow given as the hint is found as it is, whatever value it
    # gives that edge: 3 included, which the unhinted search never
    # puts there
    for g in SURGERIES[surgery](BASES[base]()):
        searched = {e.id for e in g.edges if e.a != e.b}  # no loops, no free edges
        flow = nowhere_zero_flow(g)
        if flow is None:
            continue
        for image in _IMAGES:
            hint = {eid: image[x] for eid, x in flow.items()}
            found = nowhere_zero_flow(g, hint=hint)
            assert _check_flow(g, found)
            assert {e: found[e] for e in searched} == {e: hint[e] for e in searched}
