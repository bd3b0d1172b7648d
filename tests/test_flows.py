from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snarkcrit import flows
from snarkcrit.coloring import three_edge_colorable
from snarkcrit.flows import nowhere_zero_flow, verify_kirchhoff
from snarkcrit.graph_io import flower_snark, petersen
from snarkcrit.multigraph import (
    DANGLING,
    CubicGraph,
    Edge,
    GraphError,
    VertexPair,
    build_graph,
    identify_vertices,
    remove_vertex_pair,
)
from oracles import flow_exists_by_enumeration
from strategies import multigraphs, random_cubic_graphs


class TestDecisions:
    def test_petersen_flowless(self, petersen_graph):
        assert nowhere_zero_flow(petersen_graph) is None

    def test_single_loop_vertex(self):
        g = build_graph(1, [(0, 0)])
        f = nowhere_zero_flow(g)
        assert f is not None
        assert f[0] == 1
        assert verify_kirchhoff(g, f)

    def test_dumbbell_flowless(self, dumbbell_graph):
        assert nowhere_zero_flow(dumbbell_graph) is None

    def test_k4_klein(self, k4):
        # the Z4 flow exists exactly when a Z2 x Z2 flow does
        f = nowhere_zero_flow(k4)
        assert f is not None and all(f.values())
        assert verify_kirchhoff(k4, f)
        assert flow_exists_by_enumeration(k4, "Z2xZ2")

    def test_empty_graph(self):
        assert nowhere_zero_flow(build_graph(0, [])) is not None

    def test_free_edge_component(self):
        g = build_graph(0, [(DANGLING, DANGLING)])
        f = nowhere_zero_flow(g)
        assert f == {0: 1}

    def test_backtracking_through_a_passed_check(self):
        # vertex 2's forced edge closes vertex 0, whose balance check passes
        # mid-schedule; the pendant edges at 1 then fail, and the search must
        # backtrack through that check instead of passing it again
        g = build_graph(5, [(0, 1), (0, 1), (0, 2), (0, 2), (1, 3), (1, 4)])
        assert nowhere_zero_flow(g) is None
        assert not flow_exists_by_enumeration(g, "Z2xZ2")

    def test_removal_graph_with_danglings(self, petersen_graph):
        cut = remove_vertex_pair(petersen_graph, VertexPair(3, 8))
        f = nowhere_zero_flow(cut)
        assert f is not None and all(f.values())
        assert verify_kirchhoff(cut, f)


class TestVerifyKirchhoff:
    # the theta graph's three edges all run from vertex 0 in slot a to 1

    def test_theta_balanced(self, theta_graph):
        assert verify_kirchhoff(theta_graph, {0: 1, 1: 1, 2: 2})

    def test_theta_unbalanced(self, theta_graph):
        assert not verify_kirchhoff(theta_graph, {0: 1, 1: 1, 2: 1})

    def test_missing_value_rejected(self, theta_graph):
        with pytest.raises(GraphError, match="does not cover edge 2"):
            verify_kirchhoff(theta_graph, {0: 1, 1: 1})

    def test_value_outside_z4_rejected(self, theta_graph):
        with pytest.raises(GraphError, match="outside Z4"):
            verify_kirchhoff(theta_graph, {0: 1, 1: 1, 2: 6})


class TestIdentificationFlows:
    def test_petersen_adjacent_matches_enumeration(self, petersen_graph):
        merged = identify_vertices(petersen_graph, VertexPair(0, 1))
        assert flow_exists_by_enumeration(merged, "Z4") is True
        f = nowhere_zero_flow(merged)
        assert f is not None and all(f.values())
        assert verify_kirchhoff(merged, f)

    def test_petersen_non_adjacent(self, petersen_graph):
        f = nowhere_zero_flow(identify_vertices(petersen_graph, VertexPair(0, 7)))
        assert f is not None

    def test_dumbbell_identification(self, dumbbell_graph):
        f = nowhere_zero_flow(identify_vertices(dumbbell_graph, VertexPair(0, 1)))
        assert f is not None  # loops only, all satisfiable


class TestProperties:
    def test_bridge_property_cubic(self, dumbbell_graph):
        # two triangles joined by one edge
        g = build_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                            (0, 3), (1, 2), (4, 5)])
        assert nowhere_zero_flow(g) is None
        assert nowhere_zero_flow(dumbbell_graph) is None
        assert not flow_exists_by_enumeration(g, "Z2xZ2")
        assert not flow_exists_by_enumeration(dumbbell_graph, "Z2xZ2")

    def test_orientation_independence(self, k4):
        # turning one edge around, with its value negated, keeps a flow
        f = nowhere_zero_flow(k4)
        for e in k4.edges:
            edges = tuple(Edge(x.id, x.b, x.a) if x is e else x for x in k4.edges)
            turned = CubicGraph(k4.vertices, edges)
            assert verify_kirchhoff(turned, {**f, e.id: -f[e.id] % 4})

    def test_dangling_sum_is_identity(self, petersen_graph):
        # a dangling edge's value leaves the graph when DANGLING is in its
        # slot b, and enters it when DANGLING is in slot a
        for pair in (VertexPair(0, 1), VertexPair(2, 9)):
            cut = remove_vertex_pair(petersen_graph, pair)
            f = nowhere_zero_flow(cut)
            assert f is not None
            assert flow_exists_by_enumeration(cut, "Z2xZ2")
            outflow = 0
            for e in cut.edges:
                if e.is_dangling:
                    x = f[e.id]
                    outflow += x if e.b is DANGLING else -x
            assert outflow % 4 == 0

    def test_flower_refutation_search_steps(self):
        # the closing order refutes J9 in Z4 in 79,541 steps, the earlier
        # DFS-tree order in 340,261; the bound catches a lost order
        # without timing anything
        before = flows.search_steps
        assert nowhere_zero_flow(flower_snark(9)) is None
        assert flows.search_steps - before < 170_000

    def test_coloring_flow_agreement_on_cubic(self):
        for g in random_cubic_graphs(25, (4, 6, 8, 10), seed=11):
            colorable = three_edge_colorable(g) is not None
            assert colorable == (nowhere_zero_flow(g) is not None)


@given(multigraphs(max_vertices=6, max_edges=9, degree_cap=6))
@settings(max_examples=100, deadline=None)
def test_tutte_equivalence_small(g):
    z4 = nowhere_zero_flow(g) is not None
    assert z4 == flow_exists_by_enumeration(g, "Z2xZ2")


@given(multigraphs(max_vertices=6, max_edges=8, degree_cap=6))
@settings(max_examples=80, deadline=None)
def test_solver_agrees_with_enumeration(g):
    assert (nowhere_zero_flow(g) is not None) == flow_exists_by_enumeration(g, "Z4")


# ids 0-11 cover edges that get no hint and ids that are not in the graph
@given(
    multigraphs(max_vertices=6, max_edges=8, degree_cap=6),
    st.dictionaries(st.integers(0, 11), st.integers(0, 3)),
)
@settings(max_examples=80, deadline=None)
def test_hinted_solver_agrees_with_enumeration(g, hint):
    f = nowhere_zero_flow(g, hint=hint)
    assert (f is not None) == flow_exists_by_enumeration(g, "Z4")
    if f is not None:
        assert all(f.values())
        assert verify_kirchhoff(g, f)


@given(multigraphs(max_vertices=7, max_edges=10, degree_cap=6))
@settings(max_examples=80, deadline=None)
def test_witnesses_are_valid(g):
    f = nowhere_zero_flow(g)
    if f is not None:
        assert all(f.values())
        assert verify_kirchhoff(g, f)


@pytest.mark.parametrize("graph", [petersen(), flower_snark(5)], ids=["petersen", "flower5"])
def test_removal_flows_read_on_the_parent(graph):
    """A removal flow's values, read on the parent's edges with no sign change.

    They balance at every vertex but the pair's two, whose net outflows are
    t and -t.  On a snark t is nonzero exactly when the pair is not
    adjacent: a nonzero t would otherwise extend, through the joining
    edge, to a nowhere-zero flow of the parent, and a zero t for a
    non-adjacent pair would extend as it stands.  The witness walk starts
    from this reading.
    """
    for u, v in combinations(sorted(graph.vertices), 2):
        f = nowhere_zero_flow(remove_vertex_pair(graph, VertexPair(u, v)))
        assert f is not None
        net = dict.fromkeys(graph.vertices, 0)
        for eid, a, b in graph.edges:
            if eid in f:
                net[a] += f[eid]
                net[b] -= f[eid]
        assert all(net[w] % 4 == 0 for w in graph.vertices if w not in (u, v))
        assert (net[u] + net[v]) % 4 == 0
        assert (net[u] % 4 != 0) == (not graph.connecting_edges(u, v))
