from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snarkcrit import flows
from snarkcrit.coloring import three_edge_colorable
from snarkcrit.flows import (
    KLEIN,
    Z4,
    FlowAssignment,
    flow_on_identification,
    nowhere_zero_flow,
    verify_kirchhoff,
)
from snarkcrit.graph_io import flower_snark
from snarkcrit.multigraph import (
    DANGLING,
    GraphError,
    VertexPair,
    build_graph,
    remove_vertex_pair,
)
from oracles import flow_exists_by_enumeration
from strategies import multigraphs, random_cubic_graphs
from witness_maps import with_edge_reversed


class TestGroups:
    def test_z4_tables(self):
        assert Z4.add(3, 2) == 1
        assert Z4.neg(1) == 3
        assert Z4.nonzero() == (1, 2, 3)

    def test_klein_tables(self):
        assert KLEIN.add(1, 2) == 3
        assert KLEIN.neg(2) == 2
        assert all(KLEIN.add(x, x) == 0 for x in range(4))


class TestDecisions:
    def test_petersen_flowless(self, petersen_graph):
        assert nowhere_zero_flow(petersen_graph, Z4) is None
        assert nowhere_zero_flow(petersen_graph, KLEIN) is None

    def test_single_loop_vertex(self):
        g = build_graph(1, [(0, 0)])
        f = nowhere_zero_flow(g, Z4)
        assert f is not None
        assert f.values[0] == 1
        assert verify_kirchhoff(g, f)

    def test_dumbbell_flowless(self, dumbbell_graph):
        assert nowhere_zero_flow(dumbbell_graph, Z4) is None
        assert nowhere_zero_flow(dumbbell_graph, KLEIN) is None

    def test_k4_klein(self, k4):
        f = nowhere_zero_flow(k4, KLEIN)
        assert f is not None and f.is_nowhere_zero()
        assert verify_kirchhoff(k4, f)

    def test_empty_graph(self):
        assert nowhere_zero_flow(build_graph(0, []), Z4) is not None

    def test_free_edge_component(self):
        g = build_graph(0, [(DANGLING, DANGLING)])
        f = nowhere_zero_flow(g, Z4)
        assert f is not None and f.values[0] == 1

    def test_backtracking_through_a_passed_check(self):
        # vertex 2's forced edge closes vertex 0, whose balance check passes
        # mid-schedule; the pendant edges at 1 then fail, and the search must
        # backtrack through that check instead of passing it again
        g = build_graph(5, [(0, 1), (0, 1), (0, 2), (0, 2), (1, 3), (1, 4)])
        assert nowhere_zero_flow(g, Z4) is None
        assert nowhere_zero_flow(g, KLEIN) is None

    def test_removal_graph_with_danglings(self, petersen_graph):
        cut = remove_vertex_pair(petersen_graph, VertexPair(3, 8))
        f = nowhere_zero_flow(cut, Z4)
        assert f is not None and f.is_nowhere_zero()
        assert verify_kirchhoff(cut, f)


class TestVerifyKirchhoff:
    def test_theta_balanced(self, theta_graph):
        f = FlowAssignment(
            theta_graph, Z4, {0: 1, 1: 1, 2: 1}, {0: 1, 1: 1, 2: 2}
        )
        assert verify_kirchhoff(theta_graph, f)

    def test_theta_unbalanced(self, theta_graph):
        f = FlowAssignment(
            theta_graph, Z4, {0: 1, 1: 1, 2: 1}, {0: 1, 1: 1, 2: 1}
        )
        assert not verify_kirchhoff(theta_graph, f)

    def test_missing_value_rejected(self, theta_graph):
        f = FlowAssignment(theta_graph, Z4, {0: 1, 1: 1, 2: 1}, {0: 1, 1: 1})
        with pytest.raises(GraphError):
            verify_kirchhoff(theta_graph, f)

    def test_bad_head_rejected(self, theta_graph):
        f = FlowAssignment(theta_graph, Z4, {0: 7, 1: 1, 2: 1}, {0: 1, 1: 1, 2: 2})
        with pytest.raises(GraphError):
            verify_kirchhoff(theta_graph, f)


class TestIdentificationFlows:
    def test_petersen_adjacent_matches_enumeration(self, petersen_graph):
        from snarkcrit.multigraph import identify_vertices

        merged = identify_vertices(petersen_graph, VertexPair(0, 1))
        assert flow_exists_by_enumeration(merged, "Z4") is True
        f = flow_on_identification(petersen_graph, VertexPair(0, 1), Z4)
        assert f is not None and f.is_nowhere_zero()
        assert verify_kirchhoff(f.graph, f)

    def test_petersen_non_adjacent(self, petersen_graph):
        f = flow_on_identification(petersen_graph, VertexPair(0, 7), Z4)
        assert f is not None

    def test_dumbbell_identification(self, dumbbell_graph):
        f = flow_on_identification(dumbbell_graph, VertexPair(0, 1), Z4)
        assert f is not None  # loops only, all satisfiable


class TestProperties:
    def test_bridge_property_cubic(self, dumbbell_graph):
        # two triangles joined by one edge
        g = build_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                            (0, 3), (1, 2), (4, 5)])
        for group in (Z4, KLEIN):
            assert nowhere_zero_flow(g, group) is None
            assert nowhere_zero_flow(dumbbell_graph, group) is None

    def test_orientation_independence(self, k4):
        f = nowhere_zero_flow(k4, Z4)
        for e in k4.edges:
            assert verify_kirchhoff(k4, with_edge_reversed(f, e.id))

    def test_dangling_sum_is_identity(self, petersen_graph):
        for pair in (VertexPair(0, 1), VertexPair(2, 9)):
            cut = remove_vertex_pair(petersen_graph, pair)
            for group in (Z4, KLEIN):
                f = nowhere_zero_flow(cut, group)
                assert f is not None
                acc = 0
                for e in cut.edges:
                    if e.is_dangling:
                        assert f.orientation[e.id] is DANGLING  # outward
                        acc = group.add(acc, f.values[e.id])
                assert acc == 0

    def test_flower_refutation_search_steps(self):
        # the closing order refutes J9 in Z4 in 79,541 steps, the earlier
        # DFS-tree order in 340,261; the bound catches a lost order
        # without timing anything
        before = flows.search_steps
        assert nowhere_zero_flow(flower_snark(9), Z4) is None
        assert flows.search_steps - before < 170_000

    def test_coloring_flow_agreement_on_cubic(self):
        for g in random_cubic_graphs(25, (4, 6, 8, 10), seed=11):
            colorable = three_edge_colorable(g) is not None
            klein = nowhere_zero_flow(g, KLEIN) is not None
            assert colorable == klein


@given(multigraphs(max_vertices=6, max_edges=9, degree_cap=6))
@settings(max_examples=100, deadline=None)
def test_tutte_equivalence_small(g):
    z4 = nowhere_zero_flow(g, Z4) is not None
    klein = nowhere_zero_flow(g, KLEIN) is not None
    assert z4 == klein


@given(multigraphs(max_vertices=6, max_edges=8, degree_cap=6))
@settings(max_examples=80, deadline=None)
def test_solver_agrees_with_enumeration(g):
    assert (nowhere_zero_flow(g, Z4) is not None) == flow_exists_by_enumeration(g, "Z4")
    assert (nowhere_zero_flow(g, KLEIN) is not None) == flow_exists_by_enumeration(
        g, "Z2xZ2"
    )


# ids 0-11 cover edges that get no hint and ids that are not in the graph
@given(
    multigraphs(max_vertices=6, max_edges=8, degree_cap=6),
    st.dictionaries(st.integers(0, 11), st.integers(0, 3)),
)
@settings(max_examples=80, deadline=None)
def test_hinted_solver_agrees_with_enumeration(g, hint):
    for group in (Z4, KLEIN):
        f = nowhere_zero_flow(g, group, hint=hint)
        assert (f is not None) == flow_exists_by_enumeration(g, group.name)
        if f is not None:
            assert f.is_nowhere_zero()
            assert verify_kirchhoff(g, f)


@given(multigraphs(max_vertices=7, max_edges=10, degree_cap=6))
@settings(max_examples=80, deadline=None)
def test_witnesses_are_valid(g):
    for group in (Z4, KLEIN):
        f = nowhere_zero_flow(g, group)
        if f is not None:
            assert f.is_nowhere_zero()
            assert verify_kirchhoff(g, f)
