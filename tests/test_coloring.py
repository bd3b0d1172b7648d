from __future__ import annotations

from itertools import permutations

import pytest
from hypothesis import given, settings

from snarkcrit.coloring import KleinColor, three_edge_colorable
from snarkcrit.flows import verify_kirchhoff
from snarkcrit.graph_io import flower_snark
from snarkcrit.multigraph import DANGLING, GraphError, VertexPair, build_graph, remove_vertex_pair
from oracles import colorable_by_backtracking, colorable_by_full_enumeration
from strategies import multigraphs, random_cubic_graphs
from witness_maps import coloring_as_flow, permuted


class TestDecisions:
    def test_petersen_uncolorable(self, petersen_graph):
        assert three_edge_colorable(petersen_graph) is None
        assert three_edge_colorable(petersen_graph) is None

    def test_k4_colorable(self, k4):
        c = three_edge_colorable(k4)
        assert c is not None and c.is_proper()
        # three perfect matchings: each color covers every vertex once
        for color in (1, 2, 3):
            covered = [
                v
                for e in k4.edges
                if c.assignment[e.id] == color
                for v in e.real_endpoints()
            ]
            assert sorted(covered) == [0, 1, 2, 3]
        assert three_edge_colorable(k4) is not None

    def test_flower5_uncolorable_matches_backtracking_oracle(self):
        j5 = flower_snark(5)
        assert colorable_by_backtracking(j5) is False
        assert three_edge_colorable(j5) is None

    def test_petersen_minus_adjacent_pair_colorable(self, petersen_graph):
        for pair in (VertexPair(0, 1), VertexPair(4, 9)):
            cut = remove_vertex_pair(petersen_graph, pair)
            assert colorable_by_backtracking(cut) is True
            c = three_edge_colorable(cut)
            assert c is not None and c.is_proper()

    def test_theta_colorable(self, theta_graph):
        c = three_edge_colorable(theta_graph)
        assert c is not None
        assert sorted(c.assignment.values()) == [1, 2, 3]
        assert three_edge_colorable(theta_graph) is not None

    def test_loops_uncolorable(self, dumbbell_graph):
        assert three_edge_colorable(dumbbell_graph) is None
        isolated_loop = build_graph(1, [(0, 0)])
        assert three_edge_colorable(isolated_loop) is None

    def test_degree_above_three_rejected(self):
        g = build_graph(2, [(0, 1)] * 4)
        with pytest.raises(GraphError):
            three_edge_colorable(g)

    def test_empty_graph_colorable(self):
        c = three_edge_colorable(build_graph(0, []))
        assert c is not None and c.assignment == {}

    def test_free_edge_colored(self):
        g = build_graph(2, [(0, 1), (0, DANGLING), (DANGLING, DANGLING)])
        c = three_edge_colorable(g)
        assert c is not None
        assert set(c.assignment) == {0, 1, 2}

    def test_components_solved_independently(self, k4):
        two_k4 = build_graph(
            8,
            [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
             (4, 5), (4, 6), (4, 7), (5, 6), (5, 7), (6, 7)],
        )
        c = three_edge_colorable(two_k4)
        assert c is not None and c.is_proper()


class TestColoringAsFlow:
    def test_k4(self, k4):
        c = three_edge_colorable(k4)
        f = coloring_as_flow(c)
        assert f.group.name == "Z2xZ2"
        assert verify_kirchhoff(k4, f)
        assert f.is_nowhere_zero()

    def test_theta(self, theta_graph):
        f = coloring_as_flow(three_edge_colorable(theta_graph))
        assert verify_kirchhoff(theta_graph, f)

    def test_petersen_minus_pair_dangling_values_cancel(self, petersen_graph):
        cut = remove_vertex_pair(petersen_graph, VertexPair(0, 1))
        f = coloring_as_flow(three_edge_colorable(cut))
        assert verify_kirchhoff(cut, f)
        acc = 0
        for e in cut.edges:
            if e.is_dangling:
                acc ^= f.values[e.id]
        assert acc == 0


class TestProperties:
    def test_color_permutation_closure(self, petersen_graph):
        cut = remove_vertex_pair(petersen_graph, VertexPair(2, 7))
        c = three_edge_colorable(cut)
        assert c is not None
        for perm in permutations((1, 2, 3)):
            mapping = {1: perm[0], 2: perm[1], 3: perm[2]}
            assert permuted(c, mapping).is_proper()

    def test_returned_colorings_sum_to_zero_at_cubic_vertices(self):
        for g in random_cubic_graphs(10, (6, 8, 10), seed=20):
            c = three_edge_colorable(g)
            if c is None:
                continue
            for v in g.vertices:
                acc = 0
                for e in g.incident_edges(v):
                    acc ^= c.assignment[e.id]
                assert acc == 0

    def test_klein_colors(self):
        assert KleinColor.C01 ^ KleinColor.C10 == KleinColor.C11
        assert KleinColor.C01 ^ KleinColor.C10 ^ KleinColor.C11 == 0

    def test_forced_equal_colors_rejected(self):
        # a doubled edge forces both third edges onto the same color, and
        # they meet at a shared vertex; solver and enumerator must agree
        g = build_graph(4, [(0, 1), (0, 1), (0, 2), (1, 2), (2, 3)])
        assert three_edge_colorable(g) is None
        assert colorable_by_full_enumeration(g) is False
        # relieving the collision restores colorability
        h = build_graph(5, [(0, 1), (0, 1), (0, 2), (1, 3), (2, 4), (3, 4)])
        assert three_edge_colorable(h) is not None
        assert colorable_by_full_enumeration(h) is True


@given(multigraphs(max_vertices=7, max_edges=10))
@settings(max_examples=120, deadline=None)
def test_solver_agrees_with_full_enumeration(g):
    assert (three_edge_colorable(g) is not None) == colorable_by_full_enumeration(g)


@given(multigraphs(max_vertices=8, max_edges=12, allow_dangling=False))
@settings(max_examples=80, deadline=None)
def test_solver_agrees_with_backtracking_oracle(g):
    assert (three_edge_colorable(g) is not None) == colorable_by_backtracking(g)


def test_solver_agrees_on_random_cubic_graphs():
    # connected cubic instances with up to 14 edges or a little beyond
    for g in random_cubic_graphs(40, (4, 6, 8), seed=7):
        smart = three_edge_colorable(g)
        assert (smart is not None) == colorable_by_full_enumeration(g)
        if smart is not None:
            assert smart.is_proper()
