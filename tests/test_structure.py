from __future__ import annotations

import math
from itertools import combinations

import pytest
from hypothesis import given, settings

from snarkcrit import structure
from snarkcrit.graph_io import blanusa, flower_snark, read_graph6_file
from snarkcrit.multigraph import (
    GraphError,
    VertexPair,
    build_graph,
    delete_edge,
    expand_triangle,
    remove_vertex_pair,
)
from snarkcrit.structure import (
    chordless_cycles,
    cyclic_edge_connectivity,
    find_bridges,
    girth,
    structure_profile,
)
from oracles import (
    bridges_by_removal,
    cyclic_connectivity_by_cycle_pairs,
    cyclic_cut_by_subset_enumeration,
    girth_by_cycle_enumeration,
)
from strategies import multigraphs, random_cubic_graphs, random_cubic_multigraphs


class TestGirth:
    def test_dumbbell(self, dumbbell_graph):
        assert girth(dumbbell_graph) == 1

    def test_theta(self, theta_graph):
        assert girth(theta_graph) == 2

    def test_k4(self, k4):
        assert girth(k4) == 3

    def test_petersen_matches_oracle(self, petersen_graph):
        assert girth_by_cycle_enumeration(petersen_graph) == 5
        assert girth(petersen_graph) == 5

    def test_forest(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        assert girth(g) == math.inf

    def test_flower7(self):
        assert girth(flower_snark(7)) == 6


class TestBridges:
    def test_dumbbell(self, dumbbell_graph):
        bridge = next(e.id for e in dumbbell_graph.edges if not e.is_loop)
        assert find_bridges(dumbbell_graph) == (bridge,)

    def test_petersen(self, petersen_graph):
        assert find_bridges(petersen_graph) == ()

    def test_two_triangles_joined(self):
        g = build_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)])
        assert find_bridges(g) == (6,)

    def test_parallel_edges_not_bridges(self, theta_graph):
        assert find_bridges(theta_graph) == ()


class TestCyclicEdgeConnectivity:
    def test_dumbbell(self, dumbbell_graph):
        assert cyclic_edge_connectivity(dumbbell_graph) == 1

    def test_petersen_matches_oracle(self, petersen_graph):
        assert cyclic_cut_by_subset_enumeration(petersen_graph, 5) == 5
        assert cyclic_edge_connectivity(petersen_graph) == 5

    def test_triangle_expansion_drops_to_three(self, petersen_graph):
        expanded = expand_triangle(petersen_graph, 0)
        assert cyclic_cut_by_subset_enumeration(expanded, 4) == 3
        assert cyclic_edge_connectivity(expanded) == 3

    def test_undefined_for_k4_and_theta(self, k4, theta_graph):
        assert cyclic_edge_connectivity(k4) is None
        assert cyclic_edge_connectivity(theta_graph) is None
        assert cyclic_cut_by_subset_enumeration(k4) is None
        assert cyclic_cut_by_subset_enumeration(theta_graph) is None

    def test_k33_undefined(self):
        g = build_graph(6, [(i, j) for i in (0, 1, 2) for j in (3, 4, 5)])
        assert cyclic_edge_connectivity(g) is None

    def test_prism(self):
        prism = build_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                                (0, 3), (1, 4), (2, 5)])
        assert cyclic_cut_by_subset_enumeration(prism, 3) == 3
        assert cyclic_edge_connectivity(prism) == 3

    def test_blanusa_both_four(self):
        assert cyclic_edge_connectivity(blanusa(1)) == 4
        assert cyclic_edge_connectivity(blanusa(2)) == 4

    def test_non_cubic_refused(self):
        path = build_graph(3, [(0, 1), (1, 2)])
        with pytest.raises(GraphError):
            cyclic_edge_connectivity(path)

    def test_disconnected_refused(self):
        g = build_graph(4, [(0, 1), (0, 1), (0, 1), (2, 3), (2, 3), (2, 3)])
        with pytest.raises(GraphError):
            cyclic_edge_connectivity(g)

    def test_matches_subset_oracle_on_random_cubic(self):
        for g in random_cubic_graphs(12, (6, 8, 10), seed=3):
            expected = cyclic_cut_by_subset_enumeration(g, 6)
            got = cyclic_edge_connectivity(g)
            if expected is None:
                assert got is None or got > 6
            else:
                assert got == expected

    def test_at_most_girth_when_defined(self):
        for g in random_cubic_graphs(15, (8, 10, 12), seed=4):
            value = cyclic_edge_connectivity(g)
            if value is not None:
                assert value <= girth(g)

    def test_at_most_girth_on_corpus(self, corpus_path):
        from snarkcrit.graph_io import read_graph6_file

        for entry in read_graph6_file(corpus_path):
            value = cyclic_edge_connectivity(entry.graph)
            assert value is not None
            assert value <= girth(entry.graph)

    def test_corpus_lower_bounds_by_matching_enumeration(self, corpus_path):
        # a third route: minimum cyclic cuts of cubic graphs are matchings,
        # so no cut below the claimed value may exist among matchings
        from snarkcrit.graph_io import read_graph6_file
        from oracles import no_smaller_cyclic_matching_cut

        for entry in read_graph6_file(corpus_path):
            claimed = cyclic_edge_connectivity(entry.graph)
            assert no_smaller_cyclic_matching_cut(entry.graph, claimed)

    def test_digon_snark_structure(self, petersen_graph):
        from snarkcrit.multigraph import build_graph as bg

        digon = bg(
            12,
            [(e.a, e.b) for e in petersen_graph.edges if e.id != 0]
            + [(0, 10), (10, 11), (10, 11), (11, 1)],
        )
        assert girth(digon) == 2
        # the two edges entering the digon separate it from the rest
        assert cyclic_edge_connectivity(digon) == 2


class TestCyclicConnectivityMatchesCyclePairs:
    """The bracketed computation against the plain all-pairs search."""

    def test_random_simple_cubic(self):
        for order in range(4, 18, 2):
            for g in random_cubic_graphs(20, (order,), seed=order):
                assert cyclic_edge_connectivity(g) == cyclic_connectivity_by_cycle_pairs(g)

    def test_random_multigraphs_with_loops_and_digons(self):
        graphs = random_cubic_multigraphs(300, (2, 4, 6, 8, 10, 12), seed=5)
        assert any(e.is_loop for g in graphs for e in g.edges)
        assert any(girth(g) == 2 for g in graphs)
        for g in graphs:
            assert cyclic_edge_connectivity(g) == cyclic_connectivity_by_cycle_pairs(g)

    def test_named_graphs(self, k4, theta_graph, dumbbell_graph, petersen_graph):
        digon = build_graph(
            12,
            [(e.a, e.b) for e in petersen_graph.edges if e.id != 0]
            + [(0, 10), (10, 11), (10, 11), (11, 1)],
        )
        named = [k4, theta_graph, dumbbell_graph, petersen_graph, blanusa(1),
                 blanusa(2), digon]
        values = [cyclic_edge_connectivity(g) for g in named]
        assert values == [cyclic_connectivity_by_cycle_pairs(g) for g in named]
        assert values == [None, None, 1, 5, 4, 4, 2]


def _cube() -> list[tuple[int, int]]:
    """Edges of the 3-cube Q3 on vertices 0..7: differ in one bit."""
    return [(v, v ^ bit) for v in range(8) for bit in (1, 2, 4) if v < v ^ bit]


def _prism():
    return build_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                           (0, 3), (1, 4), (2, 5)])


def _joined_cubes():
    """Two copies of Q3 minus vertex 7, joined at their degree-2 vertices 3, 5, 6."""
    half = [(a, b) for a, b in _cube() if 7 not in (a, b)]
    edges = half + [(a + 7, b + 7) for a, b in half] + [(v, v + 7) for v in (3, 5, 6)]
    return build_graph(14, edges)


def _lcf(order: int, jumps: list[int]) -> list[tuple[int, int]]:
    """Edges of the cubic graph with LCF notation ``jumps``, repeated around the order."""
    edges = [(v, (v + 1) % order) for v in range(order)]
    edges += [(v, (v + jumps[v % len(jumps)]) % order) for v in range(order)]
    return sorted({(min(e), max(e)) for e in edges})


def _heawood():
    return build_graph(14, _lcf(14, [5, -5]))  # girth 6


def _mcgee():
    return build_graph(24, _lcf(24, [12, 7, -7]))  # girth 7


def _tutte_coxeter():
    return build_graph(30, _lcf(30, [-13, -9, 7, -7, 9, 13]))  # girth 8


def _joined_heawoods():
    """Two Heawood graphs minus the path 0-1-2, joined at their five loose ends."""
    edges = _lcf(14, [5, -5])
    half = [(a - 3, b - 3) for a, b in edges if a >= 3]
    ends = [b - 3 for a, b in edges if a < 3 <= b]
    edges = half + [(a + 11, b + 11) for a, b in half] + [(v, v + 11) for v in ends]
    return build_graph(22, edges)


@pytest.fixture
def branch_of(monkeypatch):
    """Names the branch of ``cyclic_edge_connectivity`` that settles a graph."""
    seen: list[str] = []

    def spy(name: str, settles):
        real = getattr(structure, name)

        def wrapper(*args):
            result = real(*args)
            if settles(result):
                seen.append(name)
            return result

        monkeypatch.setattr(structure, name, wrapper)

    spy("_smallest_label_cut", lambda value: value is not None)
    spy("chordless_cycles", bool)

    def branch(graph) -> tuple[str, object]:
        seen.clear()
        value = cyclic_edge_connectivity(graph)
        if "chordless_cycles" in seen:
            return "pair search", value
        if seen:
            return seen[-1], value
        return "lambda", value

    return branch


class TestCyclicConnectivityBranches:
    """Each way the bracket settles a graph, against the cycle-pair oracle."""

    def test_larger_random_simple_cubic(self):
        for order in range(18, 26, 2):
            for g in random_cubic_graphs(20, (order,), seed=order):
                assert cyclic_edge_connectivity(g) == cyclic_connectivity_by_cycle_pairs(g)

    def test_every_branch_is_taken(self, branch_of, petersen_graph):
        graphs = random_cubic_graphs(40, (10, 12, 14, 16), seed=8)
        graphs += random_cubic_multigraphs(40, (6, 8, 10), seed=9)
        graphs += [petersen_graph, blanusa(1)]  # girth 5: cyclic connectivity 5 and 4
        taken = {}
        by_labels = set()  # (girth, value) of the graphs the label rule settles
        for g in graphs:
            branch, value = branch_of(g)
            taken.setdefault(branch, set()).add(value)
            if branch == "_smallest_label_cut":
                by_labels.add((girth(g), value))
            assert value == cyclic_connectivity_by_cycle_pairs(g)
        assert taken["lambda"] <= {1, 2} and taken["lambda"]
        assert taken["_smallest_label_cut"] == {3, 4}
        assert {(3, 3), (4, 3)} <= by_labels  # a cyclic 3-cut with and without a triangle
        assert (4, 4) in by_labels  # the edges leaving a 4-cycle
        assert (5, 4) in by_labels  # Blanusa 1
        assert 5 in taken["pair search"]  # Petersen

    def test_boundary_cases(self, branch_of, k4, theta_graph):
        k33 = build_graph(6, [(i, j) for i in (0, 1, 2) for j in (3, 4, 5)])
        cases = [
            (k4, "pair search", None),
            (theta_graph, "pair search", None),
            (k33, "pair search", None),  # order 6, girth 4
            (_prism(), "_smallest_label_cut", 3),  # the cut around a triangle
            (build_graph(8, _cube()), "_smallest_label_cut", 4),  # around a 4-cycle
            (_joined_cubes(), "_smallest_label_cut", 3),  # triangle-free
            (_joined_heawoods(), "_smallest_label_cut", 5),  # girth 6
            (_heawood(), "pair search", 6),  # stops at the bound of 6
            (_mcgee(), "pair search", 7),  # girth 7: goes past the bound
            # girth 8: no pair meets the bound, so every disjoint pair is tried
            (_tutte_coxeter(), "pair search", 8),
        ]
        for graph, branch, value in cases:
            assert branch_of(graph) == (branch, value)
            assert cyclic_connectivity_by_cycle_pairs(graph) == value
        assert girth(_joined_cubes()) == 4
        assert cyclic_cut_by_subset_enumeration(_joined_cubes(), 3) == 3
        assert (_joined_heawoods().order, girth(_joined_heawoods())) == (22, 6)
        assert girth(_mcgee()) == 7
        assert (_tutte_coxeter().order, girth(_tutte_coxeter())) == (30, 8)

    def test_search_stops_at_the_lower_bound(self, monkeypatch):
        calls = []
        real = structure._max_flow

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(structure, "_max_flow", counting)
        # the flowers' first disjoint pair meets the bound of 6; the label
        # rule settles both Blanusa snarks before any max-flow
        for graph, value, flows in [(flower_snark(7), 6, 1), (flower_snark(9), 6, 1),
                                    (blanusa(1), 4, 0), (blanusa(2), 4, 0)]:
            calls.clear()
            assert cyclic_edge_connectivity(graph) == value
            assert len(calls) == flows

    def test_settled_graphs_never_reach_the_search(self, monkeypatch, petersen_graph):
        def refuse(graph):
            raise AssertionError("chordless-cycle search reached")

        monkeypatch.setattr(structure, "chordless_cycles", refuse)
        assert cyclic_edge_connectivity(_prism()) == 3
        assert cyclic_edge_connectivity(build_graph(8, _cube())) == 4
        assert cyclic_edge_connectivity(_joined_cubes()) == 3
        assert cyclic_edge_connectivity(blanusa(1)) == 4
        assert cyclic_edge_connectivity(blanusa(2)) == 4
        # girth 5 and 6 leave the bracket open: the search must still run
        for graph in (petersen_graph, flower_snark(7)):
            with pytest.raises(AssertionError, match="search reached"):
                cyclic_edge_connectivity(graph)

    def test_girth_4_settles_without_the_search(self, monkeypatch):
        # from order 8 on, the four edges leaving a 4-cycle share no end
        # unless a cyclic 3-cut exists, so the label rule answers at most 4
        graphs = [build_graph(8, _cube())]
        for order in range(8, 26, 2):
            graphs += [g for g in random_cubic_graphs(20, (order,), seed=order)
                       if girth(g) == 4]
        expected = [cyclic_connectivity_by_cycle_pairs(g) for g in graphs]

        def refuse(graph):
            raise AssertionError("chordless-cycle search reached")

        monkeypatch.setattr(structure, "chordless_cycles", refuse)
        assert [cyclic_edge_connectivity(g) for g in graphs] == expected
        assert set(expected) <= {1, 2, 3, 4} and expected.count(4) >= 30
        k33 = build_graph(6, [(i, j) for i in (0, 1, 2) for j in (3, 4, 5)])
        with pytest.raises(AssertionError, match="search reached"):
            cyclic_edge_connectivity(k33)  # order 6: the edges leaving a 4-cycle meet
        monkeypatch.undo()
        assert cyclic_edge_connectivity(k33) is None


class TestChordlessCycles:
    def test_petersen_counts(self, petersen_graph):
        cycles = chordless_cycles(petersen_graph)
        assert all(len(c) >= 5 for c in cycles)
        assert sum(1 for c in cycles if len(c) == 5) == 12

    def test_loops_and_digons(self, dumbbell_graph, theta_graph):
        assert sorted(len(c) for c in chordless_cycles(dumbbell_graph)) == [1, 1]
        assert sorted(len(c) for c in chordless_cycles(theta_graph)) == [2]


class TestProfile:
    def test_petersen(self, petersen_graph):
        p = structure_profile(petersen_graph)
        assert petersen_graph.is_connected and find_bridges(petersen_graph) == ()
        assert p.girth == 5 and p.cyclic_edge_connectivity == 5

    def test_non_cubic_gets_none(self):
        path = build_graph(3, [(0, 1), (1, 2)])
        p = structure_profile(path)
        assert p.cyclic_edge_connectivity is None
        assert p.girth == math.inf

    def test_girth_is_computed_once(self, monkeypatch):
        # the cube reaches the label rule, which reads the profile's girth
        calls = []
        real = structure.girth

        def counting(graph):
            calls.append(graph)
            return real(graph)

        monkeypatch.setattr(structure, "girth", counting)
        p = structure_profile(build_graph(8, _cube()))
        assert (p.girth, p.cyclic_edge_connectivity) == (4, 4)
        assert len(calls) == 1

    def test_bridges_are_asked_once(self, monkeypatch, petersen_graph, bridged_snark):
        # the only bridge test, and a site the benchmark's tracer requires
        calls = []
        real = structure.find_bridges

        def counting(graph, **kwargs):
            calls.append(graph)
            return real(graph, **kwargs)

        monkeypatch.setattr(structure, "find_bridges", counting)
        for graph, value in [(petersen_graph, 5), (build_graph(8, _cube()), 4),
                             (flower_snark(7), 6), (bridged_snark, 1)]:
            calls.clear()
            assert structure_profile(graph).cyclic_edge_connectivity == value
            assert calls == [graph]
        assert len(real(bridged_snark)) == 1


@given(multigraphs(max_vertices=7, max_edges=10))
@settings(max_examples=100, deadline=None)
def test_girth_matches_oracle(g):
    assert girth(g) == girth_by_cycle_enumeration(g)


@given(multigraphs(max_vertices=7, max_edges=10))
@settings(max_examples=100, deadline=None)
def test_bridges_match_oracle(g):
    assert find_bridges(g) == bridges_by_removal(g)


def test_bridges_and_girth_match_oracles_beyond_seven_vertices(corpus_path):
    snark = next(read_graph6_file(corpus_path)).graph
    graphs = random_cubic_multigraphs(40, (10, 12, 14, 16, 18, 20), seed=11)
    graphs += random_cubic_graphs(40, (10, 12, 14, 16, 18, 20, 22, 24), seed=12)
    graphs += [
        remove_vertex_pair(snark, VertexPair(u, v))
        for u, v in combinations(sorted(snark.vertices), 2)
    ]
    graphs += [delete_edge(snark, e.id) for e in snark.edges]
    assert any(e.is_loop for g in graphs for e in g.edges)
    assert any(girth(g) == 2 for g in graphs)
    assert any(g.has_dangling for g in graphs)
    with_bridges = 0
    for g in graphs:
        bridges = find_bridges(g)
        assert bridges == bridges_by_removal(g)
        assert girth(g) == girth_by_cycle_enumeration(g)
        with_bridges += bool(bridges)
    assert with_bridges >= 20
