from __future__ import annotations

import random
from itertools import combinations

import pytest
from hypothesis import given, settings

from snarkcrit.multigraph import (
    DANGLING,
    CubicGraph,
    Edge,
    GraphError,
    NonSuppressibleError,
    VertexPair,
    build_graph,
    contract_edge,
    delete_edge,
    expand_triangle,
    identify_vertices,
    remove_vertex_pair,
    suppress_edge,
)
from isomorphism import are_isomorphic
from oracles import (
    components,
    identify_vertices_by_rebuild,
    remove_vertex_pair_by_rebuild,
    suppress_edge_by_rebuild,
)
from snarkcrit.graph_io import read_graph6_file
from strategies import multigraphs, random_cubic_multigraphs


def degree_balance(graph: CubicGraph) -> bool:
    """Sum of degrees equals twice the attached incidences."""
    attached = sum(len(e.real_endpoints()) for e in graph.edges if not e.is_loop)
    attached += 2 * sum(1 for e in graph.edges if e.is_loop)
    return sum(graph.degree(v) for v in graph.vertices) == attached


class TestBuildGraph:
    def test_dumbbell(self, dumbbell_graph):
        assert dumbbell_graph.order == 2
        assert len(dumbbell_graph.edges) == 3
        assert dumbbell_graph.is_cubic
        assert len([e for e in dumbbell_graph.edges if e.is_loop]) == 2

    def test_empty(self):
        g = build_graph(0, [])
        assert g.order == 0
        assert g.edges == ()
        assert not g.is_connected

    def test_theta_is_cubic(self, theta_graph):
        assert theta_graph.is_cubic
        assert theta_graph.degree(0) == 3
        assert theta_graph.connecting_edges(0, 1) == (0, 1, 2)

    def test_bad_vertex_reference(self):
        with pytest.raises(GraphError):
            build_graph(2, [(0, 2)])
        with pytest.raises(GraphError):
            build_graph(1, [(0, -1)])

    def test_dangling_slots_kept(self):
        g = build_graph(2, [(DANGLING, 0), (1, DANGLING)])
        assert g.edges[0].a is DANGLING and g.edges[0].b == 0
        assert g.edges[1].a == 1 and g.edges[1].b is DANGLING


class TestConstructor:
    """The checks of ``CubicGraph`` itself, which ``build_graph`` never reaches."""

    def test_duplicate_edge_id(self):
        edges = (Edge(0, 0, 1), Edge(1, 1, 2), Edge(1, 2, 0))
        with pytest.raises(GraphError, match=r"^duplicate edge id 1$"):
            CubicGraph(frozenset({0, 1, 2}), edges)

    def test_missing_endpoint_vertex(self):
        edges = (Edge(0, 0, 1), Edge(1, 1, DANGLING), Edge(2, 5, 1))
        with pytest.raises(GraphError, match=r"^edge 2 references missing vertex 5$"):
            CubicGraph(frozenset({0, 1}), edges)

    def test_first_offender_in_edge_order_is_named(self):
        edges = (Edge(0, 0, 7), Edge(0, 0, 1))
        with pytest.raises(GraphError, match=r"^edge 0 references missing vertex 7$"):
            CubicGraph(frozenset({0, 1}), edges)
        edges = (Edge(0, 0, 1), Edge(0, 0, 7))
        with pytest.raises(GraphError, match=r"^duplicate edge id 0$"):
            CubicGraph(frozenset({0, 1}), edges)

    def test_valid_edges_pass(self):
        edges = (Edge(3, 0, 1), Edge(8, 1, DANGLING), Edge(5, DANGLING, DANGLING))
        assert CubicGraph(frozenset({0, 1}), edges).edges == edges


class TestVertexPair:
    def test_orders_endpoints(self):
        p = VertexPair(5, 2)
        assert (p.u, p.v) == (2, 5)

    def test_rejects_equal(self):
        with pytest.raises(GraphError):
            VertexPair(3, 3)


class TestRemoveVertexPair:
    def test_petersen_adjacent(self, petersen_graph):
        out = remove_vertex_pair(petersen_graph, VertexPair(0, 1))
        assert out.order == 8
        dangling = [e for e in out.edges if e.is_dangling]
        # each removed endpoint contributes its two non-shared edges
        assert len(dangling) == 4
        assert all(out.degree(v) == 3 for v in out.vertices)

    def test_petersen_non_adjacent(self, petersen_graph):
        out = remove_vertex_pair(petersen_graph, VertexPair(0, 2))
        assert out.order == 8
        assert len([e for e in out.edges if e.is_dangling]) == 6

    def test_dumbbell_gives_empty_graph(self, dumbbell_graph):
        out = remove_vertex_pair(dumbbell_graph, VertexPair(0, 1))
        assert out.order == 0
        assert out.edges == ()

    def test_missing_vertex_rejected(self, petersen_graph):
        with pytest.raises(GraphError):
            remove_vertex_pair(petersen_graph, VertexPair(0, 99))

    def test_already_dangling_edge_becomes_free(self):
        g = build_graph(2, [(0, 1), (0, DANGLING)])
        out = remove_vertex_pair(g, VertexPair(0, 1))
        assert sum(not e.real_endpoints() for e in out.edges) == 1


class TestIdentifyVertices:
    def test_theta_gives_three_loops(self, theta_graph):
        out = identify_vertices(theta_graph, VertexPair(0, 1))
        assert out.order == 1
        assert len(out.edges) == 3
        assert all(e.is_loop for e in out.edges)

    def test_petersen_adjacent(self, petersen_graph):
        out = identify_vertices(petersen_graph, VertexPair(0, 1))
        assert out.order == 9
        loops = [e for e in out.edges if e.is_loop]
        assert len(loops) == 1
        merged = loops[0].a
        assert out.degree(merged) == 6  # loop counted twice

    def test_petersen_non_adjacent(self, petersen_graph):
        out = identify_vertices(petersen_graph, VertexPair(0, 2))
        assert out.order == 9
        assert not any(e.is_loop for e in out.edges)
        assert out.degree(0) == 6

    def test_rejects_dangling(self, petersen_graph):
        cut = remove_vertex_pair(petersen_graph, VertexPair(0, 1))
        with pytest.raises(GraphError):
            identify_vertices(cut, VertexPair(2, 3))


def _pairs(graph: CubicGraph) -> list[VertexPair]:
    return [VertexPair(u, v) for u, v in combinations(sorted(graph.vertices), 2)]


def _seeded_multigraphs(seed: int, count: int) -> list[CubicGraph]:
    """Cubic multigraphs with loops and parallel edges, and some with dangling edges."""
    rng = random.Random(seed)
    out = []
    for g in random_cubic_multigraphs(count, (4, 6, 8, 10), seed=seed):
        out.append(g)
        # sever a few edge ends, in either slot
        severed = set(rng.sample(range(len(g.edges)), 3))
        edges = [(e.a, e.b) for e in g.edges]
        for i, eid in enumerate(sorted(severed)):
            a, b = edges[eid]
            edges[eid] = (a, DANGLING) if i % 2 else (DANGLING, b)
        out.append(build_graph(g.order, edges))
    return out


class TestOnePassSurgery:
    """Removal and identification, which visit only the edges at the pair,
    equal the rebuild oracles."""

    @pytest.fixture(scope="class")
    def cases(self, corpus_path):
        graphs = [e.graph for e in read_graph6_file(corpus_path)]
        graphs += _seeded_multigraphs(seed=77, count=24)
        assert any(e.is_loop for g in graphs for e in g.edges)
        assert any(len(g.connecting_edges(e.a, e.b)) > 1 for g in graphs for e in g.edges
                   if not (e.is_loop or e.is_dangling))
        assert any(g.has_dangling for g in graphs)
        return graphs

    def test_removal_matches_oracle(self, cases):
        for g in cases:
            for pair in _pairs(g):
                assert remove_vertex_pair(g, pair) == remove_vertex_pair_by_rebuild(g, pair)

    def test_identification_matches_oracle(self, cases):
        for g in cases:
            for pair in _pairs(g):
                if not g.has_dangling:
                    assert identify_vertices(g, pair) == identify_vertices_by_rebuild(g, pair)
                    continue
                for identify in (identify_vertices, identify_vertices_by_rebuild):
                    with pytest.raises(GraphError):
                        identify(g, pair)

    def test_deletion_and_expansion_keep_edges_in_id_order(self, cases):
        # each patches a copy of the edge tuple, which no re-sort follows
        for g in cases:
            for e in g.edges:
                out = delete_edge(g, e.id)
                assert out.edges == tuple(x for x in g.edges if x.id != e.id)
            for v in sorted(g.vertices):
                if g.degree(v) == 3 and not g.loops_at(v):
                    ids = [x.id for x in expand_triangle(g, v).edges]
                    assert ids == sorted(ids)


class TestDeleteEdge:
    def test_theta(self, theta_graph):
        out = delete_edge(theta_graph, 0)
        assert out.order == 2
        assert len(out.edges) == 2
        assert out.degree(0) == 2

    def test_dumbbell_bridge(self, dumbbell_graph):
        bridge = next(e.id for e in dumbbell_graph.edges if not e.is_loop)
        out = delete_edge(dumbbell_graph, bridge)
        assert len(components(out)) == 2
        assert all(e.is_loop for e in out.edges)

    def test_petersen(self, petersen_graph):
        out = delete_edge(petersen_graph, 0)
        assert out.order == 10
        assert len(out.edges) == 14
        assert sorted(out.degree(v) for v in out.vertices).count(2) == 2

    def test_unknown_edge(self, petersen_graph):
        with pytest.raises(GraphError):
            delete_edge(petersen_graph, 999)


class TestContractEdge:
    def test_theta(self, theta_graph):
        out = contract_edge(theta_graph, 0)
        assert out.order == 1
        assert len([e for e in out.edges if e.is_loop]) == 2

    def test_dumbbell_bridge(self, dumbbell_graph):
        bridge = next(e.id for e in dumbbell_graph.edges if not e.is_loop)
        out = contract_edge(dumbbell_graph, bridge)
        assert out.order == 1
        assert len([e for e in out.edges if e.is_loop]) == 2

    def test_petersen(self, petersen_graph):
        out = contract_edge(petersen_graph, 0)
        assert out.order == 9
        assert len(out.edges) == 14
        assert not any(e.is_loop for e in out.edges)  # girth 5, no companion

    def test_loop_rejected(self, dumbbell_graph):
        loop = next(e.id for e in dumbbell_graph.edges if e.is_loop)
        with pytest.raises(GraphError):
            contract_edge(dumbbell_graph, loop)

    def test_matches_identify_then_loop_removal(self, petersen_graph):
        e = petersen_graph.edge(7)
        via_contract = contract_edge(petersen_graph, 7)
        via_identify = delete_edge(
            identify_vertices(petersen_graph, VertexPair(e.a, e.b)), 7
        )
        assert are_isomorphic(via_contract, via_identify)


class TestSuppressEdge:
    def test_petersen(self, petersen_graph):
        out = suppress_edge(petersen_graph, 0)
        assert out.order == 8
        assert len(out.edges) == 12
        assert out.is_cubic

    def test_k4_gives_theta(self, k4, theta_graph):
        out = suppress_edge(k4, 0)
        assert are_isomorphic(out, theta_graph)

    def test_dumbbell_bridge_not_suppressible(self, dumbbell_graph):
        bridge = next(e.id for e in dumbbell_graph.edges if not e.is_loop)
        with pytest.raises(NonSuppressibleError):
            suppress_edge(dumbbell_graph, bridge)

    def test_theta_not_suppressible(self, theta_graph):
        # the first splice leaves only a loop at the second endpoint
        with pytest.raises(NonSuppressibleError):
            suppress_edge(theta_graph, 0)

    def test_loop_rejected(self, dumbbell_graph):
        loop = next(e.id for e in dumbbell_graph.edges if e.is_loop)
        with pytest.raises(GraphError):
            suppress_edge(dumbbell_graph, loop)

    def test_counts(self, petersen_graph):
        for eid in (0, 5, 14):
            out = suppress_edge(petersen_graph, eid)
            assert out.order == petersen_graph.order - 2
            assert len(out.edges) == len(petersen_graph.edges) - 3

    def test_dangling_rejected(self, petersen_graph):
        cut = remove_vertex_pair(petersen_graph, VertexPair(0, 2))
        assert cut.is_cubic and cut.is_connected
        stub = next(e.id for e in cut.edges if e.is_dangling)
        with pytest.raises(GraphError, match="dangling"):
            suppress_edge(cut, stub)

    def test_matches_oracle(self, corpus_path, smoke_set):
        """Every edge of the bundled snarks and of multigraphs with loops and
        parallel edges gives the graph, or the error, of the rebuild oracle."""
        graphs = [e.graph for e in read_graph6_file(corpus_path)]
        graphs += smoke_set.values()
        multigraphs = random_cubic_multigraphs(24, (4, 6, 8, 10), seed=78)
        assert any(
            len(g.connecting_edges(e.a, e.b)) > 1
            for g in multigraphs
            for e in g.edges
            if not e.is_loop
        )
        for g in graphs + multigraphs:
            for e in g.edges:
                assert _outcome(suppress_edge, g, e.id) == _outcome(
                    suppress_edge_by_rebuild, g, e.id
                )


def _outcome(suppress, graph, edge_id):
    """The suppressed graph, or the type and message of the error raised."""
    try:
        return suppress(graph, edge_id)
    except GraphError as exc:
        return type(exc), str(exc)


class TestExpandTriangle:
    def test_k4_gives_prism(self, k4):
        prism = build_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                                (0, 3), (1, 4), (2, 5)])
        out = expand_triangle(k4, 0)
        assert out.order == 6
        assert out.is_cubic
        assert are_isomorphic(out, prism)

    def test_petersen(self, petersen_graph):
        from snarkcrit.structure import girth

        out = expand_triangle(petersen_graph, 3)
        assert out.order == 12
        assert out.is_cubic
        assert girth(out) == 3

    def test_theta(self, theta_graph):
        out = expand_triangle(theta_graph, 0)
        assert out.order == 4
        assert out.is_cubic

    def test_loop_rejected(self, dumbbell_graph):
        with pytest.raises(GraphError):
            expand_triangle(dumbbell_graph, 0)

    def test_expand_then_contract_recovers(self, petersen_graph, k4):
        # contract two triangle edges, then drop the loop left by the third
        for g, v in ((k4, 2), (petersen_graph, 7)):
            expanded = expand_triangle(g, v)
            new_edge_ids = sorted(e.id for e in expanded.edges)[-3:]
            step = contract_edge(expanded, new_edge_ids[0])
            survivors = [i for i in new_edge_ids[1:] if not step.edge(i).is_loop]
            step = contract_edge(step, survivors[0])
            loops = [e.id for e in step.edges if e.is_loop]
            for lid in loops:
                step = delete_edge(step, lid)
            assert are_isomorphic(step, g)


class TestPurity:
    def test_operations_leave_input_unchanged(self, petersen_graph):
        snapshot = (petersen_graph.vertices, petersen_graph.edges)
        remove_vertex_pair(petersen_graph, VertexPair(0, 1))
        identify_vertices(petersen_graph, VertexPair(0, 2))
        delete_edge(petersen_graph, 0)
        contract_edge(petersen_graph, 0)
        suppress_edge(petersen_graph, 0)
        expand_triangle(petersen_graph, 0)
        assert (petersen_graph.vertices, petersen_graph.edges) == snapshot


@given(multigraphs())
@settings(max_examples=150, deadline=None)
def test_degree_conservation_everywhere(g):
    assert degree_balance(g)
    verts = sorted(g.vertices)
    if len(verts) >= 2:
        assert degree_balance(remove_vertex_pair(g, VertexPair(verts[0], verts[1])))
        if not g.has_dangling:
            assert degree_balance(identify_vertices(g, VertexPair(verts[0], verts[1])))
    for e in g.edges:
        assert degree_balance(delete_edge(g, e.id))
        if not e.is_loop and not g.has_dangling:
            assert degree_balance(contract_edge(g, e.id))


@given(multigraphs())
@settings(max_examples=150, deadline=None)
def test_connectivity_matches_the_oracle(g):
    # dangling edges join nothing, and the empty graph is not connected
    assert g.is_connected == (len(components(g)) == 1)
    verts = sorted(g.vertices)
    if len(verts) >= 2:
        cut = remove_vertex_pair(g, VertexPair(verts[0], verts[1]))
        assert cut.is_connected == (len(components(cut)) == 1)


@given(multigraphs(allow_dangling=False))
@settings(max_examples=100, deadline=None)
def test_contract_equals_identify_minus_loop(g):
    for e in g.edges:
        if e.is_loop:
            continue
        contracted = contract_edge(g, e.id)
        identified = identify_vertices(g, VertexPair(e.a, e.b))
        assert contracted.order == identified.order
        assert len(contracted.edges) == len(identified.edges) - 1
        assert sorted(contracted.degree(v) for v in contracted.vertices) == sorted(
            identified.degree(v) - (2 if v == min(e.a, e.b) else 0)
            for v in identified.vertices
        )
        break
