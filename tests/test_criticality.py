from __future__ import annotations

import os
import re
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

from snarkcrit import coloring, criticality, flows
from snarkcrit.coloring import is_proper_coloring
from snarkcrit.criticality import (
    COLORING,
    FLOW,
    IDENTIFICATION,
    REMOVAL,
    SUPPRESSION,
    DecisionTable,
    EquivalenceViolationError,
    NotASnarkError,
    classify,
    is_4_edge_critical,
    is_4_vertex_critical,
    is_bicritical,
    is_critical,
    is_snark,
    is_strong,
    snark_status,
    strong_certificate,
    verify_classifier_coincidence,
    verify_local_equivalence,
)
from snarkcrit.flows import verify_kirchhoff
from snarkcrit.graph_io import blanusa, flower_snark
from snarkcrit.multigraph import (
    NonSuppressibleError,
    VertexPair,
    build_graph,
    expand_triangle,
    identify_vertices,
    remove_vertex_pair,
    suppress_edge,
)
from snarkcrit.structure import find_bridges
from faults import deny_decision
from oracles import colorable_by_backtracking, components


class TestIsSnark:
    def test_petersen(self, petersen_graph):
        assert is_snark(petersen_graph)

    def test_dumbbell(self, dumbbell_graph):
        assert is_snark(dumbbell_graph)

    def test_k4_and_theta(self, k4, theta_graph):
        assert not is_snark(k4)
        assert snark_status(k4).reason == "3-edge-colorable"
        assert not is_snark(theta_graph)

    def test_non_cubic_reason(self):
        path = build_graph(3, [(0, 1), (1, 2)])
        assert snark_status(path).reason == "not cubic"

    def test_disconnected_reason(self):
        g = build_graph(4, [(0, 1), (0, 1), (0, 1), (2, 3), (2, 3), (2, 3)])
        assert snark_status(g).reason == "not connected"

    def test_empty_reason(self):
        assert snark_status(build_graph(0, [])).reason == "empty graph"


def report_of(graph, pair):
    """The verify-local report of one pair."""
    return next(r for r in verify_local_equivalence(graph).reports if r.pair == pair)


class TestPairStatus:
    def test_petersen_adjacent_all_six_true(self, petersen_graph):
        pair = VertexPair(0, 1)
        report = report_of(petersen_graph, pair)
        assert petersen_graph.connecting_edges(0, 1) and not report.degenerate
        statements = report.statements()
        assert len(statements) == 6
        assert all(statements.values())
        assert report.consistent
        # the table's witnesses for the same pair check out against their own graphs
        table = DecisionTable(petersen_graph)
        removal = remove_vertex_pair(petersen_graph, pair)
        assert is_proper_coloring(removal, table.decide(REMOVAL, pair, COLORING))
        for surgery, derived in (
            (REMOVAL, removal),
            (IDENTIFICATION, identify_vertices(petersen_graph, pair)),
        ):
            flow = table.decide(surgery, pair, FLOW)
            assert all(flow.values()) and verify_kirchhoff(derived, flow)

    def test_petersen_non_adjacent_three_statements(self, petersen_graph):
        report = report_of(petersen_graph, VertexPair(0, 2))
        assert not petersen_graph.connecting_edges(0, 2)
        statements = report.statements()
        assert len(statements) == 3
        assert all(statements.values())
        assert "flow_after_edge_deletion" not in statements
        assert "colorable_after_suppression" not in statements

    def test_flower5_sample_pairs_consistent(self):
        reports = {r.pair: r for r in verify_local_equivalence(flower_snark(5)).reports}
        for pair in (VertexPair(0, 5), VertexPair(0, 1), VertexPair(3, 17)):
            report = reports[pair]
            assert report.consistent
            assert all(report.statements().values())

    def test_refuses_non_snark(self, k4):
        with pytest.raises(NotASnarkError):
            verify_local_equivalence(k4)

    def test_dumbbell_pair_degenerate_but_consistent(self, dumbbell_graph):
        report = report_of(dumbbell_graph, VertexPair(0, 1))
        assert report.degenerate
        assert report.consistent
        # suppression is impossible on the bridge, so that statement is absent
        assert "colorable_after_suppression" not in report.statements()
        assert report.statements()["colorable_after_removal"]  # empty graph

    def test_parallel_connecting_edges_evaluated_per_edge(self, petersen_graph):
        # subdivide one Petersen edge into a doubled-edge gadget: replace
        # 0-1 by 0-10, a digon between 10 and 11, and 11-1; the result is a
        # snark whose digon pair has every statement false, consistently
        digon = build_graph(
            12,
            [(e.a, e.b) for e in petersen_graph.edges if e.id != 0]
            + [(0, 10), (10, 11), (10, 11), (11, 1)],
        )
        assert digon.is_cubic
        assert is_snark(digon)
        table = DecisionTable(digon)
        report = criticality._pair_report(table, VertexPair(10, 11))
        assert report.degenerate
        assert len(digon.connecting_edges(10, 11)) == 2
        assert report.consistent
        assert not any(report.statements().values())
        # suppressing either digon edge reconstructs the Petersen graph
        for eid in digon.connecting_edges(10, 11):
            assert table.verdict(SUPPRESSION, eid, COLORING) is False

    def test_digon_snark_full_local_scan(self, petersen_graph):
        digon = build_graph(
            12,
            [(e.a, e.b) for e in petersen_graph.edges if e.id != 0]
            + [(0, 10), (10, 11), (10, 11), (11, 1)],
        )
        cert = verify_local_equivalence(digon)
        assert cert.pair_count == 66
        assert cert.consistent


class TestClassifiers:
    def test_petersen_critical_and_bicritical(self, petersen_graph):
        assert is_critical(petersen_graph)
        assert is_bicritical(petersen_graph)
        assert is_4_edge_critical(petersen_graph)
        assert is_4_vertex_critical(petersen_graph)

    def test_triangle_expansion_not_critical(self, petersen_graph):
        expanded = expand_triangle(petersen_graph, 0)
        assert is_snark(expanded)
        assert not is_critical(expanded)
        assert not is_4_edge_critical(expanded)

    def test_flower5_bicritical_against_oracle_scan(self):
        j5 = flower_snark(5)
        assert is_bicritical(j5)
        # independent confirmation on a sample of pairs with the plain oracle
        verts = sorted(j5.vertices)
        for u, v in [(0, 1), (0, 10), (4, 16), (7, 19), (verts[2], verts[-1])]:
            cut = remove_vertex_pair(j5, VertexPair(u, v))
            assert colorable_by_backtracking(cut)

    def test_classifiers_refuse_non_snarks(self, k4, theta_graph):
        expanded = expand_triangle(theta_graph, 0)  # a colorable cubic graph
        for g in (k4, expanded):
            with pytest.raises(NotASnarkError):
                is_critical(g)
            with pytest.raises(NotASnarkError):
                is_4_vertex_critical(g)


class TestStrong:
    def test_petersen_not_strong(self, petersen_graph):
        cert = strong_certificate(petersen_graph)
        assert cert.routes_agree
        assert not cert.is_strong
        assert not is_strong(petersen_graph)
        # critical snarks cannot be strong: every suppression is colorable
        assert all(s.suppression_uncolorable is False for s in cert.per_edge)

    def test_flower5_not_strong(self):
        assert not is_strong(flower_snark(5))

    def test_dumbbell_strong_status(self, dumbbell_graph):
        cert = strong_certificate(dumbbell_graph)
        assert len(cert.per_edge) == 1  # the two loops are skipped
        assert len(cert.non_suppressible_edges) == 1
        assert cert.routes_agree
        assert not cert.is_strong  # removing both vertices leaves nothing to color

    def test_violation_names_the_disagreeing_edge(self, petersen_graph, monkeypatch):
        # both solvers call the fourth suppression uncolorable: both route
        # totals still read strong=false, so only the edge shows the
        # disagreement
        edge = petersen_graph.edges[3].id
        real = DecisionTable.verdict

        def flipped(self, surgery, where, solver):
            flip = surgery == SUPPRESSION and where == edge
            return real(self, surgery, where, solver) != flip

        monkeypatch.setattr(DecisionTable, "verdict", flipped)
        with pytest.raises(EquivalenceViolationError) as info:
            is_strong(petersen_graph)
        assert re.findall(r"edge (\d+)", str(info.value)) == [str(edge)]
        assert "suppression_uncolorable=true removal_uncolorable=false" in str(info.value)

    def test_suppression_solvers_disagreeing_names_the_edge(
        self, petersen_graph, monkeypatch
    ):
        # the decision table's flow solver finds no flow anywhere; the
        # strength route's first flow decision is edge 0's suppression (the
        # snark test looks the solver up in criticality, untouched here)
        monkeypatch.setattr(flows, "nowhere_zero_flow", lambda *a, **k: None)
        with pytest.raises(EquivalenceViolationError) as info:
            is_strong(petersen_graph)
        edge = petersen_graph.edges[0].id
        assert re.findall(r"edge (\d+)", str(info.value)) == [str(edge)]
        assert (
            "colorable_after_suppression=true flow_after_suppression=false"
            in str(info.value)
        )

    def test_bridged_snark_is_strong(self, bridged_snark):
        # suppressing the bridge leaves two disjoint Petersen graphs: no
        # snark, but uncolorable, as the removal of the bridge's ends is
        (bridge,) = find_bridges(bridged_snark)
        assert len(components(suppress_edge(bridged_snark, bridge))) == 2
        cert = strong_certificate(bridged_snark)
        assert cert.routes_agree
        assert cert.is_strong
        assert classify(bridged_snark).is_strong is True

    def test_routes_match_the_oracle(self, smoke_set, dumbbell_graph, bridged_snark):
        names = ("petersen", "flower5", "blanusa1", "blanusa2")
        for g in [smoke_set[n] for n in names] + [dumbbell_graph, bridged_snark]:
            per_edge = strong_certificate(g).per_edge
            assert [s.edge_id for s in per_edge] == [
                e.id for e in g.edges if not e.is_loop
            ]
            for s in per_edge:
                e = g.edge(s.edge_id)
                removed = remove_vertex_pair(g, VertexPair(e.a, e.b))
                assert s.removal_uncolorable == (not colorable_by_backtracking(removed))
                try:
                    suppressed = suppress_edge(g, e.id)
                except NonSuppressibleError:
                    assert s.suppression_uncolorable is None
                else:
                    assert s.suppression_uncolorable == (
                        not colorable_by_backtracking(suppressed)
                    )

    def test_mutual_exclusion_with_critical(self, petersen_graph):
        for g in (petersen_graph, blanusa(1), flower_snark(5)):
            assert not (is_critical(g) and is_strong(g))


class TestLocalEquivalence:
    def test_petersen_full_scan(self, petersen_graph):
        cert = verify_local_equivalence(petersen_graph)
        assert cert.pair_count == 45
        assert cert.consistent
        assert not [r.pair for r in cert.reports if not r.consistent]

    def test_blanusa_full_scans(self):
        for variant in (1, 2):
            cert = verify_local_equivalence(blanusa(variant))
            assert cert.pair_count == 153
            assert cert.consistent

    def test_dumbbell_flagged_degenerate(self, dumbbell_graph):
        cert = verify_local_equivalence(dumbbell_graph)
        assert cert.consistent
        assert cert.degenerate_pairs == (VertexPair(0, 1),)


def _petersen_dot_products(petersen_graph, seed: int):
    """Random dot products of two Petersen copies (order 18), endlessly."""
    import random

    rng = random.Random(seed)
    a_edges = [(e.a, e.b) for e in petersen_graph.edges]
    nbrs = {
        v: sorted(e.other_endpoint(v) for e in petersen_graph.incident_edges(v))
        for v in petersen_graph.vertices
    }
    while True:
        e1, e2 = rng.sample(a_edges, 2)
        if set(e1) & set(e2):
            continue
        x = rng.randrange(10)
        y = rng.choice(nbrs[x])
        bx = [w for w in nbrs[x] if w != y]
        by = [w for w in nbrs[y] if w != x]
        if rng.random() < 0.5:
            bx = bx[::-1]
        edges = [e for e in a_edges if e not in (e1, e2)]
        edges += [
            (e.a + 10, e.b + 10)
            for e in petersen_graph.edges
            if x not in (e.a, e.b) and y not in (e.a, e.b)
        ]
        edges += [(e1[0], bx[0] + 10), (e1[1], bx[1] + 10),
                  (e2[0], by[0] + 10), (e2[1], by[1] + 10)]
        glued = build_graph(20, edges)
        keep = sorted(v for v in glued.vertices if glued.degree(v) > 0)
        remap = {v: i for i, v in enumerate(keep)}
        yield build_graph(len(keep), [(remap[e.a], remap[e.b]) for e in glued.edges])


def test_local_equivalence_on_random_dot_products(petersen_graph):
    # snarks the curated fixtures never saw: random dot products of two
    # Petersen copies, with the statement agreement as the oracle
    for g in islice(_petersen_dot_products(petersen_graph, 5150), 3):
        assert g.order == 18 and g.is_cubic and g.is_connected
        assert is_snark(g)
        cert = verify_local_equivalence(g)
        assert cert.consistent, [r.pair for r in cert.reports if not r.consistent]


def test_local_equivalence_on_expanded_snark(petersen_graph):
    # a girth-3 snark: criticality fails, yet every pair must stay consistent
    g = expand_triangle(petersen_graph, 4)
    cert = verify_local_equivalence(g)
    assert cert.pair_count == 66
    assert cert.consistent


class TestCoincidence:
    def test_petersen(self, petersen_graph):
        cert = verify_classifier_coincidence(petersen_graph)
        assert cert.consistent
        assert cert.critical and cert.bicritical
        assert cert.coloring_path_micros >= 0
        assert cert.flow_path_micros >= 0

    def test_flower_snarks(self):
        for k in (5, 7):
            cert = verify_classifier_coincidence(flower_snark(k))
            assert cert.consistent


class TestClassify:
    def test_snark_status_runs_once_per_graph(
        self, petersen_graph, bridged_snark, monkeypatch
    ):
        # the strength route reads its suppressions from the table instead
        # of testing each one for snarkness
        real = criticality.snark_status
        calls = []

        def counted(graph):
            calls.append(graph)
            return real(graph)

        monkeypatch.setattr(criticality, "snark_status", counted)
        for g in (petersen_graph, bridged_snark):
            calls.clear()
            assert classify(g).is_snark
            assert calls == [g]

    def test_petersen_record(self, petersen_graph):
        record = classify(petersen_graph, graph_index=3)
        assert record.graph_index == 3
        assert record.is_snark
        assert record.girth == 5
        assert record.cyclic_edge_connectivity == 5
        assert record.is_critical and record.is_bicritical
        assert record.is_strictly_critical is False
        assert record.is_strong is False
        assert record.coloring_path_micros is not None

    def test_non_snark_record(self, k4):
        record = classify(k4)
        assert not record.is_snark
        assert record.girth == 3
        assert record.is_critical is None
        assert record.is_strong is None
        assert record.coloring_path_micros is None

    def test_bicritical_implies_critical_on_examples(self):
        for g in (blanusa(1), blanusa(2), flower_snark(5)):
            record = classify(g)
            assert not record.is_bicritical or record.is_critical
            assert record.is_strictly_critical == (
                record.is_critical and not record.is_bicritical
            )


class TestDecisionTable:
    @staticmethod
    def _record_decisions(monkeypatch) -> list[tuple]:
        """Log each solver call and each witness check, with its graph.

        A decision is a solver call or, for a transported witness, a check;
        a rejected witness would log both.
        """
        calls: list[tuple] = []

        def logged(owner, name, key):
            real = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls.append(key(*args))
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        logged(criticality, "three_edge_colorable", lambda g: ("coloring", g))
        logged(coloring, "three_edge_colorable", lambda g: ("coloring", g))
        logged(criticality, "nowhere_zero_flow", lambda g: ("flow", g))
        logged(flows, "nowhere_zero_flow", lambda g: ("flow", g))
        logged(criticality, "is_proper_coloring", lambda g, colors: ("coloring", g))
        logged(criticality, "verify_kirchhoff", lambda g, values: ("flow", g))
        return calls

    @pytest.mark.parametrize("name", ["petersen", "flower5"])
    def test_classify_never_repeats_a_decision(self, name, smoke_set, monkeypatch):
        calls = self._record_decisions(monkeypatch)
        checks = criticality.witness_checks
        record = classify(smoke_set[name])
        assert record.is_bicritical and record.is_4_vertex_critical
        n = smoke_set[name].order
        # every pair is decided by each route, by a solver call or a check,
        # and nothing twice; most pairs are settled by a transported witness
        removals = [c for c in calls if c[0] == "coloring" and c[1].has_dangling]
        identifications = [c for c in calls if c[0] == "flow" and c[1].order == n - 1]
        assert len(removals) == len(identifications) == n * (n - 1) // 2
        assert len(set(calls)) == len(calls)
        assert criticality.witness_checks - checks > n * (n - 1) // 2

    def test_classifiers_share_one_table(self, petersen_graph, monkeypatch):
        table = DecisionTable(petersen_graph)
        assert is_bicritical(petersen_graph, table=table)
        calls = self._record_decisions(monkeypatch)
        assert is_critical(petersen_graph, table=table)
        assert not strong_certificate(petersen_graph, table=table).is_strong
        # the strength route only tests each suppression; no removal (the
        # graphs with dangling edges) is decided again
        assert len(calls) == 2 * len(petersen_graph.edges)
        assert not any(c[1].has_dangling for c in calls)
        # 45 removal colorings, 15 suppression colorings, 15 suppression flows
        assert len(table.verdicts) == 75

    def test_adjacent_scan_is_hinted(self, petersen_graph, monkeypatch):
        # each removal coloring after the first starts from the last witness;
        # the pairs that a transported witness settles are checked instead
        hints = []
        real = coloring.three_edge_colorable

        def logged(graph, *, hint=None):
            hints.append(hint)
            return real(graph, hint=hint)

        monkeypatch.setattr(coloring, "three_edge_colorable", logged)
        checks = criticality.witness_checks
        assert is_critical(petersen_graph, table=DecisionTable(petersen_graph))
        assert len(hints) + criticality.witness_checks - checks == 15
        assert hints[0] is None
        assert all(hint is not None for hint in hints[1:])

    def test_pair_status_reads_what_the_classifiers_decided(
        self, petersen_graph, monkeypatch
    ):
        table = DecisionTable(petersen_graph)
        assert is_bicritical(petersen_graph, table=table)
        assert is_4_vertex_critical(petersen_graph, table=table)
        calls = self._record_decisions(monkeypatch)
        report = criticality._pair_report(table, VertexPair(0, 2))
        assert report.consistent and len(report.statements()) == 3
        # only the removal flow is new; the removal coloring and the
        # identification flow are read from the table
        assert len(calls) == 1
        assert calls[0][0] == "flow" and calls[0][1].has_dangling

    def test_table_of_another_graph_is_refused(self, petersen_graph):
        with pytest.raises(ValueError):
            is_critical(blanusa(1), table=DecisionTable(petersen_graph))

    def test_table_refuses_non_snarks(self, k4):
        with pytest.raises(NotASnarkError):
            is_bicritical(k4, table=DecisionTable(k4))


def test_classify_violation_names_the_classifiers(petersen_graph, monkeypatch):
    # the table denies the identification of one non-adjacent pair
    deny_decision(monkeypatch, (IDENTIFICATION, VertexPair(0, 2), FLOW))
    with pytest.raises(EquivalenceViolationError) as info:
        classify(petersen_graph)
    message = str(info.value)
    assert "bicritical=true but 4-vertex-critical=false" in message
    assert "4-edge-critical" not in message


class TestWitnessTransport:
    """Witnesses walked to other pairs settle a key only after its check."""

    ROUTES = ((REMOVAL, COLORING), (REMOVAL, FLOW), (IDENTIFICATION, FLOW))

    @pytest.mark.parametrize("surgery, solver", ROUTES)
    def test_corrupted_witness_falls_back_to_the_solver(
        self, surgery, solver, petersen_graph, monkeypatch
    ):
        table = DecisionTable(petersen_graph)
        assert table.decide(surgery, VertexPair(0, 1), solver) is not None
        key = next(k for k in table._candidates if k[0] == surgery and k[2] == solver)
        pair = key[1]
        lifted, moves = table._candidates[key]
        # one value flipped, on an edge away from the pair that no move sets
        moved = {eid for eid, _ in moves}
        eid = next(
            e.id
            for e in petersen_graph.edges
            if e.id not in moved and not {e.a, e.b} & set(pair)
        )
        table._candidates[key] = ({**lifted, eid: lifted[eid] % 3 + 1}, moves)

        solved = []
        module, name = (coloring, "three_edge_colorable") if solver == COLORING else (
            flows, "nowhere_zero_flow"
        )
        real = getattr(module, name)

        def logged(graph, *args, **kwargs):
            solved.append(real(graph, *args, **kwargs))
            return solved[-1]

        monkeypatch.setattr(module, name, logged)
        checks = criticality.witness_checks
        witness = table.decide(*key)
        assert criticality.witness_checks == checks + 1
        assert len(solved) == 1  # the check failed, so the solver ran
        assert witness is not None and witness is solved[0]
        assert table.verdicts[key] is DecisionTable(petersen_graph).verdict(*key) is True

    @pytest.mark.parametrize(
        "name", ["petersen", "flower5", "blanusa1", "blanusa2", "dot product"]
    )
    def test_transported_verdicts_match_a_fresh_table(
        self, name, smoke_set, petersen_graph, monkeypatch
    ):
        if name == "dot product":
            graph = next(_petersen_dot_products(petersen_graph, 2024))
        else:
            graph = smoke_set[name]
        transported = []
        real = DecisionTable._transported

        def logged(self, key, derived, candidate):
            witness = real(self, key, derived, candidate)
            if witness is not None:
                transported.append(key)
            return witness

        monkeypatch.setattr(DecisionTable, "_transported", logged)
        table = DecisionTable(graph)
        assert verify_local_equivalence(graph, table=table).consistent
        assert {(k[0], k[2]) for k in transported} == set(self.ROUTES)
        monkeypatch.setattr(DecisionTable, "_transported", real)
        for key in transported:
            # every transported verdict is positive, and a table that decides
            # the key first, by its solver, agrees
            assert table.verdicts[key] is True
            assert DecisionTable(graph).verdict(*key) is True


_STEPS_OF_CLASSIFY = """
from snarkcrit import coloring, criticality, flows
from snarkcrit.criticality import classify
from snarkcrit.graph_io import flower_snark
classify(flower_snark(5))
print(coloring.search_steps, flows.search_steps, criticality.witness_checks)
"""


def test_search_step_totals_repeat_exactly():
    # each solver call adds its loop iterations to a module total, and each
    # transported witness its check; a second run in this process and a run
    # in a fresh one with another hash seed add the same numbers
    def totals():
        return coloring.search_steps, flows.search_steps, criticality.witness_checks

    def steps_of_classify():
        before = totals()
        classify(flower_snark(5))
        return tuple(after - b for after, b in zip(totals(), before))

    first = steps_of_classify()
    assert all(first)
    assert steps_of_classify() == first
    src = str(Path(coloring.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED="12345", PYTHONPATH=src)
    fresh = subprocess.run(
        [sys.executable, "-c", _STEPS_OF_CLASSIFY],
        capture_output=True, text=True, check=True, env=env,
    )
    assert tuple(map(int, fresh.stdout.split())) == first
