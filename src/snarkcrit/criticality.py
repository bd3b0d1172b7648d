"""Criticality classifiers for snarks, computed along two independent routes.

A snark is a connected cubic graph with no proper 3-edge-coloring,
equivalently no nowhere-zero 4-flow; both characterizations are computed
here and must agree, a disagreement being an implementation bug rather
than a property of the input.

For a pair of distinct vertices the six local statements below are all
decided by their own solver call; on a snark the defined ones must agree,
which :func:`verify_local_equivalence` certifies pair by pair:

* the graph minus both vertices (dangling edges kept) is 3-edge-colorable,
* the same graph has a nowhere-zero 4-flow,
* the graph with the pair identified has a nowhere-zero 4-flow,

and when the pair is adjacent, per connecting edge:

* deleting the edge leaves a nowhere-zero 4-flow,
* contracting the edge leaves a nowhere-zero 4-flow,
* suppressing the edge leaves a 3-edge-colorable graph.

The classifiers quantify these statements over adjacent pairs (critical,
4-edge-critical) or over all pairs (bicritical, 4-vertex-critical); the
colorability route and the flow route never share a decision procedure, so
their coincidence is a meaningful cross-check of both solvers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Optional, Union

from .coloring import EdgeColoring, chromatic_index_is_4, three_edge_colorable
from .flows import Z4, FlowAssignment, flow_on_identification, nowhere_zero_flow
from .multigraph import (
    CubicGraph,
    NonSuppressibleError,
    VertexPair,
    contract_edge,
    delete_edge,
    remove_vertex_pair,
    suppress_edge,
)
from .structure import structure_profile


class NotASnarkError(ValueError):
    """An operation that needs a snark was handed something else."""


class EquivalenceViolationError(RuntimeError):
    """Two routes that are provably equivalent disagreed; this is a bug."""


# ----------------------------------------------------------------------
# snark recognition


@dataclass(frozen=True)
class SnarkStatus:
    verdict: bool
    reason: Optional[str]  # populated when the verdict is False


@lru_cache(maxsize=512)
def snark_status(graph: CubicGraph) -> SnarkStatus:
    """Decide snarkness with the reason for a negative verdict.

    The coloring verdict is cross-checked against the absence of a
    nowhere-zero 4-flow; the two must agree on connected cubic graphs.
    """
    if graph.order == 0:
        return SnarkStatus(False, "empty graph")
    if graph.has_dangling:
        return SnarkStatus(False, "has dangling edges")
    if not graph.is_connected:
        return SnarkStatus(False, "not connected")
    if not graph.is_cubic:
        return SnarkStatus(False, "not cubic")
    colorable = three_edge_colorable(graph) is not None
    has_flow = nowhere_zero_flow(graph, Z4) is not None
    if colorable != has_flow:
        raise EquivalenceViolationError(
            f"3-edge-colorable={colorable} but Z4 flow present={has_flow} "
            f"on a connected cubic graph of order {graph.order}"
        )
    if colorable:
        return SnarkStatus(False, "3-edge-colorable")
    return SnarkStatus(True, None)


def is_snark(graph: CubicGraph) -> bool:
    return snark_status(graph).verdict


def _require_snark(graph: CubicGraph) -> None:
    status = snark_status(graph)
    if not status.verdict:
        raise NotASnarkError(f"not a snark: {status.reason}")


# ----------------------------------------------------------------------
# per-pair status


@dataclass(frozen=True)
class EdgeStatements:
    """The three per-edge statements for one edge connecting an adjacent pair."""

    edge_id: int
    flow_after_deletion: bool
    flow_after_contraction: bool
    suppressible: bool
    colorable_after_suppression: Optional[bool]  # None when not suppressible
    deletion_flow: Optional[FlowAssignment]
    contraction_flow: Optional[FlowAssignment]
    suppression_coloring: Optional[EdgeColoring]


@dataclass(frozen=True)
class PairReport:
    """All statements that apply to one vertex pair, with witnesses.

    ``degenerate`` flags pairs whose removal deleted loops or more than one
    connecting edge; for such inputs the removal convention (delete, do not
    keep free stubs) can matter, so reports surface it.
    """

    pair: VertexPair
    adjacent: bool
    degenerate: bool
    colorable_after_removal: bool
    flow_after_removal: bool
    flow_after_identification: bool
    flow_after_edge_deletion: Optional[bool]
    flow_after_contraction: Optional[bool]
    colorable_after_suppression: Optional[bool]
    per_edge: tuple[EdgeStatements, ...]
    removal_coloring: Optional[EdgeColoring]
    removal_flow: Optional[FlowAssignment]
    identification_flow: Optional[FlowAssignment]

    def statements(self) -> dict[str, bool]:
        """The statements that are present for this pair."""
        out = {
            "colorable_after_removal": self.colorable_after_removal,
            "flow_after_removal": self.flow_after_removal,
            "flow_after_identification": self.flow_after_identification,
        }
        for name in (
            "flow_after_edge_deletion",
            "flow_after_contraction",
            "colorable_after_suppression",
        ):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        return out

    @property
    def consistent(self) -> bool:
        return len(set(self.statements().values())) <= 1


def pair_status(graph: CubicGraph, pair: VertexPair) -> PairReport:
    """Evaluate every applicable statement for one pair of a snark.

    Each statement runs through its own decision path; witnesses are kept.
    Refuses non-snarks, whose pairs the equivalence says nothing about.
    """
    _require_snark(graph)
    return _pair_status_unchecked(graph, pair)


def _pair_status_unchecked(graph: CubicGraph, pair: VertexPair) -> PairReport:
    u, v = pair
    removed = remove_vertex_pair(graph, pair)
    removal_coloring = three_edge_colorable(removed)
    removal_flow = nowhere_zero_flow(removed, Z4)
    identification_flow = flow_on_identification(graph, pair, Z4)

    connecting = graph.connecting_edges(u, v)
    degenerate = bool(graph.loops_at(u) or graph.loops_at(v) or len(connecting) > 1)

    per_edge = []
    for eid in connecting:
        deletion_flow = nowhere_zero_flow(delete_edge(graph, eid), Z4)
        contraction_flow = nowhere_zero_flow(contract_edge(graph, eid), Z4)
        try:
            suppressed = suppress_edge(graph, eid)
        except NonSuppressibleError:
            suppressible = False
            suppression_coloring = None
        else:
            suppressible = True
            suppression_coloring = three_edge_colorable(suppressed)
        per_edge.append(
            EdgeStatements(
                edge_id=eid,
                flow_after_deletion=deletion_flow is not None,
                flow_after_contraction=contraction_flow is not None,
                suppressible=suppressible,
                colorable_after_suppression=(
                    suppression_coloring is not None if suppressible else None
                ),
                deletion_flow=deletion_flow,
                contraction_flow=contraction_flow,
                suppression_coloring=suppression_coloring,
            )
        )

    suppression_verdicts = [
        s.colorable_after_suppression for s in per_edge if s.suppressible
    ]
    return PairReport(
        pair=pair,
        adjacent=bool(connecting),
        degenerate=degenerate,
        colorable_after_removal=removal_coloring is not None,
        flow_after_removal=removal_flow is not None,
        flow_after_identification=identification_flow is not None,
        flow_after_edge_deletion=(
            all(s.flow_after_deletion for s in per_edge) if per_edge else None
        ),
        flow_after_contraction=(
            all(s.flow_after_contraction for s in per_edge) if per_edge else None
        ),
        colorable_after_suppression=(
            all(suppression_verdicts) if suppression_verdicts else None
        ),
        per_edge=tuple(per_edge),
        removal_coloring=removal_coloring,
        removal_flow=removal_flow,
        identification_flow=identification_flow,
    )


# ----------------------------------------------------------------------
# classifiers

# pair enumeration is lexicographic by vertex id, so reports are reproducible


def _all_pairs(graph: CubicGraph) -> list[VertexPair]:
    return [VertexPair(u, v) for u, v in combinations(sorted(graph.vertices), 2)]


def _adjacent_pairs(graph: CubicGraph) -> list[VertexPair]:
    return [p for p in _all_pairs(graph) if graph.adjacent(p.u, p.v)]


def is_critical(graph: CubicGraph) -> bool:
    """Every adjacent pair's removal leaves a 3-edge-colorable graph."""
    _require_snark(graph)
    return all(
        three_edge_colorable(remove_vertex_pair(graph, p)) is not None
        for p in _adjacent_pairs(graph)
    )


def is_bicritical(graph: CubicGraph) -> bool:
    """Every distinct pair's removal leaves a 3-edge-colorable graph."""
    _require_snark(graph)
    return all(
        three_edge_colorable(remove_vertex_pair(graph, p)) is not None
        for p in _all_pairs(graph)
    )


def is_4_edge_critical(graph: CubicGraph) -> bool:
    """Every adjacent pair's identification admits a nowhere-zero 4-flow.

    Decided purely through the flow solver, independently of is_critical.
    """
    _require_snark(graph)
    return all(
        flow_on_identification(graph, p, Z4) is not None
        for p in _adjacent_pairs(graph)
    )


def is_4_vertex_critical(graph: CubicGraph) -> bool:
    """Every distinct pair's identification admits a nowhere-zero 4-flow."""
    _require_snark(graph)
    return all(
        flow_on_identification(graph, p, Z4) is not None for p in _all_pairs(graph)
    )


# ----------------------------------------------------------------------
# strength


@dataclass(frozen=True)
class EdgeStrongStatus:
    """Both strength routes for one non-loop edge."""

    edge_id: int
    pair: VertexPair
    suppressible: bool
    suppression_is_snark: Optional[bool]  # None when not suppressible
    removal_uncolorable: bool  # chromatic index 4 after removing the pair

    @property
    def verdict(self) -> bool:
        # the suppression route, falling back to the pair route when the
        # edge cannot be suppressed
        if self.suppressible:
            return bool(self.suppression_is_snark)
        return self.removal_uncolorable

    @property
    def routes_agree(self) -> Optional[bool]:
        if not self.suppressible:
            return None
        return self.suppression_is_snark == self.removal_uncolorable


@dataclass(frozen=True)
class StrongCertificate:
    order: int
    per_edge: tuple[EdgeStrongStatus, ...]
    loop_edges_skipped: int

    @property
    def suppression_route(self) -> bool:
        return all(s.verdict for s in self.per_edge)

    @property
    def pair_route(self) -> bool:
        return all(s.removal_uncolorable for s in self.per_edge)

    @property
    def routes_agree(self) -> bool:
        per_edge_ok = all(s.routes_agree is not False for s in self.per_edge)
        return per_edge_ok and self.suppression_route == self.pair_route

    @property
    def is_strong(self) -> bool:
        return self.suppression_route

    @property
    def non_suppressible_edges(self) -> tuple[int, ...]:
        return tuple(s.edge_id for s in self.per_edge if not s.suppressible)


def strong_certificate(graph: CubicGraph) -> StrongCertificate:
    """Compute strength by both routes, edge by edge.

    Route one suppresses each non-loop edge and asks whether the result is
    still a snark; route two removes the edge's endpoint pair and asks
    whether the rest has chromatic index 4.  Loops are skipped: they can
    neither be suppressed nor mapped to a vertex pair.
    """
    _require_snark(graph)
    removal_cache: dict[VertexPair, bool] = {}
    statuses = []
    loops_skipped = 0
    for e in graph.edges:
        if e.is_loop:
            loops_skipped += 1
            continue
        pair = VertexPair(e.a, e.b)
        if pair not in removal_cache:
            removal_cache[pair] = chromatic_index_is_4(remove_vertex_pair(graph, pair))
        try:
            suppressed = suppress_edge(graph, e.id)
        except NonSuppressibleError:
            suppressible = False
            suppressed_snark = None
        else:
            suppressible = True
            suppressed_snark = is_snark(suppressed)
        statuses.append(
            EdgeStrongStatus(
                edge_id=e.id,
                pair=pair,
                suppressible=suppressible,
                suppression_is_snark=suppressed_snark,
                removal_uncolorable=removal_cache[pair],
            )
        )
    return StrongCertificate(
        order=graph.order,
        per_edge=tuple(statuses),
        loop_edges_skipped=loops_skipped,
    )


def is_strong(graph: CubicGraph) -> bool:
    """True iff suppressing any edge leaves a snark; both routes must agree."""
    cert = strong_certificate(graph)
    if not cert.routes_agree:
        raise EquivalenceViolationError(
            "suppression route and adjacent-pair route disagree on strength"
        )
    return cert.is_strong


# ----------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class LocalEquivalenceCertificate:
    order: int
    reports: tuple[PairReport, ...]

    @property
    def pair_count(self) -> int:
        return len(self.reports)

    @property
    def consistent(self) -> bool:
        return all(r.consistent for r in self.reports)

    @property
    def inconsistent_pairs(self) -> tuple[VertexPair, ...]:
        return tuple(r.pair for r in self.reports if not r.consistent)

    @property
    def degenerate_pairs(self) -> tuple[VertexPair, ...]:
        return tuple(r.pair for r in self.reports if r.degenerate)


def verify_local_equivalence(graph: CubicGraph) -> LocalEquivalenceCertificate:
    """Check that the applicable statements agree on every pair of a snark.

    Never exits early: the certificate exists to confirm agreement
    everywhere.  Any inconsistent pair signals a solver bug.
    """
    _require_snark(graph)
    reports = tuple(_pair_status_unchecked(graph, p) for p in _all_pairs(graph))
    return LocalEquivalenceCertificate(order=graph.order, reports=reports)


@dataclass(frozen=True)
class CoincidenceCertificate:
    order: int
    critical: bool
    edge_flow_critical: bool
    bicritical: bool
    vertex_flow_critical: bool
    coloring_path_micros: int
    flow_path_micros: int

    @property
    def critical_coincides(self) -> bool:
        return self.critical == self.edge_flow_critical

    @property
    def bicritical_coincides(self) -> bool:
        return self.bicritical == self.vertex_flow_critical

    @property
    def consistent(self) -> bool:
        return self.critical_coincides and self.bicritical_coincides


def verify_classifier_coincidence(graph: CubicGraph) -> CoincidenceCertificate:
    """Run both classifier routes and time them against each other.

    The coloring route needs no orientation bookkeeping and forces each
    vertex's third color, so it is expected, not required, to be faster.
    """
    _require_snark(graph)
    t0 = time.perf_counter()
    critical = is_critical(graph)
    bicritical = is_bicritical(graph) if critical else False
    t1 = time.perf_counter()
    edge_flow_critical = is_4_edge_critical(graph)
    vertex_flow_critical = is_4_vertex_critical(graph) if edge_flow_critical else False
    t2 = time.perf_counter()
    return CoincidenceCertificate(
        order=graph.order,
        critical=critical,
        edge_flow_critical=edge_flow_critical,
        bicritical=bicritical,
        vertex_flow_critical=vertex_flow_critical,
        coloring_path_micros=int((t1 - t0) * 1e6),
        flow_path_micros=int((t2 - t1) * 1e6),
    )


# ----------------------------------------------------------------------
# whole-graph classification


@dataclass(frozen=True)
class ClassificationRecord:
    """Per-graph verdicts in the fixed order the reports serialize them."""

    graph_index: int
    order: int
    is_snark: bool
    girth: Union[int, float]
    cyclic_edge_connectivity: Optional[int]
    is_critical: Optional[bool]
    is_bicritical: Optional[bool]
    is_strictly_critical: Optional[bool]
    is_4_edge_critical: Optional[bool]
    is_4_vertex_critical: Optional[bool]
    is_strong: Optional[bool]
    coloring_path_micros: Optional[int]
    flow_path_micros: Optional[int]


def classify(graph: CubicGraph, graph_index: int = 0) -> ClassificationRecord:
    """Produce the full record for one graph.

    Non-snarks get structural data and None for every criticality verdict;
    the booleans would not mean anything for them.
    """
    profile = structure_profile(graph)
    status = snark_status(graph)
    if not status.verdict:
        return ClassificationRecord(
            graph_index=graph_index,
            order=graph.order,
            is_snark=False,
            girth=profile.girth,
            cyclic_edge_connectivity=profile.cyclic_edge_connectivity,
            is_critical=None,
            is_bicritical=None,
            is_strictly_critical=None,
            is_4_edge_critical=None,
            is_4_vertex_critical=None,
            is_strong=None,
            coloring_path_micros=None,
            flow_path_micros=None,
        )
    cert = verify_classifier_coincidence(graph)
    if not cert.consistent:
        raise EquivalenceViolationError(
            "criticality classifiers disagree between the coloring and flow routes"
        )
    strong = is_strong(graph)
    return ClassificationRecord(
        graph_index=graph_index,
        order=graph.order,
        is_snark=True,
        girth=profile.girth,
        cyclic_edge_connectivity=profile.cyclic_edge_connectivity,
        is_critical=cert.critical,
        is_bicritical=cert.bicritical,
        is_strictly_critical=cert.critical and not cert.bicritical,
        is_4_edge_critical=cert.edge_flow_critical,
        is_4_vertex_critical=cert.vertex_flow_critical,
        is_strong=strong,
        coloring_path_micros=cert.coloring_path_micros,
        flow_path_micros=cert.flow_path_micros,
    )
