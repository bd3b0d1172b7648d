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

Every derived-graph decision about one input graph goes through one
:class:`DecisionTable`, keyed by (surgery, pair or edge, solver), so the
classifiers that share a statement share its verdict instead of deciding it
again.  The table also hands each solver call the last witness of the same
surgery and solver as a hint for its value order; the solver is part of
every key, so no result crosses from one route into the other.
``classify`` and the CLI's ``verify-*`` path build one table per graph and
pass it to the classifiers, which build their own when called alone.  They
look up the solvers and surgery operations as globals of this module, where
the benchmark's tracer wraps them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Optional, Union

from .coloring import EdgeColoring, chromatic_index_is_4, three_edge_colorable
from .flows import Z4, FlowAssignment, flow_on_identification, nowhere_zero_flow
from .multigraph import (
    DANGLING,
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


def _bool(x) -> str:
    return "true" if x else "false"


# ----------------------------------------------------------------------
# snark recognition


@dataclass(frozen=True)
class SnarkStatus:
    verdict: bool
    reason: Optional[str]  # populated when the verdict is False


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


# ----------------------------------------------------------------------
# the decision table

# the surgeries and solvers that name a decision
REMOVAL = "removal"
IDENTIFICATION = "identification"
DELETION = "deletion"
CONTRACTION = "contraction"
SUPPRESSION = "suppression"
COLORING = "coloring"
FLOW = "flow"

Witness = Union[EdgeColoring, FlowAssignment]


class DecisionTable:
    """Every derived-graph decision about one parent graph, each made once.

    A verdict is keyed by (surgery, pair or edge id, solver).  Besides the
    verdicts the table keeps only the snark status of the parent and, per
    (surgery, solver), the assignment of the last witness found, which the
    next call of that solver on that surgery gets as its hint.  Witnesses
    and derived graphs are returned to the caller, never stored.
    """

    def __init__(self, graph: CubicGraph, status: Optional[SnarkStatus] = None):
        self.graph = graph
        self._status = status
        self.verdicts: dict[tuple, bool] = {}
        self._last: dict[tuple[str, str], dict[int, int]] = {}

    @property
    def status(self) -> SnarkStatus:
        if self._status is None:
            self._status = snark_status(self.graph)
        return self._status

    @cached_property
    def pairs(self) -> list[VertexPair]:
        """All vertex pairs, lexicographic by vertex id, so reports are reproducible."""
        return [VertexPair(u, v) for u, v in combinations(sorted(self.graph.vertices), 2)]

    @cached_property
    def adjacent_pairs(self) -> list[VertexPair]:
        """The pairs joined by an edge, in the same order."""
        ends = {
            (min(a, b), max(a, b))
            for _, a, b in self.graph.edges
            if a is not DANGLING and b is not DANGLING and a != b
        }
        return [VertexPair(u, v) for u, v in sorted(ends)]

    def require_snark(self) -> None:
        if not self.status.verdict:
            raise NotASnarkError(f"not a snark: {self.status.reason}")

    def decide(self, surgery: str, where, solver: str) -> Optional[Witness]:
        """Run ``solver`` on one derived graph, record the verdict, return the witness.

        ``where`` is a vertex pair for removal and identification, an edge
        id otherwise.  Suppression raises :class:`NonSuppressibleError`
        where it is undefined.
        """
        route = (surgery, solver)
        hint = self._last.get(route)
        graph = self.graph
        if surgery == IDENTIFICATION:
            witness = flow_on_identification(graph, where, Z4, hint=hint)
        else:
            if surgery == REMOVAL:
                derived = remove_vertex_pair(graph, where)
            elif surgery == DELETION:
                derived = delete_edge(graph, where)
            elif surgery == CONTRACTION:
                derived = contract_edge(graph, where)
            elif surgery == SUPPRESSION:
                derived = suppress_edge(graph, where)
            else:
                raise ValueError(f"unknown surgery {surgery!r}")
            if solver == COLORING:
                witness = three_edge_colorable(derived, hint=hint)
            else:
                witness = nowhere_zero_flow(derived, Z4, hint=hint)
        self.verdicts[(surgery, where, solver)] = witness is not None
        if witness is not None:
            self._last[route] = (
                witness.assignment if solver == COLORING else witness.values
            )
        return witness

    def verdict(self, surgery: str, where, solver: str) -> bool:
        """The recorded verdict, deciding it first if it is new."""
        key = (surgery, where, solver)
        if key not in self.verdicts:
            self.decide(surgery, where, solver)
        return self.verdicts[key]

    def uncolorable_after_removal(self, pair: VertexPair) -> bool:
        """Chromatic index 4 after removing ``pair``, from the removal coloring verdict.

        For the scans that need no witness (adjacent pairs, strength): a
        new verdict is decided through ``chromatic_index_is_4``, which keeps
        no witness to hint the next call with.
        """
        key = (REMOVAL, pair, COLORING)
        if key not in self.verdicts:
            hint = self._last.get((REMOVAL, COLORING))
            removed = remove_vertex_pair(self.graph, pair)
            self.verdicts[key] = not chromatic_index_is_4(removed, hint=hint)
        return not self.verdicts[key]


def _snark_table(graph: CubicGraph, table: Optional[DecisionTable]) -> DecisionTable:
    """The caller's table for ``graph``, or a new one; refuses non-snarks."""
    if table is None:
        table = DecisionTable(graph)
    elif table.graph is not graph:
        raise ValueError("the decision table belongs to another graph")
    table.require_snark()
    return table


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


def pair_status(
    graph: CubicGraph, pair: VertexPair, *, table: Optional[DecisionTable] = None
) -> PairReport:
    """Evaluate every applicable statement for one pair of a snark.

    Each statement runs through its own decision path; witnesses are kept,
    so every statement is decided afresh.  Refuses non-snarks, whose pairs
    the equivalence says nothing about.
    """
    return _pair_report(_snark_table(graph, table), pair)


def _pair_report(table: DecisionTable, pair: VertexPair) -> PairReport:
    graph = table.graph
    u, v = pair
    removal_coloring = table.decide(REMOVAL, pair, COLORING)
    removal_flow = table.decide(REMOVAL, pair, FLOW)
    identification_flow = table.decide(IDENTIFICATION, pair, FLOW)

    connecting = graph.connecting_edges(u, v)
    degenerate = bool(graph.loops_at(u) or graph.loops_at(v) or len(connecting) > 1)

    per_edge = []
    for eid in connecting:
        deletion_flow = table.decide(DELETION, eid, FLOW)
        contraction_flow = table.decide(CONTRACTION, eid, FLOW)
        try:
            suppression_coloring = table.decide(SUPPRESSION, eid, COLORING)
        except NonSuppressibleError:
            suppressible = False
            suppression_coloring = None
        else:
            suppressible = True
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
# classifiers; each reads its statements from the table


def is_critical(graph: CubicGraph, *, table: Optional[DecisionTable] = None) -> bool:
    """Every adjacent pair's removal leaves a 3-edge-colorable graph."""
    table = _snark_table(graph, table)
    return not any(table.uncolorable_after_removal(p) for p in table.adjacent_pairs)


def is_bicritical(graph: CubicGraph, *, table: Optional[DecisionTable] = None) -> bool:
    """Every distinct pair's removal leaves a 3-edge-colorable graph."""
    table = _snark_table(graph, table)
    return all(table.verdict(REMOVAL, p, COLORING) for p in table.pairs)


def is_4_edge_critical(
    graph: CubicGraph, *, table: Optional[DecisionTable] = None
) -> bool:
    """Every adjacent pair's identification admits a nowhere-zero 4-flow.

    Decided purely through the flow solver, independently of is_critical.
    """
    table = _snark_table(graph, table)
    return all(table.verdict(IDENTIFICATION, p, FLOW) for p in table.adjacent_pairs)


def is_4_vertex_critical(
    graph: CubicGraph, *, table: Optional[DecisionTable] = None
) -> bool:
    """Every distinct pair's identification admits a nowhere-zero 4-flow."""
    table = _snark_table(graph, table)
    return all(table.verdict(IDENTIFICATION, p, FLOW) for p in table.pairs)


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


def strong_certificate(
    graph: CubicGraph, *, table: Optional[DecisionTable] = None
) -> StrongCertificate:
    """Compute strength by both routes, edge by edge.

    Route one suppresses each non-loop edge and asks whether the result is
    still a snark; route two removes the edge's endpoint pair and asks
    whether the rest has chromatic index 4, a verdict the table shares with
    the coloring route.  Loops are skipped: they can neither be suppressed
    nor mapped to a vertex pair.
    """
    table = _snark_table(graph, table)
    statuses = []
    loops_skipped = 0
    for e in graph.edges:
        if e.is_loop:
            loops_skipped += 1
            continue
        pair = VertexPair(e.a, e.b)
        removal_uncolorable = table.uncolorable_after_removal(pair)
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
                removal_uncolorable=removal_uncolorable,
            )
        )
    return StrongCertificate(
        order=graph.order,
        per_edge=tuple(statuses),
        loop_edges_skipped=loops_skipped,
    )


def is_strong(graph: CubicGraph, *, table: Optional[DecisionTable] = None) -> bool:
    """True iff suppressing any edge leaves a snark; both routes must agree."""
    cert = strong_certificate(graph, table=table)
    if not cert.routes_agree:
        raise EquivalenceViolationError(
            "suppression route and adjacent-pair route disagree on strength: "
            f"strong={_bool(cert.suppression_route)} by suppression, "
            f"strong={_bool(cert.pair_route)} by adjacent pairs"
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


def verify_local_equivalence(
    graph: CubicGraph, *, table: Optional[DecisionTable] = None
) -> LocalEquivalenceCertificate:
    """Check that the applicable statements agree on every pair of a snark.

    Never exits early: the certificate exists to confirm agreement
    everywhere.  Any inconsistent pair signals a solver bug.
    """
    table = _snark_table(graph, table)
    reports = tuple(_pair_report(table, p) for p in table.pairs)
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

    def disagreements(self) -> tuple[str, ...]:
        """Each pair of coinciding classifiers that disagrees, with both values."""
        pairs = (
            ("critical", self.critical, "4-edge-critical", self.edge_flow_critical),
            ("bicritical", self.bicritical, "4-vertex-critical", self.vertex_flow_critical),
        )
        return tuple(
            f"{a}={_bool(x)} but {b}={_bool(y)}" for a, x, b, y in pairs if x != y
        )


def verify_classifier_coincidence(
    graph: CubicGraph, *, table: Optional[DecisionTable] = None
) -> CoincidenceCertificate:
    """Run both classifier routes and time them against each other.

    The coloring route needs no orientation bookkeeping and forces each
    vertex's third color, so it is expected, not required, to be faster.
    """
    table = _snark_table(graph, table)
    t0 = time.perf_counter()
    critical = is_critical(graph, table=table)
    bicritical = is_bicritical(graph, table=table) if critical else False
    t1 = time.perf_counter()
    edge_flow_critical = is_4_edge_critical(graph, table=table)
    vertex_flow_critical = (
        is_4_vertex_critical(graph, table=table) if edge_flow_critical else False
    )
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
    the booleans would not mean anything for them.  The classifiers share
    one decision table, which keeps verdicts only.
    """
    profile = structure_profile(graph)
    table = DecisionTable(graph, snark_status(graph))
    if not table.status.verdict:
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
    cert = verify_classifier_coincidence(graph, table=table)
    if not cert.consistent:
        raise EquivalenceViolationError(
            "criticality classifiers disagree between the coloring and flow routes: "
            + "; ".join(cert.disagreements())
        )
    strong = is_strong(graph, table=table)
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
