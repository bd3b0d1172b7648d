"""Criticality classifiers for snarks, computed along two independent routes.

A snark is a connected cubic graph with no proper 3-edge-coloring,
equivalently no nowhere-zero 4-flow; both characterizations are computed
here and must agree, a disagreement being an implementation bug rather
than a property of the input.

For a pair of distinct vertices each of the six local statements below is
decided on its own derived graph, by its own solver or by a witness checked
on that graph; on a snark the defined ones must agree, which
:func:`verify_local_equivalence` certifies pair by pair:

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
their coincidence is a meaningful cross-check of both solvers.  Strength
reads each edge's suppression, under both solvers, and its removal coloring.

Every derived-graph decision about one input graph goes through one
:class:`DecisionTable`, keyed by (surgery, pair or edge, solver), so the
classifiers that share a statement share its verdict instead of deciding it
again.  The table builds each derived graph once for both of its solvers,
and hands each solver call the last witness of the same surgery and solver
as a hint for its value order.  On the three pair routes it also walks each
solver witness to other pairs: the witness, read on the whole parent graph,
is proper except at the pair's two vertices, and changing one edge at one
of them moves that defect to the edge's other end.  Each pair reached gets
a candidate witness, which settles the pair only after it passed the check
of the pair's own derived graph; a pair without one, or whose candidate
fails, goes to the solver, so every negative verdict is a solver's.  The
solver is part of every key, and neither hints nor walks leave their
(surgery, solver), so no result crosses from one route into the other.
``classify`` and the CLI's ``verify-*`` path build one table per graph and
pass it to the classifiers, which build their own when called alone.

Only :func:`snark_status`, on the graph it is handed, and
:meth:`DecisionTable.decide`, on every derived graph, run a solver.  The
benchmark's tracer wraps the solvers and surgeries where they are looked
up, and requires a call at each name:
``snark_status`` calls this module's ``three_edge_colorable`` and
``nowhere_zero_flow``, which every command reaches; ``decide`` calls
``coloring.three_edge_colorable`` and ``flows.nowhere_zero_flow`` through
their modules, builds identifications through ``flows.identify_vertices``
and the other derived graphs through this module's names.

:func:`write_records` writes a :class:`ClassificationRecord` as one CSV row,
its fields in order as the columns, or as one JSON object per line.  A CSV
boolean is ``true`` or ``false`` through ``_bool``, as in the report lines;
None and an infinite girth are empty cells or JSON nulls.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields, replace
from functools import cached_property
from itertools import combinations
from operator import itemgetter
from typing import Iterable, Optional, Union

from . import coloring, flows
from .coloring import is_proper_coloring, three_edge_colorable
from .flows import nowhere_zero_flow, verify_kirchhoff
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
    has_flow = nowhere_zero_flow(graph) is not None
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

_ID = itemgetter(0)

# the pair routes whose witnesses are walked to neighbouring pairs
_WALKED = ((REMOVAL, COLORING), (REMOVAL, FLOW), (IDENTIFICATION, FLOW))

#: Transported witnesses checked by :meth:`DecisionTable.decide`, summed
#: over every table in this process.
witness_checks = 0


class DecisionTable:
    """Every derived-graph decision about one parent graph, each made once.

    A verdict is keyed by (surgery, pair or edge id, solver).  Besides the
    verdicts the table keeps the snark status of the parent; per (surgery,
    solver), the last witness found, which the next solver call of that
    surgery and solver gets as its hint; the last derived graph built, which
    the next decision at the same place reuses; and at most one transported
    witness per undecided key of a pair route.  A witness is one nonzero
    value per edge id: a color in 1, 2, 3, which are the nonzero elements of
    Z2 x Z2 under XOR, or a Z4 value.

    A witness on a pair route is walked to neighbouring pairs.  Lifted to
    every edge of the parent (a flow with no sign change, since every
    surgery keeps each surviving edge's slots), it is proper (for a
    coloring) or balanced (for a flow) at every vertex but the pair's two,
    where its defects are: the color sum, or the net outflow, which is the
    same nonzero value at both ends of the pair, up to sign.  At a defect d,
    changing the value of one edge dw makes d proper and moves the defect to
    w: a coloring recolors dw with the sum of the two other colors at d,
    which must differ; a flow adds or subtracts d's net outflow on dw, which
    must not become 0.  The result is a candidate witness for the pair of
    the other defect and w, of the same surgery and solver.  This is the
    parity argument of the snark literature (Nedela and Skoviera, J. Graph
    Theory 1996).  ``decide`` settles a key by its candidate only after the
    candidate passed the check of the key's own derived graph
    (:func:`is_proper_coloring`, or every value nonzero and
    :func:`verify_kirchhoff`), as a certifying algorithm does (McConnell,
    Mehlhorn, Naher and Schweitzer, Comput. Sci. Rev. 2011).
    A rejected candidate, and every key without one, goes to the solver, so
    every negative verdict is a solver's.
    """

    def __init__(self, graph: CubicGraph, status: Optional[SnarkStatus] = None):
        self.graph = graph
        self._status = status
        self.verdicts: dict[tuple, bool] = {}
        self._last: dict[tuple[str, str], dict[int, int]] = {}
        # key -> (a witness's values on every parent edge, the moves (edge
        # id, new value) that take it to the key's pair)
        self._candidates: dict[tuple, tuple[dict[int, int], tuple]] = {}
        self._derived: tuple = (None, None)  # ((surgery, where), derived graph)

    @property
    def status(self) -> SnarkStatus:
        if self._status is None:
            self._status = snark_status(self.graph)
        return self._status

    @cached_property
    def _walkable(self) -> bool:
        """A walk reads each defect's three parent edges: a cubic parent, no loops, no stubs."""
        graph = self.graph
        return (
            graph.is_cubic
            and not graph.has_dangling
            and not any(e.is_loop for e in graph.edges)
        )

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

    def decide(self, surgery: str, where, solver: str) -> Optional[dict[int, int]]:
        """Decide one derived graph, record the verdict, return the witness.

        ``where`` is a vertex pair for removal and identification, an edge
        id otherwise.  The witness is a coloring or a flow of the derived
        graph, edge id -> nonzero value, or None when there is none.  The
        key's transported witness settles it if it passes its check;
        otherwise ``solver`` runs.  Suppression raises
        :class:`NonSuppressibleError` where it is undefined.
        """
        key = (surgery, where, solver)
        route = (surgery, solver)
        derived = self._derived_graph(surgery, where)
        candidate = self._candidates.pop(key, None)
        witness = candidate and self._transported(key, derived, candidate)
        solved = witness is None
        if solved:
            hint = self._last.get(route)
            if solver == COLORING:
                witness = coloring.three_edge_colorable(derived, hint=hint)
            else:
                witness = flows.nowhere_zero_flow(derived, hint=hint)
        self.verdicts[key] = witness is not None
        if witness is not None:
            self._last[route] = witness
            if solved and self._walkable and route in _WALKED:
                self._walk(surgery, where, solver, witness)
        return witness

    def verdict(self, surgery: str, where, solver: str) -> bool:
        """The recorded verdict, deciding it first if it is new."""
        key = (surgery, where, solver)
        if key not in self.verdicts:
            self.decide(surgery, where, solver)
        return self.verdicts[key]

    def _derived_graph(self, surgery: str, where) -> CubicGraph:
        """The graph ``surgery`` derives at ``where``, built once for both solvers.

        Only the last one built is kept.  Identifications are built through
        ``flows.identify_vertices``, the other surgeries through this
        module's names.
        """
        place, derived = self._derived
        if place == (surgery, where):
            return derived
        graph = self.graph
        if surgery == REMOVAL:
            derived = remove_vertex_pair(graph, where)
        elif surgery == IDENTIFICATION:
            derived = flows.identify_vertices(graph, where)
        elif surgery == DELETION:
            derived = delete_edge(graph, where)
        elif surgery == CONTRACTION:
            derived = contract_edge(graph, where)
        elif surgery == SUPPRESSION:
            derived = suppress_edge(graph, where)
        else:
            raise ValueError(f"unknown surgery {surgery!r}")
        self._derived = ((surgery, where), derived)
        return derived

    def _transported(
        self, key: tuple, derived: CubicGraph, candidate: tuple
    ) -> Optional[dict[int, int]]:
        """The key's candidate as a witness on ``derived``, if it passes the check."""
        global witness_checks
        witness_checks += 1
        lifted, moves = candidate
        ids = tuple(map(_ID, derived.edges))
        values = dict(zip(ids, map(lifted.__getitem__, ids)))
        for eid, x in moves:
            if eid in values:
                values[eid] = x
        if key[2] == COLORING:
            ok = is_proper_coloring(derived, values)
        else:
            ok = all(values.values()) and verify_kirchhoff(derived, values)
        return values if ok else None

    def _walk(self, surgery: str, where: VertexPair, solver: str, values) -> None:
        """Store a candidate for every pair that defect moves reach from ``where``.

        A breadth-first search over pairs, from the witness ``values`` on
        the derived graph at ``where``, lifted to every parent edge.  It
        passes only through pairs with neither a verdict nor a candidate,
        and a candidate is a lifted witness with the moves (edge id, new
        value) that lead to its pair.
        """
        incident_edges = self.graph.incident_edges
        verdicts = self.verdicts
        candidates = self._candidates
        u, v = where
        queue = [(u, v, lifted, ()) for lifted in self._lifted(solver, u, v, values)]
        for u, v, lifted, moves in queue:
            changed = dict(moves)
            for d, other in ((v, u), (u, v)):
                incident = [
                    (eid, a, b, changed.get(eid) or lifted[eid])
                    for eid, a, b in incident_edges(d)
                ]
                if solver == COLORING:
                    s = incident[0][3] ^ incident[1][3] ^ incident[2][3]
                else:  # d's net outflow
                    s = sum(x if a == d else -x for _, a, _, x in incident) % 4
                if not s:
                    continue
                for eid, a, b, x in incident:
                    w = b if a == d else a
                    if w == other:
                        continue
                    if solver == COLORING:
                        new = x ^ s
                    else:
                        new = (x - s if a == d else x + s) % 4
                    if not new:
                        continue
                    # a plain tuple finds the VertexPair key it equals
                    pair = (other, w) if other < w else (w, other)
                    key = (surgery, pair, solver)
                    if key in verdicts or key in candidates:
                        continue
                    step = moves + ((eid, new),)
                    candidates[(surgery, VertexPair(*pair), solver)] = (lifted, step)
                    queue.append((other, w, lifted, step))

    def _lifted(self, solver: str, u: int, v: int, values) -> list[dict[int, int]]:
        """The witness ``values`` of the pair (u, v), read on every parent edge.

        Surgery keeps every surviving edge's slots, so a flow reads on the
        parent with no sign change.  The derived graph either drops the edges
        joining u and v or makes them loops, so their values are free, and
        there is one lift per choice: each nonzero value, or each color of a
        single joining edge that keeps the defects nonzero.  Two parallel
        joining edges are not colored.
        """
        graph = self.graph
        joining = graph.connecting_edges(u, v)
        if not joining:
            return [values]
        if solver == COLORING:
            if len(joining) > 1:
                return []
            a1, a2 = (values[e.id] for e in graph.incident_edges(u) if e.id != joining[0])
            choices = [c for c in (1, 2, 3) if c != a1 ^ a2]
        else:
            choices = (1, 2, 3)
        return [{**values, **dict.fromkeys(joining, c)} for c in choices]


def _snark_table(graph: CubicGraph, table: Optional[DecisionTable]) -> DecisionTable:
    """The caller's table for ``graph``, or a new one; refuses non-snarks."""
    if table is None:
        table = DecisionTable(graph)
    elif table.graph is not graph:
        raise ValueError("the decision table belongs to another graph")
    if not table.status.verdict:
        raise NotASnarkError(f"not a snark: {table.status.reason}")
    return table


# ----------------------------------------------------------------------
# per-pair status


@dataclass(frozen=True)
class PairReport:
    """The verdicts of all statements that apply to one vertex pair.

    ``values`` holds (statement name, verdict) in the fixed order of
    :meth:`statements`; witnesses are not kept, :meth:`DecisionTable.decide`
    returns them.  ``degenerate`` flags pairs whose removal deleted loops or
    more than one connecting edge; for such inputs the removal convention
    (delete, do not keep free stubs) can matter, so reports surface it.
    """

    pair: VertexPair
    degenerate: bool
    values: tuple[tuple[str, bool], ...]

    def statements(self) -> dict[str, bool]:
        """The statements that are present for this pair."""
        return dict(self.values)

    @property
    def consistent(self) -> bool:
        return len(set(self.statements().values())) <= 1


def _pair_report(table: DecisionTable, pair: VertexPair) -> PairReport:
    """Decide the pair's statements in a fixed order, so hints repeat.

    An adjacent pair's per-edge verdicts are ANDed over its connecting
    edges; suppression is left out when no connecting edge can be suppressed.
    """
    graph = table.graph
    u, v = pair
    values = [
        ("colorable_after_removal", table.verdict(REMOVAL, pair, COLORING)),
        ("flow_after_removal", table.verdict(REMOVAL, pair, FLOW)),
        ("flow_after_identification", table.verdict(IDENTIFICATION, pair, FLOW)),
    ]
    connecting = graph.connecting_edges(u, v)
    deletion, contraction, suppression = [], [], []
    for eid in connecting:
        deletion.append(table.verdict(DELETION, eid, FLOW))
        contraction.append(table.verdict(CONTRACTION, eid, FLOW))
        try:
            suppression.append(table.verdict(SUPPRESSION, eid, COLORING))
        except NonSuppressibleError:
            pass
    if connecting:
        values.append(("flow_after_edge_deletion", all(deletion)))
        values.append(("flow_after_contraction", all(contraction)))
    if suppression:
        values.append(("colorable_after_suppression", all(suppression)))
    return PairReport(
        pair=pair,
        degenerate=bool(graph.loops_at(u) or graph.loops_at(v) or len(connecting) > 1),
        values=tuple(values),
    )


# ----------------------------------------------------------------------
# classifiers; each reads its statements from the table


def is_critical(graph: CubicGraph, *, table: Optional[DecisionTable] = None) -> bool:
    """Every adjacent pair's removal leaves a 3-edge-colorable graph."""
    table = _snark_table(graph, table)
    return all(table.verdict(REMOVAL, p, COLORING) for p in table.adjacent_pairs)


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
    suppression_uncolorable: Optional[bool]  # None when not suppressible
    removal_uncolorable: bool  # chromatic index 4 after removing the pair


@dataclass(frozen=True)
class StrongCertificate:
    per_edge: tuple[EdgeStrongStatus, ...]  # one per non-loop edge

    @property
    def is_strong(self) -> bool:
        # each edge's suppression route, or its pair route where there is none
        return all(
            s.removal_uncolorable
            if s.suppression_uncolorable is None
            else s.suppression_uncolorable
            for s in self.per_edge
        )

    @property
    def routes_agree(self) -> bool:
        # where every suppressible edge agrees, each edge's verdict equals its
        # pair route, so the two routes' totals agree as well
        return all(
            s.suppression_uncolorable in (None, s.removal_uncolorable)
            for s in self.per_edge
        )

    @property
    def non_suppressible_edges(self) -> tuple[int, ...]:
        return tuple(
            s.edge_id for s in self.per_edge if s.suppression_uncolorable is None
        )

    def disagreements(self) -> tuple[str, ...]:
        """Each edge whose two routes disagree, with both values."""
        return tuple(
            f"edge {s.edge_id} "
            f"suppression_uncolorable={_bool(s.suppression_uncolorable)} "
            f"removal_uncolorable={_bool(s.removal_uncolorable)}"
            for s in self.per_edge
            if s.suppression_uncolorable not in (None, s.removal_uncolorable)
        )


def strong_certificate(
    graph: CubicGraph, *, table: Optional[DecisionTable] = None
) -> StrongCertificate:
    """Compute strength by both routes, edge by edge, from the table.

    Route one asks whether each non-loop edge's suppression is uncolorable,
    by both solvers, and raises naming the edge if they disagree; not
    whether it is a snark, as suppressing a bridge disconnects.  Route two
    asks whether removing the edge's endpoint pair leaves chromatic index 4;
    on a snark the parity lemma makes them agree.  Loops are skipped: they
    can neither be suppressed nor mapped to a vertex pair.
    """
    table = _snark_table(graph, table)
    statuses = []
    for e in graph.edges:
        if e.is_loop:
            continue
        removal_uncolorable = not table.verdict(REMOVAL, VertexPair(e.a, e.b), COLORING)
        try:
            colorable = table.verdict(SUPPRESSION, e.id, COLORING)
        except NonSuppressibleError:
            uncolorable = None
        else:
            has_flow = table.verdict(SUPPRESSION, e.id, FLOW)
            if colorable != has_flow:
                raise EquivalenceViolationError(
                    f"edge {e.id} colorable_after_suppression={_bool(colorable)} "
                    f"flow_after_suppression={_bool(has_flow)}"
                )
            uncolorable = not colorable
        statuses.append(EdgeStrongStatus(e.id, uncolorable, removal_uncolorable))
    return StrongCertificate(per_edge=tuple(statuses))


def is_strong(graph: CubicGraph, *, table: Optional[DecisionTable] = None) -> bool:
    """True iff no edge's suppression is 3-edge-colorable; both routes must agree."""
    cert = strong_certificate(graph, table=table)
    if not cert.routes_agree:
        raise EquivalenceViolationError(
            "suppression route and adjacent-pair route disagree on strength: "
            + "; ".join(cert.disagreements())
        )
    return cert.is_strong


# ----------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class LocalEquivalenceCertificate:
    reports: tuple[PairReport, ...]

    @property
    def pair_count(self) -> int:
        return len(self.reports)

    @property
    def consistent(self) -> bool:
        return all(r.consistent for r in self.reports)

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
    return LocalEquivalenceCertificate(reports=reports)


@dataclass(frozen=True)
class CoincidenceCertificate:
    critical: bool
    edge_flow_critical: bool
    bicritical: bool
    vertex_flow_critical: bool
    coloring_path_micros: int
    flow_path_micros: int
    # per classifier pair that disagrees, the first adjacent or any vertex pair
    # whose colorable_after_removal and flow_after_identification differ
    splits: tuple[Optional[VertexPair], Optional[VertexPair]]

    @property
    def consistent(self) -> bool:
        return (
            self.critical == self.edge_flow_critical
            and self.bicritical == self.vertex_flow_critical
        )

    def disagreements(self) -> tuple[str, ...]:
        """Each disagreeing pair of coinciding classifiers, with both values and
        its split pair, where each statement has its classifier's value."""
        pairs = (
            ("critical", self.critical, "4-edge-critical", self.edge_flow_critical),
            ("bicritical", self.bicritical, "4-vertex-critical", self.vertex_flow_critical),
        )
        return tuple(
            f"{a}={_bool(x)} but {b}={_bool(y)} at pair ({p.u}, {p.v}): "
            f"colorable_after_removal={_bool(x)} flow_after_identification={_bool(y)}"
            for (a, x, b, y), p in zip(pairs, self.splits)
            if x != y
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

    def split(pairs: list[VertexPair]) -> Optional[VertexPair]:
        for p in pairs:
            if table.verdict(REMOVAL, p, COLORING) != table.verdict(IDENTIFICATION, p, FLOW):
                return p

    return CoincidenceCertificate(
        critical=critical,
        edge_flow_critical=edge_flow_critical,
        bicritical=bicritical,
        vertex_flow_critical=vertex_flow_critical,
        coloring_path_micros=int((t1 - t0) * 1e6),
        flow_path_micros=int((t2 - t1) * 1e6),
        splits=(
            None if critical == edge_flow_critical else split(table.adjacent_pairs),
            None if bicritical == vertex_flow_critical else split(table.pairs),
        ),
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
    # None for a non-snark
    is_critical: Optional[bool] = None
    is_bicritical: Optional[bool] = None
    is_strictly_critical: Optional[bool] = None
    is_4_edge_critical: Optional[bool] = None
    is_4_vertex_critical: Optional[bool] = None
    is_strong: Optional[bool] = None
    coloring_path_micros: Optional[int] = None
    flow_path_micros: Optional[int] = None


CSV_COLUMNS = tuple(f.name for f in fields(ClassificationRecord))


def _json_value(value):
    return None if isinstance(value, float) and math.isinf(value) else value


def _cell(value) -> str:
    if isinstance(value, bool):
        return _bool(value)
    value = _json_value(value)
    return "" if value is None else str(value)


def write_records(records: Iterable[ClassificationRecord], format: str = "csv") -> bytes:
    """Serialize records deterministically, in the forms the module docstring gives.

    No cell holds a comma, a quote or a line break, so CSV needs no quoting.
    """
    rows = [[getattr(r, col) for col in CSV_COLUMNS] for r in records]
    if format == "csv":
        lines = [",".join(CSV_COLUMNS)] + [",".join(map(_cell, row)) for row in rows]
    elif format == "jsonl":
        import json

        lines = [json.dumps(dict(zip(CSV_COLUMNS, map(_json_value, row)))) for row in rows]
    else:
        raise ValueError(f"unknown format {format!r}")
    return "".join(line + "\n" for line in lines).encode("utf-8")


def classify(graph: CubicGraph, graph_index: int = 0) -> ClassificationRecord:
    """Produce the full record for one graph.

    Non-snarks get structural data and None for every criticality verdict;
    the booleans would not mean anything for them.  The classifiers share
    one decision table, which keeps verdicts only.
    """
    profile = structure_profile(graph)
    record = ClassificationRecord(
        graph_index=graph_index,
        order=graph.order,
        is_snark=False,
        girth=profile.girth,
        cyclic_edge_connectivity=profile.cyclic_edge_connectivity,
    )
    table = DecisionTable(graph, snark_status(graph))
    if not table.status.verdict:
        return record
    cert = verify_classifier_coincidence(graph, table=table)
    if not cert.consistent:
        raise EquivalenceViolationError(
            "criticality classifiers disagree between the coloring and flow routes: "
            + "; ".join(cert.disagreements())
        )
    return replace(
        record,
        is_snark=True,
        is_critical=cert.critical,
        is_bicritical=cert.bicritical,
        is_strictly_critical=cert.critical and not cert.bicritical,
        is_4_edge_critical=cert.edge_flow_critical,
        is_4_vertex_critical=cert.vertex_flow_critical,
        is_strong=is_strong(graph, table=table),
        coloring_path_micros=cert.coloring_path_micros,
        flow_path_micros=cert.flow_path_micros,
    )
