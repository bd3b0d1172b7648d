"""Fault injection at the decision seam, for the tests of the violation paths.

:meth:`DecisionTable.decide` is the one place where a derived-graph verdict
is recorded, whether a solver or a checked transported witness settled it,
so a fault injected there reaches every command the same way.  The snark
test of the parent graph is the one other solver verdict, and its fault
inverts what :func:`snark_status` reads from one solver.  The other faults
break what ``decide`` only uses to save work, a transported witness or a
solver's hint, and must change no verdict.
"""

from __future__ import annotations

from typing import Callable, Optional

from snarkcrit import coloring, criticality, flows
from snarkcrit.criticality import COLORING, DecisionTable


def deny_decision(
    monkeypatch, key: tuple, only_on: Optional[Callable] = None
) -> None:
    """Make ``decide`` record False and return no witness for ``key``.

    ``only_on``, when given, limits the fault to the parent graphs it
    accepts.  The real decision runs first, so everything else it records
    stays as it was.
    """
    real = DecisionTable.decide

    def decide(self, surgery, where, solver):
        witness = real(self, surgery, where, solver)
        if (surgery, where, solver) != key:
            return witness
        if only_on is not None and not only_on(self.graph):
            return witness
        self.verdicts[key] = False
        return None

    monkeypatch.setattr(DecisionTable, "decide", decide)


def invert_snark_test(monkeypatch, solver: str) -> None:
    """Invert the verdict :func:`snark_status` reads from ``solver``.

    Wraps the solver under its name in ``criticality``, where only
    ``snark_status`` looks it up; ``decide`` reaches the solvers through
    their modules, so every derived-graph decision stays as it was.  A
    graph with a witness gets none, and one without gets an empty one.
    """
    name = "three_edge_colorable" if solver == COLORING else "nowhere_zero_flow"
    real = getattr(criticality, name)

    def inverted(graph):
        return None if real(graph) is not None else {}

    monkeypatch.setattr(criticality, name, inverted)


def corrupt_transported(monkeypatch) -> list:
    """Break every transported witness before its check; returns the accepted ones.

    Each candidate gets one more move, which sets the first edge of the
    derived graph to 0, a value that neither a coloring nor a nowhere-zero
    flow may take.  Flipping a value of the lifted witness would not do: a
    later move can overwrite it, and on a loop any value passes.
    """
    real = DecisionTable._transported
    accepted = []

    def transported(self, key, derived, candidate):
        lifted, moves = candidate
        broken = (lifted, moves + ((derived.edges[0].id, 0),))
        witness = real(self, key, derived, broken)
        if witness is not None:
            accepted.append(key)
        return witness

    monkeypatch.setattr(DecisionTable, "_transported", transported)
    return accepted


def scramble_hints(monkeypatch) -> None:
    """Map each hinted value v to v % 3 + 1 in every hinted solver call.

    Wraps the two solvers where :meth:`DecisionTable.decide` looks them up.
    A hint orders the search only, so no verdict may change.
    """
    for module, name in ((coloring, "three_edge_colorable"), (flows, "nowhere_zero_flow")):
        real = getattr(module, name)

        def scrambled(graph, *, hint=None, real=real):
            if hint is not None:
                hint = {eid: v % 3 + 1 for eid, v in hint.items()}
            return real(graph, hint=hint)

        monkeypatch.setattr(module, name, scrambled)
