"""Fault injection at the decision seam, for the tests of the violation paths.

:meth:`DecisionTable.decide` is the one place where a derived-graph verdict
is recorded, whether a solver or a checked transported witness settled it,
so a fault injected there reaches every command the same way.
"""

from __future__ import annotations

from typing import Callable, Optional

from snarkcrit.criticality import DecisionTable


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
