"""The package's module layering, read from the import statements."""

from __future__ import annotations

import ast
from pathlib import Path

import snarkcrit

PACKAGE = Path(snarkcrit.__file__).parent


def package_imports(module: str) -> set[str]:
    """The snarkcrit modules that ``module`` imports, anywhere in its code."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # absolute names; ``from . import x`` names the module x
            base = "snarkcrit" if node.level else ""
            base = ".".join(filter(None, (base, node.module)))
            names = [f"{base}.{a.name}" for a in node.names] if base == "snarkcrit" else [base]
        else:
            continue
        found.update(name.split(".")[1] for name in names if name.startswith("snarkcrit."))
    return found


def test_the_model_imports_nothing_from_the_package():
    assert package_imports("multigraph") == set()


def test_solvers_structure_and_io_import_only_the_model():
    for module in ("coloring", "flows", "structure", "graph_io"):
        assert package_imports(module) == {"multigraph"}, module


def test_the_classifier_imports_neither_io_nor_the_cli():
    assert package_imports("criticality").isdisjoint({"graph_io", "cli"})
