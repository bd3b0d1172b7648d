"""Outside-in tracing of the snarkcrit CLI, for the benchmark's per-layer numbers.

Usage::

    PYTHONPATH=src python3 bench/tracing.py --spans SPANS.json --output OUT -- CLI-ARGS...

runs ``snarkcrit.cli.main(CLI-ARGS)`` in this process with wrappers around
the package's public functions, writes the program's standard output to
OUT and the recorded spans to SPANS.json, then removes the wrappers.  The
program itself carries no instrumentation; :data:`SITES` lists every name
that is wrapped, at the module where callers look it up (``criticality``
binds the names it imports, so wrapping only the defining module would
miss its calls).

Each span is ``(site, start, end, parent, graph, size)``: the site index, the
``perf_counter`` interval, the index of the enclosing span (or -1), the
graph6 line number of the input graph being processed, and the length of
the result where :data:`SITES` asks for it.  Solver sites also record
whether the call repeats an earlier one on the same input graph: the same
solver and group on a derived graph equal to one already decided.

Pool workers do not inherit spans, so traced runs use ``--jobs 1``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import json
import statistics
import sys
import time
from collections import defaultdict

# (module, attribute, span label).  The label's first part is the layer.
SITES = (
    ("snarkcrit.cli", "parse_graph6", "graph_io.parse_graph6"),
    ("snarkcrit.graph_io", "parse_graph6", "graph_io.parse_graph6"),
    ("snarkcrit.cli", "write_records", "graph_io.write_records"),
    ("snarkcrit.cli", "classify", "criticality.classify"),
    ("snarkcrit.cli", "snark_status", "criticality.snark_status"),
    ("snarkcrit.criticality", "snark_status", "criticality.snark_status"),
    ("snarkcrit.criticality", "is_critical", "criticality.is_critical"),
    ("snarkcrit.criticality", "is_bicritical", "criticality.is_bicritical"),
    ("snarkcrit.criticality", "is_4_edge_critical", "criticality.is_4_edge_critical"),
    ("snarkcrit.criticality", "is_4_vertex_critical", "criticality.is_4_vertex_critical"),
    ("snarkcrit.criticality", "strong_certificate", "criticality.strong_certificate"),
    ("snarkcrit.cli", "verify_local_equivalence", "criticality.verify_local_equivalence"),
    ("snarkcrit.criticality", "structure_profile", "structure.structure_profile"),
    ("snarkcrit.structure", "cyclic_edge_connectivity", "structure.cyclic_edge_connectivity"),
    ("snarkcrit.structure", "chordless_cycles", "structure.chordless_cycles"),
    ("snarkcrit.structure", "girth", "structure.girth"),
    ("snarkcrit.structure", "find_bridges", "structure.find_bridges"),
    ("snarkcrit.criticality", "three_edge_colorable", "coloring.three_edge_colorable"),
    ("snarkcrit.coloring", "three_edge_colorable", "coloring.three_edge_colorable"),
    ("snarkcrit.criticality", "nowhere_zero_flow", "flows.nowhere_zero_flow"),
    ("snarkcrit.flows", "nowhere_zero_flow", "flows.nowhere_zero_flow"),
    ("snarkcrit.criticality", "remove_vertex_pair", "multigraph.remove_vertex_pair"),
    ("snarkcrit.flows", "identify_vertices", "multigraph.identify_vertices"),
    ("snarkcrit.criticality", "delete_edge", "multigraph.delete_edge"),
    ("snarkcrit.criticality", "contract_edge", "multigraph.contract_edge"),
    ("snarkcrit.criticality", "suppress_edge", "multigraph.suppress_edge"),
)

SOLVERS = ("coloring.three_edge_colorable", "flows.nowhere_zero_flow")
SIZED = ("structure.chordless_cycles",)
SURGERY = tuple(label for _, _, label in SITES if label.startswith("multigraph."))
LAYERS = ("graph_io", "criticality", "structure", "coloring", "flows", "multigraph")

# Sites a workload must reach; a rename or a bypass then fails the traced
# run instead of reporting zero.
_CLASSIFY = (
    "snarkcrit.cli.parse_graph6",
    "snarkcrit.graph_io.parse_graph6",
    "snarkcrit.cli.write_records",
    "snarkcrit.cli.classify",
    "snarkcrit.criticality.snark_status",
    "snarkcrit.criticality.structure_profile",
    "snarkcrit.structure.cyclic_edge_connectivity",
    "snarkcrit.structure.chordless_cycles",
    "snarkcrit.structure.girth",
    "snarkcrit.structure.find_bridges",
    "snarkcrit.criticality.three_edge_colorable",
    "snarkcrit.criticality.nowhere_zero_flow",
)
REQUIRED = {
    "classify-colorable": _CLASSIFY,
    "classify-snarks": _CLASSIFY
    + (
        "snarkcrit.criticality.is_critical",
        "snarkcrit.criticality.is_bicritical",
        "snarkcrit.criticality.is_4_edge_critical",
        "snarkcrit.criticality.is_4_vertex_critical",
        "snarkcrit.criticality.strong_certificate",
        "snarkcrit.coloring.three_edge_colorable",
        "snarkcrit.flows.nowhere_zero_flow",
        "snarkcrit.criticality.remove_vertex_pair",
        "snarkcrit.flows.identify_vertices",
        "snarkcrit.criticality.suppress_edge",
    ),
    "verify-local-snarks": (
        "snarkcrit.cli.parse_graph6",
        "snarkcrit.graph_io.parse_graph6",
        "snarkcrit.cli.snark_status",
        "snarkcrit.cli.verify_local_equivalence",
        "snarkcrit.criticality.three_edge_colorable",
        "snarkcrit.criticality.nowhere_zero_flow",
        "snarkcrit.flows.nowhere_zero_flow",
        "snarkcrit.criticality.remove_vertex_pair",
        "snarkcrit.flows.identify_vertices",
        "snarkcrit.criticality.delete_edge",
        "snarkcrit.criticality.contract_edge",
        "snarkcrit.criticality.suppress_edge",
    ),
}


def site_name(index: int) -> str:
    module, attr, _ = SITES[index]
    return f"{module}.{attr}"


class Tracer:
    """Installs the wrappers and keeps the spans they record in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.repeats: list[int] = []  # span indices of repeated solver calls
        self._stack: list[int] = []
        self._graph = 0
        self._decided: set = set()
        self._originals: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for index, (module_name, attr, label) in enumerate(SITES):
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(index, label, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def _wrap(self, index: int, label: str, fn):
        solver = label in SOLVERS
        sized = label in SIZED
        parse = label == "graph_io.parse_graph6"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if parse and kwargs.get("line_number") is not None:
                if kwargs["line_number"] != self._graph:
                    self._graph = kwargs["line_number"]
                    self._decided = set()
            span = len(self.spans)
            if solver:
                key = (label, args[1:], args[0])
                if key in self._decided:
                    self.repeats.append(span)
                self._decided.add(key)
            parent = self._stack[-1] if self._stack else -1
            record = [index, 0.0, 0.0, parent, self._graph, None]
            self.spans.append(record)
            self._stack.append(span)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
            if sized:
                record[5] = len(result)
            return result

        return wrapper


def summarize(spans, repeats, orders: dict[int, int]) -> dict:
    """Per-layer numbers from recorded spans.

    ``*_s`` values are inclusive span time; ``<layer>.self_s`` is span time
    minus the time of child spans, summed over the layer.  ``orders`` maps
    graph line numbers to graph orders, for the per-order seconds per graph.
    """
    labels = [SITES[s[0]][2] for s in spans]
    durations = [s[2] - s[1] for s in spans]
    child_time = [0.0] * len(spans)
    traced = 0.0
    per_graph: dict[int, float] = defaultdict(float)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child_time[s[3]] += durations[i]
            continue
        traced += durations[i]
        if labels[i] != "graph_io.write_records":  # output of all graphs at once
            per_graph[s[4]] += durations[i]

    calls: dict[str, int] = defaultdict(int)
    seconds: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    for i, label in enumerate(labels):
        calls[label] += 1
        seconds[label] += durations[i]
        layer_self[label.split(".")[0]] += durations[i] - child_time[i]
    repeated: dict[str, int] = defaultdict(int)
    for i in repeats:
        repeated[labels[i]] += 1

    def total(names, table):
        return sum(table[n] for n in names)

    metrics = {
        "structure.profile_calls": calls["structure.structure_profile"],
        "structure.profile_s": seconds["structure.structure_profile"],
        "structure.cyclic_connectivity_s": seconds["structure.cyclic_edge_connectivity"],
        "structure.girth_s": seconds["structure.girth"],
        "structure.bridges_s": seconds["structure.find_bridges"],
        "structure.chordless_cycles": sum(
            s[5] for s, label in zip(spans, labels) if label in SIZED
        ),
        "criticality.snark_status_s": seconds["criticality.snark_status"],
        "criticality.coloring_route_s": total(
            ("criticality.is_critical", "criticality.is_bicritical"), seconds
        ),
        "criticality.flow_route_s": total(
            ("criticality.is_4_edge_critical", "criticality.is_4_vertex_critical"), seconds
        ),
        "criticality.strength_s": seconds["criticality.strong_certificate"],
        "criticality.local_s": seconds["criticality.verify_local_equivalence"],
        "coloring.calls": calls["coloring.three_edge_colorable"],
        "coloring.s": seconds["coloring.three_edge_colorable"],
        "coloring.repeat_calls": repeated["coloring.three_edge_colorable"],
        "flows.calls": calls["flows.nowhere_zero_flow"],
        "flows.s": seconds["flows.nowhere_zero_flow"],
        "flows.repeat_calls": repeated["flows.nowhere_zero_flow"],
        "multigraph.surgery_calls": total(SURGERY, calls),
        "multigraph.surgery_s": total(SURGERY, seconds),
        "graph_io.parse_calls": calls["graph_io.parse_graph6"],
        "graph_io.parse_s": seconds["graph_io.parse_graph6"],
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_self[layer]
    metrics["trace.traced_s"] = traced

    by_order: dict[int, list[float]] = defaultdict(list)
    for graph, secs in per_graph.items():
        if graph in orders:
            by_order[orders[graph]].append(secs)
    per_order = {
        str(order): {"graphs": len(v), "median_s_per_graph": statistics.median(v)}
        for order, v in sorted(by_order.items())
    }
    site_calls: dict[str, int] = defaultdict(int)
    for s in spans:
        site_calls[site_name(s[0])] += 1
    return {"metrics": metrics, "per_order": per_order, "site_calls": dict(site_calls)}


def missing_sites(workload: str, site_calls: dict[str, int]) -> list[str]:
    """Required sites of a workload that recorded no call."""
    return [name for name in REQUIRED[workload] if not site_calls.get(name)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run the snarkcrit CLI with tracing.")
    parser.add_argument("--spans", required=True, metavar="PATH")
    parser.add_argument("--output", required=True, metavar="PATH")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    from snarkcrit import cli

    tracer = Tracer()
    tracer.install()
    try:
        with open(args.output, "w") as out, contextlib.redirect_stdout(out):
            start = time.perf_counter()
            code = cli.main(cli_args)
            wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    with open(args.spans, "w") as f:
        json.dump(
            {"sites": [site_name(i) for i in range(len(SITES))], "wall_s": wall,
             "exit_code": code, "spans": tracer.spans, "repeats": tracer.repeats},
            f,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
