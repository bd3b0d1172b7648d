"""Batch driver: classify, verify, or aggregate over a graph6 file or a named graph.

Entries are processed independently (optionally by a process pool) and the
results are merged back in input order, so reports are deterministic for a
fixed input regardless of the parallelism level.  The per-path timing
columns are the one exception; ``--zero-timings`` blanks them when
byte-stable output matters more than the benchmark.

Exit codes: 0 fine, 2 unreadable input, 3 parse error, 4 a provably
equivalent pair of routes disagreed somewhere (an implementation bug).
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

from .criticality import (
    EquivalenceViolationError,
    classify,
    snark_status,
    strong_certificate,
    verify_classifier_coincidence,
    verify_local_equivalence,
)
from .graph_io import (
    Graph6ParseError,
    make_named,
    parse_graph6,
    read_graph6_file,
    write_records,
)
from .multigraph import GraphError

COMMANDS = ("classify", "verify-local", "verify-coincidence", "verify-strong", "stats")

EXIT_OK = 0
EXIT_UNREADABLE = 2
EXIT_PARSE = 3
EXIT_VIOLATION = 4


@dataclass(frozen=True)
class RunConfig:
    command: str
    input_path: Optional[str] = None
    named: Optional[str] = None
    jobs: int = 1
    format: str = "csv"
    max_order: Optional[int] = None
    fail_fast: bool = False
    zero_timings: bool = False

    def __post_init__(self) -> None:
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        if (self.input_path is None) == (self.named is None):
            raise ValueError("exactly one of input_path and named must be given")
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")


# ----------------------------------------------------------------------
# per-entry workers (top level so a process pool can pickle them)


def _work_classify(item: tuple[int, str]) -> tuple:
    index, line = item
    try:
        graph = parse_graph6(line, line_number=index)
    except Graph6ParseError as err:
        return ("parse_error", index, line, str(err))
    return ("record", index, graph.order, classify(graph, graph_index=index))


def _work_verify_local(item: tuple[int, str]) -> tuple:
    index, line = item
    try:
        graph = parse_graph6(line, line_number=index)
    except Graph6ParseError as err:
        return ("parse_error", index, line, str(err))
    status = snark_status(graph)
    if not status.verdict:
        return ("refused", index, graph.order, status.reason)
    of = verify_local_equivalence(graph)
    return (
        "certificate",
        index,
        graph.order,
        of.pair_count,
        of.consistent,
        tuple((p.u, p.v) for p in of.inconsistent_pairs),
        len(of.degenerate_pairs),
    )


def _work_verify_coincidence(item: tuple[int, str]) -> tuple:
    index, line = item
    try:
        graph = parse_graph6(line, line_number=index)
    except Graph6ParseError as err:
        return ("parse_error", index, line, str(err))
    status = snark_status(graph)
    if not status.verdict:
        return ("refused", index, graph.order, status.reason)
    cert = verify_classifier_coincidence(graph)
    return (
        "certificate",
        index,
        graph.order,
        cert.critical,
        cert.edge_flow_critical,
        cert.bicritical,
        cert.vertex_flow_critical,
        cert.consistent,
        cert.coloring_path_micros,
        cert.flow_path_micros,
    )


def _work_verify_strong(item: tuple[int, str]) -> tuple:
    index, line = item
    try:
        graph = parse_graph6(line, line_number=index)
    except Graph6ParseError as err:
        return ("parse_error", index, line, str(err))
    status = snark_status(graph)
    if not status.verdict:
        return ("refused", index, graph.order, status.reason)
    cert = strong_certificate(graph)
    return (
        "certificate",
        index,
        graph.order,
        cert.is_strong,
        cert.routes_agree,
        len(cert.per_edge),
        len(cert.non_suppressible_edges),
    )


_WORKERS = {
    "classify": _work_classify,
    "stats": _work_classify,
    "verify-local": _work_verify_local,
    "verify-coincidence": _work_verify_coincidence,
    "verify-strong": _work_verify_strong,
}


# ----------------------------------------------------------------------
# driver


def _load_items(config: RunConfig) -> tuple[list[tuple[int, str]], int]:
    """The (line number, text) items to work on, and how many exceed ``max_order``.

    Graphs over the order limit are dropped here, before any worker sees them.
    """
    if config.named is not None:
        orders = [(1, config.named, make_named(config.named).order)]
    else:
        entries = read_graph6_file(config.input_path)
        orders = [(e.line_number, e.graph6, e.graph.order) for e in entries]
    items = [
        (index, text)
        for index, text, order in orders
        if config.max_order is None or order <= config.max_order
    ]
    return items, len(orders) - len(items)


def _run_pool(config: RunConfig, items: list[tuple[int, str]], worker) -> list[tuple]:
    if config.named is not None:
        # named graphs bypass graph6, so multigraph constructors work too
        return [
            _dispatch_named(config.command, index, make_named(name))
            for index, name in items
        ]
    if config.jobs == 1:
        return [worker(item) for item in items]
    with ProcessPoolExecutor(max_workers=config.jobs) as pool:
        chunk = max(1, len(items) // (config.jobs * 4))
        return list(pool.map(worker, items, chunksize=chunk))


def _dispatch_named(command: str, index: int, graph) -> tuple:
    status = snark_status(graph)
    if command in ("classify", "stats"):
        return ("record", index, graph.order, classify(graph, graph_index=index))
    if not status.verdict:
        return ("refused", index, graph.order, status.reason)
    if command == "verify-local":
        cert = verify_local_equivalence(graph)
        return (
            "certificate",
            index,
            graph.order,
            cert.pair_count,
            cert.consistent,
            tuple((p.u, p.v) for p in cert.inconsistent_pairs),
            len(cert.degenerate_pairs),
        )
    if command == "verify-coincidence":
        cert = verify_classifier_coincidence(graph)
        return (
            "certificate",
            index,
            graph.order,
            cert.critical,
            cert.edge_flow_critical,
            cert.bicritical,
            cert.vertex_flow_critical,
            cert.consistent,
            cert.coloring_path_micros,
            cert.flow_path_micros,
        )
    cert = strong_certificate(graph)
    return (
        "certificate",
        index,
        graph.order,
        cert.is_strong,
        cert.routes_agree,
        len(cert.per_edge),
        len(cert.non_suppressible_edges),
    )


def _input_line(path: str, line_number: int) -> str:
    """Line ``line_number`` of a graph6 file, split and stripped as the reader does."""
    return Path(path).read_text().splitlines()[line_number - 1].strip()


def _bool(x) -> str:
    return "true" if x else "false"


def run(config: RunConfig, out=None, err=None) -> int:
    """Execute one command; returns the process exit code."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        items, skipped = _load_items(config)
    except (OSError, GraphError) as exc:
        print(f"error: cannot read input: {exc}", file=err)
        return EXIT_UNREADABLE
    except Graph6ParseError as exc:
        print(f"error: {exc}", file=err)
        if exc.line_number is not None:
            line = _input_line(config.input_path, exc.line_number)
            print(f"offending line {exc.line_number}: {line}", file=err)
        return EXIT_PARSE

    worker = _WORKERS[config.command]
    try:
        results = _run_pool(config, items, worker)
    except Graph6ParseError as exc:
        print(f"error: {exc}", file=err)
        return EXIT_PARSE

    # merge in input order
    kept = sorted(results, key=lambda r: r[1])
    for r in kept:
        if r[0] == "parse_error":
            _, index, line, message = r
            print(f"error: {message}", file=err)
            print(f"offending line {index}: {line}", file=err)
            return EXIT_PARSE

    if config.command in ("classify", "stats"):
        records = [r[3] for r in kept]
        if config.zero_timings:
            records = [
                replace(rec, coloring_path_micros=None, flow_path_micros=None)
                if rec.coloring_path_micros is not None
                else rec
                for rec in records
            ]
        if config.command == "classify":
            out.write(write_records(records, config.format).decode("utf-8"))
            return EXIT_OK
        return _print_stats(records, skipped, config, out)

    return _print_certificates(kept, skipped, config, out)


def _print_stats(records, skipped: int, config: RunConfig, out) -> int:
    counts = {
        "graphs": len(records),
        "snarks": sum(1 for r in records if r.is_snark),
        "critical": sum(1 for r in records if r.is_critical),
        "bicritical": sum(1 for r in records if r.is_bicritical),
        "strictly_critical": sum(1 for r in records if r.is_strictly_critical),
        "strong": sum(1 for r in records if r.is_strong),
        "skipped_over_max_order": skipped,
    }
    if config.format == "jsonl":
        import json

        out.write(json.dumps(counts) + "\n")
    else:
        for key, value in counts.items():
            out.write(f"{key}: {value}\n")
    return EXIT_OK


def _print_certificates(kept, skipped: int, config: RunConfig, out) -> int:
    violations = 0
    pair_total = 0
    for r in kept:
        if r[0] == "refused":
            _, index, order, reason = r
            out.write(f"graph {index} (order {order}): refused, not a snark ({reason})\n")
            continue
        if config.command == "verify-local":
            _, index, order, pairs, consistent, bad_pairs, degenerate = r
            pair_total += pairs
            note = f", {degenerate} degenerate pair(s)" if degenerate else ""
            if consistent:
                out.write(f"graph {index} (order {order}): {pairs} pairs consistent{note}\n")
            else:
                violations += 1
                out.write(
                    f"graph {index} (order {order}): INCONSISTENT pairs {list(bad_pairs)}{note}\n"
                )
        elif config.command == "verify-coincidence":
            (_, index, order, critical, edge_fc, bicritical, vertex_fc,
             consistent, cmicros, fmicros) = r
            line = (
                f"graph {index} (order {order}): critical={_bool(critical)} "
                f"4-edge-critical={_bool(edge_fc)} bicritical={_bool(bicritical)} "
                f"4-vertex-critical={_bool(vertex_fc)} "
                f"coloring_micros={cmicros} flow_micros={fmicros}"
            )
            if not consistent:
                violations += 1
                line += " DISAGREE"
            out.write(line + "\n")
        else:  # verify-strong
            _, index, order, strong, agree, edges, non_suppressible = r
            line = (
                f"graph {index} (order {order}): strong={_bool(strong)} "
                f"routes_agree={_bool(agree)} edges={edges} "
                f"non_suppressible={non_suppressible}"
            )
            if not agree:
                violations += 1
                line += " DISAGREE"
            out.write(line + "\n")
        if violations and config.fail_fast:
            break
    summary = f"checked {len(kept)} graph(s)"
    if config.command == "verify-local":
        summary += f", {pair_total} pair(s)"
    if skipped:
        summary += f", skipped {skipped} over max order"
    summary += f", {violations} violation(s)"
    out.write(summary + "\n")
    return EXIT_VIOLATION if violations else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snarkcrit",
        description="Classify snark criticality and verify that the "
        "coloring and flow routes coincide.",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", metavar="PATH", help="graph6 file, one graph per line")
    source.add_argument(
        "--named",
        metavar="NAME",
        help="a built-in graph: dumbbell, petersen, theta, k4, blanusa1, "
        "blanusa2, flower(k)",
    )
    parser.add_argument("--command", choices=COMMANDS, default="classify")
    parser.add_argument("--jobs", type=int, default=1, metavar="N")
    parser.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    parser.add_argument("--max-order", type=int, default=None, metavar="N")
    parser.add_argument("--fail-fast", action="store_true")
    parser.add_argument(
        "--zero-timings",
        action="store_true",
        help="blank the timing columns for byte-reproducible classify output",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config = RunConfig(
        command=args.command,
        input_path=args.input,
        named=args.named,
        jobs=args.jobs,
        format=args.format,
        max_order=args.max_order,
        fail_fast=args.fail_fast,
        zero_timings=args.zero_timings,
    )
    try:
        code = run(config)
    except EquivalenceViolationError as exc:
        print(f"error: equivalence violation: {exc}", file=sys.stderr)
        code = EXIT_VIOLATION
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
