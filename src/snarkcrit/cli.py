"""Batch driver: classify, verify, or aggregate over a graph6 file or a named graph.

Each graph goes through :func:`evaluate`, which returns a :class:`Result`:
the classification record for ``classify`` and ``stats``, the finished
report line for the ``verify-*`` commands.  A disagreement that the library
raises as :class:`EquivalenceViolationError` becomes a violating result
that keeps its message, so one graph never stops the others.
:func:`_work` parses a graph6 line and evaluates it, alone or in a process
pool; a ``--named`` graph is built once and evaluated directly, so
multigraph constructors work too.  :func:`_report` consumes the results of
every command in input order, so reports do not depend on ``--jobs`` (the
per-path timing columns aside, which ``--zero-timings`` blanks), and
``--fail-fast`` stops the work at the first violating graph.

``evaluate``, ``_work`` and ``_report`` must look up ``parse_graph6``,
``classify``, ``snark_status``, ``verify_local_equivalence`` and
``write_records`` as globals of this module: the benchmark's tracer wraps
them here.

Exit codes: 0 fine, 2 unreadable input, 3 parse error, 4 a provably
equivalent pair of routes disagreed somewhere (an implementation bug).
"""

from __future__ import annotations

import argparse
import shlex
import sys
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from contextlib import closing
from dataclasses import dataclass, replace
from functools import partial
from itertools import islice
from typing import Iterable, Iterator, Optional

from .criticality import (
    ClassificationRecord,
    DecisionTable,
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
from .multigraph import CubicGraph, GraphError

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
# one graph


@dataclass(frozen=True)
class Result:
    """What one graph contributes to the report."""

    index: int
    record: Optional[ClassificationRecord] = None  # classify and stats
    line: Optional[str] = None  # verify-*: the finished report line
    violation: bool = False
    pairs: int = 0  # verify-local: vertex pairs checked
    error: Optional[str] = None  # the message of a raised violation
    graph6: Optional[str] = None  # the input line, for an --input graph


def _bool(x) -> str:
    return "true" if x else "false"


def evaluate(command: str, index: int, graph: CubicGraph) -> Result:
    """Run ``command`` on one graph; ``index`` is its input line number.

    A violation that the library raises becomes a violating result with
    its message and no record or report line.
    """
    try:
        return _evaluate(command, index, graph)
    except EquivalenceViolationError as exc:
        return Result(index, violation=True, error=str(exc))


def _evaluate(command: str, index: int, graph: CubicGraph) -> Result:
    if command in ("classify", "stats"):
        return Result(index, record=classify(graph, graph_index=index))
    head = f"graph {index} (order {graph.order}): "
    status = snark_status(graph)
    if not status.verdict:
        return Result(index, line=f"{head}refused, not a snark ({status.reason})")
    table = DecisionTable(graph, status)
    if command == "verify-local":
        cert = verify_local_equivalence(graph, table=table)
        degenerate = len(cert.degenerate_pairs)
        note = f", {degenerate} degenerate pair(s)" if degenerate else ""
        if cert.consistent:
            body = f"{cert.pair_count} pairs consistent{note}"
        else:
            bad = "; ".join(
                f"({r.pair.u}, {r.pair.v}) "
                + " ".join(f"{k}={_bool(x)}" for k, x in r.statements().items())
                for r in cert.reports
                if not r.consistent
            )
            body = f"INCONSISTENT pairs {bad}{note}"
        return Result(
            index,
            line=head + body,
            violation=not cert.consistent,
            pairs=cert.pair_count,
        )
    if command == "verify-coincidence":
        cert = verify_classifier_coincidence(graph, table=table)
        agree = cert.consistent
        body = (
            f"critical={_bool(cert.critical)} "
            f"4-edge-critical={_bool(cert.edge_flow_critical)} "
            f"bicritical={_bool(cert.bicritical)} "
            f"4-vertex-critical={_bool(cert.vertex_flow_critical)} "
            f"coloring_micros={cert.coloring_path_micros} "
            f"flow_micros={cert.flow_path_micros}"
        )
        suffix = "" if agree else " DISAGREE"
    else:  # verify-strong
        cert = strong_certificate(graph, table=table)
        agree = cert.routes_agree
        body = (
            f"strong={_bool(cert.is_strong)} routes_agree={_bool(agree)} "
            f"edges={len(cert.per_edge)} "
            f"non_suppressible={len(cert.non_suppressible_edges)}"
        )
        suffix = "" if agree else " DISAGREE " + "; ".join(cert.disagreements())
    return Result(index, line=head + body + suffix, violation=not agree)


def _work(command: str, item: tuple[int, str]) -> Result:
    """Parse one graph6 line and evaluate it (top level so a pool can pickle it)."""
    index, line = item
    result = evaluate(command, index, parse_graph6(line, line_number=index))
    return replace(result, graph6=line)


# ----------------------------------------------------------------------
# driver


def _results(config: RunConfig) -> tuple[Iterator[Result], int]:
    """The lazy per-graph results in input order, and how many graphs
    exceed ``max_order``.

    Graphs over the order limit are dropped here, before any is evaluated.
    """

    def fits(order: int) -> bool:
        return config.max_order is None or order <= config.max_order

    if config.named is not None:
        graph = make_named(config.named)
        kept = [graph] if fits(graph.order) else []
        return (evaluate(config.command, 1, g) for g in kept), 1 - len(kept)
    entries = read_graph6_file(config.input_path)
    items = [(e.line_number, e.graph6) for e in entries if fits(e.graph.order)]
    return _run_pool(config, items), len(entries) - len(items)


def _run_pool(config: RunConfig, items: list[tuple[int, str]]) -> Iterator[Result]:
    """Evaluate graph6 items in input order, in a process pool when ``jobs`` > 1.

    At most ``2 * jobs`` chunks are unfinished at any time, so closing this
    generator early (``--fail-fast``) leaves at most that many to finish or
    cancel.  Only unfinished chunks count: when all but ``jobs`` of them
    have finished, the window is filled up again, even while a slow chunk
    at its head holds back the output, so the other workers keep busy.
    Finished chunks wait for their turn in input order.
    """
    if config.jobs == 1:
        yield from map(partial(_work, config.command), items)
        return
    size = max(1, len(items) // (config.jobs * 4))
    starts = range(0, len(items), size)
    if not starts:
        return
    # no more workers than chunks: a forked pool starts them all at the first submit
    jobs = min(config.jobs, len(starts))
    chunks = (items[i : i + size] for i in starts)
    pool = ProcessPoolExecutor(max_workers=jobs)
    window: deque = deque()  # submitted and not yet yielded, in input order
    try:
        while True:
            while window and window[0].done():
                yield from window.popleft().result()
            # counted after the yields: more chunks may finish while the consumer runs
            running = [f for f in window if not f.done()]
            if len(running) <= jobs:
                for chunk in islice(chunks, 2 * jobs - len(running)):
                    future = pool.submit(_work_chunk, config.command, chunk)
                    window.append(future)
                    running.append(future)
            if not window:
                return
            wait(running, return_when=FIRST_COMPLETED)
    finally:
        pool.shutdown(cancel_futures=True)


def _work_chunk(command: str, chunk: list[tuple[int, str]]) -> list[Result]:
    return [_work(command, item) for item in chunk]


def _reproduce(config: RunConfig, graph6: Optional[str]) -> str:
    """A shell command that reruns ``config.command`` on one violating graph."""
    if config.named is not None:
        source = f"snarkcrit --named {shlex.quote(config.named)}"
    else:  # graph6 bytes are 63..126, so single quotes need no escaping
        source = f"printf '%s\\n' '{graph6}' | snarkcrit --input /dev/stdin"
    return f"reproduce: {source} --command {config.command}"


def run(config: RunConfig, out=None, err=None) -> int:
    """Execute one command; returns the process exit code."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        results, skipped = _results(config)
    except (OSError, GraphError) as exc:
        print(f"error: cannot read input: {exc}", file=err)
        return EXIT_UNREADABLE
    except Graph6ParseError as exc:
        print(f"error: {exc}", file=err)
        if exc.line is not None:
            print(f"offending line {exc.line_number}: {exc.line}", file=err)
        return EXIT_PARSE
    with closing(results):
        return _report(results, skipped, config, out, err)


def _report(
    results: Iterable[Result], skipped: int, config: RunConfig, out, err=None
) -> int:
    """Write the report of any command; returns the exit code.

    Each violating graph gets a reproducing command on ``err``, and a
    raised violation also its message there, naming the graph.
    """
    err = err if err is not None else sys.stderr
    records = []
    checked = violations = pair_total = 0
    for r in results:
        checked += 1
        if r.error is not None:
            where = f"graph {r.index} ({r.graph6 or config.named})"
            print(f"error: equivalence violation: {where}: {r.error}", file=err)
        if r.violation:
            violations += 1
            print(_reproduce(config, r.graph6), file=err)
        if r.record is not None:
            records.append(r.record)
        if r.line is not None:
            out.write(r.line + "\n")
        pair_total += r.pairs
        if r.violation and config.fail_fast:
            break
    if config.command == "classify":
        if config.zero_timings:
            records = [
                replace(rec, coloring_path_micros=None, flow_path_micros=None)
                for rec in records
            ]
        out.write(write_records(records, config.format).decode("utf-8"))
    elif config.command == "stats":
        _print_stats(records, skipped, config, out)
    else:
        summary = f"checked {checked} graph(s)"
        if config.command == "verify-local":
            summary += f", {pair_total} pair(s)"
        if skipped:
            summary += f", skipped {skipped} over max order"
        summary += f", {violations} violation(s)"
        out.write(summary + "\n")
    return EXIT_VIOLATION if violations else EXIT_OK


def _print_stats(records, skipped: int, config: RunConfig, out) -> None:
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snarkcrit",
        description="Classify snark criticality and verify that the "
        "coloring and flow routes coincide.",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--input",
        dest="input_path",
        metavar="PATH",
        help="graph6 file, one graph per line",
    )
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = RunConfig(**vars(args))
    except ValueError as exc:
        parser.error(str(exc))  # exits 2 with the usage
    code = run(config)
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
