"""Batch driver: classify, verify, or aggregate over a graph6 file or a named graph.

Each graph goes through :func:`evaluate`, which returns a :class:`Result`:
the classification record for ``classify`` and ``stats``, the finished
report line for the ``verify-*`` commands.  A disagreement that the library
raises as :class:`EquivalenceViolationError` becomes a violating result
that keeps its message, so one graph never stops the others.
:func:`_work` parses a graph6 line and evaluates it, alone or in forked
workers; a ``--named`` graph is built once and evaluated directly, so
multigraph constructors work too.  :func:`_report` consumes the results of
every command in input order, so reports do not depend on ``--jobs`` (the
per-route timings aside, which ``--zero-timings`` blanks where each result
is made), and ``--fail-fast`` stops the work at the first violating graph.

``evaluate``, ``_work`` and ``_report`` must look up ``parse_graph6``,
``classify``, ``snark_status``, ``verify_local_equivalence`` and
``write_records`` as globals of this module: the benchmark's tracer wraps
them here.

Exit codes: 0 fine, 2 unreadable input or a pool that cannot start, 3
parse error, 4 a provably equivalent pair of routes disagreed somewhere
(an implementation bug), 141 stdout closed early (128 + SIGPIPE).
"""

from __future__ import annotations

import argparse
import os
import shlex
import sys
from contextlib import closing, suppress
from dataclasses import dataclass, replace
from typing import BinaryIO, Iterable, Iterator, NoReturn, Optional

from .criticality import (
    ClassificationRecord,
    DecisionTable,
    EquivalenceViolationError,
    _bool,
    classify,
    snark_status,
    strong_certificate,
    verify_classifier_coincidence,
    verify_local_equivalence,
    write_records,
)
from .graph_io import Graph6ParseError, make_named, parse_graph6, read_graph6_file
from .multigraph import CubicGraph, GraphError

COMMANDS = ("classify", "verify-local", "verify-coincidence", "verify-strong", "stats")
FORMATS = ("csv", "jsonl")

# the counts of ``stats`` after "graphs", each with the record flag it counts
_STATS_FLAGS = {
    "snarks": "is_snark",
    "critical": "is_critical",
    "bicritical": "is_bicritical",
    "strictly_critical": "is_strictly_critical",
    "strong": "is_strong",
}

EXIT_OK = 0
EXIT_UNREADABLE = 2
EXIT_PARSE = 3
EXIT_VIOLATION = 4
EXIT_CLOSED_OUTPUT = 141


class PoolStartError(Exception):
    """The pool could not open a worker's pipes or fork it; holds the OS error."""


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
        if self.format not in FORMATS:
            raise ValueError(f"unknown format {self.format!r}")
        if self.format != "csv" and self.command not in ("classify", "stats"):
            raise ValueError("format applies only to classify and stats")
        if (self.input_path is None) == (self.named is None):
            raise ValueError("exactly one of input_path and named must be given")
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")
        if self.max_order is not None and self.max_order < 0:
            raise ValueError("max_order must not be negative")


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


Outcome = tuple[Optional[str], Result]  # input line (None for --named) and result


def evaluate(config: RunConfig, index: int, graph: CubicGraph) -> Result:
    """Run ``config.command`` on one graph; ``index`` is its input line number.

    A violation that the library raises becomes a violating result with
    its message and no record or report line.
    """
    try:
        return _evaluate(config, index, graph)
    except EquivalenceViolationError as exc:
        return Result(index, violation=True, error=str(exc))


def _evaluate(config: RunConfig, index: int, graph: CubicGraph) -> Result:
    """The result of one graph, its timings blanked under ``zero_timings``."""
    if config.command in ("classify", "stats"):
        record = classify(graph, graph_index=index)
        if config.zero_timings:
            record = replace(record, coloring_path_micros=None, flow_path_micros=None)
        return Result(index, record=record)
    head = f"graph {index} (order {graph.order}): "
    status = snark_status(graph)
    if not status.verdict:
        return Result(index, line=f"{head}refused, not a snark ({status.reason})")
    table = DecisionTable(graph, status)
    if config.command == "verify-local":
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
    if config.command == "verify-coincidence":
        cert = verify_classifier_coincidence(graph, table=table)
        agree = cert.consistent
        timings = (cert.coloring_path_micros, cert.flow_path_micros)
        coloring_micros, flow_micros = ("", "") if config.zero_timings else timings
        body = (
            f"critical={_bool(cert.critical)} "
            f"4-edge-critical={_bool(cert.edge_flow_critical)} "
            f"bicritical={_bool(cert.bicritical)} "
            f"4-vertex-critical={_bool(cert.vertex_flow_critical)} "
            f"coloring_micros={coloring_micros} flow_micros={flow_micros}"
        )
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


def _work(config: RunConfig, item: tuple[int, str]) -> Result:
    """Parse one graph6 line and evaluate it."""
    index, line = item
    return evaluate(config, index, parse_graph6(line, line_number=index))


# ----------------------------------------------------------------------
# driver


def _results(config: RunConfig) -> tuple[Iterator[Outcome], int]:
    """The lazy outcomes in input order and how many graphs exceed ``max_order``.

    Graphs over the order limit are dropped here, before any is evaluated.
    """

    def fits(order: int) -> bool:
        return config.max_order is None or order <= config.max_order

    if config.named is not None:
        graph = make_named(config.named)
        kept = [graph] if fits(graph.order) else []
        return ((None, evaluate(config, 1, g)) for g in kept), 1 - len(kept)
    # read in full before any evaluation, so every parse error comes first
    items = []
    skipped = 0
    for e in read_graph6_file(config.input_path):
        if fits(e.graph.order):
            items.append((e.line_number, e.graph6))
        else:
            skipped += 1
    return _run_pool(config, items), skipped


def _run_pool(config: RunConfig, items: list[tuple[int, str]]) -> Iterator[Outcome]:
    """Evaluate graph6 items in input order, in forked workers when ``jobs`` > 1.

    The items are cut into chunks of about ``n / (4 * jobs)`` graphs, and
    ``min(jobs, chunks)`` workers are forked.  Each reads 4-byte chunk
    numbers from a task pipe and answers each with one pickle of the chunk's
    results on a result pipe; the parent keeps the lines, for the reproduce
    command.  A pickle marks its own end, and a worker that leaves without a
    whole answer makes the run raise ``RuntimeError``; an OS error from a
    worker's pipes or fork raises :class:`PoolStartError`.  A worker that
    answers gets the next chunk at once, also while a slow chunk holds back
    the output, so at most one chunk per worker is unfinished and at most
    one answer per worker is in flight; finished chunks wait for their turn
    in input order.  However the run ends (the last chunk, an early close
    for ``--fail-fast``, a worker's error, a failed start, an interrupt),
    the task pipes are closed, so idle workers read end-of-file and leave,
    busy ones are killed, and every worker is reaped.  Forking needs POSIX.
    The pool's modules are imported only here.
    """
    if config.jobs == 1:
        yield from ((item[1], _work(config, item)) for item in items)
        return
    size = max(1, len(items) // (config.jobs * 4))
    chunks = [items[i : i + size] for i in range(0, len(items), size)]
    if not chunks:
        return
    import pickle
    import select
    import signal

    # each worker is known by a buffered reader of its result pipe; select
    # may watch a buffered reader because its buffer is empty whenever
    # select runs: a worker sends one answer per chunk number, and the
    # parent sends the next number only after it has read the last answer
    tasks: dict[BinaryIO, int] = {}  # -> the write end of its task pipe
    pids: dict[BinaryIO, int] = {}  # -> its process id
    busy: dict[BinaryIO, int] = {}  # -> the number of the chunk it works on
    finished: dict[int, object] = {}  # chunk number -> its answer, ahead of its turn
    given = 0

    def give(worker: BinaryIO) -> None:
        nonlocal given
        # a dead worker fails the run at its result pipe's end-of-file, not here
        with suppress(BrokenPipeError):
            os.write(tasks[worker], given.to_bytes(4, "little"))
        busy[worker] = given
        given += 1

    try:
        for _ in range(min(config.jobs, len(chunks))):
            try:
                task_read, task_write = os.pipe()
                try:
                    result_read, result_write = os.pipe()
                except OSError:
                    os.close(task_read)
                    os.close(task_write)
                    raise
                worker = os.fdopen(result_read, "rb")
                tasks[worker] = task_write
                # every parent end, the new worker's too
                others = [*(w.fileno() for w in tasks), *tasks.values()]
                try:
                    pid = os.fork()
                    if pid == 0:
                        _worker(config, chunks, task_read, result_write, others)
                finally:
                    os.close(task_read)
                    os.close(result_write)
            except OSError as exc:
                raise PoolStartError(exc) from exc
            pids[worker] = pid
        for worker in tasks:
            give(worker)
        for turn in range(len(chunks)):
            while turn not in finished:
                for worker in select.select(list(busy), [], [])[0]:
                    try:
                        answer = pickle.load(worker)
                    except (EOFError, pickle.UnpicklingError):
                        raise RuntimeError(
                            f"pool worker {pids[worker]} exited before it answered"
                        )
                    finished[busy.pop(worker)] = answer
                    if given < len(chunks):
                        give(worker)
            answer = finished.pop(turn)
            if isinstance(answer, tuple):  # the chunk raised: raise in its turn
                exc, trace = answer
                raise exc from RuntimeError(trace)
            yield from zip((line for _, line in chunks[turn]), answer)
    finally:
        for task_write in tasks.values():
            os.close(task_write)
        for worker in busy:
            os.kill(pids[worker], signal.SIGKILL)
        for pid in pids.values():
            os.waitpid(pid, 0)
        for worker in tasks:
            worker.close()


def _worker(
    config: RunConfig, chunks: list, tasks: int, results: int, others: list[int]
) -> NoReturn:
    """The body of a forked worker; it leaves through ``os._exit`` on every path.

    It closes ``others``, then reads 4-byte chunk numbers from ``tasks``
    until end-of-file (the parent writes each number whole, and a pipe
    write that small is atomic), and answers each on ``results`` with one
    pickle of the chunk's results, or of the pair ``(exception, traceback
    text)`` if the chunk raised.  A chunk is pickled in full before any
    byte is written, so a result that cannot be pickled comes back as its
    exception and no half-written answer reaches the pipe.
    """
    import pickle

    code = 1
    try:
        for fd in others:
            os.close(fd)
        out = os.fdopen(results, "wb")
        while number := os.read(tasks, 4):
            chunk = chunks[int.from_bytes(number, "little")]
            try:
                answer = pickle.dumps([_work(config, item) for item in chunk])
            except Exception as exc:
                import traceback

                answer = pickle.dumps((exc, traceback.format_exc()))
            out.write(answer)
            out.flush()
        code = 0
    finally:
        os._exit(code)


def _reproduce(config: RunConfig, graph6: Optional[str]) -> str:
    """A shell command that reruns ``config.command`` on one violating graph."""
    if config.named is not None:
        source = f"snarkcrit --named {shlex.quote(config.named)}"
    else:  # graph6 bytes and a >>graph6<< header need no escaping in single quotes
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
        try:
            return _report(results, skipped, config, out, err)
        except PoolStartError as exc:
            print(f"error: cannot start the pool: {exc}", file=err)
            return EXIT_UNREADABLE


def _report(
    results: Iterable[Outcome], skipped: int, config: RunConfig, out, err=None
) -> int:
    """Write the report of any command; returns the exit code.

    Each violating graph gets a reproducing command on ``err``, from its
    kept line, and a raised violation also its message there.  Only
    ``classify`` keeps its records; ``stats`` counts them as they arrive.
    """
    err = err if err is not None else sys.stderr
    records = []
    counts = dict.fromkeys(("graphs", *_STATS_FLAGS), 0)
    checked = violations = pair_total = 0
    for graph6, r in results:
        checked += 1
        if r.error is not None:
            where = f"graph {r.index} ({graph6 or config.named})"
            print(f"error: equivalence violation: {where}: {r.error}", file=err)
        if r.violation:
            violations += 1
            print(_reproduce(config, graph6), file=err)
        if r.record is not None:
            if config.command == "classify":
                records.append(r.record)
            else:
                counts["graphs"] += 1
                for key, flag in _STATS_FLAGS.items():
                    counts[key] += bool(getattr(r.record, flag))
        if r.line is not None:
            out.write(r.line + "\n")
        pair_total += r.pairs
        if r.violation and config.fail_fast:
            break
    if config.command == "classify":
        out.write(write_records(records, config.format).decode("utf-8"))
    elif config.command == "stats":
        counts["skipped_over_max_order"] = skipped
        if config.format == "jsonl":
            import json

            out.write(json.dumps(counts) + "\n")
        else:
            out.write("".join(f"{key}: {value}\n" for key, value in counts.items()))
    else:
        summary = f"checked {checked} graph(s)"
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
    parser.add_argument("--format", choices=FORMATS, default="csv")
    parser.add_argument("--max-order", type=int, default=None, metavar="N")
    parser.add_argument("--fail-fast", action="store_true")
    parser.add_argument(
        "--zero-timings",
        action="store_true",
        help="blank the per-route timings (the classify columns and the "
        "verify-coincidence values) for byte-reproducible output",
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = RunConfig(**vars(args))
    except ValueError as exc:
        parser.error(str(exc))  # exits 2 with the usage
    try:
        code = run(config)
        sys.stdout.flush()  # a closed stdout fails here, not at the final flush
    except BrokenPipeError:
        # the reader left: point stdout at nothing, so the final flush is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_CLOSED_OUTPUT
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
