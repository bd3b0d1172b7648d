from __future__ import annotations

import gc
import io
import os
import pickle
import re
import subprocess
import sys
import time
import tracemalloc
import weakref
from types import SimpleNamespace

import pytest

from snarkcrit import coloring, criticality, flows
from snarkcrit.cli import (
    COMMANDS,
    EXIT_CLOSED_OUTPUT,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_UNREADABLE,
    EXIT_VIOLATION,
    Result,
    RunConfig,
    _report,
    main,
    run,
)
from snarkcrit.criticality import (
    COLORING,
    CONTRACTION,
    CSV_COLUMNS,
    DELETION,
    FLOW,
    IDENTIFICATION,
    REMOVAL,
    SUPPRESSION,
    ClassificationRecord,
    DecisionTable,
    EquivalenceViolationError,
)
from snarkcrit.graph_io import blanusa, encode_graph6, make_named, petersen
from snarkcrit.multigraph import VertexPair
from faults import corrupt_transported, deny_decision, invert_snark_test, scramble_hints


# report lines of the verify commands, the timings blanked by --zero-timings
REFUSED = "refused, not a snark (3-edge-colorable)"
COINCIDE = (
    "critical=true 4-edge-critical=true bicritical=true 4-vertex-critical=true "
    "coloring_micros= flow_micros="
)
CHECKED = "checked 1 graph(s), 0 violation(s)"


def count_forks(monkeypatch) -> list[int]:
    """The pids of the workers this process forks from now on."""
    real_fork = os.fork
    forked: list[int] = []

    def counting_fork():
        pid = real_fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return forked


def run_cli(**kwargs) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    code = run(RunConfig(**kwargs), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


class TestConfig:
    def test_requires_exactly_one_source(self):
        with pytest.raises(ValueError):
            RunConfig(command="classify")
        with pytest.raises(ValueError):
            RunConfig(command="classify", input_path="x", named="petersen")

    def test_rejects_unknown_command(self):
        with pytest.raises(ValueError):
            RunConfig(command="explode", named="petersen")

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError):
            RunConfig(command="classify", named="petersen", jobs=0)

    def test_rejects_negative_max_order(self):
        with pytest.raises(ValueError, match="max_order must not be negative"):
            RunConfig(command="stats", named="petersen", max_order=-1)
        assert RunConfig(command="stats", named="petersen", max_order=0).max_order == 0

    @pytest.mark.parametrize("command", ["classify", "stats"])
    def test_rejects_unknown_format(self, command):
        # before any graph is evaluated, for stats too, which never serializes
        with pytest.raises(ValueError, match="unknown format 'xml'"):
            RunConfig(command=command, named="petersen", format="xml")

    @pytest.mark.parametrize(
        "command", ["verify-local", "verify-coincidence", "verify-strong"]
    )
    def test_rejects_a_format_for_the_verify_commands(self, command):
        # their report lines are plain text; only the default is accepted
        with pytest.raises(ValueError, match="applies only to classify and stats"):
            RunConfig(command=command, named="petersen", format="jsonl")
        assert RunConfig(command=command, named="petersen").format == "csv"


class TestClassify:
    def test_named_petersen(self):
        code, out, _ = run_cli(command="classify", named="petersen")
        assert code == EXIT_OK
        header, row = out.strip().split("\n")
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["is_snark"] == "true"
        assert cells["is_bicritical"] == "true"
        assert cells["is_strong"] == "false"
        assert cells["girth"] == "5"
        assert row.rsplit(",", 2)[0] == "1,10,true,5,5,true,true,false,true,true,false"

    def test_named_multigraphs_work(self):
        rows = {
            "dumbbell": "1,2,true,1,1,true,true,false,true,true,false,,",
            "theta": "1,2,false,2,,,,,,,,,",
        }
        for name, row in rows.items():
            code, out, _ = run_cli(command="classify", named=name, zero_timings=True)
            assert code == EXIT_OK
            assert out == ",".join(CSV_COLUMNS) + "\n" + row + "\n"

    def test_corpus_csv(self, corpus_path):
        code, out, _ = run_cli(command="classify", input_path=str(corpus_path))
        assert code == EXIT_OK
        rows = out.strip().split("\n")
        assert len(rows) == 9  # header + 8 graphs
        assert rows[1].startswith("1,10,true")

    def test_jsonl_format(self, corpus_path):
        import json

        code, out, _ = run_cli(
            command="classify", input_path=str(corpus_path), format="jsonl",
            max_order=20,
        )
        assert code == EXIT_OK
        objs = [json.loads(line) for line in out.strip().split("\n")]
        assert len(objs) == 4
        assert all(o["is_snark"] for o in objs)

    def test_max_order_filter(self, corpus_path):
        code, out, _ = run_cli(
            command="classify", input_path=str(corpus_path), max_order=18
        )
        rows = out.strip().split("\n")
        assert len(rows) == 4  # header + petersen + two blanusa

    def test_max_order_filters_before_classifying(self, corpus_path, monkeypatch):
        from snarkcrit import cli

        seen_orders = []
        real_evaluate = cli.evaluate

        def recording_evaluate(config, index, graph):
            seen_orders.append(graph.order)
            return real_evaluate(config, index, graph)

        monkeypatch.setattr(cli, "evaluate", recording_evaluate)
        code, out, _ = run_cli(
            command="stats", input_path=str(corpus_path), max_order=18, jobs=1
        )
        assert code == EXIT_OK
        assert sorted(seen_orders) == [10, 18, 18]
        assert "skipped_over_max_order: 5" in out

    def test_skipped_graphs_are_not_kept(self, tmp_path):
        # the corpus is read one graph at a time and a graph over the limit
        # is dropped at once, so memory does not grow with the skipped ones
        path = tmp_path / "petersens.g6"
        path.write_text((encode_graph6(petersen()) + "\n") * 2000)
        config = RunConfig(command="stats", input_path=str(path), max_order=9)
        out = io.StringIO()
        tracemalloc.start()
        try:
            code = run(config, out=out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert "skipped_over_max_order: 2000" in out.getvalue()
        assert peak < 1 << 20


class TestDeterminism:
    def test_jobs_do_not_change_output(self, corpus_path):
        _, one, _ = run_cli(
            command="classify", input_path=str(corpus_path), jobs=1,
            zero_timings=True, max_order=20,
        )
        _, eight, _ = run_cli(
            command="classify", input_path=str(corpus_path), jobs=8,
            zero_timings=True, max_order=20,
        )
        assert one == eight

    def test_verdicts_stable_without_zero_timings(self, corpus_path):
        def strip_timings(text: str) -> list[list[str]]:
            return [row.split(",")[:11] for row in text.strip().split("\n")]

        _, one, _ = run_cli(
            command="classify", input_path=str(corpus_path), jobs=1, max_order=20
        )
        _, four, _ = run_cli(
            command="classify", input_path=str(corpus_path), jobs=4, max_order=20
        )
        assert strip_timings(one) == strip_timings(four)


class TestVerifyCommands:
    def test_verify_local_petersen(self):
        code, out, _ = run_cli(command="verify-local", named="petersen")
        assert code == EXIT_OK
        assert out.splitlines() == [
            "graph 1 (order 10): 45 pairs consistent",
            "checked 1 graph(s), 45 pair(s), 0 violation(s)",
        ]

    def test_verify_local_refuses_k4(self):
        code, out, _ = run_cli(command="verify-local", named="k4")
        assert code == EXIT_OK
        assert out.splitlines() == [
            "graph 1 (order 4): refused, not a snark (3-edge-colorable)",
            "checked 1 graph(s), 0 pair(s), 0 violation(s)",
        ]

    def test_verify_local_flags_degenerate_dumbbell_pair(self):
        code, out, _ = run_cli(command="verify-local", named="dumbbell")
        assert code == EXIT_OK
        assert out.splitlines() == [
            "graph 1 (order 2): 1 pairs consistent, 1 degenerate pair(s)",
            "checked 1 graph(s), 1 pair(s), 0 violation(s)",
        ]

    def test_verify_coincidence_corpus_small(self, corpus_path):
        code, out, _ = run_cli(
            command="verify-coincidence", input_path=str(corpus_path), max_order=18
        )
        assert code == EXIT_OK
        assert "0 violation(s)" in out

    def test_verify_strong_petersen(self):
        code, out, _ = run_cli(command="verify-strong", named="petersen")
        assert code == EXIT_OK
        assert out.splitlines() == [
            "graph 1 (order 10): strong=false routes_agree=true edges=15 "
            "non_suppressible=0",
            "checked 1 graph(s), 0 violation(s)",
        ]

    # the cells of (command, built-in graph) that the tests above leave
    # open; the refusals and the multigraphs read is_connected, is_cubic and
    # has_dangling before any solver runs
    @pytest.mark.parametrize(
        "command, name, lines",
        [
            ("classify", "k4", [",".join(CSV_COLUMNS), "1,4,false,3,,,,,,,,,"]),
            ("verify-local", "theta", [
                f"graph 1 (order 2): {REFUSED}",
                "checked 1 graph(s), 0 pair(s), 0 violation(s)",
            ]),
            ("verify-coincidence", "dumbbell", [f"graph 1 (order 2): {COINCIDE}", CHECKED]),
            ("verify-coincidence", "theta", [f"graph 1 (order 2): {REFUSED}", CHECKED]),
            ("verify-coincidence", "k4", [f"graph 1 (order 4): {REFUSED}", CHECKED]),
            ("verify-coincidence", "petersen", [f"graph 1 (order 10): {COINCIDE}", CHECKED]),
            ("verify-strong", "dumbbell", [
                "graph 1 (order 2): strong=false routes_agree=true edges=1 "
                "non_suppressible=1",
                CHECKED,
            ]),
            ("verify-strong", "theta", [f"graph 1 (order 2): {REFUSED}", CHECKED]),
            ("verify-strong", "k4", [f"graph 1 (order 4): {REFUSED}", CHECKED]),
        ],
    )
    def test_every_command_on_the_built_in_graphs(self, command, name, lines):
        code, out, _ = run_cli(command=command, named=name, zero_timings=True)
        assert code == EXIT_OK
        assert out.splitlines() == lines

    def test_strong_disagreement_names_the_edge(self, monkeypatch):
        # both solvers call the fourth suppression of Petersen uncolorable,
        # so the route totals both read strong=false and only that edge
        # disagrees
        edge = petersen().edges[3].id
        real = DecisionTable.verdict

        def flipped(self, surgery, where, solver):
            flip = surgery == SUPPRESSION and where == edge
            return real(self, surgery, where, solver) != flip

        monkeypatch.setattr(DecisionTable, "verdict", flipped)
        code, out, _ = run_cli(command="verify-strong", named="petersen")
        assert code == EXIT_VIOLATION
        assert out.splitlines()[0].endswith(
            f"routes_agree=false edges=15 non_suppressible=0 DISAGREE "
            f"edge {edge} suppression_uncolorable=true removal_uncolorable=false"
        )

    @pytest.mark.parametrize("command", ["classify", "verify-coincidence"])
    def test_coincidence_disagreement_names_the_pair(self, command, monkeypatch):
        # Petersen's pair (0, 1) is adjacent, so both classifier pairs split there
        deny_decision(monkeypatch, (IDENTIFICATION, VertexPair(0, 1), FLOW))
        code, out, err = run_cli(command=command, named="petersen")
        assert code == EXIT_VIOLATION
        split = (
            "at pair (0, 1): colorable_after_removal=true flow_after_identification=false"
        )
        named = (
            f"critical=true but 4-edge-critical=false {split}; "
            f"bicritical=true but 4-vertex-critical=false {split}"
        )
        if command == "classify":
            assert "graph 1 (petersen): criticality classifiers disagree" in err
            assert err.splitlines()[0].endswith(named)
        else:
            assert out.splitlines()[0].endswith(f" DISAGREE {named}")

    # one denied statement of Petersen's pair (0, 1), or of edge 0 (which joins
    # 0 and 1), against the exit codes of verify-local, verify-strong,
    # verify-coincidence and classify (0 ok, 4 violation); every row is caught
    # at least once, and each 0 is a command that does not read the statement
    @pytest.mark.parametrize(
        "key, codes",
        [
            ((REMOVAL, VertexPair(0, 1), COLORING), (4, 4, 4, 4)),
            # verify-strong reads removal by coloring only; verify-coincidence
            # and classify read no removal flow
            ((REMOVAL, VertexPair(0, 1), FLOW), (4, 0, 0, 0)),
            # verify-strong reads no identification
            ((IDENTIFICATION, VertexPair(0, 1), FLOW), (4, 0, 4, 4)),
            # only verify-local's pair reports read edge deletion and contraction
            ((DELETION, 0, FLOW), (4, 0, 0, 0)),
            ((CONTRACTION, 0, FLOW), (4, 0, 0, 0)),
            # verify-coincidence reads no suppression
            ((SUPPRESSION, 0, COLORING), (4, 4, 0, 4)),
            # verify-local's pair reports read suppression by coloring only,
            # and verify-coincidence reads no suppression
            ((SUPPRESSION, 0, FLOW), (0, 4, 0, 4)),
        ],
        ids=lambda v: "-".join(map(str, v)) if isinstance(v[0], int) else f"{v[0]}-{v[2]}",
    )
    def test_each_denied_statement_is_caught(self, key, codes, monkeypatch):
        assert (EXIT_OK, EXIT_VIOLATION) == (0, 4)
        deny_decision(monkeypatch, key)
        commands = ("verify-local", "verify-strong", "verify-coincidence", "classify")
        got = tuple(run_cli(command=c, named="petersen")[0] for c in commands)
        assert got == codes

    @pytest.mark.parametrize("solver", [COLORING, FLOW])
    @pytest.mark.parametrize("name", ["petersen", "k4"])
    def test_an_inverted_snark_test_is_caught(self, name, solver, monkeypatch):
        # the snark test's two verdicts then differ, on a snark and on a
        # colorable graph alike, while the solvers that decide looks up
        # still give the true answers
        invert_snark_test(monkeypatch, solver)
        graph = make_named(name)
        colorable = name == "k4"
        assert (coloring.three_edge_colorable(graph) is not None) == colorable
        assert (flows.nowhere_zero_flow(graph) is not None) == colorable
        inverted = colorable != (solver == COLORING)
        verdicts = f"3-edge-colorable={inverted} but Z4 flow present={not inverted}"
        for command in COMMANDS:
            code, _, err = run_cli(command=command, named=name)
            assert code == EXIT_VIOLATION, command
            assert verdicts in err, command

    def test_broken_witnesses_and_hints_change_no_output(self, monkeypatch):
        # a transported witness settles a key only after its own check, and a
        # hint only orders a search; so corrupting every transported witness,
        # or scrambling every hint, changes no byte of any output
        runs = [
            (command, name)
            for name in ("petersen", "flower(5)", "flower(7)")
            for command in ("classify", "verify-local", "verify-coincidence", "verify-strong")
        ]

        def outputs():
            return [run_cli(command=c, named=n, zero_timings=True) for c, n in runs]

        def work():
            return coloring.search_steps + flows.search_steps, criticality.witness_checks

        steps = work()[0]
        clean = outputs()
        clean_steps = work()[0] - steps
        assert all(code == EXIT_OK for code, _, _ in clean)

        steps, checks = work()
        accepted = corrupt_transported(monkeypatch)
        assert outputs() == clean
        assert accepted == []
        # the checks still ran, and the solvers did the work they saved
        assert work()[1] > checks and work()[0] - steps > clean_steps
        monkeypatch.undo()

        scramble_hints(monkeypatch)
        assert outputs() == clean

    @pytest.mark.parametrize("command", COMMANDS)
    def test_bridged_snark_passes(self, command, bridged_snark_g6, tmp_path):
        # suppressing its bridge leaves a disconnected, uncolorable graph,
        # which the strength route once took for a solver disagreement
        path = tmp_path / "bridged.g6"
        path.write_text(bridged_snark_g6 + "\n")
        code, out, err = run_cli(command=command, input_path=str(path))
        assert code == EXIT_OK, err
        if command == "classify":
            header, row = out.splitlines()
            assert dict(zip(header.split(","), row.split(",")))["is_strong"] == "true"
        if command == "verify-strong":
            assert "strong=true routes_agree=true" in out

    def test_stats(self, corpus_path):
        code, out, _ = run_cli(command="stats", input_path=str(corpus_path))
        assert code == EXIT_OK
        stats = dict(line.split(": ") for line in out.strip().split("\n"))
        assert stats["graphs"] == "8"
        assert stats["snarks"] == "8"
        assert stats["strictly_critical"] == "0"

    def test_stats_totals_match_records(self, corpus_path):
        code, csv_out, _ = run_cli(command="classify", input_path=str(corpus_path))
        rows = [r.split(",") for r in csv_out.strip().split("\n")[1:]]
        critical = sum(1 for r in rows if r[5] == "true")
        _, stats_out, _ = run_cli(command="stats", input_path=str(corpus_path))
        stats = dict(line.split(": ") for line in stats_out.strip().split("\n"))
        assert int(stats["critical"]) == critical

    def test_stats_keeps_no_records(self):
        # a census list runs to tens of millions of graphs, so stats counts
        # each record as it arrives and holds it no longer than that
        held = []

        def results():
            for i in range(1, 51):
                if len(held) >= 2:
                    gc.collect()
                    assert held[-2]() is None, f"the record of graph {i - 2} is kept"
                snark = i % 2 == 1
                verdicts = (True, True, False, True, True, False) if snark else ()
                record = ClassificationRecord(i, 10, snark, 5, 5, *verdicts)
                held.append(weakref.ref(record))
                yield None, Result(i, record=record)
                del record

        out = io.StringIO()
        config = RunConfig(command="stats", named="petersen")
        assert _report(results(), 0, config, out) == EXIT_OK
        assert len(held) == 50
        assert out.getvalue() == (
            "graphs: 50\nsnarks: 25\ncritical: 25\nbicritical: 25\n"
            "strictly_critical: 0\nstrong: 0\nskipped_over_max_order: 0\n"
        )

    def test_stats_jsonl(self, corpus_path):
        import json

        code, out, _ = run_cli(
            command="stats", input_path=str(corpus_path), format="jsonl",
            max_order=20,
        )
        assert code == EXIT_OK
        counts = json.loads(out)
        assert counts["graphs"] == 4
        assert counts["skipped_over_max_order"] == 4

    def test_verify_local_parallel_matches_serial(self, corpus_path):
        _, serial, _ = run_cli(
            command="verify-local", input_path=str(corpus_path), max_order=18
        )
        _, parallel, _ = run_cli(
            command="verify-local", input_path=str(corpus_path), max_order=18, jobs=4
        )
        assert serial == parallel

    @pytest.mark.parametrize(
        "command", ["classify", "verify-local", "verify-coincidence", "verify-strong"]
    )
    def test_named_and_graph6_report_the_same_line(self, command, tmp_path):
        path = tmp_path / "petersen.g6"
        path.write_text(encode_graph6(petersen()) + "\n")

        def graph_line(**source) -> str:
            code, out, _ = run_cli(command=command, zero_timings=True, **source)
            assert code == EXIT_OK
            return out.strip().split("\n")[1 if command == "classify" else 0]

        assert graph_line(named="petersen") == graph_line(input_path=str(path))


class TestErrors:
    def test_unreadable_input(self, tmp_path):
        code, _, err = run_cli(command="classify", input_path=str(tmp_path / "no.g6"))
        assert code == EXIT_UNREADABLE
        assert "cannot read" in err

    def test_unknown_named(self):
        code, _, err = run_cli(command="classify", named="mystery")
        assert code == EXIT_UNREADABLE

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "corrupt.g6"
        path.write_text(encode_graph6(petersen()) + "\nIheA@GUAo\x7f\n")
        code, _, err = run_cli(command="classify", input_path=str(path))
        assert code == EXIT_PARSE
        assert "line 2" in err
        assert "offending line 2: IheA@GUAo\x7f\n" in err

    def test_invalid_byte_reports_line_and_offset(self, tmp_path):
        path = tmp_path / "binary.g6"
        path.write_bytes(encode_graph6(petersen()).encode() + b"\nA\xff\n")
        code, _, err = run_cli(command="classify", input_path=str(path))
        assert code == EXIT_PARSE
        assert "line 2, byte 1: byte 255 out of range" in err
        assert "offending line 2: A\\xff\n" in err

    def test_parse_error_on_piped_input(self):
        # the offending line comes from the reader, not from a second read
        # of a pipe that is already drained
        proc = subprocess.run(
            [sys.executable, "-m", "snarkcrit.cli", "--input", "/dev/stdin"],
            input="I?h]@eOWG\n!!bad\n",
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_PARSE
        assert "offending line 2: !!bad\n" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_a_closed_stdout_ends_the_run_quietly(self, jobs, tmp_path):
        # the reader closes after the first line while the run still writes;
        # stdout is unbuffered, so that line arrives as soon as it is written
        path = tmp_path / "many.g6"
        path.write_text((encode_graph6(petersen()) + "\n") * 200)
        argv = ["--input", str(path), "--command", "verify-local", "--jobs", jobs]
        script = (
            "import os, sys\n"
            "from snarkcrit.cli import main\n"
            f"code = main({argv!r})\n"
            "try:\n"
            "    os.waitpid(-1, os.WNOHANG)\n"
            "except ChildProcessError:\n"
            "    print('no child left', file=sys.stderr)\n"
            "sys.exit(code)\n"
        )
        with subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONUNBUFFERED": "1"},
        ) as proc:
            try:
                first = proc.stdout.readline()
                proc.stdout.close()
                _, err = proc.communicate(timeout=60)
            finally:
                proc.kill()  # a no-op once it has exited
        assert first == "graph 1 (order 10): 45 pairs consistent\n"
        assert proc.returncode == EXIT_CLOSED_OUTPUT
        # no traceback, no "Exception ignored" from the final flush
        assert err == "no child left\n"

    def test_violation_exit_code(self):
        # synthetic inconsistent result exercises the exit path; the
        # honest pipeline cannot produce one without a solver bug
        out = io.StringIO()
        fake = [
            (None, Result(1, line="graph 1 (order 10): INCONSISTENT pairs [(0, 1)]",
                          violation=True, pairs=45)),
        ]
        config = RunConfig(command="verify-local", named="petersen")
        assert _report(fake, 0, config, out) == EXIT_VIOLATION
        assert "INCONSISTENT" in out.getvalue()
        assert "1 violation(s)" in out.getvalue()

    def test_fail_fast_stops_at_first_violation(self):
        out = io.StringIO()
        fake = [
            (None, Result(1, line="graph 1 (order 10): INCONSISTENT pairs [(0, 1)]",
                          violation=True, pairs=45)),
            (None, Result(2, line="graph 2 (order 10): 45 pairs consistent", pairs=45)),
        ]
        config = RunConfig(command="verify-local", named="petersen", fail_fast=True)
        assert _report(fake, 0, config, out) == EXIT_VIOLATION
        assert "graph 2" not in out.getvalue()
        assert "checked 1 graph(s), 45 pair(s)" in out.getvalue()

    def test_fail_fast_stops_the_work(self, tmp_path, monkeypatch):
        from snarkcrit import cli

        path = tmp_path / "two.g6"
        path.write_text(encode_graph6(petersen()) + "\n" + encode_graph6(blanusa(1)) + "\n")
        evaluated = []

        def inconsistent(graph, table=None):
            evaluated.append(graph.order)
            report = SimpleNamespace(
                pair=VertexPair(0, 1),
                consistent=False,
                statements=lambda: {"colorable_after_removal": True, "flow_after_removal": False},
            )
            return SimpleNamespace(
                pair_count=45,
                consistent=False,
                degenerate_pairs=(),
                reports=(report,),
            )

        monkeypatch.setattr(cli, "verify_local_equivalence", inconsistent)
        code, out, _ = run_cli(
            command="verify-local", input_path=str(path), jobs=1, fail_fast=True
        )
        assert code == EXIT_VIOLATION
        assert evaluated == [10]
        assert "graph 2" not in out
        assert "checked 1 graph(s), 45 pair(s), 1 violation(s)" in out

    def test_fail_fast_stops_the_pool_within_its_window(self, tmp_path, monkeypatch):
        # the workers are forked, so each evaluation is counted in a file
        from snarkcrit import cli

        graphs, jobs = 40, 2
        path = tmp_path / "many.g6"
        path.write_text((encode_graph6(petersen()) + "\n") * graphs)
        log = tmp_path / "evaluated.txt"

        def slow_evaluate(config, index, graph):
            with open(log, "a") as f:
                f.write(f"{index}\n")
            time.sleep(0.02)
            return Result(index, line=f"graph {index}", violation=index == 1, pairs=45)

        monkeypatch.setattr(cli, "evaluate", slow_evaluate)
        code, out, _ = run_cli(
            command="verify-local", input_path=str(path), jobs=jobs, fail_fast=True
        )
        assert code == EXIT_VIOLATION
        assert "checked 1 graph(s)" in out
        evaluated = log.read_text().split()
        chunk = graphs // (jobs * 4)
        # the first chunk is done; no chunk beyond the window was submitted
        assert 1 <= len(evaluated) <= 2 * jobs * chunk < graphs

    def test_pool_keeps_busy_behind_a_slow_head_chunk(self, tmp_path, monkeypatch):
        # the workers are forked, so each evaluation is logged in a file,
        # with its end on the system-wide monotonic clock
        from snarkcrit import cli

        graphs, jobs = 16, 2
        path = tmp_path / "many.g6"
        path.write_text((encode_graph6(petersen()) + "\n") * graphs)
        log = tmp_path / "evaluated.txt"

        def timed_evaluate(config, index, graph):
            time.sleep(1.0 if index == 1 else 0.01)
            with open(log, "a") as f:
                f.write(f"{index} {time.monotonic()}\n")
            return Result(index, line=f"graph {index}", pairs=45)

        monkeypatch.setattr(cli, "evaluate", timed_evaluate)
        code, out, _ = run_cli(command="verify-local", input_path=str(path), jobs=jobs)
        assert code == EXIT_OK
        assert out.splitlines()[:graphs] == [f"graph {i}" for i in range(1, graphs + 1)]
        ends = {int(i): float(t) for i, t in map(str.split, log.read_text().splitlines())}
        assert sorted(ends) == list(range(1, graphs + 1))
        chunk = graphs // (jobs * 4)
        # every chunk after the first was evaluated while graph 1 still ran
        assert max(ends[i] for i in ends if i > chunk) < ends[1]

    def test_pool_drops_no_chunk_that_finishes_while_the_consumer_runs(
        self, tmp_path, monkeypatch
    ):
        # every busy worker answers before the pool looks, so one select
        # hands back several finished chunks at once
        import select

        from snarkcrit import cli

        real_select = select.select
        seen = []

        def late_select(readers, writers, errors):
            deadline = time.monotonic() + 30
            ready = []
            while len(ready) < len(readers) and time.monotonic() < deadline:
                ready = real_select(readers, writers, errors, 0.01)[0]
            seen.append(len(ready))
            return ready, [], []

        def quick_evaluate(config, index, graph):
            time.sleep(0.01)
            return Result(index, line=f"graph {index}", pairs=45)

        graphs = 16
        monkeypatch.setattr(select, "select", late_select)
        monkeypatch.setattr(cli, "evaluate", quick_evaluate)
        path = tmp_path / "many.g6"
        path.write_text((encode_graph6(petersen()) + "\n") * graphs)
        code, out, _ = run_cli(command="verify-local", input_path=str(path), jobs=2)
        assert code == EXIT_OK
        assert out.splitlines()[:graphs] == [f"graph {i}" for i in range(1, graphs + 1)]
        assert f"checked {graphs} graph(s)" in out
        assert max(seen) == 2

    def test_pool_asks_for_no_more_workers_than_chunks(self, tmp_path, monkeypatch):
        # a wrapper around fork counts the workers in this process
        forked = count_forks(monkeypatch)
        path = tmp_path / "three.g6"
        path.write_text((encode_graph6(petersen()) + "\n") * 3)
        code, out, _ = run_cli(command="classify", input_path=str(path), jobs=8)
        assert code == EXIT_OK
        assert 1 <= len(forked) <= 3
        assert [row.split(",")[0] for row in out.splitlines()[1:]] == ["1", "2", "3"]

        forked.clear()
        empty = tmp_path / "empty.g6"
        empty.write_text("")
        code, _, _ = run_cli(command="classify", input_path=str(empty), jobs=2)
        assert code == EXIT_OK
        assert forked == []

    def test_no_worker_outlives_a_pooled_run(self, tmp_path, monkeypatch):
        from snarkcrit import cli

        def no_children():
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)

        path = tmp_path / "many.g6"
        path.write_text((encode_graph6(petersen()) + "\n") * 12)
        no_children()

        def quick(config, index, graph):
            return Result(index, line=f"graph {index}", pairs=45)

        monkeypatch.setattr(cli, "evaluate", quick)
        code, out, _ = run_cli(command="verify-local", input_path=str(path), jobs=2)
        assert code == EXIT_OK and "checked 12 graph(s)" in out
        no_children()

        # graph 1 violates at once; the workers that took the next graphs
        # would sleep far longer than the run may take
        def violate_first(config, index, graph):
            if index > 1:
                time.sleep(60)
            return Result(index, line=f"graph {index}", violation=index == 1, pairs=45)

        monkeypatch.setattr(cli, "evaluate", violate_first)
        start = time.monotonic()
        code, out, _ = run_cli(
            command="verify-local", input_path=str(path), jobs=2, fail_fast=True
        )
        assert code == EXIT_VIOLATION and "checked 1 graph(s)" in out
        assert time.monotonic() - start < 30
        no_children()

        def raise_on_2(config, index, graph):
            if index == 2:
                raise ValueError("graph 2 broke the worker")
            return Result(index, line=f"graph {index}", pairs=45)

        monkeypatch.setattr(cli, "evaluate", raise_on_2)
        with pytest.raises(ValueError, match="graph 2 broke the worker") as info:
            run_cli(command="verify-local", input_path=str(path), jobs=2)
        # the worker's traceback comes along as the cause
        assert "raise_on_2" in str(info.value.__cause__)
        no_children()

    def test_a_pool_that_cannot_start_exits_2(self, tmp_path):
        # 16 open files let a few workers start before os.pipe fails; those are
        # reaped, stdout stays empty and stderr names the OS error
        import resource

        path = tmp_path / "forty.g6"
        path.write_text((encode_graph6(petersen()) + "\n") * 40)
        script = (
            "import os, sys\n"
            "from snarkcrit.cli import main\n"
            f"code = main(['--input', {str(path)!r}, '--jobs', '8', '--command', 'stats'])\n"
            "try:\n"
            "    os.waitpid(-1, os.WNOHANG)\n"
            "except ChildProcessError:\n"
            "    print('no child left')\n"
            "sys.exit(code)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_NOFILE, (16, 16)),
        )
        assert proc.returncode == EXIT_UNREADABLE
        # the report wrote nothing before the marker
        assert proc.stdout == "no child left\n"
        assert proc.stderr == (
            "error: cannot start the pool: [Errno 24] Too many open files\n"
        )

    def test_a_worker_that_raises_makes_the_run_raise(self, tmp_path):
        # in a fresh process with a timeout, so a pool that hangs fails the test
        path = tmp_path / "three.g6"
        path.write_text((encode_graph6(petersen()) + "\n") * 3)
        script = (
            "from snarkcrit import cli\n"
            "def broken(config, index, graph):\n"
            "    raise ValueError(f'graph {index} broke the worker')\n"
            "cli.evaluate = broken\n"
            "try:\n"
            f"    cli.main(['--input', {str(path)!r}, '--jobs', '2'])\n"
            "except ValueError as exc:\n"
            "    print('raised:', exc)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "raised: graph 1 broke the worker\n"

    def test_a_worker_that_exits_without_answering_makes_the_run_raise(self, tmp_path):
        # in a fresh process with a timeout, so a pool that hangs fails the test
        path = tmp_path / "three.g6"
        path.write_text((encode_graph6(petersen()) + "\n") * 3)
        script = (
            "import os\n"
            "from snarkcrit import cli\n"
            "def leave(config, index, graph):\n"
            "    os._exit(1)\n"
            "cli.evaluate = leave\n"
            "try:\n"
            f"    cli.main(['--input', {str(path)!r}, '--jobs', '2'])\n"
            "except RuntimeError as exc:\n"
            "    print('raised:', exc)\n"
            "try:\n"
            "    os.waitpid(-1, os.WNOHANG)\n"
            "except ChildProcessError:\n"
            "    print('no child left')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert re.fullmatch(
            r"raised: pool worker \d+ exited before it answered\nno child left\n",
            proc.stdout,
        )

    def test_a_worker_that_dies_idle_makes_the_run_raise(self, tmp_path):
        # each worker is killed before its first chunk number is written, so
        # that write finds no reader; the run must fail as for any worker that
        # leaves without an answer, not as if stdout had been closed
        path = tmp_path / "three.g6"
        path.write_text((encode_graph6(petersen()) + "\n") * 3)
        script = (
            "import os, signal\n"
            "from snarkcrit import cli\n"
            "real_fork = os.fork\n"
            "def fork_and_kill():\n"
            "    pid = real_fork()\n"
            "    if pid:\n"
            "        os.kill(pid, signal.SIGKILL)\n"
            "        os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)\n"
            "    return pid\n"
            "os.fork = fork_and_kill\n"
            "try:\n"
            f"    cli.main(['--input', {str(path)!r}, '--jobs', '2'])\n"
            "except RuntimeError as exc:\n"
            "    print('raised:', exc)\n"
            "try:\n"
            "    os.waitpid(-1, os.WNOHANG)\n"
            "except ChildProcessError:\n"
            "    print('no child left')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert re.fullmatch(
            r"raised: pool worker \d+ exited before it answered\nno child left\n",
            proc.stdout,
        )

    def test_a_result_that_cannot_be_pickled_raises_in_its_turn(self, tmp_path):
        # graph 3's result holds a lock; the graphs before it are reported,
        # none after it, and the run raises the pickling error
        path = tmp_path / "four.g6"
        path.write_text((encode_graph6(petersen()) + "\n") * 4)
        script = (
            "import threading\n"
            "from snarkcrit import cli\n"
            "def quick(config, index, graph):\n"
            "    line = threading.Lock() if index == 3 else f'graph {index}'\n"
            "    return cli.Result(index, line=line)\n"
            "cli.evaluate = quick\n"
            "try:\n"
            f"    cli.main(['--input', {str(path)!r}, '--jobs', '2',\n"
            "              '--command', 'verify-local'])\n"
            "except TypeError as exc:\n"
            "    print('raised:', exc)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert re.fullmatch(
            r"graph 1\ngraph 2\nraised: cannot pickle '_thread.lock' object\n",
            proc.stdout,
        )

    def test_an_answer_larger_than_a_pipe_buffer_arrives_whole(
        self, tmp_path, monkeypatch
    ):
        # a pipe holds 64 KiB, so these answers reach the parent in pieces
        from snarkcrit import cli

        path = tmp_path / "four.g6"
        path.write_text((encode_graph6(petersen()) + "\n") * 4)

        def long_line(config, index, graph):
            return Result(index, line=f"graph {index} " + "x" * 1_000_000)

        monkeypatch.setattr(cli, "evaluate", long_line)
        code, out, _ = run_cli(command="verify-local", input_path=str(path), jobs=2)
        assert code == EXIT_OK
        lines = out.splitlines()
        assert [len(line) for line in lines[:4]] == [1_000_008] * 4
        assert [line.split()[1] for line in lines[:4]] == ["1", "2", "3", "4"]

    def test_inconsistent_line_names_the_statements(self, monkeypatch):
        deny_decision(monkeypatch, (IDENTIFICATION, VertexPair(0, 2), FLOW))
        code, out, _ = run_cli(command="verify-local", named="petersen")
        assert code == EXIT_VIOLATION
        assert (
            "INCONSISTENT pairs (0, 2) colorable_after_removal=true "
            "flow_after_removal=true flow_after_identification=false\n"
        ) in out

    def test_violation_names_the_graph(self, tmp_path, monkeypatch, capsys):
        from snarkcrit import cli

        lines = [encode_graph6(petersen()), encode_graph6(blanusa(1))]
        path = tmp_path / "two.g6"
        path.write_text("\n".join(lines) + "\n")
        real_classify = cli.classify

        def failing_classify(graph, graph_index=0):
            if graph_index == 2:
                raise EquivalenceViolationError("routes disagree")
            return real_classify(graph, graph_index=graph_index)

        monkeypatch.setattr(cli, "classify", failing_classify)
        assert main(["--input", str(path), "--command", "classify"]) == EXIT_VIOLATION
        err = capsys.readouterr().err
        assert f"graph 2 ({lines[1]}): routes disagree" in err


class TestReproduce:
    """A violating graph gets a one-line command that reruns it alone."""

    @pytest.fixture
    def flipped_identification(self, monkeypatch):
        deny_decision(monkeypatch, (IDENTIFICATION, VertexPair(0, 2), FLOW))

    @pytest.mark.parametrize("command", ["classify", "verify-local"])
    def test_graph6_input(self, command, tmp_path, capsys, flipped_identification):
        line = encode_graph6(petersen())
        path = tmp_path / "one.g6"
        path.write_text(line + "\n")
        assert main(["--input", str(path), "--command", command]) == EXIT_VIOLATION
        out, err = capsys.readouterr()
        reproduce = (
            f"reproduce: printf '%s\\n' '{line}' | snarkcrit --input /dev/stdin "
            f"--command {command}\n"
        )
        assert reproduce in err
        assert err.count("reproduce:") == 1
        assert "reproduce" not in out

        # the command's own input reproduces the violation
        again = tmp_path / "again.g6"
        again.write_text(line + "\n")
        assert main(["--input", str(again), "--command", command]) == EXIT_VIOLATION

    @pytest.mark.parametrize("command", ["classify", "verify-local"])
    def test_named_graph(self, command, capsys, flipped_identification):
        assert main(["--named", "petersen", "--command", command]) == EXIT_VIOLATION
        err = capsys.readouterr().err
        assert f"reproduce: snarkcrit --named petersen --command {command}\n" in err

    def test_one_line_per_violating_graph(self, tmp_path, capsys, monkeypatch):
        lines = [encode_graph6(petersen()), encode_graph6(blanusa(1))]
        path = tmp_path / "three.g6"
        path.write_text("\n".join([lines[0], lines[1], lines[0]]) + "\n")
        argv = ["--input", str(path), "--command", "verify-local"]
        assert main(argv) == EXIT_OK
        clean = capsys.readouterr()
        assert "reproduce" not in clean.err

        deny_decision(
            monkeypatch,
            (IDENTIFICATION, VertexPair(0, 2), FLOW),
            only_on=lambda graph: graph.order == 10,
        )
        # at --jobs 2 each graph is its own chunk, and the reproduce lines
        # come from the lines that the pool's parent kept
        for jobs in ("1", "2"):
            assert main([*argv, "--jobs", jobs]) == EXIT_VIOLATION
            out, err = capsys.readouterr()
            assert err.count("reproduce:") == 2 and err.count(lines[0]) == 2
            assert lines[1] not in err
            assert out.splitlines()[1] == clean.out.splitlines()[1]  # Blanusa's line
            assert "reproduce" not in out

    def test_a_pool_answer_carries_no_input_line(self):
        from snarkcrit import cli

        line = encode_graph6(petersen())
        config = RunConfig(command="classify", input_path="petersen.g6")
        assert line.encode() not in pickle.dumps(cli._work(config, (1, line)))

    def test_named_is_shell_quoted(self):
        from snarkcrit.cli import _reproduce

        config = RunConfig(command="verify-strong", named="flower(7)")
        assert _reproduce(config, None) == (
            "reproduce: snarkcrit --named 'flower(7)' --command verify-strong"
        )


class TestRaisedViolations:
    """A violation the library raises for one graph leaves the others reported."""

    @pytest.fixture
    def three(self, tmp_path):
        lines = [encode_graph6(g) for g in (blanusa(1), petersen(), blanusa(2))]
        path = tmp_path / "three.g6"
        path.write_text("\n".join(lines) + "\n")
        return str(path), lines

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize(
        "command", ["verify-local", "verify-coincidence", "verify-strong"]
    )
    def test_verify_reports_the_other_graphs(
        self, command, jobs, three, monkeypatch, capsys
    ):
        from snarkcrit import criticality

        real = criticality.nowhere_zero_flow

        def flow_on_petersen(graph, *args, **kwargs):
            # the routes of snark_status disagree on the order-10 input only
            return {} if graph.order == 10 else real(graph, *args, **kwargs)

        monkeypatch.setattr(criticality, "nowhere_zero_flow", flow_on_petersen)
        path, lines = three
        args = ["--input", path, "--command", command, "--jobs", jobs]
        assert main(args) == EXIT_VIOLATION
        out, err = capsys.readouterr()
        reproduce = [row for row in err.splitlines() if row.startswith("reproduce:")]
        assert len(reproduce) == 1 and f"'{lines[1]}'" in reproduce[0]
        disagree = "3-edge-colorable=False but Z4 flow present=True"
        assert f"graph 2 ({lines[1]}): {disagree}" in err
        report = out.splitlines()
        assert [line.split(":")[0] for line in report[:-1]] == [
            "graph 1 (order 18)",
            "graph 3 (order 18)",
        ]
        assert re.fullmatch(r"checked 3 graph\(s\)(, .*)?, 1 violation\(s\)", report[-1])

    @pytest.fixture
    def failing_classify(self, monkeypatch):
        from snarkcrit import cli

        real = cli.classify
        evaluated = []

        def failing(graph, graph_index=0):
            evaluated.append(graph_index)
            if graph_index == 2:
                raise EquivalenceViolationError("routes disagree")
            return real(graph, graph_index=graph_index)

        monkeypatch.setattr(cli, "classify", failing)
        return evaluated

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_classify_writes_the_other_rows(self, fmt, three, failing_classify, capsys):
        import json

        path, lines = three
        assert main(["--input", path, "--format", fmt]) == EXIT_VIOLATION
        out, err = capsys.readouterr()
        assert f"graph 2 ({lines[1]}): routes disagree" in err
        assert err.count("reproduce:") == 1
        if fmt == "csv":
            indices = [row.split(",")[0] for row in out.splitlines()[1:]]
        else:
            indices = [str(json.loads(row)["graph_index"]) for row in out.splitlines()]
        assert indices == ["1", "3"]

    def test_stats_counts_the_other_graphs(self, three, failing_classify, capsys):
        path, lines = three
        assert main(["--input", path, "--command", "stats"]) == EXIT_VIOLATION
        out, err = capsys.readouterr()
        assert f"graph 2 ({lines[1]}): routes disagree" in err
        assert "graphs: 2\n" in out and "snarks: 2\n" in out

    @pytest.mark.parametrize("command", ["classify", "stats"])
    def test_fail_fast_stops_before_graph_3(
        self, command, three, failing_classify, capsys
    ):
        path, _ = three
        args = ["--input", path, "--command", command, "--fail-fast", "--jobs", "1"]
        assert main(args) == EXIT_VIOLATION
        assert failing_classify == [1, 2]
        out = capsys.readouterr().out
        if command == "classify":
            assert [row.split(",")[0] for row in out.splitlines()[1:]] == ["1"]
        else:
            assert "graphs: 1\n" in out


class TestEntryPoint:
    def test_main_returns_code(self):
        assert main(["--named", "k4", "--command", "classify"]) == EXIT_OK

    def test_bad_jobs_is_a_usage_error(self, monkeypatch, capsys):
        forked = count_forks(monkeypatch)
        for jobs in ("0", "-3"):
            with pytest.raises(SystemExit) as info:
                main(["--named", "petersen", "--jobs", jobs])
            assert info.value.code == 2
            err = capsys.readouterr().err
            assert err.startswith("usage: ")
            assert "jobs must be at least 1" in err
        assert forked == []

    def test_negative_max_order_is_a_usage_error(self, capsys, corpus_path):
        for argv in (["--named", "petersen", "--command", "stats", "--max-order", "-1"],
                     ["--input", str(corpus_path), "--command", "verify-local",
                      "--max-order", "-5"]):
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 2
            captured = capsys.readouterr()
            assert captured.err.startswith("usage: ")
            assert "max_order must not be negative" in captured.err
            assert captured.out == ""

    def test_jsonl_for_a_verify_command_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--named", "petersen", "--command", "verify-local",
                  "--format", "jsonl"])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("usage: ")
        assert "format applies only to classify and stats" in captured.err
        assert captured.out == ""

    def test_console_script(self, corpus_path):
        proc = subprocess.run(
            [sys.executable, "-m", "snarkcrit.cli", "--named", "petersen",
             "--command", "verify-local"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "45 pairs consistent" in proc.stdout

    def test_runs_without_a_pool_do_not_load_multiprocessing(self, tmp_path):
        # nor does a pooled run: its workers are forked over plain pipes
        empty = tmp_path / "empty.g6"
        empty.write_text("")
        three = tmp_path / "three.g6"
        three.write_text((encode_graph6(petersen()) + "\n") * 3)
        script = (
            "import sys\n"
            "from snarkcrit.cli import main\n"
            "assert main(['--named', 'petersen', '--jobs', '1']) == 0\n"
            f"assert main(['--input', {str(empty)!r}, '--jobs', '2', '--zero-timings']) == 0\n"
            f"assert main(['--input', {str(three)!r}, '--jobs', '2', '--zero-timings']) == 0\n"
            "print([m in sys.modules for m in ('multiprocessing', 'concurrent.futures')])\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        # the pooled run's three rows, then the modules
        assert [row.split(",")[0] for row in lines[-4:-1]] == ["1", "2", "3"]
        assert lines[-1] == "[False, False]"
