from __future__ import annotations

import io
import re
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

from snarkcrit.cli import (
    EXIT_OK,
    EXIT_PARSE,
    EXIT_UNREADABLE,
    EXIT_VIOLATION,
    Result,
    RunConfig,
    _print_certificates,
    main,
    run,
)
from snarkcrit.criticality import EquivalenceViolationError
from snarkcrit.graph_io import blanusa, encode_graph6, petersen
from snarkcrit.multigraph import VertexPair


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

    def test_named_multigraphs_work(self):
        for name in ("dumbbell", "theta"):
            code, out, _ = run_cli(command="classify", named=name)
            assert code == EXIT_OK

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

        def recording_evaluate(command, index, graph):
            seen_orders.append(graph.order)
            return real_evaluate(command, index, graph)

        monkeypatch.setattr(cli, "evaluate", recording_evaluate)
        code, out, _ = run_cli(
            command="stats", input_path=str(corpus_path), max_order=18, jobs=1
        )
        assert code == EXIT_OK
        assert sorted(seen_orders) == [10, 18, 18]
        assert "skipped_over_max_order: 5" in out


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
        assert "45 pairs consistent" in out
        assert "0 violation(s)" in out

    def test_verify_local_refuses_k4(self):
        code, out, _ = run_cli(command="verify-local", named="k4")
        assert code == EXIT_OK
        assert "refused" in out

    def test_verify_local_flags_degenerate_dumbbell_pair(self):
        code, out, _ = run_cli(command="verify-local", named="dumbbell")
        assert code == EXIT_OK
        assert "1 degenerate pair(s)" in out

    def test_verify_coincidence_corpus_small(self, corpus_path):
        code, out, _ = run_cli(
            command="verify-coincidence", input_path=str(corpus_path), max_order=18
        )
        assert code == EXIT_OK
        assert "0 violation(s)" in out

    def test_verify_strong_petersen(self):
        code, out, _ = run_cli(command="verify-strong", named="petersen")
        assert code == EXIT_OK
        assert "strong=false routes_agree=true" in out

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
            line = out.strip().split("\n")[1 if command == "classify" else 0]
            return re.sub(r"micros=\d+", "micros=", line)

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

    def test_violation_exit_code(self):
        # synthetic inconsistent result exercises the exit path; the
        # honest pipeline cannot produce one without a solver bug
        out = io.StringIO()
        fake = [
            Result(1, line="graph 1 (order 10): INCONSISTENT pairs [(0, 1)]",
                   violation=True, pairs=45),
        ]
        config = RunConfig(command="verify-local", named="petersen")
        assert _print_certificates(fake, 0, config, out) == EXIT_VIOLATION
        assert "INCONSISTENT" in out.getvalue()
        assert "1 violation(s)" in out.getvalue()

    def test_fail_fast_stops_at_first_violation(self):
        out = io.StringIO()
        fake = [
            Result(1, line="graph 1 (order 10): INCONSISTENT pairs [(0, 1)]",
                   violation=True, pairs=45),
            Result(2, line="graph 2 (order 10): 45 pairs consistent", pairs=45),
        ]
        config = RunConfig(command="verify-local", named="petersen", fail_fast=True)
        assert _print_certificates(fake, 0, config, out) == EXIT_VIOLATION
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
                inconsistent_pairs=(VertexPair(0, 1),),
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

        def slow_evaluate(command, index, graph):
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

    def test_inconsistent_line_names_the_statements(self, monkeypatch):
        from snarkcrit import criticality

        real = criticality.flow_on_identification

        def flipped(graph, pair, group, *, hint=None):
            flow = real(graph, pair, group, hint=hint)
            return None if pair == VertexPair(0, 2) else flow

        monkeypatch.setattr(criticality, "flow_on_identification", flipped)
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


class TestEntryPoint:
    def test_main_returns_code(self):
        assert main(["--named", "k4", "--command", "classify"]) == EXIT_OK

    def test_console_script(self, corpus_path):
        proc = subprocess.run(
            [sys.executable, "-m", "snarkcrit.cli", "--named", "petersen",
             "--command", "verify-local"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "45 pairs consistent" in proc.stdout
