from __future__ import annotations

import io
import subprocess
import sys

import pytest

from snarkcrit.cli import (
    EXIT_OK,
    EXIT_PARSE,
    EXIT_UNREADABLE,
    EXIT_VIOLATION,
    RunConfig,
    _print_certificates,
    main,
    run,
)
from snarkcrit.graph_io import encode_graph6, petersen


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
        from snarkcrit.graph_io import parse_graph6

        seen_orders = []
        real_worker = cli._WORKERS["stats"]

        def recording_worker(item):
            seen_orders.append(parse_graph6(item[1]).order)
            return real_worker(item)

        monkeypatch.setitem(cli._WORKERS, "stats", recording_worker)
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
        # synthetic inconsistent certificate exercises the exit path; the
        # honest pipeline cannot produce one without a solver bug
        out = io.StringIO()
        fake = [("certificate", 1, 10, 45, False, ((0, 1),), 0)]
        config = RunConfig(command="verify-local", named="petersen")
        assert _print_certificates(fake, 0, config, out) == EXIT_VIOLATION
        assert "INCONSISTENT" in out.getvalue()

    def test_fail_fast_stops_at_first_violation(self):
        out = io.StringIO()
        fake = [
            ("certificate", 1, 10, 45, False, ((0, 1),), 0),
            ("certificate", 2, 10, 45, True, (), 0),
        ]
        config = RunConfig(command="verify-local", named="petersen", fail_fast=True)
        assert _print_certificates(fake, 0, config, out) == EXIT_VIOLATION
        assert "graph 2" not in out.getvalue()


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
