"""Tests of the benchmark itself: generator, tracer and output checks.

Run from the repository root with ``PYTHONPATH=src python3 -m pytest bench``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import gen
import run
import tracing

SMALL_CORPUS = "\n".join(run.BENCH.joinpath("data", "bundled_snarks.g6").read_text().split()[:3])


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_same_bytes_other_seed_other_bytes(workload, tmp_path):
    first = gen.write_workload(workload, 5, tmp_path / "a").read_bytes()
    again = gen.write_workload(workload, 5, tmp_path / "b").read_bytes()
    other = gen.write_workload(workload, 6, tmp_path / "c").read_bytes()
    assert first == again
    assert first != other


def _traced(tmp_path: Path, name: str, cli_args: list[str]) -> tuple[str, dict]:
    spans = tmp_path / f"{name}.spans.json"
    output = tmp_path / f"{name}.out"
    subprocess.run(
        [sys.executable, str(run.BENCH / "tracing.py"), "--spans", str(spans),
         "--output", str(output), "--", *cli_args],
        env=run.ENV, check=True, timeout=120,
    )
    recorded = json.loads(spans.read_text())
    return output.read_text(), tracing.summarize(recorded["spans"], recorded["repeats"], {})


@pytest.mark.parametrize(
    "flags",
    [["--command", "classify", "--zero-timings"], ["--command", "verify-local"]],
)
def test_traced_output_and_counts_repeat_untraced_output(flags, tmp_path):
    corpus = tmp_path / "small.g6"
    corpus.write_text(SMALL_CORPUS + "\n")
    cli_args = ["--input", str(corpus), "--jobs", "1", *flags]
    plain = subprocess.run(
        [sys.executable, "-m", "snarkcrit.cli", *cli_args],
        env=run.ENV, check=True, timeout=120, capture_output=True, text=True,
    ).stdout
    out1, summary1 = _traced(tmp_path, "one", cli_args)
    out2, summary2 = _traced(tmp_path, "two", cli_args)
    assert out1 == plain == out2

    counts = {k for k in summary1["metrics"] if k.endswith("calls")}
    assert {k: summary1["metrics"][k] for k in counts} == {
        k: summary2["metrics"][k] for k in counts
    }
    assert summary1["metrics"]["coloring.calls"] > 0
    assert summary1["metrics"]["structure.chordless_cycles"] == summary2["metrics"][
        "structure.chordless_cycles"
    ]
    assert summary1["site_calls"] == summary2["site_calls"]


def test_wrappers_are_installed_then_removed(tmp_path):
    import importlib

    from snarkcrit import cli

    originals = [getattr(importlib.import_module(m), a) for m, a, _ in tracing.SITES]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = [getattr(importlib.import_module(m), a) for m, a, _ in tracing.SITES]
        assert all(w is not o for w, o in zip(wrapped, originals))
        corpus = tmp_path / "small.g6"
        corpus.write_text(SMALL_CORPUS + "\n")
        config = cli.RunConfig(command="classify", input_path=str(corpus), zero_timings=True)
        with open(tmp_path / "out", "w") as out:
            assert cli.run(config, out=out) == 0
    finally:
        tracer.uninstall()
    restored = [getattr(importlib.import_module(m), a) for m, a, _ in tracing.SITES]
    assert all(r is o for r, o in zip(restored, originals))
    assert tracer.spans


def test_coverage_check_names_sites_without_calls():
    calls = {name: 1 for name in tracing.REQUIRED["verify-local-snarks"]}
    assert tracing.missing_sites("verify-local-snarks", calls) == []
    del calls["snarkcrit.flows.identify_vertices"]
    assert tracing.missing_sites("verify-local-snarks", calls) == [
        "snarkcrit.flows.identify_vertices"
    ]


def test_output_gate_fails_wrong_rows_and_bad_exits():
    manifest = [
        {"kind": "bundled", "order": 10, "girth": 5},
        {"kind": "triangle-expansion", "order": 12, "girth": 3},
    ]
    expected = (
        "graph_index,order,is_snark,girth,is_critical\n"
        "1,10,true,5,true\n"
        "2,12,true,3,false\n"
    )
    good = run.Invocation(0, 1.0, 1.0, 1.0, expected)
    assert run.failed_graphs("classify-snarks", good, manifest, expected) == set()

    not_snark = run.Invocation(0, 1.0, 1.0, 1.0, expected.replace("2,12,true", "2,12,false"))
    assert run.failed_graphs("classify-snarks", not_snark, manifest, None) == {2}
    critical = run.Invocation(0, 1.0, 1.0, 1.0, expected.replace("3,false", "3,true"))
    assert run.failed_graphs("classify-snarks", critical, manifest, expected) == {2}
    crashed = run.Invocation(4, 1.0, 1.0, 1.0, expected)
    assert run.failed_graphs("classify-snarks", crashed, manifest, expected) == {1, 2}
    header = run.Invocation(0, 1.0, 1.0, 1.0, "x" + expected)
    assert run.failed_graphs("classify-snarks", header, manifest, expected) == {1, 2}

    local = (
        "graph 1 (order 10): 45 pairs consistent\n"
        "checked 1 graph(s), 45 pair(s), 0 violation(s)\n"
    )
    one = manifest[:1]
    good = run.Invocation(0, 1.0, 1.0, 1.0, local)
    assert run.failed_graphs("verify-local-snarks", good, one, local) == set()
    short = run.Invocation(0, 1.0, 1.0, 1.0, local.replace("45 pairs", "44 pairs"))
    assert run.failed_graphs("verify-local-snarks", short, one, None) == {1}
