"""The snarkcrit benchmark: generate a seeded workload, run the CLI, check, report.

Usage, from the repository root::

    python3 bench/run.py --workload classify-snarks --seed 1 --seconds 42 --trace 0

With ``--trace 0`` the CLI runs on the workload file again and again, each
time in a fresh process, until ``--seconds`` have passed; the last line of
standard output is a JSON object with the end-to-end metrics.  With
``--trace 1`` the CLI runs once untimed for its CPU time, then once more
under ``bench/tracing.py`` in another fresh process, and the JSON object
carries the per-layer metrics.  Every output is checked: a non-zero exit
code fails every graph of that run; each graph's row must match what its
construction proves; for the default seed the output must also be
byte-identical to ``bench/expected/<workload>.out``.  See bench/README.md
for the metrics and why each workload was chosen.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH))
import tracing  # noqa: E402  (lives next to this file)

DEFAULT_SEED = 1
SETUP_REPEATS = 15
RUN_BUDGET_S = 170.0  # the whole run, generation and checks included

# workload -> (CLI flags, --jobs); each is a closed loop of one CLI process
WORKLOADS = {
    "classify-snarks": (("--command", "classify", "--zero-timings"), 2),
    "classify-colorable": (("--command", "classify", "--zero-timings"), 2),
    "verify-local-snarks": (("--command", "verify-local"), 1),
}

CLI = [sys.executable, "-m", "snarkcrit.cli"]
# a fixed hash seed makes every invocation take the same code paths
ENV = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")


def cli_args(workload: str, input_path: Path, jobs: int | None = None) -> list[str]:
    flags, default_jobs = WORKLOADS[workload]
    return ["--input", str(input_path), "--jobs", str(jobs or default_jobs), *flags]


# ----------------------------------------------------------------------
# running one process


@dataclass(frozen=True)
class Invocation:
    exit_code: int
    wall_s: float
    cpu_s: float  # the process and every child it waited for (pool workers)
    maxrss_mib: float
    output: str


def invoke(argv: list[str], out_path: Path, timeout_s: float) -> Invocation:
    """Run one process to completion and take its rusage from wait4."""
    with open(out_path, "wb") as out, open(out_path.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdout=out, stderr=err, env=ENV, cwd=ROOT, start_new_session=True
        )
        pidfd = os.pidfd_open(proc.pid)
        try:
            finished = select.select([pidfd], [], [], max(timeout_s, 0.0))[0]
            if not finished:
                os.killpg(proc.pid, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    code = proc.returncode if finished else -1
    return Invocation(
        exit_code=code,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mib=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        output=out_path.read_text(errors="replace"),
    )


# ----------------------------------------------------------------------
# output checks; each returns the 1-based line numbers of failed graphs


def _mismatched_lines(output: str, expected: str, n_graphs: int, offset: int) -> set[int]:
    """Graphs whose output line differs from the expected output.

    Graph i is on line ``offset + i``; a difference anywhere else (a header,
    a summary, the line count) fails every graph.
    """
    got, want = output.splitlines(keepends=True), expected.splitlines(keepends=True)
    bad = [k for k, (a, b) in enumerate(zip(got, want)) if a != b]
    if len(got) != len(want) or any(not offset <= k < offset + n_graphs for k in bad):
        return set(range(1, n_graphs + 1))
    return {k - offset + 1 for k in bad}


def check_classify(output: str, manifest: list[dict]) -> set[int]:
    everything = set(range(1, len(manifest) + 1))
    try:
        rows = {int(r["graph_index"]): r for r in csv.DictReader(io.StringIO(output))}
    except (KeyError, ValueError, csv.Error):
        return everything
    failed = set()
    for index, built in enumerate(manifest, start=1):
        row = rows.get(index)
        ok = (
            row is not None
            and row["order"] == str(built["order"])
            and row["girth"] == str(built["girth"])
        )
        if ok and built["kind"] != "random-cubic":
            ok = row["is_snark"] == "true"  # dot products, flowers, expansions
        if ok and built["kind"] == "triangle-expansion":
            ok = row["is_critical"] == "false" and row["girth"] == "3"
        if not ok:
            failed.add(index)
    return failed | (set(rows) - everything)


_LOCAL_LINE = re.compile(
    r"graph (\d+) \(order (\d+)\): (\d+) pairs consistent(?:, \d+ degenerate pair\(s\))?"
)


def check_verify_local(output: str, manifest: list[dict]) -> set[int]:
    everything = set(range(1, len(manifest) + 1))
    lines = output.splitlines()
    pairs = [b["order"] * (b["order"] - 1) // 2 for b in manifest]
    summary = f"checked {len(manifest)} graph(s), {sum(pairs)} pair(s), 0 violation(s)"
    if not lines or lines[-1] != summary:
        return everything
    seen = {}
    for line in lines[:-1]:
        m = _LOCAL_LINE.fullmatch(line)
        if m:
            seen[int(m.group(1))] = (int(m.group(2)), int(m.group(3)))
    return {
        index
        for index, built in enumerate(manifest, start=1)
        if seen.get(index) != (built["order"], pairs[index - 1])
    }


def failed_graphs(workload: str, run: Invocation, manifest, expected) -> set[int]:
    everything = set(range(1, len(manifest) + 1))
    if run.exit_code != 0:
        return everything
    if workload.startswith("classify"):
        failed = check_classify(run.output, manifest)
        header = 1
    else:
        failed = check_verify_local(run.output, manifest)
        header = 0
    if expected is not None:
        failed |= _mismatched_lines(run.output, expected, len(manifest), header)
    return failed


# ----------------------------------------------------------------------
# the two kinds of run


def generate(workload: str, seed: int, work: Path) -> tuple[Path, list[dict]]:
    subprocess.run(
        [sys.executable, str(BENCH / "gen.py"), "--workload", workload,
         "--seed", str(seed), "--out", str(work)],
        env=ENV, cwd=ROOT, check=True, timeout=60,
    )
    manifest = json.loads((work / f"{workload}.json").read_text())
    return work / f"{workload}.g6", manifest


def measure_setup(workload: str, work: Path, deadline: float) -> tuple[float, bool]:
    """Median wall time of the same CLI invocation on an empty input."""
    empty = work / "empty.g6"
    empty.write_text("")
    argv = CLI + cli_args(workload, empty)
    invoke(argv, work / "setup.out", deadline - time.perf_counter())  # compiles bytecode
    runs = [
        invoke(argv, work / "setup.out", deadline - time.perf_counter())
        for _ in range(SETUP_REPEATS)
    ]
    return statistics.median(r.wall_s for r in runs), all(r.exit_code == 0 for r in runs)


def timed_run(workload, graphs, manifest, expected, seconds, work, deadline) -> dict:
    argv = CLI + cli_args(workload, graphs)
    runs, failed = [], 0
    start = time.perf_counter()
    while True:
        run = invoke(argv, work / "run.out", deadline - time.perf_counter())
        runs.append(run)
        failed += len(failed_graphs(workload, run, manifest, expected))
        # stop before an invocation that would end past ``seconds``
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(r.wall_s for r in runs) > seconds:
            break
    attempted = len(manifest) * len(runs)
    print(
        f"{workload}: {len(runs)} CLI run(s), wall "
        + " ".join(f"{r.wall_s:.3f}" for r in runs) + " s",
        file=sys.stderr,
    )
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "graphs_per_s": (statistics.median(len(manifest) / r.wall_s for r in runs), "graphs/s"),
            "peak_rss_mb": (max(r.maxrss_mib for r in runs), "MiB"),
            "correct_frac": (1.0 - failed / attempted, "ratio"),
        },
    }


def traced_run(workload, graphs, manifest, expected, work, deadline) -> dict:
    argv = CLI + cli_args(workload, graphs)
    plain = invoke(argv, work / "run.out", deadline - time.perf_counter())
    failed = failed_graphs(workload, plain, manifest, expected)

    # pool workers would keep their spans to themselves, so trace --jobs 1
    spans_path = work / "spans.json"
    argv = [sys.executable, str(BENCH / "tracing.py"), "--spans", str(spans_path),
            "--output", str(work / "traced.out"), "--", *cli_args(workload, graphs, jobs=1)]
    traced = invoke(argv, work / "tracer.out", deadline - time.perf_counter())
    traced = replace(traced, output=(work / "traced.out").read_text())
    traced_failed = failed_graphs(workload, traced, manifest, expected)
    if traced.output != plain.output:
        traced_failed = set(range(1, len(manifest) + 1))

    recorded = json.loads(spans_path.read_text())
    orders = {i: built["order"] for i, built in enumerate(manifest, start=1)}
    summary = tracing.summarize(recorded["spans"], recorded["repeats"], orders)
    missing = tracing.missing_sites(workload, summary["site_calls"])
    if missing:
        raise SystemExit(
            f"error: trace coverage: no call recorded at {', '.join(missing)} on {workload}; "
            "a public function was renamed or bypassed"
        )
    (work / "trace_summary.json").write_text(json.dumps(summary, indent=1) + "\n")
    for order, row in summary["per_order"].items():
        print(f"{workload}: order {order}: {row['graphs']} graph(s), "
              f"median {row['median_s_per_graph']:.4f} s per graph traced", file=sys.stderr)

    jobs = WORKLOADS[workload][1]
    metrics = {name: (value, _unit(name)) for name, value in summary["metrics"].items()}
    metrics["cli.cpu_s"] = (plain.cpu_s, "s")
    metrics["cli.pool_efficiency"] = (plain.cpu_s / (jobs * plain.wall_s), "ratio")
    return {
        "attempted": 2 * len(manifest),
        "failed": len(failed) + len(traced_failed),
        "metrics": metrics,
    }


def _unit(name: str) -> str:
    if name.endswith("calls"):
        return "calls"
    return "cycles" if name == "structure.chordless_cycles" else "s"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="snarkcrit benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "snarkcrit" / "cli.py").is_file():
        print(f"error: no snarkcrit sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_BUDGET_S
    work = OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    graphs, manifest = generate(args.workload, args.seed, work)
    expected = None
    if args.seed == DEFAULT_SEED:
        expected = (BENCH / "expected" / f"{args.workload}.out").read_text()

    if args.trace:
        result = traced_run(args.workload, graphs, manifest, expected, work, deadline)
        setup_ok = True
    else:
        setup_s, setup_ok = measure_setup(args.workload, work, deadline)
        result = timed_run(args.workload, graphs, manifest, expected, args.seconds, work,
                           deadline)
        result["metrics"]["setup_s"] = (setup_s, "s")
    line = {
        "correct": setup_ok and result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result["metrics"].items()
        },
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
