"""Self-tests of the benchmark harness.

Run from the root of a checkout: python3 -m pytest -q perfbench
"""
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench
import tracing
import workloads as wl

ROOT = wl.ROOT


def _runs(name, tmp_path, count):
    spec = wl.SPECS[name]
    runs = wl.prepare(spec, 1, tmp_path, wl.load_goldens(spec))
    return runs[:count]


def test_perturbed_library_output_is_counted_failed(tmp_path):
    run = _runs("sweep", tmp_path, 12)[-1]  # an instance with two processes
    check = bench.Checker(str(tmp_path / "out.json"))
    trace, summary = wl.run_library(run)
    assert check.matches(run, trace, summary)
    last = trace.segments[-1]
    moved = dataclasses.replace(
        trace,
        segments=trace.segments[:-1] + (dataclasses.replace(last, end=last.end + 1),),
    )
    assert not check.matches(run, moved, summary)
    late = dataclasses.replace(trace, completion={**trace.completion, last.pid: last.end + 1})
    assert not check.matches(run, late, summary)


@pytest.mark.parametrize("workload", ["wide", "long"])
def test_perturbed_cli_output_is_counted_failed(tmp_path, workload):
    runs = _runs(workload, tmp_path, len(wl.SPECS[workload].policies))
    run = next(r for r in runs if r.policy == "proposed")
    check = bench.Checker(str(tmp_path / "out.json"))
    check.timed(run)
    assert (check.attempted, check.failed) == (1, 0)

    code, stdout = wl.run_cli(run, check.json_path)
    assert code == 0 and check.matches(run, stdout=stdout)
    assert not check.matches(run, stdout=stdout.replace("\n", " \n", 1))
    path = Path(check.json_path)
    data = json.loads(path.read_bytes())
    data["segments"][0]["end"] += 1
    path.write_text(json.dumps(data, sort_keys=True, indent=2) + "\n")
    assert not check.matches(run, stdout=stdout)


def test_wrong_golden_counts_toward_failed(tmp_path):
    run = dataclasses.replace(_runs("sweep", tmp_path, 1)[0], golden="0" * 16)
    check = bench.Checker(str(tmp_path / "out.json"))
    check.timed(run)
    assert (check.attempted, check.failed) == (1, 1)


@pytest.mark.parametrize("workload", ["sweep", "long"])
def test_traced_spans_fit_in_run_wall_time(tmp_path, workload):
    spec = wl.SPECS[workload]
    runs = _runs(workload, tmp_path, 2 * len(spec.policies))
    check = bench.Checker(str(tmp_path / "out.json"))
    tr = tracing.Tracer()
    for rid, run in enumerate(runs, start=1):
        _seconds, res = check.layered(tr, rid, run)
        w, build, trace, _summary, _stdout = res
        tracing.record_counts(tr, rid, run, w, build, trace, 0)
    assert check.failed == 0
    per_run = tracing.self_times(tr)
    assert len(per_run) == len(runs)
    assert tracing.span_sums_within_wall(tr)
    for spans in per_run.values():
        assert sum(spans[n] for n in tracing.RUN_CHILDREN if n in spans) <= spans["run"]


def test_smoke_pass_finishes_in_seconds(tmp_path):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {
        "runs_per_s", "run_ms_p50", "run_ms_p90", "setup_s", "peak_rss_mb"}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
