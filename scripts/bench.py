#!/usr/bin/env python3
"""Layered timings of one CLI ``simulate --json`` run, for n processes and
every policy.

Usage: bench.py [--out PATH] [N ...]    (default N: 10 100 1000 10000)

Each n is a ``generate`` workload with the CLI's defaults (bursts 1..100,
priorities 1..5, seed 0) in random burst order, run under each policy, with
``rr:7`` for ``rr:<q>``.  Each layer of the CLI's call sequence is timed
in-process under the span names of ``perfbench/tracing.py`` (``LAYERS``):
each layer's time per call is the best of 3 repeats of as many calls as
``timeit``'s autorange takes to fill 0.2 s, with the garbage collector on as
in a CLI run.  The CLI is timed as a subprocess, end to end, best of 3.
Each CLI export is read back with ``trace_from_dict`` and must equal the
in-process trace; any difference ends the script with exit 1.  Writes JSON
to PATH, or to stdout, and one line per cell to stderr.
"""
import argparse
import gc
import json
import os
import platform
import subprocess
import sys
import tempfile
import timeit
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from rrsim import (  # noqa: E402
    DEFAULT_STATIC_OTS,
    compute_components,
    compute_metrics,
    generate_workload,
    parse_workload,
    policy_from_name,
    serialize_workload,
    simulate,
)
from rrsim import report  # noqa: E402
from rrsim.schedulers import POLICY_NAMES  # noqa: E402

REPEATS = 3
SIZES = (10, 100, 1000, 10000)
POLICIES = tuple("rr:7" if name == "rr:<q>" else name for name in POLICY_NAMES)
# The static OTS each slice policy's build passes to compute_components
# (None: the Range OTS); the other policies compute no slice components.
SLICE_OTS = {"proposed": None, "pbdrr": DEFAULT_STATIC_OTS, "its-rr": DEFAULT_STATIC_OTS}


def best_seconds(call):
    """Seconds per call of ``call``: the best of ``REPEATS`` timings of the
    call count that ``timeit``'s autorange picks (1, 2, 5, 10, 20, ... calls,
    until they take 0.2 s), with the garbage collector on."""
    timer = timeit.Timer(call, setup=gc.enable)
    number, _ = timer.autorange()
    return min(timer.repeat(REPEATS, number)) / number


def layered_run(text, name, json_path):
    """The layers in the CLI's order, each called once for its value and then
    timed: (seconds per call by span name, trace, workload, policy name)."""
    spans = {}

    def timed(span, call):
        value = call()
        spans[span] = best_seconds(call)
        return value

    w = timed("workload.parse", lambda: parse_workload(text))
    if name in SLICE_OTS:
        timed("timeslice.components", lambda: compute_components(w, static_ots=SLICE_OTS[name]))
    policy = timed("schedulers.build", lambda: policy_from_name(name, w))
    trace = timed("engine.simulate", lambda: simulate(w, policy))
    summary = timed("metrics.compute", lambda: compute_metrics(trace, w))
    timed("report.gantt", lambda: report.render_gantt(trace))
    timed("report.table", lambda: report.render_metrics(summary, w))
    timed("report.export", lambda: report._write_json(json_path, {
        **report._trace_doc(w, policy.name, trace),
        "metrics": report._metrics_doc(policy.name, summary),
    }))
    return spans, trace, w, policy.name


def cli_run(csv_path, name, json_path):
    """Wall seconds of ``rrsim simulate --json`` in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, "-m", "rrsim.report", "simulate", "--workload", csv_path,
            "--policy", name, "--json", json_path]
    start = perf_counter()
    subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL)
    return perf_counter() - start


def bench_cell(n, name, tmp):
    text = serialize_workload(generate_workload(n, "random", (1, 100), (1, 5), 0))
    csv_path, json_path = str(tmp / "w.csv"), str(tmp / "out.json")
    Path(csv_path).write_text(text, encoding="utf-8")
    best, trace, w, policy_name = layered_run(text, name, json_path)
    bytes_out = os.path.getsize(json_path)
    cli_s = min(cli_run(csv_path, name, json_path) for _ in range(REPEATS))
    with open(json_path, encoding="utf-8") as fh:
        if report.trace_from_dict(json.load(fh)) != (w, policy_name, trace):
            sys.exit(f"bench.py: n={n} {name}: the CLI's export differs from the in-process trace")
    segments = len(trace.segments)
    return {
        "n": n,
        "policy": name,
        "layers_ms": {span: round(1e3 * sec, 4) for span, sec in best.items()},
        "cli_ms": round(1e3 * cli_s, 2),
        "counts": {
            "workload.rows": len(w),
            "engine.segments": segments,
            "engine.rounds": trace.segments.round[-1],
            "report.bytes_out": bytes_out,
        },
        "engine.ns_per_segment": round(1e9 * best["engine.simulate"] / segments, 1),
        "metrics.ns_per_segment": round(1e9 * best["metrics.compute"] / segments, 1),
    }


def git_commit():
    """HEAD's short hash, with ``-dirty`` when the tree has changes, or None."""
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", metavar="PATH", help="write the JSON here, not to stdout")
    parser.add_argument("sizes", metavar="N", type=int, nargs="*", default=SIZES)
    args = parser.parse_args(argv)
    cells = []
    with tempfile.TemporaryDirectory() as tmp:
        for n in args.sizes:
            for name in POLICIES:
                cell = bench_cell(n, name, Path(tmp))
                cells.append(cell)
                print(f"n={n:<6} {name:9} {cell['counts']['engine.segments']:>7} segments"
                      f"  simulate {cell['layers_ms']['engine.simulate']:9.3f} ms"
                      f" ({cell['engine.ns_per_segment']:7.1f} ns/segment)"
                      f"  cli {cell['cli_ms']:9.2f} ms", file=sys.stderr)
    doc = {
        "commit": git_commit(),
        "environment": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "system": platform.platform(),
            "cpus": os.cpu_count(),
        },
        "workload": {"order": "random", "burst_range": [1, 100], "priority_range": [1, 5],
                     "seed": 0},
        "repeats": REPEATS,
        "timing": "layers in-process: best of repeats of timeit's autorange call count,"
                  " per call; cli_ms: best of repeats as a subprocess including"
                  " interpreter start-up",
        "cells": cells,
    }
    text = json.dumps(doc, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
