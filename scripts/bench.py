#!/usr/bin/env python3
"""Layered timings of one CLI ``simulate --json`` run, for n processes and
every policy.

Usage: bench.py [--out PATH] [N ...]    (default N: 10 100 1000 10000)

Each n is a ``generate`` workload with the CLI's defaults (bursts 1..100,
priorities 1..5, seed 0) in random burst order, run under each policy, with
``rr:7`` for ``rr:<q>``.  ``run_cli``'s span hook times each layer in-process
under the span names of ``perfbench/tracing.py`` (``LAYERS``); a slice policy's
``timeslice.components`` runs in its first ``schedulers.build`` call, so the
build's timed calls are its own time, and ``workload.parse`` includes reading
the CSV file.
Each layer's time per call is the best of 3 repeats of as many calls as
``timeit``'s autorange takes to fill 0.2 s, with the garbage collector on as
in a CLI run.  The CLI is timed as a subprocess, end to end, best of 3 after
an untimed warm-up, with a bytecode cache in the run's temporary directory
(``PYTHONPYCACHEPREFIX``; ``PYTHONDONTWRITEBYTECODE`` is dropped from the
child's environment only).
Each CLI export is read back with ``trace_from_dict`` and must equal the
in-process trace; any difference ends the script with exit 1.  Writes JSON
to PATH, or to stdout, and one line per cell to stderr.
"""
import argparse
import gc
import io
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

from rrsim import report  # noqa: E402
from rrsim.schedulers import POLICY_NAMES  # noqa: E402

REPEATS = 3
SIZES = (10, 100, 1000, 10000)
POLICIES = tuple("rr:7" if name == "rr:<q>" else name for name in POLICY_NAMES)


def best_seconds(call):
    """Seconds per call of ``call``: the best of ``REPEATS`` timings of the
    call count that ``timeit``'s autorange picks (1, 2, 5, 10, 20, ... calls,
    until they take 0.2 s), with the garbage collector on."""
    timer = timeit.Timer(call, setup=gc.enable)
    number, _ = timer.autorange()
    return min(timer.repeat(REPEATS, number)) / number


def layered_run(csv_path, name, json_path):
    """One in-process ``simulate --json`` run, each layer called once for its
    value and then timed: (seconds per call by span name, trace, workload,
    policy name)."""
    spans, values = {}, {}

    def timed(span, call):
        values[span] = call()
        spans[span] = best_seconds(call)
        return values[span]

    argv = ["simulate", "--workload", csv_path, "--policy", name, "--json", json_path]
    if report.run_cli(argv, io.StringIO(), timed):
        sys.exit(f"bench.py: {' '.join(argv)} failed")
    return (spans, values["engine.simulate"], values["workload.parse"],
            values["schedulers.build"].name)


def cli_run(csv_path, name, json_path):
    """Wall seconds of ``rrsim simulate --json`` in a new interpreter, which
    caches bytecode next to the workload file."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONPYCACHEPREFIX=str(Path(csv_path).parent / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    argv = [sys.executable, "-m", "rrsim.report", "simulate", "--workload", csv_path,
            "--policy", name, "--json", json_path]
    start = perf_counter()
    subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL)
    return perf_counter() - start


def bench_cell(n, name, tmp):
    csv_path, json_path = str(tmp / "w.csv"), str(tmp / "out.json")
    report.run_cli(["generate", "--n", str(n), "--order", "random", "--csv", csv_path],
                   io.StringIO())
    best, trace, w, policy_name = layered_run(csv_path, name, json_path)
    bytes_out = os.path.getsize(json_path)
    cli_run(csv_path, name, json_path)  # warm-up: fills the bytecode cache
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
            "dont_write_bytecode": bool(sys.flags.dont_write_bytecode),
        },
        "workload": {"order": "random", "burst_range": [1, 100], "priority_range": [1, 5],
                     "seed": 0},
        "repeats": REPEATS,
        "timing": "layers in-process: best of repeats of timeit's autorange call count,"
                  " per call; cli_ms: best of repeats as a subprocess including"
                  " interpreter start-up, after one untimed warm-up, with a bytecode cache",
        "cells": cells,
    }
    text = json.dumps(doc, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
