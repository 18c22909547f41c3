#!/usr/bin/env python3
"""Layered timings of one CLI ``simulate --json`` run, for n processes and
every policy, of this tree's ``src`` or, with ``--against DIR``, of this tree's
and of another checkout's ``src`` side by side.

Usage: bench.py [--out PATH] [--against DIR] [N ...]    (default N: 10 100 1000 10000)

Each n is a ``generate`` workload with the CLI's defaults (bursts 1..100,
priorities 1..5, seed 0) in random burst order, run under each policy, with
``rr:7`` for ``rr:<q>``.  A cell (n, policy) runs ``REPEATS`` rounds.  In each
round a fresh child process of this script imports this tree's ``rrsim`` and
times each layer in-process through ``run_cli``'s span hook, under the span
names of ``perfbench/tracing.py`` (``LAYERS``), and then the CLI is timed end
to end as a subprocess; with ``--against``, DIR's side does the same right
after, so drift of the host falls on both sides alike.  A slice policy's
``timeslice.components`` runs in its first ``schedulers.build`` call, so the
build's timed calls are its own time, and ``workload.parse`` includes reading
the CSV file.  A child times each layer once, over as many calls as
``timeit``'s autorange takes to fill 0.2 s, with the garbage collector on as
in a CLI run; a side's time per call is the best of its rounds, and so is its
CLI wall time, after one untimed warm-up per side.  Children and CLI runs
keep their bytecode cache in the run's temporary directory
(``PYTHONPYCACHEPREFIX``, with ``PYTHONDONTWRITEBYTECODE`` dropped from their
environment), so no timed process reads a checkout's own cache and both
sides start from a cache that the warm-up built.  DIR must hold ``src/rrsim`` with
``run_cli``'s span hook.
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

REPEATS = 3
SIZES = (10, 100, 1000, 10000)


def seconds_per_call(call):
    """Seconds per call of ``call``, over the call count that ``timeit``'s
    autorange picks (1, 2, 5, 10, 20, ... calls, until they take 0.2 s), with
    the garbage collector on."""
    number, seconds = timeit.Timer(call, setup=gc.enable).autorange()
    return seconds / number


def layered_run(report, csv_path, name, json_path):
    """One in-process ``simulate --json`` run, each layer called once for its
    value and then timed: (seconds per call by span name, trace, workload,
    policy name)."""
    spans, values = {}, {}

    def timed(span, call):
        values[span] = call()
        spans[span] = seconds_per_call(call)
        return values[span]

    argv = ["simulate", "--workload", csv_path, "--policy", name, "--json", json_path]
    if report.run_cli(argv, io.StringIO(), timed):
        sys.exit(f"bench.py: {' '.join(argv)} failed")
    return (spans, values["engine.simulate"], values["workload.parse"],
            values["schedulers.build"].name)


def child(src, csv_path, name, json_path):
    """A round of one side, in a child process: print the layer times and
    counts of one run of the ``rrsim`` in ``src`` as JSON."""
    sys.path.insert(0, src)
    from rrsim import report

    if Path(report.__file__).resolve().parent != Path(src).resolve() / "rrsim":
        sys.exit(f"bench.py: rrsim imported from {report.__file__}, not {src}")
    spans, trace, w, policy_name = layered_run(report, csv_path, name, json_path)
    with open(json_path, encoding="utf-8") as fh:
        if report.trace_from_dict(json.load(fh)) != (w, policy_name, trace):
            sys.exit(f"bench.py: {src} {name}: the CLI's export differs from the"
                     " in-process trace")
    json.dump({
        "layers_ms": {span: 1e3 * sec for span, sec in spans.items()},
        "counts": {
            "workload.rows": len(w),
            "engine.segments": len(trace.segments),
            "engine.rounds": trace.segments.round[-1],
            "report.bytes_out": os.path.getsize(json_path),
        },
    }, sys.stdout)


def environ(src, tmp):
    """The environment of a child or CLI run of ``src``: its bytecode cache in
    ``tmp``, never in a checkout."""
    env = dict(os.environ, PYTHONPATH=src, PYTHONPYCACHEPREFIX=str(tmp / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def child_run(src, csv_path, name, json_path, tmp):
    argv = [sys.executable, __file__, "--child", src, csv_path, name, json_path]
    out = subprocess.run(argv, env=environ(src, tmp), stdout=subprocess.PIPE, text=True)
    if out.returncode:  # the child has said why on stderr
        sys.exit(out.returncode)
    return json.loads(out.stdout)


def cli_run(src, csv_path, name, json_path, tmp):
    """Wall seconds of ``rrsim simulate --json`` of ``src`` in a new interpreter."""
    argv = [sys.executable, "-m", "rrsim.report", "simulate", "--workload", csv_path,
            "--policy", name, "--json", json_path]
    start = perf_counter()
    subprocess.run(argv, env=environ(src, tmp), check=True, stdout=subprocess.DEVNULL)
    return perf_counter() - start


def bench_cell(n, name, sides, tmp):
    """{side: record} of one cell, the sides timed in turn in each round, the
    first side first in even rounds and last in odd ones."""
    csv_path, json_path = str(tmp / f"w{n}.csv"), str(tmp / "out.json")
    rounds = {side: [] for side in sides}
    for src in sides.values():
        cli_run(src, csv_path, name, json_path, tmp)  # warm-up: builds the bytecode cache
    for r in range(REPEATS):
        for side, src in list(sides.items())[::-1 if r % 2 else 1]:
            run = child_run(src, csv_path, name, json_path, tmp)
            run["cli_s"] = cli_run(src, csv_path, name, json_path, tmp)
            rounds[side].append(run)
    records = {}
    for side, runs in rounds.items():
        best = {span: min(run["layers_ms"][span] for run in runs) for span in runs[0]["layers_ms"]}
        counts = runs[0]["counts"]
        if any(run["counts"] != counts for run in runs):
            sys.exit(f"bench.py: n={n} {name}: the {side} side's counts differ between rounds")
        records[side] = {
            "layers_ms": {span: round(ms, 4) for span, ms in best.items()},
            "cli_ms": round(1e3 * min(run["cli_s"] for run in runs), 2),
            "counts": counts,
            "engine.ns_per_segment": round(1e6 * best["engine.simulate"]
                                           / counts["engine.segments"], 1),
        }
    return records


def python_start_ms(tmp):
    """Wall milliseconds of a bare ``python -c pass``, best of ``REPEATS``: the
    part of ``cli_ms`` that no rrsim code can change."""
    def once():
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=environ("", tmp), check=True)
        return perf_counter() - start
    return round(1e3 * min(once() for _ in range(REPEATS)), 2)


def git_commit(root):
    """``root``'s HEAD short hash, with ``-dirty`` when its tree has changes, or None."""
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=root,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", metavar="PATH", help="write the JSON here, not to stdout")
    parser.add_argument("--against", metavar="DIR",
                        help="also time this checkout's src, in turn with this tree's")
    parser.add_argument("--child", nargs=4, help=argparse.SUPPRESS)
    parser.add_argument("sizes", metavar="N", type=int, nargs="*", default=SIZES)
    args = parser.parse_args(argv)
    if args.child:
        return child(*args.child)
    sides = {"this": str(ROOT / "src")}
    sys.path.insert(0, sides["this"])  # in this process only: children import their own side
    from rrsim.schedulers import POLICY_NAMES

    policies = ["rr:7" if name == "rr:<q>" else name for name in POLICY_NAMES]
    if args.against is not None:
        against = Path(args.against).resolve()
        if not (against / "src" / "rrsim" / "__init__.py").is_file():
            parser.error(f"no src/rrsim in {args.against}")
        sides["against"] = str(against / "src")
    cells = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        start_ms = python_start_ms(tmp)
        for n in args.sizes:
            subprocess.run([sys.executable, "-m", "rrsim.report", "generate", "--n", str(n),
                            "--order", "random", "--csv", str(tmp / f"w{n}.csv")],
                           env=environ(sides["this"], tmp), check=True,
                           stdout=subprocess.DEVNULL)
            for name in policies:
                records = bench_cell(n, name, sides, tmp)
                print(f"n={n:<6} {name:9} {records['this']['counts']['engine.segments']:>7}"
                      " segments  "
                      + "  |  ".join(f"{side}: simulate {r['layers_ms']['engine.simulate']:9.3f}"
                                     f" gantt {r['layers_ms']['report.gantt']:8.3f}"
                                     f" table {r['layers_ms']['report.table']:8.3f}"
                                     f" cli {r['cli_ms']:8.2f} ms"
                                     for side, r in records.items()), file=sys.stderr)
                # this tree's record, then DIR's, if any, under "against"
                cells.append({"n": n, "policy": name, **records.pop("this"), **records})
    doc = {
        "commit": git_commit(ROOT),
        "environment": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "system": platform.platform(),
            "cpus": os.cpu_count(),
            "python_start_ms": start_ms,
        },
        "workload": {"order": "random", "burst_range": [1, 100], "priority_range": [1, 5],
                     "seed": 0},
        "repeats": REPEATS,
        "timing": "each side the best of `repeats` rounds, taken in turn with the other"
                  " side, each round a fresh child process: layers in-process, per call,"
                  " over timeit's autorange call count; cli_ms as a subprocess including"
                  " interpreter start-up; after one untimed CLI run per side that builds"
                  " the bytecode cache in the run's temporary directory",
        "cells": cells,
    }
    if args.against is not None:
        doc["against"] = {"commit": git_commit(args.against)}
    text = json.dumps(doc, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
