#!/usr/bin/env python3
"""Layered timings of one CLI ``simulate --json`` run, for n processes and
every policy, of this tree's ``src`` or, with ``--against DIR``, of this tree's
and of another checkout's ``src`` side by side.

Usage: bench.py [--out PATH] [--against DIR] [N ...]    (default N: 10 100 1000 10000)

Each n is a ``generate`` workload with the CLI's defaults (bursts 1..100,
priorities 1..5, seed 0) in random burst order, run under each policy, with
``rr:7`` for ``rr:<q>``.  This process imports each side's ``rrsim`` once,
as the package ``rrsim_this`` or ``rrsim_against``, and exits 1 if any of its
modules lies outside that side's ``src``.  For each cell (n, policy), one
untimed ``run_cli`` per side records each layer's call and value through the
span hook, under the span names of ``perfbench/tracing.py`` (``LAYERS``).  A
slice policy's ``timeslice.components`` runs in its first ``schedulers.build``
call, so the build's recorded call is its own time, and ``workload.parse``
includes reading the CSV file.  Then ``REPEATS`` rounds time each recorded
call, over as many calls as ``timeit``'s autorange takes to fill 0.2 s, with
the garbage collector on as in a CLI run.  A round times one layer on both
sides before the next layer, the side order swapped every round, so drift of
the host falls on both sides alike; a side's time per call is the best of its
rounds.  The CLI is timed end to end as one subprocess per side and round,
the best taken, after one untimed warm-up per side; CLI runs keep their
bytecode cache in the run's temporary directory (``PYTHONPYCACHEPREFIX``, with
``PYTHONDONTWRITEBYTECODE`` dropped from their environment), so no timed run
reads a checkout's own cache.  DIR must hold ``src/rrsim`` with ``run_cli``'s
span hook.  Each recording run's export is read back with ``trace_from_dict``
and must equal its in-process trace; any difference ends the script with
exit 1.  Writes JSON to PATH, or to stdout, and one line per cell to stderr.
"""
import argparse
import gc
import importlib.util
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
import timeit
from functools import partial
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


def load(side, src):
    """The ``rrsim`` in ``src``, imported as the package ``rrsim_<side>`` with its
    ``report``; exits 1 if any module of it lies outside ``src/rrsim``."""
    name, home = f"rrsim_{side}", Path(src).resolve() / "rrsim"
    spec = importlib.util.spec_from_file_location(
        name, home / "__init__.py", submodule_search_locations=[str(home)])
    package = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(package)
    importlib.import_module(f"{name}.report")
    for module in list(sys.modules.values()):
        if module.__name__.partition(".")[0] in (name, "rrsim"):
            path = Path(getattr(module, "__file__", None) or "").resolve()
            if path.parent != home:
                sys.exit(f"bench.py: {module.__name__} loads from {path}, not from {home}")
    return package


def recorded_run(rrsim, csv_path, name, json_path):
    """One untimed in-process ``simulate --json`` run of the package ``rrsim``:
    ({span name: its call}, counts).  Exits 1 if the export does not read back
    as the run's trace."""
    calls, values = {}, {}

    def record(span, call):
        calls[span], values[span] = call, call()
        return values[span]

    argv = ["simulate", "--workload", csv_path, "--policy", name, "--json", json_path]
    if rrsim.report.run_cli(argv, io.StringIO(), record):
        sys.exit(f"bench.py: {rrsim.__path__[0]}: {' '.join(argv)} failed")
    trace, w = values["engine.simulate"], values["workload.parse"]
    with open(json_path, encoding="utf-8") as fh:
        if rrsim.report.trace_from_dict(json.load(fh)) != (w, values["schedulers.build"].name, trace):
            sys.exit(f"bench.py: {rrsim.__path__[0]} {name}: the CLI's export differs from the"
                     " in-process trace")
    return calls, {
        "workload.rows": len(w),
        "engine.segments": len(trace.segments),
        "engine.rounds": trace.segments.round[-1],
        "report.bytes_out": os.path.getsize(json_path),
    }


def environ(src, tmp):
    """The environment of a CLI run of ``src``: its bytecode cache in ``tmp``,
    never in a checkout."""
    env = dict(os.environ, PYTHONPATH=src, PYTHONPYCACHEPREFIX=str(tmp / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def cli_run(src, csv_path, name, json_path, tmp):
    """Wall seconds of ``rrsim simulate --json`` of ``src`` in a new interpreter."""
    argv = [sys.executable, "-m", "rrsim.report", "simulate", "--workload", csv_path,
            "--policy", name, "--json", json_path]
    start = perf_counter()
    subprocess.run(argv, env=environ(src, tmp), check=True, stdout=subprocess.DEVNULL)
    return perf_counter() - start


def bench_cell(n, name, sides, tmp):
    """{side: record} of one cell, ``sides`` being {side: (src, package)}: in each
    round, each layer and then the CLI timed on every side before the next, the
    first side first in even rounds and last in odd ones."""
    csv_path, json_path = str(tmp / f"w{n}.csv"), str(tmp / "out.json")
    timers, counts, best = {}, {}, {side: {} for side in sides}
    for side, (src, rrsim) in sides.items():
        calls, counts[side] = recorded_run(rrsim, csv_path, name, json_path)
        timers[side] = {span: partial(seconds_per_call, call) for span, call in calls.items()}
        timers[side]["cli"] = partial(cli_run, src, csv_path, name, json_path, tmp)
        timers[side]["cli"]()  # warm-up: builds the bytecode cache
    for r in range(REPEATS):
        for key in dict.fromkeys(key for side_timers in timers.values() for key in side_timers):
            for side in list(sides)[::-1 if r % 2 else 1]:
                if key in timers[side]:
                    sec = timers[side][key]()
                    best[side][key] = min(sec, best[side].get(key, sec))
    return {side: {
        "layers_ms": {span: round(1e3 * sec, 4) for span, sec in times.items() if span != "cli"},
        "cli_ms": round(1e3 * times["cli"], 2),
        "counts": counts[side],
        "engine.ns_per_segment": round(1e9 * times["engine.simulate"]
                                       / counts[side]["engine.segments"], 1),
    } for side, times in best.items()}


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
    parser.add_argument("sizes", metavar="N", type=int, nargs="*", default=SIZES)
    args = parser.parse_args(argv)
    sides = {"this": ROOT / "src"}
    if args.against is not None:
        against = Path(args.against).resolve()
        if not (against / "src" / "rrsim" / "__init__.py").is_file():
            parser.error(f"no src/rrsim in {args.against}")
        sides["against"] = against / "src"
    sides = {side: (str(src), load(side, src)) for side, src in sides.items()}
    policies = ["rr:7" if name == "rr:<q>" else name
                for name in sides["this"][1].schedulers.POLICY_NAMES]
    cells = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        start_ms = python_start_ms(tmp)
        for n in args.sizes:
            subprocess.run([sys.executable, "-m", "rrsim.report", "generate", "--n", str(n),
                            "--order", "random", "--csv", str(tmp / f"w{n}.csv")],
                           env=environ(sides["this"][0], tmp), check=True,
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
        "timing": "each side the best of `repeats` rounds in one process: each layer's"
                  " recorded call timed per call over timeit's autorange call count, on"
                  " both sides in turn before the next layer, the side order swapped every"
                  " round; cli_ms as one subprocess per side and round, including"
                  " interpreter start-up, after one untimed CLI run per side that builds"
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
