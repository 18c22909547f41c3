#!/usr/bin/env python3
"""Layered timings of one CLI ``simulate --json`` run, for n processes and
every policy, of this tree's ``src`` or, with ``--against DIR``, of this tree's
and of another checkout's ``src`` side by side.

Usage: bench.py [--out PATH] [--against DIR] [N ...]    (default N: 10 100 1000 10000)

Each n (1..``MAX_GENERATED``) is a ``generate`` workload with the CLI's
defaults (bursts 1..100, priorities 1..5, seed 0) in random burst order, run
under each policy, with ``rr:7`` for ``rr:<q>``.  This process imports each
side's ``rrsim`` once, as the package ``rrsim_this`` or ``rrsim_against``, and
exits 1 if any of its modules lies outside that side's ``src``.  A layer's
figure is its span's self time in in-process ``run_cli`` runs, under the span
names of ``perfbench/tracing.py``, so a slice policy's build excludes its
``timeslice.components`` and ``workload.parse`` includes reading the CSV file.
Per cell (n, policy), one untimed run per side gives the counts, and its
export must read back with ``trace_from_dict`` as its trace, or the script
exits 1.  Then each of ``REPEATS`` rounds runs the sides in turn, run by run,
as many runs as fill ``FILL_SECONDS`` of the slower side's untimed run, the
order swapped every round so that host drift falls on both sides alike, and
then the CLI as one subprocess per side, after one untimed warm-up per side,
with the bytecode cache in the run's temporary directory.  Each side keeps its
best per layer and CLI.  DIR must hold ``src/rrsim`` with ``run_cli``'s span
hook.  Writes JSON to PATH, or to stdout, and one line per cell to stderr.
"""
import argparse
import importlib.util
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

REPEATS = 3
FILL_SECONDS = 0.2
SIZES = (10, 100, 1000, 10000)


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


def timed_run(rrsim, argv):
    """One in-process ``run_cli`` of the package ``rrsim`` on ``argv``: ({span: its
    self seconds, less the spans nested in it, summed over its calls}, {span:
    its value}).  Exits 1 if the run fails."""
    times, values, nested = {}, {}, [0.0]  # nested[-1]: the open span's nested seconds

    def span(name, call):
        nested.append(0.0)
        start = perf_counter()
        values[name] = call()
        seconds = perf_counter() - start
        times[name] = times.get(name, 0.0) + seconds - nested.pop()
        nested[-1] += seconds
        return values[name]

    if rrsim.report.run_cli(argv, io.StringIO(), span):
        sys.exit(f"bench.py: {rrsim.__path__[0]}: {' '.join(argv)} failed")
    return times, values


def environ(src, tmp):
    """The environment of a CLI run of ``src``: its bytecode cache in ``tmp``,
    never in a checkout."""
    env = dict(os.environ, PYTHONPATH=src, PYTHONPYCACHEPREFIX=str(tmp / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def cli_run(src, argv, tmp):
    """Wall seconds of ``rrsim`` of ``src`` on ``argv`` in a new interpreter."""
    start = perf_counter()
    subprocess.run([sys.executable, "-m", "rrsim.report", *argv], env=environ(src, tmp),
                   check=True, stdout=subprocess.DEVNULL)
    return perf_counter() - start


def bench_cell(n, name, sides, tmp):
    """{side: record} of one cell, ``sides`` being {side: (src, package)}: in each
    round, the in-process runs with the sides in turn, then the CLI on every
    side, the first side first in even rounds and last in odd ones."""
    csv_path, json_path = str(tmp / f"w{n}.csv"), str(tmp / "out.json")
    argv = ["simulate", "--workload", csv_path, "--policy", name, "--json", json_path]
    counts, best, slowest = {}, {side: {} for side in sides}, 0.0
    for side, (src, rrsim) in sides.items():
        start = perf_counter()
        values = timed_run(rrsim, argv)[1]
        slowest = max(slowest, perf_counter() - start)
        trace, w = values["engine.simulate"], values["workload.parse"]
        with open(json_path, encoding="utf-8") as fh:
            if rrsim.report.trace_from_dict(json.load(fh)) != (
                    w, values["schedulers.build"].name, trace):
                sys.exit(f"bench.py: {src} {name}: the CLI's export differs from the"
                         " in-process trace")
        counts[side] = {"workload.rows": len(w), "engine.segments": len(trace.segments),
                        "engine.rounds": trace.segments.round[-1],
                        "report.bytes_out": os.path.getsize(json_path)}
        cli_run(src, argv, tmp)  # warm-up: builds the bytecode cache

    def keep_best(side, times):
        for key, sec in times.items():
            best[side][key] = min(sec, best[side].get(key, sec))

    for r in range(REPEATS):
        order = list(sides)[::-1 if r % 2 else 1]
        for _ in range(max(1, int(FILL_SECONDS / slowest))):
            for side in order:
                keep_best(side, timed_run(sides[side][1], argv)[0])
        for side in order:
            keep_best(side, {"cli": cli_run(sides[side][0], argv, tmp)})
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
    max_n = importlib.import_module("rrsim_this.workload").MAX_GENERATED
    if not all(1 <= n <= max_n for n in args.sizes):
        parser.error(f"each N must be 1..{max_n}")
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
                  " span self time in in-process run_cli runs, the sides taking turns run"
                  f" by run, as many runs per round as fill {FILL_SECONDS} s of the slower"
                  " side, the side order swapped every round; cli_ms as one subprocess per"
                  " side and round, including interpreter start-up, after one untimed CLI run"
                  " per side that builds the bytecode cache in the run's temporary directory",
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
