#!/usr/bin/env python3
"""Host-time benchmark of rrsim: how long the simulator takes to run, never
the simulated time it reports.

Usage:
  python3 perfbench/run.py --workload {sweep,wide,long} --seed N \\
      --seconds S --trace {0,1}

Run from the root of a checkout.  The load is one process and one thread in a
closed loop: each run starts when the previous one has finished.  Passes over
the seed's runs repeat until about ``--seconds`` have gone by and at least
100 runs are timed; throughput is the median over passes.  Every run's
outputs are compared with its golden fingerprint.

``--trace 0`` reports the end-to-end metrics with tracing off; ``--trace 1``
makes the traced run and reports the per-layer metrics.  Human-readable lines
come first; the last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import tracing
import workloads as wl

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
MIN_RUNS = 100  # timed runs per benchmark run, at the least
SETUP_PROBES = 5
ORACLE_MAX_N = 5  # sweep instances this small are also run on the step oracle


class Checker:
    """Runs the program and compares its outputs with the goldens."""

    def __init__(self, json_path: str) -> None:
        self.json_path = json_path
        self.cli_fingerprint = wl.CliFingerprinter()
        self.attempted = 0
        self.failed = 0

    def verdict(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def fault(self, run: wl.Run) -> None:
        if not self.failed:
            print(f"run {run.key} {run.policy} raised:", file=sys.stderr)
            traceback.print_exc()
        self.verdict(False)

    def matches(self, run: wl.Run, trace=None, summary=None, stdout=None) -> bool:
        if run.cli:
            json_bytes = Path(self.json_path).read_bytes()
            return self.cli_fingerprint(stdout, json_bytes) == run.golden
        return wl.library_fingerprint(trace, summary) == run.golden

    def timed(self, run: wl.Run) -> float:
        """Host seconds of one untraced run through the workload's path."""
        Path(self.json_path).unlink(missing_ok=True)
        t0 = perf_counter()
        try:
            if run.cli:
                code, stdout = wl.run_cli(run, self.json_path)
            else:
                trace, summary = wl.run_library(run)
        except Exception:
            self.fault(run)
            return perf_counter() - t0
        seconds = perf_counter() - t0
        try:
            if run.cli:
                self.verdict(code == 0 and self.matches(run, stdout=stdout))
            else:
                self.verdict(self.matches(run, trace, summary))
        except (OSError, ValueError, KeyError, IndexError, TypeError):
            self.fault(run)
        return seconds

    def layered(self, tr: tracing.Tracer, rid: int, run: wl.Run):
        """One run through tracing.layered_run, as (host seconds, its result);
        the result is None if the run raised."""
        Path(self.json_path).unlink(missing_ok=True)
        t0 = perf_counter()
        try:
            res = tracing.layered_run(tr, rid, run, self.json_path)
            seconds = perf_counter() - t0
            _w, _build, trace, summary, stdout = res
            self.verdict(self.matches(run, trace, summary, stdout))
            return seconds, res
        except Exception:
            self.fault(run)
            return perf_counter() - t0, None

    def oracle(self, runs) -> None:
        """Untimed cross-check of small library runs against the unit-step
        oracle of the test suite."""
        path = wl.ROOT / "tests" / "step_oracle.py"
        spec = importlib.util.spec_from_file_location("step_oracle", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        from rrsim import policy_from_name, simulate

        for run in runs:
            if len(run.workload) <= ORACLE_MAX_N:
                policy = policy_from_name(run.policy, run.workload)
                expect = module.step_simulate(run.workload, policy)
                self.verdict(simulate(run.workload, policy) == expect)


def repeat_passes(one_pass, runs_per_pass: int, seconds: float, min_runs: int,
                  after_pass=lambda elapsed: None) -> int:
    """Whole passes, until at least ``min_runs`` runs are done and one more
    pass would end after ``seconds``.  Returns the number of passes."""
    start = perf_counter()
    passes = 0
    while True:
        gc.collect()
        one_pass(passes)
        passes += 1
        elapsed = perf_counter() - start
        after_pass(elapsed)
        if passes * runs_per_pass >= min_runs and elapsed * (passes + 1) / passes > seconds:
            return passes


class SetupProbes:
    """Set-up timed in fresh interpreters, spread over the measuring window,
    after one untimed probe that leaves the bytecode cache warm."""

    def __init__(self, workload: str, seed: int, workdir: Path) -> None:
        self.argv = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
        self.workdir = workdir
        self.times = []
        self.probe()
        self.times.clear()

    def probe(self) -> None:
        probe_dir = self.workdir / "probe"
        probe_dir.mkdir()
        done = subprocess.run(self.argv + [str(probe_dir)], capture_output=True,
                              text=True, timeout=120, check=True)
        shutil.rmtree(probe_dir)
        self.times.append(float(done.stdout.split()[-1]))

    def due(self, elapsed: float, seconds: float) -> None:
        while len(self.times) < SETUP_PROBES and len(self.times) * seconds <= elapsed * SETUP_PROBES:
            self.probe()

    def median(self) -> float:
        while len(self.times) < SETUP_PROBES:
            self.probe()
        return statistics.median(self.times)


def end_to_end(check: Checker, runs, seconds: float, probes: SetupProbes) -> dict:
    """Each run's host time is its best over the passes: load from other
    tenants of the host slows whole stretches of seconds, and passes spread
    each run's repeats across the window."""
    samples = [[] for _ in runs]

    def one_pass(_index):
        for i, run in enumerate(runs):
            samples[i].append(check.timed(run))

    passes = repeat_passes(one_pass, len(runs), seconds, MIN_RUNS,
                           lambda elapsed: probes.due(elapsed, seconds))
    best = [min(v) for v in samples]
    print(f"timed runs: {len(runs) * passes} ({len(runs)} distinct runs x {passes} passes)")
    return {
        "runs_per_s": (len(best) / sum(best), "1/s"),
        "run_ms_p50": (1e3 * statistics.median(best), "ms"),
        "run_ms_p90": (1e3 * statistics.quantiles(best, n=10)[-1], "ms"),
    }


def traced(check: Checker, runs, seconds: float, spans_path: Path) -> dict:
    """Passes of three kinds over the same runs: the layered calls untraced,
    the same calls traced, and (for CLI workloads) the whole CLI untraced."""
    tr, null = tracing.Tracer(), tracing.NullTracer()
    plain = [[] for _ in runs]
    cli = [[] for _ in runs]
    run_of = {}

    def untraced():
        for i, run in enumerate(runs):
            t, res = check.layered(null, 0, run)
            if res is not None:
                plain[i].append(t)

    def traced_pass():
        for i, run in enumerate(runs):
            rid = len(run_of) + 1
            run_of[rid] = i
            _seconds, res = check.layered(tr, rid, run)
            if res is not None:
                w, build, trace, _summary, stdout = res
                out = len(stdout.encode()) + Path(check.json_path).stat().st_size if run.cli else 0
                tracing.record_counts(tr, rid, run, w, build, trace, out)

    def one_pass(index):
        for part in (untraced, traced_pass) if index % 2 == 0 else (traced_pass, untraced):
            part()
        if runs[0].cli:
            for i, run in enumerate(runs):
                cli[i].append(check.timed(run))

    passes = repeat_passes(one_pass, len(runs), seconds, len(runs))
    tr.write(spans_path)
    print(f"traced runs: {len(run_of)} ({len(runs)} distinct runs x {passes} passes),"
          f" each layer at its best pass; spans in {spans_path.relative_to(wl.ROOT)}")
    print("layer share of traced run time:")
    for layer, pct in tracing.layer_shares(tr, run_of).items():
        print(f"  {layer:<10} {pct:6.2f} %")
    return tracing.layer_metrics(tr, run_of, sum(min(v) for v in plain if v),
                                 sum(min(v) for v in cli if v))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = wl.SPECS[args.workload]
    wl.import_rrsim()

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workdir = Path(tmp)
        runs = wl.prepare(spec, args.seed, workdir, wl.load_goldens(spec))
        check = Checker(str(workdir / "out.json"))
        if not spec.cli:
            check.oracle(runs)
        for run in runs[: len(spec.policies)]:  # warm-up, not counted
            Checker(check.json_path).timed(run)
        if args.trace:
            spans = OUT / f"spans-{spec.name}-seed{args.seed}.json"
            metrics = traced(check, runs, args.seconds, spans)
        else:
            probes = SetupProbes(spec.name, args.seed, workdir)
            metrics = end_to_end(check, runs, args.seconds, probes)
            metrics["setup_s"] = (probes.median(), "s")
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics["peak_rss_mb"] = (peak_kb / 1024, "MB")

    error_rate = check.failed / check.attempted
    print(f"workload {spec.name}, seed {args.seed}: {check.attempted} runs checked,"
          f" {check.failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<26} {value:12.4f} {unit}")
    if not args.trace:
        print(f"  {'error_rate':<26} {error_rate:12.4f} ratio")
    print(json.dumps({
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
