#!/usr/bin/env python3
"""Sweep synthetic workloads and compare the policies' average metrics.

Usage: random_benchmark.py [runs] [n] [order]
"""
import os
import pathlib
import sys
from fractions import Fraction

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from rrsim import (  # noqa: E402
    WorkloadError,
    compute_metrics,
    generate_workload,
    policy_from_name,
    simulate,
)
from rrsim.metrics import format_average  # noqa: E402
from rrsim.workload import integer  # noqa: E402

POLICIES = ("its-rr", "pbdrr", "proposed", "rr:5", "srtn", "fcfs")


def main(argv):
    try:
        if len(argv) > 4:
            raise ValueError(f"expected at most 3 arguments, got {len(argv) - 1}")
        runs = integer(argv[1], "runs") if len(argv) > 1 else 200
        n = integer(argv[2], "n") if len(argv) > 2 else 10
        order = argv[3] if len(argv) > 3 else "random"
        if runs < 1:
            raise ValueError(f"runs must be >= 1, got {runs}")
    except ValueError as exc:
        sys.exit(f"error: {exc}")

    totals = {name: [Fraction(0), Fraction(0), 0] for name in POLICIES}
    for seed in range(runs):
        try:
            w = generate_workload(n, order, (1, 100), (1, 5), seed)
        except WorkloadError as exc:  # a bad n or order, raised at seed 0
            sys.exit(f"error: {exc}")
        for name in POLICIES:
            summary = compute_metrics(simulate(w, policy_from_name(name, w)), w)
            totals[name][0] += summary.avg_turnaround
            totals[name][1] += summary.avg_waiting
            totals[name][2] += summary.context_switches

    print(f"{runs} workloads, n={n}, {order} burst order, bursts 1..100")
    print(f"{'policy':10} {'avg TAT':>8} {'avg WT':>8} {'avg CS':>8}")
    for name, (tat, wt, cs) in totals.items():
        print(
            f"{name:10} {format_average(tat / runs):>8}"
            f" {format_average(wt / runs):>8}"
            f" {format_average(Fraction(cs, runs)):>8}"
        )


if __name__ == "__main__":
    try:
        main(sys.argv)
        sys.stdout.flush()  # so that a closed pipe is seen here, not at exit
    except BrokenPipeError:
        # as run_cli does: status 1, no message, and stdout pointed at devnull
        # for the flush Python makes again at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
