#!/usr/bin/env python3
"""Re-run the three benchmark workloads (increasing, decreasing, random burst
order) through the CLI: the slice-component table, then each comparator
policy and the proposed dynamic policy (Gantt chart and metrics), with
``--paper-notes`` where the published tables differ, then the comparison rows.
"""
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from rrsim.report import run_cli  # noqa: E402

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"
DATASETS = ("increasing", "decreasing", "random")
POLICIES = ("its-rr", "pbdrr", "proposed")


def main():
    for name in DATASETS:
        csv = str(DATA / f"{name}.csv")
        print(f"=== {name} burst order")
        print()
        for argv in (
            ["components", "--paper-notes"],
            *(["simulate", "--policy", policy, "--paper-notes"] for policy in POLICIES),
            ["compare", "--policies", ",".join(POLICIES)],
        ):
            code = run_cli([argv[0], "--workload", csv, *argv[1:]])
            if code:
                sys.exit(code)
            print()


if __name__ == "__main__":
    main()
