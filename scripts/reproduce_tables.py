#!/usr/bin/env python3
"""Re-run the three benchmark workloads (increasing, decreasing, random burst
order) under the comparator policies and the proposed dynamic policy, printing
the slice-component tables, Gantt charts, and the comparison rows.
"""
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from rrsim import (  # noqa: E402
    compute_components,
    compute_metrics,
    policy_from_name,
    simulate,
)
from rrsim.report import (  # noqa: E402
    render_comparison,
    render_components_table,
    render_gantt,
)
from rrsim.workload import parse_workload  # noqa: E402

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"
DATASETS = ("increasing", "decreasing", "random")
POLICIES = ("its-rr", "pbdrr", "proposed")


def main():
    for name in DATASETS:
        w = parse_workload((DATA / f"{name}.csv").read_text())
        print(f"=== {name} burst order: bursts {w.bursts}, priorities {w.priorities}")
        print()
        print(render_components_table(w, compute_components(w)))
        print()
        results = []
        for name in POLICIES:
            policy = policy_from_name(name, w)
            trace = simulate(w, policy)
            results.append((policy.name, compute_metrics(trace, w)))
            print(f"--- {policy.name}")
            print(render_gantt(trace))
            print()
        print(render_comparison(results))
        print()


if __name__ == "__main__":
    main()
