"""Time one set-up of a benchmark workload in a fresh interpreter: import
rrsim, then generate the workload's inputs and write them out.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED DIR
Prints the seconds taken.
"""
import sys
import time


def main(argv):
    t0 = time.perf_counter()
    from pathlib import Path

    import workloads

    workloads.prepare(workloads.SPECS[argv[1]], int(argv[2]), Path(argv[3]))
    print(time.perf_counter() - t0)


if __name__ == "__main__":
    main(sys.argv)
