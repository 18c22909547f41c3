"""Per-process and aggregate performance metrics for schedule traces.

Aggregates are kept as exact rationals; the one-decimal rendering used for
display never feeds back into any comparison.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict

from .engine import ScheduleTrace
from .workload import Workload


class MetricsError(ValueError):
    """Raised when a trace is not a valid schedule of the given workload."""


@dataclass(frozen=True)
class ProcessMetrics:
    turnaround: int
    waiting: int
    response: int


@dataclass(frozen=True)
class MetricsSummary:
    per_process: Dict[int, ProcessMetrics]
    avg_turnaround: Fraction
    avg_waiting: Fraction
    context_switches: int


def compute_metrics(trace: ScheduleTrace, w: Workload) -> MetricsSummary:
    """Turnaround / waiting / response per process, exact averages and the
    context-switch count, from one walk over the segment columns.  All arrivals are
    at t=0, so TAT equals completion.  Raises :class:`MetricsError` unless the
    segments run back to back from t=0, each for 1 to ``quantum`` units, each
    process runs exactly its burst, and ``trace.completion`` holds the end of
    each process's last segment."""
    executed = dict.fromkeys(w.pids, 0)
    first_start: Dict[int, int] = {}
    last_end: Dict[int, int] = {}
    runs = 0  # maximal runs of one process; each after the first is a switch
    clock = 0
    prev = None
    segs = trace.segments
    for pid, start, end, quantum in zip(segs.pid, segs.start, segs.end, segs.quantum):
        if pid not in executed:
            raise MetricsError(f"trace references unknown process P{pid}")
        if start != clock:
            raise MetricsError(f"P{pid} segment starts at {start}, expected {clock}")
        if not 0 < end - clock <= quantum:
            raise MetricsError(
                f"P{pid} segment [{clock}, {end}) is not 1..{quantum} units"
            )
        if pid != prev:
            runs += 1
            first_start.setdefault(pid, clock)
            prev = pid
        executed[pid] += end - clock
        clock = last_end[pid] = end

    per_process = {}
    for p in w:
        if executed[p.pid] != p.burst:
            raise MetricsError(
                f"P{p.pid} executed {executed[p.pid]} units but has burst {p.burst}"
            )
        tat = last_end[p.pid]
        per_process[p.pid] = ProcessMetrics(
            turnaround=tat, waiting=tat - p.burst, response=first_start[p.pid]
        )
    if trace.completion != last_end:
        pid = min(pid for pid in trace.completion.keys() | last_end.keys()
                  if trace.completion.get(pid) != last_end.get(pid))
        raise MetricsError(
            f"completion of P{pid} is {trace.completion.get(pid)},"
            f" but its last segment ends at {last_end.get(pid)}"
        )

    n = len(w)
    avg_tat = Fraction(sum(m.turnaround for m in per_process.values()), n)
    avg_wt = Fraction(sum(m.waiting for m in per_process.values()), n)
    return MetricsSummary(
        per_process=per_process,
        avg_turnaround=avg_tat,
        avg_waiting=avg_wt,
        context_switches=runs - 1,
    )


def format_average(value: Fraction) -> str:
    """Exact one-decimal rendering (half away from zero), e.g. 364/5 -> '72.8',
    -1/4 -> '-0.3'.  A value that rounds to zero prints as '0.0'."""
    scaled = abs(value) * 10
    tenths = (scaled.numerator * 2 + scaled.denominator) // (2 * scaled.denominator)
    sign = "-" if value < 0 and tenths else ""
    return f"{sign}{tenths // 10}.{tenths % 10}"
