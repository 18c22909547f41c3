"""Per-process and aggregate performance metrics for schedule traces.

Aggregates are kept as exact rationals; the one-decimal rendering used for
display never feeds back into any comparison.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import sub
from typing import Dict, List, Tuple

from .engine import ScheduleTrace
from .workload import Workload


class MetricsError(ValueError):
    """Raised when a trace is not a valid schedule of the given workload."""


METRIC_FIELDS = ("turnaround", "waiting", "response")  # MetricsSummary's columns


@dataclass(frozen=True)
class MetricsSummary:
    """The int columns ``turnaround``, ``waiting`` and ``response``, one entry
    per pid of ``pids`` in the workload's submission order; the exact averages
    ``avg_turnaround`` and ``avg_waiting``; and ``context_switches``."""

    pids: Tuple[int, ...]
    turnaround: List[int]
    waiting: List[int]
    response: List[int]
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

    pids, bursts = w.pids, w.bursts
    if tuple(executed.values()) != bursts:  # executed holds w's pids, in order
        pid, done, burst = next(row for row in zip(pids, executed.values(), bursts)
                                if row[1] != row[2])
        raise MetricsError(f"P{pid} executed {done} units but has burst {burst}")
    if trace.completion != last_end:
        pid = min(pid for pid in trace.completion.keys() | last_end.keys()
                  if trace.completion.get(pid) != last_end.get(pid))
        raise MetricsError(
            f"completion of P{pid} is {trace.completion.get(pid)},"
            f" but its last segment ends at {last_end.get(pid)}"
        )

    tat = list(map(last_end.__getitem__, pids))
    wt = list(map(sub, tat, bursts))
    n = len(pids)
    return MetricsSummary(
        pids, tat, wt, list(map(first_start.__getitem__, pids)),
        avg_turnaround=Fraction(sum(tat), n),
        avg_waiting=Fraction(sum(wt), n),
        context_switches=runs - 1,
    )


def format_average(value: Fraction) -> str:
    """Exact one-decimal rendering (half away from zero), e.g. 364/5 -> '72.8',
    -1/4 -> '-0.3'.  A value that rounds to zero prints as '0.0'."""
    scaled = abs(value) * 10
    tenths = (scaled.numerator * 2 + scaled.denominator) // (2 * scaled.denominator)
    sign = "-" if value < 0 and tenths else ""
    return f"{sign}{tenths // 10}.{tenths % 10}"
