"""Per-process and aggregate performance metrics for schedule traces.

Aggregates are kept as exact rationals; the one-decimal rendering used for
display never feeds back into any comparison.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from operator import sub
from typing import List, Tuple

from .engine import ScheduleTrace
from .workload import Workload

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
    context-switch count, read from the columns of a trace that ``simulate``
    built, as ``trace_from_dict`` returns; it checks nothing.  All arrivals are
    at t=0, so TAT equals completion.

    It reads two facts of such a trace, not every segment.  Each round grants
    every live pid once, so round 1 is the first n segments, one per pid, and
    holds each pid's response.  A pid has one segment per round and rounds run
    1..R without a gap, so a pid runs twice in a row only across a round
    boundary; each boundary is found by bisection on the round column.  The
    cost is O(n + R log S) for R rounds and S segments."""
    pids, bursts = w.pids, w.bursts
    n = len(pids)
    segs = trace.segments
    tat = list(map(trace.completion.__getitem__, pids))
    wt = list(map(sub, tat, bursts))
    first_start = dict(zip(segs.pid[:n], segs.start[:n]))
    seg_pid, seg_round = segs.pid, segs.round
    repeats = 0
    at = n  # the first segment of round 2, if there is one
    for rnd in range(2, seg_round[-1] + 1):
        at = bisect_left(seg_round, rnd, at)
        repeats += seg_pid[at - 1] == seg_pid[at]
    return MetricsSummary(
        pids, tat, wt, list(map(first_start.__getitem__, pids)),
        avg_turnaround=Fraction(sum(tat), n),
        avg_waiting=Fraction(sum(wt), n),
        context_switches=len(seg_pid) - 1 - repeats,
    )


def format_average(value: Fraction) -> str:
    """Exact one-decimal rendering (half away from zero), e.g. 364/5 -> '72.8',
    -1/4 -> '-0.3'.  A value that rounds to zero prints as '0.0'."""
    scaled = abs(value) * 10
    tenths = (scaled.numerator * 2 + scaled.denominator) // (2 * scaled.denominator)
    sign = "-" if value < 0 and tenths else ""
    return f"{sign}{tenths // 10}.{tenths % 10}"
