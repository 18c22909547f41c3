"""Per-process and aggregate performance metrics for schedule traces.

Aggregates are kept as exact rationals; the one-decimal rendering used for
display never feeds back into any comparison.
"""
from __future__ import annotations

from bisect import bisect_left
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


def check_trace(trace: ScheduleTrace, w: Workload) -> None:
    """Raise :class:`MetricsError` unless ``trace`` is a valid schedule of ``w``:
    the segments run back to back from t=0, each for 1 to ``quantum`` units and
    each the pid's k-th segment in round k, no round runs after a later one,
    each process runs exactly its burst, and ``trace.completion`` holds the end
    of each process's last segment.  :func:`compute_metrics` relies on the
    round checks: they make round 1 the first n segments, one per pid, and
    put a pid's back-to-back segments only across a round boundary."""
    executed = dict.fromkeys(w.pids, 0)
    visits = dict.fromkeys(w.pids, 0)
    last_end: Dict[int, int] = {}
    clock = last_round = 0
    for pid, start, end, rnd, quantum in zip(*trace.segments.columns):
        if pid not in executed:
            raise MetricsError(f"trace references unknown process P{pid}")
        if start != clock:
            raise MetricsError(f"P{pid} segment starts at {start}, expected {clock}")
        if not 0 < end - clock <= quantum:
            raise MetricsError(f"P{pid} segment [{clock}, {end}) is not 1..{quantum} units")
        if rnd != visits[pid] + 1:  # a pid's k-th segment runs in round k
            raise MetricsError(f"segment round of P{pid} is {rnd}, expected {visits[pid] + 1}")
        if rnd < last_round:
            raise MetricsError(f"P{pid} segment of round {rnd} runs after round {last_round}")
        visits[pid] = last_round = rnd
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


def compute_metrics(trace: ScheduleTrace, w: Workload) -> MetricsSummary:
    """Turnaround / waiting / response per process, exact averages and the
    context-switch count, read from the columns of a trusted trace: one that
    ``simulate`` built or ``trace_from_dict`` returned.  It checks nothing; pass
    any other trace to :func:`check_trace` first.  All arrivals are at t=0, so
    TAT equals completion.

    It reads two facts that :func:`check_trace` enforces, not every segment.
    Round 1 is the first n segments, one per pid, since each pid runs and its
    first segment is in round 1; so they hold each pid's response.  A pid has
    one segment per round and rounds run 1..R without a gap, so a pid runs
    twice in a row only across a round boundary; each boundary is found by
    bisection on the round column.  The cost is O(n + R log S) for R rounds
    and S segments."""
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
