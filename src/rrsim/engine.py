"""Round-driven dispatch loop.

One round gives every live process exactly one CPU grant.  The dispatch order
is recomputed once per round boundary (not after every grant), the clock
advances by the effective execution time of each grant, and a process leaves
the ready set exactly when its remaining burst hits zero.  ``simulate`` is a
pure function of (workload, policy).
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Dict, Iterable, List

from .schedulers import SchedulingPolicy
from .workload import Workload


@dataclass(slots=True)
class DispatchSegment:
    """One contiguous CPU grant.  ``quantum`` is the TQ assigned for the grant;
    the executed span ``end - start`` never exceeds it.  Treat it as read-only:
    it is slotted rather than frozen for speed, and is not hashable."""

    pid: int
    start: int
    end: int
    round: int
    quantum: int


SEGMENT_FIELDS = tuple(f.name for f in fields(DispatchSegment))


@dataclass(slots=True)
class Segments(Sequence):
    """Time-ordered segments as five parallel int columns, in ``SEGMENT_FIELDS``
    order.  Indexing and iteration build :class:`DispatchSegment` objects on
    demand, and a slice is a tuple of them.  Treat the columns as read-only."""

    pid: List[int] = field(default_factory=list)
    start: List[int] = field(default_factory=list)
    end: List[int] = field(default_factory=list)
    round: List[int] = field(default_factory=list)
    quantum: List[int] = field(default_factory=list)

    columns = property(attrgetter(*SEGMENT_FIELDS))

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]]) -> Segments:
        """Columns from rows of ints in ``SEGMENT_FIELDS`` order."""
        return cls(*map(list, zip(*rows)))

    def __len__(self) -> int:
        return len(self.pid)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(DispatchSegment, *(c[i] for c in self.columns)))
        return DispatchSegment(*(c[i] for c in self.columns))


@dataclass(frozen=True)
class ScheduleTrace:
    """Complete schedule: time-ordered segments, given as any iterable of
    :class:`DispatchSegment` and held as :class:`Segments`, plus per-process
    completion times."""

    segments: Segments
    completion: Dict[int, int]

    def __post_init__(self) -> None:
        if not isinstance(self.segments, Segments):
            rows = map(attrgetter(*SEGMENT_FIELDS), self.segments)
            object.__setattr__(self, "segments", Segments.from_rows(rows))

    @property
    def makespan(self) -> int:
        return self.segments.end[-1]


def simulate(w: Workload, policy: SchedulingPolicy) -> ScheduleTrace:
    """Run ``policy`` over ``w`` until every process completes.  Each round
    dispatches the live processes in submission order, or by ascending
    remaining burst (ties by pid) when ``policy.srtn_order`` is set.  Without
    ``policy.sc`` each grant is ``policy.base[pid]``.  With it, each grant is
    the pid's entry in a quantum table that starts at the round-1 grant and
    that each grant grows to the next round's quantum, or the whole remaining
    burst when the entry would leave two units or less.  ``completion`` lists
    pids in the order they finish.  Raises ``ValueError`` for a policy built
    for other pids or a base below 1."""
    base, sc = policy.base, policy.sc
    pids = set(w.pids)
    for table in (base,) if sc is None else (base, sc):
        if table.keys() != pids:
            pid = min(table.keys() ^ pids)
            raise ValueError(f"policy {policy.name!r} is for another workload (P{pid})")
    low = min(base, key=base.get)
    if base[low] < 1:
        raise ValueError(f"policy {policy.name!r} has quantum {base[low]} for P{low}")
    rbt = dict(zip(w.pids, w.bursts))
    quantum = base if sc is None else {
        pid: its if sc[pid] else (its + 1) // 2 for pid, its in base.items()
    }
    segments = Segments()
    add_end, add_quantum = segments.end.append, segments.quantum.append
    completion = {}
    clock = 0
    live = list(w.pids)
    # every live process runs at least one unit a round, so no run needs more rounds
    for round_no in range(1, max(w.bursts) + 1):
        if policy.srtn_order:
            live.sort()  # so that the stable sort by rbt leaves ties in pid order
            live.sort(key=rbt.__getitem__)
        segments.pid += live  # one grant per live process per round
        segments.round += [round_no] * len(live)
        finished = len(completion)
        for pid in live:
            left = rbt[pid]
            tq = quantum[pid]
            if sc is not None:
                if left - tq <= 2:
                    tq = left
                else:
                    quantum[pid] = 2 * tq if sc[pid] else tq + (tq + 1) // 2
            if tq < left:  # the grant fits: the process runs its whole quantum
                clock += tq
                rbt[pid] = left - tq
            else:  # the process finishes
                clock += left
                completion[pid] = clock
            add_end(clock)
            add_quantum(tq)
        if len(completion) != finished:  # the ready list changes only when one finishes
            live = [pid for pid in live if pid not in completion]
            if not live:
                break
    segments.start += [0] + segments.end[:-1]  # grants run back to back
    return ScheduleTrace(segments, completion)
