"""Round-driven dispatch loop.

One round gives every live process exactly one CPU grant.  The dispatch order
is recomputed once per round boundary (not after every grant), the clock
advances by the effective execution time of each grant, and a process leaves
the ready set exactly when its remaining burst hits zero.  ``simulate`` is a
pure function of (workload, policy).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Tuple

from .workload import Workload

if TYPE_CHECKING:  # pragma: no cover
    from .schedulers import SchedulingPolicy


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


@dataclass(frozen=True)
class ScheduleTrace:
    """Complete schedule: time-ordered segments plus per-process completion times."""

    segments: Tuple[DispatchSegment, ...]
    completion: Dict[int, int]

    @property
    def makespan(self) -> int:
        return self.segments[-1].end


def simulate(w: Workload, policy: "SchedulingPolicy") -> ScheduleTrace:
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
    rbt = {p.pid: p.burst for p in w}
    quantum = base if sc is None else {
        pid: its if sc[pid] else (its + 1) // 2 for pid, its in base.items()
    }
    segments = []
    completion = {}
    clock = 0
    round_no = 1
    live = list(w.pids)
    while live:
        if policy.srtn_order:
            live.sort(key=lambda pid: (rbt[pid], pid))
        for pid in live:
            left = rbt[pid]
            tq = quantum[pid]
            if sc is not None:
                if left - tq <= 2:
                    tq = left
                else:
                    quantum[pid] = 2 * tq if sc[pid] else tq + (tq + 1) // 2
            run = tq if tq < left else left
            segments.append(DispatchSegment(pid, clock, clock + run, round_no, tq))
            clock += run
            rbt[pid] = left - run
            if run == left:
                completion[pid] = clock
        live = [pid for pid in live if rbt[pid]]
        round_no += 1
    return ScheduleTrace(tuple(segments), completion)
