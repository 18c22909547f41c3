"""Round-driven dispatch loop.

One round gives every live process exactly one CPU grant.  The dispatch order
is recomputed once per round boundary (not after every grant), the clock
advances by the effective execution time of each grant, and a process leaves
the ready set exactly when its remaining burst hits zero.  ``simulate`` is a
pure function of (workload, policy).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from .workload import Workload

if TYPE_CHECKING:  # pragma: no cover
    from .schedulers import SchedulingPolicy


@dataclass(frozen=True)
class DispatchSegment:
    """One contiguous CPU grant.  ``quantum`` is the TQ assigned for the grant;
    the executed span ``end - start`` never exceeds it."""

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


def proposed_quantum(
    its: int, sc: int, round_no: int, prev_tq: Optional[int], rbt: int
) -> int:
    """Dynamic time quantum of the proposed policy (also used by PBDRR).

    Round 1 starts from the ITS: half of it (rounded up) for SC=0 processes,
    the full ITS for SC=1.  Later rounds grow the previous quantum: *1.5
    (rounded up) for SC=0, *2 for SC=1.  If the leftover after the grant would
    be two units or less, the quantum becomes the remaining burst so the
    process finishes without another dispatch.
    """
    if rbt < 1:
        raise ValueError(f"rbt must be >= 1, got {rbt}")
    if round_no == 1:
        tq = its if sc else (its + 1) // 2
    else:
        if prev_tq is None:
            raise ValueError("prev_tq required for rounds after the first")
        tq = 2 * prev_tq if sc else prev_tq + (prev_tq + 1) // 2
    return rbt if rbt - tq <= 2 else tq


def simulate(w: Workload, policy: "SchedulingPolicy") -> ScheduleTrace:
    """Run ``policy`` over ``w`` until every process completes.  Each round
    dispatches the live processes in submission order, or by ascending
    remaining burst (ties by pid) when ``policy.srtn_order`` is set; each grant
    is ``policy.base[pid]``, or grown from it by :func:`proposed_quantum` when
    ``policy.sc`` is set.  ``completion`` lists pids in the order they finish.
    Raises ``ValueError`` for a policy built for other pids or a base below 1."""
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
    prev_tq: Dict[int, int] = {}
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
            tq = base[pid]
            if sc is not None:
                tq = proposed_quantum(tq, sc[pid], round_no, prev_tq.get(pid), left)
                prev_tq[pid] = tq
            run = min(tq, left)
            segments.append(DispatchSegment(pid, clock, clock + run, round_no, tq))
            clock += run
            rbt[pid] = left - run
            if run == left:
                completion[pid] = clock
        live = [pid for pid in live if rbt[pid]]
        round_no += 1
    return ScheduleTrace(tuple(segments), completion)
