"""Round-driven dispatch.

One round gives every live process exactly one CPU grant.  The dispatch order
is recomputed once per round boundary (not after every grant), the clock
advances by the effective execution time of each grant, and a process leaves
the ready set exactly when its remaining burst hits zero.  ``simulate`` is a
pure function of (workload, policy), whose columns it reads by submission
rank, run one of two ways, by the policy's data:

- A fixed quantum in submission order, of two or more rounds: a pid of burst
  b and quantum q gets exactly k = ⌈b/q⌉ grants, so every round in which some
  pid finishes is known before the first grant.  The rounds between two such
  rounds repeat one live list, so the trace is laid out a stretch of rounds
  at a time by list repetition: O(1) Python work per stretch plus O(log n)
  per pid that finishes in it, not a loop per grant.
- Every other run goes grant by grant: a growing quantum for at most
  ⌈log₁.₅ max b⌉ + 2 rounds (``growing_rounds``), a fixed one (SRTN order, or
  one grant a pid, as ``fcfs``) for the most grants of any pid.  Only this
  loop sorts by remaining burst (SRTN order): it sorts the live ranks by pid,
  then stably by remaining burst.
"""
from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from itertools import accumulate, chain, compress, count, groupby, repeat
from math import ceil, log
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


# The most grants a fixed-quantum run may have; ``simulate`` refuses more before
# it builds a column.  A segment keeps five 8-byte list slots and a 32-byte end
# int (its start shares it), plus an 8-byte run length while it is laid out:
# tracemalloc reads 73-76 bytes a segment kept and 90-94 at the peak on 10**6-
# segment rr:1 runs, so ~0.9 GB at the limit, before any metrics or export.
MAX_SEGMENTS = 10**7

# A ``del`` moves the tail of the live lists, so once more than this many pids
# leave them in one round, one pass that copies the lists is cheaper: the two
# cost the same at ~250 finishers of 10**3 or 10**4 live pids.
_DELETE_MAX = 256

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
    dispatches the live processes in submission order, or by ascending remaining
    burst (ties by pid) when ``policy.srtn_order`` is set.  Without ``policy.sc``
    each grant is the pid's ``policy.base``.  With it, each grant is the pid's entry
    in a quantum table that starts at the round-1 grant and that each grant grows to
    the next round's quantum, or the whole remaining burst when the entry would
    leave two units or less.  A fixed quantum in submission order that gives some
    pid two or more grants is laid out from each pid's grant count ⌈b/q⌉; every
    other run goes grant by grant.  ``completion`` lists pids in the order they
    finish.  Raises ``ValueError`` for a policy built for other pids or for the
    same pids in another order, a column of another length, a base below 1, or
    a fixed-quantum run of more than ``MAX_SEGMENTS`` grants."""
    base, sc = policy.base, policy.sc
    n = len(w.pids)
    if tuple(policy.pids) != w.pids or len(base) != n or sc is not None and len(sc) != n:
        raise ValueError(f"policy {policy.name!r} is for another workload ({_stray(w, policy)})")
    low = min(base)
    if low < 1:
        pid = policy.pids[base.index(low)]
        raise ValueError(f"policy {policy.name!r} has quantum {low} for P{pid}")
    if sc is not None:
        return _round_loop(w, policy, growing_rounds(max(w.bursts)))
    grants = [-(-b // q) for b, q in zip(w.bursts, base)]
    size = sum(grants)
    if size > MAX_SEGMENTS:
        raise ValueError(
            f"policy {policy.name!r} needs {size} grants, over the limit of {MAX_SEGMENTS}")
    if policy.srtn_order or size == n:  # SRTN order, or one grant a pid
        return _round_loop(w, policy, max(grants))
    return _fixed_quanta(w, base, grants)


def _stray(w: Workload, policy: SchedulingPolicy) -> str:
    """What the binding error names: the least pid in only one of the pid sets
    of ``w`` and ``policy``, else the first pid out of submission order, else the
    first pid that a short column lacks, else a long column's length."""
    stray = set(w.pids) ^ set(policy.pids)
    if stray:
        return f"P{min(stray)}"
    columns = policy.pids, policy.base, w.pids if policy.sc is None else policy.sc
    short = min(map(len, columns))
    for rank, pid in enumerate(w.pids):
        if rank == short or policy.pids[rank] != pid:
            return f"P{pid}"
    return f"{max(map(len, columns))} entries for {len(w.pids)} pids"


def _fixed_quanta(w: Workload, quanta: Sequence[int], grants: List[int]) -> ScheduleTrace:
    """The run in submission order, of two or more rounds, laid out from each
    pid's k = ⌈b/q⌉ grants, the last of which, in round k, runs b − (k − 1)·q.
    Each stretch of m rounds up to a round in which some pid finishes, the last
    round included, is appended as ``live * m``.  Each pid that finishes there is
    found by ``bisect`` on its submission rank, has its last run patched in, and
    leaves the aligned live lists by ``del`` or, for many at once, by one copying
    pass.  The ends are one running sum of the runs."""
    pids, bursts = w.pids, w.bursts
    ranks = list(range(len(pids)))  # submission ranks, aligned with live and qlive
    live, qlive = list(pids), list(quanta)
    pid, quantum, runs, widths = [], [], [], []  # widths: each round's grant count
    done, done_at = [], []  # the pids in the order they finish, and where
    r0 = 1
    # rounds r0..r1, with the ranks of the pids whose last grant is in round r1
    for r1, finishers in groupby(sorted(ranks, key=grants.__getitem__), grants.__getitem__):
        m, width = r1 - r0 + 1, len(live)
        pid += live * m
        quantum += qlive * m
        widths += [width] * m
        runs += qlive * m
        last = len(runs) - width  # the first grant of round r1
        finishers = list(finishers)
        if len(finishers) > _DELETE_MAX:  # one pass copies the lists
            keep = [True] * width
            for i in map(bisect_left, repeat(ranks), finishers):
                runs[last + i] = bursts[ranks[i]] - (r1 - 1) * qlive[i]
                done.append(live[i])
                done_at.append(last + i)
                keep[i] = False
            live, qlive, ranks = [list(compress(c, keep)) for c in (live, qlive, ranks)]
        else:  # each finisher by bisect, with j of them gone before it
            for j, rank in enumerate(finishers):
                i = bisect_left(ranks, rank)
                runs[last + i + j] = bursts[rank] - (r1 - 1) * qlive[i]
                done.append(live[i])
                done_at.append(last + i + j)
                del live[i], qlive[i], ranks[i]
        r0 = r1 + 1
    end = list(accumulate(runs))
    completion = dict(zip(done, map(end.__getitem__, done_at)))
    round_no = list(chain.from_iterable(map(repeat, count(1), widths)))
    # grants run back to back
    return ScheduleTrace(Segments(pid, [0, *end[:-1]], end, round_no, quantum), completion)


def growing_rounds(burst: int) -> int:
    """⌈log₁.₅ burst⌉ + 2, in integers: no pid of that burst gets more grants
    under a growing quantum.  Its first grant is at least 1 and each grant but
    its last is at least 1.5 times the one before, so a pid with k ≥ 2 grants
    has a (k − 1)-th grant of at least 1.5^(k − 2) units that leaves it live,
    that is, of less than its burst b: k − 2 < log₁.₅ b."""
    t = max(0, ceil(log(burst, 1.5)) - 1)  # not above the least t; the loop makes it exact
    while 3**t < burst << t:  # the least t with 1.5^t >= burst
        t += 1
    return t + 2


def _round_loop(w: Workload, policy: SchedulingPolicy, rounds: int) -> ScheduleTrace:
    """A run that ``simulate`` does not lay out (a growing quantum, SRTN order or
    one grant a pid), grant by grant in at most ``rounds`` rounds: a process live
    after them is a fault, and raises ``RuntimeError``.  A fixed grant finishes its
    process when it covers the remaining burst and records q; a growing one when
    it would leave two units or less, and records the remaining burst.  Each
    process is its submission rank, which indexes every column."""
    pids, base, sc = w.pids, policy.base, policy.sc
    grows = sc is not None
    slack = 2 if grows else 0
    rbt = list(w.bursts)  # a rank's remaining burst, 0 once it finishes
    quantum = base if sc is None else [  # base is only read
        its if s else (its + 1) // 2 for its, s in zip(base, sc)]
    segments = Segments()
    add_end, add_quantum = segments.end.append, segments.quantum.append
    completion = {}
    clock = 0
    live = list(range(len(pids)))
    for round_no in range(1, rounds + 1):
        if policy.srtn_order:
            live.sort(key=pids.__getitem__)  # so that ties in rbt stay in pid order
            live.sort(key=rbt.__getitem__)
        segments.pid += map(pids.__getitem__, live)  # one grant per live process per round
        segments.round += [round_no] * len(live)
        finished = len(completion)
        for i in live:
            left = rbt[i]
            tq = quantum[i]
            if left - tq <= slack:  # the process finishes
                clock += left
                completion[pids[i]] = clock
                rbt[i] = 0
                if grows:
                    tq = left
            else:  # the grant fits: the process runs its whole quantum
                clock += tq
                rbt[i] = left - tq
                if grows:
                    quantum[i] = 2 * tq if sc[i] else tq + (tq + 1) // 2
            add_end(clock)
            add_quantum(tq)
        if len(completion) != finished:  # the ready list changes only when one finishes
            live = [i for i in live if rbt[i]]
            if not live:
                break
    else:
        raise RuntimeError(
            f"policy {policy.name!r}: P{pids[live[0]]} is live after round {round_no}")
    segments.start += [0] + segments.end[:-1]  # grants run back to back
    return ScheduleTrace(segments, completion)
