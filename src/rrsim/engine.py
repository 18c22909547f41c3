"""Round-driven dispatch.

One round gives every live process exactly one CPU grant.  The dispatch order
is recomputed once per round boundary (not after every grant), the clock
advances by the effective execution time of each grant, and a process leaves
the ready set exactly when its remaining burst hits zero.  ``simulate`` is a
pure function of (workload, policy), laid out one of two ways, by the policy's
data:

- Fixed quanta: a pid of burst b and quantum q gets exactly k = ⌈b/q⌉ grants,
  so every round in which some pid finishes is known before the first grant.
  The rounds between two such rounds repeat one live list, so the trace is laid
  out a stretch of rounds at a time by list repetition: O(1) Python work per
  stretch plus O(log n) per pid that finishes in it, not a loop per grant.
  SRTN order re-sorts at every round, so there each round is its own stretch.
- Growing quanta: each grant sets the pid's next quantum, so a loop runs grant
  by grant, for at most ⌈log₁.₅ max b⌉ + 2 rounds (``growing_rounds``).
"""
from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from itertools import accumulate, chain, compress, count, groupby, repeat
from math import ceil, log
from operator import attrgetter, mul, sub
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
    dispatches the live processes in submission order, or by ascending
    remaining burst (ties by pid) when ``policy.srtn_order`` is set.  Without
    ``policy.sc`` each grant is ``policy.base[pid]``, so each pid's grant count
    is known and the run is laid out from the counts.  With it, each grant is
    the pid's entry in a quantum table that starts at the round-1 grant and
    that each grant grows to the next round's quantum, or the whole remaining
    burst when the entry would leave two units or less, so the run goes grant
    by grant.  ``completion`` lists pids in the order they finish.  Raises
    ``ValueError`` for a policy built for other pids, a base below 1, or a
    fixed-quantum run of more than ``MAX_SEGMENTS`` grants."""
    base, sc = policy.base, policy.sc
    pids = set(w.pids)
    for table in (base,) if sc is None else (base, sc):
        if table.keys() != pids:
            pid = min(table.keys() ^ pids)
            raise ValueError(f"policy {policy.name!r} is for another workload (P{pid})")
    low = min(base, key=base.get)
    if base[low] < 1:
        raise ValueError(f"policy {policy.name!r} has quantum {base[low]} for P{low}")
    return _fixed_quanta(w, policy) if sc is None else _growing_quanta(w, policy)


def _fixed_quanta(w: Workload, policy: SchedulingPolicy) -> ScheduleTrace:
    """The run laid out from each pid's k = ⌈b/q⌉ grants, the last of which, in
    round k, runs b − (k − 1)·q.  Each stretch of m rounds up to a round in
    which some pid finishes is appended as ``live * m``.  Each pid that
    finishes there is found by ``bisect`` on its submission rank (under SRTN,
    read off the round's order), has its last run patched in, and leaves the
    aligned live lists by ``del`` or, for many at once and under SRTN, by one
    copying pass.  The ends are one running sum of the runs."""
    pids, bursts, srtn = w.pids, w.bursts, policy.srtn_order
    quanta = list(map(policy.base.__getitem__, pids))
    grants = [-(-b // q) for b, q in zip(bursts, quanta)]
    size = sum(grants)
    if size > MAX_SEGMENTS:
        raise ValueError(
            f"policy {policy.name!r} needs {size} grants, over the limit of {MAX_SEGMENTS}")
    rounds = max(grants)
    ranks = list(range(len(pids)))  # submission ranks, aligned with live and qlive
    if srtn:  # every round is a stretch
        stretches = zip(range(1, rounds + 1), repeat(None))
    else:  # (k, the ranks of the pids with k grants), by ascending k
        stretches = groupby(sorted(ranks, key=grants.__getitem__), grants.__getitem__)
        live, qlive = list(pids), quanta[:]
    pid, quantum, runs, widths = [], [], [], []  # widths: each round's grant count
    done, done_at = [], []  # the pids that finish before the last round, and where
    r0 = 1
    for r1, finishers in stretches:  # rounds r0..r1; some pid finishes in r1
        if srtn or r1 == rounds:  # each rank's remaining burst at round r1's start
            left = bursts if r1 == 1 else list(map(sub, bursts, map(mul, quanta, repeat(r1 - 1))))
        if srtn:  # by remaining burst, ties by pid
            ranks.sort(key=pids.__getitem__)
            ranks.sort(key=left.__getitem__)
            live = list(map(pids.__getitem__, ranks))
            qlive = list(map(quanta.__getitem__, ranks))
        m, width = r1 - r0 + 1, len(live)
        pid += live * m
        quantum += qlive * m
        widths += [width] * m
        runs += qlive * (m - 1)
        last = len(runs)  # the first grant of round r1
        if r1 == rounds:  # every live pid finishes, in dispatch order
            runs += map(left.__getitem__, ranks)
            break
        runs += qlive
        if not srtn:
            finishers = list(finishers)
        if srtn or len(finishers) > _DELETE_MAX:  # one pass copies the lists
            if srtn:
                at = compress(count(), map(r1.__eq__, map(grants.__getitem__, ranks)))
            else:
                at = map(bisect_left, repeat(ranks), finishers)
            keep = [True] * width
            for i in at:
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
    completion.update(zip(live, end[last:]))  # the last round's
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


def _growing_quanta(w: Workload, policy: SchedulingPolicy) -> ScheduleTrace:
    """The run grant by grant, for at most ``growing_rounds`` of the longest
    burst: a process live after that is a fault, and raises ``RuntimeError``
    rather than build a long trace."""
    base, sc = policy.base, policy.sc
    rbt = dict(zip(w.pids, w.bursts))
    quantum = {pid: its if sc[pid] else (its + 1) // 2 for pid, its in base.items()}
    segments = Segments()
    add_end, add_quantum = segments.end.append, segments.quantum.append
    completion = {}
    clock = 0
    live = list(w.pids)
    for round_no in range(1, growing_rounds(max(w.bursts)) + 1):
        if policy.srtn_order:
            live.sort()  # so that the stable sort by rbt leaves ties in pid order
            live.sort(key=rbt.__getitem__)
        segments.pid += live  # one grant per live process per round
        segments.round += [round_no] * len(live)
        finished = len(completion)
        for pid in live:
            left = rbt[pid]
            tq = quantum[pid]
            if left - tq <= 2:  # the process finishes
                tq = left
                clock += left
                completion[pid] = clock
            else:  # the grant fits: the process runs its whole quantum
                clock += tq
                rbt[pid] = left - tq
                quantum[pid] = 2 * tq if sc[pid] else tq + (tq + 1) // 2
            add_end(clock)
            add_quantum(tq)
        if len(completion) != finished:  # the ready list changes only when one finishes
            live = [pid for pid in live if pid not in completion]
            if not live:
                break
    else:
        raise RuntimeError(f"policy {policy.name!r}: P{live[0]} is live after round {round_no}")
    segments.start += [0] + segments.end[:-1]  # grants run back to back
    return ScheduleTrace(segments, completion)
