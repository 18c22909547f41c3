"""Brute-force reference simulator used to cross-check the segment engine.

Advances the clock one time unit at a time: at every tick the running grant
either continues, or (when the quantum is exhausted or the process finished)
the next dispatch is re-derived from the policy rules.  Kept deliberately
separate from rrsim.engine.simulate so the two can disagree.
"""
from rrsim import DispatchSegment, ScheduleTrace


def step_simulate(w, policy):
    rbt = {p.pid: p.burst for p in w}  # in submission order
    prev_tq = {}
    segments = []
    clock = 0
    round_no = 1
    pending = []  # dispatches still owed in the current round, as (pid, tq)
    current = None  # (pid, start, tq, units_used, round)

    while any(rbt.values()) or current is not None:
        if current is None:
            if not pending:
                live = [pid for pid in rbt if rbt[pid] > 0]
                if policy.srtn_order:
                    live = sorted(live, key=lambda pid: (rbt[pid], pid))
                pending = [
                    (pid, policy.quantum(pid, round_no, prev_tq.get(pid), rbt[pid]))
                    for pid in live
                ]
                for pid, tq in pending:
                    prev_tq[pid] = tq
            pid, tq = pending.pop(0)
            current = [pid, clock, tq, 0, round_no]
            if not pending:
                round_no += 1

        # run exactly one time unit
        pid, start, tq, used, rnd = current
        clock += 1
        used += 1
        rbt[pid] -= 1
        if used == tq or rbt[pid] == 0:
            segments.append(DispatchSegment(pid, start, clock, rnd, tq))
            current = None
        else:
            current = [pid, start, tq, used, rnd]

    completion = {}
    for seg in segments:
        completion[seg.pid] = seg.end
    return ScheduleTrace(tuple(segments), completion)
