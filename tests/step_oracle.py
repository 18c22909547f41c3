"""Brute-force reference simulator used to cross-check the segment engine.

Advances the clock one time unit at a time: at every tick the running grant
either continues, or (when the quantum is exhausted or the process finished)
the next dispatch is re-derived from the policy's data.  The dispatch order and
the quantum rule are restated here from the policy's fields, not taken from
rrsim, so the two can disagree.
"""
from rrsim import DispatchSegment, ScheduleTrace


def grant(policy, pid, round_no, prev_tq, rbt):
    """The quantum of one grant.  Without an SC table it is the base quantum.
    With one, round 1 grants the ITS (SC=1) or half of it rounded up (SC=0);
    each later round grants the previous quantum doubled (SC=1) or times 1.5
    rounded up (SC=0); and a grant that would leave two units or less
    becomes the whole remaining burst."""
    base = policy.base[pid]
    if policy.sc is None:
        return base
    if round_no == 1:
        tq = base if policy.sc[pid] else -(-base // 2)
    else:
        tq = 2 * prev_tq if policy.sc[pid] else -(-3 * prev_tq // 2)
    return rbt if rbt - tq <= 2 else tq


def step_simulate(w, policy):
    rbt = dict(zip(w.pids, w.bursts))  # in submission order
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
                    (pid, grant(policy, pid, round_no, prev_tq.get(pid), rbt[pid]))
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
