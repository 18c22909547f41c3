"""Reference statement of a valid schedule: ``check_trace`` raises unless a
trace is *some* valid schedule of its workload, whatever policy made it.

``simulate`` states the scheduling rules constructively, and
``rrsim.report.trace_from_dict`` proves a loaded trace by re-running it.  This
weaker check stays the validity oracle of the tests: traces that ``simulate``
builds must pass it, and the hand-built traces of ``conftest.valid_traces``,
which no policy gives, are the inputs that ``compute_metrics`` and
``render_gantt`` must read as a full scan does.
"""
from typing import Dict

from rrsim import ScheduleTrace, Workload
from rrsim.report import MetricsError


def check_trace(trace: ScheduleTrace, w: Workload) -> None:
    """Raise :class:`MetricsError` unless ``trace`` is a valid schedule of ``w``:
    the segments run back to back from t=0, each for 1 to ``quantum`` units and
    each the pid's k-th segment in round k, no round runs after a later one,
    each process runs exactly its burst, and ``trace.completion`` holds the end
    of each process's last segment.  ``compute_metrics`` relies on the round
    checks: they make round 1 the first n segments, one per pid, and put a
    pid's back-to-back segments only across a round boundary."""
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
