import sys
from collections import namedtuple

import pytest
from hypothesis import strategies as st

from rrsim import ScheduleTrace, Segments, Workload, workload

Process = namedtuple("Process", "pid burst priority")


def process_rows(w):
    """The processes of ``w`` one at a time, in submission order, for
    references and assertions that state a rule row by row."""
    return list(map(Process, w.pids, w.bursts, w.priorities))


def boundaries(trace):
    """The first segment's start, then each segment's end."""
    return trace.segments.start[:1] + trace.segments.end


def quanta_by_pid(trace):
    """{pid: the quantum of each of its grants, in order}, pids by first grant."""
    out = {}
    for pid, quantum in zip(trace.segments.pid, trace.segments.quantum):
        out.setdefault(pid, []).append(quantum)
    return out


@st.composite
def workloads(draw, max_n=10, max_burst=60, max_priority=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    bursts = draw(
        st.lists(st.integers(1, max_burst), min_size=n, max_size=n)
    )
    priorities = draw(
        st.lists(st.integers(1, max_priority), min_size=n, max_size=n)
    )
    return workload(bursts, priorities)


@st.composite
def scattered_workloads(draw, max_n=8, max_burst=30):
    """Workloads whose pids, drawn from 1..200, are neither in submission
    order nor sorted the same way as strings."""
    w = draw(workloads(max_n=max_n, max_burst=max_burst))
    pids = draw(st.lists(st.integers(1, 200), min_size=len(w), max_size=len(w), unique=True))
    return Workload(pids, w.bursts, w.priorities)


@st.composite
def valid_traces(draw, processes=scattered_workloads(max_n=6, max_burst=12), max_quantum=4):
    """(workload, trace) pairs that :func:`check_trace` accepts, for a workload
    drawn from ``processes``: each round grants every live pid once, in any
    order, for 1..quantum units, each quantum drawn from 1..``max_quantum``."""
    w = draw(processes)
    left = dict(zip(w.pids, w.bursts))
    rows, completion = [], {}
    clock, rnd, live = 0, 1, list(w.pids)
    while live:
        for pid in draw(st.permutations(live)):
            quantum = draw(st.integers(1, max_quantum))
            run = draw(st.integers(1, min(quantum, left[pid])))
            rows.append((pid, clock, clock + run, rnd, quantum))
            clock += run
            left[pid] -= run
            if not left[pid]:
                completion[pid] = clock
        live = [pid for pid in live if left[pid]]
        rnd += 1
    return w, ScheduleTrace(Segments.from_rows(rows), completion)


@pytest.fixture
def increasing_w():
    return workload([5, 12, 16, 21, 23], [2, 3, 1, 4, 5])


@pytest.fixture
def random_w():
    return workload([11, 53, 8, 41, 20], [3, 1, 2, 4, 5])


@pytest.fixture
def illustration_w():
    return workload([25, 60, 12, 43, 5], [3, 1, 2, 1, 1])


@pytest.fixture
def decreasing_w():
    return workload([31, 23, 16, 9, 1], [2, 1, 4, 5, 3])


@pytest.fixture
def int_digit_floor():
    """Python's digit limit on integer text at the lowest value it can be set
    to, 640, for one test, as ``PYTHONINTMAXSTRDIGITS=640`` sets it."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)
