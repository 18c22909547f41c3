"""Acceptance suite: one test (or test pair) per numbered criterion, each
printing a PASS line when its assertions hold.  Run with ``pytest -v`` or
``pytest tests/test_acceptance.py -s`` for the per-criterion lines.
"""
import math
import random as random_module
from fractions import Fraction

import pytest

from conftest import boundaries, quanta_by_pid
from rrsim import (
    compute_components,
    compute_metrics,
    compute_range,
    policy_from_name,
    simulate,
    workload,
)
from rrsim.metrics import check_trace
from step_oracle import step_simulate

INCREASING = workload([5, 12, 16, 21, 23], [2, 3, 1, 4, 5])
RANDOM = workload([11, 53, 8, 41, 20], [3, 1, 2, 4, 5])
ILLUSTRATION = workload([25, 60, 12, 43, 5], [3, 1, 2, 1, 1])


def report(line):
    print(f"ACCEPTANCE {line}")


def test_criterion_1_static_its_rr_increasing():
    trace = simulate(INCREASING, policy_from_name("its-rr", INCREASING, static_ots=4))
    assert boundaries(trace) == [
        0, 5, 9, 14, 18, 22, 26, 31, 35, 39, 43, 48,
        52, 56, 57, 61, 65, 69, 73, 74, 77,
    ]
    summary = compute_metrics(trace, INCREASING)
    assert summary.avg_turnaround == Fraction(256, 5)  # 51.2 exactly
    assert summary.avg_waiting == Fraction(179, 5)     # 35.8 exactly
    assert summary.context_switches == 19
    report("1: PASS  static-ITS-RR trace and metrics exact")


def test_criterion_2_proposed_increasing_quanta():
    """Published per-round matrix for the increasing dataset.

    Expected to FAIL on P3: the published row (9, 7) requires ITS 17 (CSC 2),
    but the slice rules give CSC 1 / ITS 16 and therefore quanta (8, 8).  No
    context-switch-component rule reproduces both this cell and the random
    dataset's published CSC column (criterion 5); both datasets have the same
    (OTS, PC=1, SC=0) shape for the affected process yet their published CSC
    values subtract the priority component inconsistently.  Completion times
    and all metrics are identical under either reading.
    """
    trace = simulate(INCREASING, policy_from_name("proposed", INCREASING))
    got = quanta_by_pid(trace)
    ok = got == {
        1: [5], 2: [3, 5, 4], 3: [9, 7], 4: [2, 3, 5, 8, 3], 5: [2, 3, 5, 8, 5],
    }
    report(f"2 (quanta matrix): {'PASS' if ok else 'FAIL'}  got P3 {got[3]}")
    assert ok


def test_criterion_2_proposed_increasing_metrics():
    trace = simulate(INCREASING, policy_from_name("proposed", INCREASING))
    summary = compute_metrics(trace, INCREASING)
    assert abs(summary.avg_turnaround - 46) <= 1       # rule-faithful 45
    assert abs(summary.avg_waiting - Fraction(153, 5)) <= 1  # 30.6, ours 29.6
    assert abs(summary.context_switches - 15) <= 1
    report("2 (metrics): PASS  avg TAT/WT/CS within ±1 of published values")


def test_criterion_3_proposed_random():
    trace = simulate(RANDOM, policy_from_name("proposed", RANDOM))
    prefix = [(s.pid, s.start, s.end) for s in trace.segments[:5]]
    assert prefix == [
        (3, 0, 8), (1, 8, 14), (5, 14, 21), (4, 21, 25), (2, 25, 52),
    ]
    assert trace.completion == {3: 8, 1: 57, 5: 70, 2: 96, 4: 133}
    summary = compute_metrics(trace, RANDOM)
    assert summary.avg_turnaround == Fraction(364, 5)  # 72.8 exactly
    assert abs(summary.context_switches - 9) <= 1
    # avg WT follows the identity exactly; the published 36.2 is inconsistent
    # with its own avg TAT and total burst (identity forces 46.2)
    assert summary.avg_waiting == summary.avg_turnaround - Fraction(133, 5)
    assert summary.avg_waiting == Fraction(231, 5)     # 46.2
    report("3: PASS  random-order trace prefix, completions, 72.8 exact")


def test_criterion_4_pbdrr():
    comps = compute_components(INCREASING, static_ots=4)
    assert comps.its == [5, 4, 5, 4, 4]
    trace = simulate(INCREASING, policy_from_name("pbdrr", INCREASING, static_ots=4))
    got = quanta_by_pid(trace)
    assert got[2] == [2, 3, 7]
    assert got[3] == [3, 5, 8]
    assert got[4] == [2, 3, 5, 8, 3]
    assert got[5] == [2, 3, 5, 8, 5]

    trace_r = simulate(RANDOM, policy_from_name("pbdrr", RANDOM, static_ots=4))
    round_one = [s for s in trace_r.segments if s.round == 1]
    assert [round_one[0].start] + [s.end for s in round_one] == [0, 2, 5, 13, 15, 20]
    report("4: PASS  PBDRR ITS vector, quanta matrix, round-1 boundaries exact")


def test_criterion_5_slice_component_goldens():
    ill = compute_components(ILLUSTRATION)
    assert ill.ots == [11, 33, 17, 33, 33]
    assert ill.sc == [0, 0, 1, 0, 1]

    inc = compute_components(INCREASING)
    assert inc.ots == [7, 5, 14, 4, 3]

    rnd = compute_components(RANDOM)
    assert rnd.csc[1:] == [21, 8, 0, 0]

    # the published random-order table prints OTS 10 (P1) and 6 (P5); under
    # plain ceiling rounding those two cells would come out exactly one higher
    rng = compute_range(RANDOM)
    assert math.ceil(rng / 3) == 10 + 1
    assert math.ceil(rng / 5) == 6 + 1
    report("5: PASS  component golden vectors and ceiling-divergence cells")


POLICIES = ["proposed", "pbdrr", "its-rr", "rr:7", "srtn", "fcfs"]


def _check_workload_properties(w):
    """Reads the trace's columns, so no segment objects are built."""
    total = sum(w.bursts)
    waits = {}
    for name in POLICIES:
        trace = simulate(w, policy_from_name(name, w))
        assert simulate(w, policy_from_name(name, w)) == trace  # determinism
        segs = trace.segments
        assert segs.start == [0] + segs.end[:-1]  # back to back from t=0
        assert trace.makespan == total
        check_trace(trace, w)  # raises MetricsError unless a valid schedule
        summary = compute_metrics(trace, w)
        assert min(summary.waiting) >= 0
        assert summary.avg_waiting == summary.avg_turnaround - Fraction(total, len(w))
        waits[name] = summary.avg_waiting
        if name == "fcfs":
            assert summary.context_switches == len(w) - 1
            fcfs_shape = (segs.pid, segs.start, segs.end)
    big_rr = simulate(w, policy_from_name(f"rr:{max(w.bursts)}", w)).segments
    assert (big_rr.pid, big_rr.start, big_rr.end) == fcfs_shape
    assert waits["srtn"] == min(waits.values())


def test_criterion_6_property_suite():
    rng = random_module.Random(20260823)
    for i in range(1000):
        n = rng.randint(1, 50)
        bursts = [rng.randint(1, 500) for _ in range(n)]
        order = rng.choice(["increasing", "decreasing", "random"])
        if order == "increasing":
            bursts.sort()
        elif order == "decreasing":
            bursts.sort(reverse=True)
        w = workload(bursts, [rng.randint(1, 9) for _ in range(n)])
        _check_workload_properties(w)
    report("6: PASS  property suite over 1000 generated workloads")


def test_criterion_7_step_oracle_equivalence():
    rng = random_module.Random(424242)
    for i in range(200):
        n = rng.randint(1, 6)
        w = workload(
            [rng.randint(1, 30) for _ in range(n)],
            [rng.randint(1, 6) for _ in range(n)],
        )
        for name in POLICIES:
            policy = policy_from_name(name, w)
            assert simulate(w, policy) == step_simulate(w, policy), (
                f"engine and step oracle disagree for {name} on {w}"
            )
    report("7: PASS  unit-step oracle matches the engine on 200 instances")


# The smallest counterexample to the paper's claim that the proposed policy
# gives fewer context switches and a lower average waiting time than its
# comparators, found by exhaustive search over two processes, bursts 1..10
# and priorities 1..3.  Range is (4 + 4) / 2 = 4.  P1 (priority 2) has Range
# OTS 2, PC 0 and SC 0; its balance 4 - 2 = 2 is not below the OTS, so CSC is
# 0 and ITS 2.  Its round-1 grant under proposed is ceil(2/2) = 1, which leaves
# 3 units, more than the two a grant absorbs, so P2 runs in between.  Under
# pbdrr (static OTS 4) P1's first grant of 2 absorbs the 2-unit remainder.
SMALLEST_LOSS = workload([4, 4], [2, 1])


def test_proposed_smallest_counterexample():
    comps = compute_components(SMALLEST_LOSS)
    assert (comps.ots[0], comps.csc[0], comps.its[0]) == (2, 0, 2)
    trace = simulate(SMALLEST_LOSS, policy_from_name("proposed", SMALLEST_LOSS))
    assert [(s.pid, s.start, s.end) for s in trace.segments] == [(1, 0, 1), (2, 1, 5), (1, 5, 8)]
    got = {}
    for name in ["proposed", "pbdrr", "its-rr", "rr:5", "srtn"]:
        policy = policy_from_name(name, SMALLEST_LOSS)
        summary = compute_metrics(simulate(SMALLEST_LOSS, policy), SMALLEST_LOSS)
        got[name] = (summary.context_switches, summary.avg_waiting)
    assert got == {
        "proposed": (2, Fraction(5, 2)),
        "pbdrr": (1, 2), "its-rr": (1, 2), "rr:5": (1, 2), "srtn": (1, 2),
    }
    report("counterexample: PASS  proposed has 2 switches and WT 5/2 where the others have 1 and 2")
