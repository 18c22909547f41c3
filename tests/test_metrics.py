import dataclasses
import json
from decimal import ROUND_HALF_UP, Decimal, localcontext
from fractions import Fraction
from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gantt_reference
from conftest import process_rows, scattered_workloads, valid_traces, workloads
from rrsim import (
    Workload,
    compute_metrics,
    format_average,
    policy_from_name,
    simulate,
    workload,
)
from rrsim.engine import DispatchSegment, ScheduleTrace
from rrsim.metrics import METRIC_FIELDS, MetricsError, check_trace
from rrsim.report import render_gantt, trace_from_dict, trace_to_dict
from rrsim.schedulers import POLICY_NAMES


class TestGolden:
    def test_proposed_random(self, random_w):
        trace = simulate(random_w, policy_from_name("proposed", random_w))
        summary = compute_metrics(trace, random_w)
        assert trace.completion == {3: 8, 1: 57, 5: 70, 2: 96, 4: 133}
        assert summary.avg_turnaround == Fraction(364, 5)  # 72.8
        # identity: avg WT = avg TAT - mean burst = 72.8 - 26.6 = 46.2
        assert summary.avg_waiting == summary.avg_turnaround - Fraction(133, 5)
        assert summary.avg_waiting == Fraction(231, 5)

    def test_single_process(self):
        w = workload([9])
        s = compute_metrics(simulate(w, policy_from_name("fcfs", w)), w)
        assert (s.pids, s.turnaround, s.waiting, s.response) == ((1,), [9], [0], [0])
        assert s.context_switches == 0


class TestContextSwitches:
    def test_merges_back_to_back_segments(self):
        # round 1 ends with the pid that opens round 2
        w = workload([5, 4])
        segments = (
            DispatchSegment(2, 0, 4, 1, 4),
            DispatchSegment(1, 4, 6, 1, 2),
            DispatchSegment(1, 6, 9, 2, 3),
        )
        trace = ScheduleTrace(segments, {2: 4, 1: 9})
        check_trace(trace, w)
        assert render_gantt(trace) == "| P2 | P1 |\n0    4    9"
        assert compute_metrics(trace, w).context_switches == 1

    def test_all_one_process(self):
        segments = (DispatchSegment(1, 0, 2, 1, 2), DispatchSegment(1, 2, 4, 2, 2))
        trace = ScheduleTrace(segments, {1: 4})
        assert compute_metrics(trace, workload([4])).context_switches == 0

    @settings(max_examples=40, deadline=None)
    @given(w=workloads())
    def test_fcfs_is_n_minus_one(self, w):
        summary = compute_metrics(simulate(w, policy_from_name("fcfs", w)), w)
        assert summary.context_switches == len(w) - 1


class TestIdentities:
    # fixed ids, so that each case keeps the name it has in earlier test reports
    @pytest.mark.parametrize(
        "name", ["proposed", "srtn", "fcfs", "rr:3"],
        ids=["proposed_policy", "<lambda>0", "<lambda>1", "<lambda>2"],
    )
    @settings(max_examples=40, deadline=None)
    @given(w=workloads())
    def test_avg_wt_identity_and_bounds(self, name, w):
        trace = simulate(w, policy_from_name(name, w))
        summary = compute_metrics(trace, w)
        segs = trace.segments
        runs = gantt_reference.merge_runs(zip(segs.pid, segs.start, segs.end))
        assert summary.context_switches == len(runs) - 1
        mean_burst = Fraction(sum(w.bursts), len(w))
        assert summary.avg_waiting == summary.avg_turnaround - mean_burst
        for burst, turnaround, waiting, response in zip(
            w.bursts, summary.turnaround, summary.waiting, summary.response
        ):
            assert waiting >= 0
            assert response <= waiting
            assert turnaround == waiting + burst

    @settings(max_examples=30, deadline=None)
    @given(w=workloads(max_n=6))
    def test_pid_relabeling_permutes_metrics(self, w):
        # fcfs ignores labels, so shifting every pid by 10 must shift the
        # per-process table identically and leave aggregates untouched
        shifted = Workload((pid + 10 for pid in w.pids), w.bursts, w.priorities)
        base = compute_metrics(simulate(w, policy_from_name("fcfs", w)), w)
        moved = compute_metrics(simulate(shifted, policy_from_name("fcfs", shifted)), shifted)
        assert moved.avg_turnaround == base.avg_turnaround
        assert moved.avg_waiting == base.avg_waiting
        assert moved.context_switches == base.context_switches
        assert moved.pids == tuple(pid + 10 for pid in base.pids)
        columns = attrgetter(*METRIC_FIELDS)
        assert columns(moved) == columns(base)


def _ref_per_process(w, trace):
    """pid -> (turnaround, waiting, response), one process at a time from the
    first and the last of its segments."""
    pids, starts, ends = trace.segments.pid, trace.segments.start, trace.segments.end
    out = {}
    for p in process_rows(w):
        first = pids.index(p.pid)
        last = len(pids) - 1 - pids[::-1].index(p.pid)
        out[p.pid] = (ends[last], ends[last] - p.burst, starts[first])
    return out


class TestPerProcessMapping:
    """``compute_metrics`` maps the workload's pids, in submission order, to int
    metric columns that read as the row-wise dict did, and counts the switches
    between the merged runs of the Gantt reference.  Workloads reach the sizes
    of criterion 6 (n <= 50, bursts <= 500)."""

    @pytest.mark.parametrize("name", [n.replace("<q>", "3") for n in POLICY_NAMES])
    @settings(max_examples=25, deadline=None)
    @given(w=scattered_workloads(max_n=50, max_burst=500))
    def test_matches_row_wise_reference(self, name, w):
        trace = simulate(w, policy_from_name(name, w))
        m = compute_metrics(trace, w)
        expected = _ref_per_process(w, trace)
        assert m.pids == w.pids
        assert dict(zip(m.pids, zip(m.turnaround, m.waiting, m.response))) == expected
        segs = trace.segments
        runs = gantt_reference.merge_runs(zip(segs.pid, segs.start, segs.end))
        assert m.context_switches == len(runs) - 1
        assert all(type(x) is int for column in (m.turnaround, m.waiting, m.response)
                   for x in column)
        with pytest.raises(dataclasses.FrozenInstanceError):
            m.waiting = m.response


def _check_against_full_scan(trace, w):
    """``compute_metrics``' response and context switches against a pass over
    every segment: the first start of each pid, and the adjacent pid changes."""
    segs = trace.segments
    first_start = {}
    for pid, start in zip(segs.pid, segs.start):
        first_start.setdefault(pid, start)
    m = compute_metrics(trace, w)
    assert m.response == [first_start[pid] for pid in w.pids]
    assert m.context_switches == sum(a != b for a, b in zip(segs.pid, segs.pid[1:]))
    return m


class TestRoundStructure:
    """``compute_metrics`` reads round 1 and the round boundaries only; every
    trace that ``check_trace`` accepts must read as a full scan does."""

    @settings(max_examples=150, deadline=None)
    @given(case=valid_traces())
    def test_matches_full_scan(self, case):
        w, trace = case
        check_trace(trace, w)
        m = _check_against_full_scan(trace, w)
        doc = json.loads(json.dumps(trace_to_dict(w, "any", trace)))
        loaded_w, _, loaded = trace_from_dict(doc)
        assert _check_against_full_scan(loaded, loaded_w) == m

    def test_one_process_every_boundary_repeats(self):
        w = workload([50])
        trace = simulate(w, policy_from_name("rr:1", w))
        assert trace.segments.round == list(range(1, 51))
        assert _check_against_full_scan(trace, w).context_switches == 0

    def test_srtn_order_round_ends_with_next_rounds_first_pid(self):
        # proposed runs P2, P3, P1 in round 1 (remaining 1, 6, 7), then P1
        # and P3 tie on 3 units left, so P1 ends round 1 and opens round 2
        w = workload([7, 1, 6])
        trace = simulate(w, policy_from_name("proposed", w))
        segs = trace.segments
        assert list(zip(segs.pid, segs.round)) == [(2, 1), (3, 1), (1, 1), (1, 2), (3, 2)]
        m = _check_against_full_scan(trace, w)
        assert (m.response, m.context_switches) == ([4, 0, 1], 3)


class TestValidation:
    def test_unknown_pid(self):
        w = workload([4])
        trace = ScheduleTrace((DispatchSegment(9, 0, 4, 1, 4),), {9: 4})
        with pytest.raises(MetricsError, match="unknown process P9"):
            check_trace(trace, w)

    def test_burst_mismatch(self):
        w = workload([4])
        trace = ScheduleTrace((DispatchSegment(1, 0, 3, 1, 3),), {1: 3})
        with pytest.raises(MetricsError, match="burst"):
            check_trace(trace, w)

    def test_completion_disagrees_with_segments(self):
        w = workload([4, 3])
        trace = simulate(w, policy_from_name("fcfs", w))
        bad = ScheduleTrace(trace.segments, {1: 4, 2: 99})
        with pytest.raises(MetricsError, match="completion of P2 is 99"):
            check_trace(bad, w)

    def test_completion_missing_a_process(self):
        w = workload([4, 3])
        bad = ScheduleTrace(simulate(w, policy_from_name("fcfs", w)).segments, {1: 4})
        with pytest.raises(MetricsError, match="completion of P2 is None"):
            check_trace(bad, w)

    def test_idle_gap(self):
        w = workload([4, 3])
        segments = (DispatchSegment(1, 0, 4, 1, 4), DispatchSegment(2, 5, 8, 1, 3))
        with pytest.raises(MetricsError, match="starts at 5, expected 4"):
            check_trace(ScheduleTrace(segments, {1: 4, 2: 8}), w)

    def test_run_longer_than_quantum(self):
        trace = ScheduleTrace((DispatchSegment(1, 0, 4, 1, 2),), {1: 4})
        with pytest.raises(MetricsError, match=r"\[0, 4\) is not 1..2 units"):
            check_trace(trace, workload([4]))

    def test_zero_length_segment(self):
        # an empty grant is neither a response nor a context switch
        segments = (
            DispatchSegment(2, 0, 0, 1, 1),
            DispatchSegment(1, 0, 4, 1, 4),
            DispatchSegment(2, 4, 7, 1, 3),
        )
        with pytest.raises(MetricsError, match=r"P2 segment \[0, 0\)"):
            check_trace(ScheduleTrace(segments, {1: 4, 2: 7}), workload([4, 3]))

    def test_backward_segment(self):
        segments = (DispatchSegment(1, 0, 6, 1, 6), DispatchSegment(1, 6, 4, 2, 1))
        with pytest.raises(MetricsError, match=r"P1 segment \[6, 4\)"):
            check_trace(ScheduleTrace(segments, {1: 4}), workload([4]))

    def test_second_segment_in_round_one(self):
        segments = (DispatchSegment(1, 0, 2, 1, 2), DispatchSegment(1, 2, 4, 1, 2))
        with pytest.raises(MetricsError, match="segment round of P1 is 1, expected 2"):
            check_trace(ScheduleTrace(segments, {1: 4}), workload([4]))

    def test_round_after_a_later_round(self):
        # P2's first grant is in round 1, but P1's round-2 grant ran before it
        segments = (DispatchSegment(1, 0, 1, 1, 1), DispatchSegment(1, 1, 2, 2, 1),
                    DispatchSegment(2, 2, 3, 1, 1))
        with pytest.raises(MetricsError, match="P2 segment of round 1 runs after round 2"):
            check_trace(ScheduleTrace(segments, {1: 2, 2: 3}), workload([2, 1]))


class TestFormatAverage:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (Fraction(364, 5), "72.8"),
            (Fraction(45), "45.0"),
            (Fraction(179, 5), "35.8"),
            (Fraction(1, 4), "0.3"),   # half of a tenth rounds away from zero
            (Fraction(1, 8), "0.1"),
            (Fraction(-1, 4), "-0.3"),
            (Fraction(-3, 2), "-1.5"),
            (Fraction(-1, 20), "-0.1"),
            (Fraction(-1, 21), "0.0"),  # never "-0.0"
            (Fraction(-364, 5), "-72.8"),
        ],
    )
    def test_one_decimal(self, value, expected):
        assert format_average(value) == expected

    @given(st.fractions(-10**6, 10**6, max_denominator=10**6))
    def test_matches_decimal_half_up(self, value):
        with localcontext() as ctx:
            ctx.prec = 60  # exact enough that no tie is decided by the division
            quotient = Decimal(value.numerator) / Decimal(value.denominator)
            expected = quotient.quantize(Decimal("0.1"), rounding=ROUND_HALF_UP)
        assert format_average(value) == str(abs(expected) if expected == 0 else expected)
