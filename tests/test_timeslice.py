from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slice_reference as ref
from conftest import Process, process_rows, workloads
from rrsim import (
    compute_components,
    compute_range,
    generate_workload,
    policy_from_name,
    workload,
)
from rrsim.timeslice import COMPONENT_FIELDS, _round_ratio


def proc(burst, priority=1):
    return Process(1, burst, priority)


class TestRange:
    def test_illustration_bursts(self, illustration_w):
        assert compute_range(illustration_w) == Fraction(65, 2)

    def test_increasing_bursts(self, increasing_w):
        assert compute_range(increasing_w) == 14

    def test_single_burst(self):
        assert compute_range(workload([7])) == 7


class TestRoundSlice:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (Fraction(61, 6), 10),   # 10.1667 -> fractional part below 1/4
            (Fraction(61, 10), 6),   # 6.1
            (Fraction(65, 4), 17),   # 16.25 -> at the quarter threshold
            (Fraction(61, 4), 16),   # 15.25
            (Fraction(65, 2), 33),   # 32.5
            (Fraction(7, 2), 4),     # 3.5
            (Fraction(14, 5), 3),    # 2.8
            (7, 7),
        ],
    )
    def test_threshold(self, value, expected):
        assert ref.round_slice(value) == expected


class TestOts:
    @pytest.mark.parametrize(
        "priority,rng,expected",
        [
            (3, Fraction(65, 2), 11),
            (2, Fraction(65, 2), 17),
            (4, 14, 4),
            (1, 7, 7),
        ],
    )
    def test_examples(self, priority, rng, expected):
        assert ref.ots(proc(10, priority), rng) == expected

    def test_clamped_to_one(self):
        # tiny range with a large priority number would otherwise round to 0
        assert ref.ots(proc(1, 30), 1) == 1

    @given(st.integers(1, 200), st.integers(1, 20), st.integers(1, 20))
    def test_anti_monotone_in_priority(self, rng2, a, b):
        rng = Fraction(rng2, 2)
        lo, hi = sorted((a, b))
        assert ref.ots(proc(5, lo), rng) >= ref.ots(proc(5, hi), rng)

    @given(st.integers(1, 100), st.integers(1, 10), st.integers(1, 8))
    def test_scaling_identity(self, rng2, priority, k):
        # scaling the range by k moves the OTS to the rounded scaled quotient
        rng = Fraction(rng2, 2)
        scaled = ref.ots(proc(5, priority), k * rng)
        assert scaled == max(1, ref.round_slice(k * rng / priority))


class TestPc:
    def test_illustration(self, illustration_w):
        flags = [ref.pc(p, min(illustration_w.priorities)) for p in process_rows(illustration_w)]
        assert flags == [0, 1, 0, 1, 1]

    def test_increasing(self, increasing_w):
        flags = [ref.pc(p, min(increasing_w.priorities)) for p in process_rows(increasing_w)]
        assert flags == [0, 0, 1, 0, 0]

    def test_single_process_any_priority(self):
        w = workload([9], [4])
        assert ref.pc(process_rows(w)[0], min(w.priorities)) == 1

    def test_keys_on_minimum_not_literal_one(self):
        w = workload([4, 9], [3, 5])
        assert [ref.pc(p, min(w.priorities)) for p in process_rows(w)] == [1, 0]


class TestSc:
    def test_illustration(self, illustration_w):
        assert [ref.sc(i, illustration_w) for i in range(5)] == [0, 0, 1, 0, 1]

    def test_random(self, random_w):
        assert [ref.sc(i, random_w) for i in range(5)] == [0, 0, 1, 0, 1]

    def test_first_process_always_zero(self):
        assert ref.sc(0, workload([1])) == 0

    @given(workloads())
    def test_patterns(self, w):
        flags = compute_components(w).sc
        assert flags[0] == 0
        bursts = w.bursts
        for i in range(1, len(w)):
            assert flags[i] == (1 if bursts[i] < bursts[i - 1] else 0)

    def test_strictly_increasing_all_zero(self):
        w = workload([1, 2, 3, 4])
        assert [ref.sc(i, w) for i in range(4)] == [0, 0, 0, 0]

    def test_strictly_decreasing_zero_then_ones(self):
        w = workload([9, 7, 5, 2])
        assert [ref.sc(i, w) for i in range(4)] == [0, 1, 1, 1]


class TestCsc:
    @pytest.mark.parametrize(
        "burst,ots,pc,sc,expected",
        [
            (53, 31, 1, 0, 21),  # balance 21 < 31
            (8, 16, 0, 1, 8),    # balance -9 -> whole burst
            (41, 8, 0, 0, 0),    # balance 33 >= 8
            (10, 10, 0, 0, 0),   # exact fit, zero pad
        ],
    )
    def test_examples(self, burst, ots, pc, sc, expected):
        assert ref.csc(proc(burst), ots, pc, sc) == expected


class TestComponents:
    def test_illustration_vectors(self, illustration_w):
        comps = compute_components(illustration_w)
        assert comps.ots == [11, 33, 17, 33, 33]
        assert comps.pc == [0, 1, 0, 1, 1]
        assert comps.sc == [0, 0, 1, 0, 1]
        assert comps.csc == [0, 26, 12, 9, 5]
        assert comps.its == [11, 60, 30, 43, 40]

    def test_increasing_vectors(self, increasing_w):
        comps = compute_components(increasing_w)
        assert comps.ots == [7, 5, 14, 4, 3]
        assert comps.pc == [0, 0, 1, 0, 0]
        assert comps.sc == [0, 0, 0, 0, 0]
        assert comps.csc == [5, 0, 1, 0, 0]
        assert comps.its == [12, 5, 16, 4, 3]

    def test_random_vectors(self, random_w):
        comps = compute_components(random_w)
        assert comps.ots == [10, 31, 16, 8, 6]
        assert comps.pc == [0, 1, 0, 0, 0]
        assert comps.sc == [0, 0, 1, 0, 1]
        assert comps.csc == [1, 21, 8, 0, 0]
        assert comps.its == [11, 53, 25, 8, 7]

    def test_static_ots_increasing(self, increasing_w):
        comps = compute_components(increasing_w, static_ots=4)
        assert comps.ots == [4] * 5
        assert comps.its == [5, 4, 5, 4, 4]

    def test_static_ots_random(self, random_w):
        comps = compute_components(random_w, static_ots=4)
        assert comps.its == [4, 5, 8, 4, 5]
        assert comps.csc == [0, 0, 3, 0, 0]

    @given(st.integers(1, 100))
    def test_single_process(self, b):
        # range = burst, ots = burst, pc = 1, sc = 0, balance = -1 -> csc = burst
        c = compute_components(workload([b]))
        assert (c.slice_range, c.ots, c.pc, c.sc, c.csc) == (b, [b], [1], [0], [b])
        assert c.its == [2 * b + 1]
        assert c.its[0] >= b

    @given(workloads())
    def test_its_additivity(self, w):
        c = compute_components(w)
        for its, ots, pc, sc, csc in zip(c.its, c.ots, c.pc, c.sc, c.csc):
            assert its == ots + pc + sc + csc

    @given(workloads())
    def test_csc_guarantees_one_dispatch_finish(self, w):
        c = compute_components(w)
        for burst, csc, its in zip(w.bursts, c.csc, c.its):
            if csc > 0:
                assert its >= burst

    @given(workloads())
    def test_bounds(self, w):
        c = compute_components(w)
        assert min(c.ots) >= 1
        assert set(c.pc) <= {0, 1}
        assert set(c.sc) <= {0, 1}
        assert min(c.csc) >= 0
        assert min(c.its) >= 1


def fields(comps):
    """The rows of ``comps``, as ``slice_reference.components`` gives them."""
    return list(zip([comps.slice_range] * len(comps), comps.ots, comps.pc, comps.sc, comps.csc))


class TestOnePassComponents:
    @settings(max_examples=60, deadline=None)
    @given(
        workloads(max_n=200, max_burst=10**4, max_priority=50),
        st.one_of(st.none(), st.integers(1, 20)),
    )
    def test_matches_per_process_helpers(self, w, static_ots):
        comps = compute_components(w, static_ots=static_ots)
        assert fields(comps) == ref.components(w, static_ots)
        assert len(comps) == len(w)
        columns = [getattr(comps, name) for name in COMPONENT_FIELDS]
        assert all(len(column) == len(w) for column in columns)
        assert all(type(x) is int for column in columns for x in column)
        names = ["proposed"] if static_ots is None else ["pbdrr", "its-rr"]
        for policy in (policy_from_name(name, w, static_ots) for name in names):
            assert (policy.pids, policy.base) == (w.pids, tuple(comps.its))
            # its-rr grants the full ITS on every visit, so it reads no SC
            sc = None if policy.name == "its-rr" else tuple(comps.sc)
            assert policy.sc == sc

    def test_integer_ots_matches_fraction_rounding(self):
        # compute_components rounds Range / priority with Range = span / 2
        for span in range(2, 4001):
            rng = Fraction(span, 2)
            for priority in range(1, 65):
                expected = max(1, ref.round_slice(Fraction(span, 2 * priority)))
                ots = max(1, _round_ratio(rng.numerator, rng.denominator * priority))
                assert ots == expected, (span, priority)

    def test_n_10000_matches_per_process_helpers(self):
        w = generate_workload(10_000, "random", (1, 10_000), (1, 50), seed=4)
        assert fields(compute_components(w)) == ref.components(w)
