import random as random_module

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import boundaries, process_rows, quanta_by_pid, workloads
from rrsim import compute_components, compute_metrics, policy_from_name, simulate, workload
from rrsim.schedulers import SchedulingPolicy


def segment_shapes(trace):
    return [(s.pid, s.start, s.end) for s in trace.segments]


class TestProposed:
    def test_increasing_quanta_matrix(self, increasing_w):
        # hand-derived from the slice rules (ITS 12,5,16,4,3): P3's published
        # matrix row is (9, 7), which needs ITS 17; the component rules give
        # ITS 16 and therefore (8, 8) with the same completion time.
        trace = simulate(increasing_w, policy_from_name("proposed", increasing_w))
        assert quanta_by_pid(trace) == {
            1: [5],
            2: [3, 5, 4],
            3: [8, 8],
            4: [2, 3, 5, 8, 3],
            5: [2, 3, 5, 8, 5],
        }

    def test_random_quanta_matrix(self, random_w):
        # P4's fourth grant follows the growth rule (9 + ceil(9/2) = 14); the
        # published row prints 15 there, with identical completion either way.
        trace = simulate(random_w, policy_from_name("proposed", random_w))
        assert quanta_by_pid(trace) == {
            1: [6, 5],
            2: [27, 26],
            3: [8],
            4: [4, 6, 9, 14, 8],
            5: [7, 13],
        }

    def test_single_process(self):
        w = workload([4])
        trace = simulate(w, policy_from_name("proposed", w))
        assert quanta_by_pid(trace) == {1: [4]}


class TestPbdrr:
    def test_increasing_quanta_matrix(self, increasing_w):
        trace = simulate(increasing_w, policy_from_name("pbdrr", increasing_w))
        assert quanta_by_pid(trace) == {
            1: [5],
            2: [2, 3, 7],
            3: [3, 5, 8],
            4: [2, 3, 5, 8, 3],
            5: [2, 3, 5, 8, 5],
        }

    def test_increasing_boundaries(self, increasing_w):
        trace = simulate(increasing_w, policy_from_name("pbdrr", increasing_w))
        assert boundaries(trace) == [
            0, 5, 7, 10, 12, 14, 17, 22, 25, 28, 35, 43, 48, 53, 61, 69, 72, 77,
        ]

    def test_random_round_one(self, random_w):
        trace = simulate(random_w, policy_from_name("pbdrr", random_w))
        assert segment_shapes(trace)[:5] == [
            (1, 0, 2), (2, 2, 5), (3, 5, 13), (4, 13, 15), (5, 15, 20),
        ]

    def test_random_quanta_matrix(self, random_w):
        trace = simulate(random_w, policy_from_name("pbdrr", random_w))
        assert quanta_by_pid(trace) == {
            1: [2, 3, 6],
            2: [3, 5, 8, 12, 18, 7],
            3: [8],
            4: [2, 3, 5, 8, 12, 11],
            5: [5, 10, 5],
        }

    def test_keeps_submission_order_despite_unsorted_bursts(self, random_w):
        trace = simulate(random_w, policy_from_name("pbdrr", random_w))
        round_one = [s.pid for s in trace.segments if s.round == 1]
        assert round_one == [1, 2, 3, 4, 5]


class TestStaticItsRr:
    def test_increasing_full_trace(self, increasing_w):
        trace = simulate(increasing_w, policy_from_name("its-rr", increasing_w))
        assert boundaries(trace) == [
            0, 5, 9, 14, 18, 22, 26, 31, 35, 39, 43, 48,
            52, 56, 57, 61, 65, 69, 73, 74, 77,
        ]
        assert trace.completion == {1: 5, 2: 43, 3: 57, 4: 74, 5: 77}

    def test_increasing_metrics(self, increasing_w):
        from fractions import Fraction

        trace = simulate(increasing_w, policy_from_name("its-rr", increasing_w))
        summary = compute_metrics(trace, increasing_w)
        assert summary.avg_turnaround == Fraction(256, 5)  # 51.2
        assert summary.avg_waiting == Fraction(179, 5)     # 35.8
        assert summary.context_switches == 19

    def test_quantum_never_grows(self, random_w):
        trace = simulate(random_w, policy_from_name("its-rr", random_w))
        for pid, quanta in quanta_by_pid(trace).items():
            assert len(set(quanta)) == 1


class TestClassicRr:
    def test_alternating_unit_quantum(self):
        w = workload([3, 3])
        trace = simulate(w, policy_from_name("rr:1", w))
        assert segment_shapes(trace) == [
            (1, 0, 1), (2, 1, 2), (1, 2, 3), (2, 3, 4), (1, 4, 5), (2, 5, 6),
        ]
        assert trace.completion == {1: 5, 2: 6}

    def test_large_quantum_single_segment(self):
        w = workload([5])
        trace = simulate(w, policy_from_name("rr:100", w))
        assert len(trace.segments) == 1

    def test_degenerates_to_fcfs_at_exact_quantum(self):
        w = workload([4, 4])
        rr = simulate(w, policy_from_name("rr:4", w))
        fcfs = simulate(w, policy_from_name("fcfs", w))
        assert segment_shapes(rr) == segment_shapes(fcfs)

    def test_rejects_nonpositive_quantum(self):
        with pytest.raises(ValueError):
            policy_from_name("rr:0", workload([4]))

    @settings(max_examples=50, deadline=None)
    @given(w=workloads())
    def test_quantum_at_least_max_burst_is_fcfs(self, w):
        q = max(w.bursts)
        rr = simulate(w, policy_from_name(f"rr:{q}", w))
        fcfs = simulate(w, policy_from_name("fcfs", w))
        assert segment_shapes(rr) == segment_shapes(fcfs)


class TestSrtn:
    def test_sorted_prefix_sum_oracle(self, increasing_w):
        from fractions import Fraction

        trace = simulate(increasing_w, policy_from_name("srtn", increasing_w))
        assert [trace.completion[p] for p in (1, 2, 3, 4, 5)] == [5, 17, 33, 54, 77]
        summary = compute_metrics(trace, increasing_w)
        assert summary.avg_waiting == Fraction(109, 5)  # (0+5+17+33+54)/5 = 21.8

    def test_tie_breaks_by_pid(self):
        w = workload([2, 2])
        trace = simulate(w, policy_from_name("srtn", w))
        assert segment_shapes(trace) == [(1, 0, 2), (2, 2, 4)]

    @settings(max_examples=50, deadline=None)
    @given(w=workloads())
    def test_matches_sort_and_prefix_sum(self, w):
        # independent oracle: run bursts in ascending (burst, pid) order and
        # accumulate prefix sums
        trace = simulate(w, policy_from_name("srtn", w))
        clock = 0
        expected = {}
        for p in sorted(process_rows(w), key=lambda p: (p.burst, p.pid)):
            clock += p.burst
            expected[p.pid] = clock
        assert trace.completion == expected

    @settings(max_examples=40, deadline=None)
    @given(w=workloads())
    def test_minimal_average_waiting(self, w):
        names = ["proposed", "pbdrr", "its-rr", "rr:2", "fcfs", "srtn"]
        policies = [policy_from_name(name, w) for name in names]
        waits = {
            p.name: compute_metrics(simulate(w, p), w).avg_waiting for p in policies
        }
        assert waits["srtn"] == min(waits.values())


class TestFcfs:
    def test_prefix_sums(self):
        w = workload([5, 12])
        trace = simulate(w, policy_from_name("fcfs", w))
        assert trace.completion == {1: 5, 2: 17}

    @settings(max_examples=40, deadline=None)
    @given(w=workloads())
    def test_one_segment_per_process(self, w):
        trace = simulate(w, policy_from_name("fcfs", w))
        assert len(trace.segments) == len(w)
        assert compute_metrics(trace, w).context_switches == len(w) - 1


class TestOrderingContracts:
    # fixed ids, so that each case keeps the name it has in earlier test reports
    @pytest.mark.parametrize(
        "name", ["proposed", "pbdrr", "its-rr", "srtn", "fcfs", "rr:2"],
        ids=["proposed_policy", "pbdrr_policy", "static_its_rr_policy",
             "<lambda>0", "<lambda>1", "<lambda>2"],
    )
    @settings(max_examples=30, deadline=None)
    @given(w=workloads(max_n=6))
    def test_order_returns_permutation(self, name, w):
        # round 1 dispatches every process exactly once
        trace = simulate(w, policy_from_name(name, w))
        round_one = [s.pid for s in trace.segments if s.round == 1]
        assert sorted(round_one) == sorted(w.pids)

    def test_proposed_matches_fixed_order_variant_when_orders_agree(self):
        # when ascending-rbt order coincides with submission order in every
        # round, re-sorting is the only behavioral difference, so a
        # fixed-order twin fed the same slice data produces the same trace
        rng = random_module.Random(11)
        checked = 0
        for _ in range(200):
            n = rng.randint(1, 6)
            bursts = sorted(rng.randint(1, 60) for _ in range(n))
            w = workload(bursts, [rng.randint(1, 5) for _ in range(n)])
            proposed = policy_from_name("proposed", w)
            twin = SchedulingPolicy("twin", False, proposed.base, proposed.sc)
            trace = simulate(w, proposed)
            order_by_round = {}
            for seg in trace.segments:
                order_by_round.setdefault(seg.round, []).append(seg.pid)
            if all(pids == sorted(pids) for pids in order_by_round.values()):
                assert segment_shapes(trace) == segment_shapes(simulate(w, twin))
                checked += 1
        assert checked > 20


class TestPolicyTable:
    @settings(max_examples=60, deadline=None)
    @given(w=workloads(), static_ots=st.sampled_from([1, 4, 9]), q=st.integers(1, 70))
    def test_each_name_builds_its_row(self, w, static_ots, q):
        # the README's policy table: (SRTN order, base, SC) per name
        ranged = compute_components(w)
        static = compute_components(w, static_ots=static_ots)

        def by_pid(column):
            return dict(zip(w.pids, column))

        table = {
            "proposed": (True, by_pid(ranged.its), by_pid(ranged.sc)),
            "pbdrr": (False, by_pid(static.its), by_pid(static.sc)),
            "its-rr": (False, by_pid(static.its), None),
            f"rr:{q}": (False, dict.fromkeys(w.pids, q), None),
            "srtn": (True, by_pid(w.bursts), None),
            "fcfs": (False, by_pid(w.bursts), None),
        }
        for name, row in table.items():
            policy = policy_from_name(name, w, static_ots)
            assert (policy.name, policy.srtn_order, policy.base, policy.sc) == (name, *row)


class TestPolicyFromName:
    @pytest.mark.parametrize(
        "name,expected",
        [("proposed", "proposed"), ("pbdrr", "pbdrr"), ("its-rr", "its-rr"),
         ("rr:7", "rr:7"), ("srtn", "srtn"), ("FCFS", "fcfs")],
    )
    def test_valid_names(self, name, expected, increasing_w):
        assert policy_from_name(name, increasing_w).name == expected

    # the quantum has the integer syntax of a CSV field: no "+", "_" or non-ASCII digits
    @pytest.mark.parametrize("name", ["mlfq", "rr:x", "rr:", "", "rr:1_0", "rr:+3", "rr:\uff12"])
    def test_invalid_names(self, name, increasing_w):
        with pytest.raises(ValueError):
            policy_from_name(name, increasing_w)

    # checked in this order: a quantum is missing, then malformed, then below 1;
    # any other name is unknown
    @pytest.mark.parametrize("name,message", [
        ("rr", "policy 'rr' needs a quantum: use rr:<q>"),
        ("rr:", "policy 'rr' needs a quantum: use rr:<q>"),
        ("rr:x", "bad quantum in policy name 'rr:x'"),
        ("rr:1_0", "bad quantum in policy name 'rr:1_0'"),
        ("rr:+3", "bad quantum in policy name 'rr:+3'"),
        ("rr:２", "bad quantum in policy name 'rr:２'"),
        ("rr:7:3", "bad quantum in policy name 'rr:7:3'"),
        ("rr:0x", "bad quantum in policy name 'rr:0x'"),
        ("rr:0", "quantum must be >= 1, got 0"),
        ("rr:-3", "quantum must be >= 1, got -3"),
        ("mlfq", "unknown policy 'mlfq'; "
                 "expected one of proposed, pbdrr, its-rr, rr:<q>, srtn, fcfs"),
        ("", "unknown policy ''; "
             "expected one of proposed, pbdrr, its-rr, rr:<q>, srtn, fcfs"),
        ("proposed:3", "unknown policy 'proposed:3'; "
                       "expected one of proposed, pbdrr, its-rr, rr:<q>, srtn, fcfs"),
        # a long name shows the first 40 characters of its repr, then "…"
        pytest.param("rr:" + "9" * 700 + "x", "bad quantum in policy name 'rr:" + "9" * 36 + "…",
                     id="long-bad-quantum"),
        pytest.param("9" * 700 + "x", "unknown policy '" + "9" * 39 + "…; "
                     "expected one of proposed, pbdrr, its-rr, rr:<q>, srtn, fcfs",
                     id="long-unknown"),
    ])
    def test_error_text(self, name, message, increasing_w):
        with pytest.raises(ValueError) as exc:
            policy_from_name(name, increasing_w)
        assert str(exc.value) == message

    @pytest.mark.parametrize("name,expected", [
        (" FCFS ", "fcfs"), ("RR:05", "rr:5"), ("rr: 7", "rr:7"), ("Its-RR", "its-rr"),
    ])
    def test_normalised_names(self, name, expected, increasing_w):
        assert policy_from_name(name, increasing_w).name == expected

    # the one statement of which OTS each slice policy reads: the Range OTS
    # (None) for proposed, the static OTS for pbdrr and its-rr, none for the rest
    @pytest.mark.parametrize("name,calls", [
        ("proposed", [None]), ("pbdrr", [9]), ("its-rr", [9]),
        ("rr:3", []), ("srtn", []), ("fcfs", []),
    ])
    def test_components_source(self, name, calls, random_w):
        seen = []

        def record(w, static_ots):
            seen.append((w, static_ots))
            return compute_components(w, static_ots=static_ots)

        policy = policy_from_name(name, random_w, 9, components=record)
        assert seen == [(random_w, ots) for ots in calls]
        assert policy == policy_from_name(name, random_w, 9)
