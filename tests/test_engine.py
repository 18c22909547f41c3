import dataclasses
import random as random_module

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import scattered_workloads, workloads
from rrsim import (
    ScheduleTrace,
    SchedulingPolicy,
    Workload,
    compute_metrics,
    policy_from_name,
    simulate,
    workload,
)
from rrsim import engine
from rrsim.engine import growing_rounds
from rrsim.metrics import check_trace
from rrsim.report import SEGMENT_FIELDS, render_gantt, trace_to_dict
from step_oracle import step_simulate

ALL_POLICIES = ["proposed", "pbdrr", "its-rr", "rr:3", "srtn", "fcfs"]
# fixed ids, so that each case keeps the name it has in earlier test reports
ALL_POLICY_IDS = ["proposed_policy", "pbdrr_policy", "static_its_rr_policy",
                  "<lambda>0", "<lambda>1", "<lambda>2"]


class TestDynamicQuantum:
    @pytest.mark.parametrize("its, sc, burst, quanta", [
        pytest.param(17, 0, 16, [9, 7], id="round_one_half_its"),
        # the finish-early rule fires in round 1
        pytest.param(25, 1, 8, [8], id="round_one_full_its_when_sc"),
        # 3, then 3 + ceil(1.5) = 5 with 3 left over
        pytest.param(6, 0, 11, [3, 5, 3], id="growth_sc_zero"),
        # round 3: base 8 leaves 4 - 8 <= 2, so the grant is the remaining 4
        pytest.param(6, 0, 12, [3, 5, 4], id="finish_early_rule"),
        # 2*7 = 14 leaves 13 - 14 <= 2: the remaining 13
        pytest.param(7, 1, 20, [7, 13], id="growth_sc_one_caps_to_rbt"),
        pytest.param(1, 0, 1, [1], id="minimal_process"),
    ])
    def test_segment_quanta(self, its, sc, burst, quanta):
        policy = SchedulingPolicy("x", False, (1,), (its,), (sc,))
        trace = simulate(workload([burst]), policy)
        assert [s.quantum for s in trace.segments] == quanta


class TestSegmentContract:
    def test_slotted_dataclass(self, random_w):
        trace = simulate(random_w, policy_from_name("proposed", random_w))
        last = trace.segments[-1]
        # slots are what makes a segment cheap to build; losing them fails here
        assert not hasattr(last, "__dict__")
        assert tuple(f.name for f in dataclasses.fields(last)) == SEGMENT_FIELDS
        assert dataclasses.replace(last) == last
        longer = dataclasses.replace(last, end=last.end + 1)
        changed = dataclasses.replace(trace, segments=trace.segments[:-1] + (longer,))
        assert changed != trace

    @pytest.mark.parametrize("name", ALL_POLICIES, ids=ALL_POLICY_IDS)
    def test_columns_read_as_a_sequence(self, illustration_w, name):
        policy = policy_from_name(name, illustration_w)
        trace = simulate(illustration_w, policy)
        segs = trace.segments
        rows = tuple(segs)
        assert ScheduleTrace(rows, trace.completion) == trace
        assert list(segs) == list(step_simulate(illustration_w, policy).segments)
        assert len(segs) == len(rows) == len(segs.pid) > 0
        for i in range(-len(segs), len(segs)):
            assert segs[i] == rows[i]
        for cut in (slice(None), slice(1, -1), slice(None, None, -2), slice(2, 2),
                    slice(-1, None), slice(len(rows) + 5)):
            assert segs[cut] == rows[cut]
        with pytest.raises(IndexError):
            segs[len(segs)]

    def test_column_order_is_segment_fields(self, random_w):
        trace = simulate(random_w, policy_from_name("proposed", random_w))
        segs = trace.segments
        assert tuple(f.name for f in dataclasses.fields(segs)) == SEGMENT_FIELDS
        assert segs.columns == tuple(getattr(segs, name) for name in SEGMENT_FIELDS)
        for i, seg in enumerate(segs):
            assert [getattr(seg, name) for name in SEGMENT_FIELDS] == [
                getattr(segs, name)[i] for name in SEGMENT_FIELDS
            ]
        exported = trace_to_dict(random_w, "proposed", trace)["segments"]
        assert exported == [dataclasses.asdict(seg) for seg in segs]

    def test_empty_trace_has_empty_columns(self):
        segs = ScheduleTrace((), {}).segments
        assert segs.columns == ([], [], [], [], [])
        assert len(segs) == 0 and tuple(segs) == () and segs[:] == ()

    @settings(max_examples=40, deadline=None)
    @given(w=workloads())
    def test_trace_rebuilt_from_segments_is_equal(self, w):
        for name in ALL_POLICIES:
            trace = simulate(w, policy_from_name(name, w))
            rebuilt = ScheduleTrace(tuple(trace.segments), trace.completion)
            assert rebuilt == trace
            assert compute_metrics(rebuilt, w) == compute_metrics(trace, w)


class TestSimulateGolden:
    def test_proposed_increasing_round_one(self, increasing_w):
        # hand-derived from the slice rules: ITS (12,5,16,4,3), all SC=0
        trace = simulate(increasing_w, policy_from_name("proposed", increasing_w))
        first = [(s.pid, s.start, s.end) for s in trace.segments[:5]]
        assert first == [
            (1, 0, 5), (2, 5, 8), (3, 8, 16), (4, 16, 18), (5, 18, 20),
        ]

    def test_proposed_increasing_completions(self, increasing_w):
        trace = simulate(increasing_w, policy_from_name("proposed", increasing_w))
        assert trace.completion == {1: 5, 2: 43, 3: 28, 4: 72, 5: 77}

    def test_proposed_random_prefix(self, random_w):
        trace = simulate(random_w, policy_from_name("proposed", random_w))
        first = [(s.pid, s.start, s.end) for s in trace.segments[:5]]
        assert first == [
            (3, 0, 8), (1, 8, 14), (5, 14, 21), (4, 21, 25), (2, 25, 52),
        ]

    def test_proposed_random_completions(self, random_w):
        trace = simulate(random_w, policy_from_name("proposed", random_w))
        assert trace.completion == {3: 8, 1: 57, 5: 70, 2: 96, 4: 133}

    @pytest.mark.parametrize("name", ALL_POLICIES, ids=ALL_POLICY_IDS)
    def test_single_process_runs_back_to_back(self, name):
        # quantum-limited policies may need several grants, but with no
        # competition they coalesce into one merged run ending at the burst
        w = workload([9], [2])
        trace = simulate(w, policy_from_name(name, w))
        assert render_gantt(trace) == "| P1 |\n0    9"
        assert trace.completion == {1: 9}

    @pytest.mark.parametrize("name", ["srtn", "fcfs"], ids=["<lambda>0", "<lambda>1"])
    def test_single_process_single_segment_run_to_completion(self, name):
        w = workload([9], [2])
        trace = simulate(w, policy_from_name(name, w))
        assert len(trace.segments) == 1
        seg = trace.segments[0]
        assert (seg.pid, seg.start, seg.end) == (1, 0, 9)


class TestPolicyBinding:
    @pytest.mark.parametrize("name", ALL_POLICIES, ids=ALL_POLICY_IDS)
    def test_policy_of_another_workload(self, name):
        with pytest.raises(ValueError, match=r"for another workload \(P2\)"):
            simulate(workload([3, 4, 5]), policy_from_name(name, workload([3])))
        with pytest.raises(ValueError, match=r"for another workload \(P3\)"):
            simulate(workload([3, 4]), policy_from_name(name, workload([3, 4, 5])))

    @pytest.mark.parametrize("name", ALL_POLICIES, ids=ALL_POLICY_IDS)
    def test_policy_of_the_same_pids_in_another_order(self, name):
        # the columns follow the policy's pid order, so a policy built for a
        # reordering would give each pid another pid's quantum: it is refused,
        # naming the first pid out of place
        w = Workload((4, 7, 2), (9, 3, 6), (1, 2, 1))
        reordered = Workload((4, 2, 7), (6, 9, 3), (2, 1, 1))
        with pytest.raises(ValueError, match=r"'[^']+' is for another workload \(P7\)$"):
            simulate(w, policy_from_name(name, reordered))

    def test_sc_table_of_another_workload(self):
        # a short column names the first pid it lacks
        policy = SchedulingPolicy("odd", False, (1, 2), (4, 4), (0,))
        with pytest.raises(ValueError, match=r"for another workload \(P2\)"):
            simulate(workload([5, 5]), policy)

    @pytest.mark.parametrize("base, sc, text", [
        ((4,), None, "(P2)"),
        ((4, 4, 4), None, "(3 entries for 2 pids)"),
        ((4, 4), (0, 0, 1), "(3 entries for 2 pids)"),
    ], ids=["short_base", "long_base", "long_sc"])
    def test_column_of_another_length(self, base, sc, text):
        policy = SchedulingPolicy("odd", False, (1, 2), base, sc)
        with pytest.raises(ValueError) as exc:
            simulate(workload([5, 5]), policy)
        assert str(exc.value) == f"policy 'odd' is for another workload {text}"

    def test_base_below_one(self):
        # a zero quantum would never finish a process; it is refused before
        # the first grant
        policy = SchedulingPolicy("zero", False, (1, 2), (3, 0))
        with pytest.raises(ValueError, match="quantum 0 for P2"):
            simulate(workload([4, 4]), policy)


@st.composite
def fixed_quanta(draw, srtn_order):
    """(workload, policy) with a fixed quantum per pid, from 1 to above the
    longest burst, in the given dispatch order."""
    w = draw(scattered_workloads(max_n=8, max_burst=20))
    quanta = st.integers(1, max(w.bursts) + 2)
    base = draw(st.lists(quanta, min_size=len(w.pids), max_size=len(w.pids)))
    return w, SchedulingPolicy("fixed", srtn_order, w.pids, tuple(base))


def _fixed(pids, bursts, quanta, srtn_order):
    w = Workload(pids, bursts, [1] * len(pids))
    return w, SchedulingPolicy("fixed", srtn_order, w.pids, tuple(quanta))


def assert_fixed_quanta_trace(w, policy):
    """The run matches the step oracle, with ⌈b/q⌉ grants a pid."""
    trace = simulate(w, policy)
    assert trace == step_simulate(w, policy)
    grants = [-(-b // q) for b, q in zip(w.bursts, policy.base)]
    assert len(trace.segments.pid) == sum(grants)
    assert trace.segments.round[-1] == max(grants)
    assert list(trace.completion.values()) == sorted(trace.completion.values())


def assert_many_finish_in_one_round(srtn_order):
    # more finishers in round 1 than are deleted one by one
    rng = random_module.Random(3)
    pids = rng.sample(range(1, 1000), 320)
    bursts = [rng.choice([1] * 9 + [2, 7]) for _ in pids]
    w, policy = _fixed(pids, bursts, [rng.choice([1, 2]) for _ in pids], srtn_order)
    trace = simulate(w, policy)
    assert trace == step_simulate(w, policy)
    last_round = dict(zip(trace.segments.pid, trace.segments.round))
    assert engine._DELETE_MAX < sum(r == 1 for r in last_round.values()) < len(pids)


class TestSrtnOrder:
    """Each round, SRTN order is by remaining burst, ties by pid, whatever
    order the processes were submitted in.  The round loop is the one path
    that dispatches in SRTN order, with a growing quantum (``proposed``) or a
    fixed one (``srtn``, and fixed-quantum policies built by hand)."""

    @pytest.mark.parametrize("name", ["proposed", "srtn"],
                             ids=["proposed_policy", "srtn_policy"])
    def test_ties_go_by_pid(self, name):
        w = Workload((7, 2, 9, 4, 1), (6, 6, 3, 6, 3), (1, 2, 1, 1, 3))
        policy = policy_from_name(name, w)
        trace = simulate(w, policy)
        assert trace == step_simulate(w, policy)
        assert trace.segments.pid[:5] == [1, 9, 2, 4, 7]

    @pytest.mark.parametrize("name", ["proposed", "srtn"],
                             ids=["proposed_policy", "srtn_policy"])
    @settings(max_examples=40, deadline=None)
    @given(w=scattered_workloads(max_burst=4))  # bursts of 1..4 tie often
    # descending pids that tie on remaining burst in every round
    @example(w=Workload((5, 4, 3, 2, 1), (6, 6, 6, 6, 6), (1, 1, 1, 1, 1)))
    def test_matches_step_oracle(self, name, w):
        policy = policy_from_name(name, w)
        assert simulate(w, policy) == step_simulate(w, policy)

    @settings(max_examples=40, deadline=None)
    @given(case=fixed_quanta(srtn_order=True))
    @example(case=_fixed((5, 8, 2), (2, 5, 12), (1, 1, 6), True))
    # descending pids that tie on remaining burst in every round
    @example(case=_fixed((5, 4, 3, 2, 1), (6, 6, 6, 6, 6), (2, 2, 2, 2, 2), True))
    # every pid finishes in round 1
    @example(case=_fixed((4, 60, 2), (3, 9, 3), (3, 20, 5), True))
    def test_fixed_quanta_match_step_oracle(self, case):
        assert_fixed_quanta_trace(*case)

    def test_many_finish_in_one_round(self):
        assert_many_finish_in_one_round(srtn_order=True)

    def test_fixed_quanta_scale_with_grants(self):
        # 4000 pids that finish in round 1 and one that runs 8000 rounds: the
        # round loop visits each live pid once a round, 12000 grants in all
        n = 4000
        w, policy = _fixed([1, *range(n + 1, 1, -1)], [2 * n] + [1] * n, [1] * (n + 1), True)
        trace = simulate(w, policy)
        assert len(trace.segments) == 3 * n
        assert trace.segments.round[-1] == 2 * n
        assert list(trace.completion.items()) == [
            *((pid, pid - 1) for pid in range(2, n + 2)), (1, 3 * n)]


class TestFixedQuantaLayout:
    """A fixed quantum in submission order is laid out from each pid's grant
    count ⌈b/q⌉ when some pid gets two or more grants; a run of one grant a
    pid (``fcfs``, or a quantum that covers every burst) goes to the round
    loop.  ``simulate`` refuses a fixed-quantum run of more than
    ``MAX_SEGMENTS`` grants, in either order, before it builds a column."""

    @settings(max_examples=80, deadline=None)
    @given(case=fixed_quanta(srtn_order=False))
    # round 2's finishers are the first and the last of its live list
    @example(case=_fixed((9, 3, 7, 1), (2, 3, 3, 2), (1, 1, 1, 1), False))
    # every pid finishes in round 1: one grant a pid, so the round loop runs it
    @example(case=_fixed((4, 60, 2), (3, 9, 3), (3, 20, 5), False))
    def test_matches_step_oracle(self, case):
        assert_fixed_quanta_trace(*case)

    def test_many_finish_in_one_round(self):
        assert_many_finish_in_one_round(srtn_order=False)

    def test_many_finish_in_the_last_round(self):
        # 20 pids leave in round 1 one by one, then 300 in round 2, the last
        # stretch, by the copying pass
        rng = random_module.Random(5)
        pids = rng.sample(range(1, 1000), 320)
        bursts = rng.sample([2] * 300 + [1] * 20, 320)
        w, policy = _fixed(pids, bursts, [1] * 320, False)
        trace = simulate(w, policy)
        assert trace == step_simulate(w, policy)
        assert trace.segments.round.count(2) == 300 > engine._DELETE_MAX

    def test_fcfs_many_pids(self):
        # one round, in submission order, that more than _DELETE_MAX pids leave
        rng = random_module.Random(7)
        pids = rng.sample(range(1, 1000), 300)
        w = Workload(pids, [rng.randint(1, 50) for _ in pids], [1] * 300)
        policy = policy_from_name("fcfs", w)
        trace = simulate(w, policy)
        assert trace == step_simulate(w, policy)
        assert trace.segments.pid == pids and set(trace.segments.round) == {1}

    @pytest.mark.parametrize("name, laid_out", [
        ("fcfs", False), ("rr:20", False), ("rr:19", True), ("rr:1", True)])
    def test_one_grant_runs_take_the_round_loop(self, monkeypatch, name, laid_out):
        def layout(*args):
            raise AssertionError("laid out")
        w = workload([3, 20, 7])
        policy = policy_from_name(name, w)
        expected = simulate(w, policy)
        monkeypatch.setattr(engine, "_fixed_quanta", layout)
        if laid_out:
            with pytest.raises(AssertionError, match="laid out"):
                simulate(w, policy)
        else:
            assert simulate(w, policy) == expected == step_simulate(w, policy)

    @pytest.mark.parametrize("srtn_order", [False, True])
    def test_refuses_more_than_max_segments(self, monkeypatch, srtn_order):
        monkeypatch.setattr(engine, "MAX_SEGMENTS", 5)
        rr1 = lambda w: dataclasses.replace(policy_from_name("rr:1", w), srtn_order=srtn_order)
        w = workload([3, 2])
        assert len(simulate(w, rr1(w)).segments.pid) == 5
        w = workload([3, 3])
        with pytest.raises(ValueError, match="policy 'rr:1' needs 6 grants, over the limit of 5"):
            simulate(w, rr1(w))

    def test_grant_count_is_checked_before_the_run(self):
        w = workload([10**18])
        with pytest.raises(ValueError, match=f"needs {10**18} grants, over the limit"):
            simulate(w, policy_from_name("rr:1", w))


def _least_power(burst):
    """⌈log₁.₅ burst⌉: the least t with 1.5^t >= burst."""
    t = 0
    while 3**t < burst * 2**t:
        t += 1
    return t


class TestGrowingRounds:
    """A growing quantum gives a pid at most ⌈log₁.₅ b⌉ + 2 grants."""

    @settings(max_examples=60, deadline=None)
    @given(burst=st.integers(1, 18).flatmap(lambda k: st.sampled_from([10**k, 10**k - 1]))
           | st.integers(1, 3000),
           its=st.integers(1, 5), sc=st.sampled_from([0, 1]))
    def test_bounds_the_grants(self, burst, its, sc):
        assert growing_rounds(burst) == _least_power(burst) + 2
        trace = simulate(workload([burst]), SchedulingPolicy("x", False, (1,), (its,), (sc,)))
        assert len(trace.segments.pid) <= growing_rounds(burst)

    def test_a_process_live_past_the_bound_raises(self, monkeypatch):
        monkeypatch.setattr(engine, "growing_rounds", lambda burst: 1)
        w = workload([40, 3])
        with pytest.raises(RuntimeError, match=r"'pbdrr': P1 is live after round 1"):
            simulate(w, policy_from_name("pbdrr", w))


class TestReadyList:
    """``simulate`` rebuilds the ready list only after a round in which some
    process finished.  Each workload has, under its policy, two rounds running
    in which no process finishes, a round in which two or more finish, and an
    earlier round whose last grant finishes its process alone."""

    @pytest.mark.parametrize("name, bursts, priorities", [
        ("rr:1", [4, 4, 1], [1, 3, 2]),
        ("rr:3", [13, 1, 1, 4], [2, 1, 2, 2]),
        ("its-rr", [1, 17, 1, 9], [1, 3, 1, 1]),
        ("proposed", [23, 23, 24], [3, 3, 1]),  # SRTN order
    ], ids=["rr_1", "rr_3", "its_rr", "proposed"])
    def test_matches_step_oracle(self, name, bursts, priorities):
        w = workload(bursts, priorities)
        policy = policy_from_name(name, w)
        trace = simulate(w, policy)
        assert trace == step_simulate(w, policy)
        rounds, pids = trace.segments.round, trace.segments.pid
        last_grant = {pid: i for i, pid in enumerate(pids)}
        finishers = {r: [pid for pid, i in last_grant.items() if rounds[i] == r]
                     for r in range(1, rounds[-1] + 1)}
        assert any(not finishers[r] and not finishers[r + 1] for r in range(1, rounds[-1]))
        assert any(len(done) >= 2 for done in finishers.values())
        round_end = {r: i for i, r in enumerate(rounds)}  # each round's last grant
        assert any(finishers[r] == [pids[i]] for r, i in round_end.items() if r < rounds[-1])


def assert_trace_invariants(w, trace):
    check_trace(trace, w)
    # one grant per pid per round
    assert len(set(zip(trace.segments.round, trace.segments.pid))) == len(trace.segments)
    # each live process runs at least one unit a round
    assert trace.segments.round[-1] <= max(w.bursts)


class TestSimulateInvariants:
    @pytest.mark.parametrize("name", ALL_POLICIES, ids=ALL_POLICY_IDS)
    def test_decreasing_dataset(self, decreasing_w, name):
        # no published per-process table exists for this dataset; it is
        # covered by the structural invariants only
        trace = simulate(decreasing_w, policy_from_name(name, decreasing_w))
        assert_trace_invariants(decreasing_w, trace)

    @pytest.mark.parametrize("name", ALL_POLICIES, ids=ALL_POLICY_IDS)
    @settings(max_examples=60, deadline=None)
    @given(w=workloads())
    def test_invariants_hold(self, name, w):
        trace = simulate(w, policy_from_name(name, w))
        assert_trace_invariants(w, trace)

    @given(workloads())
    @settings(max_examples=40, deadline=None)
    def test_determinism(self, w):
        policy_a = policy_from_name("proposed", w)
        policy_b = policy_from_name("proposed", w)
        assert simulate(w, policy_a) == simulate(w, policy_b)

    def test_quantum_growth_law(self):
        # SC=0 quanta grow by half (rounded up); SC=1 quanta double; the only
        # exception is the process's final grant, where the finish-early rule
        # may substitute the remaining burst.
        rng = random_module.Random(7)
        for _ in range(50):
            n = rng.randint(2, 8)
            w = workload(
                [rng.randint(1, 120) for _ in range(n)],
                [rng.randint(1, 6) for _ in range(n)],
            )
            from rrsim import compute_components

            sc = compute_components(w).sc  # pids 1..n, so P<pid> has rank pid - 1
            trace = simulate(w, policy_from_name("proposed", w))
            per_pid = {}
            for seg in trace.segments:
                per_pid.setdefault(seg.pid, []).append(seg)
            for pid, segs in per_pid.items():
                for prev, cur in zip(segs, segs[1:]):
                    expected = (
                        2 * prev.quantum
                        if sc[pid - 1]
                        else prev.quantum + (prev.quantum + 1) // 2
                    )
                    if cur is segs[-1]:
                        assert cur.quantum in (expected, cur.end - cur.start)
                    else:
                        assert cur.quantum == expected
