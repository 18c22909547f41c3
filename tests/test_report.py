import argparse
import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import gantt_reference
from conftest import process_rows, scattered_workloads, valid_traces, workloads
from rrsim import (
    DEFAULT_STATIC_OTS,
    ScheduleTrace,
    Segments,
    Workload,
    compute_components,
    compute_metrics,
    format_average,
    generate_workload,
    policy_from_name,
    serialize_workload,
    simulate,
    workload,
)
from rrsim import engine, report
from rrsim.metrics import MetricsError, check_trace
from rrsim.report import (
    build_parser,
    metrics_to_dict,
    render_components_table,
    render_gantt,
    render_metrics,
    run_cli,
    trace_from_dict,
    trace_to_dict,
)
from rrsim.timeslice import COMPONENT_FIELDS
from rrsim.workload import CSV_HEADER, MAX_DIGITS, MAX_GENERATED, ORDERS, quoted
from rrsim.schedulers import POLICY_NAMES

ROOT = Path(__file__).resolve().parent.parent
RANDOM_CSV = str(ROOT / "data" / "random.csv")
ILLUSTRATION_CSV = str(ROOT / "data" / "illustration.csv")


@pytest.fixture
def increasing_csv(tmp_path, increasing_w):
    path = tmp_path / "increasing.csv"
    path.write_text(serialize_workload(increasing_w))
    return str(path)


@pytest.fixture
def random_csv(tmp_path, random_w):
    path = tmp_path / "random.csv"
    path.write_text(serialize_workload(random_w))
    return str(path)


class TestGantt:
    def test_random_trace(self, random_w):
        trace = simulate(random_w, policy_from_name("proposed", random_w))
        labels, times = render_gantt(trace).splitlines()
        assert labels.split("|")[1:-1] == [
            " P3 ", " P1 ", " P5 ", " P4 ", " P2 ", " P1 ", " P5 ", " P2 ", " P4 ",
        ]
        assert times.split() == ["0", "8", "14", "21", "25", "52", "57", "70", "96", "133"]

    def test_single_process(self):
        w = workload([7])
        labels, times = render_gantt(simulate(w, policy_from_name("fcfs", w))).splitlines()
        assert labels == "| P1 |"
        assert times.split() == ["0", "7"]

    def test_alternating_rr(self):
        w = workload([3, 3])
        labels, _ = render_gantt(simulate(w, policy_from_name("rr:1", w))).splitlines()
        assert labels.split("|")[1:-1] == [" P1 ", " P2 "] * 3

    def test_boundaries_are_merged_segment_edges(self, increasing_w):
        trace = simulate(increasing_w, policy_from_name("proposed", increasing_w))
        _, times = render_gantt(trace).splitlines()
        assert times.split()[-1] == str(sum(increasing_w.bursts))


# every policy, with rr:<q> at q = 1 (one cell per unit) and q = 3
_EVERY_POLICY = [n for n in POLICY_NAMES if n != "rr:<q>"] + ["rr:1", "rr:3"]


# a pid of 1 to 7 digits, each length as likely as any other
_multi_digit_pids = st.integers(0, 6).flatmap(lambda d: st.integers(10**d, 10 ** (d + 1) - 1))


@st.composite
def _banded_workloads(draw):
    """Workloads whose makespan, 200 to 15 000, crosses three to five digit
    bands of the boundary times, with pids of 1 to 7 digits in no order."""
    n = draw(st.integers(2, 5))
    pids = draw(st.lists(_multi_digit_pids, min_size=n, max_size=n, unique=True))
    bursts = draw(st.lists(st.integers(100, 3000), min_size=n, max_size=n))
    priorities = draw(st.lists(st.integers(1, 8), min_size=n, max_size=n))
    return Workload(pids, bursts, priorities)


class TestGanttReference:
    """``render_gantt`` against the cell-by-cell layout of
    ``tests/gantt_reference.py``."""

    @staticmethod
    def check(trace):
        segs = trace.segments
        assert render_gantt(trace) == gantt_reference.render_gantt(
            zip(segs.pid, segs.start, segs.end))

    @pytest.mark.parametrize("name", _EVERY_POLICY)
    @settings(max_examples=20, deadline=None)
    @given(w=workloads())
    def test_simulated(self, name, w):
        self.check(simulate(w, policy_from_name(name, w)))

    @pytest.mark.parametrize("name", _EVERY_POLICY)
    @settings(max_examples=10, deadline=None)
    @given(w=_banded_workloads())
    def test_simulated_across_digit_bands(self, name, w):
        trace = simulate(w, policy_from_name(name, w))
        assert trace.segments.end[-1] >= 200
        self.check(trace)

    # any trace that check_trace accepts, with quanta and runs in no policy's
    # pattern, back-to-back runs of one pid, a first run of any length, and
    # times that cross three or more digit bands
    @settings(max_examples=50, deadline=None)
    @given(case=valid_traces(_banded_workloads(), max_quantum=3000))
    @example(case=(Workload((7, 1234567), (10**9 - 1, 1), (1, 1)), ScheduleTrace(
        Segments.from_rows([(7, 0, 3, 1, 3), (1234567, 3, 4, 1, 1), (7, 4, 10**9, 2, 10**9)]),
        {1234567: 4, 7: 10**9})))
    def test_hand_built(self, case):
        w, trace = case
        check_trace(trace, w)
        assert trace.segments.end[-1] >= 100
        self.check(trace)


class TestTraceJson:
    def test_round_trip(self, random_w):
        trace = simulate(random_w, policy_from_name("proposed", random_w))
        data = trace_to_dict(random_w, "proposed", trace)
        w2, name, trace2 = trace_from_dict(json.loads(json.dumps(data)))
        assert (w2, name, trace2) == (random_w, "proposed", trace)

    @settings(max_examples=30, deadline=None)
    @given(w=workloads(max_n=6))
    def test_round_trip_any_workload(self, w):
        trace = simulate(w, policy_from_name("proposed", w))
        w2, _, trace2 = trace_from_dict(trace_to_dict(w, "proposed", trace))
        assert trace2 == trace
        assert w2.bursts == w.bursts

    @settings(max_examples=30, deadline=None)
    @given(w=workloads(max_n=6), data=st.data())
    def test_round_trip_keeps_noncontiguous_pids(self, w, data):
        pids = data.draw(st.lists(
            st.integers(1, 10**6), min_size=len(w), max_size=len(w), unique=True
        ))
        w = Workload(pids, w.bursts, w.priorities)
        trace = simulate(w, policy_from_name("proposed", w))
        w2, _, trace2 = trace_from_dict(
            json.loads(json.dumps(trace_to_dict(w, "proposed", trace)))
        )
        assert w2 == w
        assert trace2 == trace

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda d: d["completion"].update({"2": 99}), "completion of P2 is 99"),
            (lambda d: d["segments"][1].update(start=d["segments"][1]["start"] + 1),
             "expected"),
            (lambda d: d["segments"][0].update(quantum=d["segments"][0]["quantum"] - 1),
             "units"),
            (lambda d: d["segments"][0].update(end="3"), "segment field 'end' is '3'"),
            (lambda d: d["segments"][0].update(end=float(d["segments"][0]["end"])),
             "segment field 'end' is 8.0"),
            (lambda d: d["segments"][0].update(round=True), "segment field 'round' is True"),
            (lambda d: d["segments"][0].pop("quantum"), "segment field 'quantum' is missing"),
            (lambda d: d["workload"][0].update(burst="6"), "workload field 'burst' is '6'"),
            (lambda d: d["workload"][0].pop("priority"), "workload field 'priority' is missing"),
            (lambda d: d["completion"].update({"3": 8.0}), "completion field '3' is 8.0"),
            (lambda d: d.pop("segments"), "trace field 'segments' is missing"),
            (lambda d: d.pop("workload"), "trace field 'workload' is missing"),
            (lambda d: d.pop("completion"), "trace field 'completion' is missing"),
            (lambda d: d.pop("policy"), "trace field 'policy' is missing"),
            (lambda d: d["segments"].__setitem__(0, list(d["segments"][0].values())),
             "segment row is"),
            (lambda d: d["workload"].__setitem__(0, list(d["workload"][0].values())),
             "workload row is"),
            (lambda d: d.update(completion=list(d["completion"].values())),
             "trace field 'completion' is"),
            (lambda d: d["completion"].update(P1=d["completion"].pop("1")),
             "completion key 'P1' is not a process id"),
            (lambda d: d.update(policy=5), "trace field 'policy' is 5"),
            (lambda d: d["segments"][0].update(round=7), "round of P3 is 7, expected 1"),
            (lambda d: next(s for s in d["segments"] if s["round"] == 2).update(round=1),
             "is 1, expected 2"),
            (lambda d: d["workload"][0].update(burst=0),
             r"workload row 0: non-positive burst 0 \(P1\)"),
            (lambda d: d["workload"][1].update(id=0),
             "workload row 1: process id must be a positive integer, got 0"),
            (lambda d: d["workload"][2].update(priority=0),
             r"workload row 2: priority must be >= 1, got 0 \(P3\)"),
            (lambda d: d["workload"][1].update(id=1),
             "trace field 'workload': duplicate process id 1"),
            (lambda d: d["workload"].clear(),
             "trace field 'workload': workload must contain at least one process"),
        ],
        ids=["completion", "gap", "past-quantum", "string-end", "float-end", "bool-round",
             "missing-quantum", "string-burst", "missing-priority", "float-completion",
             "missing-segments", "missing-workload", "missing-completion", "missing-policy",
             "list-segment", "list-workload-row", "list-completion", "non-pid-key",
             "int-policy", "first-round-7", "second-visit-round-1", "zero-burst", "zero-id",
             "zero-priority", "duplicate-id", "empty-workload"],
    )
    def test_load_rejects_an_invalid_trace(self, random_w, edit, message):
        trace = simulate(random_w, policy_from_name("proposed", random_w))
        data = json.loads(json.dumps(trace_to_dict(random_w, "proposed", trace)))
        edit(data)
        with pytest.raises(MetricsError, match=message):
            trace_from_dict(data)

    def test_load_rejects_a_round_after_a_later_round(self):
        w = workload([2, 1])
        segments = [{"pid": pid, "start": start, "end": start + 1, "round": rnd, "quantum": 1}
                    for pid, start, rnd in [(1, 0, 1), (1, 1, 2), (2, 2, 1)]]
        data = {**trace_to_dict(w, "rr:1", simulate(w, policy_from_name("rr:1", w))),
                "segments": segments, "completion": {"1": 2, "2": 3}}
        with pytest.raises(MetricsError, match="P2 segment of round 1 runs after round 2"):
            trace_from_dict(data)

    def test_load_rejects_a_non_object(self):
        with pytest.raises(MetricsError, match="trace is a list, expected an object"):
            trace_from_dict([])

    def test_completion_map_golden(self, random_w):
        trace = simulate(random_w, policy_from_name("proposed", random_w))
        data = trace_to_dict(random_w, "proposed", trace)
        assert data["completion"] == {"1": 57, "2": 96, "3": 8, "4": 133, "5": 70}


class TestCli:
    def test_compare_reproduces_reference_row(self, increasing_csv, capsys):
        rc = run_cli([
            "compare", "--workload", increasing_csv,
            "--policies", "its-rr,pbdrr,proposed",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        row = [line for line in out.splitlines() if line.startswith("its-rr")][0]
        assert row.split() == ["its-rr", "51.2", "35.8", "19"]
        # output rows follow the user's policy list order
        names = [line.split()[0] for line in out.splitlines()[2:]]
        assert names == ["its-rr", "pbdrr", "proposed"]

    def test_simulate_single_process(self, tmp_path, capsys):
        path = tmp_path / "single.csv"
        path.write_text("id,burst,priority\n1,6,1\n")
        rc = run_cli(["simulate", "--workload", str(path), "--policy", "fcfs"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "| P1 |" in out
        assert "context switches: 0" in out

    def test_simulate_json_export(self, random_csv, tmp_path, capsys):
        out_path = tmp_path / "trace.json"
        rc = run_cli([
            "simulate", "--workload", random_csv, "--policy", "proposed",
            "--json", str(out_path),
        ])
        assert rc == 0
        data = json.loads(out_path.read_text())
        assert data["completion"]["4"] == 133
        assert data["metrics"]["avg_turnaround"] == {
            "display": "72.8", "num": 364, "den": 5,
        }

    @pytest.mark.parametrize("command", ["simulate", "compare", "generate", "components"])
    def test_failed_export_prints_nothing(self, command, tmp_path, capsys):
        # --json is written before --csv fails; the output waits for both
        good = tmp_path / "ok.json"
        rc = run_cli([command, *_VALID_ARGV[command],
                      "--json", str(good), "--csv", str(tmp_path / "no" / "t.csv")])
        out, err = capsys.readouterr()
        assert rc == 1 and out == ""
        assert err.startswith("error: [Errno 2] No such file or directory: ")
        assert err.count("\n") == 1
        assert good.is_file()

    def test_compare_csv_export(self, increasing_csv, tmp_path, capsys):
        out_path = tmp_path / "rows.csv"
        rc = run_cli([
            "compare", "--workload", increasing_csv,
            "--policies", "its-rr,fcfs", "--csv", str(out_path),
        ])
        assert rc == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "policy,avg_tat,avg_wt,context_switches"
        assert lines[1] == "its-rr,51.2,35.8,19"

    def test_generate_round_trips(self, capsys):
        rc = run_cli([
            "generate", "--n", "6", "--order", "increasing",
            "--burst-range", "1:30", "--priority-range", "1:4", "--seed", "9",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        from rrsim import parse_workload

        w = parse_workload(out)
        assert len(w) == 6
        assert list(w.bursts) == sorted(w.bursts)

    def test_components_table(self, random_csv, capsys):
        rc = run_cli(["components", "--workload", random_csv])
        out = capsys.readouterr().out
        assert rc == 0
        lines = {line.split()[0]: line.split() for line in out.splitlines()[2:7]}
        # P2 row: burst 53, priority 1, OTS 31, PC 1, SC 0, CSC 21, ITS 53
        assert lines["P2"] == ["P2", "53", "1", "31", "1", "0", "21", "53"]

    def test_components_paper_notes_on_increasing(self, increasing_csv, capsys):
        rc = run_cli([
            "components", "--workload", increasing_csv, "--paper-notes",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        # the published table prints CSC 2 / ITS 17 for P3; the rules give 1 / 16
        assert "note: P3 CSC: published value 2" in out
        assert "note: P3 ITS: published value 17" in out

    def test_components_paper_notes_silent_when_all_match(self, random_csv, capsys):
        rc = run_cli(["components", "--workload", random_csv, "--paper-notes"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "note:" not in out

    def test_simulate_paper_notes_random(self, random_csv, capsys):
        rc = run_cli([
            "simulate", "--workload", random_csv, "--policy", "proposed",
            "--paper-notes",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "note: P4 round quanta: published (4, 6, 9, 15, 7)" in out

    def test_rr_quantum_flag(self, increasing_csv, capsys):
        # rr:<q> is the one spelling of a fixed quantum
        rc = run_cli([
            "simulate", "--workload", increasing_csv,
            "--policy", "rr", "--quantum", "4",
        ])
        assert rc == 2
        assert "unrecognized arguments: --quantum 4" in capsys.readouterr().err

    def test_unknown_policy_fails(self, increasing_csv, capsys):
        rc = run_cli(["simulate", "--workload", increasing_csv, "--policy", "mlfq"])
        assert rc == 1
        assert "unknown policy" in capsys.readouterr().err

    def test_missing_workload_file(self, capsys):
        rc = run_cli(["simulate", "--workload", "/nope.csv", "--policy", "fcfs"])
        assert rc == 1
        assert "cannot read" in capsys.readouterr().err

    def test_malformed_csv(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("id,burst,priority\n1,0,1\n")
        rc = run_cli(["simulate", "--workload", str(path), "--policy", "fcfs"])
        assert rc == 1
        assert "non-positive burst" in capsys.readouterr().err

    def test_static_ots_zero_is_an_error_line(self, random_csv, capsys):
        rc = run_cli([
            "components", "--workload", random_csv, "--static-ots", "0",
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--policy", "proposed", "--static-ots", "0"],
            ["simulate", "--policy", "pbdrr", "--static-ots", "0"],
            ["compare", "--policies", "fcfs", "--static-ots", "-3"],
            ["components", "--static-ots", "0"],
        ],
        ids=["simulate-proposed", "simulate-pbdrr", "compare", "components"],
    )
    def test_static_ots_below_one_on_every_command(self, random_csv, capsys, argv):
        rc = run_cli(argv[:1] + ["--workload", random_csv] + argv[1:])
        assert rc == 1
        value = argv[-1]
        assert capsys.readouterr().err == f"error: static OTS must be >= 1, got {value}\n"

    def test_components_static_ots_selects_the_static_table(self, random_csv, capsys):
        rc = run_cli(["components", "--workload", random_csv, "--static-ots", "7"])
        assert rc == 0
        rows = capsys.readouterr().out.splitlines()[2:7]
        assert [row.split()[3] for row in rows] == ["7"] * 5

    def test_quantum_flag_is_unrecognized_with_any_policy(self, increasing_csv, capsys):
        rc = run_cli([
            "simulate", "--workload", increasing_csv,
            "--policy", "fcfs", "--quantum", "3",
        ])
        assert rc == 2
        assert "unrecognized arguments: --quantum 3" in capsys.readouterr().err

    def test_non_utf8_workload(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"id,burst,priority\n1,4,1\xff\n")
        rc = run_cli(["simulate", "--workload", str(path), "--policy", "fcfs"])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"cannot read workload file {quoted(str(path))}: 'utf-8' codec" in err

    def test_utf8_bom_header(self, tmp_path, capsys):
        path = tmp_path / "excel.csv"
        path.write_bytes(b"\xef\xbb\xbfid,burst,priority\r\n1,4,1\r\n2,3,2\r\n")
        rc = run_cli(["simulate", "--workload", str(path), "--policy", "fcfs"])
        assert rc == 0
        assert "| P1 | P2 |" in capsys.readouterr().out

    def test_generate_bad_range_keeps_its_message(self, capsys):
        rc = run_cli(["generate", "--n", "3", "--order", "random", "--burst-range", "1-5"])
        assert rc == 2
        assert "--burst-range: bad range '1-5'; expected lo:hi" in capsys.readouterr().err
        rc = run_cli(["generate", "--n", "3", "--order", "random", "--burst-range", "1:2:3"])
        assert rc == 2
        assert "--burst-range: bad range '1:2:3'; expected lo:hi" in capsys.readouterr().err

    def test_generate_refuses_too_many_processes(self, capsys):
        rc = run_cli(["generate", "--n", str(MAX_GENERATED + 1), "--order", "random"])
        assert rc == 1
        assert capsys.readouterr() == ("", f"error: n must be <= {MAX_GENERATED},"
                                           f" got {MAX_GENERATED + 1}\n")

    @pytest.mark.parametrize("command, option", [("simulate", "--policy"),
                                                 ("compare", "--policies")])
    def test_refuses_too_many_grants(self, command, option, tmp_path, capsys):
        # 10^9 grants of one unit: refused from the count, before any is built
        path = tmp_path / "long.csv"
        path.write_text("id,burst,priority\n1,1000000000,1\n")
        rc = run_cli([command, "--workload", str(path), option, "rr:1"])
        assert rc == 1
        assert capsys.readouterr() == ("", "error: policy 'rr:1' needs 1000000000 grants,"
                                           f" over the limit of {engine.MAX_SEGMENTS}\n")

    def test_rr_without_quantum(self, increasing_csv, capsys):
        rc = run_cli(["simulate", "--workload", increasing_csv, "--policy", "rr"])
        assert rc == 1
        assert capsys.readouterr().err == "error: policy 'rr' needs a quantum: use rr:<q>\n"

    def test_compare_rr_without_quantum(self, increasing_csv, capsys):
        rc = run_cli(["compare", "--workload", increasing_csv, "--policies", "fcfs,rr"])
        assert rc == 1
        assert capsys.readouterr().err == "error: policy 'rr' needs a quantum: use rr:<q>\n"

    def test_generate_rejects_static_ots(self, capsys):
        rc = run_cli(["generate", "--n", "3", "--order", "random", "--static-ots", "3"])
        assert rc == 2
        assert "unrecognized arguments: --static-ots 3" in capsys.readouterr().err

    def test_compare_rejects_duplicate_policy(self, increasing_csv, tmp_path, capsys):
        out_path = tmp_path / "cmp.json"
        rc = run_cli([
            "compare", "--workload", increasing_csv,
            "--policies", "fcfs,FCFS,rr:2", "--json", str(out_path),
        ])
        assert rc == 1
        assert capsys.readouterr().err == "error: duplicate policy 'fcfs'\n"
        assert not out_path.exists()

    def test_compare_duplicate_is_not_simulated(self, capsys):
        layers = []

        def record(layer, call):
            layers.append(layer)
            return call()

        rc = run_cli(["compare", "--workload", RANDOM_CSV, "--policies", "rr:2,RR:2"],
                     span=record)
        assert rc == 1
        assert capsys.readouterr() == ("", "error: duplicate policy 'rr:2'\n")
        assert layers.count("engine.simulate") == 1

    def test_compare_json_has_one_trace_per_policy(
        self, increasing_csv, increasing_w, tmp_path, capsys
    ):
        out_path = tmp_path / "cmp.json"
        rc = run_cli([
            "compare", "--workload", increasing_csv,
            "--policies", "fcfs,rr:2", "--json", str(out_path),
        ])
        assert rc == 0
        data = json.loads(out_path.read_text())
        assert [m["policy"] for m in data["metrics"]] == ["fcfs", "rr:2"]
        trace = simulate(increasing_w, policy_from_name("rr:2", increasing_w))
        assert data["traces"]["rr:2"] == trace_to_dict(increasing_w, "rr:2", trace)["segments"]
        assert sorted(data["traces"]) == ["fcfs", "rr:2"]


# The writer's reference: each command's document as plain dicts and lists,
# stated field by field, and the bytes json.dump writes for it.


def _ref_workload(w):
    return [{"id": p.pid, "burst": p.burst, "priority": p.priority} for p in process_rows(w)]


def _ref_segments(trace):
    return [
        {"pid": s.pid, "start": s.start, "end": s.end, "round": s.round, "quantum": s.quantum}
        for s in trace.segments
    ]


def _ref_average(value):
    return {"display": format_average(value), "num": value.numerator, "den": value.denominator}


def _ref_metrics(name, summary):
    return {
        "policy": name,
        "avg_turnaround": _ref_average(summary.avg_turnaround),
        "avg_waiting": _ref_average(summary.avg_waiting),
        "context_switches": summary.context_switches,
        "per_process": {
            str(pid): {"turnaround": tat, "waiting": wt, "response": rt}
            for pid, tat, wt, rt in zip(summary.pids, summary.turnaround, summary.waiting,
                                        summary.response)
        },
    }


def _ref_bytes(doc):
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()


class TestJsonWriter:
    """Every ``--json`` file holds the bytes of ``json.dump(doc, sort_keys=True,
    indent=2)`` and a newline, for the document each command exports."""

    POLICIES = ("proposed", "pbdrr", "its-rr", "rr:3", "srtn", "fcfs")

    @staticmethod
    def _export(tmp, w, argv):
        csv_path, json_path = Path(tmp) / "w.csv", Path(tmp) / "out.json"
        csv_path.write_text(serialize_workload(w))
        out = io.StringIO()
        assert run_cli(argv[:1] + ["--workload", str(csv_path), "--json", str(json_path)]
                       + argv[1:], out=out) == 0
        return json_path.read_bytes()

    def _check_simulate(self, tmp, w, name):
        trace = simulate(w, policy_from_name(name, w))
        summary = compute_metrics(trace, w)
        doc = {
            "workload": _ref_workload(w),
            "policy": name,
            "segments": _ref_segments(trace),
            "completion": {str(pid): t for pid, t in trace.completion.items()},
            "metrics": _ref_metrics(name, summary),
        }
        data = self._export(tmp, w, ["simulate", "--policy", name])
        assert data == _ref_bytes(doc)
        assert trace_from_dict(json.loads(data)) == (w, name, trace)
        assert {**trace_to_dict(w, name, trace), "metrics": metrics_to_dict(name, summary)} == doc

    @settings(max_examples=25, deadline=None)
    @given(w=scattered_workloads())
    def test_simulate_every_policy(self, w):
        with tempfile.TemporaryDirectory() as tmp:
            for name in self.POLICIES:
                self._check_simulate(tmp, w, name)

    @settings(max_examples=25, deadline=None)
    @given(w=scattered_workloads())
    def test_compare(self, w):
        traces = {name: simulate(w, policy_from_name(name, w)) for name in self.POLICIES}
        doc = {
            "workload": _ref_workload(w),
            "metrics": [_ref_metrics(n, compute_metrics(t, w)) for n, t in traces.items()],
            "traces": {n: _ref_segments(t) for n, t in traces.items()},
        }
        with tempfile.TemporaryDirectory() as tmp:
            data = self._export(tmp, w, ["compare", "--policies", ",".join(self.POLICIES)])
        assert data == _ref_bytes(doc)
        loaded = json.loads(data)
        assert loaded["metrics"] == [metrics_to_dict(n, compute_metrics(t, w))
                                     for n, t in traces.items()]
        assert loaded["traces"] == {n: trace_to_dict(w, n, t)["segments"]
                                    for n, t in traces.items()}

    @settings(max_examples=25, deadline=None)
    @given(w=scattered_workloads(),
           static=st.sampled_from([[], ["--static-ots", str(DEFAULT_STATIC_OTS)]]))
    def test_components_both_ots_modes(self, w, static):
        comps = compute_components(w, static_ots=DEFAULT_STATIC_OTS if static else None)
        doc = {
            "workload": _ref_workload(w),
            "range": {"num": comps.slice_range.numerator,
                      "den": comps.slice_range.denominator},
            "components": [
                {"pid": p.pid, **{name: getattr(comps, name)[i] for name in COMPONENT_FIELDS}}
                for i, p in enumerate(process_rows(w))
            ],
        }
        with tempfile.TemporaryDirectory() as tmp:
            assert self._export(tmp, w, ["components"] + static) == _ref_bytes(doc)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 30), order=st.sampled_from(ORDERS), seed=st.integers(0, 99))
    def test_generate(self, n, order, seed):
        w = generate_workload(n, order, (1, 100), (1, 5), seed)
        with tempfile.TemporaryDirectory() as tmp:
            json_path = Path(tmp) / "out.json"
            argv = ["generate", "--n", str(n), "--order", order, "--seed", str(seed),
                    "--json", str(json_path)]
            assert run_cli(argv, out=io.StringIO()) == 0
            assert json_path.read_bytes() == _ref_bytes({"workload": _ref_workload(w)})

    def test_more_rows_than_one_chunk(self, tmp_path):
        w = Workload((12, 3, 100), (2500, 2600, 7), (1, 2, 1))
        assert len(simulate(w, policy_from_name("rr:1", w)).segments) > report._CHUNK
        self._check_simulate(tmp_path, w, "rr:1")

    def test_empty_tables(self):
        parts = []
        doc = {"list": report._Table(("x",), ([],)),
               "keyed": report._Table((), ([], []), keyed=True)}
        report._write_value(parts.append, doc, b"\n")
        assert b"".join(parts) == json.dumps(
            {"list": [], "keyed": {}}, sort_keys=True, indent=2).encode()


_CHUNK_SIZES = [report._CHUNK - 1, report._CHUNK, report._CHUNK + 1, 2 * report._CHUNK]


class TestChunkBoundaries:
    """Rows go out ``_CHUNK`` at a time, each chunk from one template, so a
    last chunk that is short, full or one row long must give the bytes that
    ``json.dumps``, a row-by-row CSV writer and a row-by-row text table give."""

    @staticmethod
    def _columns(rows, width):
        rng = random.Random(rows)
        return [[rng.randrange(-10, 10**6) for _ in range(rows)] for _ in range(width)]

    @pytest.mark.parametrize("rows", _CHUNK_SIZES)
    def test_json_tables(self, rows):
        pids = random.Random(-rows).sample(range(1, rows + 1), rows)  # the writer sorts them
        a, b, c = self._columns(rows, 3)
        doc = {
            "unkeyed": report._Table(("zeta", "alpha", "mid"), (a, b, c)),
            "keyed": report._Table(("waiting", "turnaround"), (pids, a, b), keyed=True),
            "values": report._Table((), (pids, c), keyed=True),
        }
        expected = {
            "unkeyed": [{"zeta": x, "alpha": y, "mid": z} for x, y, z in zip(a, b, c)],
            "keyed": {str(p): {"waiting": x, "turnaround": y} for p, x, y in zip(pids, a, b)},
            "values": dict(zip(map(str, pids), c)),
        }
        parts = []
        report._write_value(parts.append, doc, b"\n")
        assert b"".join(parts) == json.dumps(expected, sort_keys=True, indent=2).encode()

    @pytest.mark.parametrize("rows", _CHUNK_SIZES)
    def test_csv(self, rows, tmp_path):
        columns = [*self._columns(rows, 2), [f"P{i}" for i in range(rows)]]
        path = tmp_path / "out.csv"
        report._write_csv(str(path), report._Table(("x", "y", "name"), columns))
        expected = "x,y,name\n" + "".join(
            ",".join(map(str, row)) + "\n" for row in zip(*columns))
        # lists of lines, as in test_text_table: a failing diff of the whole text is slow
        assert path.read_text(encoding="utf-8").split("\n") == expected.split("\n")

    @pytest.mark.parametrize("rows", _CHUNK_SIZES)
    def test_text_table(self, rows):
        a, b = self._columns(rows, 2)
        columns = {
            "a wide header": a,
            "name": [f"P{i}" for i in range(rows)],
            "neg": [-x for x in b],  # its min, not its max, sets its width
            "y": b,
        }
        cells = [list(map(str, row)) for row in zip(*columns.values())]
        # as lines: pytest's diff of two long strings that differ takes minutes
        expected = _ref_table(list(columns), cells).split("\n")
        assert report._render_table(columns).split("\n") == expected


_PARSE_TO_METRICS = ["workload.parse", "schedulers.build", "engine.simulate", "metrics.compute"]
_PARSE_TO_METRICS_WITH_SLICES = [*_PARSE_TO_METRICS[:2], "timeslice.components",
                                 *_PARSE_TO_METRICS[2:]]
# Per command: argv, and the layers run_cli hands its span hook, in order,
# with both --json and --csv given.
_SPAN_RUNS = {
    "simulate": (["--workload", RANDOM_CSV, "--policy", "proposed", "--paper-notes"],
                 _PARSE_TO_METRICS_WITH_SLICES + ["report.gantt", "report.table"]
                 + ["report.export"] * 2),
    "compare": (["--workload", RANDOM_CSV, "--policies", "pbdrr,rr:3"],
                _PARSE_TO_METRICS_WITH_SLICES + _PARSE_TO_METRICS[1:] + ["report.table"]
                + ["report.export"] * 2),
    "components": (["--workload", RANDOM_CSV, "--paper-notes"],
                   ["workload.parse", "timeslice.components", "report.table"]
                   + ["report.export"] * 2),
    "generate": (["--n", "12", "--order", "decreasing"], ["report.export"] * 2),
}


class TestSpanHook:
    """``run_cli`` makes each layer call through its ``span`` hook.  A hook that
    runs each call twice, as a timer does, changes no output byte: each call,
    the exports' included, redoes its work from its inputs."""

    @staticmethod
    def _outputs(tmp, argv, **span):
        tmp.mkdir()
        json_path, csv_path = tmp / "out.json", tmp / "out.csv"
        out = io.StringIO()
        rc = run_cli(argv + ["--json", str(json_path), "--csv", str(csv_path)], out=out, **span)
        return rc, out.getvalue(), json_path.read_bytes(), csv_path.read_bytes()

    @pytest.mark.parametrize("command", sorted(_SPAN_RUNS))
    def test_calling_twice_gives_the_same_bytes(self, command, tmp_path):
        argv, layers = _SPAN_RUNS[command]
        seen = []

        def twice(layer, call):
            seen.append(layer)
            call()
            return call()

        plain = self._outputs(tmp_path / "plain", [command, *argv])
        assert plain[0] == 0 and all(plain[1:])
        assert self._outputs(tmp_path / "twice", [command, *argv], span=twice) == plain
        assert seen == layers

    # the slice components are computed once per distinct OTS source: the
    # Range OTS for proposed, one static OTS shared by pbdrr and its-rr
    @pytest.mark.parametrize("argv,calls", [
        (["compare", "--policies", "proposed,pbdrr,its-rr,rr:3"], 2),
        (["simulate", "--policy", "rr:3"], 0),
        (["simulate", "--policy", "srtn"], 0),
        (["simulate", "--policy", "fcfs"], 0),
    ])
    def test_components_once_per_ots(self, argv, calls):
        seen = []

        def record(layer, call):
            seen.append(layer)
            return call()

        assert run_cli(argv + ["--workload", RANDOM_CSV], io.StringIO(), record) == 0
        assert seen.count("timeslice.components") == calls


class TestNoRowObjects:
    """The CLI keeps per-process data in int columns from the CSV to the
    export: on a valid CSV, ``simulate --json``, ``components --json --csv
    --paper-notes`` and ``compare --json --csv`` never check a process row by
    row, and their output is what it is when they may."""

    @staticmethod
    def _scattered_csv(tmp_path, seed):
        pids = random.Random(seed).sample(range(1, 300), 40)  # not sorted, as ints or strings
        w = generate_workload(40, "random", (1, 60), (1, 5), seed=len(seed))
        csv_path = tmp_path / "w.csv"
        csv_path.write_text(serialize_workload(Workload(pids, w.bursts, w.priorities)))
        return str(csv_path)

    @staticmethod
    def _refuse_rows(monkeypatch):
        def refuse(*row):
            raise AssertionError(f"row {row} was checked")

        monkeypatch.setattr(sys.modules[Workload.__module__], "check_process", refuse)
        with pytest.raises(AssertionError, match=re.escape("row (0, 1, 1) was checked")):
            Workload((0,), (1,), (1,))

    @pytest.mark.parametrize("name", _EVERY_POLICY)
    def test_simulate_json(self, name, tmp_path, monkeypatch):
        argv = ["simulate", "--workload", self._scattered_csv(tmp_path, name), "--policy", name]
        expected = _run_cli(argv)
        assert expected[0] == 0
        self._refuse_rows(monkeypatch)
        assert _run_cli(argv) == expected

    @pytest.mark.parametrize("argv", [
        ["components", "--paper-notes"], ["compare", "--policies", ",".join(_EVERY_POLICY)],
    ], ids=lambda argv: argv[0])
    def test_components_and_compare_json_csv(self, argv, tmp_path, monkeypatch):
        # the published illustration table has cells that differ, so notes print
        runs = [argv + ["--workload", path, "--json", str(tmp_path / "out.json"),
                        "--csv", str(tmp_path / "out.csv")]
                for path in (self._scattered_csv(tmp_path, argv[0]), ILLUSTRATION_CSV)]

        def outputs(argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stderr(err):
                rc = run_cli(argv, out=out)
            files = [(tmp_path / name).read_bytes() for name in ("out.json", "out.csv")]
            return rc, out.getvalue(), err.getvalue(), files

        expected = list(map(outputs, runs))
        for rc, out, err, _ in expected:
            assert rc == 0 and out and not err
        if argv[0] == "components":
            assert "note: " in expected[1][1]
        self._refuse_rows(monkeypatch)
        assert list(map(outputs, runs)) == expected


def _ref_table(header, rows):
    """The text table laid out row by row: widths first, then each row padded."""
    widths = [max(map(len, column)) for column in zip(header, *rows)]
    lines = [header, ["-" * width for width in widths], *rows]
    return "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(line, widths)).rstrip()
        for line in lines
    )


def _ref_process_cells(p):
    return [f"P{p.pid}", str(p.burst), str(p.priority)]


# 1 to 7 digits, so that cells are both wider and narrower than their headers
_DIGITS = st.integers(1, 7).flatmap(lambda d: st.integers(10 ** (d - 1), 10 ** d - 1))


@st.composite
def _wide_workloads(draw):
    """Workloads whose pids and bursts have 1 to 7 digits."""
    n = draw(st.integers(1, 8))
    pids = draw(st.lists(_DIGITS, min_size=n, max_size=n, unique=True))
    bursts = draw(st.lists(_DIGITS, min_size=n, max_size=n))
    priorities = draw(st.lists(st.integers(1, 12), min_size=n, max_size=n))
    return Workload(pids, bursts, priorities)


class TestColumnTables:
    """The column-wise tables against a row-wise reference."""

    @settings(max_examples=60, deadline=None)
    # policies whose grant count grows with the log of the burst, at most
    @given(w=_wide_workloads(), name=st.sampled_from(["proposed", "pbdrr", "srtn", "fcfs"]))
    def test_render_metrics(self, w, name):
        summary = compute_metrics(simulate(w, policy_from_name(name, w)), w)
        rows = [_ref_process_cells(p) + list(map(str, metrics)) for p, *metrics
                in zip(process_rows(w), summary.turnaround, summary.waiting, summary.response)]
        header = ["process", "burst", "priority", "turnaround", "waiting", "response"]
        assert render_metrics(summary, w) == (
            _ref_table(header, rows)
            + f"\n\navg turnaround: {format_average(summary.avg_turnaround)}"
            + f"\navg waiting:    {format_average(summary.avg_waiting)}"
            + f"\ncontext switches: {summary.context_switches}"
        )

    @settings(max_examples=60, deadline=None)
    @given(w=_wide_workloads(), static_ots=st.sampled_from([None, 1, 4, 123456]))
    def test_render_components_table(self, w, static_ots):
        comps = compute_components(w, static_ots=static_ots)
        rows = [_ref_process_cells(p) + [str(getattr(comps, name)[i]) for name in COMPONENT_FIELDS]
                for i, p in enumerate(process_rows(w))]
        header = ["process", "burst", "priority"] + [name.upper() for name in COMPONENT_FIELDS]
        assert render_components_table(w, comps) == (
            _ref_table(header, rows) + f"\n\nrange: {comps.slice_range}"
        )

    @settings(max_examples=60, deadline=None)
    @given(w=_wide_workloads(), data=st.data())
    def test_compare(self, w, data):
        # rr:<q> with q of 1 to 7 digits, so that the policy column is both
        # narrower and wider than its header, but at most ~1000 grants a process
        least = max(w.bursts) // 1000 + 1
        quanta = st.integers(len(str(least)), 7).flatmap(
            lambda d: st.integers(max(least, 10 ** (d - 1)), 10 ** d - 1))
        names = data.draw(st.lists(
            st.sampled_from(["proposed", "pbdrr", "srtn", "fcfs"]) | quanta.map("rr:%d".__mod__),
            min_size=1, max_size=4, unique=True))
        rows = []
        for name in names:
            summary = compute_metrics(simulate(w, policy_from_name(name, w)), w)
            rows.append([name, format_average(summary.avg_turnaround),
                         format_average(summary.avg_waiting), str(summary.context_switches)])
        with tempfile.TemporaryDirectory() as tmp:
            csv_path = Path(tmp) / "w.csv"
            csv_path.write_text(serialize_workload(w))
            out = io.StringIO()
            argv = ["compare", "--workload", str(csv_path), "--policies", ",".join(names)]
            assert run_cli(argv, out=out) == 0
        header = ["policy", "avg TAT", "avg WT", "CS"]
        assert out.getvalue() == _ref_table(header, rows) + "\n"


# Each slot where the CLI reads an integer: (option named by a usage error,
# or None where a bad number is an error line, argv around the text).  A range
# follows its option after "=", since argparse takes a separate "-0:60" for an
# option; a whole value is a word of its own, since argparse before 3.13 reads
# "--n=--" as an empty list.
_NUMBER_SLOTS = {
    "simulate rr:<q>": (None, lambda t: [
        "simulate", "--workload", RANDOM_CSV, "--policy", f"rr:{t}"]),
    "compare rr:<q>": (None, lambda t: [
        "compare", "--workload", RANDOM_CSV, "--policies", f"fcfs,rr:{t}"]),
    "simulate --static-ots": ("--static-ots", lambda t: [
        "simulate", "--workload", RANDOM_CSV, "--policy", "pbdrr", "--static-ots", t]),
    "compare --static-ots": ("--static-ots", lambda t: [
        "compare", "--workload", RANDOM_CSV, "--policies", "pbdrr,its-rr",
        "--static-ots", t]),
    "components --static-ots": ("--static-ots", lambda t: [
        "components", "--workload", RANDOM_CSV, "--static-ots", t]),
    "generate --n": ("--n", lambda t: ["generate", "--order", "random", "--n", t]),
    "generate --seed": ("--seed", lambda t: [
        "generate", "--n", "4", "--order", "random", "--seed", t]),
    "generate --burst-range lo": ("--burst-range", lambda t: [
        "generate", "--n", "4", "--order", "random", f"--burst-range={t}:60"]),
    "generate --burst-range hi": ("--burst-range", lambda t: [
        "generate", "--n", "4", "--order", "random", f"--burst-range=1:{t}"]),
    "generate --priority-range lo": ("--priority-range", lambda t: [
        "generate", "--n", "4", "--order", "random", f"--priority-range={t}:5"]),
    "generate --priority-range hi": ("--priority-range", lambda t: [
        "generate", "--n", "4", "--order", "random", f"--priority-range=1:{t}"]),
}


def _run_cli(argv):
    """(exit code, stdout, stderr, JSON bytes or None) of one CLI run."""
    with tempfile.TemporaryDirectory() as tmp:
        json_path = Path(tmp) / "out.json"
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = run_cli(argv + ["--json", str(json_path)], out=out)
        data = json_path.read_bytes() if json_path.exists() else None
    return rc, out.getvalue(), err.getvalue(), data


def _assert_exit_contract(rc, out, err):
    """The CLI's exit contract: 0 prints output and writes nothing to stderr; 1
    prints one ``error:`` line and no output; 2 prints a usage message whose
    last line is its only ``error:`` line."""
    lines = err.splitlines()
    if rc == 0:
        assert out and not err
    elif rc == 1:
        assert not out
        assert len(lines) == 1 and err == f"{lines[0]}\n" and err.startswith("error: ")
    else:
        assert rc == 2 and err.startswith("usage: rrsim")
        assert [line for line in lines if "error:" in line] == [lines[-1]]
        assert re.match(r"rrsim( [a-z]+)?: error: ", lines[-1])


class TestIntegerSyntax:
    """Every integer the CLI reads has the syntax of a workload CSV field: an
    optional ``-`` and ASCII digits, with surrounding spaces."""

    @pytest.mark.parametrize("slot", sorted(_NUMBER_SLOTS))
    @settings(max_examples=40, deadline=None)
    @given(text=st.text("0123456789-+_ \uff12\u0663x", max_size=6))
    @example(text="1_0")
    @example(text="+3")
    @example(text="\uff12")  # fullwidth two
    @example(text="\u0663")  # Arabic-Indic three
    @example(text=str(MAX_GENERATED + 1))
    def test_one_syntax_at_every_number(self, slot, text):
        if slot == "generate --n" and re.fullmatch(r"-?[0-9]+", text.strip()):
            # n processes are allocated up to MAX_GENERATED, and refused above it
            assume(sum(c.isdigit() for c in text) <= 2 or int(text) > MAX_GENERATED)
        option, argv = _NUMBER_SLOTS[slot]
        rc, out, err, data = _run_cli(argv(text))
        _assert_exit_contract(rc, out, err)
        if re.fullmatch(r"-?[0-9]+", text.strip()):
            assert (rc, out, err, data) == _run_cli(argv(str(int(text))))
        elif option is None:
            assert rc == 1
        else:
            assert rc == 2
            assert f"error: argument {option}: " in err


# Field text: small numbers, or characters that make most fields invalid.
# Three characters at most, so no burst exceeds 999 units.
_CSV_FIELDS = st.one_of(st.integers(0, 999).map(str), st.text("09-+ x\"\0\uff12", max_size=3))
_CSV_HEADERS = [
    "id,burst,priority", " ID , Burst,PRIORITY", "id,burst,priority,arrival",
    "\ufeffid,burst,priority", "id,burst", "pid,burst,priority", "",
]


@st.composite
def _csv_texts(draw):
    """Workload CSV text: a valid workload's CSV with one line replaced or
    inserted (a header, a row of 1 to 5 odd fields, or any text) or none,
    any line break, and maybe a few arbitrary characters at the end."""
    lines = serialize_workload(draw(workloads(max_n=6))).splitlines()
    junk = draw(st.one_of(
        st.sampled_from(_CSV_HEADERS),
        st.lists(_CSV_FIELDS, min_size=1, max_size=5).map(",".join),
        st.text(max_size=4),
    ))
    i = draw(st.integers(0, len(lines) - 1))
    lines[i:i + draw(st.sampled_from([0, 1]))] = draw(st.sampled_from([[], [junk]]))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(lines) + draw(st.one_of(st.just(""), st.text(max_size=3)))


# A command line for each subcommand that reads a workload CSV, with every policy.
_CSV_ARGV = {
    **{f"simulate {name}": ["simulate", "--policy", name] for name in _EVERY_POLICY},
    "compare": ["compare", "--policies", ",".join(_EVERY_POLICY)],
    "components": ["components"],
}


class TestCsvText:
    """Whatever the workload CSV holds, the CLI exits 0 with its export
    written or 1 without it, keeps :func:`_assert_exit_contract`, and never
    raises."""

    @pytest.mark.parametrize("case", sorted(_CSV_ARGV))
    @settings(max_examples=10, deadline=None)
    @given(text=_csv_texts())
    @example(text="id,burst,priority\n1,5,1\0")  # NUL: a csv.Error before Python 3.11
    @example(text='id,burst,priority\n1,5,"' + "x" * 140_000)  # over csv.field_size_limit()
    def test_exit_code_and_output(self, case, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "w.csv"
            path.write_bytes(text.encode("utf-8", "surrogatepass"))
            rc, out, err, data = _run_cli([*_CSV_ARGV[case], "--workload", str(path)])
        _assert_exit_contract(rc, out, err)
        if rc == 0:
            assert data
        else:
            assert rc == 1 and data is None


def _subcommands():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


# Each subcommand's options by dest: (flags, type, default, metavar, choices,
# required, help), the type by its function's name.
_NOTES_HELP = "annotate cells where published reference values differ"
_JSON = (["--json"], None, None, "PATH", None, False, "write JSON copy of the output")
_CSV = (["--csv"], None, None, "PATH", None, False, "write CSV copy of the output")
_WORKLOAD = (["--workload"], None, None, "CSV", None, True, None)
_STATIC_OTS = (["--static-ots"], "_integer_option", 4, "N", None, False,
               "static OTS constant used by its-rr/pbdrr (default %(default)s)")
_OPTIONS = {
    "simulate": {
        "workload": _WORKLOAD,
        "paper_notes": (["--paper-notes"], None, False, None, None, False, _NOTES_HELP),
        "json": _JSON,
        "csv": _CSV,
        "static_ots": _STATIC_OTS,
        "policy": (["--policy"], None, None, None, None, True,
                   "proposed | pbdrr | its-rr | rr:<q> | srtn | fcfs"),
    },
    "compare": {
        "workload": _WORKLOAD,
        "json": _JSON,
        "csv": _CSV,
        "static_ots": _STATIC_OTS,
        "policies": (["--policies"], None, None, None, None, True,
                     "comma-separated policy names"),
    },
    "generate": {
        "n": (["--n"], "_integer_option", None, None, None, True, None),
        "order": (["--order"], None, None, None, ("increasing", "decreasing", "random"),
                  True, None),
        "burst_range": (["--burst-range"], "_parse_range", (1, 100), "LO:HI", None, False, None),
        "priority_range": (["--priority-range"], "_parse_range", (1, 5), "LO:HI", None, False,
                           None),
        "seed": (["--seed"], "_integer_option", 0, None, None, False, None),
        "json": _JSON,
        "csv": _CSV,
    },
    "components": {
        "workload": _WORKLOAD,
        "paper_notes": (["--paper-notes"], None, False, None, None, False, _NOTES_HELP),
        "json": _JSON,
        "csv": _CSV,
        "static_ots": (["--static-ots"], "_integer_option", None, "N", None, False,
                       "use this static OTS constant instead of the Range OTS"),
    },
}


def _options(parser):
    return {
        a.dest: (a.option_strings, getattr(a.type, "__name__", None), a.default, a.metavar,
                 a.choices, a.required, a.help)
        for a in parser._actions if a.dest != "help"
    }


class TestParserAndReadme:
    def test_every_option(self):
        assert {name: _options(p) for name, p in _subcommands().items()} == _OPTIONS

    @pytest.mark.parametrize("command", ["simulate", "compare", "components"])
    def test_option_order(self, command):
        assert list(_options(_subcommands()[command])) == list(_OPTIONS[command])

    @pytest.mark.parametrize(
        "command", [[]] + [[name] for name in _subcommands()], ids=lambda c: "".join(c) or "rrsim"
    )
    def test_help_exits_zero(self, command, capsys):
        assert run_cli(command + ["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: rrsim")

    def test_readme_names_every_option(self):
        defined = {
            name
            for parser in _subcommands().values()
            for action in parser._actions
            for name in action.option_strings
            if name.startswith("--")
        }
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        cli = readme.split("\n## CLI\n")[1].split("\n## ")[0]
        assert set(re.findall(r"--[a-z][a-z-]*", cli)) == defined - {"--help"}


_BOUND_TEXT = f"has more than {MAX_DIGITS} digits"


class TestDigitBound:
    """A number of more than ``MAX_DIGITS`` digits is refused by rrsim's own
    message, not by Python's digit limit on integer text, and every number
    the CLI prints from numbers within the bound converts to text."""

    @staticmethod
    def run(argv, csv_rows=None):
        """(exit code, stdout, stderr, JSON bytes or None) of ``argv``, with
        ``--workload`` a CSV of ``csv_rows`` when given."""
        if csv_rows is None:
            return _run_cli(argv)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "w.csv"
            rows = [CSV_HEADER, *csv_rows]
            path.write_text("".join(",".join(map(str, row)) + "\n" for row in rows))
            return _run_cli([*argv, "--workload", str(path)])

    def assert_refused(self, result, where):
        rc, out, err, data = result
        _assert_exit_contract(rc, out, err)
        assert rc in (1, 2) and data is None
        last = err.splitlines()[-1]
        assert where in last and last.endswith(_BOUND_TEXT)
        assert "set_int_max_str_digits" not in err
        assert "9" * 20 not in err  # the digits are not echoed

    @pytest.mark.parametrize("argv", [["simulate", "--policy", "fcfs"], ["components"]],
                             ids=["simulate", "components"])
    def test_two_4300_digit_bursts(self, argv):
        result = self.run(argv, [(1, "9" * 4300, 1), (2, "9" * 4300, 1)])
        self.assert_refused(result, "row 2: burst ")

    @pytest.mark.parametrize("column", range(3), ids=["id", "burst", "priority"])
    def test_4301_digit_csv_field(self, column):
        row = [1, 5, 1]
        row[column] = "9" * 4301
        result = self.run(["simulate", "--policy", "fcfs"], [(2, 4, 1), row])
        self.assert_refused(result, f"row 3: {('id', 'burst', 'priority')[column]} ")

    @pytest.mark.parametrize("option", ["--seed", "--n"])
    def test_4400_digit_option(self, option):
        argv = {"--seed": ["--n", "3"], "--n": []}[option]
        result = self.run(["generate", "--order", "random", *argv, option, "9" * 4400])
        assert result[0] == 2
        self.assert_refused(result, f"error: argument {option}: ")

    def test_601_digit_range_bound(self):
        too_long = "1:" + "9" * (MAX_DIGITS + 1)
        result = self.run(["generate", "--n", "2", "--order", "random", "--burst-range", too_long])
        assert result[0] == 2
        self.assert_refused(result, "error: argument --burst-range: value ")

    @pytest.mark.parametrize("command, option", [("simulate", "--policy"),
                                                 ("compare", "--policies")])
    def test_601_digit_quantum(self, command, option):
        result = self.run([command, option, "rr:" + "9" * (MAX_DIGITS + 1)], [(1, 4, 1)])
        assert result[0] == 1
        self.assert_refused(result, "error: quantum ")

    def test_trace_from_dict(self, random_w):
        trace = simulate(random_w, policy_from_name("fcfs", random_w))
        data = trace_to_dict(random_w, "fcfs", trace)
        data["workload"][1]["burst"] = 10**MAX_DIGITS
        message = f"workload row 1: burst {_BOUND_TEXT} (P2)"
        with pytest.raises(MetricsError, match=f"^{re.escape(message)}$"):
            trace_from_dict(data)

    def test_700_digit_burst_at_the_lowest_python_limit(self, int_digit_floor):
        result = self.run(["simulate", "--policy", "fcfs"], [(1, "9" * 700, 1)])
        self.assert_refused(result, "row 2: burst ")

    @pytest.mark.parametrize("limit", ["default", "floor"])
    @pytest.mark.parametrize("argv", [
        *(["simulate", "--paper-notes", "--policy", name] for name in _EVERY_POLICY),
        ["compare", "--policies", ",".join(["proposed", "pbdrr", "srtn", "fcfs"])],
        ["components", "--paper-notes"],
        ["components", "--static-ots", "9" * MAX_DIGITS],
    ], ids=lambda argv: " ".join(argv)[:40])
    def test_bursts_at_the_bound(self, argv, limit, request):
        if limit == "floor":
            request.getfixturevalue("int_digit_floor")
        rc, out, err, data = self.run(argv, [(1, "9" * MAX_DIGITS, 1), (2, "9" * MAX_DIGITS, 1)])
        _assert_exit_contract(rc, out, err)
        assert rc == 0 or err.startswith(f"error: policy {argv[-1]!r} needs ")
        assert (data is not None) == (rc == 0)


# A valid command line for each subcommand; a new subcommand needs one here.
_VALID_ARGV = {
    "simulate": ["--workload", RANDOM_CSV, "--policy", "fcfs"],
    "compare": ["--workload", RANDOM_CSV, "--policies", "fcfs"],
    "generate": ["--n", "3", "--order", "random"],
    "components": ["--workload", RANDOM_CSV],
}
_LONG_OPTIONS = [
    (command, option)
    for command, parser in _subcommands().items()
    for action in parser._actions
    for option in action.option_strings
    if option.startswith("--")
]


class TestDashDashValue:
    """Before Python 3.13, argparse reads an option written ``--opt=--`` as an
    empty list without calling its type; from 3.13 on, as the text ``--``."""

    @pytest.mark.parametrize(
        "command, option", _LONG_OPTIONS, ids=[c + o for c, o in _LONG_OPTIONS]
    )
    def test_one_error_line(self, command, option, tmp_path, monkeypatch, capsys):
        # where "--" is read as a path, it names a directory: no file is
        # written, and reading it fails
        monkeypatch.chdir(tmp_path)
        (tmp_path / "--").mkdir()
        argv = list(_VALID_ARGV[command])
        if option in argv:
            i = argv.index(option)
            del argv[i:i + 2]
        rc = run_cli([command, *argv, f"{option}=--"])
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        _assert_exit_contract(rc, out, err)
        assert rc in (1, 2)
        if rc == 2:
            assert err.startswith(f"usage: rrsim {command} ")
            last = err.splitlines()[-1]
            assert last.startswith(f"rrsim {command}: error: argument ") and option in last


# Text for the argv slots that take a name, or an option the CLI may not have:
# a valid name, or characters of policy, order and option names, case, ":",
# ",", "=", "." and a fullwidth digit.  Digits are few, so no number is large.
_NAME_TEXT = st.one_of(
    st.sampled_from([n.replace("<q>", "3") for n in POLICY_NAMES] + list(ORDERS)),
    st.text("proseditbcfnamwkjlvR:,-=. 1２", max_size=12),
)
# Each slot: argv around the text, a valid command line otherwise.
_NAME_SLOTS = {
    "simulate --policy": lambda t: ["simulate", "--workload", RANDOM_CSV, "--policy", t],
    "compare --policies": lambda t: ["compare", "--workload", RANDOM_CSV, "--policies", t],
    "generate --order": lambda t: ["generate", "--n", "4", "--order", t],
    **{f"{command} --<option>": (lambda t, c=command: [c, *_VALID_ARGV[c], "--" + t])
       for command in _VALID_ARGV},
}


class TestNameText:
    """Whatever text a name slot or an extra option holds, the CLI keeps
    :func:`_assert_exit_contract` and never raises."""

    @pytest.mark.parametrize("slot", sorted(_NAME_SLOTS))
    @settings(max_examples=15, deadline=None)
    @given(text=_NAME_TEXT)
    @example(text="rr")
    @example(text="RR:２")
    @example(text="fcfs,FCFS")
    @example(text="j=.")  # --json names a directory
    def test_exit_code_and_one_error_line(self, slot, text):
        # an extra option may be read as generate's --n: few processes
        assume(sum(c.isdigit() for c in text) <= 2)
        cwd = os.getcwd()
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)  # an option read as --json or --csv writes its file here
            try:
                rc, out, err, _ = _run_cli(_NAME_SLOTS[slot](text))
            finally:
                os.chdir(cwd)
        _assert_exit_contract(rc, out, err)


# A number of 700 digits and an "x": past the digit bound, and not an integer.
_LONG_TEXT = "9" * 700 + "x"
_LONG_HEADER = ",".join(["burst"] * 150)
_NINES = "9" * MAX_DIGITS
_LONG_NAME = "p" * 600  # a file name too long to open


def _csv_site(rows):
    """argv that simulates a CSV of ``rows``, given a function that writes it."""
    return lambda csv: ["simulate", "--workload", csv(f"id,burst,priority\n{rows}\n"),
                        "--policy", "fcfs"]


class TestLongTextEcho:
    """An error that echoes user text shows at most the first 40 characters
    of its ``repr`` (of a number, of its digits), then ``…``: no line of
    stderr passes 160 characters, however long the text."""

    # each site's argv, given a function that writes a CSV, and the echoed
    # text as the message would show it whole
    SITES = {
        "simulate --policy": (lambda csv: [
            "simulate", "--workload", RANDOM_CSV, "--policy", f"rr:{_LONG_TEXT}"],
            repr(f"rr:{_LONG_TEXT}")),
        "simulate --policy rr:-q": (lambda csv: [
            "simulate", "--workload", RANDOM_CSV, "--policy", f"rr:-{_NINES}"], f"-{_NINES}"),
        "simulate --workload": (lambda csv: [
            "simulate", "--workload", _LONG_NAME, "--policy", "fcfs"],
            repr(_LONG_NAME)),
        "compare --policies": (lambda csv: [
            "compare", "--workload", RANDOM_CSV, "--policies", f"fcfs,{_LONG_TEXT}"],
            repr(_LONG_TEXT)),
        "compare --policies twice": (lambda csv: [
            "compare", "--workload", RANDOM_CSV, "--policies", f"rr:{_NINES},rr:{_NINES}"],
            repr(f"rr:{_NINES}")),
        "csv burst": (_csv_site(f"1,{_LONG_TEXT},1"), repr(_LONG_TEXT)),
        "csv header": (lambda csv: [
            "simulate", "--workload", csv(f"{_LONG_HEADER}\n1,2,1\n"),
            "--policy", "fcfs"], repr(_LONG_HEADER)),
        "generate --seed": (lambda csv: [
            "generate", "--n", "3", "--order", "random", "--seed", _LONG_TEXT],
            repr(_LONG_TEXT)),
        "generate --burst-range": (lambda csv: [
            "generate", "--n", "3", "--order", "random", "--burst-range", f"1:{_LONG_TEXT}"],
            repr(f"1:{_LONG_TEXT}")),
        # a number within the bound, shown by its digits
        "components --static-ots": (lambda csv: [
            "components", "--workload", RANDOM_CSV, "--static-ots", f"-{_NINES}"], f"-{_NINES}"),
        "generate --n < 1": (lambda csv: [
            "generate", "--n", f"-{_NINES}", "--order", "random"], f"-{_NINES}"),
        "generate --n > max": (lambda csv: [
            "generate", "--n", _NINES, "--order", "random"], _NINES),
        "generate --priority-range": (lambda csv: [
            "generate", "--n", "3", "--order", "random", "--priority-range", f"{_NINES}:1"],
            _NINES),
        "csv id": (_csv_site(f"-{_NINES},1,1"), f"-{_NINES}"),
        "csv id twice": (_csv_site(f"{_NINES},1,1\n{_NINES},2,1"), _NINES),
    }

    @pytest.mark.parametrize("site", sorted(SITES))
    def test_short_lines(self, site, tmp_path):
        def csv(text):
            path = tmp_path / "w.csv"
            path.write_text(text)
            return str(path)
        argv, shown = self.SITES[site]
        rc, out, err, data = _run_cli(argv(csv))
        _assert_exit_contract(rc, out, err)
        assert rc in (1, 2) and data is None
        assert max(map(len, err.splitlines())) <= 160
        assert f"{shown[:40]}…" in err.splitlines()[-1]


class TestEmptyPath:
    """An empty export path names no file: the export fails with one error
    line, rather than being taken as no export at all."""

    @pytest.mark.parametrize("command, option", [
        ("simulate", "--json"), ("compare", "--json"), ("components", "--csv"),
        ("generate", "--json"),
    ], ids=lambda x: x)
    def test_one_error_line(self, command, option, capsys):
        assert run_cli([command, *_VALID_ARGV[command], f"{option}="], out=io.StringIO()) == 1
        assert capsys.readouterr().err == "error: [Errno 2] No such file or directory: ''\n"


class TestClosedPipe:
    """A reader that stops early, as ``rrsim ... | head -c 100`` does, is not a
    fault of the run: the CLI exits with status 1 and writes nothing to stderr."""

    def test_no_message(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text(serialize_workload(generate_workload(1000, "random", (1, 100), (1, 5), 0)))
        env = {**os.environ, "PYTHONPATH": str(Path(engine.__file__).parents[1])}
        # rr:1 prints ~50 000 segments, far more than a pipe's buffer holds
        argv = ["simulate", "--workload", str(path), "--policy", "rr:1"]
        proc = subprocess.Popen([sys.executable, "-m", "rrsim.report", *argv], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        assert (proc.stderr.read(), proc.wait(timeout=60)) == (b"", 1)
        proc.stderr.close()


# Text for the path slots: any characters, with line breaks, NUL, "/", "."
# and unencodable surrogates among them.  A path is the temporary directory,
# "/" and the text, so with ".." refused no path leaves the directory or names
# a device; the empty text stays the empty path.
_PATH_TEXT = st.text(
    st.one_of(st.characters(), st.sampled_from("/./\n\r\x00\x85 \udc80\ud800 -=")),
    max_size=12,
).filter(lambda t: ".." not in t)
# Each slot: argv around the path, and whether the path is a workload CSV
# that is read (else an export that is written).
_PATH_SLOTS = {
    "simulate --workload": (True, lambda p: ["simulate", "--workload", p, "--policy", "rr:2"]),
    "components --workload": (True, lambda p: ["components", "--workload", p]),
    **{f"{command} {option}": (False, lambda p, c=command, o=option: [c, *_VALID_ARGV[c], o, p])
       for command in _VALID_ARGV for option in ("--json", "--csv")},
}


class TestPathText:
    """Whatever text a path names, the CLI keeps :func:`_assert_exit_contract`,
    with its export written on exit 0, and never raises."""

    @pytest.mark.parametrize("slot", sorted(_PATH_SLOTS))
    @settings(max_examples=15, deadline=None)
    @given(text=_PATH_TEXT)
    @example(text="")
    @example(text=".")  # the directory itself
    @example(text="a\nb/c.csv")  # a line break, and no such directory
    @example(text="x" * 300)  # a name too long
    @example(text="\ud800")
    def test_exit_code_and_one_error_line(self, slot, text):
        reads, argv = _PATH_SLOTS[slot]
        with tempfile.TemporaryDirectory() as tmp:
            path = text and f"{tmp}/{text}"
            if reads:
                with contextlib.suppress(OSError, ValueError):
                    with open(path, "w", encoding="utf-8") as fh:
                        fh.write(Path(ILLUSTRATION_CSV).read_text(encoding="utf-8"))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stderr(err):
                rc = run_cli(argv(path), out=out)
            written = reads or os.path.isfile(path)
        _assert_exit_contract(rc, out.getvalue(), err.getvalue())
        assert written or rc != 0
