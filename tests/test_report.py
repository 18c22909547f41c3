import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import workloads
from rrsim import ProcessSpec, Workload, serialize_workload, simulate, workload
from rrsim.metrics import MetricsError
from rrsim.report import (
    render_gantt,
    run_cli,
    trace_from_dict,
    trace_to_dict,
)
from rrsim.schedulers import classic_rr_policy, fcfs_policy, proposed_policy


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
        trace = simulate(random_w, proposed_policy(random_w))
        labels, times = render_gantt(trace).splitlines()
        assert labels.split("|")[1:-1] == [
            " P3 ", " P1 ", " P5 ", " P4 ", " P2 ", " P1 ", " P5 ", " P2 ", " P4 ",
        ]
        assert times.split() == ["0", "8", "14", "21", "25", "52", "57", "70", "96", "133"]

    def test_single_process(self):
        w = workload([7])
        labels, times = render_gantt(simulate(w, fcfs_policy(w))).splitlines()
        assert labels == "| P1 |"
        assert times.split() == ["0", "7"]

    def test_alternating_rr(self):
        w = workload([3, 3])
        labels, _ = render_gantt(simulate(w, classic_rr_policy(w, 1))).splitlines()
        assert labels.split("|")[1:-1] == [" P1 ", " P2 "] * 3

    def test_boundaries_are_merged_segment_edges(self, increasing_w):
        trace = simulate(increasing_w, proposed_policy(increasing_w))
        _, times = render_gantt(trace).splitlines()
        assert times.split()[-1] == str(sum(increasing_w.bursts))


class TestTraceJson:
    def test_round_trip(self, random_w):
        trace = simulate(random_w, proposed_policy(random_w))
        data = trace_to_dict(random_w, "proposed", trace)
        w2, name, trace2 = trace_from_dict(json.loads(json.dumps(data)))
        assert (w2, name, trace2) == (random_w, "proposed", trace)

    @settings(max_examples=30, deadline=None)
    @given(w=workloads(max_n=6))
    def test_round_trip_any_workload(self, w):
        trace = simulate(w, proposed_policy(w))
        w2, _, trace2 = trace_from_dict(trace_to_dict(w, "proposed", trace))
        assert trace2 == trace
        assert w2.bursts == w.bursts

    @settings(max_examples=30, deadline=None)
    @given(w=workloads(max_n=6), data=st.data())
    def test_round_trip_keeps_noncontiguous_pids(self, w, data):
        pids = data.draw(st.lists(
            st.integers(1, 10**6), min_size=len(w), max_size=len(w), unique=True
        ))
        w = Workload(tuple(
            ProcessSpec(pid, p.burst, p.priority) for pid, p in zip(pids, w)
        ))
        trace = simulate(w, proposed_policy(w))
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
        ],
        ids=["completion", "gap", "past-quantum", "string-end", "float-end", "bool-round",
             "missing-quantum", "string-burst", "missing-priority", "float-completion"],
    )
    def test_load_rejects_an_invalid_trace(self, random_w, edit, message):
        trace = simulate(random_w, proposed_policy(random_w))
        data = json.loads(json.dumps(trace_to_dict(random_w, "proposed", trace)))
        edit(data)
        with pytest.raises(MetricsError, match=message):
            trace_from_dict(data)

    def test_completion_map_golden(self, random_w):
        trace = simulate(random_w, proposed_policy(random_w))
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
        rc = run_cli([
            "simulate", "--workload", increasing_csv,
            "--policy", "rr", "--quantum", "4",
        ])
        assert rc == 0
        assert "policy: rr:4" in capsys.readouterr().out

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
            "components", "--workload", random_csv,
            "--use-static-ots", "--static-ots", "0",
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

    def test_components_static_ots_needs_use_static_ots(self, random_csv, capsys):
        rc = run_cli(["components", "--workload", random_csv, "--static-ots", "7"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: --static-ots applies only with --use-static-ots\n"
        )

    def test_quantum_only_with_rr(self, increasing_csv, capsys):
        rc = run_cli([
            "simulate", "--workload", increasing_csv,
            "--policy", "fcfs", "--quantum", "3",
        ])
        assert rc == 1
        assert "--quantum applies only to '--policy rr'" in capsys.readouterr().err

    def test_non_utf8_workload(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"id,burst,priority\n1,4,1\xff\n")
        rc = run_cli(["simulate", "--workload", str(path), "--policy", "fcfs"])
        assert rc == 1
        assert f"cannot read workload file {path}" in capsys.readouterr().err

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

    def test_rr_without_quantum(self, increasing_csv, capsys):
        rc = run_cli(["simulate", "--workload", increasing_csv, "--policy", "rr"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: policy 'rr' needs a quantum: use rr:<q> or --policy rr --quantum <q>\n"
        )

    def test_compare_rr_without_quantum(self, increasing_csv, capsys):
        # compare has no --policy/--quantum, so the message names only rr:<q>
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
        trace = simulate(increasing_w, classic_rr_policy(increasing_w, 2))
        assert data["traces"]["rr:2"] == trace_to_dict(increasing_w, "rr:2", trace)["segments"]
        assert sorted(data["traces"]) == ["fcfs", "rr:2"]
