"""The published tables behind ``--paper-notes`` are keyed by the bundled
datasets.  Several tables agree with the rules in every cell and so print no
note; a mistyped key would drop one of them without changing any output."""
import io
import re
from pathlib import Path

import pytest

from rrsim import Workload, parse_workload, policy_from_name, serialize_workload, simulate
from rrsim.report import run_cli
from rrsim.references import COMPONENTS, ROUNDS, quantum_notes
from rrsim.schedulers import POLICY_NAMES
from rrsim.timeslice import COMPONENT_FIELDS

DATA = Path(__file__).resolve().parent.parent / "data"
DATASETS = {
    (w.bursts, w.priorities): (path.stem, w)
    for path in sorted(DATA.glob("*.csv"))
    for w in [parse_workload(path.read_text(encoding="utf-8-sig"))]
}


def dataset(key):
    """(name, workload) of the dataset with the key's bursts and priorities."""
    assert key[:2] in DATASETS, f"no dataset has bursts {key[0]}, priorities {key[1]}"
    return DATASETS[key[:2]]


def named(stem):
    """The dataset ``data/<stem>.csv``."""
    return next(w for name, w in DATASETS.values() if name == stem)


def key_id(key):
    name = DATASETS.get(key[:2], ("unknown",))[0]
    return "-".join([name] + [str(part) for part in key[2:]])


def test_keys_name_the_published_tables():
    assert {(dataset(k)[0], k[2]) for k in COMPONENTS} == {
        ("illustration", None),
        ("increasing", None), ("increasing", 4),
        ("random", None), ("random", 4),
    }
    assert {(dataset(k)[0],) + k[2:] for k in ROUNDS} == {
        ("increasing", "proposed", None), ("increasing", "pbdrr", 4),
        ("random", "proposed", None), ("random", "pbdrr", 4),
    }


@pytest.mark.parametrize("key", list(COMPONENTS), ids=key_id)
def test_component_vectors_have_one_entry_per_process(key):
    _, w = dataset(key)
    table = COMPONENTS[key]
    assert set(table) <= set(COMPONENT_FIELDS)
    assert all(len(vector) == len(w) for vector in table.values())


@pytest.mark.parametrize("key", list(ROUNDS), ids=key_id)
def test_round_tables_cover_the_workload_pids(key):
    _, w = dataset(key)
    table = ROUNDS[key]
    assert key[2] in POLICY_NAMES
    assert [sum(quanta) for quanta in table] == list(w.bursts)


@pytest.mark.parametrize("ids", [(11, 12, 13, 14, 15), (50, 4, 35, 13, 21)])
@pytest.mark.parametrize("key", list(ROUNDS), ids=key_id)
def test_round_notes_follow_submission_position(key, ids, tmp_path):
    """Renumbering a dataset renames the pids its notes name, nothing else."""
    _, w = dataset(key)
    renumbered = Workload(ids, w.bursts, w.priorities)

    def notes(workload):
        path = tmp_path / "w.csv"
        path.write_text(serialize_workload(workload))
        out = io.StringIO()
        argv = ["simulate", "--workload", str(path), "--policy", key[2], "--paper-notes"]
        assert run_cli(argv, out=out) == 0
        return [line for line in out.getvalue().splitlines() if line.startswith("note: ")]

    rename = dict(zip(w.pids, ids))
    assert notes(renumbered) == [
        re.sub(r"^note: P(\d+) ", lambda m: f"note: P{rename[int(m[1])]} ", line)
        for line in notes(w)
    ]


@pytest.mark.parametrize("stem", ["increasing", "random"])
def test_proposed_notes_ignore_static_ots(stem):
    """``proposed`` reads the Range OTS, so a static OTS picks no other matrix."""
    w = named(stem)
    trace = simulate(w, policy_from_name("proposed", w))
    notes = quantum_notes(w, "proposed", trace)
    assert len(notes) == 1  # the one published cell the rules contradict
    assert quantum_notes(w, "proposed", trace, 4) == quantum_notes(w, "proposed", trace, 5) == notes


@pytest.mark.parametrize("stem", ["increasing", "random"])
def test_pbdrr_notes_read_the_static_ots_matrix(stem):
    """``pbdrr`` reads the static OTS, and its matrix is published for OTS 4
    only: a run at OTS 5 has no matrix to differ from, while the OTS-4 matrix
    differs from it in three processes."""
    w = named(stem)
    trace = simulate(w, policy_from_name("pbdrr", w, static_ots=5))
    assert quantum_notes(w, "pbdrr", trace, 5) == []
    assert len(quantum_notes(w, "pbdrr", trace, 4)) == 3
