"""The published tables behind ``--paper-notes`` are keyed by the bundled
datasets.  Several tables agree with the rules in every cell and so print no
note; a mistyped key would drop one of them without changing any output."""
from pathlib import Path

import pytest

from rrsim import parse_workload
from rrsim.references import COMPONENTS, ROUNDS
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
    assert sorted(table) == sorted(w.pids)
    assert all(sum(table[p.pid]) == p.burst for p in w)
