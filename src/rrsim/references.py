"""Published reference tables for the three benchmark workloads.

These are the previously published slice-component tables and per-round
quantum matrices this simulator is benchmarked against.  A handful of their
cells are arithmetically inconsistent with the stated rules; the simulator
always reports rule-faithful values, and the ``--paper-notes`` CLI flag uses
this module to annotate cells where the published figure differs.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .engine import ScheduleTrace
from .timeslice import SliceComponents
from .workload import Workload

_COMPONENT_FIELDS = ("ots", "pc", "sc", "csc", "its")


@dataclass(frozen=True)
class ReferenceTable:
    """Published values for one (workload, OTS mode) combination.

    Component vectors are in submission order; ``None`` marks a column the
    source table does not print.  ``rounds`` maps a policy name to the
    published per-round quantum sequence of each process.
    """

    name: str
    bursts: Tuple[int, ...]
    priorities: Tuple[int, ...]
    static_ots: Optional[int]  # None = dynamic Range-derived OTS
    ots: Optional[Tuple[int, ...]] = None
    pc: Optional[Tuple[int, ...]] = None
    sc: Optional[Tuple[int, ...]] = None
    csc: Optional[Tuple[int, ...]] = None
    its: Optional[Tuple[int, ...]] = None
    rounds: Dict[str, Dict[int, Tuple[int, ...]]] = field(default_factory=dict)


REFERENCE_TABLES: Tuple[ReferenceTable, ...] = (
    ReferenceTable(
        name="illustration",
        bursts=(25, 60, 12, 43, 5),
        priorities=(3, 1, 2, 1, 1),
        static_ots=None,
        ots=(11, 33, 17, 33, 33),
        pc=(0, 1, 0, 1, 1),
        sc=(0, 0, 1, 0, 1),
        csc=(0, 0, 12, 9, 5),
        its=(11, 34, 30, 43, 5),
    ),
    ReferenceTable(
        name="increasing",
        bursts=(5, 12, 16, 21, 23),
        priorities=(2, 3, 1, 4, 5),
        static_ots=None,
        ots=(7, 5, 14, 4, 3),
        csc=(5, 0, 2, 0, 0),
        its=(12, 5, 17, 4, 3),
        rounds={
            "proposed": {
                1: (5,),
                2: (3, 5, 4),
                3: (9, 7),
                4: (2, 3, 5, 8, 3),
                5: (2, 3, 5, 8, 5),
            }
        },
    ),
    ReferenceTable(
        name="increasing-static4",
        bursts=(5, 12, 16, 21, 23),
        priorities=(2, 3, 1, 4, 5),
        static_ots=4,
        ots=(4, 4, 4, 4, 4),
        pc=(0, 0, 1, 0, 0),
        sc=(0, 0, 0, 0, 0),
        csc=(1, 0, 0, 0, 0),
        its=(5, 4, 5, 4, 4),
        rounds={
            "pbdrr": {
                1: (5,),
                2: (2, 3, 7),
                3: (3, 5, 8),
                4: (2, 3, 5, 8, 3),
                5: (2, 3, 5, 8, 5),
            }
        },
    ),
    ReferenceTable(
        name="random",
        bursts=(11, 53, 8, 41, 20),
        priorities=(3, 1, 2, 4, 5),
        static_ots=None,
        ots=(10, 31, 16, 8, 6),
        csc=(1, 21, 8, 0, 0),
        its=(11, 53, 25, 8, 7),
        rounds={
            "proposed": {
                1: (6, 5),
                2: (27, 26),
                3: (8,),
                4: (4, 6, 9, 15, 7),
                5: (7, 13),
            }
        },
    ),
    ReferenceTable(
        name="random-static4",
        bursts=(11, 53, 8, 41, 20),
        priorities=(3, 1, 2, 4, 5),
        static_ots=4,
        ots=(4, 4, 4, 4, 4),
        pc=(0, 1, 0, 0, 0),
        sc=(0, 0, 1, 0, 1),
        csc=(0, 0, 3, 0, 0),
        its=(4, 5, 8, 4, 5),
        rounds={
            "pbdrr": {
                1: (2, 3, 6),
                2: (3, 5, 8, 12, 18, 7),
                3: (8,),
                4: (2, 3, 5, 8, 12, 11),
                5: (5, 10, 5),
            }
        },
    ),
)


def find_reference(
    w: Workload, static_ots: Optional[int] = None
) -> Optional[ReferenceTable]:
    """Reference table matching this workload and OTS mode, if any."""
    for table in REFERENCE_TABLES:
        if (
            table.bursts == w.bursts
            and table.priorities == w.priorities
            and table.static_ots == static_ots
        ):
            return table
    return None


def component_notes(
    w: Workload,
    comps: Sequence[SliceComponents],
    static_ots: Optional[int] = None,
) -> List[str]:
    """Footnotes for component cells where the published table disagrees with
    the rule-faithful computation.  Empty when the workload is not a benchmark
    dataset or all cells agree."""
    table = find_reference(w, static_ots)
    if table is None:
        return []
    notes = []
    for i, (p, c) in enumerate(zip(w, comps)):
        for name in _COMPONENT_FIELDS:
            published, computed = getattr(table, name), getattr(c, name)
            if published is not None and published[i] != computed:
                notes.append(
                    f"P{p.pid} {name.upper()}: published value {published[i]}"
                    f" differs from rule-derived {computed}"
                )
    return notes


def quantum_notes(
    w: Workload,
    policy_name: str,
    trace: ScheduleTrace,
    static_ots: Optional[int] = None,
) -> List[str]:
    """Footnotes for per-round quanta where the published matrix disagrees
    with the trace.  The ``static_ots`` table is searched before the dynamic one."""
    tables = (find_reference(w, static_ots), find_reference(w))
    table = next((t for t in tables if t and policy_name in t.rounds), None)
    if table is None:
        return []
    published = table.rounds[policy_name]
    actual: Dict[int, List[int]] = {p.pid: [] for p in w}
    for seg in trace.segments:
        actual[seg.pid].append(seg.quantum)
    notes = []
    for pid in sorted(published):
        got = tuple(actual.get(pid, ()))
        if got != published[pid]:
            notes.append(
                f"P{pid} round quanta: published {published[pid]}"
                f" differ from rule-derived {got}"
            )
    return notes
