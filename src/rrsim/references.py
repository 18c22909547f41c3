"""Published reference tables for the three benchmark workloads.

These are the previously published slice-component tables and per-round
quantum matrices this simulator is benchmarked against.  A handful of their
cells are arithmetically inconsistent with the stated rules; the simulator
always reports rule-faithful values, and the ``--paper-notes`` CLI flag uses
this module to annotate cells where the published figure differs.
"""
from __future__ import annotations

from typing import Dict, List, Optional

from .engine import ScheduleTrace
from .schedulers import _SLICE_POLICIES
from .timeslice import COMPONENT_FIELDS, SliceComponents
from .workload import Workload

# (bursts, priorities) of each published workload, in submission order
ILLUSTRATION = ((25, 60, 12, 43, 5), (3, 1, 2, 1, 1))
INCREASING = ((5, 12, 16, 21, 23), (2, 3, 1, 4, 5))
RANDOM = ((11, 53, 8, 41, 20), (3, 1, 2, 4, 5))

# Published component vectors by (bursts, priorities, static OTS or None for
# the Range-derived OTS).  A field the source table does not print is absent.
COMPONENTS = {
    ILLUSTRATION + (None,): {
        "ots": (11, 33, 17, 33, 33), "pc": (0, 1, 0, 1, 1), "sc": (0, 0, 1, 0, 1),
        "csc": (0, 0, 12, 9, 5), "its": (11, 34, 30, 43, 5),
    },
    INCREASING + (None,): {
        "ots": (7, 5, 14, 4, 3), "csc": (5, 0, 2, 0, 0), "its": (12, 5, 17, 4, 3),
    },
    INCREASING + (4,): {
        "ots": (4, 4, 4, 4, 4), "pc": (0, 0, 1, 0, 0), "sc": (0, 0, 0, 0, 0),
        "csc": (1, 0, 0, 0, 0), "its": (5, 4, 5, 4, 4),
    },
    RANDOM + (None,): {
        "ots": (10, 31, 16, 8, 6), "csc": (1, 21, 8, 0, 0), "its": (11, 53, 25, 8, 7),
    },
    RANDOM + (4,): {
        "ots": (4, 4, 4, 4, 4), "pc": (0, 1, 0, 0, 0), "sc": (0, 0, 1, 0, 1),
        "csc": (0, 0, 3, 0, 0), "its": (4, 5, 8, 4, 5),
    },
}

# Published per-round quanta of each process, in submission order, by
# (bursts, priorities, policy, static OTS or None).
ROUNDS = {
    INCREASING + ("proposed", None): (
        (5,), (3, 5, 4), (9, 7), (2, 3, 5, 8, 3), (2, 3, 5, 8, 5),
    ),
    INCREASING + ("pbdrr", 4): (
        (5,), (2, 3, 7), (3, 5, 8), (2, 3, 5, 8, 3), (2, 3, 5, 8, 5),
    ),
    RANDOM + ("proposed", None): (
        (6, 5), (27, 26), (8,), (4, 6, 9, 15, 7), (7, 13),
    ),
    RANDOM + ("pbdrr", 4): (
        (2, 3, 6), (3, 5, 8, 12, 18, 7), (8,), (2, 3, 5, 8, 12, 11), (5, 10, 5),
    ),
}


def component_notes(
    w: Workload,
    comps: SliceComponents,
    static_ots: Optional[int] = None,
) -> List[str]:
    """Footnotes for component cells where the published table disagrees with
    the rule-faithful computation, process by process in submission order.
    Empty when the workload is not a benchmark dataset or all cells agree."""
    published = COMPONENTS.get((w.bursts, w.priorities, static_ots), {})
    notes = []
    for i, pid in enumerate(w.pids):
        for name in COMPONENT_FIELDS:
            computed = getattr(comps, name)[i]
            if name in published and published[name][i] != computed:
                notes.append(
                    f"P{pid} {name.upper()}: published value {published[name][i]}"
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
    with the trace, matched to the workload's processes by submission
    position.  The matrix is the one for the OTS the policy reads:
    ``static_ots`` for ``pbdrr`` and ``its-rr``, the Range OTS for ``proposed``."""
    static = _SLICE_POLICIES.get(policy_name, (False,) * 3)[2]
    published = ROUNDS.get((w.bursts, w.priorities, policy_name, static_ots if static else None))
    if published is None:
        return []
    actual: Dict[int, List[int]] = {pid: [] for pid in w.pids}
    for pid, quantum in zip(trace.segments.pid, trace.segments.quantum):
        actual[pid].append(quantum)
    notes = []
    for pid, quanta in zip(w.pids, published):
        got = tuple(actual[pid])
        if got != quanta:
            notes.append(
                f"P{pid} round quanta: published {quanta} differ from rule-derived {got}"
            )
    return notes
