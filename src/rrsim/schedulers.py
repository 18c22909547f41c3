"""Concrete scheduling policies.

A policy is plain data: an order flag (re-sort by remaining burst at each
round boundary, or keep submission order), a base-quantum table and an
optional SC table.  Without SC every grant is the base: the ITS (its-rr), q
(rr:q) or the burst (srtn, fcfs).  With SC, ``simulate`` grows each pid's
quantum from its base ITS, round by round: the Range OTS gives the ITS of
``proposed``, a static OTS that of ``pbdrr`` and ``its-rr``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from .timeslice import compute_components
from .workload import Workload, integer

DEFAULT_STATIC_OTS = 4


@dataclass(frozen=True)
class SchedulingPolicy:
    name: str
    # dispatch by ascending remaining burst each round, else in submission order
    srtn_order: bool
    # pid -> fixed quantum, or the ITS the dynamic quantum grows from
    base: Dict[int, int]
    # pid -> shortness component for the dynamic quantum; None: quanta are fixed
    sc: Optional[Dict[int, int]] = None


def _its_policy(
    name: str, w: Workload, static_ots: Optional[int], *, srtn_order: bool, dynamic: bool
) -> SchedulingPolicy:
    """Grant the dynamic quantum grown from each ITS, or the full ITS on every
    visit.  ``static_ots`` None means the Range-derived OTS."""
    c = compute_components(w, static_ots=static_ots)
    sc = dict(zip(w.pids, c.sc)) if dynamic else None
    return SchedulingPolicy(name, srtn_order, dict(zip(w.pids, c.its)), sc)


def proposed_policy(w: Workload) -> SchedulingPolicy:
    """Dynamic RR + SRTN: ascending-rbt order each round, ITS-derived quantum."""
    return _its_policy("proposed", w, None, srtn_order=True, dynamic=True)


def pbdrr_policy(w: Workload, static_ots: int = DEFAULT_STATIC_OTS) -> SchedulingPolicy:
    """Priority-based dynamic RR comparator: fixed submission order every round,
    same dynamic quantum rules, but ITS built from a static OTS constant."""
    return _its_policy("pbdrr", w, static_ots, srtn_order=False, dynamic=True)


def static_its_rr_policy(
    w: Workload, static_ots: int = DEFAULT_STATIC_OTS
) -> SchedulingPolicy:
    """Static-ITS RR comparator: cyclic submission order, the full ITS granted
    on every visit, no quantum growth and no finish-early rule."""
    return _its_policy("its-rr", w, static_ots, srtn_order=False, dynamic=False)


def classic_rr_policy(w: Workload, q: int) -> SchedulingPolicy:
    """Textbook round robin with a fixed quantum."""
    if q < 1:
        raise ValueError(f"quantum must be >= 1, got {q}")
    return SchedulingPolicy(f"rr:{q}", False, dict.fromkeys(w.pids, q))


def srtn_policy(w: Workload) -> SchedulingPolicy:
    """Shortest remaining time next.  With every arrival at t=0 this runs the
    processes to completion in ascending-burst order (ties by pid)."""
    return SchedulingPolicy("srtn", True, dict(zip(w.pids, w.bursts)))


def fcfs_policy(w: Workload) -> SchedulingPolicy:
    """First come first served: submission order, one grant per process."""
    return SchedulingPolicy("fcfs", False, dict(zip(w.pids, w.bursts)))


def _parse_quantum(q: str) -> int:
    if not q:
        raise ValueError("policy 'rr' needs a quantum: use rr:<q>")
    try:
        return integer(q)
    except ValueError:
        raise ValueError(f"bad quantum in policy name {'rr:' + q!r}") from None


# policy name -> factory(workload, static OTS, the text after "rr:")
_POLICIES = {
    "proposed": lambda w, ots, q: proposed_policy(w),
    "pbdrr": lambda w, ots, q: pbdrr_policy(w, ots),
    "its-rr": lambda w, ots, q: static_its_rr_policy(w, ots),
    "rr:<q>": lambda w, ots, q: classic_rr_policy(w, _parse_quantum(q)),
    "srtn": lambda w, ots, q: srtn_policy(w),
    "fcfs": lambda w, ots, q: fcfs_policy(w),
}
POLICY_NAMES = tuple(_POLICIES)


def policy_from_name(
    name: str, w: Workload, static_ots: int = DEFAULT_STATIC_OTS
) -> SchedulingPolicy:
    """Resolve a policy name: one of :data:`POLICY_NAMES`, case-insensitive,
    with ``rr:<q>`` naming a fixed quantum such as ``rr:7``."""
    name = name.strip().lower()
    key, _, q = name.partition(":")
    make = _POLICIES.get("rr:<q>" if key == "rr" else name)
    if make is None:
        raise ValueError(
            f"unknown policy {name!r}; expected one of {', '.join(POLICY_NAMES)}"
        )
    return make(w, static_ots, q)
