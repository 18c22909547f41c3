"""Concrete scheduling policies.

A policy is plain data: an order flag (re-sort by remaining burst at each
round boundary, or keep submission order), the workload's pids in submission
order, and columns aligned with them: the base quanta and optional SC bits.
Without SC every grant is the base: the ITS (its-rr), q (rr:q) or the burst
(srtn, fcfs).  With SC, ``simulate`` grows each pid's quantum from its base
ITS, round by round: the Range OTS gives the ITS of ``proposed``, a static OTS
that of ``pbdrr`` and ``its-rr``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from .timeslice import SliceComponents, compute_components
from .workload import Workload, WorkloadError, cut, integer, quoted

DEFAULT_STATIC_OTS = 4


@dataclass(frozen=True)
class SchedulingPolicy:
    name: str
    # dispatch by ascending remaining burst each round, else in submission order
    srtn_order: bool
    # the pids of the workload the policy is for, in submission order
    pids: Tuple[int, ...]
    # aligned with pids: fixed quantum, or the ITS the dynamic quantum grows from
    base: Tuple[int, ...]
    # aligned with pids: shortness component of the dynamic quantum; None: fixed quanta
    sc: Optional[Tuple[int, ...]] = None


# slice policy -> (dispatch in SRTN order, quantum grows from the ITS, OTS is static)
_SLICE_POLICIES = {"proposed": (True, True, False), "pbdrr": (False, True, True),
                   "its-rr": (False, False, True)}
POLICY_NAMES = (*_SLICE_POLICIES, "rr:<q>", "srtn", "fcfs")


def policy_from_name(
    name: str, w: Workload, static_ots: int = DEFAULT_STATIC_OTS,
    components: Callable[..., SliceComponents] = compute_components,
) -> SchedulingPolicy:
    """The policy ``name`` for ``w``: one of :data:`POLICY_NAMES`,
    case-insensitive, with ``rr:<q>`` naming a fixed quantum such as ``rr:7``.
    ``proposed`` reads its ITS from ``components(w, static_ots=None)``, the Range
    OTS, and ``pbdrr`` and ``its-rr`` from ``components(w, static_ots=static_ots)``;
    ``srtn`` and ``fcfs`` grant each burst whole."""
    name = name.strip().lower()
    key, _, q = name.partition(":")
    if key == "rr":
        if not q:
            raise ValueError("policy 'rr' needs a quantum: use rr:<q>")
        try:
            quantum = integer(q, "quantum")
        except WorkloadError:  # the digit bound, named rather than the digits echoed
            raise
        except ValueError:
            raise ValueError(f"bad quantum in policy name {quoted(name)}") from None
        if quantum < 1:
            raise ValueError(f"quantum must be >= 1, got {cut(quantum)}")
        return SchedulingPolicy(f"rr:{quantum}", False, w.pids, (quantum,) * len(w.pids))
    if name in ("srtn", "fcfs"):
        return SchedulingPolicy(name, name == "srtn", w.pids, w.bursts)
    if name not in _SLICE_POLICIES:
        raise ValueError(
            f"unknown policy {quoted(name)}; expected one of {', '.join(POLICY_NAMES)}"
        )
    srtn_order, grows, static = _SLICE_POLICIES[name]
    c = components(w, static_ots=static_ots if static else None)
    return SchedulingPolicy(name, srtn_order, w.pids, tuple(c.its), tuple(c.sc) if grows else None)
