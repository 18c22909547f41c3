"""Deterministic single-CPU scheduling simulator: dynamic time-slice round
robin combined with shortest-remaining-time ordering, the comparator
policies it is benchmarked against, and workload/metrics/report tooling."""

from .engine import DispatchSegment, ScheduleTrace, Segments, simulate
from .metrics import MetricsSummary, compute_metrics, format_average
from .schedulers import (
    DEFAULT_STATIC_OTS,
    SchedulingPolicy,
    policy_from_name,
)
from .timeslice import SliceComponents, compute_components, compute_range
from .workload import (
    Workload,
    WorkloadError,
    generate_workload,
    parse_workload,
    serialize_workload,
    workload,
)

__version__ = "0.1.0"

__all__ = [
    "DispatchSegment",
    "ScheduleTrace",
    "Segments",
    "simulate",
    "MetricsSummary",
    "compute_metrics",
    "format_average",
    "DEFAULT_STATIC_OTS",
    "SchedulingPolicy",
    "policy_from_name",
    "SliceComponents",
    "compute_components",
    "compute_range",
    "Workload",
    "WorkloadError",
    "generate_workload",
    "parse_workload",
    "serialize_workload",
    "workload",
]
