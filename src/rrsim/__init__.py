"""Deterministic single-CPU scheduling simulator: dynamic time-slice round
robin combined with shortest-remaining-time ordering, the comparator
policies it is benchmarked against, and workload/metrics/report tooling."""

from .engine import DispatchSegment, ScheduleTrace, simulate
from .metrics import MetricsSummary, ProcessMetrics, compute_metrics, format_average
from .schedulers import (
    DEFAULT_STATIC_OTS,
    SchedulingPolicy,
    classic_rr_policy,
    fcfs_policy,
    pbdrr_policy,
    policy_from_name,
    proposed_policy,
    srtn_policy,
    static_its_rr_policy,
)
from .timeslice import SliceComponents, compute_components, compute_range
from .workload import (
    ProcessSpec,
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
    "simulate",
    "MetricsSummary",
    "ProcessMetrics",
    "compute_metrics",
    "format_average",
    "DEFAULT_STATIC_OTS",
    "SchedulingPolicy",
    "classic_rr_policy",
    "fcfs_policy",
    "pbdrr_policy",
    "policy_from_name",
    "proposed_policy",
    "srtn_policy",
    "static_its_rr_policy",
    "SliceComponents",
    "compute_components",
    "compute_range",
    "ProcessSpec",
    "Workload",
    "WorkloadError",
    "generate_workload",
    "parse_workload",
    "serialize_workload",
    "workload",
]
