"""Process workload definitions, CSV parsing/serialization, and synthetic generation."""
from __future__ import annotations

import csv
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Tuple

CSV_HEADER = ("id", "burst", "priority")
ORDERS = ("increasing", "decreasing", "random")


class WorkloadError(ValueError):
    """Raised for structurally invalid workloads or malformed workload CSV."""


@dataclass(frozen=True)
class ProcessSpec:
    """One process: integer id, CPU burst in time units, user priority (1 = most urgent)."""

    pid: int
    burst: int
    priority: int

    def __post_init__(self) -> None:
        if self.pid < 1:
            raise WorkloadError(f"process id must be a positive integer, got {self.pid}")
        if self.burst < 1:
            raise WorkloadError(f"non-positive burst {self.burst} (P{self.pid})")
        if self.priority < 1:
            raise WorkloadError(f"priority must be >= 1, got {self.priority} (P{self.pid})")


@dataclass(frozen=True)
class Workload:
    """Ordered set of processes; list order is the submission order and is meaningful
    (the shortness component compares each burst against its predecessor)."""

    processes: Tuple[ProcessSpec, ...]

    def __post_init__(self) -> None:
        if not self.processes:
            raise WorkloadError("workload must contain at least one process")
        object.__setattr__(self, "processes", tuple(self.processes))
        seen = set()
        for p in self.processes:
            if p.pid in seen:
                raise WorkloadError(f"duplicate process id {p.pid}")
            seen.add(p.pid)

    def __len__(self) -> int:
        return len(self.processes)

    def __iter__(self) -> Iterator[ProcessSpec]:
        return iter(self.processes)

    @cached_property
    def bursts(self) -> Tuple[int, ...]:
        return tuple(p.burst for p in self.processes)

    @cached_property
    def priorities(self) -> Tuple[int, ...]:
        return tuple(p.priority for p in self.processes)

    @cached_property
    def pids(self) -> Tuple[int, ...]:
        return tuple(p.pid for p in self.processes)


def workload(bursts, priorities=None) -> Workload:
    """Convenience constructor: ids 1..n in order, default priority 1."""
    if priorities is None:
        priorities = [1] * len(bursts)
    if len(priorities) != len(bursts):
        raise WorkloadError("bursts and priorities must have equal length")
    return Workload(tuple(
        ProcessSpec(i + 1, b, pr) for i, (b, pr) in enumerate(zip(bursts, priorities))
    ))


def integer(text: str, what: str = "value") -> int:
    """The one integer syntax of workload CSV fields and CLI options: an
    optional ``-`` and the ASCII digits ``0-9``, with surrounding whitespace.
    ``int`` alone would also take ``+3``, ``1_0`` and non-ASCII digits.
    Raises ``ValueError`` naming ``what`` for any other text."""
    digits = text.strip().removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{what} is not an integer: {text!r}")
    return int(text)


def parse_workload(text: str) -> Workload:
    """Parse CSV with header ``id,burst,priority`` (an optional ``arrival`` column is
    accepted but must be zero everywhere; the model has no arrival events).
    Errors name a data row by its line in ``text``, blank lines counted."""
    reader = csv.reader(text.splitlines())
    try:  # each kept row with the number of the line it ends on
        rows = [(reader.line_num, r) for r in reader if any(cell.strip() for cell in r)]
    except csv.Error as exc:  # a NUL before Python 3.11, or an over-long field
        raise WorkloadError(f"bad CSV: {exc}") from None
    if not rows:
        raise WorkloadError("empty workload CSV")
    header = tuple(cell.strip().lower() for cell in rows[0][1])
    if header not in (CSV_HEADER, CSV_HEADER + ("arrival",)):
        raise WorkloadError(f"bad header {','.join(header)!r}; expected 'id,burst,priority'")
    if len(rows) == 1:
        raise WorkloadError("workload CSV has no data rows")

    processes = []
    for line, row in rows[1:]:
        if len(row) != len(header):
            raise WorkloadError(f"row {line}: expected {len(header)} fields, got {len(row)}")
        try:
            processes.append(ProcessSpec(*map(integer, row, CSV_HEADER)))
            arrival = integer(row[3], "arrival") if len(row) == 4 else 0
        except ValueError as exc:
            raise WorkloadError(f"row {line}: {exc}") from None
        if arrival:
            raise WorkloadError(
                f"row {line}: nonzero arrival time {arrival} is unsupported by"
                " the model (all processes are present at t=0)"
            )

    return Workload(tuple(processes))


def serialize_workload(w: Workload) -> str:
    """Inverse of :func:`parse_workload`: exact header plus one row per process in order."""
    lines = [",".join(CSV_HEADER)]
    lines.extend(f"{p.pid},{p.burst},{p.priority}" for p in w)
    return "\n".join(lines) + "\n"


def generate_workload(
    n: int,
    order: str,
    burst_range: Tuple[int, int],
    priority_range: Tuple[int, int],
    seed: int,
) -> Workload:
    """Deterministically generate ``n`` processes with bursts shaped per ``order``
    (increasing / decreasing / random) and priorities uniform in ``priority_range``."""
    if n < 1:
        raise WorkloadError(f"n must be >= 1, got {n}")
    if order not in ORDERS:
        raise WorkloadError(f"order must be one of {ORDERS}, got {order!r}")
    for name, (lo, hi) in (("burst", burst_range), ("priority", priority_range)):
        if not (1 <= lo <= hi):
            raise WorkloadError(f"invalid {name} range [{lo}, {hi}]")

    rng = random.Random(seed)
    bursts = [rng.randint(*burst_range) for _ in range(n)]
    if order == "increasing":
        bursts.sort()
    elif order == "decreasing":
        bursts.sort(reverse=True)
    priorities = [rng.randint(*priority_range) for _ in range(n)]
    return workload(bursts, priorities)
