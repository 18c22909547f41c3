"""Process workload definitions, CSV parsing/serialization, and synthetic generation."""
from __future__ import annotations

import csv
import io
import random
from dataclasses import dataclass
from typing import List, Tuple

CSV_HEADER = ("id", "burst", "priority")
ORDERS = ("increasing", "decreasing", "random")
# The most processes generate_workload makes, checked before it allocates any.
MAX_GENERATED = 10**6
# The most digits of a process's id, burst or priority and of any integer the
# CLI reads.  Python refuses to convert an integer of more digits than its limit
# to or from text, and that limit can be set as low as 640, so any sum or ITS
# that rrsim prints from such numbers still converts.
MAX_DIGITS = 600
_BOUND = 10**MAX_DIGITS


class WorkloadError(ValueError):
    """Raised for invalid workloads, malformed CSV and numbers past ``MAX_DIGITS`` digits."""


def check_process(pid: int, burst: int, priority: int) -> None:
    """The rules of one process: id, CPU burst in time units and user priority
    (1 = most urgent) are each at least 1, and of at most ``MAX_DIGITS`` digits."""
    if pid < 1:
        raise WorkloadError(f"process id must be a positive integer, got {pid}")
    if pid >= _BOUND:  # not printed: it may have more digits than str() takes
        raise WorkloadError(f"process id has more than {MAX_DIGITS} digits")
    if burst < 1:
        raise WorkloadError(f"non-positive burst {burst} (P{pid})")
    if burst >= _BOUND:
        raise WorkloadError(f"burst has more than {MAX_DIGITS} digits (P{pid})")
    if priority < 1:
        raise WorkloadError(f"priority must be >= 1, got {priority} (P{pid})")
    if priority >= _BOUND:
        raise WorkloadError(f"priority has more than {MAX_DIGITS} digits (P{pid})")


_COLUMNS = ("pids", "bursts", "priorities")


@dataclass(frozen=True)
class Workload:
    """Ordered set of processes, held as three int columns; list order is the
    submission order and is meaningful (the shortness component compares each
    burst against its predecessor).  ``Workload(pids, bursts, priorities)``
    takes any iterables and stores tuples."""

    pids: Tuple[int, ...]
    bursts: Tuple[int, ...]
    priorities: Tuple[int, ...]

    def __post_init__(self) -> None:
        """Check the columns whole: equal lengths, then at least one process,
        then each value (row by row through :func:`check_process`, so the
        first bad row's error is raised), then unique ids."""
        columns = tuple(self.pids), tuple(self.bursts), tuple(self.priorities)
        self.__dict__.update(zip(_COLUMNS, columns))  # past the frozen __setattr__
        if len(set(map(len, columns))) > 1:
            raise WorkloadError("pids, bursts and priorities differ in length")
        if not columns[0]:
            raise WorkloadError("workload must contain at least one process")
        if min(map(min, columns)) < 1 or max(map(max, columns)) >= _BOUND:
            for row in zip(*columns):
                check_process(*row)
        if len(set(columns[0])) < len(columns[0]):
            seen = set()
            for pid in columns[0]:
                if pid in seen:
                    raise WorkloadError(f"duplicate process id {pid}")
                seen.add(pid)

    def __len__(self) -> int:
        return len(self.pids)


def workload(bursts, priorities=None) -> Workload:
    """Convenience constructor: ids 1..n in order, default priority 1."""
    if priorities is None:
        priorities = [1] * len(bursts)
    return Workload(range(1, len(bursts) + 1), bursts, priorities)


def quoted(text: str) -> str:
    """User text as an error message shows it: its ``repr``, or the first 40
    characters of that and ``…`` when it is longer, so no input makes a long line."""
    shown = repr(text)
    return shown if len(shown) <= 40 else shown[:40] + "…"


def integer(text: str, what: str = "value") -> int:
    """The one integer syntax of workload CSV fields and CLI options: an
    optional ``-`` and the ASCII digits ``0-9``, with surrounding whitespace.
    ``int`` alone would also take ``+3``, ``1_0`` and non-ASCII digits.
    Raises ``ValueError`` naming ``what`` for any other text, and ``WorkloadError``
    for more than ``MAX_DIGITS`` digits after leading zeros, before ``int`` sees them."""
    digits = text.strip().removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{what} is not an integer: {quoted(text)}")
    if len(digits) > MAX_DIGITS:  # int() counts leading zeros against its own limit
        value = digits.lstrip("0") or "0"
        if len(value) > MAX_DIGITS:
            raise WorkloadError(f"{what} has more than {MAX_DIGITS} digits")
        text = text.replace(digits, value)
    return int(text)


_HEADERS = (CSV_HEADER, CSV_HEADER + ("arrival",))


def _header(row: List[str]) -> Tuple[str, ...]:
    return tuple(cell.strip().lower() for cell in row)


def parse_workload(text: str) -> Workload:
    """Parse CSV with header ``id,burst,priority`` (an optional ``arrival`` column is
    accepted but must be zero everywhere; the model has no arrival events).
    Lines end where the csv module ends them: at ``\\n``, ``\\r\\n`` or ``\\r``.
    Errors name a data row by its line in ``text``, blank lines counted.

    A header row followed only by rows of ASCII digits, no cell empty, is
    checked a column at a time.  Any other text, and any failed check, is
    parsed again row by row, which finds the error and its row."""
    try:
        rows = list(csv.reader(io.StringIO(text, newline="")))
    except csv.Error as exc:  # a NUL before Python 3.11, or an over-long field
        raise WorkloadError(f"bad CSV: {exc}") from None
    if len(rows) > 1 and _header(rows[0]) in _HEADERS and set(map(len, rows)) == {len(rows[0])}:
        columns = list(zip(*rows[1:]))
        digits = "".join(map("".join, columns))
        if all(map(all, columns)) and digits.isascii() and digits.isdigit():
            try:
                pids, bursts, priorities, *arrival = [tuple(map(int, c)) for c in columns]
                if not any(map(any, arrival)):
                    return Workload(pids, bursts, priorities)
            except ValueError:  # a failed check, or more digits than int() takes
                pass
    return _parse_rows(text)


def _parse_rows(text: str) -> Workload:
    """:func:`parse_workload` one row at a time: each row's checks in turn."""
    reader = csv.reader(io.StringIO(text, newline=""))
    # each kept row with the number of the line it ends on
    rows = [(reader.line_num, r) for r in reader if any(cell.strip() for cell in r)]
    if not rows:
        raise WorkloadError("empty workload CSV")
    header = _header(rows[0][1])
    if header not in _HEADERS:
        raise WorkloadError(f"bad header {quoted(','.join(header))}; expected 'id,burst,priority'")
    if len(rows) == 1:
        raise WorkloadError("workload CSV has no data rows")

    processes = []
    for line, row in rows[1:]:
        if len(row) != len(header):
            raise WorkloadError(f"row {line}: expected {len(header)} fields, got {len(row)}")
        try:
            process = tuple(map(integer, row, CSV_HEADER))
            check_process(*process)
            arrival = integer(row[3], "arrival") if len(row) == 4 else 0
        except ValueError as exc:
            raise WorkloadError(f"row {line}: {exc}") from None
        if arrival:
            raise WorkloadError(
                f"row {line}: nonzero arrival time {arrival} is unsupported by"
                " the model (all processes are present at t=0)"
            )
        processes.append(process)

    return Workload(*zip(*processes))


def serialize_workload(w: Workload) -> str:
    """Inverse of :func:`parse_workload`: exact header plus one row per process in order."""
    rows = map("%s,%s,%s\n".__mod__, zip(w.pids, w.bursts, w.priorities))
    return ",".join(CSV_HEADER) + "\n" + "".join(rows)



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
    if n > MAX_GENERATED:
        raise WorkloadError(f"n must be <= {MAX_GENERATED}, got {n}")
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
