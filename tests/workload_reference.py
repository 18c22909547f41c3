"""Reference statement of workload CSV parsing, used to check
``rrsim.parse_workload``.

The text is read one row at a time and each row's checks run in turn, the
way the format is specified.  The integer syntax and every error message are
restated here, and nothing calls rrsim code, so a slip in the library's
column-at-a-time checks cannot hide in a helper that both share.
"""
import csv
import io
import re

HEADER = ("id", "burst", "priority")
MAX_DIGITS = 600  # digits of a number, not counting leading zeros


def shown(text):
    """How an error message echoes user text: the ``repr``, cut to its first 40
    characters followed by an ellipsis when it is longer than 40."""
    if len(repr(text)) > 40:
        return repr(text)[:40] + "\u2026"
    return repr(text)


def integer(text, what):
    """An optional ``-`` and ASCII digits, with surrounding whitespace, of at
    most ``MAX_DIGITS`` digits after the leading zeros."""
    if not re.fullmatch(r"-?[0-9]+", text.strip()):
        raise ValueError(f"{what} is not an integer: {shown(text)}")
    sign, digits = re.fullmatch(r"(-?)0*([0-9]*)", text.strip()).groups()
    if len(digits) > MAX_DIGITS:
        raise ValueError(f"{what} has more than {MAX_DIGITS} digits")
    return int(sign + (digits or "0"))


def check_process(pid, burst, priority):
    if pid < 1:
        raise ValueError(f"process id must be a positive integer, got {pid}")
    if burst < 1:
        raise ValueError(f"non-positive burst {burst} (P{pid})")
    if priority < 1:
        raise ValueError(f"priority must be >= 1, got {priority} (P{pid})")


def parse(text):
    """(pids, bursts, priorities) as tuples, or the error message as a string."""
    reader = csv.reader(io.StringIO(text, newline=""))
    rows = []
    try:
        for row in reader:
            if any(cell.strip() for cell in row):  # blank rows are skipped
                rows.append((reader.line_num, row))
    except csv.Error as exc:
        return f"bad CSV: {exc}"
    if not rows:
        return "empty workload CSV"
    header = tuple(cell.strip().lower() for cell in rows[0][1])
    if header not in (HEADER, HEADER + ("arrival",)):
        return f"bad header {shown(','.join(header))}; expected 'id,burst,priority'"
    if len(rows) == 1:
        return "workload CSV has no data rows"
    processes = []
    for line, row in rows[1:]:
        if len(row) != len(header):
            return f"row {line}: expected {len(header)} fields, got {len(row)}"
        try:
            pid, burst, priority = (integer(cell, what) for cell, what in zip(row, HEADER))
            check_process(pid, burst, priority)
            arrival = integer(row[3], "arrival") if len(row) == 4 else 0
        except ValueError as exc:
            return f"row {line}: {exc}"
        if arrival:
            return (f"row {line}: nonzero arrival time {arrival} is unsupported by"
                    " the model (all processes are present at t=0)")
        processes.append((pid, burst, priority))
    seen = set()
    for pid, _, _ in processes:
        if pid in seen:
            return f"duplicate process id {pid}"
        seen.add(pid)
    return tuple(zip(*processes))
