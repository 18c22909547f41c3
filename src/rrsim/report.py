"""CLI entry point and rendering/export helpers.

Subcommands: ``simulate`` (one workload, one policy), ``compare`` (one
workload, several policies), ``generate`` (synthetic workload CSV), and
``components`` (the OTS/PC/SC/CSC/ITS table).  Each command returns its text
and the JSON document and CSV table of what it prints; :func:`run_cli` writes
``--json``, then ``--csv``, then prints, so a failed export prints nothing but
its ``error:`` line (a JSON file written before a failed CSV stays written).
"""
from __future__ import annotations

import argparse
import json
import sys
from bisect import bisect_left
from fractions import Fraction
from functools import cache
from itertools import compress, islice
from operator import attrgetter, ne
from typing import (
    Any, AnyStr, Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple,
)

from . import references
from .engine import SEGMENT_FIELDS, ScheduleTrace, Segments, simulate
from .metrics import (
    METRIC_FIELDS, MetricsError, MetricsSummary, check_trace, compute_metrics, format_average,
)
from .schedulers import DEFAULT_STATIC_OTS, POLICY_NAMES, policy_from_name
from .timeslice import COMPONENT_FIELDS, SliceComponents, check_static_ots, compute_components
from .workload import (
    CSV_HEADER,
    ORDERS,
    Workload,
    WorkloadError,
    check_process,
    generate_workload,
    integer,
    parse_workload,
    quoted,
    serialize_workload,
)


# ---------------------------------------------------------------------------
# rendering

def render_gantt(trace: ScheduleTrace) -> str:
    """ASCII Gantt chart: process labels over boundary times, one cell per run
    of back-to-back grants of one process.  A cell is ``" P<pid> "`` padded to
    its left time's length, then its right time's, so every time starts right
    under the ``|`` that opens its cell (the last under the closing ``|``).
    Like :func:`compute_metrics`, this checks nothing: ``trace`` must be one
    that :func:`check_trace` accepts, whose segments run back to back from t=0,
    so a run ends where the pid changes and the run ends rise.  The runs whose
    right time has D digits are one band; inside it a cell and its time's
    padding depend only on the pid, except at the band's first run, whose left
    time may be shorter.  Each row is one join over the cells, and the time
    row one ``%`` over the ends."""
    segs = trace.segments
    cut = [*map(ne, segs.pid, islice(segs.pid, 1, None)), True]  # each run's last segment
    pids, ends = list(compress(segs.pid, cut)), list(compress(segs.end, cut))
    left, lo = 1, 0  # the time row opens at 0
    cells, pieces = [], []  # pieces: each run's left time as "%d", then its padding
    while lo < len(ends):
        digits = len(str(ends[lo]))
        hi = bisect_left(ends, 10 ** digits, lo)
        band = pids[lo:hi]
        cell = {pid: f" P{pid} ".ljust(digits) for pid in set(band)}
        piece = {pid: "%d" + " " * (len(text) - digits) for pid, text in cell.items()}
        cells += map(cell.__getitem__, band)
        pieces += map(piece.__getitem__, band)
        pieces[lo] = "%d" + " " * (len(cells[lo]) - left)
        left, lo = digits, hi
    pieces.append("%d")
    return f"|{'|'.join(cells)}|\n" + " ".join(pieces) % (0, *ends)


def _render_table(columns: Dict[str, Sequence]) -> str:
    """``{header: column}`` (ints or strs) as text by one %-template: columns two spaces apart,
    each as wide as its header or widest cell (an int column's min or max), the last unpadded."""
    widths = [max(len(head), *map(len, cells)) if isinstance(cells[0], str)
              else max(len(head), len(str(min(cells))), len(str(max(cells))))
              for head, cells in columns.items()]
    row = ("%%-%ds  " * (len(widths) - 1) + "%%s") % tuple(widths[:-1])
    return "\n".join([row % tuple(columns), row % tuple(map("-".__mul__, widths)),
                      *_row_chunks(row, "\n", [*columns.values()])])


def _process_table(w: Workload, columns: Dict[str, Sequence[int]]) -> str:
    """The process, burst and priority columns of ``w``, then ``{header: int column}``."""
    return _render_table({"process": list(map("P%s".__mod__, w.pids)), "burst": w.bursts,
                          "priority": w.priorities, **columns})


def render_metrics(summary: MetricsSummary, w: Workload) -> str:
    """The per-process table and the averages of ``summary``, the metrics of ``w``."""
    return (
        _process_table(w, dict(zip(METRIC_FIELDS, attrgetter(*METRIC_FIELDS)(summary))))
        + f"\n\navg turnaround: {format_average(summary.avg_turnaround)}"
        + f"\navg waiting:    {format_average(summary.avg_waiting)}"
        + f"\ncontext switches: {summary.context_switches}"
    )


def render_components_table(w: Workload, comps: SliceComponents) -> str:
    table = _process_table(w, {name.upper(): getattr(comps, name) for name in COMPONENT_FIELDS})
    return f"{table}\n\nrange: {comps.slice_range}"


def _comparison_table(summaries: Dict[str, MetricsSummary]) -> Tuple[Dict[str, list], str]:
    """The compare table's columns, policy and averages as strs, CS as ints (the
    CSV writes each by %s), and its text."""
    columns = {
        "policy": list(summaries),
        "avg TAT": [format_average(s.avg_turnaround) for s in summaries.values()],
        "avg WT": [format_average(s.avg_waiting) for s in summaries.values()],
        "CS": [s.context_switches for s in summaries.values()],
    }
    return columns, _render_table(columns)


# ---------------------------------------------------------------------------
# machine-readable export: each command states its document once, with a
# _Table wherever rows repeat.  _write_json writes, to a file opened in binary,
# the bytes json's own dump writes with sorted keys and a two-space indent, and
# a newline; trace_to_dict and metrics_to_dict decode those same bytes, so
# _write_table alone lays a _Table out.

# Rows per chunk, so a long trace's text is never held whole: _row_chunks formats
# each as bytes for the JSON writer and as text for the CSV writer and text tables.
_CHUNK = 4096


class _Table(NamedTuple):
    """Integer columns: a list of objects or, when ``keyed``, an object keyed by
    a first column of pids, holding an object of the other columns or, without
    ``fields``, one value.  A keyed table's rows may come in any order.  A CSV
    table (never keyed) may also hold str cells, which its writer writes by %s."""

    fields: Tuple[str, ...]
    columns: Sequence[Sequence[int]]
    keyed: bool = False


def _workload_table(w: Workload) -> _Table:
    return _Table(CSV_HEADER, (w.pids, w.bursts, w.priorities))


def _segment_table(trace: ScheduleTrace) -> _Table:
    return _Table(SEGMENT_FIELDS, trace.segments.columns)


def _fraction_to_dict(value: Fraction) -> Dict[str, int]:
    return {"num": value.numerator, "den": value.denominator}


def _average_to_dict(value: Fraction) -> Dict[str, object]:
    return {"display": format_average(value), **_fraction_to_dict(value)}


def _trace_doc(w: Workload, policy_name: str, trace: ScheduleTrace) -> Dict[str, object]:
    done = trace.completion
    return {
        "workload": _workload_table(w),
        "policy": policy_name,
        "segments": _segment_table(trace),
        "completion": _Table((), (list(done), list(done.values())), keyed=True),
    }


def _metrics_doc(name: str, summary: MetricsSummary) -> Dict[str, object]:
    return {
        "policy": name,
        "avg_turnaround": _average_to_dict(summary.avg_turnaround),
        "avg_waiting": _average_to_dict(summary.avg_waiting),
        "context_switches": summary.context_switches,
        "per_process": _Table(METRIC_FIELDS,
                              attrgetter("pids", *METRIC_FIELDS)(summary), keyed=True),
    }


def _decoded(doc: Dict[str, object]) -> Dict[str, object]:
    """What ``json`` reads back from the bytes :func:`_write_value` writes for ``doc``."""
    parts: List[bytes] = []
    _write_value(parts.append, doc, b"\n")
    return json.loads(b"".join(parts))


def trace_to_dict(w: Workload, policy_name: str, trace: ScheduleTrace) -> Dict[str, object]:
    return _decoded(_trace_doc(w, policy_name, trace))


def metrics_to_dict(name: str, summary: MetricsSummary) -> Dict[str, object]:
    return _decoded(_metrics_doc(name, summary))


def _field(data: Dict[str, object], name: str, kind: type, expected: str):
    """``data[name]``, which must be a ``kind``."""
    value = data.get(name)
    if not isinstance(value, kind):
        got = repr(value) if name in data else "missing"
        raise MetricsError(f"trace field {name!r} is {got}, expected {expected}")
    return value


def _ints(row: object, names: Iterable[str], what: str) -> List[int]:
    """``row[name]`` for each of ``names``, each an ``int`` (JSON ``true`` is not)."""
    if not isinstance(row, dict):
        raise MetricsError(f"{what} row is {row!r}, expected an object")
    for name in names:
        if type(row.get(name)) is not int:
            got = repr(row[name]) if name in row else "missing"
            raise MetricsError(f"{what} field {name!r} is {got}, expected an integer")
    return [row[name] for name in names]


def trace_from_dict(data: object) -> Tuple[Workload, str, ScheduleTrace]:
    """Inverse of :func:`trace_to_dict`.  Raises ``MetricsError``, naming the
    field or workload row, for a missing or mistyped field, an invalid
    workload, a completion key that is not a pid of the workload, a pid's k-th
    segment not in round k, and an invalid schedule (see
    :func:`check_trace`)."""
    if not isinstance(data, dict):
        raise MetricsError(f"trace is a {type(data).__name__}, expected an object")
    rows = _field(data, "workload", list, "a list")
    segs = _field(data, "segments", list, "a list")
    done = _field(data, "completion", dict, "an object")
    policy = _field(data, "policy", str, "a string")
    procs = []
    for i, row in enumerate(rows):
        process = _ints(row, CSV_HEADER, "workload")
        try:
            check_process(*process)
        except WorkloadError as exc:
            raise MetricsError(f"workload row {i}: {exc}") from None
        procs.append(process)
    try:
        w = Workload(*(zip(*procs) if procs else ((), (), ())))
    except WorkloadError as exc:  # no rows, or an id given twice
        raise MetricsError(f"trace field 'workload': {exc}") from None
    segments = Segments.from_rows(_ints(s, SEGMENT_FIELDS, "segment") for s in segs)
    pids = {str(pid): pid for pid in w.pids}
    for key in done:
        if key not in pids:
            raise MetricsError(f"completion key {key!r} is not a process id of the workload")
    completion = dict(zip(map(pids.get, done), _ints(done, done, "completion")))
    trace = ScheduleTrace(segments, completion)
    check_trace(trace, w)
    return w, policy, trace


def _write_json(path: str, doc: object) -> None:
    with open(path, "wb") as fh:
        _write_value(fh.write, doc, b"\n")
        fh.write(b"\n")


def _write_value(write: Callable[[bytes], object], value: object, nl: bytes) -> None:
    """Write ``value`` as the (ASCII) bytes json's dump with sorted keys and a
    two-space indent writes when it starts on the line ``nl`` (a newline and
    that line's indent)."""
    if isinstance(value, _Table):
        _write_table(write, value, nl)
    elif not value or not isinstance(value, (dict, list)):
        write(json.dumps(value).encode())
    else:
        inner = nl + b"  "
        keyed = isinstance(value, dict)
        sep = b"{" if keyed else b"["
        for key in sorted(value) if keyed else range(len(value)):
            write(sep + inner + (json.dumps(key).encode() + b": " if keyed else b""))
            _write_value(write, value[key], inner)
            sep = b","
        write(nl + (b"}" if keyed else b"]"))


def _write_table(write: Callable[[bytes], object], table: _Table, nl: bytes) -> None:
    """:func:`_write_value` for a table: one %-template per row, its fields and
    a keyed table's rows (by pid as a string) in the order ``json`` sorts keys."""
    fields, columns, keyed = table
    inner = nl + b"  "
    order = sorted(range(len(fields)), key=fields.__getitem__)
    row = b",".join(b'%s  "%s": %%d' % (inner, fields[i].encode()) for i in order)
    row = b"{" + row + inner + b"}" if fields else b"%d"
    columns = [*columns[:keyed], *map(columns[keyed:].__getitem__, order)] if fields else columns
    if keyed:
        row = b'"%d": ' + row
        columns = list(zip(*sorted(zip(*columns), key=lambda r: str(r[0]))))
    opener, closer = (b"{", b"}") if keyed else (b"[", b"]")
    sep = opener
    for chunk in _row_chunks(row, b"," + inner, columns):
        write(sep + inner)  # two writes: the chunk is never copied to prepend these
        write(chunk)
        sep = b","
    write(opener + closer if sep == opener else nl + closer)


def _row_chunks(row: AnyStr, sep: AnyStr, columns: Sequence[Sequence]) -> Iterator[AnyStr]:
    """The rows of ``columns`` by the %-template ``row``, joined by ``sep``, as one
    string per ``_CHUNK`` rows: one ``%`` on ``row`` repeated per row, over one
    flat list that each column fills by a strided slice, so no row is a tuple."""
    width, rows = len(columns), len(columns[0]) if columns else 0
    values = []
    for a in range(0, rows, _CHUNK):
        k = min(_CHUNK, rows - a)
        if len(values) != k * width:  # the first chunk, and a short last one
            template, values = sep.join([row] * k), [None] * (k * width)
        for i, column in enumerate(columns):
            values[i::width] = column[a:a + k]
        yield template % tuple(values)


def _write_csv(path: str, table: _Table) -> None:
    row = ",".join(["%s"] * len(table.fields)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(table.fields) + "\n")
        fh.writelines(_row_chunks(row, "", table.columns))


# ---------------------------------------------------------------------------
# CLI

Span = Callable[[str, Callable[[], Any]], Any]  # span(layer, call) returns call()'s value


def _integer_option(text: str) -> int:
    try:
        return integer(text)
    except ValueError as exc:
        # argparse reports only an ArgumentTypeError's own message
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_range(text: str) -> Tuple[int, int]:
    try:
        lo, hi = map(integer, text.split(":"))
    except WorkloadError as exc:  # the digit bound, named rather than the digits echoed
        raise argparse.ArgumentTypeError(str(exc)) from None
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad range {quoted(text)}; expected lo:hi") from None
    return lo, hi


def _load_workload(path: str) -> Workload:
    shown = path if path.isprintable() else repr(path)  # a line break cannot split the error
    try:
        # utf-8-sig: spreadsheet exports often start with a byte-order mark
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read workload file {shown}: {exc}") from None
    try:
        return parse_workload(text)
    except WorkloadError as exc:
        raise ValueError(f"{shown}: {exc}") from None


def _run_policies(w: Workload, names: Iterable[str], static_ots: int,
                  span: Span) -> Dict[str, Tuple[ScheduleTrace, MetricsSummary]]:
    """{policy name: (trace, metrics)} of the policies ``names`` on ``w``, in
    order.  A name given twice is an error before its second simulation."""
    runs = {}
    # the slice components by OTS source, each made once per call
    components = cache(lambda w, static_ots: span(
        "timeslice.components", lambda: compute_components(w, static_ots=static_ots)))
    for name in names:
        policy = span("schedulers.build",
                      lambda: policy_from_name(name, w, static_ots, components))
        if policy.name in runs:
            raise ValueError(f"duplicate policy {policy.name!r}")
        trace = span("engine.simulate", lambda: simulate(w, policy))
        runs[policy.name] = trace, span("metrics.compute", lambda: compute_metrics(trace, w))
    return runs


def _notes(notes: Iterable[str]) -> List[str]:
    return [f"note: {note}" for note in notes]


# A command is a function of (args, span) that returns a tuple: its text as the
# parts printed one to a line (not joined, so a long Gantt chart is never
# copied), its JSON document and its CSV _Table.  run_cli writes the exports
# and prints.
def _cmd_simulate(args, span: Span) -> tuple:
    w = span("workload.parse", lambda: _load_workload(args.workload))
    [(name, (trace, summary))] = _run_policies(w, [args.policy], args.static_ots, span).items()
    gantt = span("report.gantt", lambda: render_gantt(trace))
    table = span("report.table", lambda: render_metrics(summary, w))
    lines = [f"policy: {name}", gantt, "", table]
    if args.paper_notes:
        lines += _notes(references.quantum_notes(w, name, trace, args.static_ots))
    doc = {**_trace_doc(w, name, trace), "metrics": _metrics_doc(name, summary)}
    return lines, doc, doc["segments"]


def _cmd_compare(args, span: Span) -> tuple:
    w = span("workload.parse", lambda: _load_workload(args.workload))
    names = [n.strip() for n in args.policies.split(",") if n.strip()]
    if not names:
        raise ValueError("no policies given")
    runs = _run_policies(w, names, args.static_ots, span)
    summaries = {name: summary for name, (_, summary) in runs.items()}
    columns, table = span("report.table", lambda: _comparison_table(summaries))
    return [table], {
        "workload": _workload_table(w),
        "metrics": list(map(_metrics_doc, summaries, summaries.values())),
        "traces": {name: _segment_table(trace) for name, (trace, _) in runs.items()},
    }, _Table(("policy", "avg_tat", "avg_wt", "context_switches"), list(columns.values()))


def _cmd_generate(args, span: Span) -> tuple:
    w = generate_workload(args.n, args.order, args.burst_range, args.priority_range, args.seed)
    table = _workload_table(w)  # as CSV, the bytes serialize_workload gives
    return serialize_workload(w).splitlines(), {"workload": table}, table


def _cmd_components(args, span: Span) -> tuple:
    w = span("workload.parse", lambda: _load_workload(args.workload))
    comps = span("timeslice.components",
                 lambda: compute_components(w, static_ots=args.static_ots))
    lines = [span("report.table", lambda: render_components_table(w, comps))]
    if args.paper_notes:
        lines += _notes(references.component_notes(w, comps, args.static_ots))
    columns = [getattr(comps, name) for name in COMPONENT_FIELDS]
    return lines, {
        "workload": _workload_table(w),
        "range": _fraction_to_dict(comps.slice_range),
        "components": _Table(("pid",) + COMPONENT_FIELDS, (w.pids, *columns)),
    }, _Table(("pid", "burst", "priority") + COMPONENT_FIELDS,
              (w.pids, w.bursts, w.priorities, *columns))


@cache  # built once per process; argparse keeps no state between parses
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rrsim",
        description="Deterministic single-CPU scheduling simulator with dynamic"
        " time-slice round robin and classical baselines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, workload=True, notes=False, static_ots=None):
        """The subcommand ``name``: ``--workload`` if it reads one, ``--paper-notes``
        if it annotates, ``--json`` and ``--csv``, then ``--static-ots`` with the
        default and help in ``static_ots``.  The caller adds its own options."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func, parser=p)
        if workload:
            p.add_argument("--workload", required=True, metavar="CSV")
        if notes:
            p.add_argument("--paper-notes", action="store_true",
                           help="annotate cells where published reference values differ")
        p.add_argument("--json", metavar="PATH", help="write JSON copy of the output")
        p.add_argument("--csv", metavar="PATH", help="write CSV copy of the output")
        if static_ots:
            p.add_argument("--static-ots", type=_integer_option, metavar="N", **static_ots)
        return p

    fixed = dict(default=DEFAULT_STATIC_OTS,
                 help="static OTS constant used by its-rr/pbdrr (default %(default)s)")
    p = command("simulate", _cmd_simulate, "run one policy and print Gantt + metrics",
                notes=True, static_ots=fixed)
    p.add_argument("--policy", required=True, help=" | ".join(POLICY_NAMES))
    p = command("compare", _cmd_compare, "run several policies and print a table",
                static_ots=fixed)
    p.add_argument("--policies", required=True, help="comma-separated policy names")
    p = command("generate", _cmd_generate, "emit a synthetic workload CSV", workload=False)
    p.add_argument("--n", type=_integer_option, required=True)
    p.add_argument("--order", choices=ORDERS, required=True)
    p.add_argument("--burst-range", type=_parse_range, default=(1, 100), metavar="LO:HI")
    p.add_argument("--priority-range", type=_parse_range, default=(1, 5), metavar="LO:HI")
    p.add_argument("--seed", type=_integer_option, default=0)
    command("components", _cmd_components, "print the slice-component table", notes=True,
            static_ots=dict(help="use this static OTS constant instead of the Range OTS"))
    return parser


def _call(layer: str, call: Callable[[], Any]) -> Any:
    return call()


def run_cli(argv: Optional[Sequence[str]] = None, out=None, span: Span = _call) -> int:
    """The exit status of the CLI on ``argv``, printing to ``out`` (stdout).
    Each layer call is made as ``span(layer, call)``, which must return
    ``call()``'s value and may run it more than once: ``workload.parse`` (with
    the file read), ``schedulers.build``, ``timeslice.components`` (in the first
    build per OTS source, and in ``components``), ``engine.simulate``,
    ``metrics.compute`` and ``report.gantt/table/export``."""
    try:
        args = build_parser().parse_args(argv)
        # before Python 3.13, argparse stores "--opt=--" as [] without calling its type
        for action in args.parser._actions:
            if getattr(args, action.dest, None) == []:
                args.parser.error(f"argument {action.option_strings[0]}: expected one argument")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # rejected even where the policy or command would not use it
        check_static_ots(getattr(args, "static_ots", None))
        lines, doc, csv = args.func(args, span)
        if args.json is not None:
            span("report.export", lambda: _write_json(args.json, doc))
        if args.csv is not None:
            span("report.export", lambda: _write_csv(args.csv, csv))
        print(*lines, sep="\n", file=out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
