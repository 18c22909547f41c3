"""CLI entry point and rendering/export helpers.

Subcommands: ``simulate`` (one workload, one policy), ``compare`` (one
workload, several policies), ``generate`` (synthetic workload CSV), and
``components`` (the OTS/PC/SC/CSC/ITS table).  ``--json``/``--csv`` write
machine-readable copies of whatever is printed.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import references
from .engine import DispatchSegment, ScheduleTrace, simulate
from .metrics import MetricsError, MetricsSummary, compute_metrics, format_average
from .schedulers import DEFAULT_STATIC_OTS, POLICY_NAMES, SchedulingPolicy, policy_from_name
from .timeslice import COMPONENT_FIELDS, SliceComponents, check_static_ots, compute_components
from .workload import (
    ORDERS,
    ProcessSpec,
    Workload,
    WorkloadError,
    generate_workload,
    parse_workload,
    serialize_workload,
)


# ---------------------------------------------------------------------------
# rendering


def merge_segments(trace: ScheduleTrace) -> List[Tuple[int, int, int]]:
    """Time-ordered (pid, start, end) runs with back-to-back grants of the
    same process coalesced."""
    merged: List[Tuple[int, int, int]] = []
    for seg in trace.segments:
        if merged and merged[-1][0] == seg.pid and merged[-1][2] == seg.start:
            pid, start, _ = merged[-1]
            merged[-1] = (pid, start, seg.end)
        else:
            merged.append((seg.pid, seg.start, seg.end))
    return merged


def render_gantt(trace: ScheduleTrace) -> str:
    """ASCII Gantt chart: one row of process labels over one row of boundary
    timestamps; back-to-back grants of the same process render as one cell."""
    merged = merge_segments(trace)
    labels = [f"P{pid}" for pid, _, _ in merged]
    boundaries = [str(merged[0][1])] + [str(end) for _, _, end in merged]

    label_line = "|"
    positions = [0]
    for i, label in enumerate(labels):
        width = max(len(label) + 2, len(boundaries[i]), len(boundaries[i + 1]))
        label_line += " " + label + " " * (width - len(label) - 1) + "|"
        positions.append(len(label_line) - 1)
    time_line = ""
    for pos, boundary in zip(positions, boundaries):
        pad = max(pos - len(time_line), 1 if time_line else 0)
        time_line += " " * pad + boundary
    return label_line + "\n" + time_line.rstrip()


def _render_table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def render_metrics(summary: MetricsSummary, w: Workload) -> str:
    rows = []
    for p in w:
        m = summary.per_process[p.pid]
        rows.append([
            f"P{p.pid}", str(p.burst), str(p.priority),
            str(m.turnaround), str(m.waiting), str(m.response),
        ])
    table = _render_table(
        ["process", "burst", "priority", "turnaround", "waiting", "response"], rows
    )
    return (
        table
        + f"\n\navg turnaround: {format_average(summary.avg_turnaround)}"
        + f"\navg waiting:    {format_average(summary.avg_waiting)}"
        + f"\ncontext switches: {summary.context_switches}"
    )


def render_components_table(
    w: Workload,
    comps: Sequence[SliceComponents],
    notes: Sequence[str] = (),
) -> str:
    rows = [
        [f"P{p.pid}", str(p.burst), str(p.priority)]
        + [str(getattr(c, name)) for name in COMPONENT_FIELDS]
        for p, c in zip(w, comps)
    ]
    header = ["process", "burst", "priority"] + [name.upper() for name in COMPONENT_FIELDS]
    out = _render_table(header, rows)
    out += f"\n\nrange: {comps[0].slice_range}"
    if notes:
        out += "\n" + "\n".join(f"note: {n}" for n in notes)
    return out


_COMPARISON_HEADER = ("policy", "avg TAT", "avg WT", "CS")


def _comparison_rows(results: Sequence[Tuple[str, MetricsSummary]]) -> List[List[str]]:
    return [
        [name, format_average(s.avg_turnaround), format_average(s.avg_waiting),
         str(s.context_switches)]
        for name, s in results
    ]


def render_comparison(results: Sequence[Tuple[str, MetricsSummary]]) -> str:
    return _render_table(_COMPARISON_HEADER, _comparison_rows(results))


# ---------------------------------------------------------------------------
# machine-readable export


def _average_to_dict(value: Fraction) -> Dict[str, object]:
    return {
        "display": format_average(value),
        "num": value.numerator,
        "den": value.denominator,
    }


def workload_to_dicts(w: Workload) -> List[Dict[str, int]]:
    return [{"id": p.pid, "burst": p.burst, "priority": p.priority} for p in w]


# segment fields in DispatchSegment order; segments_to_dicts inlines them for speed
SEGMENT_FIELDS = ("pid", "start", "end", "round", "quantum")


def segments_to_dicts(trace: ScheduleTrace) -> List[Dict[str, int]]:
    return [
        {"pid": s.pid, "start": s.start, "end": s.end, "round": s.round, "quantum": s.quantum}
        for s in trace.segments
    ]


def trace_to_dict(w: Workload, policy_name: str, trace: ScheduleTrace) -> Dict[str, object]:
    return {
        "workload": workload_to_dicts(w),
        "policy": policy_name,
        "segments": segments_to_dicts(trace),
        "completion": {str(pid): t for pid, t in sorted(trace.completion.items())},
    }


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
    field, for a missing or mistyped field, a completion key that is not a pid
    of the workload, a pid's k-th segment not in round k, and an invalid
    schedule (see :func:`compute_metrics`)."""
    if not isinstance(data, dict):
        raise MetricsError(f"trace is a {type(data).__name__}, expected an object")
    rows = _field(data, "workload", list, "a list")
    segs = _field(data, "segments", list, "a list")
    done = _field(data, "completion", dict, "an object")
    policy = _field(data, "policy", str, "a string")
    w = Workload(tuple(
        ProcessSpec(*_ints(r, ("id", "burst", "priority"), "workload")) for r in rows
    ))
    segments = tuple(DispatchSegment(*_ints(s, SEGMENT_FIELDS, "segment")) for s in segs)
    pids = {str(pid): pid for pid in w.pids}
    for key in done:
        if key not in pids:
            raise MetricsError(f"completion key {key!r} is not a process id of the workload")
    completion = dict(zip(map(pids.get, done), _ints(done, done, "completion")))
    trace = ScheduleTrace(segments, completion)
    compute_metrics(trace, w)
    visits = dict.fromkeys(w.pids, 0)  # compute_metrics rejected unknown pids
    for seg in segments:
        visits[seg.pid] += 1
        if seg.round != visits[seg.pid]:
            raise MetricsError(
                f"segment round of P{seg.pid} is {seg.round}, expected {visits[seg.pid]}"
            )
    return w, policy, trace


def metrics_to_dict(name: str, summary: MetricsSummary) -> Dict[str, object]:
    return {
        "policy": name,
        "avg_turnaround": _average_to_dict(summary.avg_turnaround),
        "avg_waiting": _average_to_dict(summary.avg_waiting),
        "context_switches": summary.context_switches,
        "per_process": {
            str(pid): {
                "turnaround": m.turnaround,
                "waiting": m.waiting,
                "response": m.response,
            }
            for pid, m in sorted(summary.per_process.items())
        },
    }


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_json(path: str, data: object) -> None:
    # json.dump streams to the file; json.dumps would hold the whole text
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    lines = [",".join(header)] + [",".join(map(str, row)) for row in rows]
    _write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# CLI


def _parse_range(text: str) -> Tuple[int, int]:
    try:
        lo, hi = text.split(":")
        return int(lo), int(hi)
    except ValueError:
        # argparse reports only an ArgumentTypeError's own message
        raise argparse.ArgumentTypeError(f"bad range {text!r}; expected lo:hi") from None


def _load_workload(path: str) -> Workload:
    try:
        # utf-8-sig: spreadsheet exports often start with a byte-order mark
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read workload file {path}: {exc}") from None
    try:
        return parse_workload(text)
    except WorkloadError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _simulate_policy(args, w: Workload) -> SchedulingPolicy:
    name = args.policy
    if args.quantum is not None:
        if name != "rr":
            raise ValueError("--quantum applies only to '--policy rr'")
        name = f"rr:{args.quantum}"
    elif name == "rr":
        raise ValueError(
            "policy 'rr' needs a quantum: use rr:<q> or --policy rr --quantum <q>"
        )
    return policy_from_name(name, w, args.static_ots)


def _cmd_simulate(args, out) -> None:
    w = _load_workload(args.workload)
    policy = _simulate_policy(args, w)
    trace = simulate(w, policy)
    summary = compute_metrics(trace, w)
    print(f"policy: {policy.name}", file=out)
    print(render_gantt(trace), file=out)
    print(file=out)
    print(render_metrics(summary, w), file=out)
    if args.paper_notes:
        for note in references.quantum_notes(w, policy.name, trace, args.static_ots):
            print(f"note: {note}", file=out)
    if args.json:
        data = trace_to_dict(w, policy.name, trace)
        data["metrics"] = metrics_to_dict(policy.name, summary)
        _write_json(args.json, data)
    if args.csv:
        _write_csv(args.csv, SEGMENT_FIELDS, (
            (s.pid, s.start, s.end, s.round, s.quantum) for s in trace.segments
        ))


def _cmd_compare(args, out) -> None:
    w = _load_workload(args.workload)
    names = [n.strip() for n in args.policies.split(",") if n.strip()]
    if not names:
        raise ValueError("no policies given")
    summaries, traces = [], {}
    for name in names:
        policy = policy_from_name(name, w, args.static_ots)
        if policy.name in traces:
            raise ValueError(f"duplicate policy {policy.name!r}")
        traces[policy.name] = trace = simulate(w, policy)
        summaries.append((policy.name, compute_metrics(trace, w)))
    rows = _comparison_rows(summaries)
    print(_render_table(_COMPARISON_HEADER, rows), file=out)
    if args.json:
        _write_json(args.json, {
            "workload": workload_to_dicts(w),
            "metrics": [metrics_to_dict(n, s) for n, s in summaries],
            "traces": {n: segments_to_dicts(t) for n, t in traces.items()},
        })
    if args.csv:
        _write_csv(args.csv, ("policy", "avg_tat", "avg_wt", "context_switches"), rows)


def _cmd_generate(args, out) -> None:
    w = generate_workload(
        args.n, args.order, args.burst_range, args.priority_range, args.seed
    )
    text = serialize_workload(w)
    print(text, end="", file=out)
    if args.csv:
        _write_text(args.csv, text)
    if args.json:
        _write_json(args.json, {"workload": workload_to_dicts(w)})


def _cmd_components(args, out) -> None:
    w = _load_workload(args.workload)
    if args.static_ots is not None and not args.use_static_ots:
        raise ValueError("--static-ots applies only with --use-static-ots")
    static = (args.static_ots or DEFAULT_STATIC_OTS) if args.use_static_ots else None
    comps = compute_components(w, static_ots=static)
    notes = references.component_notes(w, comps, static) if args.paper_notes else ()
    print(render_components_table(w, comps, notes), file=out)
    if args.json:
        _write_json(args.json, {
            "workload": workload_to_dicts(w),
            "range": {
                "num": comps[0].slice_range.numerator,
                "den": comps[0].slice_range.denominator,
            },
            "components": [
                {"pid": p.pid, **{name: getattr(c, name) for name in COMPONENT_FIELDS}}
                for p, c in zip(w, comps)
            ],
        })
    if args.csv:
        _write_csv(args.csv, ("pid", "burst", "priority") + COMPONENT_FIELDS, (
            (p.pid, p.burst, p.priority, *(getattr(c, name) for name in COMPONENT_FIELDS))
            for p, c in zip(w, comps)
        ))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rrsim",
        description="Deterministic single-CPU scheduling simulator with dynamic"
        " time-slice round robin and classical baselines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, static_ots=True):
        p.add_argument("--json", metavar="PATH", help="write JSON copy of the output")
        p.add_argument("--csv", metavar="PATH", help="write CSV copy of the output")
        if static_ots:
            p.add_argument(
                "--static-ots", type=int, default=DEFAULT_STATIC_OTS,
                help=f"static OTS constant used by its-rr/pbdrr (default {DEFAULT_STATIC_OTS})",
            )

    p_sim = sub.add_parser("simulate", help="run one policy and print Gantt + metrics")
    p_sim.add_argument("--workload", required=True, metavar="CSV")
    p_sim.add_argument("--paper-notes", action="store_true",
                       help="annotate cells where published reference values differ")
    add_common(p_sim)
    p_sim.add_argument("--policy", required=True, help=" | ".join(POLICY_NAMES))
    p_sim.add_argument("--quantum", type=int, default=None,
                       help="quantum for '--policy rr' (alternative to rr:<q>)")
    p_sim.set_defaults(func=_cmd_simulate)

    p_cmp = sub.add_parser("compare", help="run several policies and print a table")
    p_cmp.add_argument("--workload", required=True, metavar="CSV")
    add_common(p_cmp)
    p_cmp.add_argument("--policies", required=True, help="comma-separated policy names")
    p_cmp.set_defaults(func=_cmd_compare)

    p_gen = sub.add_parser("generate", help="emit a synthetic workload CSV")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--order", choices=ORDERS, required=True)
    p_gen.add_argument("--burst-range", type=_parse_range, default=(1, 100),
                       metavar="LO:HI")
    p_gen.add_argument("--priority-range", type=_parse_range, default=(1, 5),
                       metavar="LO:HI")
    p_gen.add_argument("--seed", type=int, default=0)
    add_common(p_gen, static_ots=False)
    p_gen.set_defaults(func=_cmd_generate)

    p_cmp2 = sub.add_parser("components", help="print the slice-component table")
    p_cmp2.add_argument("--workload", required=True, metavar="CSV")
    p_cmp2.add_argument("--use-static-ots", action="store_true",
                        help="use the static OTS constant instead of the dynamic one")
    p_cmp2.add_argument("--paper-notes", action="store_true",
                        help="annotate cells where published reference values differ")
    add_common(p_cmp2, static_ots=False)
    p_cmp2.add_argument("--static-ots", type=int,
                        help=f"static OTS constant for --use-static-ots"
                        f" (default {DEFAULT_STATIC_OTS})")
    p_cmp2.set_defaults(func=_cmd_components)

    return parser


def run_cli(argv: Optional[Sequence[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # rejected even where the policy or command would not use it
        check_static_ots(getattr(args, "static_ots", None))
        args.func(args, out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
