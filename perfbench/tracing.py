"""Traced runs: spans around the calls into each rrsim layer.

A traced run calls each layer's public function in the order the CLI's
``simulate`` command uses.  Spans (name, start, end, parent, run id) and
counts are kept in memory and written out when the benchmark run ends.

``compute_components`` runs inside ``policy_from_name``, where no span can
reach without changing the program.  So after each traced run whose policy
computes slice components, the benchmark times a direct call on the same
input as the ``timeslice.components`` span, outside the run's own span, and
takes the schedulers layer's self time as build minus that call.
"""
from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Tuple

from workloads import SLICE_POLICIES, Run

# The layers whose self times cover a run, as (layer, span names).
LAYERS = (
    ("workload", ("workload.parse",)),
    ("timeslice", ("timeslice.components",)),
    ("schedulers", ("schedulers.build",)),  # minus timeslice.components
    ("engine", ("engine.simulate",)),
    ("metrics", ("metrics.compute",)),
    ("report", ("report.gantt", "report.table", "report.export")),
)
# Spans inside a run's own span, summed for report.cli_overhead_ms.
RUN_CHILDREN = (
    "workload.parse", "schedulers.build", "engine.simulate", "metrics.compute",
    "report.gantt", "report.table", "report.export",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []  # [name, start, end, parent, run]
        self.counts: List[Tuple[int, str, int]] = []  # (run, name, value)

    def begin(self, name: str, parent: int, run: int) -> int:
        self.spans.append([name, perf_counter(), 0.0, parent, run])
        return len(self.spans) - 1

    def end(self, span: int) -> None:
        self.spans[span][2] = perf_counter()

    def count(self, run: int, name: str, value: int) -> None:
        self.counts.append((run, name, value))

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "run"],
                       "spans": self.spans, "counts": self.counts}, fh)


class NullTracer(Tracer):
    """Same calls, nothing recorded: the untraced side of trace.overhead_pct."""

    def begin(self, name: str, parent: int, run: int) -> int:
        return -1

    def end(self, span: int) -> None:
        pass

    def count(self, run: int, name: str, value: int) -> None:
        pass


def layered_run(tr: Tracer, rid: int, run: Run, json_path: str):
    """One run through the layers, with a span around each call.  Returns
    (workload, build span, trace, summary, stdout); stdout is None for
    library runs, and CLI runs also write ``json_path`` as the CLI does."""
    from rrsim import compute_metrics, parse_workload, policy_from_name, simulate
    from rrsim.report import metrics_to_dict, render_gantt, render_metrics, trace_to_dict

    stdout = None
    root = tr.begin("run", -1, rid)
    if run.cli:
        text = Path(run.csv_path).read_text(encoding="utf-8")
        s = tr.begin("workload.parse", root, rid)
        w = parse_workload(text)
        tr.end(s)
    else:
        w = run.workload
    build = tr.begin("schedulers.build", root, rid)
    policy = policy_from_name(run.policy, w)
    tr.end(build)
    s = tr.begin("engine.simulate", root, rid)
    trace = simulate(w, policy)
    tr.end(s)
    s = tr.begin("metrics.compute", root, rid)
    summary = compute_metrics(trace, w)
    tr.end(s)
    if run.cli:
        s = tr.begin("report.gantt", root, rid)
        gantt = render_gantt(trace)
        tr.end(s)
        s = tr.begin("report.table", root, rid)
        table = render_metrics(summary, w)
        tr.end(s)
        s = tr.begin("report.export", root, rid)
        data = trace_to_dict(w, policy.name, trace)
        data["metrics"] = metrics_to_dict(policy.name, summary)
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, sort_keys=True, indent=2)
            fh.write("\n")
        tr.end(s)
        stdout = f"policy: {policy.name}\n{gantt}\n\n{table}\n"
    tr.end(root)
    return w, build, trace, summary, stdout


def record_counts(tr: Tracer, rid: int, run: Run, w, build: int, trace,
                  bytes_out: int) -> None:
    """Counts at the layer boundaries of a traced run, and the direct
    ``timeslice.components`` timing, both after the run's own span."""
    from rrsim import compute_components

    tr.count(rid, "engine.segments", len(trace.segments))
    tr.count(rid, "engine.rounds", trace.segments[-1].round)
    if run.cli:
        tr.count(rid, "workload.rows", len(w))
        tr.count(rid, "report.bytes_out", bytes_out)
    if run.policy in SLICE_POLICIES:
        s = tr.begin("timeslice.components", build, rid)
        comps = compute_components(w, static_ots=SLICE_POLICIES[run.policy])
        tr.end(s)
        tr.count(rid, "timeslice.procs", len(comps))


def self_times(tr: Tracer) -> Dict[int, Dict[str, float]]:
    """Per run id: seconds per span name, plus "run" for the run's own span."""
    out: Dict[int, Dict[str, float]] = {}
    for name, start, end, _parent, rid in tr.spans:
        per = out.setdefault(rid, {})
        per[name] = per.get(name, 0.0) + (end - start)
    return out


def best_totals(tr: Tracer, run_of: Dict[int, int]) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Seconds per span name and counts per count name, summed over distinct
    runs; ``run_of`` maps each run id to its distinct run, and each distinct
    run contributes its best (least) time over the passes."""
    best: Dict[Tuple[int, str], float] = {}
    for rid, spans in self_times(tr).items():
        for name, sec in spans.items():
            key = (run_of[rid], name)
            best[key] = min(best.get(key, sec), sec)
    counts = {(run_of[rid], name): value for rid, name, value in tr.counts}
    return _sum_by_name(best), _sum_by_name(counts)


def _sum_by_name(values: Dict[Tuple[int, str], float]) -> dict:
    out: dict = {}
    for (_run, name), value in values.items():
        out[name] = out.get(name, 0) + value
    return out


def layer_metrics(tr: Tracer, run_of: Dict[int, int], plain_s: float,
                  cli_s: float) -> Dict[str, tuple]:
    """Per-layer metrics, as name -> (value, unit), from the traced runs.

    ``plain_s`` is the summed best time of the same layered calls untraced,
    and ``cli_s`` that of the whole CLI (0 for library runs).  Times are per
    distinct run; per-unit costs divide totals.
    """
    tot, cnt = best_totals(tr, run_of)
    runs = len(set(run_of.values()))

    def ms(name):
        return 1e3 * tot.get(name, 0.0) / runs

    def per_unit(name, count, scale):
        return scale * tot.get(name, 0.0) / cnt[count] if cnt.get(count) else 0.0

    layers_ms = sum(ms(n) for n in RUN_CHILDREN)
    cli_ms = 1e3 * cli_s / runs if cli_s else layers_ms
    return {
        "workload.parse_ms": (ms("workload.parse"), "ms"),
        "workload.rows": (cnt.get("workload.rows", 0) / runs, "count"),
        "timeslice.components_ms": (ms("timeslice.components"), "ms"),
        "timeslice.procs": (cnt.get("timeslice.procs", 0) / runs, "count"),
        "timeslice.us_per_proc": (per_unit("timeslice.components", "timeslice.procs", 1e6), "us"),
        "schedulers.build_ms": (ms("schedulers.build"), "ms"),
        "schedulers.build_self_ms": (ms("schedulers.build") - ms("timeslice.components"), "ms"),
        "engine.simulate_ms": (ms("engine.simulate"), "ms"),
        "engine.segments": (cnt.get("engine.segments", 0) / runs, "count"),
        "engine.rounds": (cnt.get("engine.rounds", 0) / runs, "count"),
        "engine.ns_per_segment": (per_unit("engine.simulate", "engine.segments", 1e9), "ns"),
        "metrics.compute_ms": (ms("metrics.compute"), "ms"),
        "metrics.ns_per_segment": (per_unit("metrics.compute", "engine.segments", 1e9), "ns"),
        "report.gantt_ms": (ms("report.gantt"), "ms"),
        "report.table_ms": (ms("report.table"), "ms"),
        "report.export_ms": (ms("report.export"), "ms"),
        "report.bytes_out": (cnt.get("report.bytes_out", 0) / runs, "bytes"),
        "report.cli_overhead_ms": (cli_ms - layers_ms, "ms"),
        "trace.overhead_pct": (100.0 * (tot["run"] - plain_s) / plain_s, "%"),
    }


def layer_shares(tr: Tracer, run_of: Dict[int, int]) -> Dict[str, float]:
    """Each layer's self time as a percentage of traced run wall time."""
    tot, _counts = best_totals(tr, run_of)
    shares = {
        layer: 100.0 * sum(tot.get(n, 0.0) for n in names) / tot["run"]
        for layer, names in LAYERS
    }
    shares["schedulers"] -= shares["timeslice"]
    return shares


def span_sums_within_wall(tr: Tracer) -> bool:
    """True when, for every run, the spans inside its own span sum to no more
    than that span's duration."""
    return all(
        sum(spans.get(n, 0.0) for n in RUN_CHILDREN) <= spans["run"]
        for spans in self_times(tr).values()
    )
