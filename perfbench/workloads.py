"""Workloads of the rrsim host-time benchmark: inputs, runs and fingerprints.

A workload is a list of strata, each a (process count, burst order) pair.  An
instance is one stratum drawn in one of ``variants`` fixed ways, and a run is
one instance under one policy.  A seed picks one variant per stratum, so any
seed's inputs are covered by the stored goldens while the amount of work in a
pass stays almost the same from seed to seed.

Bursts are drawn by stratified sampling: burst i of n is uniform within the
i-th n-th of the range.  Each burst is still uniform over the whole range once
the order is applied, but the total burst, which sets the segment count, barely
varies between instances.
"""
from __future__ import annotations

import hashlib
import io
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDENS = Path(__file__).resolve().parent / "goldens.json"
ORDERS = ("increasing", "decreasing", "random")
# Policies whose build computes slice components, with the static OTS they
# pass to compute_components (None: the Range-derived OTS).
SLICE_POLICIES = {"proposed": None, "pbdrr": 4, "its-rr": 4}


@dataclass(frozen=True)
class Spec:
    name: str
    strata: Tuple[Tuple[int, str], ...]
    variants: int
    burst_max: int
    priority_max: int
    policies: Tuple[str, ...]
    cli: bool  # True: in-process `rrsim simulate --json`; False: library calls


SPECS = {
    # The research sweep: the Tier-1 property-suite distribution through the
    # library path policy_from_name -> simulate -> compute_metrics.
    "sweep": Spec(
        "sweep",
        tuple((n, order) for order in ORDERS for n in range(1, 51)),
        8, 500, 9,
        ("proposed", "pbdrr", "its-rr", "rr:7", "srtn", "fcfs"),
        False,
    ),
    # Wide CSVs through the CLI: compute_components is quadratic in n, so
    # timeslice is the largest layer; the dynamic quanta keep rounds few.
    "wide": Spec(
        "wide",
        tuple((1000, order) for order in ORDERS),
        16, 100, 5,
        ("proposed", "pbdrr", "its-rr"),
        True,
    ),
    # Long bursts through the CLI: up to ~50k segments a run, so engine,
    # metrics, Gantt rendering and JSON export all do heavy work.
    "long": Spec(
        "long",
        tuple((50, order) for order in ORDERS),
        16, 2000, 5,
        ("rr:1", "rr:5", "its-rr", "proposed", "srtn", "fcfs"),
        True,
    ),
}


@dataclass(frozen=True)
class Instance:
    key: str  # "<stratum>.<variant>", the goldens key
    bursts: Tuple[int, ...]
    priorities: Tuple[int, ...]


@dataclass
class Run:
    """One instance under one policy, with the inputs the program receives."""

    key: str
    policy: str
    golden: Optional[str]
    workload: object = None  # rrsim.Workload, library path
    csv_path: Optional[str] = None  # CLI path

    @property
    def cli(self) -> bool:
        return self.csv_path is not None


def make_instance(spec: Spec, stratum: int, variant: int) -> Instance:
    n, order = spec.strata[stratum]
    rng = random.Random(f"{spec.name}/{stratum}/{variant}")
    bursts = [1 + int((i + rng.random()) * spec.burst_max / n) for i in range(n)]
    if order == "decreasing":
        bursts.reverse()
    elif order == "random":
        rng.shuffle(bursts)
    priorities = [rng.randint(1, spec.priority_max) for _ in range(n)]
    return Instance(f"{stratum}.{variant}", tuple(bursts), tuple(priorities))


def universe(spec: Spec) -> List[Instance]:
    """Every instance any seed can pick."""
    return [
        make_instance(spec, s, v)
        for s in range(len(spec.strata))
        for v in range(spec.variants)
    ]


def pool(spec: Spec, seed: int) -> List[Instance]:
    """The instances of one benchmark run: one variant per stratum."""
    rng = random.Random(seed)
    return [
        make_instance(spec, s, rng.randrange(spec.variants))
        for s in range(len(spec.strata))
    ]


def csv_text(inst: Instance) -> str:
    rows = "".join(
        f"{i},{b},{p}\n"
        for i, (b, p) in enumerate(zip(inst.bursts, inst.priorities), start=1)
    )
    return "id,burst,priority\n" + rows


def import_rrsim():
    """Import rrsim from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "rrsim" / "__init__.py").is_file():
        raise SystemExit(f"error: no rrsim sources at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import rrsim
    import rrsim.report

    if Path(rrsim.__file__).resolve().parent != SRC / "rrsim":
        raise SystemExit(f"error: rrsim imported from {rrsim.__file__}, not {SRC}")
    return rrsim


def prepare(spec: Spec, seed: int, workdir: Path,
            goldens: Optional[Dict[str, List[str]]] = None,
            instances: Optional[List[Instance]] = None) -> List[Run]:
    """Set-up: build the program's inputs for one run of the benchmark.  CLI
    workloads get one CSV file per instance in ``workdir``."""
    rrsim = import_rrsim()
    runs = []
    for inst in instances if instances is not None else pool(spec, seed):
        w = csv_path = None
        if spec.cli:
            csv_path = str(workdir / f"{inst.key}.csv")
            Path(csv_path).write_text(csv_text(inst), encoding="utf-8")
        else:
            w = rrsim.workload(list(inst.bursts), list(inst.priorities))
        fps = goldens.get(inst.key) if goldens is not None else None
        for i, name in enumerate(spec.policies):
            runs.append(Run(inst.key, name, fps[i] if fps else None, w, csv_path))
    return runs


def load_goldens(spec: Spec) -> Dict[str, List[str]]:
    data = json.loads(GOLDENS.read_text(encoding="utf-8"))[spec.name]
    if tuple(data["policies"]) != spec.policies:
        raise SystemExit(f"error: goldens for {spec.name} list other policies")
    return data["fingerprints"]


# ---------------------------------------------------------------------------
# executing a run


def run_library(run: Run):
    """The sweep path; returns (trace, summary)."""
    from rrsim import compute_metrics, policy_from_name, simulate

    trace = simulate(run.workload, policy_from_name(run.policy, run.workload))
    return trace, compute_metrics(trace, run.workload)


def run_cli(run: Run, json_path: str) -> Tuple[int, str]:
    """The CLI path, in process; returns (exit code, stdout)."""
    from rrsim.report import run_cli as cli

    out = io.StringIO()
    code = cli(["simulate", "--workload", run.csv_path, "--policy", run.policy,
                "--json", json_path], out=out)
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# fingerprints


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(hashlib.sha256(part).digest())
    return h.hexdigest()[:16]


def _summary_key(tat: Fraction, wt: Fraction, switches: int, makespan: int,
                 completion: Dict[int, int]) -> bytes:
    done = ",".join(f"{pid}:{t}" for pid, t in sorted(completion.items()))
    return (
        f"tat={tat.numerator}/{tat.denominator} wt={wt.numerator}/{wt.denominator}"
        f" cs={switches} makespan={makespan} completion={done}"
    ).encode()


def library_fingerprint(trace, summary) -> str:
    """Avg TAT and WT as num/den, context switches, makespan, completion map."""
    return _digest(_summary_key(
        summary.avg_turnaround, summary.avg_waiting, summary.context_switches,
        trace.makespan, trace.completion,
    ))


class CliFingerprinter:
    """The library fingerprint's fields read back from the JSON export, plus
    the stdout and JSON bytes.  Parsing the JSON is memoised on its bytes, so
    repeated passes over the same runs hash but do not re-parse."""

    def __init__(self) -> None:
        self._seen: Dict[Tuple[str, str], str] = {}

    def __call__(self, stdout: str, json_bytes: bytes) -> str:
        out_b = stdout.encode()
        key = (hashlib.sha256(out_b).hexdigest(), hashlib.sha256(json_bytes).hexdigest())
        if key not in self._seen:
            data = json.loads(json_bytes)
            m = data["metrics"]
            summary = _summary_key(
                Fraction(m["avg_turnaround"]["num"], m["avg_turnaround"]["den"]),
                Fraction(m["avg_waiting"]["num"], m["avg_waiting"]["den"]),
                m["context_switches"],
                data["segments"][-1]["end"],
                {int(pid): t for pid, t in data["completion"].items()},
            )
            self._seen[key] = _digest(summary, out_b, json_bytes)
        return self._seen[key]
