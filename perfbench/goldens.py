#!/usr/bin/env python3
"""Regenerate goldens.json: the exact-output fingerprint of every run any
seed can pick, for each benchmark workload.

Usage: python3 perfbench/goldens.py [WORKLOAD ...]   (default: all)

Before a fingerprint is stored, the run is cross-checked: small library runs
against the unit-step oracle of the test suite, and every CLI run's JSON
export against the library path (same trace after a round trip, same
metrics).  Any disagreement stops the script without writing.
"""
import json
import sys
import tempfile
from pathlib import Path

import workloads as wl
from run import OUT, Checker


def fingerprints(spec: wl.Spec, workdir: Path) -> dict:
    from rrsim import compute_metrics, policy_from_name, simulate
    from rrsim.report import metrics_to_dict, trace_from_dict

    runs = wl.prepare(spec, 0, workdir, instances=wl.universe(spec))
    check = Checker(str(workdir / "out.json"))
    if not spec.cli:
        check.oracle(runs)
    out: dict = {}
    for run in runs:
        if run.cli:
            code, stdout = wl.run_cli(run, check.json_path)
            data = Path(check.json_path).read_bytes()
            exported = json.loads(data)
            w, name, trace = trace_from_dict(exported)
            expect = simulate(w, policy_from_name(run.policy, w))
            ok = code == 0 and trace == expect and (
                exported["metrics"] == metrics_to_dict(name, compute_metrics(expect, w))
            )
            fp = check.cli_fingerprint(stdout, data)
        else:
            trace, summary = wl.run_library(run)
            ok = True
            fp = wl.library_fingerprint(trace, summary)
        check.verdict(ok)
        out.setdefault(run.key, []).append(fp)
    if check.failed:
        raise SystemExit(f"error: {check.failed} of {check.attempted} {spec.name} checks failed")
    print(f"{spec.name}: {len(runs)} runs, {check.attempted} checks passed")
    return {"policies": list(spec.policies), "fingerprints": out}


def main(argv) -> None:
    wl.import_rrsim()
    names = argv[1:] or list(wl.SPECS)
    data = json.loads(wl.GOLDENS.read_text()) if wl.GOLDENS.exists() else {}
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        for name in names:
            data[name] = fingerprints(wl.SPECS[name], Path(tmp))
    wl.GOLDENS.write_text(json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main(sys.argv)
