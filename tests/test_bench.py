"""``scripts/bench.py``'s layer timing, the self times of the spans of one
in-process ``run_cli`` run, and the argument checks of the experiment
scripts."""
import importlib
import importlib.util
import re
from itertools import accumulate, count
from pathlib import Path
from types import SimpleNamespace

import pytest

import rrsim.report

ROOT = Path(__file__).resolve().parent.parent


def script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    return script("bench")


def fake_rrsim(run_cli):
    return SimpleNamespace(report=SimpleNamespace(run_cli=run_cli), __path__=["fake"])


def test_self_time_is_less_nested_spans_and_summed_over_repeats(bench, monkeypatch):
    # perf_counter reads 0, 1, 3, 6, 10, ...: each reading a wider step than the last
    monkeypatch.setattr(bench, "perf_counter", accumulate(count()).__next__)

    def run_cli(argv, out, span):
        assert argv == ["simulate"]
        span("a", lambda: span("b", lambda: span("c", lambda: 2) * 3) + 1)
        span("d", lambda: "first")
        span("d", lambda: "second")
        return 0

    times, values = bench.timed_run(fake_rrsim(run_cli), ["simulate"])
    # a 0..15 holds b 1..10, which holds c 3..6; d runs 21..28 and 36..45
    assert times == {"c": 3, "b": 6, "a": 6, "d": 16}
    assert values == {"c": 2, "b": 6, "a": 7, "d": "second"}


def test_failed_run_exits(bench):
    with pytest.raises(SystemExit, match="failed"):
        bench.timed_run(fake_rrsim(lambda argv, out, span: 1), ["simulate"])


def test_real_run_reports_every_layer(bench, monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    layers = importlib.import_module("tracing").LAYERS
    argv = ["simulate", "--workload", str(ROOT / "data" / "random.csv"), "--policy",
            "proposed", "--json", str(tmp_path / "out.json")]
    times, values = bench.timed_run(rrsim, argv)
    assert times.keys() == {name for _, names in layers for name in names}
    assert all(seconds >= 0 for seconds in times.values())
    assert values["schedulers.build"].name == "proposed"


@pytest.mark.parametrize("size", ["0", "1000001"])
def test_bench_rejects_size_out_of_range(bench, capsys, size):
    with pytest.raises(SystemExit):
        bench.main([size])
    assert capsys.readouterr().err.splitlines()[-1].endswith("each N must be 1..1000000")


@pytest.mark.parametrize("argv, error", [
    (["0"], "runs must be >= 1, got 0"),
    (["x"], "runs is not an integer: 'x'"),
    (["3", "0"], "n must be >= 1, got 0"),
    (["3", "3", "bogus"], "order must be one of ('increasing', 'decreasing', 'random'),"
                          " got 'bogus'"),
    (["1", "2", "random", "extra"], "expected at most 3 arguments, got 4"),
])
def test_random_benchmark_rejects_bad_arguments(argv, error):
    with pytest.raises(SystemExit, match=re.escape(f"error: {error}")):
        script("random_benchmark").main(["random_benchmark.py", *argv])
