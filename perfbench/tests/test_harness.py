"""Tests of the benchmark harness itself (run: python3 -m pytest perfbench/tests)."""

import json
import shutil
import subprocess
import sys
import tracemalloc
import types

import numpy as np
import pytest

import run
import spans
import workloads
from spans import Span, SpanRecorder, covered_length, layer_summary, self_times

BENCHMARK_FILE = run.ROOT / "BENCHMARK.json"
BENCHMARK = json.loads(BENCHMARK_FILE.read_text(encoding="utf-8"))

SMALL = {
    "fewshot-dynamic": dict(epochs=4, pre_length=1024, length=2048),
    "train-wide": dict(n_channels=12, batch=4),
    "serve-wide": dict(n_channels=12, windows=20),
}


def _tree():
    #  root [0, 10]
    #  |- a [1, 4]
    #  |  '- a1 [2, 3]
    #  '- b [5, 7]
    return [Span("root", 0.0, 10.0, None, "t"),
            Span("a", 1.0, 4.0, 0, "t"),
            Span("a1", 2.0, 3.0, 1, "t"),
            Span("b", 5.0, 7.0, 0, "t")]


def test_self_time_subtracts_direct_children_only():
    assert self_times(_tree()) == [5.0, 2.0, 1.0, 2.0]


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([(1, 4), (3, 6), (8, 12)], 0, 10) == 7
    assert covered_length([], 0, 10) == 0
    assert covered_length([(-2, 1)], 0, 10) == 1


def test_layer_summary_counts_a_reentered_layer_once():
    tree = _tree() + [Span("a", 2.5, 2.75, 2, "t")]
    summary = layer_summary(tree)
    assert summary["a"]["calls"] == 2
    assert summary["a"]["total_s"] == 3.0          # the inner call is inside
    assert summary["a"]["self_s"] == 2.0 + 0.25
    assert summary["a1"]["self_s"] == 0.75
    assert summary["root"]["self_s"] + sum(
        row["self_s"] for name, row in summary.items()
        if name != "root") == 10.0


@pytest.fixture
def fake_module(monkeypatch):
    module = types.ModuleType("fake_layers")

    def inner(x):
        return x + 1

    def outer(x):
        return module.inner(x) * 2

    module.inner, module.outer = inner, outer
    monkeypatch.setitem(sys.modules, "fake_layers", module)
    return module


def test_patched_records_nesting_and_restores(fake_module):
    originals = (fake_module.inner, fake_module.outer)
    recorder = SpanRecorder("r1")
    seen = []
    sites = [("fake_layers", "outer", "fake.outer", None),
             ("fake_layers", "inner", "fake.inner",
              lambda rec, result: seen.append(result))]
    with spans.patched(recorder, sites):
        assert fake_module.outer(1) == 4
    assert (fake_module.inner, fake_module.outer) == originals
    assert [(s.name, s.parent, s.run_id) for s in recorder.spans] == [
        ("fake.outer", None, "r1"), ("fake.inner", 0, "r1")]
    assert seen == [2]
    outer, inner = recorder.spans
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_patched_restores_after_an_error(fake_module):
    original = fake_module.inner
    with pytest.raises(RuntimeError):
        with spans.patched(SpanRecorder("r"),
                           [("fake_layers", "inner", "fake.inner", None)]):
            raise RuntimeError
    assert fake_module.inner is original


def test_memory_pass_attributes_peaks_to_enclosing_spans():
    recorder = SpanRecorder("m", memory=True)
    tracemalloc.start()
    try:
        with recorder.span("outer"):
            with recorder.span("inner"):
                block = np.ones(1_000_000)
                del block
            with recorder.span("small"):
                small = np.ones(10)
                del small
    finally:
        tracemalloc.stop()
    peaks = {s.name: s.peak_bytes for s in recorder.spans}
    assert peaks["inner"] >= 8_000_000
    assert peaks["outer"] >= peaks["inner"]
    assert peaks["small"] < 1_000_000


def _check_schema(result, trace):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for spec in declared:
        metric = result["metrics"][spec["name"]]
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == spec["unit"]
        assert isinstance(metric["value"], (int, float))
        assert np.isfinite(metric["value"])
    json.dumps(result)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(SMALL))
def test_workload_smoke_at_reduced_size(name, trace, tmp_path, capsys):
    workload = workloads.WORKLOADS[name](0, tmp_path, **SMALL[name])
    result = run.execute(workload, 0, 0.1, bool(trace), tmp_path)
    _check_schema(result, trace)
    assert result["correct"] and result["failed"] == 0, capsys.readouterr().out
    record = json.loads((tmp_path / f"{name}-seed0-trace{trace}.json").read_text())
    assert record["environment"]["blas_threads"] == run.BLAS_THREADS
    assert record["environment"]["seed"] == 0
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert metrics["trace.overhead"] > 0
        ran = {"fewshot-dynamic": "train.validation.calls",
               "train-wide": "autodiff.backward.calls",
               "serve-wide": "serialize.load.calls"}[name]
        assert metrics[ran] > 0
        if name == "serve-wide":
            assert metrics["autodiff.backward.calls"] == 0
        assert (tmp_path / f"{name}-seed0-trace1-timing.spans.jsonl").exists()


def test_benchmark_declares_what_the_harness_emits():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in BENCHMARK["per_layer"]} >= {
        f"{layer}.{field}" for layer in run.LAYERS for field in run.LAYER_FIELDS}


def test_fails_without_package_sources(tmp_path):
    shutil.copy(BENCHMARK_FILE, tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-wide",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
