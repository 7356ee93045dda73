"""Benchmark entry point for chancorr.

Usage (from the repository root):

    python3 perfbench/run.py --workload fewshot-dynamic --seed 0 \\
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the workload untraced once, then again with spans on
the package's public functions, then a third, shorter time under
``tracemalloc`` for per-layer peak bytes, and reports the per-layer
metrics.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller
record (environment, detail metrics, checks) goes to
``perfbench/out/``.  The exit code is 0 only when every check passes.

The package is imported from ``src/`` of the checkout that holds this
file; without it the command fails before measuring anything.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads: the benchmark is one caller
# in a closed loop, and a single thread keeps run-to-run spread low on a
# shared machine.  The count is recorded with every result.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

LAYERS = (
    "backbone.pretrain_backbone",
    "data.generate_synthetic",
    "data.make_windows",
    "backbone.backbone_forward",
    "correlation.pearson_matrix",
    "adapter.correlation_estimate",
    "contrastive.threshold_masks",
    "contrastive.aux_loss",
    "projection.divide",
    "fusion.fuse_predict",
    "autodiff.backward",
    "optim.step",
    "adapter.training_losses",
    "adapter.predict",
    "train.validation",
    "serialize.save",
    "serialize.load",
)
LAYER_FIELDS = ("calls", "total_s", "self_s", "peak_bytes")
# span whose time the layer spans should account for, per workload
ROOT_SPAN = {"fewshot-dynamic": "train.fit", "train-wide": "workload.step",
             "serve-wide": "train.evaluate"}


def _count_masks(recorder, masks) -> None:
    recorder.counters["masked_pairs"] += int(masks.pos_support.sum()
                                             + masks.neg_support.sum())
    recorder.counters["scored_pairs"] += int(masks.pos_support.size)


def trace_sites():
    """(owner, attribute, span name, after-hook) for every layer boundary.

    Each owner is where the package looks the name up at call time.
    ``train.validation`` is the validation pass inside ``fit``
    (``train._raw_mse``): its children are the validation ``predict`` and
    ``backbone_forward`` spans.
    """
    return [
        ("chancorr.train", "few_shot_scenario", "train.few_shot_scenario", None),
        ("chancorr.train", "pretrain_backbone", "backbone.pretrain_backbone", None),
        ("chancorr.train", "generate_synthetic", "data.generate_synthetic", None),
        ("chancorr.train", "make_windows", "data.make_windows", None),
        ("chancorr.train", "fit", "train.fit", None),
        ("chancorr.train", "evaluate", "train.evaluate", None),
        ("chancorr.train", "_raw_mse", "train.validation", None),
        ("chancorr.train", "backbone_forward", "backbone.backbone_forward", None),
        ("chancorr.train", "pearson_matrix", "correlation.pearson_matrix", None),
        ("chancorr.correlation", "pearson_matrix", "correlation.pearson_matrix", None),
        ("chancorr.train", "training_losses", "adapter.training_losses", None),
        ("chancorr.adapter", "training_losses", "adapter.training_losses", None),
        ("chancorr.train", "predict", "adapter.predict", None),
        ("chancorr.adapter", "correlation_estimate", "adapter.correlation_estimate", None),
        ("chancorr.adapter", "threshold_masks", "contrastive.threshold_masks", _count_masks),
        ("chancorr.adapter", "aux_loss", "contrastive.aux_loss", None),
        ("chancorr.adapter", "divide", "projection.divide", None),
        ("chancorr.adapter", "fuse_predict", "fusion.fuse_predict", None),
        ("chancorr.autodiff.Tensor", "backward", "autodiff.backward", None),
        ("chancorr.optim.Adam", "step", "optim.step", None),
        ("chancorr.adapter", "save_adapter", "serialize.save", None),
        ("chancorr.adapter", "load_adapter", "serialize.load", None),
        ("chancorr.backbone", "save_backbone", "serialize.save", None),
        ("chancorr.backbone", "load_backbone", "serialize.load", None),
    ]


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(workload, seed: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "dtype": "float64",
        "workload": workload.name,
        "shapes": workload.shapes(),
        "seed": seed,
    }


def run_plain(workload, ledger, seconds: float):
    """End-to-end metrics with tracing off."""
    workload.prepare()
    # one set-up before measuring, ``setup_between`` after each timed
    # operation and the rest after, so the samples of the median are
    # taken apart in time
    setup_times = [ledger.timed(workload.setup)[1]]

    def resample():
        for _ in range(workload.setup_between):
            setup_times.append(ledger.timed(workload.setup)[1])

    detail = workload.measure(ledger, seconds, workload.min_reps,
                              between=resample)
    while len(setup_times) < workload.setup_reps:
        setup_times.append(ledger.timed(workload.setup)[1])
    detail["setup_samples"] = len(setup_times)
    metrics = {"setup_s": (statistics.median(setup_times), "s")}
    units = {"op_p50_s": "s", "windows_per_s": "1/s", "output_mse": "1"}
    for name, value in workload.e2e(detail).items():
        metrics[name] = (value, units[name])
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    return metrics, detail, None


def run_traced(workload, ledger, run_id: str):
    """Per-layer metrics: an untraced pass, a traced timing pass and a
    tracemalloc pass, each on the same fixed amount of work."""
    from spans import SpanRecorder, layer_summary, patched

    sites = trace_sites()
    workload.prepare()
    timing = SpanRecorder(f"{run_id}-timing")
    with patched(timing, sites):
        ledger.timed(workload.setup)
    untraced = workload.measure(ledger, 0.0, workload.trace_reps)
    with patched(timing, sites):
        traced = workload.measure(ledger, 0.0, workload.trace_reps,
                                  checks=False, recorder=timing)

    memory = SpanRecorder(f"{run_id}-memory", memory=True)
    tracemalloc.start()
    try:
        with patched(memory, sites):
            ledger.timed(workload.setup)
            workload.measure(ledger, 0.0, 1, checks=False, recorder=memory,
                             short=True)
    finally:
        tracemalloc.stop()

    layers = layer_summary(timing.spans)
    peaks = layer_summary(memory.spans)
    metrics = {}
    for layer in LAYERS:
        row = layers.get(layer, {})
        metrics[f"{layer}.calls"] = (row.get("calls", 0), "count")
        metrics[f"{layer}.total_s"] = (row.get("total_s", 0.0), "s")
        metrics[f"{layer}.self_s"] = (row.get("self_s", 0.0), "s")
        metrics[f"{layer}.peak_bytes"] = (
            peaks.get(layer, {}).get("peak_bytes", 0), "B")
    scored = timing.counters["scored_pairs"]
    metrics["contrastive.mask_support"] = (
        timing.counters["masked_pairs"] / scored if scored else 0.0, "ratio")
    metrics["trace.overhead"] = (traced["primary_s"] / untraced["primary_s"],
                                 "ratio")
    root = layers.get(ROOT_SPAN[workload.name])
    metrics["trace.unattributed_share"] = (
        root["self_s"] / root["total_s"] if root else 0.0, "ratio")
    metrics["counts.train_windows"] = (traced["train_windows"], "count")
    metrics["counts.val_windows"] = (traced["val_windows"], "count")
    metrics["counts.test_windows"] = (traced["test_windows"], "count")
    metrics["counts.nxn_bytes_per_pass"] = (workload.nxn_bytes_per_pass(), "B")
    detail = {"untraced": untraced, "traced": traced,
              "layers": layers, "memory_layers": peaks}
    return metrics, detail, (timing, memory)


def make_workload(name: str, seed: int, scratch: Path):
    from workloads import WORKLOADS, FewShotDynamic, load_reference
    if name == FewShotDynamic.name:
        return FewShotDynamic(seed, scratch, reference=load_reference())
    return WORKLOADS[name](seed, scratch)


def execute(workload, seed: int, seconds: float, trace: bool, out_dir: Path):
    """Run one workload; return the result line as a dict."""
    from workloads import Ledger
    ledger = Ledger()
    run_id = f"{workload.name}-seed{seed}-trace{int(trace)}"
    metrics, detail, recorders = {}, {}, None
    try:
        if trace:
            metrics, detail, recorders = run_traced(workload, ledger, run_id)
        else:
            metrics, detail, recorders = run_plain(workload, ledger, seconds)
    except Exception:     # one failed operation ends the run, reported
        traceback.print_exc()
        ledger.attempted = max(ledger.attempted, 1)
        ledger.failed = max(ledger.failed, 1)
    correct = ledger.failed == 0
    result = {
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    record = {"run_id": run_id, "seconds": seconds,
              "environment": environment(workload, seed) if metrics else None,
              "fail_ratio": ledger.failed / ledger.attempted,
              "checks": ledger.checks, "detail": detail, "result": result}
    with open(out_dir / f"{run_id}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=float)
    if recorders:
        for recorder in recorders:
            recorder.write_jsonl(out_dir / f"{recorder.run_id}.spans.jsonl")
    for check in ledger.checks:
        verdict = {True: "ok", False: "FAILED", None: "not run"}[check["ok"]]
        print(f"check {verdict}: {check['name']} {check['detail']}".rstrip())
    print(f"fail_ratio {record['fail_ratio']:.6g} "
          f"({ledger.failed} of {ledger.attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("fewshot-dynamic", "train-wide", "serve-wide"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "chancorr" / "__init__.py").is_file():
        print(f"error: no chancorr sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import chancorr
    if Path(chancorr.__file__).resolve().parent != SRC / "chancorr":
        print(f"error: imported chancorr from {chancorr.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    scratch = OUT / f"scratch-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        workload = make_workload(args.workload, args.seed, scratch)
        result = execute(workload, args.seed, args.seconds, bool(args.trace),
                         OUT)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
