"""Wall-clock scaling checks for the adapter's two hot paths.

The complexity claim under test: one training step does O(N^2) work in the
number of channels (correlation estimate, pair masks, contrastive sums),
while the inference path never touches an N x N object and scales O(N).
``run_bench`` times each path over an ascending channel ladder, reports the
median of repeated runs, and fits a least-squares slope in log-log space.

Timings use synthetic random inputs and a fabricated frozen backbone (no
ALS pretraining -- weights are irrelevant to cost).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .adapter import (correlation_estimate, init_adapter, predict,
                      state_tensors)
from .backbone import BackboneConfig, BackboneOutput, BackboneState
from .config import TrainConfig
from .contrastive import aux_loss, threshold_masks
from .correlation import pearson_matrix
from .optim import Adam

DEFAULT_N_LIST = (8, 32, 128, 512)

# Shape constants per mode.  Lookback/horizon 96 with patch length 16
# (six patches per window); the training path uses a thin representation
# and a small batch so the N^2 terms dominate inside a CPU-minute budget,
# the inference path a wide one so per-channel matmul work is visible
# above interpreter overhead.
LOOKBACK = 96
HORIZON = 96
PATCH_LEN = 16
TRAIN_BATCH = 48
TRAIN_REPR_DIM = 8
TRAIN_RANK = 4
INFER_BATCH = 8
INFER_REPR_DIM = 32
DOUBLING_BATCH = 16


@dataclass
class BenchResult:
    mode: str
    n_list: tuple[int, ...]
    medians: list[float]            # seconds per repetition
    slope: float

    def table(self) -> str:
        lines = ["n_channels,median_seconds"]
        lines += [f"{n},{t:.9f}" for n, t in zip(self.n_list, self.medians)]
        lines.append(f"slope,{self.slope:.6f}")
        return "\n".join(lines) + "\n"


def fit_loglog_slope(n_list, times) -> float:
    """Least-squares slope of log(time) against log(N)."""
    x = np.log(np.asarray(n_list, dtype=float))
    y = np.log(np.asarray(times, dtype=float))
    return float(np.polyfit(x, y, 1)[0])


def _median_time(step, reps: int) -> float:
    samples = []
    for _ in range(reps):
        tic = time.perf_counter()
        step()
        samples.append(time.perf_counter() - tic)
    return float(np.median(samples))


def _fabricated_backbone(repr_dim: int, rng: np.random.Generator) -> BackboneState:
    cfg = BackboneConfig(lookback=LOOKBACK, horizon=HORIZON,
                         patch_len=PATCH_LEN, repr_dim=repr_dim)
    embed = rng.normal(0.0, 0.1, size=(cfg.patch_len, cfg.repr_dim))
    head = rng.normal(0.0, 0.1, size=(cfg.n_patches * cfg.repr_dim, cfg.horizon))
    return BackboneState(config=cfg, embed=embed, head=head)


def _fake_output(n_channels: int, batch: int, backbone: BackboneState,
                 rng: np.random.Generator) -> BackboneOutput:
    cfg = backbone.config
    shape = (batch, cfg.n_patches, n_channels, cfg.repr_dim)
    rep = rng.normal(size=shape)
    yhat_norm = rng.normal(size=(batch, n_channels, cfg.horizon))
    mean = rng.normal(size=(batch, n_channels, 1))
    std = 1.0 + rng.uniform(size=(batch, n_channels, 1))
    yhat = yhat_norm * std + mean
    return BackboneOutput(repr=rep, yhat=yhat, yhat_norm=yhat_norm,
                          mean=mean, std=std)


def _adapter_config(mode: str) -> TrainConfig:
    return TrainConfig(depth_division=1, depth_fusion=1, embed_dim=4,
                       poly_degree=2, rank=TRAIN_RANK, hpcl=(mode == "train-step"))


def _predict_time(backbone: BackboneState, n_channels: int, batch: int,
                  rng: np.random.Generator, reps: int) -> float:
    """Median time of the full inference path (divide + fusion)."""
    state = init_adapter(backbone, n_channels, _adapter_config("inference"))
    out = _fake_output(n_channels, batch, backbone, rng)
    predict(state, out)                         # warm caches before timing
    return _median_time(lambda: predict(state, out), reps)


def bench_inference(n_list=DEFAULT_N_LIST, reps: int = 20,
                    seed: int = 0) -> BenchResult:
    """Median time of the full inference path (divide + fusion) per N."""
    rng = np.random.default_rng(seed)
    backbone = _fabricated_backbone(INFER_REPR_DIM, rng)
    medians = [_predict_time(backbone, n, INFER_BATCH, rng, reps)
               for n in n_list]
    return BenchResult(mode="inference", n_list=tuple(n_list),
                       medians=medians, slope=fit_loglog_slope(n_list, medians))


def bench_train_step(n_list=DEFAULT_N_LIST, reps: int = 20,
                     seed: int = 0) -> BenchResult:
    """Median time of the training-only work in one optimization step.

    Training adds to the shared prediction path exactly the pieces that
    touch N x N objects: the batch Pearson estimate, the composed
    correlation, the threshold masks, the contrastive objective, and their
    backward pass plus the update of the parameters they reach.  Timing
    those in isolation is what checks the quadratic claim; the prediction
    path itself is the inference benchmark's subject and scales linearly.
    """
    rng = np.random.default_rng(seed)
    backbone = _fabricated_backbone(TRAIN_REPR_DIM, rng)
    cfg = backbone.config
    medians = []
    for n in n_list:
        state = init_adapter(backbone, n, _adapter_config("train-step"))
        x = rng.normal(size=(TRAIN_BATCH, n, LOOKBACK))
        rep = rng.normal(size=(TRAIN_BATCH, cfg.n_patches, n, cfg.repr_dim))
        # fixed branch views: the contrastive sums still cost O(N^2 P d)
        # and backward still reaches the correlation/threshold parameters
        x_pos = ad.constant(rep)
        x_neg = ad.constant(rep[..., ::-1, :, :].copy())
        hp = state.hpcl_config()
        params = [t for name, t in state_tensors(state)
                  if name.startswith(("dce.", "hpcl."))]
        opt = Adam(params, lr=1e-4)

        def step():
            opt.zero_grad()
            r = pearson_matrix(x)
            m = correlation_estimate(state, ad.constant(rep), r)
            masks = threshold_masks(m, state.eps, hp)
            _, _, total = aux_loss(x_pos, x_neg, masks, hp)
            total.backward()
            opt.step()

        step()                                  # warm-up outside timing
        medians.append(_median_time(step, reps))
    return BenchResult(mode="train-step", n_list=tuple(n_list),
                       medians=medians, slope=fit_loglog_slope(n_list, medians))


def run_bench(mode: str, n_list=DEFAULT_N_LIST, reps: int = 20,
              seed: int = 0) -> BenchResult:
    if list(n_list) != sorted(n_list) or len(n_list) < 4:
        raise ValueError("n_list must be ascending with at least 4 points")
    if mode == "inference":
        return bench_inference(n_list, reps=reps, seed=seed)
    if mode == "train-step":
        return bench_train_step(n_list, reps=reps, seed=seed)
    raise ValueError(f"unknown bench mode {mode!r}")


def repr_dim_doubling_ratio(n_channels: int = 64, repr_dim: int = 32,
                            reps: int = 50,
                            seed: int = 0) -> tuple[float, float, float]:
    """Inference time at repr_dim d vs 2d at fixed N.

    The per-channel projections cost O(d^2), so doubling d should more
    than double the time.  Returns (t_d, t_2d, ratio).
    """
    rng = np.random.default_rng(seed)
    t1, t2 = (_predict_time(_fabricated_backbone(d, rng), n_channels,
                            DOUBLING_BATCH, rng, reps)
              for d in (repr_dim, 2 * repr_dim))
    return t1, t2, t2 / t1
