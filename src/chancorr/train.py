"""Training, evaluation, ablation, and similarity export.

``fit`` runs Adam on MSE + lambda_aux * L_aux over few-shot train windows,
early-stops on validation MSE, and returns the best-validation adapter plus
a MetricsReport.  ``evaluate`` scores the inference path (projections +
fusion only) in raw space, running the backbone and the adapter together on
each block of raw windows.  ``ablate`` reproduces the five comparison rows.
All CSV output is deterministic (%.17g, no timings).
"""

import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .adapter import (AdapterState, backbone_parameter_count, branch_views,
                      init_adapter, named_parameters, parameter_count, predict,
                      predict_windows, state_tensors, training_losses)
from .backbone import (BackboneConfig, BackboneState, backbone_forward,
                       pretrain_backbone)
from .config import COUNT, TrainConfig, check_value, with_updates
from .correlation import correlation_matrix_allocations, pearson_matrix
from .data import (DataError, SplitSpec, WindowSet, generate_synthetic,
                   make_windows, planted_regime)
from .optim import Adam
from .serialize import atomic_open

# Windows per pooled chunk in every score: fit's validation, `evaluate`
# and `backbone_mse_mae` (all but `evaluate` run the backbone per chunk).
SCORE_CHUNK = 512


class DivergenceError(RuntimeError):
    """Loss went non-finite.  Carries the best state seen so far (may be the
    untrained initialization) and the partial report."""

    def __init__(self, message, state=None, report=None):
        super().__init__(message)
        self.state = state
        self.report = report


@dataclass
class EpochRow:
    epoch: int
    train_mse: float
    l_pos: float
    l_neg: float
    l_aux: float
    val_mse: float


@dataclass
class MetricsReport:
    epochs: list = field(default_factory=list)      # EpochRow per epoch run
    test_mse: float = float("nan")
    test_mae: float = float("nan")
    adapter_params: int = 0
    backbone_params: int = 0
    best_epoch: int = 0
    diverged: bool = False
    wall_clock_per_epoch: list = field(default_factory=list)  # seconds, not in CSV

    def to_csv(self) -> str:
        """Deterministic two-table CSV (timings intentionally excluded)."""
        lines = ["epoch,train_mse,l_pos,l_neg,l_aux,val_mse"]
        for row in self.epochs:
            lines.append("%d,%.17g,%.17g,%.17g,%.17g,%.17g" % (
                row.epoch, row.train_mse, row.l_pos, row.l_neg, row.l_aux,
                row.val_mse))
        lines.append("test_mse,test_mae,adapter_params,backbone_params,"
                     "best_epoch,diverged")
        lines.append("%.17g,%.17g,%d,%d,%d,%d" % (
            self.test_mse, self.test_mae, self.adapter_params,
            self.backbone_params, self.best_epoch, int(self.diverged)))
        return "\n".join(lines) + "\n"


def write_text_atomic(path, text: str) -> None:
    with atomic_open(path) as fh:
        fh.write(text)


def _snapshot(state: AdapterState):
    return [t.data.copy() for _, t in state_tensors(state)]


def _restore(state: AdapterState, snap) -> None:
    for (_, tensor), value in zip(state_tensors(state), snap):
        tensor.data[...] = value


def _chunks(windows: WindowSet, chunk: int):
    for lo in range(0, len(windows), chunk):
        yield windows.x[lo:lo + chunk], windows.y[lo:lo + chunk]


def _mse_mae(pairs):
    """Raw-space (MSE, MAE) over ``(forecast, target)`` pairs, pooled over
    every channel, horizon step and window; no pairs is a `DataError`."""
    sq, ab, count = 0.0, 0.0, 0
    for forecast, y in pairs:
        diff = forecast - y
        sq += float((diff ** 2).sum())
        ab += float(np.abs(diff).sum())
        count += y.size
    if count == 0:
        raise DataError("no windows to score")
    return sq / count, ab / count


def _raw_mse(state: AdapterState, chunks) -> float:
    """Raw-space MSE of the adapter (inference path) over precomputed
    ``(backbone output, target)`` chunks."""
    return _mse_mae((predict(state, out), y) for out, y in chunks)[0]


def fit(config: TrainConfig, train: WindowSet, val: WindowSet,
        backbone: BackboneState, test: WindowSet | None = None):
    """Train an adapter on few-shot windows.  Returns (state, report).

    The backbone runs once up front on the train and val windows (it is
    frozen); training batches index into the cached representations.
    Validation MSE (raw space) drives early stopping with the configured
    patience; the best-validation parameters are restored before returning.
    A non-finite loss aborts via DivergenceError carrying the best finite
    checkpoint.
    """
    if len(train) == 0:
        raise DataError("empty train split")
    if len(val) == 0:
        raise DataError("empty val split")
    n_channels = train.x.shape[1]

    state = init_adapter(backbone, n_channels, config)
    report = MetricsReport(adapter_params=parameter_count(state),
                           backbone_params=backbone_parameter_count(backbone))

    out_tr = backbone_forward(backbone, train.x)
    y_norm = (train.y - out_tr.mean) / out_tr.std
    val_chunks = [(backbone_forward(backbone, x), y)
                  for x, y in _chunks(val, SCORE_CHUNK)]
    r_cache = pearson_matrix(train.x) if config.hpcl else None

    named = named_parameters(state)
    params = [t for _, t in named]
    scales = [config.gate_lr_scale if name == "fusion.beta_logits" else 1.0
              for name, _ in named]
    opt = Adam(params, lr=config.lr, lr_scales=scales)
    rng = np.random.default_rng(config.seed)

    best = _snapshot(state)
    best_val = float("inf")
    best_epoch = 0
    bad_epochs = 0
    n = len(train)

    for epoch in range(1, config.epochs + 1):
        tic = time.perf_counter()
        order = rng.permutation(n)
        lam = config.lambda_aux if epoch > config.aux_warmup_epochs else 0.0
        sums = {"prediction": 0.0, "l_pos": 0.0, "l_neg": 0.0, "aux": 0.0}
        seen = 0
        try:
            for lo in range(0, n, config.batch_size):
                idx = order[lo:lo + config.batch_size]
                opt.zero_grad()
                losses = training_losses(
                    state, out_tr.repr[idx], out_tr.yhat_norm[idx],
                    y_norm[idx], None if r_cache is None else r_cache[idx], lam)
                ad.add(losses["prediction"], losses["aux"]).backward()
                opt.step()
                w = len(idx)
                row = {key: losses[key].data for key in ("prediction", "l_pos", "l_neg")}
                row["aux"] = row["l_pos"] + row["l_neg"]        # L_aux unweighted
                for key, value in row.items():
                    sums[key] += float(value) * w
                seen += w
        except ad.NonFiniteError as exc:
            _restore(state, best)
            report.best_epoch = best_epoch
            report.diverged = True
            raise DivergenceError(
                f"epoch {epoch}: {exc}", state=state, report=report) from exc

        val_mse = _raw_mse(state, val_chunks)
        report.epochs.append(EpochRow(
            epoch=epoch, train_mse=sums["prediction"] / seen,
            l_pos=sums["l_pos"] / seen, l_neg=sums["l_neg"] / seen,
            l_aux=sums["aux"] / seen, val_mse=val_mse))
        report.wall_clock_per_epoch.append(time.perf_counter() - tic)

        if val_mse < best_val:
            best_val = val_mse
            best = _snapshot(state)
            best_epoch = epoch
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs > config.patience:
                break

    _restore(state, best)
    report.best_epoch = best_epoch
    if test is not None and len(test):
        report.test_mse, report.test_mae = evaluate(state, backbone, test)
    return state, report


def _check_channels(state: AdapterState, windows: WindowSet) -> None:
    if windows.x.shape[1] != state.n_channels:
        raise DataError(f"adapter built for {state.n_channels} channels, "
                        f"data has {windows.x.shape[1]}")


def evaluate(state: AdapterState, backbone: BackboneState, test: WindowSet,
             chunk: int = SCORE_CHUNK):
    """Raw-space (MSE, MAE) over all channels/horizons/windows.

    Runs the inference path only; the correlation-allocation counter is
    checked before/after to enforce that no correlation matrices are built
    (a RuntimeError if one was).  The backbone and the adapter run together
    on each block of windows (`predict_windows`), so no step holds more
    than a block's (P, N, d) representations.  ``chunk``, an integer
    >= 1 (else a `ValueError`), fixes the order in which the per-chunk
    errors are pooled, and so the last bits of the score; it bounds only
    the joined forecasts.  Data with another channel count than the
    adapter's is a `DataError`.
    """
    chunk = check_value("chunk", chunk, COUNT, ValueError)
    _check_channels(state, test)
    allocations_before = correlation_matrix_allocations()
    scores = _mse_mae((predict_windows(state, backbone, x), y)
                      for x, y in _chunks(test, chunk))
    if correlation_matrix_allocations() != allocations_before:
        raise RuntimeError("inference path built a correlation matrix")
    return scores


def backbone_mse_mae(backbone: BackboneState, test: WindowSet):
    """Raw-space (MSE, MAE) of the frozen backbone alone."""
    return _mse_mae((backbone_forward(backbone, x).yhat, y)
                    for x, y in _chunks(test, SCORE_CHUNK))


ABLATION_ROWS = (
    ("backbone-only", None),
    ("pearson-single-hpcl", {"dce_mode": "pearson-only",
                             "hd_mode": "single-branch", "hpcl": True}),
    ("pearson-dual-hpcl", {"dce_mode": "pearson-only", "hd_mode": "dual",
                           "hpcl": True}),
    ("dce-single-hpcl", {"dce_mode": "full", "hd_mode": "single-branch",
                         "hpcl": True}),
    ("full", {"dce_mode": "full", "hd_mode": "dual", "hpcl": True}),
)


def ablate(config: TrainConfig, scenarios):
    """Run the five comparison rows over per-seed scenarios.

    ``scenarios``: list of (backbone, train, val, test) tuples, one per
    seed; every row reuses the same frozen backbones and windows.  Returns
    (rows, csv_text) where each row dict carries the per-seed MSEs and the
    mean.  Fit seeds are config.seed + scenario index, identical across
    rows so comparisons share data order.
    """
    rows = []
    for name, switches in ABLATION_ROWS:
        per_seed = []
        for i, (backbone, train, val, test) in enumerate(scenarios):
            if switches is None:
                mse, _ = backbone_mse_mae(backbone, test)
            else:
                row_config = with_updates(config, seed=config.seed + i,
                                          **switches)
                stt, _ = fit(row_config, train, val, backbone)
                mse, _ = evaluate(stt, backbone, test)
            per_seed.append(mse)
        rows.append({"row": name, "per_seed": per_seed,
                     "mean_mse": float(np.mean(per_seed))})
    header = ",".join(["row", "mean_mse"] +
                      [f"seed{i}_mse" for i in range(len(scenarios))])
    lines = [header]
    for row in rows:
        cells = [row["row"], "%.17g" % row["mean_mse"]]
        cells += ["%.17g" % m for m in row["per_seed"]]
        lines.append(",".join(cells))
    return rows, "\n".join(lines) + "\n"


def few_shot_scenario(regime: str, seed: int, n_channels: int = 8,
                      segment_len: int = 1024, pre_length: int = 3072,
                      pre_noise: float = 0.1, pre_stride: int = 7,
                      length: int = 8192, noise_std: float = 0.7,
                      few_shot: float = 0.05):
    """Planted-regime few-shot setup: (backbone, train, val, test).

    The backbone is ridge-pretrained on a separate low-noise realisation of
    the same planted structure (window stride coprime with the seasonal
    period, so the corpus is not phase-locked); the adapter then sees a
    noisier realisation through a few-shot slice of its train windows.
    This mirrors the deployment story: a capable frozen forecaster meeting
    a small, distribution-shifted target.
    """
    bb_cfg = BackboneConfig(seed=seed)
    structure = planted_regime(regime, n_channels=n_channels,
                               segment_len=segment_len)
    pre_series, _ = generate_synthetic(structure, pre_length,
                                       noise_std=pre_noise, seed=1000 + seed)
    pre_spec = SplitSpec(train_frac=1.0, val_frac=0.0, test_frac=0.0,
                         stride=pre_stride)
    pre_train, _, _ = make_windows(pre_series, pre_spec,
                                   bb_cfg.lookback, bb_cfg.horizon)
    backbone = pretrain_backbone(pre_train.x, pre_train.y, bb_cfg)

    target, _ = generate_synthetic(structure, length, noise_std=noise_std,
                                   seed=seed)
    train, val, test = make_windows(target, SplitSpec(few_shot_frac=few_shot),
                                    bb_cfg.lookback, bb_cfg.horizon)
    return backbone, train, val, test


def few_shot_protocol(**overrides) -> TrainConfig:
    """Training recipe for few-shot correction of an over-confident backbone.

    The head and depth are kept deliberately small (hundreds of few-shot
    windows cannot support deep stacks), while the fusion gate gets a much
    larger learning rate: it must travel from near-closed to its optimum in
    a handful of epochs, and its gradient magnitude is tiny compared to the
    head's.  The run length is fixed (patience == epochs) so results are a
    deterministic function of the seed; the best-validation checkpoint
    still picks the returned parameters.
    """
    base = dict(lr=1e-4, gate_lr_scale=500.0, beta_logit_init=-2.0,
                epochs=25, patience=25, batch_size=32,
                depth_division=1, depth_fusion=1)
    base.update(overrides)
    return TrainConfig(**base)


def export_similarity(state: AdapterState, backbone: BackboneState,
                      windows: WindowSet, out_dir, channel_names=None,
                      indices=(0,)):
    """Write pos/neg cosine-similarity CSVs for selected windows.

    Files land in ``out_dir`` as sim_w{index}_pos.csv / _neg.csv with a
    channel-name header row and a leading label column.  Returns the list
    of written paths; an index outside ``windows``, or data with another
    channel count than the adapter's, is a `DataError`, raised before any
    file is written.
    """
    _check_channels(state, windows)
    n = windows.x.shape[1]
    names = list(channel_names) if channel_names else [
        f"ch{i}" for i in range(n)]
    if len(names) != n:
        raise ValueError(f"{len(names)} channel names for {n} channels")
    bad = [i for i in indices if not 0 <= i < len(windows)]
    if bad:
        raise DataError(f"window indices {bad} out of range "
                        f"[0, {len(windows)})")
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for index in indices:
        out = backbone_forward(backbone, windows.x[index])
        pos, neg = branch_views(state, out)
        for tag, views in (("pos", pos), ("neg", neg)):
            unit = ad.unit_rows(views)[0]
            sim = unit @ unit.T
            lines = ["," + ",".join(names)]
            for i, row in enumerate(sim):
                lines.append(names[i] + "," + ",".join("%.17g" % v for v in row))
            path = os.path.join(out_dir, f"sim_w{index}_{tag}.csv")
            write_text_atomic(path, "\n".join(lines) + "\n")
            written.append(path)
    return written
