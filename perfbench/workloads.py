"""The three benchmark workloads.

Each workload drives ``chancorr`` only through its public functions, looked
up as module attributes at call time (``chancorr.train.fit``, ...) so the
span recorder can rebind them.  One process, one caller, closed loop: the
next operation starts when the previous one returns.

A workload has four phases:

* ``prepare()``  untimed inputs the set-up reads (checkpoints written
  beforehand for ``serve-wide``);
* ``setup()``    the timed set-up, repeated for a median;
* ``measure()``  the timed operations, repeated until the time budget is
  spent, returning the workload's detail metrics; it calls ``between()``,
  when given, after each operation (or round), where the harness takes
  further set-up samples;
* correctness checks, recorded in a ``Ledger`` during ``measure``.

Sizes default to the benchmark's; the harness tests pass smaller ones.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

import numpy as np

import chancorr
from chancorr import autodiff as ad

LOOKBACK = 96
HORIZON = 24
PATCH_LEN = 16

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"
# Relative tolerance on the recorded few-shot test MSE.  Reruns on one
# machine are bit-identical; the slack admits a different BLAS or a
# reordered float64 reduction, not a change in what the model learns.
TEST_MSE_REL_TOL = 1e-4


class Ledger:
    """Attempted and failed operations, plus the correctness checks.

    Every timed operation and every check counts as one attempt.  An
    operation that raises, or a check that does not hold, counts as one
    failure.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks: list[dict] = []

    def timed(self, fn, *args, **kwargs):
        """Run ``fn`` and return ``(result, seconds)``."""
        self.attempted += 1
        tic = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            raise
        return result, time.perf_counter() - tic

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})

    def note(self, name: str, detail: str) -> None:
        """A check that could not run; it is reported but not counted."""
        self.checks.append({"name": name, "ok": None, "detail": detail})


def _median(values) -> float:
    return float(statistics.median(values))


def _fabricated_backbone(repr_dim: int, rng) -> "chancorr.backbone.BackboneState":
    """Random frozen weights: cost does not depend on their values."""
    cfg = chancorr.BackboneConfig(lookback=LOOKBACK, horizon=HORIZON,
                                  patch_len=PATCH_LEN, repr_dim=repr_dim)
    embed = rng.normal(0.0, 0.3, size=(cfg.patch_len, cfg.repr_dim))
    head = rng.normal(0.0, 0.05, size=(cfg.n_patches * cfg.repr_dim, cfg.horizon))
    return chancorr.backbone.BackboneState(config=cfg, embed=embed, head=head)


def _correlated_windows(rng, batch: int, n_channels: int, n_factors: int = 4):
    """(x, y) windows whose channels load with sign +-1 on one of a few
    latent factors, so window Pearson matrices carry strong positive and
    negative pairs and both contrastive masks are populated.  Built in
    place, so the peak memory of preparing them stays near their size."""
    length = LOOKBACK + HORIZON
    group = rng.integers(0, n_factors, size=n_channels)
    sign = rng.choice([-1.0, 1.0], size=n_channels)
    latent = rng.standard_normal((batch, n_factors, length))
    series = rng.standard_normal((batch, n_channels, length))
    series *= 0.6
    for k in range(n_factors):
        members = np.flatnonzero(group == k)
        series[:, members, :] += 0.8 * sign[members, None] * latent[:, k:k + 1, :]
    return series[..., :LOOKBACK], series[..., LOOKBACK:]


def _adapter_config(seed: int, hpcl: bool) -> "chancorr.TrainConfig":
    # depth-1 stacks and the low-rank estimator of ``chancorr bench``
    return chancorr.TrainConfig(depth_division=1, depth_fusion=1, embed_dim=4,
                                poly_degree=2, rank=4, hpcl=hpcl, seed=seed)


def load_reference(path=REFERENCE_FILE) -> dict:
    """Recorded few-shot test MSE per seed, as {seed: mse}."""
    with open(path, "r", encoding="utf-8") as fh:
        table = json.load(fh)["fewshot-dynamic"]["test_mse"]
    return {int(seed): float(mse) for seed, mse in table.items()}


class FewShotDynamic:
    """The paper's few-shot protocol on the planted dynamic regime (N=8).

    Set-up synthesises the scenario and pretrains the backbone.  The timed
    phase repeats rounds of one ``fit``, a ``save_adapter``/``load_adapter``
    round trip and a fixed number of ``evaluate`` passes on the test split.
    """

    name = "fewshot-dynamic"
    setup_reps = 3
    setup_between = 0
    min_reps = 3        # evaluate passes
    trace_reps = 3
    # A run is a whole number of rounds, each one fit, a save/load round
    # trip and this many evaluate passes.  Every round does the same work,
    # so the mix of training and inference in ``windows_per_s`` does not
    # depend on how fast the machine is, and the samples of each median
    # spread over the run.
    passes_per_round = 4

    def __init__(self, seed: int, scratch: Path, epochs: int = 25,
                 pre_length: int = 3072, length: int = 8192,
                 reference: dict | None = None):
        self.seed = seed
        self.scratch = Path(scratch)
        self.epochs = epochs
        self.scenario_kwargs = dict(pre_length=pre_length, length=length)
        self.reference = reference

    def prepare(self) -> None:
        pass

    def setup(self) -> None:
        (self.backbone, self.train, self.val,
         self.test) = chancorr.train.few_shot_scenario(
            "dynamic", self.seed, **self.scenario_kwargs)

    def shapes(self) -> dict:
        bc = self.backbone.config
        return {"n_channels": int(self.train.x.shape[1]),
                "lookback": bc.lookback, "horizon": bc.horizon,
                "repr_dim": bc.repr_dim, "train_windows": len(self.train),
                "val_windows": len(self.val), "test_windows": len(self.test),
                "epochs": self.epochs,
                "evaluate_passes_per_round": self.passes_per_round}

    def nxn_bytes_per_pass(self) -> int:
        n = self.train.x.shape[1]
        return chancorr.few_shot_protocol().batch_size * n * n * 8

    def measure(self, ledger: Ledger, seconds: float, reps: int,
                checks: bool = True, recorder=None, short: bool = False,
                between=None) -> dict:
        start = time.perf_counter()
        epochs = 2 if short else self.epochs
        per_round = 1 if short else max(reps, self.passes_per_round)
        config = chancorr.train.few_shot_protocol(seed=self.seed, epochs=epochs,
                                                  patience=epochs)
        path = self.scratch / f"fewshot-{self.seed}.adapter"
        fits, epoch_times, passes, scores = [], [], [], []
        rounds = 0
        # Rounds run while the next one would end nearer to ``seconds``
        # than stopping now does; at least one runs.
        while True:
            (state, report), fit_s = ledger.timed(
                chancorr.train.fit, config, self.train, self.val, self.backbone)
            fits.append(fit_s)
            epoch_times += report.wall_clock_per_epoch
            ledger.timed(chancorr.adapter.save_adapter, state, path)
            loaded, _ = ledger.timed(chancorr.adapter.load_adapter, path,
                                     self.backbone)
            if rounds == 0:
                first_state, first_loaded = state, loaded
            for _ in range(per_round):
                score, seconds_taken = ledger.timed(
                    chancorr.train.evaluate, loaded, self.backbone, self.test)
                passes.append(seconds_taken)
                scores.append(score)
            rounds += 1
            if between is not None:
                between()
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / rounds / 2 >= seconds:
                break
        test_mse = scores[0][0]
        epochs_run = len(epoch_times)
        windows = {"train_windows": len(self.train) * epochs_run,
                   "val_windows": len(self.val) * epochs_run,
                   "test_windows": len(self.test) * len(passes)}
        detail = {
            "rounds": rounds,
            "fit_s": _median(fits),
            "fit_samples": len(fits),
            "epoch_p50_s": _median(epoch_times),
            "epoch_samples": epochs_run,
            "evaluate_s": _median(passes),
            "evaluate_samples": len(passes),
            "predict_windows_per_s": len(self.test) / _median(passes),
            "protocol_windows_per_s":
                sum(windows.values()) / (sum(fits) + sum(passes)),
            "test_mse": test_mse,
            **windows,
            "primary_s": _median(fits),
        }
        if checks:
            ledger.check("repeated fits and passes give identical scores",
                         all(score == scores[0] for score in scores),
                         f"{len(fits)} fits, {len(scores)} passes")
            self._check(ledger, first_state, first_loaded, test_mse, detail)
        return detail

    def _check(self, ledger, state, loaded, test_mse, detail) -> None:
        frozen_mse, _ = chancorr.train.backbone_mse_mae(self.backbone, self.test)
        detail["backbone_mse"] = frozen_mse
        ledger.check("test_mse finite and below the frozen backbone",
                     bool(np.isfinite(test_mse) and test_mse < frozen_mse),
                     f"adapted {test_mse!r}, frozen {frozen_mse!r}")
        expected = (self.reference or {}).get(self.seed)
        if expected is None:
            ledger.note("test_mse matches the value recorded for the seed",
                        f"no recorded value for seed {self.seed} at these sizes")
        else:
            rel = abs(test_mse - expected) / expected
            ledger.check("test_mse matches the value recorded for the seed",
                         rel <= TEST_MSE_REL_TOL,
                         f"got {test_mse!r}, recorded {expected!r}, "
                         f"relative difference {rel:.3g} "
                         f"(tolerance {TEST_MSE_REL_TOL:g})")
        out = chancorr.backbone.backbone_forward(self.backbone, self.test.x)
        same = np.array_equal(chancorr.adapter.predict(state, out),
                              chancorr.adapter.predict(loaded, out))
        ledger.check("load_adapter(save_adapter(state)) predicts identically",
                     same)

    def e2e(self, detail: dict) -> dict:
        return {"op_p50_s": detail["epoch_p50_s"],
                "windows_per_s": detail["protocol_windows_per_s"],
                "output_mse": detail["test_mse"]}


class TrainWide:
    """Training steps at N=256 in float64: the quadratic path.

    Set-up builds the adapter on a fabricated backbone, fabricates one
    batch of correlated windows, and computes the backbone outputs and the
    window Pearson matrices once, as ``fit`` does.  The timed phase runs
    ``training_losses`` -> ``Tensor.backward`` -> ``Adam.step``.
    """

    name = "train-wide"
    setup_reps = 3
    setup_between = 0
    min_reps = 5        # timed steps
    trace_reps = 6
    warmup_steps = 2
    lambda_aux = 1.0

    def __init__(self, seed: int, scratch: Path, n_channels: int = 256,
                 batch: int = 48, repr_dim: int = 8):
        self.seed = seed
        self.n_channels = n_channels
        self.batch = batch
        self.repr_dim = repr_dim

    def prepare(self) -> None:
        pass

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        backbone = _fabricated_backbone(self.repr_dim, rng)
        self.state = chancorr.adapter.init_adapter(
            backbone, self.n_channels, _adapter_config(self.seed, hpcl=True))
        x, y = _correlated_windows(rng, self.batch, self.n_channels)
        self.out = chancorr.backbone.backbone_forward(backbone, x)
        self.y_norm = (y - self.out.mean) / self.out.std
        self.r = chancorr.correlation.pearson_matrix(x)
        params = [t for _, t in chancorr.adapter.named_parameters(self.state)]
        self.opt = chancorr.optim.Adam(params)

    def shapes(self) -> dict:
        return {"n_channels": self.n_channels, "batch": self.batch,
                "lookback": LOOKBACK, "horizon": HORIZON,
                "repr_dim": self.repr_dim, "depth": 1,
                "warmup_steps": self.warmup_steps}

    def nxn_bytes_per_pass(self) -> int:
        return self.batch * self.n_channels * self.n_channels * 8

    def _step(self):
        self.opt.zero_grad()
        losses = chancorr.adapter.training_losses(
            self.state, self.out.repr, self.out.yhat_norm, self.y_norm, self.r)
        loss = ad.add(losses["prediction"],
                      ad.scale(losses["aux"], self.lambda_aux))
        loss.backward()
        self.opt.step()
        return float(losses["prediction"].data), float(loss.data)

    def measure(self, ledger: Ledger, seconds: float, reps: int,
                checks: bool = True, recorder=None, short: bool = False,
                between=None) -> dict:
        if not (short or recorder):
            for _ in range(self.warmup_steps):
                ledger.timed(self._step)
        start = time.perf_counter()
        times, losses = [], []
        while len(times) < reps or time.perf_counter() - start < seconds:
            if recorder is None:
                loss, seconds_taken = ledger.timed(self._step)
            else:
                with recorder.span("workload.step"):
                    loss, seconds_taken = ledger.timed(self._step)
            times.append(seconds_taken)
            losses.append(loss)
            if between is not None:
                between()
            if short:
                break
        detail = {
            "step_p50_s": _median(times),
            "step_samples": len(times),
            "train_windows_per_s": self.batch * len(times) / sum(times),
            "first_step_prediction_mse": losses[0][0],
            "train_windows": self.batch * len(times),
            "val_windows": 0,
            "test_windows": 0,
            "primary_s": _median(times),
        }
        if checks:
            ledger.check("every training loss is finite",
                         bool(np.isfinite(losses).all()),
                         f"{len(losses)} steps")
        return detail

    def e2e(self, detail: dict) -> dict:
        return {"op_p50_s": detail["step_p50_s"],
                "windows_per_s": detail["train_windows_per_s"],
                "output_mse": detail["first_step_prediction_mse"]}


class ServeWide:
    """Inference at N=256 with d=32: the linear path.

    Checkpoints of a fabricated backbone and of an adapter whose zero-
    initialised weights (projection outputs, fusion head, gate) are given
    seeded non-zero values are written untimed beforehand.  Set-up is
    ``load_backbone`` + ``load_adapter``; the timed phase repeats
    ``evaluate`` over the same windows.
    """

    name = "serve-wide"
    setup_reps = 51
    # A load takes about a millisecond, so its samples are taken between
    # the passes: the median then spans the run, not one moment of it.
    # Reloading between passes gives the same state, which the checks
    # on repeated predictions then also cover.
    setup_between = 10
    min_reps = 3        # evaluate passes
    trace_reps = 3
    # evaluate's chunk: bounds the live (chunk, P, N, d) intermediates
    chunk = 64

    def __init__(self, seed: int, scratch: Path, n_channels: int = 256,
                 windows: int = 512, repr_dim: int = 32):
        self.seed = seed
        self.scratch = Path(scratch)
        self.n_channels = n_channels
        self.n_windows = windows
        self.repr_dim = repr_dim
        self.backbone_path = self.scratch / f"serve-{seed}.backbone"
        self.adapter_path = self.scratch / f"serve-{seed}.adapter"

    def prepare(self) -> None:
        rng = np.random.default_rng(self.seed)
        backbone = _fabricated_backbone(self.repr_dim, rng)
        state = chancorr.adapter.init_adapter(
            backbone, self.n_channels, _adapter_config(self.seed, hpcl=False))
        for name, tensor in chancorr.adapter.named_parameters(state):
            if name.rsplit(".", 1)[-1] in ("w2", "v2", "head_w"):
                tensor.data[...] = rng.normal(0.0, 0.05, size=tensor.shape)
            elif name.endswith("beta_logits"):
                tensor.data[...] = rng.normal(0.0, 1.0, size=tensor.shape)
        chancorr.backbone.save_backbone(backbone, self.backbone_path)
        chancorr.adapter.save_adapter(state, self.adapter_path)
        x, y = _correlated_windows(rng, self.n_windows, self.n_channels)
        self.windows = chancorr.data.WindowSet(
            x=x, y=y, starts=np.arange(self.n_windows, dtype=np.int64))

    def setup(self) -> None:
        self.backbone = chancorr.backbone.load_backbone(self.backbone_path)
        self.state = chancorr.adapter.load_adapter(self.adapter_path,
                                                   self.backbone)

    def shapes(self) -> dict:
        return {"n_channels": self.n_channels, "windows": self.n_windows,
                "lookback": LOOKBACK, "horizon": HORIZON,
                "repr_dim": self.repr_dim, "depth": 1,
                "evaluate_chunk": self.chunk}

    def nxn_bytes_per_pass(self) -> int:
        return 0    # the inference path builds no N x N object

    def _predictions(self):
        head = self.windows.x[:self.chunk]
        out = chancorr.backbone.backbone_forward(self.backbone, head)
        return chancorr.adapter.predict(self.state, out)

    def measure(self, ledger: Ledger, seconds: float, reps: int,
                checks: bool = True, recorder=None, short: bool = False,
                between=None) -> dict:
        before = self._predictions() if checks else None
        start = time.perf_counter()
        times, scores, allocation_deltas = [], [], []
        while len(times) < reps or time.perf_counter() - start < seconds:
            allocations = chancorr.correlation.correlation_matrix_allocations()
            score, seconds_taken = ledger.timed(
                chancorr.train.evaluate, self.state, self.backbone,
                self.windows, chunk=self.chunk)
            allocation_deltas.append(
                chancorr.correlation.correlation_matrix_allocations()
                - allocations)
            times.append(seconds_taken)
            scores.append(score)
            if between is not None:
                between()
            if short:
                break
        detail = {
            "evaluate_s": _median(times),
            "evaluate_samples": len(times),
            "predict_windows_per_s": self.n_windows * len(times) / sum(times),
            "served_mse": scores[0][0],
            "train_windows": 0,
            "val_windows": 0,
            "test_windows": self.n_windows * len(times),
            "primary_s": _median(times),
        }
        if checks:
            ledger.check("repeated passes give identical scores",
                         all(s == scores[0] for s in scores),
                         f"{len(scores)} passes")
            ledger.check("repeated passes give identical predictions",
                         np.array_equal(before, self._predictions()))
            ledger.check("no correlation matrix is built while serving",
                         not any(allocation_deltas),
                         f"allocations per pass {sorted(set(allocation_deltas))}")
        return detail

    def e2e(self, detail: dict) -> dict:
        return {"op_p50_s": detail["evaluate_s"],
                "windows_per_s": detail["predict_windows_per_s"],
                "output_mse": detail["served_mse"]}


WORKLOADS = {cls.name: cls for cls in (FewShotDynamic, TrainWide, ServeWide)}
