"""Frozen patch-linear forecasting backbone.

The adapter needs two things from a backbone: a per-patch representation
tensor (P, N, d) and an initial forecast (N, F).  This surrogate supplies
both with the cheapest architecture that has that interface:

    z-score per (window, channel)  ->  patchify (P patches of length l)
    ->  linear embed l -> d        ->  repr  (P, N, d)
    ->  flatten per channel (P*d)  ->  linear head -> forecast (N, F)
    ->  invert the z-score on the forecast

Both matrices are fitted with alternating ridge least squares and then
frozen: forwards return plain arrays, never autodiff nodes, so no gradient
can reach them.  All channels share the same matrices (channel-independent
convention).
"""

from dataclasses import dataclass

import numpy as np

from . import serialize
from .autodiff import ShapeMismatchError

__all__ = [
    "BackboneConfig",
    "BackboneState",
    "BackboneOutput",
    "pretrain_backbone",
    "backbone_forward",
    "save_backbone",
    "load_backbone",
    "NORM_EPS",
]

NORM_EPS = 1e-8
# alternating least squares: round cap, and relative gain that ends it early
ALS_ROUNDS = 30
ALS_REL_TOL = 1e-9


@dataclass
class BackboneConfig:
    lookback: int = 96
    horizon: int = 96
    patch_len: int = 16
    repr_dim: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.lookback <= 0 or self.horizon <= 0:
            raise ValueError("lookback and horizon must be positive")
        if self.patch_len <= 0 or self.lookback % self.patch_len != 0:
            raise ValueError(
                f"lookback {self.lookback} not divisible by patch_len {self.patch_len}")
        if self.repr_dim < 2:
            raise ValueError("repr_dim must be >= 2")

    @property
    def n_patches(self) -> int:
        return self.lookback // self.patch_len


@dataclass
class BackboneState:
    """Frozen weights; treat as immutable after pretraining."""

    config: BackboneConfig
    embed: np.ndarray          # (patch_len, repr_dim)
    head: np.ndarray           # (n_patches * repr_dim, horizon)
    train_mse: float = float("nan")   # normalized-space fit error
    ridge: float = 0.0


@dataclass
class BackboneOutput:
    repr: np.ndarray           # (..., P, N, d)
    yhat: np.ndarray           # (..., N, F) raw space
    yhat_norm: np.ndarray      # (..., N, F) normalized space
    mean: np.ndarray           # (..., N, 1)
    std: np.ndarray            # (..., N, 1) after epsilon floor


def _normalize(x):
    mean = x.mean(axis=-1, keepdims=True)
    std = np.sqrt(((x - mean) ** 2).mean(axis=-1, keepdims=True))
    std = np.maximum(std, NORM_EPS)
    return (x - mean) / std, mean, std


def _patchify(xn, config):
    # (..., N, L) -> (..., N, P, l)
    return xn.reshape(xn.shape[:-1] + (config.n_patches, config.patch_len))


def _solve_ridge(gram, rhs, ridge, what):
    """Solve (gram + ridge*scale*I) w = rhs, escalating ridge when singular."""
    dim = gram.shape[0]
    scale = max(np.trace(gram) / dim, 1.0)
    lam = ridge
    for _ in range(6):
        try:
            sol = np.linalg.solve(gram + lam * scale * np.eye(dim), rhs)
        except np.linalg.LinAlgError:
            lam *= 100.0
            continue
        if np.isfinite(sol).all():
            return sol, lam
        lam *= 100.0
    raise FloatingPointError(f"{what}: normal equations singular even at ridge {lam}")


def pretrain_backbone(x, y, config: BackboneConfig,
                      ridge: float = 1e-6) -> BackboneState:
    """Fit embed and head by alternating ridge least squares, then freeze.

    x: (B, N, L) lookback windows; y: (B, N, F) continuation targets.
    Every (window, channel) pair is one training instance; targets are
    normalized with the statistics of their own input window.  Alternation
    stops after ``ALS_ROUNDS`` rounds or when the fit error stalls
    (relative improvement below ``ALS_REL_TOL``).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 3 or x.shape[0] == 0:
        raise ValueError(f"corpus must be nonempty (B, N, L), got {x.shape}")
    if x.shape[-1] != config.lookback:
        raise ShapeMismatchError(
            f"corpus lookback {x.shape[-1]} != config {config.lookback}")
    if y.shape != x.shape[:-1] + (config.horizon,):
        raise ShapeMismatchError(
            f"targets {y.shape} do not match windows {x.shape} at horizon {config.horizon}")

    xn, mean, std = _normalize(x)
    yn = (y - mean) / std
    p_count, l, d, f = config.n_patches, config.patch_len, config.repr_dim, config.horizon
    patches = _patchify(xn, config).reshape(-1, p_count, l)   # (n_inst, P, l)
    targets = yn.reshape(-1, f)                               # (n_inst, F)
    n_inst = patches.shape[0]

    rng = np.random.default_rng(config.seed)
    embed = rng.normal(0.0, 1.0 / np.sqrt(l), size=(l, d))
    head = np.zeros((p_count * d, f))
    lam_used = ridge

    def fit_head(embed):
        z = (patches @ embed).reshape(n_inst, p_count * d)
        sol, lam = _solve_ridge(z.T @ z, z.T @ targets, ridge, "head fit")
        return sol, lam, z

    prev_mse = None
    for round_idx in range(ALS_ROUNDS):
        head, lam_used, z = fit_head(embed)
        mse = float(((z @ head - targets) ** 2).mean())
        stalled = prev_mse is not None and prev_mse - mse <= ALS_REL_TOL * prev_mse
        prev_mse = mse
        if stalled or round_idx == ALS_ROUNDS - 1:
            break
        # embed fit: y[n, f] = sum_ij embed[i, j] * G[n, i*d+j, f] with
        # G[n, i*d+j, f] = sum_p patches[n, p, i] * head_p[j, f]
        hp = head.reshape(p_count, d, f)
        gram = np.zeros((l * d, l * d))
        rhs = np.zeros((l * d,))
        for lo in range(0, n_inst, 128):
            chunk = patches[lo:lo + 128]                      # (c, P, l)
            c = chunk.shape[0]
            # (c*l, P) @ (P, d*f) -> (c, l, d, f)
            g = (chunk.transpose(0, 2, 1).reshape(c * l, p_count)
                 @ hp.reshape(p_count, d * f)).reshape(c, l, d, f)
            flat = g.reshape(c, l * d, f)
            stacked = flat.transpose(1, 0, 2).reshape(l * d, c * f)
            gram += stacked @ stacked.T
            rhs += stacked @ targets[lo:lo + 128].reshape(c * f)
        sol, _ = _solve_ridge(gram, rhs, ridge, "embed fit")
        embed = sol.reshape(l, d)

    z = (patches @ embed).reshape(n_inst, p_count * d)
    train_mse = float(((z @ head - targets) ** 2).mean())
    return BackboneState(config=config, embed=embed, head=head,
                         train_mse=train_mse, ridge=lam_used)


def backbone_forward(state: BackboneState, x) -> BackboneOutput:
    """Run the frozen backbone on (N, L) or (B, N, L) windows.

    Outputs are plain numpy arrays: nothing here joins an autodiff graph.
    """
    cfg = state.config
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (2, 3):
        raise ShapeMismatchError(f"expected (N, L) or (B, N, L), got {x.shape}")
    if x.shape[-1] != cfg.lookback:
        raise ShapeMismatchError(
            f"window length {x.shape[-1]} != backbone lookback {cfg.lookback}")

    xn, mean, std = _normalize(x)
    patches = _patchify(xn, cfg)                       # (..., N, P, l)
    per_patch = patches @ state.embed                  # (..., N, P, d)
    rep = np.swapaxes(per_patch, -3, -2)               # (..., P, N, d)
    flat = per_patch.reshape(per_patch.shape[:-2] + (cfg.n_patches * cfg.repr_dim,))
    yhat_norm = flat @ state.head                      # (..., N, F)
    yhat = yhat_norm * std + mean
    return BackboneOutput(repr=np.ascontiguousarray(rep), yhat=yhat,
                          yhat_norm=yhat_norm, mean=mean, std=std)


def save_backbone(state: BackboneState, path) -> None:
    cfg = state.config
    serialize.save_arrays(path, {
        "kind": "backbone",
        "lookback": cfg.lookback,
        "horizon": cfg.horizon,
        "patch_len": cfg.patch_len,
        "repr_dim": cfg.repr_dim,
        "seed": cfg.seed,
        "train_mse": state.train_mse,
        "ridge": state.ridge,
    }, {"embed": state.embed, "head": state.head})


def load_backbone(path) -> BackboneState:
    config, arrays, (lookback, horizon, patch_len, repr_dim, seed) = \
        serialize.load_checkpoint(path, "backbone", "lookback", "horizon",
                                  "patch_len", "repr_dim", "seed")
    try:
        cfg = BackboneConfig(lookback=lookback, horizon=horizon,
                             patch_len=patch_len, repr_dim=repr_dim, seed=seed)
        train_mse = float(config.get("train_mse", float("nan")))
        ridge = float(config.get("ridge", 0.0))
    except (TypeError, ValueError) as exc:
        raise serialize.SerializationError(
            f"{path}: bad header value ({exc})") from exc
    serialize.check_arrays(path, arrays, {
        "embed": (cfg.patch_len, cfg.repr_dim),
        "head": (cfg.n_patches * cfg.repr_dim, cfg.horizon)})
    return BackboneState(config=cfg, embed=arrays["embed"], head=arrays["head"],
                         train_mse=train_mse, ridge=ridge)
