"""Frozen patch-linear forecasting backbone.

The adapter needs two things from a backbone: a per-patch representation
tensor (P, N, d) and an initial forecast (N, F).  This surrogate supplies
both with the cheapest architecture that has that interface:

    z-score per (window, channel)  ->  patchify (P patches of length l)
    ->  linear embed l -> d        ->  repr  (P, N, d)
    ->  flatten per channel (P*d)  ->  linear head -> forecast (N, F)
    ->  invert the z-score on the forecast

The z-score takes its row statistics from `correlation.centre_rows`, the
row scaler `pearson_matrix` also uses: each row is scaled by a power of two
first, so any finite magnitude keeps its bits and no square overflows.

Both matrices are fitted with alternating ridge least squares and then
frozen: forwards return plain arrays, never autodiff nodes, so no gradient
can reach them.  All channels share the same matrices (channel-independent
convention).

The forecast is linear in the flattened patches X (instances x P*l): it is
X @ W, with W the embed applied block-wise to the head.  So with the embed
fixed the head's normal equations, and with the head fixed the embed's, are
contractions of the two moments X^T X (P*l x P*l) and X^T Y (P*l x F) with
the other factor; the corpus enters the fit only through them, whatever its
size.  The fit error is the one exception: it comes from the residual
X @ W - Y, since the moment form |Y|^2 - 2<W, X^T Y> + <W, X^T X W> cancels
to rounding noise, below zero, on a near-perfect fit.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import serialize
from .autodiff import ShapeMismatchError
from .config import ConfigError, bounded, check_fields, check_value, rule
from .correlation import centre_rows
from .data import DataError

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
# a checkpoint's fit report, the header fields past the config: key, value
# when absent (older files), rule; "" is an unknown stop
_FIT_REPORT = (("train_mse", math.nan, rule(float, ge=0)),
               ("ridge", 0.0, rule(float, ge=0)),
               ("als_rounds", 0, rule(int, ge=0)),
               ("als_stop", "", rule(str, choices=("stall", "cap", ""))),
               ("ridge_escalations", 0, rule(int, ge=0)))


@dataclass
class BackboneConfig:
    lookback: int = bounded(96, gt=0)
    horizon: int = bounded(24, gt=0)
    patch_len: int = bounded(16, gt=0)
    repr_dim: int = bounded(32, ge=2)
    seed: int = bounded(0, ge=0)

    def __post_init__(self):
        check_fields(self)
        if self.lookback % self.patch_len != 0:
            raise ConfigError(
                f"lookback {self.lookback} not divisible by patch_len {self.patch_len}")

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
    # how the fit ended: ALS rounds run, what stopped them ("stall" or
    # "cap", "" if unknown) and the ridge escalations of all its solves
    als_rounds: int = 0
    als_stop: str = ""
    ridge_escalations: int = 0


@dataclass
class BackboneOutput:
    repr: np.ndarray           # (..., P, N, d)
    yhat: np.ndarray           # (..., N, F) raw space
    yhat_norm: np.ndarray      # (..., N, F) normalized space
    mean: np.ndarray           # (..., N, 1)
    std: np.ndarray            # (..., N, 1) after epsilon floor


def _normalize(x):
    # statistics of the rows as `centre_rows` scales them: exact (short of
    # subnormals), so mean and std keep their bits and no square overflows;
    # the floor applies unscaled.  The squares and the output reuse the
    # scaler's buffer, so no other window-sized array is made
    dev, mean, exponent, _ = centre_rows(x)
    var = np.square(dev, out=dev).mean(axis=-1, keepdims=True)
    mean = np.ldexp(mean, exponent)
    std = np.maximum(np.ldexp(np.sqrt(var), exponent), NORM_EPS)
    xn = np.subtract(x, mean, out=dev)
    xn /= std
    return xn, mean, std


def _patchify(xn, config):
    # (..., N, L) -> (..., N, P, l)
    return xn.reshape(xn.shape[:-1] + (config.n_patches, config.patch_len))


def _solve_ridge(gram, rhs, ridge, what):
    """Solve (gram + ridge*scale*I) w = rhs, escalating ridge when singular.
    Returns the solution, the ridge used and the escalations it took."""
    dim = gram.shape[0]
    scale = max(np.trace(gram) / dim, 1.0)
    lam = ridge
    for tries in range(6):
        # the ridge goes on the diagonal of a copy; + 0.0 turns a -0.0 off
        # it into +0.0, as adding the identity's zeros would.  A shift that
        # overflows fails the try: an infinite ridge would zero the solution
        shift = lam * scale
        system = gram + 0.0
        system.flat[::dim + 1] += shift
        try:
            sol = np.linalg.solve(system, rhs)
        except np.linalg.LinAlgError:
            sol = None
        if sol is not None and math.isfinite(shift) and np.isfinite(sol).all():
            return sol, lam, tries
        lam *= 100.0
    raise FloatingPointError(f"{what}: normal equations singular even at ridge {lam}")


def pretrain_backbone(x, y, config: BackboneConfig,
                      ridge: float = 1e-6) -> BackboneState:
    """Fit embed and head by alternating ridge least squares, then freeze.

    x: (B, N, L) lookback windows; y: (B, N, F) continuation targets.
    Every (window, channel) pair is one training instance; targets are
    normalized with the statistics of their own input window.  Alternation
    stops after ``ALS_ROUNDS`` rounds or when the fit error stalls
    (relative improvement below ``ALS_REL_TOL``); the state records which,
    the rounds run and the ridge escalations, and a fit that the cap
    stopped is returned as it stands.  ``ridge`` must be finite and above
    0: a singular solve escalates it by multiplying.

    Both fits read the corpus only through X^T X and X^T Y, formed once, so
    a round costs the same for any number of instances; each round's fit
    error, the stall test's input and ``train_mse``, is the mean square of
    the residual X @ W - Y, which cannot read below 0 as the moment form
    can.  A non-finite value in ``x`` or ``y`` is a ``DataError``.
    """
    ridge = check_value("ridge", ridge, rule(float, gt=0))
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 3 or x.shape[0] == 0:
        raise DataError(f"corpus must be nonempty (B, N, L), got {x.shape}")
    if x.shape[-1] != config.lookback:
        raise ShapeMismatchError(
            f"corpus lookback {x.shape[-1]} != config {config.lookback}")
    if y.shape != x.shape[:-1] + (config.horizon,):
        raise ShapeMismatchError(
            f"targets {y.shape} do not match windows {x.shape} at horizon {config.horizon}")
    for name, values in (("windows", x), ("targets", y)):
        if not np.isfinite(values).all():
            raise DataError(f"corpus {name} hold NaN or Inf")

    xn, mean, std = _normalize(x)
    yn = y - mean
    yn /= std
    p_count, l, d, f = config.n_patches, config.patch_len, config.repr_dim, config.horizon
    flat = _patchify(xn, config).reshape(-1, p_count * l)      # X: (n_inst, P*l)
    targets = yn.reshape(-1, f)                                # Y: (n_inst, F)
    xx = (flat.T @ flat).reshape(p_count, l, p_count, l)
    xy = (flat.T @ targets).reshape(p_count, l, f)

    rng = np.random.default_rng(config.seed)
    embed = rng.normal(0.0, 1.0 / np.sqrt(l), size=(l, d))
    prev_mse, escalations = None, 0
    for round_idx in range(ALS_ROUNDS):
        # head fit on z[n, p*d+j] = sum_i X[n, p*l+i] * embed[i, j]
        gram = np.einsum("ij,piqk,km->pjqm", embed, xx, embed, optimize=True)
        rhs = np.einsum("ij,pif->pjf", embed, xy)
        head, lam_used, tries = _solve_ridge(gram.reshape(p_count * d, -1),
                                             rhs.reshape(p_count * d, f), ridge, "head fit")
        escalations += tries
        hp = head.reshape(p_count, d, f)
        weights = np.einsum("ij,pjf->pif", embed, hp).reshape(p_count * l, f)
        mse = float(((flat @ weights - targets) ** 2).mean())
        stalled = prev_mse is not None and prev_mse - mse <= ALS_REL_TOL * prev_mse
        prev_mse = mse
        if stalled or round_idx == ALS_ROUNDS - 1:
            break
        # embed fit on G[n, i*d+j, f] = sum_p X[n, p*l+i] * head_p[j, f]
        gram = np.einsum("piqk,pjf,qmf->ijkm", xx, hp, hp, optimize=True)
        rhs = np.einsum("pif,pjf->ij", xy, hp)
        sol, _, tries = _solve_ridge(gram.reshape(l * d, -1), rhs.reshape(-1), ridge,
                                     "embed fit")
        escalations += tries
        embed = sol.reshape(l, d)
    return BackboneState(config=config, embed=embed, head=head, train_mse=mse,
                         ridge=lam_used, als_rounds=round_idx + 1,
                         als_stop="stall" if stalled else "cap",
                         ridge_escalations=escalations)


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
        "als_rounds": state.als_rounds,
        "als_stop": state.als_stop,
        "ridge_escalations": state.ridge_escalations,
    }, {"embed": state.embed, "head": state.head})


def load_backbone(path) -> BackboneState:
    config, arrays, (lookback, horizon, patch_len, repr_dim, seed) = \
        serialize.load_checkpoint(path, "backbone", "lookback", "horizon",
                                  "patch_len", "repr_dim", "seed")
    try:
        cfg = BackboneConfig(lookback=lookback, horizon=horizon,
                             patch_len=patch_len, repr_dim=repr_dim, seed=seed)
    except ConfigError as exc:
        raise serialize.SerializationError(
            f"{path}: bad header value ({exc})") from exc
    report = {}
    for key, default, key_rule in _FIT_REPORT:
        value = config.get(key, default)
        # the NaN train_mse of a state pretrain_backbone did not fit
        unfitted = key == "train_mse" and isinstance(value, float) and math.isnan(value)
        report[key] = value if unfitted else check_value(
            f"{path}: {key}", value, key_rule, serialize.SerializationError)
    serialize.check_arrays(path, arrays, {
        "embed": (cfg.patch_len, cfg.repr_dim),
        "head": (cfg.n_patches * cfg.repr_dim, cfg.horizon)})
    return BackboneState(config=cfg, embed=arrays["embed"], head=arrays["head"],
                         **report)
