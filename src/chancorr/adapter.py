"""Adapter assembly: the trainable modules around a frozen backbone.

The adapter owns four parameter groups: the learned correlation estimator
(optional, see ``dce_mode``), the dual projection stacks that split a
representation into positive/negative-correlation views, the threshold that
turns a correlation estimate into contrastive masks, and the fusion head
that blends an adapter forecast with the frozen backbone's.

Training runs through the autodiff graph (``training_losses``); inference
(``predict``) runs only the projection + fusion path under ``no_grad``, with
no correlation matrices built, and checks its forecast for NaN/Inf once.
"""

from dataclasses import dataclass, asdict

import numpy as np

from . import autodiff as ad
from . import serialize
from .autodiff import Tensor
from .backbone import BackboneOutput, BackboneState
from .config import TrainConfig
from .contrastive import (EpsilonParam, HpclConfig, MaskPair, aux_loss,
                          init_epsilon, threshold_masks)
from .correlation import (DceParams, compose_correlation, init_dce_params,
                          time_invariant_component, time_varying_component)
from .fusion import FusionParams, fuse_predict, init_fusion_params
from .projection import HdParams, divide, flatten_per_channel, init_hd_params


@dataclass
class AdapterState:
    """Trainable adapter parameters plus the switches they were built with."""

    train_config: TrainConfig
    n_channels: int
    n_patches: int
    repr_dim: int
    horizon: int
    dce: DceParams | None
    hd: HdParams
    eps: EpsilonParam
    fusion: FusionParams

    def hpcl_config(self) -> HpclConfig:
        cfg = self.train_config
        return HpclConfig(tau=cfg.tau, gate_temp=cfg.gate_temp,
                          soft_gate=cfg.soft_gate)


def init_adapter(backbone: BackboneState, n_channels: int,
                 config: TrainConfig) -> AdapterState:
    """Fresh adapter for ``backbone``.  One seeded rng draws everything in a
    fixed order (dce, hd, fusion) so states are reproducible."""
    bc = backbone.config
    rng = np.random.default_rng(config.seed)
    dce = None
    if config.dce_mode == "full":
        dce = init_dce_params(n_channels, bc.repr_dim, degree=config.poly_degree,
                              rank=config.rank, embed_dim=config.embed_dim,
                              rng=rng)
    hd = init_hd_params(bc.n_patches, bc.repr_dim, config.depth_division, rng,
                        shared=(config.hd_mode == "single-branch"))
    fusion = init_fusion_params(n_channels, bc.n_patches, bc.repr_dim,
                                bc.horizon, depth=config.depth_fusion, rng=rng,
                                beta_logit_init=config.beta_logit_init)
    return AdapterState(train_config=config, n_channels=n_channels,
                        n_patches=bc.n_patches, repr_dim=bc.repr_dim,
                        horizon=bc.horizon, dce=dce, hd=hd,
                        eps=init_epsilon(config.epsilon_init), fusion=fusion)


def state_tensors(state: AdapterState) -> list[tuple[str, Tensor]]:
    """Every tensor a checkpoint holds, in a fixed, documented order.

    The correlation estimator joins only in full ``dce_mode``; the
    threshold is always listed, HPCL on or off.  Checkpoints and the best
    epoch snapshot of ``fit`` read this one list.
    """
    out = []
    if state.dce is not None:
        out.extend(state.dce.named_tensors())
    out.extend(state.hd.named_tensors())
    out.extend(state.eps.named_tensors())
    out.extend((f"fusion.{n}", t) for n, t in state.fusion.named_tensors())
    return out


def named_parameters(state: AdapterState) -> list[tuple[str, Tensor]]:
    """The trainable part of `state_tensors`: the threshold is dropped
    when HPCL is off, since it then has no consumer."""
    return [(n, t) for n, t in state_tensors(state)
            if state.train_config.hpcl or t is not state.eps.raw]


def parameter_count(state: AdapterState) -> int:
    return sum(t.data.size for _, t in named_parameters(state))


def backbone_parameter_count(backbone: BackboneState) -> int:
    return backbone.embed.size + backbone.head.size


def correlation_estimate(state: AdapterState, repr_t, r: np.ndarray) -> Tensor:
    """Training-path correlation estimate M for a window batch.

    ``repr_t``: (..., P, N, d) tensor; ``r``: (..., N, N) precomputed window
    Pearson matrices (held constant).  In pearson-only mode M is just R.
    """
    if state.dce is None:
        return ad.constant(np.asarray(r, dtype=np.float64))
    q = time_varying_component(repr_t, state.dce)
    v = time_invariant_component(state.dce)
    return compose_correlation(r, q, v)


def training_losses(state: AdapterState, rep: np.ndarray, yhat_norm: np.ndarray,
                    y_norm: np.ndarray, r: np.ndarray | None):
    """Forward pass for one batch; returns the loss tensors.

    rep (B, P, N, d), yhat_norm / y_norm (B, N, F), r (B, N, N) or None when
    HPCL is off.  Output dict holds ``prediction`` (normalized-space MSE),
    ``l_pos``/``l_neg``/``aux``, and ``ystar`` for inspection.
    """
    repr_t = ad.constant(rep)
    x_pos, x_neg = divide(state.hd, repr_t)
    ystar = fuse_predict(state.fusion, x_pos, x_neg, ad.constant(yhat_norm))
    pred = ad.mse_loss(ystar, ad.constant(y_norm))
    if state.train_config.hpcl:
        if r is None:
            raise ValueError("HPCL is on but no correlation input was given")
        m = correlation_estimate(state, repr_t, r)
        masks = threshold_masks(m, state.eps, state.hpcl_config())
        l_pos, l_neg, total = aux_loss(x_pos, x_neg, masks, state.hpcl_config())
    else:
        l_pos = ad.constant(0.0)
        l_neg = ad.constant(0.0)
        total = ad.constant(0.0)
    return {"prediction": pred, "l_pos": l_pos, "l_neg": l_neg, "aux": total,
            "ystar": ystar}


def predict(state: AdapterState, out: BackboneOutput) -> np.ndarray:
    """Raw-space adapter forecast.  Inference path: projections + fusion
    only — no correlation estimate, no contrastive terms."""
    with ad.no_grad():
        x_pos, x_neg = divide(state.hd, ad.constant(out.repr))
        ystar_norm = fuse_predict(state.fusion, x_pos, x_neg,
                                  ad.constant(out.yhat_norm))
    ystar = ystar_norm.data * out.std + out.mean
    ad.check_finite(ystar, "predict")
    return ystar


def branch_views(state: AdapterState, out: BackboneOutput):
    """Positive/negative per-channel views as plain (..., N, P*d) arrays
    (for similarity export)."""
    with ad.no_grad():
        x_pos, x_neg = divide(state.hd, ad.constant(out.repr))
        pos = flatten_per_channel(x_pos).data
        neg = flatten_per_channel(x_neg).data
    ad.check_finite(pos, "branch_views")
    ad.check_finite(neg, "branch_views")
    return pos, neg


def save_adapter(state: AdapterState, path) -> None:
    cfg = asdict(state.train_config)
    cfg.update(kind="adapter", n_channels=state.n_channels,
               n_patches=state.n_patches, repr_dim=state.repr_dim,
               horizon=state.horizon)
    arrays = {name: np.asarray(t.data) for name, t in state_tensors(state)}
    serialize.save_arrays(path, cfg, arrays)


def load_adapter(path, backbone: BackboneState) -> AdapterState:
    config, arrays, (n_channels, n_patches, repr_dim, horizon) = \
        serialize.load_checkpoint(path, "adapter", "n_channels", "n_patches",
                                  "repr_dim", "horizon")
    field_names = TrainConfig.__dataclass_fields__.keys()
    try:
        train_config = TrainConfig(**{k: config[k] for k in field_names if k in config})
    except (TypeError, ValueError) as exc:
        raise serialize.SerializationError(
            f"{path}: bad header value ({exc})") from exc
    state = init_adapter(backbone, n_channels, train_config)
    if (state.n_patches, state.repr_dim,
            state.horizon) != (n_patches, repr_dim, horizon):
        raise serialize.SerializationError(
            f"{path}: adapter was built for a different backbone geometry")
    tensors = state_tensors(state)
    serialize.check_arrays(path, arrays, {n: t.shape for n, t in tensors})
    for name, tensor in tensors:
        tensor.data[...] = arrays[name]
    return state
