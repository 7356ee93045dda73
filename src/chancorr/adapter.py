"""Adapter assembly: the trainable modules around a frozen backbone.

The adapter owns four parameter groups: the learned correlation estimator
(optional, see ``dce_mode``), the dual projection stacks that split a
representation into positive/negative-correlation views, the threshold that
turns a correlation estimate into contrastive masks, and the fusion head
that blends an adapter forecast with the frozen backbone's.

Training runs through the autodiff graph (``training_losses``); inference
(``predict``, ``branch_views``) runs only the projection + fusion path under
``no_grad``, with no correlation matrices built.  It runs over blocks of
windows whose largest intermediate fits in ``ad.BLOCK_BYTES``, checks each
block's result for NaN/Inf once, and returns the same bits whatever the
block size.  ``predict_windows`` cuts raw windows into the same blocks and
runs the backbone per block too.
"""

from dataclasses import dataclass, asdict
from types import SimpleNamespace

import numpy as np

from . import autodiff as ad
from . import serialize
from .autodiff import Tensor
from .backbone import BackboneOutput, BackboneState, backbone_forward
from .config import TrainConfig
from .contrastive import EpsilonParam, hpcl_loss, init_epsilon
# unused since training runs `hpcl_loss`; `perfbench` traces them here
from .contrastive import aux_loss, threshold_masks  # noqa: F401
from .correlation import DceParams, compose_correlation, dce_factors, init_dce_params
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


def init_adapter(backbone: BackboneState, n_channels: int, config: TrainConfig,
                 rng=None) -> AdapterState:
    """Fresh adapter for ``backbone``.  One rng, by default seeded from the
    config, draws everything in a fixed order (dce, hd, fusion) so states
    are reproducible."""
    bc = backbone.config
    rng = np.random.default_rng(config.seed) if rng is None else rng
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
    """Correlation estimate M of a window batch, as a constant for
    inspection: training differentiates through `hpcl_terms`' op instead.

    ``repr_t``: (..., P, N, d) tensor; ``r``: (..., N, N) precomputed window
    Pearson matrices.  In pearson-only mode M is just R.
    """
    r = np.asarray(r, dtype=np.float64)
    if state.dce is None:
        return ad.constant(r)
    q, v, _ = dce_factors(ad.as_tensor(repr_t).data, state.dce)
    return ad.constant(compose_correlation(r, q, v))


def hpcl_terms(state: AdapterState, repr_t, r: np.ndarray | None, x_pos, x_neg,
               weight: float = 1.0):
    """HPCL terms ``(l_pos, l_neg, weight * (l_pos + l_neg))`` of one batch,
    with ``state.train_config``: one `hpcl_loss` op from the Pearson stack
    ``r`` (B, N, N), the representation and the estimator that form Q and V,
    the threshold and both views.  Constant zeros when HPCL is off; ``r``
    must be given when it is on."""
    config = state.train_config
    if not config.hpcl:
        zero = ad.constant(0.0)
        return zero, zero, zero
    if r is None:
        raise ValueError("HPCL is on but no correlation input was given")
    return hpcl_loss(r, (x_pos, x_neg), config.tau, state.eps,
                     config.gate_temp if config.soft_gate else None, state.dce,
                     ad.as_tensor(repr_t).data, weight=weight)


def training_losses(state: AdapterState, rep: np.ndarray, yhat_norm: np.ndarray,
                    y_norm: np.ndarray, r: np.ndarray | None, aux_weight: float = 1.0):
    """Forward pass for one batch; returns the loss tensors.

    rep (B, P, N, d), yhat_norm / y_norm (B, N, F), r (B, N, N) or None when
    HPCL is off.  Output dict holds ``prediction`` (normalized-space MSE),
    the branch losses ``l_pos``/``l_neg`` as constants, ``aux``, their sum
    times ``aux_weight`` as the recorded HPCL op (no gradient at weight 0),
    and ``ystar`` for inspection.
    """
    repr_t = ad.constant(rep)
    x_pos, x_neg = divide(state.hd, repr_t)
    ystar = fuse_predict(state.fusion, x_pos, x_neg, ad.constant(yhat_norm))
    pred = ad.mse_loss(ystar, ad.constant(y_norm))
    l_pos, l_neg, total = hpcl_terms(state, repr_t, r, x_pos, x_neg, aux_weight)
    return {"prediction": pred, "l_pos": l_pos, "l_neg": l_neg, "aux": total,
            "ystar": ystar}


def _in_blocks(fn, shape: tuple, *arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """``fn(*arrays)`` run over the blocks `ad.window_blocks` cuts from
    ``shape``, a batch of (P, N, d) float64 windows that ``arrays`` share
    their leading axis with, its results joined.

    Every op of the inference path acts on each window alone, so the
    results do not depend on the block size.
    """
    blocks = ad.window_blocks(shape, 3)
    if len(blocks) == 1:
        return fn(*arrays)
    outs = None
    for k in blocks:
        block = fn(*(a[k] for a in arrays))
        if outs is None:
            outs = tuple(np.empty((shape[0],) + b.shape[1:], b.dtype) for b in block)
        for o, b in zip(outs, block):
            o[k] = b
    return outs


def _forecast(state: AdapterState, rep, yhat_norm, mean, std) -> tuple[np.ndarray]:
    """The raw-space adapter forecast of one block of backbone output."""
    with ad.no_grad():
        x_pos, x_neg = divide(state.hd, ad.constant(rep))
        ystar_norm = fuse_predict(state.fusion, x_pos, x_neg, ad.constant(yhat_norm))
    ystar = ystar_norm.data * std + mean
    ad.check_finite(ystar, "predict")
    return (ystar,)


def predict(state: AdapterState, out: BackboneOutput) -> np.ndarray:
    """Raw-space adapter forecast.  Inference path: projections + fusion
    only — no correlation estimate, no contrastive terms.  It runs over
    blocks of windows bounded by ``ad.BLOCK_BYTES``; the forecast does not
    depend on the block size.  Under ``no_grad`` each projection layer
    overwrites its own temporaries, `divide`'s shared layer norm among
    them, and never ``out``."""
    return _in_blocks(lambda *block: _forecast(state, *block), out.repr.shape,
                      out.repr, out.yhat_norm, out.mean, out.std)[0]


def predict_windows(state: AdapterState, backbone: BackboneState, x) -> np.ndarray:
    """``predict(state, backbone_forward(backbone, x))`` for raw windows x
    of shape (..., N, L), with the backbone run on each block of `predict`
    too, so no step holds more than a block's (P, N, d) representations."""
    def forecast(x_block):
        out = backbone_forward(backbone, x_block)
        return _forecast(state, out.repr, out.yhat_norm, out.mean, out.std)

    shape = np.shape(x)[:-2] + (state.n_patches, state.n_channels, state.repr_dim)
    return _in_blocks(forecast, shape, x)[0]


def branch_views(state: AdapterState, out: BackboneOutput):
    """Positive/negative per-channel views as plain (..., N, P*d) arrays
    (for similarity export), computed in the blocks of `predict`."""
    def views(rep):
        with ad.no_grad():
            x_pos, x_neg = divide(state.hd, ad.constant(rep))
            pos = flatten_per_channel(x_pos).data
            neg = flatten_per_channel(x_neg).data
        ad.check_finite(pos, "branch_views")
        ad.check_finite(neg, "branch_views")
        return pos, neg

    return _in_blocks(views, out.repr.shape, out.repr)


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
    # the checkpoint sets every array, so the rng draws uninitialised ones
    empty = lambda *_, size: np.empty(size)  # noqa: E731
    state = init_adapter(backbone, n_channels, train_config,
                         rng=SimpleNamespace(normal=empty, uniform=empty))
    if (state.n_patches, state.repr_dim,
            state.horizon) != (n_patches, repr_dim, horizon):
        raise serialize.SerializationError(
            f"{path}: adapter was built for a different backbone geometry")
    tensors = state_tensors(state)
    serialize.check_arrays(path, arrays, {n: t.shape for n, t in tensors})
    for name, tensor in tensors:
        tensor.data = arrays[name].astype(np.float64, copy=False)
    return state
