"""Gated fusion of the adapter forecast with the frozen backbone forecast.

The two branch representations are re-projected through their own stacks,
summed, flattened per channel and pushed through a linear forecast head.
A per-channel sigmoid gate blends the result with the backbone prediction:

    ystar[n] = beta[n] * head(flat(x_pos + x_neg)[n]) + (1 - beta[n]) * yhat[n]

Everything here operates in the backbone's normalized space; denormalization
happens after fusion using the same per-instance statistics as ``yhat``.

The head is zero-initialized and the gate logits start at -5, so a freshly
constructed fusion module reproduces the backbone prediction almost exactly
(gate leakage multiplies a zero head output).
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeMismatchError, Tensor
from .projection import HdParams, flatten_per_channel, init_hd_params, project_stack

__all__ = [
    "FusionParams",
    "init_fusion_params",
    "fuse_predict",
]


@dataclass
class FusionParams:
    """Post-projection stacks, shared forecast head, and per-channel gate."""

    post: HdParams = None
    head_w: Tensor = None    # (P*d, F)
    head_b: Tensor = None    # (F,)
    beta_logits: Tensor = None  # (N,)

    def named_tensors(self):
        out = self.post.named_tensors("post_pos{}.layer", "post_neg{}.layer")
        out.append(("head_w", self.head_w))
        out.append(("head_b", self.head_b))
        out.append(("beta_logits", self.beta_logits))
        return out


def init_fusion_params(n_channels: int, n_patches: int, repr_dim: int,
                       horizon: int, rng: np.random.Generator, depth: int,
                       beta_logit_init: float) -> FusionParams:
    """Fresh fusion parameters.

    The head is zero-initialized and the gate starts essentially closed, so
    fuse_predict initially returns (1 - sigmoid(beta_logit_init)) * yhat plus
    exactly nothing from the head branch.
    """
    flat = n_patches * repr_dim
    return FusionParams(
        post=init_hd_params(n_patches, repr_dim, depth, rng),
        head_w=ad.parameter(np.zeros((flat, horizon))),
        head_b=ad.parameter(np.zeros(horizon)),
        beta_logits=ad.parameter(np.full(n_channels, float(beta_logit_init))),
    )


def fuse_predict(params: FusionParams, x_pos, x_neg, yhat) -> Tensor:
    """Convex per-channel combination of the adapter head and ``yhat``.

    x_pos, x_neg: (..., P, N, d) branch representations.
    yhat: (..., N, F) backbone prediction in normalized space.
    Returns ystar with yhat's shape.
    """
    x_pos = ad.as_tensor(x_pos)
    x_neg = ad.as_tensor(x_neg)
    yhat = ad.as_tensor(yhat)
    if x_pos.shape != x_neg.shape:
        raise ShapeMismatchError(
            f"branch representations disagree: {x_pos.shape} vs {x_neg.shape}")
    if x_pos.ndim < 3:
        raise ShapeMismatchError(f"expected (..., P, N, d), got {x_pos.shape}")
    n = x_pos.shape[-2]
    if yhat.ndim < 2 or yhat.shape[-2] != n:
        raise ShapeMismatchError(
            f"yhat has {yhat.shape} but representations carry {n} channels")
    if params.beta_logits.shape != (n,):
        raise ShapeMismatchError(
            f"gate sized for {params.beta_logits.shape[0]} channels, got {n}")

    x_pos = project_stack(params.post.pos_layers, x_pos)
    x_neg = project_stack(params.post.neg_layers, x_neg)
    flat = flatten_per_channel(ad.add(x_pos, x_neg))      # (..., N, P*d)
    head = ad.add(ad.matmul(flat, params.head_w), params.head_b)  # (..., N, F)
    if head.shape != yhat.shape:
        raise ShapeMismatchError(
            f"head produces {head.shape} but yhat is {yhat.shape}")

    beta = ad.reshape(ad.sigmoid(params.beta_logits), (n, 1))
    return ad.add(ad.multiply(beta, head),
                  ad.multiply(ad.subtract(ad.constant(1.0), beta), yhat))
