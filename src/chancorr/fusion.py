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

Each post-projection layer is its own op (see `projection`); everything
after them, from the sum of the views to the blend, is one recorded op with
one numpy kernel for training and serving alike.  Under ``no_grad`` the
blend overwrites the head output; in grad mode the op keeps the flattened
sum, the head output and ``yhat`` for its hand-written backward.  Forward
and backward run the float operations of the generic-op chain the op
replaced, in its order, and hand both post stacks the gradient of the
flatten in that chain's transposed (..., P, N, d) layout, so no bit depends
on the fusion into one op.  The output is checked for NaN and Inf in grad
mode.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeMismatchError, Tensor
from .projection import HdParams, init_hd_params, project_stack

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
    head_shape = x_pos.shape[:-3] + (n,) + params.head_w.shape[1:]
    if (x_pos.shape[-3] * x_pos.shape[-1], head_shape) != (len(params.head_w.data), yhat.shape):
        raise ShapeMismatchError(f"head {params.head_w.shape} maps {x_pos.shape} "
                                 f"to {head_shape} but yhat is {yhat.shape}")

    x_pos = project_stack(params.post.pos_layers, x_pos)
    x_neg = project_stack(params.post.neg_layers, x_neg)
    head_w, head_b, beta_logits = params.head_w, params.head_b, params.beta_logits
    wd, yd, d, keep = head_w.data, yhat.data, x_pos.shape[-1], ad._mode.grad_enabled
    with np.errstate(over="ignore", invalid="ignore"):
        # the views are summed straight into their per-channel flatten
        flat = np.empty(x_pos.shape[:-3] + (n, x_pos.shape[-3], d))
        np.add(x_pos.data, x_neg.data, out=flat.swapaxes(-3, -2))
        flat = flat.reshape(head_shape[:-1] + (-1,))
        head = flat @ wd
        head += head_b.data
        sig = ad._logistic(beta_logits.data)
        beta = sig.reshape(n, 1)
        # under no_grad nothing is kept for backward, so ystar overwrites head
        out = np.multiply(beta, head, out=None if keep else head)
        out += (1.0 - beta) * yd

    grads = {}
    sum_to = ad._sum_to_shape

    def backward(name, g):
        if grads:
            return grads.pop(name)
        g_beta = sum_to(np.multiply(g, head, order="C"), beta.shape)
        g_beta -= sum_to(np.multiply(g, yd, order="C"), beta.shape)
        g_head = np.multiply(g, beta, order="C")
        g_flat = g_head @ wd.swapaxes(-1, -2)
        g_views = g_flat.reshape(g_flat.shape[:-1] + (-1, d)).swapaxes(-3, -2)
        grads.update(x_pos=g_views, x_neg=g_views,
                     head_w=sum_to(flat.swapaxes(-1, -2) @ g_head, wd.shape),
                     head_b=sum_to(g_head, head_b.shape),
                     beta_logits=g_beta.reshape(n) * sig * (1.0 - sig))
        return grads.pop(name)

    edges = [(t, lambda g, name=name: backward(name, g)) for name, t in
             (("x_pos", x_pos), ("x_neg", x_neg), ("head_w", head_w),
              ("head_b", head_b), ("beta_logits", beta_logits))]
    return ad._result(out, edges, "fuse_predict")
