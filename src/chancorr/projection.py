"""Channel-aware projection stacks that split representations in two.

One layer follows a squeeze/excite pattern over the channel axis of a
patch representation x of shape (..., P, N, d):

    ln   = affine(layer_norm(x))                       # per feature
    proj = MLP1(ln)                                    # d -> d, pointwise
    w    = softmax_over_channels(MLP2(flatten_p(ln)))  # one logit/channel
    out  = x + proj * w[..., None on P and d]

MLP1 and MLP2 each have a single hidden layer of width d with relu, and
their *final* affines are zero-initialised, so a fresh layer is exactly
the identity map -- a stack of them leaves the backbone untouched until
training moves the weights.

Two independent stacks (`divide`) produce the positive-space and
negative-space views consumed by the contrastive objectives; a shared
single-branch variant exists for ablations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

__all__ = [
    "ProjectionLayerParams",
    "HdParams",
    "init_projection_layer",
    "init_hd_params",
    "flatten_per_channel",
    "channel_aware_project",
    "project_stack",
    "divide",
]


@dataclass
class ProjectionLayerParams:
    ln_scale: Tensor   # (d,)
    ln_shift: Tensor   # (d,)
    w1: Tensor         # (d, d)    MLP1 hidden
    b1: Tensor         # (d,)
    w2: Tensor         # (d, d)    MLP1 out, zero-init
    b2: Tensor         # (d,)
    v1: Tensor         # (P*d, d)  MLP2 hidden
    c1: Tensor         # (d,)
    v2: Tensor         # (d, 1)    MLP2 out, zero-init
    c2: Tensor         # (1,)

    def named_tensors(self, prefix: str = "layer"):
        return [(f"{prefix}.{name}", getattr(self, name))
                for name in ("ln_scale", "ln_shift", "w1", "b1", "w2", "b2",
                             "v1", "c1", "v2", "c2")]


def init_projection_layer(n_patches: int, repr_dim: int,
                          rng: np.random.Generator) -> ProjectionLayerParams:
    d = repr_dim
    flat = n_patches * d
    return ProjectionLayerParams(
        ln_scale=ad.parameter(np.ones(d)),
        ln_shift=ad.parameter(np.zeros(d)),
        w1=ad.parameter(rng.normal(0.0, np.sqrt(2.0 / d), size=(d, d))),
        b1=ad.parameter(np.zeros(d)),
        w2=ad.parameter(np.zeros((d, d))),
        b2=ad.parameter(np.zeros(d)),
        v1=ad.parameter(rng.normal(0.0, np.sqrt(2.0 / flat), size=(flat, d))),
        c1=ad.parameter(np.zeros(d)),
        v2=ad.parameter(np.zeros((d, 1))),
        c2=ad.parameter(np.zeros(1)),
    )


@dataclass
class HdParams:
    """A positive- and a negative-space projection stack: the two branches
    of ``divide``, and the post-projection stacks of the fusion head."""

    pos_layers: list[ProjectionLayerParams]
    neg_layers: list[ProjectionLayerParams]

    def named_tensors(self, pos_name: str = "hd.pos{}", neg_name: str = "hd.neg{}"):
        """Layer ``i`` is named ``pos_name.format(i)`` or
        ``neg_name.format(i)``; a negative stack that aliases the positive
        one is listed once."""
        shared = self.neg_layers is self.pos_layers
        out = []
        for name, layers in ((pos_name, self.pos_layers),
                             (neg_name, [] if shared else self.neg_layers)):
            for i, layer in enumerate(layers):
                out.extend(layer.named_tensors(name.format(i)))
        return out


def init_hd_params(n_patches: int, repr_dim: int, depth: int,
                   rng: np.random.Generator, shared: bool = False) -> HdParams:
    """Two stacks of ``depth`` layers, drawn from ``rng`` in order: all
    positive layers, then all negative ones.  With ``shared`` the negative
    stack aliases the positive one (single-branch ablation)."""
    pos = [init_projection_layer(n_patches, repr_dim, rng) for _ in range(depth)]
    if shared:
        neg = pos
    else:
        neg = [init_projection_layer(n_patches, repr_dim, rng) for _ in range(depth)]
    return HdParams(pos_layers=pos, neg_layers=neg)


def flatten_per_channel(x: Tensor) -> Tensor:
    """(..., P, N, d) -> (..., N, P*d)."""
    nd = x.ndim
    axes = tuple(range(nd - 3)) + (nd - 2, nd - 3, nd - 1)
    swapped = ad.transpose(x, axes)  # (..., N, P, d)
    new_shape = swapped.shape[:-2] + (swapped.shape[-2] * swapped.shape[-1],)
    return ad.reshape(swapped, new_shape)


def channel_aware_project(layer: ProjectionLayerParams, x) -> Tensor:
    """Apply one squeeze/excite projection layer to (..., P, N, d)."""
    x = ad.as_tensor(x)
    if x.ndim < 3:
        raise ad.ShapeMismatchError("projection input must be (..., P, N, d)")
    ln = ad.add(ad.multiply(ad.layer_norm(x), layer.ln_scale), layer.ln_shift)

    hidden = ad.relu(ad.add(ad.matmul(ln, layer.w1), layer.b1))
    proj = ad.add(ad.matmul(hidden, layer.w2), layer.b2)

    flat = flatten_per_channel(ln)  # (..., N, P*d)
    squeeze = ad.relu(ad.add(ad.matmul(flat, layer.v1), layer.c1))
    logits = ad.add(ad.matmul(squeeze, layer.v2), layer.c2)  # (..., N, 1)
    logits = ad.reshape(logits, logits.shape[:-1])           # (..., N)
    weights = ad.softmax(logits)

    w_shape = weights.shape[:-1] + (1, weights.shape[-1], 1)
    return ad.add(x, ad.multiply(proj, ad.reshape(weights, w_shape)))


def project_stack(layers, x) -> Tensor:
    out = ad.as_tensor(x)
    for layer in layers:
        out = channel_aware_project(layer, out)
    return out


def divide(params: HdParams, x) -> tuple[Tensor, Tensor]:
    """Project a representation into its positive- and negative-space views."""
    return project_stack(params.pos_layers, x), project_stack(params.neg_layers, x)
