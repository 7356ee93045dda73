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
training moves the weights.  The layer norm has eps `LAYER_NORM_EPS`; the
softmax subtracts the largest logit first.

A layer is one recorded autodiff op with one numpy forward kernel, run the
same way with or without recording.  It works in place on its own
temporaries and never writes to x.  Under ``no_grad`` it keeps nothing:
ln overwrites the layer norm it is computed from, unless that norm is
shared (below), and the output overwrites proj.  In grad mode it keeps
what its hand-written backward reads: the full-size norm, ln, hidden,
flat and proj arrays, plus the small squeeze activations, gate weights
and inverse deviations.  Forward and backward run the float operations of
the formulas above one step at a time, in the order a recording of each
step would, so no bit depends on the fusion into one op; for the same
reason x gets two edges, the residual's first and the norm path's last.
Both relus report to the active ``ad.record_gates`` sink, MLP1's first;
in grad mode the output is checked for NaN and Inf.

Two independent stacks (`divide`) produce the positive-space and
negative-space views consumed by the contrastive objectives; a shared
single-branch variant exists for ablations.  `divide` layer-normalises x
once: both first layers read that norm, and under ``no_grad`` the
positive one writes its ln to a new array and the negative one, the
norm's last reader, over the norm.  Each view, gradient and gate trace
keeps the bits of two separate stacks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

LAYER_NORM_EPS = 1e-5

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


_PARAM_NAMES = ("ln_scale", "ln_shift", "w1", "b1", "w2", "b2", "v1", "c1", "v2", "c2")


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
        return [(f"{prefix}.{name}", getattr(self, name)) for name in _PARAM_NAMES]


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


def _layer_norm(layer: ProjectionLayerParams, x: Tensor):
    """Layer norm of ``x``, an input of ``layer``, before its affine, as a
    new C-ordered array, and the inverse deviations it was scaled by."""
    d, flat = len(layer.w1.data), len(layer.v1.data)
    if x.ndim < 3 or (x.shape[-1], x.shape[-3] * x.shape[-1]) != (d, flat):
        raise ad.ShapeMismatchError(f"projection input {x.shape} must be (..., P, N, d) "
                                    f"with d = {d} and P*d = {flat}")
    xd = x.data
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.subtract(xd, xd.mean(axis=-1, keepdims=True), order="C")
        inv = 1.0 / np.sqrt((norm * norm).mean(axis=-1, keepdims=True) + LAYER_NORM_EPS)
        norm *= inv
    return norm, inv


def channel_aware_project(layer: ProjectionLayerParams, x) -> Tensor:
    """Apply one squeeze/excite projection layer to (..., P, N, d), as one
    recorded op (see the module docstring)."""
    x = ad.as_tensor(x)
    return _project(layer, x, *_layer_norm(layer, x), own_norm=True)


def _project(layer, x, norm, inv, own_norm):
    """The layer op on ``x`` from its layer norm ``norm`` and ``inv``, which
    it only reads unless ``own_norm`` and recording is off."""
    tensors = [getattr(layer, name) for name in _PARAM_NAMES]
    ln_scale, ln_shift, w1, b1, w2, b2, v1, c1, v2, c2 = (t.data for t in tensors)
    xd, keep = x.data, ad._mode.grad_enabled
    with np.errstate(over="ignore", invalid="ignore"):
        # under no_grad nothing is kept for backward, so ln overwrites a
        # norm no other layer reads, and the output overwrites proj
        ln = np.multiply(norm, ln_scale, out=norm if own_norm and not keep else None)
        ln += ln_shift
        hidden = ln @ w1
        hidden += b1
        ad.trace_gate(np.maximum(hidden, 0.0, out=hidden))
        proj = hidden @ w2
        proj += b2
        flat = ln.swapaxes(-3, -2).reshape(ln.shape[:-3] + (x.shape[-2], -1))  # (..., N, P*d)
        squeeze = flat @ v1
        squeeze += c1
        ad.trace_gate(np.maximum(squeeze, 0.0, out=squeeze))
        logits = squeeze @ v2
        logits += c2
        logits = logits.reshape(logits.shape[:-1])
        weights = np.exp(logits - logits.max(axis=-1, keepdims=True))
        weights = weights / weights.sum(axis=-1, keepdims=True)
        gate = weights.reshape(weights.shape[:-1] + (1, weights.shape[-1], 1))
        out = np.multiply(proj, gate, out=None if keep else proj)
        out += xd

    grads = {}
    sum_to = ad._sum_to_shape

    def backward(name, g):
        if grads:
            return grads.pop(name)
        # one pass serves every input but x, which gets g itself from the
        # residual and the norm path's gradient from grad_x; g is read only
        g_proj = np.multiply(g, gate, order="C")
        grads.update(w2=sum_to(hidden.swapaxes(-1, -2) @ g_proj, w2.shape),
                     b2=sum_to(g_proj, b2.shape))
        g_hidden = g_proj @ w2.swapaxes(-1, -2)
        del g_proj
        g_hidden *= hidden > 0
        grads.update(w1=sum_to(ln.swapaxes(-1, -2) @ g_hidden, w1.shape),
                     b1=sum_to(g_hidden, b1.shape))
        g_ln = g_hidden @ w1.swapaxes(-1, -2)
        del g_hidden

        g_gate = sum_to(np.multiply(g, proj, order="C"), gate.shape).reshape(weights.shape)
        g_logits = weights * (g_gate - (g_gate * weights).sum(axis=-1, keepdims=True))
        g_logits = g_logits.reshape(g_logits.shape + (1,))
        g_squeeze = g_logits @ v2.swapaxes(-1, -2)
        g_squeeze *= squeeze > 0
        grads.update(v1=sum_to(flat.swapaxes(-1, -2) @ g_squeeze, v1.shape),
                     c1=sum_to(g_squeeze, c1.shape),
                     v2=sum_to(squeeze.swapaxes(-1, -2) @ g_logits, v2.shape),
                     c2=sum_to(g_logits, c2.shape))
        g_flat = g_squeeze @ v1.swapaxes(-1, -2)
        g_ln += g_flat.reshape(g_flat.shape[:-1] + (-1, len(w1))).swapaxes(-3, -2)
        del g_flat
        grads.update(ln_scale=sum_to(np.multiply(g_ln, norm, order="C"), ln_scale.shape),
                     ln_shift=sum_to(g_ln, ln_shift.shape), ln=g_ln)
        return grads.pop(name)

    def grad_x(g):
        g_norm = np.multiply(backward("ln", g), ln_scale, order="C")
        gn = (g_norm * norm).mean(axis=-1, keepdims=True)
        g_norm -= g_norm.mean(axis=-1, keepdims=True)
        g_norm -= norm * gn
        g_norm *= inv
        return g_norm

    edges = [(t, lambda g, name=name: backward(name, g))
             for name, t in zip(_PARAM_NAMES, tensors)]
    return ad._result(out, [(x, lambda g: g)] + edges + [(x, grad_x)], "projection")


def project_stack(layers, x) -> Tensor:
    out = ad.as_tensor(x)
    for layer in layers:
        out = channel_aware_project(layer, out)
    return out


def divide(params: HdParams, x) -> tuple[Tensor, Tensor]:
    """Project a representation into its positive- and negative-space views.

    x is layer-normalised once, for both stacks' first layers; under
    ``no_grad`` the negative one then overwrites that norm with its ln."""
    x = ad.as_tensor(x)
    norm, inv = _layer_norm(params.pos_layers[0], x)
    pos = project_stack(params.pos_layers[1:],
                        _project(params.pos_layers[0], x, norm, inv, own_norm=False))
    neg = project_stack(params.neg_layers[1:],
                        _project(params.neg_layers[0], x, norm, inv, own_norm=True))
    return pos, neg
