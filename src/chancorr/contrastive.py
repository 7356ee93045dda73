"""Correlation-thresholded contrastive objectives on channel views.

A composed correlation matrix M is split by a learnable threshold eps
(kept nonnegative through a softplus parameterisation) into

    pos mask: entries with m >  eps   (the diagonal is always kept)
    neg mask: entries with m < -eps

Retained entries keep their raw values and weight the numerator of the
per-row InfoNCE-style ratio

    L = -(1/N') sum_i log( sum_j mask_ij exp(sim_ij / tau)
                          / sum_k exp(sim_ik / tau) )

where sim is cosine similarity between per-channel flattened views,
the denominator runs over *all* channels including i, and N' counts the
rows with nonempty mask support (rows without any retained pair are
skipped).  Batched inputs average the loss over the batch.

Gating is hard by default: gradients pass through retained entries
unchanged and are zero elsewhere and into eps.  A soft mode replaces the
indicator with sigmoid((|m| - eps) / temp), making eps trainable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .projection import flatten_per_channel

__all__ = [
    "HpclConfig",
    "EpsilonParam",
    "init_epsilon",
    "MaskPair",
    "threshold_masks",
    "contrastive_loss",
    "aux_loss",
]


@dataclass
class HpclConfig:
    tau: float = 0.5
    soft_gate: bool = False
    gate_temp: float = 0.05

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.gate_temp <= 0:
            raise ValueError("gate_temp must be positive")


@dataclass
class EpsilonParam:
    """Threshold parameterised as softplus(raw) so it stays positive."""

    raw: Tensor

    @property
    def value(self) -> Tensor:
        return ad.softplus(self.raw)

    def numeric(self) -> float:
        return float(np.logaddexp(0.0, self.raw.data))

    def named_tensors(self):
        return [("hpcl.eps_raw", self.raw)]


def init_epsilon(init: float = 0.3) -> EpsilonParam:
    if init <= 0:
        raise ValueError("threshold init must be positive")
    return EpsilonParam(raw=ad.parameter(np.array(math.log(math.expm1(init)))))


@dataclass
class MaskPair:
    pos: Tensor                 # retained values (or soft-gated values)
    neg: Tensor
    pos_support: np.ndarray     # hard boolean supports (bookkeeping)
    neg_support: np.ndarray


def threshold_masks(m, eps: EpsilonParam, config: HpclConfig | None = None) -> MaskPair:
    """Split a correlation estimate into positive / negative pair masks.

    ``m`` is (..., N, N).  Off the diagonal the supports are disjoint
    (eps > 0); the diagonal is always in the positive support, and also in
    the negative one where it falls below -eps.
    In hard mode the indicator is a constant: gradient w.r.t. m is 1 on
    kept entries and 0 on dropped entries, and none reaches eps.
    """
    config = config or HpclConfig()
    m = ad.as_tensor(m)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ad.ShapeMismatchError(f"mask input must be square, got {m.shape}")
    n = m.shape[-1]
    eye = np.eye(n, dtype=bool)
    eps_val = eps.numeric()
    pos_support = (m.data > eps_val) | eye
    neg_support = m.data < -eps_val

    if config.soft_gate:
        eps_t = eps.value
        inv_temp = 1.0 / config.gate_temp
        gate_pos = ad.sigmoid(ad.scale(ad.subtract(m, eps_t), inv_temp))
        gate_neg = ad.sigmoid(ad.scale(ad.subtract(ad.scale(m, -1.0), eps_t), inv_temp))
        pos = ad.multiply(m, gate_pos)
        neg = ad.multiply(m, gate_neg)
    else:
        ad.trace_gate(pos_support)
        ad.trace_gate(neg_support)
        pos = ad.multiply(m, ad.constant(pos_support))
        neg = ad.multiply(m, ad.constant(neg_support))

    return MaskPair(pos=pos, neg=neg, pos_support=pos_support, neg_support=neg_support)


def contrastive_loss(x, mask, tau: float = 0.5,
                     row_support: np.ndarray | None = None) -> Tensor:
    """InfoNCE-style loss of views ``x`` under nonnegative pair weights.

    ``x``: (..., P, N, d) views; ``mask``: (..., N, N) weights (tensor, may
    carry gradients).  ``row_support`` optionally marks rows to include;
    by default rows whose weights are identically zero are skipped and the
    averaging count shrinks accordingly.

    Row-max subtraction keeps the exponentials tame; since the same shift
    enters numerator and denominator the ratio -- and its gradient -- is
    unchanged.
    """
    x = ad.as_tensor(x)
    mask = ad.as_tensor(mask)
    if x.ndim < 3:
        raise ad.ShapeMismatchError("views must be (..., P, N, d)")
    views = flatten_per_channel(x)                     # (..., N, P*d)
    sims = ad.cosine_similarity_matrix(views)          # (..., N, N)
    if sims.shape != mask.shape:
        raise ad.ShapeMismatchError(
            f"mask shape {mask.shape} does not match similarity {sims.shape}")

    shift = ad.constant(sims.data.max(axis=-1, keepdims=True))
    e = ad.exp(ad.scale(ad.subtract(sims, shift), 1.0 / tau))
    num = ad.tensor_sum(ad.multiply(mask, e), axis=-1)   # (..., N)
    den = ad.tensor_sum(e, axis=-1)

    if row_support is None:
        keep = (np.abs(mask.data) > 0).any(axis=-1)
    else:
        keep = np.broadcast_to(row_support, num.shape)
    keep_f = keep.astype(np.float64)
    counts = np.maximum(keep_f.sum(axis=-1), 1.0)        # (...,)

    # dropped rows: make log well-defined there, then weight them out
    safe_num = ad.add(num, ad.constant(1.0 - keep_f))
    terms = ad.multiply(ad.subtract(ad.log(safe_num), ad.log(den)),
                        ad.constant(keep_f))
    per_window = ad.divide(ad.tensor_sum(terms, axis=-1), ad.constant(counts))
    return ad.scale(ad.mean(per_window), -1.0)


def aux_loss(x_pos, x_neg, masks: MaskPair, config: HpclConfig | None = None):
    """Total contrastive objective: l_pos + l_neg on magnitude weights.

    Returns ``(l_pos, l_neg, l_total)`` tensors.  Negative-correlation
    weights enter by absolute value so the log arguments stay positive;
    the sign pattern is constant inside one forward pass, so the gradient
    convention on retained entries is just the sign.
    """
    config = config or HpclConfig()
    pos_w = _magnitude(masks.pos)
    neg_w = _magnitude(masks.neg)
    pos_rows = masks.pos_support.any(axis=-1)
    neg_rows = masks.neg_support.any(axis=-1)
    l_pos = contrastive_loss(x_pos, pos_w, tau=config.tau, row_support=pos_rows)
    if masks.neg_support.any():
        l_neg = contrastive_loss(x_neg, neg_w, tau=config.tau, row_support=neg_rows)
    else:
        l_neg = ad.constant(0.0)
    return l_pos, l_neg, ad.add(l_pos, l_neg)


def _magnitude(mask: Tensor) -> Tensor:
    sign = np.sign(mask.data)
    return ad.multiply(mask, ad.constant(sign))
