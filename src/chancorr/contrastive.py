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

Cost on (..., N, N) data: the hard supports are two boolean arrays.
Each branch records one ``ad.hpcl_loss`` op from (m, its gate, the
views) to the per-window loss.  It forms the similarities, exponentials
and weights ``|m * gate|`` over cache-sized blocks of windows, keeps only
per-row statistics and recomputes the blocks in backward, so with hard
gates the tape holds no float N x N array besides m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import TrainConfig
from .projection import flatten_per_channel

__all__ = [
    "EpsilonParam",
    "init_epsilon",
    "MaskPair",
    "threshold_masks",
    "contrastive_loss",
    "aux_loss",
]


# acceptance check 4 builds its contrastive settings under this name
HpclConfig = TrainConfig


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


def init_epsilon(init: float) -> EpsilonParam:
    if init <= 0:
        raise ValueError("threshold init must be positive")
    return EpsilonParam(raw=ad.parameter(np.array(math.log(math.expm1(init)))))


@dataclass
class MaskPair:
    m: Tensor                   # the correlation estimate that was split
    pos_support: np.ndarray     # hard boolean supports
    neg_support: np.ndarray
    pos_gate: Tensor | np.ndarray   # what weights m: the support, or in
    neg_gate: Tensor | np.ndarray   # soft mode the sigmoid gate tensor


def threshold_masks(m, eps: EpsilonParam, config: TrainConfig | None = None) -> MaskPair:
    """Split a correlation estimate into positive / negative pair masks.

    ``m`` is (..., N, N).  Off the diagonal the supports are disjoint
    (eps > 0); the diagonal is always in the positive support, and also in
    the negative one where it falls below -eps.
    In hard mode the gates are the supports, constant indicators: the
    loss's gradient w.r.t. m is zero on dropped entries and none reaches
    eps.  Their decisions go to the active ``ad.record_gates`` sink.
    """
    config = config or TrainConfig()
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
        pos_gate = ad.sigmoid(ad.scale(ad.subtract(m, eps_t), inv_temp))
        neg_gate = ad.sigmoid(ad.scale(ad.subtract(ad.scale(m, -1.0), eps_t), inv_temp))
    else:
        pos_gate, neg_gate = pos_support, neg_support
        ad.trace_gate(pos_support)
        ad.trace_gate(neg_support)
    return MaskPair(m, pos_support, neg_support, pos_gate, neg_gate)


def contrastive_loss(x, mask, tau: float,
                     row_support: np.ndarray | None = None, gate=None) -> Tensor:
    """InfoNCE-style loss of views ``x`` under pair weights ``|mask * gate|``.

    ``x``: (..., P, N, d) views; ``mask``: (..., N, N) tensor (may carry
    gradients); ``gate``: a boolean support or a soft-gate tensor of the
    same shape, by default the nonzero entries of ``mask``.
    ``row_support`` optionally marks rows to include; by default rows
    whose mask is identically zero are skipped and the averaging count
    shrinks accordingly.  Batched inputs average over the windows.
    """
    x = ad.as_tensor(x)
    mask = ad.as_tensor(mask)
    if x.ndim < 3:
        raise ad.ShapeMismatchError("views must be (..., P, N, d)")
    if gate is None:
        gate = mask.data != 0
    if row_support is None:
        row_support = (mask.data != 0).any(axis=-1)
    return ad.mean(ad.hpcl_loss(flatten_per_channel(x), mask, gate,
                                row_support, 1.0 / tau))


def aux_loss(x_pos, x_neg, masks: MaskPair, config: TrainConfig | None = None):
    """Total contrastive objective: l_pos + l_neg on magnitude weights.

    Returns ``(l_pos, l_neg, l_total)`` tensors.  Both branches weight
    pairs by ``|m * gate|``, so negative correlations enter by magnitude
    and the log arguments stay positive.

    Each branch's loss is one ``ad.hpcl_loss`` op, which recomputes its
    N x N blocks in backward: with hard gates the tape holds no float
    N x N array besides m.
    """
    config = config or TrainConfig()
    l_pos = contrastive_loss(x_pos, masks.m, config.tau,
                             masks.pos_support.any(axis=-1), masks.pos_gate)
    if masks.neg_support.any():
        l_neg = contrastive_loss(x_neg, masks.m, config.tau,
                                 masks.neg_support.any(axis=-1), masks.neg_gate)
    else:
        l_neg = ad.constant(0.0)
    return l_pos, l_neg, ad.add(l_pos, l_neg)
