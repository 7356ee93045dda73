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
indicators with sigmoid((m - eps) / temp) and sigmoid((-m - eps) / temp),
making eps trainable.

Cost on (..., N, N) data: a batch's whole chain, Q and V and both
branches included, is one recorded op, `hpcl_loss`.  Its upstream
gradient is known before it runs, the weight of the loss term, so one pass
over cache-sized blocks of windows forms M = R + Q V Q^T, the gates,
similarities and exponentials, keeps only per-row statistics for the loss,
and forms each block's gradient there: w.r.t. the views' rows, and w.r.t.
M, contracted against Q and V.  Backward recomputes nothing, and no float
N x N array is on the tape.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import TrainConfig
from .correlation import DceParams, compose_correlation, dce_factors

__all__ = [
    "EpsilonParam",
    "init_epsilon",
    "MaskPair",
    "threshold_masks",
    "hpcl_loss",
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
    eps: EpsilonParam           # the threshold that split it
    pos_support: np.ndarray     # hard boolean supports
    neg_support: np.ndarray


def _supports(m: np.ndarray, eps: float, trace: bool):
    """Hard (pos, neg) supports of ``m`` at ``eps``; ``trace`` reports them."""
    pos = (m > eps) | np.eye(m.shape[-1], dtype=bool)
    neg = m < -eps
    if trace:
        ad.trace_gate(pos)
        ad.trace_gate(neg)
    return pos, neg


def threshold_masks(m, eps: EpsilonParam, config: TrainConfig | None = None) -> MaskPair:
    """Split a correlation estimate into positive / negative pair masks.

    ``m`` is (..., N, N).  Off the diagonal the supports are disjoint
    (eps > 0); the diagonal is always in the positive support, and also in
    the negative one where it falls below -eps.  Hard gates report them to
    the active ``ad.record_gates`` sink.
    """
    m, hard = ad.as_tensor(m), not (config or TrainConfig()).soft_gate
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ad.ShapeMismatchError(f"mask input must be square, got {m.shape}")
    return MaskPair(m, eps, *_supports(m.data, eps.numeric(), hard))


def hpcl_loss(r, views, tau: float, eps: EpsilonParam, temp: float | None = None,
              dce: DceParams | None = None, rep=None, supports=None,
              weight: float = 1.0) -> tuple[Tensor, ...]:
    """Each branch's window-mean loss as a constant, then ``weight`` times
    their sum as one recorded op.  ``r`` (..., N, N) is M, or with ``dce``
    the constant R of M = R + Q V Q^T, Q and V formed by `dce_factors` from
    the representation ``rep`` (..., P, N, d).  The views ``(x_pos, x_neg)``,
    each (..., P, N, d), are weighted by ``|m * gate|`` on the supports of
    `threshold_masks` at ``eps`` (or, for a given M, ``supports``, a
    `MaskPair`'s) or, with ``temp``, sigmoid gates; the negative branch is
    dropped if its support is empty.

    One pass over blocks of windows whose three N x N arrays fit in
    `ad.BLOCK_BYTES` forms the losses and, for the upstream gradient
    ``weight``, every input's gradient: backward only scales them by the
    gradient that arrives, 1 for a loss term, which keeps their bits.  At
    ``weight`` 0 or under `ad.no_grad` no gradient is formed.  Blocks run
    before the first with negative support run again once one has it, with
    that branch.  Sums run in the generic-op chain's order, so results have
    its bits, eps's gradient aside (summed per window first), and none
    depends on the block size.  A kept row with a non-positive numerator
    raises `NonFiniteError`.
    """
    r, views = ad.as_tensor(r), [ad.as_tensor(x) for x in views]
    rd, lead, weight = r.data, r.shape[:-2], float(weight)
    qd, vd, dce_grads = (None,) * 3 if dce is None else dce_factors(rep, dce)
    if (r.ndim < 2 or r.shape[-1] != r.shape[-2] or len(views) != 2
            or any(x.ndim < 3 or x.shape[:-3] + x.shape[-2:-1] != r.shape[:-1] for x in views)
            or qd is not None and qd.shape[:-1] != r.shape[:-1]):
        raise ad.ShapeMismatchError(f"hpcl_loss: R {r.shape}, views {[x.shape for x in views]} "
                                    f"and Q {None if qd is None else qd.shape} do not fit")
    soft, inv_tau = temp is not None, 1.0 / tau
    eps_val, eps_t = eps.numeric(), eps.value if soft else None
    moved = [np.swapaxes(x.data, -3, -2).shape for x in views]       # (..., N, P, d)
    blocks = ad.window_blocks(r.shape, 2, arrays=3)
    num, den, supported = ([np.empty(r.shape[:-1], t) for _ in views]
                           for t in (float, float, bool))
    live = {key: t is not None and (t.requires_grad or t._node is not None)   # wants a gradient
            for key, t in [*enumerate(views), ("r", None if dce is not None else r),
                          ("eps", eps_t)]}
    wants = ad._mode.grad_enabled and weight != 0.0 and (dce is not None or any(live.values()))
    upstream = weight / math.prod(lead)                 # each window mean's
    gx = [None, None]       # the views' row gradients, once their branch runs
    gr = np.empty_like(rd) if wants and live["r"] else None
    if wants and dce is not None:
        gqa, gqt = np.empty(qd.shape), np.empty(np.swapaxes(qd, -1, -2).shape)
    geps = [np.empty(lead) for _ in views] if wants and live["eps"] else None
    # per branch: exponentials, m * gate, d/dm; a scratch
    buf = [np.empty(rd[blocks[0]].shape) for _ in range(3 * 2 + 1)]

    def run(k, negative, first):
        """Block k's row sums and gradients, the negative branch's if it
        has support in this block or ``negative``; whether it has."""
        m = rd[k] if qd is None else compose_correlation(rd[k], qd[k], vd, count=first)
        pair = (_supports(m, eps_val, first and not soft) if supports is None
                else [s[k] for s in supports])
        gates = pair if not soft else [
            ad._logistic((m - eps_val) * (1.0 / temp)),
            ad._logistic((m * -1.0 - eps_val) * (1.0 / temp))]
        for i, support in enumerate(pair):
            supported[i][k] = support.any(axis=-1)
        terms = []                          # d/dm, in the generic chain's order
        for i in (0, 1) if negative or supported[1][k].any() else (0,):
            gate, keep = gates[i], supported[i][k].astype(np.float64)
            x = np.swapaxes(views[i].data[k], -3, -2)
            x = x.reshape(x.shape[:-2] + (-1,))            # (..., N, P*d)
            u, norms, s2 = ad.unit_rows(x)
            e, p = buf[3 * i][:len(m)], buf[3 * i + 1][:len(m)]
            np.matmul(u, np.swapaxes(u, -1, -2), out=e)
            e -= np.max(e, axis=-1, keepdims=True, initial=-np.inf)
            e *= inv_tau
            np.exp(e, out=e)
            np.multiply(gate, m, out=p)
            den[i][k] = e.sum(axis=-1)
            w = np.abs(p, out=buf[-1][:len(m)])
            num[i][k] = rows = np.multiply(w, e, out=w).sum(axis=-1) + (1.0 - keep)
            if (rows <= 0).any():           # a NaN is left to the finite check
                raise ad.NonFiniteError("log of a non-positive value")
            if not wants:
                continue
            a = np.multiply((-upstream / np.maximum(keep.sum(axis=-1), 1.0))[..., None], keep)
            b, a = (-a / den[i][k])[..., None], (a / rows)[..., None]
            if live[i]:                     # the view's rows, through their norms
                if gx[i] is None:
                    gx[i] = np.empty(moved[i][:-2] + (moved[i][-2] * moved[i][-1],))
                gs = np.abs(p, out=buf[-1][:len(m)])
                gs *= a
                gs += b
                gs *= e
                gs *= inv_tau
                gu = gs @ u + np.swapaxes(np.swapaxes(u, -1, -2) @ gs, -1, -2)
                t = np.negative(gu)
                t *= x
                t /= norms * norms
                gn = t.sum(axis=-1, keepdims=True)
                np.multiply(np.broadcast_to(gn * 0.5 * s2 ** -0.5, x.shape), x, out=t)
                np.divide(gu, norms, out=gx[i][k])
                gx[i][k] += t
                gx[i][k] += t
            e *= a                                  # d loss / d |m * gate|
            # sign into its own buffer: in place it runs 10x slower
            gm = np.sign(p, out=buf[3 * i + 2][:len(m)])
            gm *= e
            if not soft:                # a boolean gate alters no bit
                terms.append(gm)
                continue
            gz = np.multiply(gm, m) * gate * (1.0 - gate) * (1.0 / temp)   # sigmoid
            gm *= gate
            nz = np.negative(gz)        # d/d eps, and the negative side's d/dm
            if geps is not None:
                geps[i][k] = nz.sum(axis=(-2, -1))
            terms += [gz, gm] if i == 0 else [gm, nz]
        if terms and (gr is not None or qd is not None):
            gm = functools.reduce(np.add, terms)
            if gr is not None:
                gr[k] = gm
            if qd is not None:
                gqa[k] = gm @ qd[k]
                gqt[k] = np.swapaxes(qd[k] @ vd, -1, -2) @ gm
        return supported[1][k].any()

    with np.errstate(over="ignore", invalid="ignore"):
        negative = False                    # has a block had negative support
        for done, k in enumerate(blocks):
            if run(k, negative, first=True) and not negative:
                negative = True
                for j in blocks[:done]:     # run without the branch: redo them
                    run(j, True, first=False)
    keep = [s.astype(np.float64) for s in supported]
    counts = [np.maximum(kp.sum(axis=-1), 1.0) for kp in keep]
    active = [0, 1] if negative else [0]
    means = [np.asarray(0.0) for _ in views]
    for i in active:
        ratio = np.log(num[i]) - np.log(den[i])
        means[i] = np.asarray((-((ratio * keep[i]).sum(axis=-1) / counts[i])).mean())
    total, edges = functools.reduce(np.add, means) * weight, []
    if wants and np.isfinite(total):        # else the finite check raises
        edges += [(views[i], np.swapaxes(gx[i].reshape(moved[i]), -3, -2))
                  for i in active if gx[i] is not None]
        if qd is None:
            edges.append((r, gr))
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                gq = gqa @ np.swapaxes(vd, -1, -2) + np.swapaxes(gqt, -1, -2)
                gv = ad._sum_to_shape(np.swapaxes(qd, -1, -2) @ gqa, vd.shape)
            edges += zip([t for _, t in dce.named_tensors()], dce_grads(gq, gv))
        if geps is not None:
            edges.append((eps_t, functools.reduce(np.add, [geps[i].sum() for i in active])))
    return (*map(ad.constant, means), ad._result(total, [
        (t, lambda g, d=d: None if d is None else d if g == 1.0 else d * g)
        for t, d in edges], "hpcl_loss"))


def aux_loss(x_pos, x_neg, masks: MaskPair, config: TrainConfig | None = None):
    """``(l_pos, l_neg, l_total)``: the branch losses as constants and their
    recorded sum, one `hpcl_loss` op over ``masks.m``, its threshold and its
    supports.  Both weight pairs by ``|m * gate|``, so negative correlations
    enter by magnitude and the log arguments stay positive."""
    config = config or TrainConfig()
    return hpcl_loss(masks.m, (x_pos, x_neg), config.tau, masks.eps,
                     config.gate_temp if config.soft_gate else None,
                     supports=(masks.pos_support, masks.neg_support))
