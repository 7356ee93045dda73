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

Cost on (..., N, N) data: a batch's whole chain, both branches included,
is one recorded op, `hpcl_loss`.  Per cache-sized block of windows it
forms M = R + Q V Q^T, the gates, similarities and exponentials, keeping
only per-row statistics, and backward recomputes the block and contracts
its gradient w.r.t. M against Q and V there: no float N x N array besides
R is on the tape, and none for the whole batch, unless the batch is one
block, which backward then reuses.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import TrainConfig
from .correlation import compose_correlation

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
              q=None, v=None, supports=None) -> tuple[Tensor, ...]:
    """Each branch's window-mean loss as a constant, then their sum as one
    recorded op.  ``r`` (..., N, N) is M, or with ``q`` (..., N, M) and
    ``v`` (M, M) the constant R of M = R + Q V Q^T.  The views
    ``(x_pos, x_neg)``, each (..., P, N, d), are weighted by ``|m * gate|``
    on the supports of `threshold_masks` at ``eps`` (or, for a given M,
    ``supports``, a `MaskPair`'s) or, with ``temp``, sigmoid gates; the
    negative branch is dropped if its support is empty.  Blocks of windows
    whose three N x N arrays fit in `ad.BLOCK_BYTES` are recomputed in
    backward unless the batch is one.  Sums run in the generic-op chain's
    order, so results have its bits, eps's gradient aside (summed per window
    first), and none depends on the block size.  A kept row with a
    non-positive numerator raises `NonFiniteError`.
    """
    r, views = ad.as_tensor(r), [ad.as_tensor(x) for x in views]
    q, v = (None, None) if q is None else (ad.as_tensor(q), ad.as_tensor(v))
    rd, lead = r.data, r.shape[:-2]
    if (r.ndim < 2 or r.shape[-1] != r.shape[-2] or len(views) != 2
            or any(x.ndim < 3 or x.shape[:-3] + x.shape[-2:-1] != r.shape[:-1] for x in views)
            or q is not None and (q.shape[:-1] != r.shape[:-1] or v.shape != 2 * q.shape[-1:])):
        raise ad.ShapeMismatchError(f"hpcl_loss: R {r.shape}, views {[x.shape for x in views]}, "
                                    f"Q {q and q.shape} and V {v and v.shape} do not fit")
    qd, vd = (None, None) if q is None else (q.data, v.data)
    soft, inv_tau = temp is not None, 1.0 / tau
    eps_val, eps_t = eps.numeric(), eps.value if soft else None
    moved = [np.swapaxes(x.data, -3, -2).shape for x in views]       # (..., N, P, d)
    flats = [np.swapaxes(x.data, -3, -2).reshape(s[:-2] + (-1,)) for x, s in zip(views, moved)]
    units = [ad.unit_rows(f) for f in flats]
    blocks = ad.window_blocks(r.shape, 2, arrays=3)
    top = [np.empty(r.shape[:-1] + (1,)) for _ in views]
    num, den, supported = ([np.empty(r.shape[:-1], t) for _ in views]
                           for t in (float, float, bool))

    def buffers():  # per branch: exponentials, m * gate, d/dm; a scratch
        return [np.empty(rd[blocks[0]].shape) for _ in range(3 * 2 + 1)]

    def gated(k, forward=False):     # block k's m, supports and gates
        m = rd[k] if qd is None else compose_correlation(rd[k], qd[k], vd, count=forward)
        pair = (_supports(m, eps_val, forward and not soft) if supports is None
                else [s[k] for s in supports])
        return m, pair, pair if not soft else [
            ad._logistic((m - eps_val) * (1.0 / temp)),
            ad._logistic((m * -1.0 - eps_val) * (1.0 / temp))]

    def exps(k, i, m, gate, buf, forward=False):   # branch i's e and m * gate
        u, e, p = units[i][0][k], buf[3 * i][:len(m)], buf[3 * i + 1][:len(m)]
        np.matmul(u, np.swapaxes(u, -1, -2), out=e)
        if forward:
            top[i][k] = e.max(axis=-1, keepdims=True)
        e -= top[i][k]
        e *= inv_tau
        np.multiply(gate, m, out=p)
        return np.exp(e, out=e), p

    buf = buffers()
    with np.errstate(over="ignore", invalid="ignore"):
        for k in blocks:
            m, pair, gates = gated(k, forward=True)
            for i, (support, gate) in enumerate(zip(pair, gates)):
                supported[i][k] = support.any(axis=-1)
                e, p = exps(k, i, m, gate, buf, forward=True)
                den[i][k] = e.sum(axis=-1)
                w = np.abs(p, out=buf[-1][:len(m)])
                num[i][k] = np.multiply(w, e, out=w).sum(axis=-1)
    kept = (m, gates, buf) if len(blocks) == 1 else None
    keep = [s.astype(np.float64) for s in supported]
    counts = [np.maximum(kp.sum(axis=-1), 1.0) for kp in keep]
    active = [i for i, s in enumerate(supported) if i == 0 or s.any()]
    means = [np.asarray(0.0) for _ in views]
    for i in active:
        num[i] += 1.0 - keep[i]
        if (num[i] <= 0).any():            # a NaN is left to the finite check
            raise ad.NonFiniteError("log of a non-positive value")
        ratio = np.log(num[i]) - np.log(den[i])
        means[i] = np.asarray((-((ratio * keep[i]).sum(axis=-1) / counts[i])).mean())
    live = {key: t is not None and (t.requires_grad or t._node is not None)   # wants a gradient
            for key, t in [*enumerate(views), ("r", r), ("q", q), ("v", v), ("eps", eps_t)]}
    need_r, need_q, grads = q is None and live["r"], live["q"] or live["v"], {}

    def backward(name, g):
        if grads:
            return grads.pop(name)
        upstream = np.broadcast_to(g / math.prod(lead), lead).copy()   # each mean's
        coef = {}
        for i in active:
            a = np.multiply((-upstream / counts[i])[..., None], keep[i])
            coef[i] = (-a / den[i])[..., None], (a / num[i])[..., None]
        gu = {i: np.empty_like(units[i][0]) for i in active if live[i]}
        gr = np.empty_like(rd) if need_r else None
        if need_q:
            gqa, gqt = np.empty(qd.shape), np.empty(np.swapaxes(qd, -1, -2).shape)
        geps = {i: np.empty(lead) for i in active} if live["eps"] else {}
        buf = kept[2] if kept else buffers()
        with np.errstate(over="ignore", invalid="ignore"):
            for k in blocks:
                m, gates = kept[:2] if kept else gated(k)[::2]
                terms = []                  # d/dm, in the generic chain's order
                for i in active:
                    gate, (b, a) = gates[i], (c[k] for c in coef[i])
                    e, p = ((buf[3 * i][:len(m)], buf[3 * i + 1][:len(m)]) if kept
                            else exps(k, i, m, gate, buf))
                    if i in gu:
                        u = units[i][0][k]
                        gs = np.abs(p, out=buf[-1][:len(m)])
                        gs *= a
                        gs += b
                        gs *= e
                        gs *= inv_tau
                        gu[i][k] = gs @ u + np.swapaxes(np.swapaxes(u, -1, -2) @ gs, -1, -2)
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
                    if geps:
                        geps[i][k] = nz.sum(axis=(-2, -1))
                    terms += [gz, gm] if i == 0 else [gm, nz]
                gm = functools.reduce(np.add, terms)
                if need_r:
                    gr[k] = gm
                if need_q:
                    gqa[k] = gm @ qd[k]
                    gqt[k] = np.swapaxes(qd[k] @ vd, -1, -2) @ gm
        for i, gui in gu.items():
            x, (_, norms, s2) = flats[i], units[i]
            gn = (-gui * x / (norms * norms)).sum(axis=-1, keepdims=True)
            gs = np.broadcast_to(gn * 0.5 * s2 ** -0.5, x.shape) * x
            grads[i] = np.swapaxes((gui / norms + gs + gs).reshape(moved[i]), -3, -2)
        if need_r:
            grads["r"] = gr
        if need_q:
            grads["q"] = gqa @ np.swapaxes(vd, -1, -2) + np.swapaxes(gqt, -1, -2)
            grads["v"] = ad._sum_to_shape(np.swapaxes(qd, -1, -2) @ gqa, vd.shape)
        if geps:
            grads["eps"] = functools.reduce(np.add, [geps[i].sum() for i in active])
        return grads.pop(name)

    parents = [(views[i], lambda g, i=i: backward(i, g)) for i in active]
    parents += ([(r, lambda g: backward("r", g))] if q is None else
                [(q, lambda g: backward("q", g)), (v, lambda g: backward("v", g))])
    parents += [(eps_t, lambda g: backward("eps", g))] if soft else []
    return (*map(ad.constant, means),
            ad._result(functools.reduce(np.add, means), parents, "hpcl_loss"))


def aux_loss(x_pos, x_neg, masks: MaskPair, config: TrainConfig | None = None):
    """``(l_pos, l_neg, l_total)``: the branch losses as constants and their
    recorded sum, one `hpcl_loss` op over ``masks.m``, its threshold and its
    supports.  Both weight pairs by ``|m * gate|``, so negative correlations
    enter by magnitude and the log arguments stay positive."""
    config = config or TrainConfig()
    return hpcl_loss(masks.m, (x_pos, x_neg), config.tau, masks.eps,
                     config.gate_temp if config.soft_gate else None,
                     supports=(masks.pos_support, masks.neg_support))
