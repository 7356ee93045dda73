"""Channel-correlation estimation: rule-based Pearson plus learned terms.

The composed estimate for a window is

    M = R + Q V Q^T

where ``R`` is the Pearson correlation of the raw lookback (a constant --
no gradients flow into it), ``Q`` is a time-varying basis built from the
backbone representation (one polynomial-coefficient row per channel), and
``V`` is a time-invariant positive mixing matrix ``sigmoid(relu(E1 E2^T))``.

`pearson_matrix` scales and centres the rows with `centre_rows`, the one
row scaler that the backbone's z-score shares.

``Q`` decomposes into a window-mean part and a residual part; the product
splits additively into a static and a time-varying term, which
`low_rank_additive_split` verifies numerically.  The expressiveness of the
polynomial basis in ``q`` is probed by `polynomial_degree_error_curve`.

Q, V and M are plain arrays from `dce_factors` and `compose_correlation`:
training forms them inside the contrastive op, `hpcl_loss`, M one block of
windows at a time, and takes M's gradient through Q and V to the
estimator's parameters in the same pass.

Every allocation of a correlation matrix bumps a module counter so the
harness can assert that the inference path never estimates correlations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

__all__ = [
    "DceParams",
    "init_dce_params",
    "default_rank",
    "centre_rows",
    "pearson_matrix",
    "dce_factors",
    "compose_correlation",
    "low_rank_additive_split",
    "polynomial_degree_error_curve",
    "correlation_matrix_allocations",
]

CURVE_DOMAIN = (-1.0, 1.0)
CURVE_GRID_POINTS = 201

_allocations = 0


def correlation_matrix_allocations() -> int:
    """Running count of correlation-matrix constructions (rule or composed)."""
    return _allocations


def _bump(count: int = 1) -> None:
    global _allocations
    _allocations += count


def default_rank(n_channels: int) -> int:
    """Default basis rank M = min(max(2, ceil(N/4)), 16)."""
    return int(min(max(2, -(-n_channels // 4)), 16))


def centre_rows(x: np.ndarray):
    """The rows of ``x`` (..., L), scaled and centred in one fresh buffer.

    Returns ``(centred, mean, exponent, constant)``, each but ``centred``
    with a trailing axis of 1.  Every row is scaled by ``2**-exponent`` to a
    max-abs in [0.5, 1): exact, short of subnormals, so statistics of the
    scaled row keep their bits when scaled back, and no square overflows.
    ``mean`` is the scaled row's mean, and ``centred`` the scaled row minus
    it.  ``constant`` flags rows whose raw values all agree; it is found by
    value, since a constant whose mean is inexact leaves a rounding residue.
    Callers may overwrite ``centred``.  `pearson_matrix` and the backbone's
    normalisation share this one scaler.
    """
    # an initial value takes numpy's faster reduction loop over short rows
    hi = np.maximum.reduce(x, axis=-1, keepdims=True, initial=-np.inf)
    lo = np.minimum.reduce(x, axis=-1, keepdims=True, initial=np.inf)
    _, exponent = np.frexp(np.maximum(hi, -lo))
    centred = np.ldexp(x, -exponent)
    mean = centred.mean(axis=-1, keepdims=True)
    centred -= mean
    return centred, mean, exponent, hi == lo


def pearson_matrix(x: np.ndarray) -> np.ndarray:
    """Pearson correlation of channel rows over the full lookback.

    ``x`` is (N, L) or a stack (..., N, L) of raw windows.  Constant
    channels get correlation 0 with every other channel and 1 with
    themselves.  They are found by value, not by variance: a constant
    whose mean is inexact in floating point leaves a rounding residue
    whose variance is positive.  Any finite magnitude is accepted: the
    rows are scaled by powers of two, by `centre_rows`, before their
    squares are formed.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 2 or x.shape[-1] == 0:
        raise ValueError("pearson_matrix expects (..., N, L) with L >= 1")
    n = x.shape[-2]
    centred, _, _, constant = centre_rows(x)
    cov = centred @ centred.swapaxes(-1, -2)
    del centred
    var = np.einsum("...ii->...i", cov)
    degenerate = (var <= 0.0) | constant[..., 0]
    std = np.sqrt(np.where(degenerate, 1.0, var))
    denom = std[..., :, None] * std[..., None, :]
    r = cov / denom
    # freed as soon as they are spent, so at most three (..., N, N) arrays live
    del cov, denom, var
    r = np.clip(r, -1.0, 1.0)
    # degenerate channels: zero out their rows/columns, restore unit diagonal
    if degenerate.any():
        r = np.where(degenerate[..., :, None] | degenerate[..., None, :], 0.0, r)
    idx = np.arange(n)
    r[..., idx, idx] = 1.0
    _bump(int(np.prod(x.shape[:-2], dtype=int)) if x.ndim > 2 else 1)
    return r


@dataclass
class DceParams:
    """Trainable pieces of the learned correlation estimator."""

    q: Tensor          # (N, M) basis
    coef_w: Tensor     # (d, K+1) shared per-channel affine
    coef_b: Tensor     # (K+1,)
    e1: Tensor         # (M, d_e)
    e2: Tensor         # (M, d_e)

    def named_tensors(self):
        return [
            ("dce.q", self.q),
            ("dce.coef_w", self.coef_w),
            ("dce.coef_b", self.coef_b),
            ("dce.e1", self.e1),
            ("dce.e2", self.e2),
        ]


def init_dce_params(n_channels: int, repr_dim: int, degree: int,
                    rank: int | None, embed_dim: int, *,
                    rng: np.random.Generator) -> DceParams:
    """Initialise so the learned part starts near zero (M starts at R).

    q ~ U(-0.5, 0.5); E1, E2 ~ N(0, 0.1); the coefficient affine starts
    small so tanh outputs (and hence Q) are near zero at initialisation.
    """
    m = rank if rank is not None else default_rank(n_channels)
    return DceParams(
        q=ad.parameter(rng.uniform(-0.5, 0.5, size=(n_channels, m))),
        coef_w=ad.parameter(rng.normal(0.0, 0.02, size=(repr_dim, degree + 1))),
        coef_b=ad.parameter(np.zeros(degree + 1)),
        e1=ad.parameter(rng.normal(0.0, 0.1, size=(m, embed_dim))),
        e2=ad.parameter(rng.normal(0.0, 0.1, size=(m, embed_dim))),
    )


def dce_factors(rep: np.ndarray, params: DceParams):
    """Q (..., N, M) and V (M, M) of the learned estimator as plain arrays,
    and ``grads(gq, gv)``, which takes their gradients to the parameters',
    in `DceParams.named_tensors` order (None for ``q`` at degree 0).

    Q: mean-pool the representation ``rep`` (..., P, N, d) over patches,
    apply the shared per-channel affine, squash with tanh to the K+1
    polynomial coefficients c and expand, Q = sum_i c_i q^i.  V =
    sigmoid(relu(E1 E2^T)), whose relu reports to `ad.record_gates`.  Values
    and gradients keep the float order of the generic-op chain.
    """
    rep = np.asarray(rep, dtype=np.float64)
    qp, w, b, e1, e2 = (t.data for _, t in params.named_tensors())
    if rep.ndim < 3 or rep.shape[-2:] != (qp.shape[0], w.shape[0]):
        raise ad.ShapeMismatchError(f"representation {rep.shape} must be (..., P, N, d) "
                                    f"with N, d = {qp.shape[0]}, {w.shape[0]}")
    pooled = rep.mean(axis=-3)                                    # (..., N, d)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        c = np.tanh(pooled @ w + b)                               # (..., N, K+1)
        powers = [qp if i == 1 else qp ** float(i) for i in range(1, c.shape[-1])]
        q = np.broadcast_to(c[..., :1], c.shape[:-1] + qp.shape[-1:]).copy()
        for i, p in enumerate(powers, start=1):
            q += c[..., i:i + 1] * p
    kept = np.maximum(e1 @ np.transpose(e2), 0.0)
    ad.trace_gate(kept)
    v = 1.0 / (1.0 + np.exp(-kept))         # `ad._logistic`'s bits on kept >= 0

    def grads(gq, gv):
        cs = c.shape[:-1] + (1,)
        gc = np.zeros(c.shape)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for i, p in enumerate([None] + powers):
                gc[..., i:i + 1] += ad._sum_to_shape(
                    gq if p is None else np.multiply(gq, p, order="C"), cs)
            gqp = None
            for i in range(1, c.shape[-1]):
                t = ad._sum_to_shape(np.multiply(gq, c[..., i:i + 1], order="C"), qp.shape)
                t = t if i == 1 else t * float(i) * qp ** (i - 1.0)
                gqp = t if gqp is None else gqp + t
        ga = gc * (1.0 - c * c)                                   # tanh
        gw = ad._sum_to_shape(np.swapaxes(pooled, -1, -2) @ ga, w.shape)
        gk = gv * v * (1.0 - v) * (kept > 0)                      # sigmoid, relu
        return gqp, gw, ad._sum_to_shape(ga, b.shape), gk @ e2, np.transpose(e1.T @ gk)

    return q, v, grads


def compose_correlation(r: np.ndarray, q: np.ndarray, v: np.ndarray, *,
                        count: bool = True) -> np.ndarray:
    """M = R + (Q V) Q^T of plain arrays ``r`` (..., N, N), ``q`` (..., N, M)
    and ``v`` (M, M), for a block of windows or a whole batch alike: each
    window gets the same bits.  M is not symmetrised.  ``count`` bumps the
    allocation counter once per window; recomputing counted ones does not."""
    if r.shape[-1] != q.shape[-2]:
        raise ad.ShapeMismatchError(f"compose_correlation: R {r.shape} vs Q {q.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        m = r + (q @ v) @ np.swapaxes(q, -1, -2)
    if count:
        _bump(int(np.prod(m.shape[:-2], dtype=int)) if m.ndim > 2 else 1)
    return m


def low_rank_additive_split(q_static: np.ndarray, q_resid: np.ndarray,
                            v: np.ndarray):
    """Split (Qs+Qr) V (Qs+Qr)^T into a static and a time-varying term.

    Returns ``(static_term, varying_term, residual)`` where

        static_term  = Qs V Qs^T
        varying_term = Qs V Qr^T + Qr V Qs^T + Qr V Qr^T

    and ``residual`` is the max abs deviation of their sum from the direct
    product -- algebraically zero, numerically at rounding level.
    """
    q_static = np.asarray(q_static, dtype=np.float64)
    q_resid = np.asarray(q_resid, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    total = (q_static + q_resid) @ v @ (q_static + q_resid).T
    static_term = q_static @ v @ q_static.T
    varying_term = (
        q_static @ v @ q_resid.T + q_resid @ v @ q_static.T + q_resid @ v @ q_resid.T
    )
    residual = float(np.abs(total - (static_term + varying_term)).max())
    return static_term, varying_term, residual


def polynomial_degree_error_curve(target, degrees):
    """Least-squares polynomial fit error of ``target`` per degree.

    For each degree K a polynomial is fitted by least squares on
    `CURVE_GRID_POINTS` uniform points over `CURVE_DOMAIN`; reported is the
    max abs error on that grid together with the design-matrix condition
    number (large = the fit is numerically fragile and the error floor is
    conditioning-limited).

    Returns a list of ``(degree, max_abs_error, condition)`` tuples in the
    order given.  Adding a degree can only shrink (never grow) the error,
    up to that floor.
    """
    grid = np.linspace(*CURVE_DOMAIN, CURVE_GRID_POINTS)
    values = np.asarray([float(target(t)) for t in grid])
    curve = []
    for k in degrees:
        vander = np.polynomial.polynomial.polyvander(grid, int(k))
        coeffs, *_ = np.linalg.lstsq(vander, values, rcond=None)
        fitted = vander @ coeffs
        err = float(np.abs(fitted - values).max())
        s = np.linalg.svd(vander, compute_uv=False)
        cond = float(s[0] / s[-1]) if s[-1] > 0 else float("inf")
        curve.append((int(k), err, cond))
    return curve
