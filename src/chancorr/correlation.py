"""Channel-correlation estimation: rule-based Pearson plus learned terms.

The composed estimate for a window is

    M = R + Q V Q^T

where ``R`` is the Pearson correlation of the raw lookback (a constant --
no gradients flow into it), ``Q`` is a time-varying basis built from the
backbone representation (one polynomial-coefficient row per channel), and
``V`` is a time-invariant positive mixing matrix ``sigmoid(relu(E1 E2^T))``.

``Q`` decomposes into a window-mean part and a residual part; the product
splits additively into a static and a time-varying term, which
`low_rank_additive_split` verifies numerically.  The expressiveness of the
polynomial basis in ``q`` is probed by `polynomial_degree_error_curve`.

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
    "pearson_matrix",
    "polynomial_expand",
    "time_varying_component",
    "time_invariant_component",
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


def pearson_matrix(x: np.ndarray) -> np.ndarray:
    """Pearson correlation of channel rows over the full lookback.

    ``x`` is (N, L) or a stack (..., N, L) of raw windows.  Constant
    channels get correlation 0 with every other channel and 1 with
    themselves.  They are found by value, not by variance: a constant
    whose mean is inexact in floating point leaves a rounding residue
    whose variance is positive.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 2:
        raise ValueError("pearson_matrix expects (..., N, L)")
    n = x.shape[-2]
    centred = x - x.mean(axis=-1, keepdims=True)
    cov = centred @ centred.swapaxes(-1, -2)
    var = np.einsum("...ii->...i", cov)
    degenerate = (var <= 0.0) | (x.max(axis=-1) == x.min(axis=-1))
    std = np.sqrt(np.where(degenerate, 1.0, var))
    denom = std[..., :, None] * std[..., None, :]
    r = cov / denom
    r = np.clip(r, -1.0, 1.0)
    # degenerate channels: zero out their rows/columns, restore unit diagonal
    if degenerate.any():
        r = np.where(degenerate[..., :, None] | degenerate[..., None, :], 0.0, r)
    idx = np.arange(n)
    r[..., idx, idx] = 1.0
    _bump(int(np.prod(x.shape[:-2], dtype=int)) if x.ndim > 2 else 1)
    return r


def polynomial_expand(coeffs, q) -> Tensor:
    """Evaluate Q = sum_i coeffs[..., i] * q**i  (i = 0..K, q**0 == ones).

    ``coeffs`` has K+1 trailing coefficients per channel, shape (..., N, K+1);
    ``q`` is the (N, M) basis.  Returns (..., N, M).
    """
    coeffs = ad.as_tensor(coeffs)
    q = ad.as_tensor(q)
    k_plus_1 = coeffs.shape[-1]
    out = None
    for i in range(k_plus_1):
        c_i = ad.take_slice(coeffs, (..., slice(i, i + 1)))  # (..., N, 1)
        if i == 0:
            term = ad.expand(c_i, c_i.shape[:-1] + (q.shape[-1],))
        elif i == 1:
            term = ad.multiply(c_i, q)
        else:
            term = ad.multiply(c_i, ad.power(q, float(i)))
        out = term if out is None else ad.add(out, term)
    return out


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


def init_dce_params(n_channels: int, repr_dim: int, degree: int = 3,
                    rank: int | None = None, embed_dim: int = 8, *,
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


def time_varying_component(repr_tensor, params: DceParams) -> Tensor:
    """Window-specific basis Q from the backbone representation.

    ``repr_tensor`` is (..., P, N, d): mean-pool over patches, apply the
    shared per-channel affine, squash with tanh to get the K+1 polynomial
    coefficients, then expand against the basis.  Returns (..., N, M).
    """
    repr_tensor = ad.as_tensor(repr_tensor)
    if repr_tensor.ndim < 3:
        raise ad.ShapeMismatchError("representation must be (..., P, N, d)")
    pooled = ad.mean(repr_tensor, axis=-3)  # (..., N, d)
    coeffs = ad.tanh(ad.add(ad.matmul(pooled, params.coef_w), params.coef_b))
    return polynomial_expand(coeffs, params.q)


def time_invariant_component(params: DceParams) -> Tensor:
    """V = sigmoid(relu(E1 E2^T)): entries in (0, 1), shape (M, M)."""
    return ad.sigmoid(ad.relu(ad.matmul(params.e1, ad.transpose(params.e2))))


def compose_correlation(r, q, v) -> Tensor:
    """M = R + Q V Q^T.  R is constant: no gradient flows into it.

    ``r`` is (..., N, N) (stacks allowed), ``q`` (..., N, M), ``v`` (M, M).
    M is not symmetrised: the raw composition is what downstream
    thresholds consume.
    """
    r_const = ad.constant(r.data if isinstance(r, Tensor) else np.asarray(r))
    q = ad.as_tensor(q)
    v = ad.as_tensor(v)
    if r_const.shape[-1] != q.shape[-2]:
        raise ad.ShapeMismatchError(
            f"compose_correlation: R {r_const.shape} vs Q {q.shape}")
    qt = ad.transpose(q, axes=tuple(range(q.ndim - 2)) + (q.ndim - 1, q.ndim - 2))
    learned = ad.matmul(ad.matmul(q, v), qt)
    out = ad.add(r_const, learned)
    _bump(int(np.prod(out.shape[:-2], dtype=int)) if out.ndim > 2 else 1)
    return out


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
