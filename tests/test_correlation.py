"""Correlation estimation against independent loop oracles."""

import math

import numpy as np
import pytest

from chancorr import autodiff as ad
from chancorr import backbone as bb
from chancorr import contrastive as ct
from chancorr import correlation as corr


# ---------------------------------------------------------------------------
# oracles


def pearson_two_pass(x):
    """Classic two-pass textbook computation, pure Python loops."""
    n_ch = len(x)
    length = len(x[0])
    means = []
    for i in range(n_ch):
        acc = 0.0
        for t in range(length):
            acc += x[i][t]
        means.append(acc / length)
    out = [[0.0] * n_ch for _ in range(n_ch)]
    for i in range(n_ch):
        for j in range(n_ch):
            num = 0.0
            den_i = 0.0
            den_j = 0.0
            for t in range(length):
                di = x[i][t] - means[i]
                dj = x[j][t] - means[j]
                num += di * dj
                den_i += di * di
                den_j += dj * dj
            if den_i == 0.0 or den_j == 0.0:
                out[i][j] = 1.0 if i == j else 0.0
            else:
                out[i][j] = num / math.sqrt(den_i * den_j)
    return np.array(out)


def compose_triple_loop(r, q, v):
    """Naive elementwise R + QVQ^T."""
    n, m = q.shape
    out = np.array(r, dtype=float, copy=True)
    for a in range(n):
        for b in range(n):
            acc = 0.0
            for i in range(m):
                for j in range(m):
                    acc += q[a, i] * v[i, j] * q[b, j]
            out[a, b] += acc
    return out


# ---------------------------------------------------------------------------
# Pearson rule


def test_pearson_known_pair():
    # independent hand computation: r((1,2,3,4),(1,3,2,4)) = 4/5
    x = np.array([[1.0, 2.0, 3.0, 4.0], [1.0, 3.0, 2.0, 4.0]])
    r = corr.pearson_matrix(x)
    assert r[0, 1] == pytest.approx(0.8, abs=1e-15)
    assert np.allclose(r, pearson_two_pass(x), atol=1e-15)


def test_pearson_matches_two_pass_oracle():
    rng = np.random.default_rng(11)
    for trial in range(100):
        n = int(rng.integers(2, 7))
        length = int(rng.integers(8, 40))
        x = rng.normal(size=(n, length)) * rng.uniform(0.5, 3.0)
        r = corr.pearson_matrix(x)
        assert np.abs(r - pearson_two_pass(x)).max() < 1e-10


def test_pearson_invariants():
    rng = np.random.default_rng(12)
    for trial in range(50):
        x = rng.normal(size=(5, 30))
        r = corr.pearson_matrix(x)
        assert np.allclose(r, r.T, atol=1e-14)          # symmetry
        assert np.allclose(np.diag(r), 1.0, atol=1e-14)  # unit diagonal
        assert (np.abs(r) <= 1.0 + 1e-12).all()          # range
        # invariance to per-channel affine rescaling with positive gain
        gains = rng.uniform(0.5, 4.0, size=(5, 1))
        offs = rng.normal(size=(5, 1)) * 10
        r2 = corr.pearson_matrix(x * gains + offs)
        assert np.abs(r - r2).max() < 1e-12


def test_pearson_large_magnitudes_do_not_overflow():
    # squares of 1e160 overflow float64; the row scaling keeps r exact
    x = np.array([[1e160, -1e160, 3e160], [1.0, 2.0, 0.5]])
    r = corr.pearson_matrix(x)
    assert r[0, 1] == r[1, 0] == pytest.approx(-0.9819805060619655, abs=1e-15)
    assert np.allclose(r, pearson_two_pass(x * [[1e-160], [1.0]]), atol=1e-15)


def test_pearson_is_exact_under_power_of_two_row_scaling():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(3, 6, 40)) * rng.uniform(0.1, 10.0, size=(3, 6, 1))
    shifts = rng.integers(-900, 900, size=(3, 6, 1))
    assert np.array_equal(corr.pearson_matrix(x),
                          corr.pearson_matrix(np.ldexp(x, shifts)))


def hostile_rows(rng, length=40):
    """(2, 8, length) windows: ordinary rows beside rows scaled by 1e-300 and
    1e300, constant rows, a subnormal row and rows of signed zeros."""
    x = rng.normal(size=(2, 8, length))
    x[0, 1] *= 1e-300
    x[0, 2] *= 1e300
    x[0, 3] = 3.14
    x[0, 4] = 0.0
    x[0, 5] = 5e-324 * rng.integers(-3, 4, size=length)
    x[0, 6] = -0.0
    x[0, 7] = np.where(np.arange(length) % 2, -0.0, 0.0)
    x[1, 0] = 1e300 * rng.integers(0, 2, size=length)
    x[1, 1] = -2.0 ** -1074
    return x


def pearson_formula(x):
    """pearson_matrix with the row scaling, centring and constant-row test
    written out inline, as numpy ops in the package's own order."""
    hi, lo = np.max(x, axis=-1, initial=-np.inf), np.min(x, axis=-1, initial=np.inf)
    _, exponent = np.frexp(np.maximum(hi, -lo))
    centred = np.ldexp(x, -exponent[..., None])
    centred -= centred.mean(axis=-1, keepdims=True)
    cov = centred @ centred.swapaxes(-1, -2)
    var = np.einsum("...ii->...i", cov)
    degenerate = (var <= 0.0) | (hi == lo)
    std = np.sqrt(np.where(degenerate, 1.0, var))
    r = np.clip(cov / (std[..., :, None] * std[..., None, :]), -1.0, 1.0)
    r = np.where(degenerate[..., :, None] | degenerate[..., None, :], 0.0, r)
    idx = np.arange(x.shape[-2])
    r[..., idx, idx] = 1.0
    return r, centred, hi == lo


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
def test_row_scaler_and_pearson_match_the_inline_formula_bitwise(layout):
    x = hostile_rows(np.random.default_rng(14), length=80)
    x = {"C": x, "F": np.asfortranarray(x), "strided": x[..., ::2]}[layout]
    want_r, want_centred, want_constant = pearson_formula(x)
    centred, mean, exponent, constant = corr.centre_rows(x)
    assert centred.tobytes() == want_centred.tobytes()
    assert np.array_equal(constant[..., 0], want_constant)
    assert constant[0, 3:5].all() and constant[0, 6:8].all() and constant[1, 1]
    assert not constant[0, 5] and not constant[1, 0]
    assert np.array_equal(mean, np.ldexp(x, -exponent).mean(axis=-1, keepdims=True))
    assert corr.pearson_matrix(x).tobytes() == want_r.tobytes()


def normalize_formula(x):
    """The backbone's z-score with its power-of-two row scaling written out
    inline, as numpy ops in the package's own order."""
    _, exponent = np.frexp(np.maximum(x.max(axis=-1, keepdims=True),
                                      -x.min(axis=-1, keepdims=True)))
    scaled = np.ldexp(x, -exponent)
    mean = scaled.mean(axis=-1, keepdims=True)
    std = np.sqrt(((scaled - mean) ** 2).mean(axis=-1, keepdims=True))
    mean = np.ldexp(mean, exponent)
    std = np.maximum(np.ldexp(std, exponent), bb.NORM_EPS)
    return (x - mean) / std, mean, std


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
def test_normalization_matches_the_inline_formula_bitwise(layout):
    x = hostile_rows(np.random.default_rng(15), length=64)
    x = {"C": x, "F": np.asfortranarray(x), "strided": x[..., ::2]}[layout]
    kept = x.copy()
    for got, want in zip(bb._normalize(x), normalize_formula(x)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert x.tobytes() == kept.tobytes()


def test_pearson_perfect_and_anti():
    t = np.linspace(0.0, 1.0, 50)
    x = np.stack([t, 2 * t + 1, -3 * t + 4])
    r = corr.pearson_matrix(x)
    assert r[0, 1] == pytest.approx(1.0, abs=1e-12)
    assert r[0, 2] == pytest.approx(-1.0, abs=1e-12)


def test_pearson_zero_variance_channel_flagged():
    x = np.vstack([np.full(20, 3.14), np.random.default_rng(0).normal(size=20)])
    r = corr.pearson_matrix(x)
    assert r[0, 0] == 1.0 and r[1, 1] == 1.0
    assert r[0, 1] == 0.0 and r[1, 0] == 0.0


def test_pearson_batched_stack():
    rng = np.random.default_rng(13)
    stack = rng.normal(size=(4, 3, 25))
    r = corr.pearson_matrix(stack)
    for b in range(4):
        assert np.abs(r[b] - pearson_two_pass(stack[b])).max() < 1e-10


# ---------------------------------------------------------------------------
# learned components


def forced(n, d, coeffs, q, rng):
    """Estimator parameters whose polynomial coefficients are ``coeffs`` for
    every channel of any representation: a zero affine, tanh^-1 as bias."""
    params = corr.init_dce_params(n, d, degree=len(coeffs) - 1, rank=q.shape[1],
                                  embed_dim=2, rng=rng)
    params.coef_w.data[...] = 0.0
    params.coef_b.data[...] = np.arctanh(coeffs)
    params.q.data[...] = q
    return params


def test_polynomial_expand_forced_coefficients():
    # degree 2, q = 0.5 everywhere, coefficients (0.5, -0.25, 0.75):
    # Q = 0.5 - 0.25*0.5 + 0.75*0.25 = 0.5625
    rng = np.random.default_rng(13)
    params = forced(3, 4, [0.5, -0.25, 0.75], np.full((3, 2), 0.5), rng)
    q, _, _ = corr.dce_factors(rng.normal(size=(2, 3, 4)), params)
    assert np.allclose(q, 0.5625, atol=1e-15)


def test_polynomial_expand_identity_coefficients():
    # degree 1 with coefficients (0, c) scales q by c
    rng = np.random.default_rng(14)
    basis = rng.normal(size=(4, 3))
    params = forced(4, 2, [0.0, 0.5], basis, rng)
    q, _, _ = corr.dce_factors(rng.normal(size=(5, 2, 4, 2)), params)
    assert np.allclose(q, 0.5 * basis, atol=1e-15)


def composite_polynomial(c, q, g):
    """Q = sum_i c[..., i] * q**i as the generic-op composite formed it
    (slice, broadcast copy, multiply, power, add), in plain numpy.  Returns
    Q and, for the upstream gradient ``g``, the gradients w.r.t. ``c`` and
    ``q`` (None at K = 0)."""
    k = c.shape[-1] - 1
    cols = [c[..., i:i + 1] for i in range(k + 1)]
    powers = [None, q] + [q ** float(i) for i in range(2, k + 1)]
    out = np.broadcast_to(cols[0], cols[0].shape[:-1] + q.shape[-1:]).copy()
    for i in range(1, k + 1):
        out = out + cols[i] * powers[i]
    dc = dq = None
    for i in range(k + 1):          # each slice scatters its column into zeros
        col = g if i == 0 else np.multiply(g, powers[i], order="C")
        scattered = np.zeros(c.shape)
        scattered[..., i:i + 1] = col.sum(axis=-1, keepdims=True)
        dc = scattered if dc is None else dc + scattered
    for i in range(1, k + 1):       # the q terms, in ascending i
        t = np.multiply(g, cols[i], order="C")
        t = t.sum(axis=0) if t.ndim > q.ndim else t
        t = t if i == 1 else t * float(i) * q ** (i - 1.0)
        dq = t if dq is None else dq + t
    return out, dc, dq


def composite_factors(rep, params, gq, gv):
    """Q, V and every parameter's gradient for the upstream ``gq``, ``gv``:
    the generic ops' chain (mean, matmul, add, tanh, the polynomial; matmul,
    transpose, relu, sigmoid) written out in plain numpy."""
    qp, w, b, e1, e2 = (t.data for _, t in params.named_tensors())
    pooled = rep.mean(axis=-3)
    c = np.tanh(pooled @ w + b)
    q, dc, dq = composite_polynomial(c, qp, gq)
    da = dc * (1.0 - c * c)
    lead = tuple(range(da.ndim - 1))
    dw = np.swapaxes(pooled, -1, -2) @ da
    dw = dw.sum(axis=0) if dw.ndim > 2 else dw
    z = np.maximum(e1 @ e2.T, 0.0)
    v = 1.0 / (1.0 + np.exp(-z))
    dz = gv * v * (1.0 - v) * (z > 0)
    return q, v, [dq, dw, da.sum(axis=lead), dz @ e2, (e1.T @ dz).T]


@pytest.mark.parametrize("n", [8, 256])
@pytest.mark.parametrize("batch", [(), (1,), (48,)])
def test_q_is_bitwise_the_composite(n, batch):
    # the shared helper keeps the generic-op chain's values and gradients
    rng = np.random.default_rng(n + len(batch) + sum(batch))
    for k in range(6):
        params = corr.init_dce_params(n, 5, degree=k, rank=16, embed_dim=3, rng=rng)
        params.q.data = rng.uniform(-1.5, 1.5, size=(n, 16))
        params.coef_w.data = rng.normal(size=(5, k + 1))
        params.coef_b.data = rng.normal(size=k + 1)
        rep = rng.normal(size=batch + (2, n, 5))
        gq, gv = rng.normal(size=batch + (n, 16)), rng.normal(size=(16, 16))
        q, v, back = corr.dce_factors(rep, params)
        want_q, want_v, want = composite_factors(rep, params, gq, gv)
        assert q.tobytes() == want_q.tobytes(), k
        assert v.tobytes() == want_v.tobytes(), k
        for name, got, g in zip(["q", "w", "b", "e1", "e2"], back(gq, gv), want):
            assert got is None if g is None else got.tobytes() == g.tobytes(), (k, name)


def test_dce_factors_rejects_mismatched_shapes():
    params = corr.init_dce_params(4, 3, degree=2, rank=2, embed_dim=2,
                                  rng=np.random.default_rng(0))
    for shape in ((4, 3), (2, 5, 3), (2, 4, 2), (1, 2, 5, 3)):
        with pytest.raises(ad.ShapeMismatchError):
            corr.dce_factors(np.ones(shape), params)


def test_mixing_relu_subgradient_convention():
    # V = sigmoid(relu(E1 E2^T)): gradient passes where E1 E2^T > 0 only,
    # not at 0 itself; each decision reports to the gate trace
    params = corr.init_dce_params(3, 2, degree=1, rank=3, embed_dim=1,
                                  rng=np.random.default_rng(1))
    params.e1.data = np.array([[1.0], [0.0], [-1.0]])
    params.e2.data = np.array([[2.0], [1.0], [0.0]])
    trace = []
    with ad.record_gates(trace):
        _, v, back = corr.dce_factors(np.ones((1, 3, 2)), params)
    z = params.e1.data @ params.e2.data.T
    assert np.array_equal(np.unpackbits(trace[0])[:9].reshape(3, 3), z > 0)
    ge1 = back(np.zeros((3, 3)), np.ones((3, 3)))[3]
    assert np.array_equal(ge1, ((v * (1.0 - v)) * (z > 0)) @ params.e2.data)
    assert ge1[1:].tolist() == [[0.0], [0.0]]


def test_time_varying_shapes_and_batch_consistency():
    rng = np.random.default_rng(15)
    params = corr.init_dce_params(n_channels=5, repr_dim=6, degree=3, rank=2,
                                  embed_dim=4, rng=rng)
    reps = rng.normal(size=(3, 2, 5, 6))
    q_batch = corr.dce_factors(reps, params)[0]
    assert q_batch.shape == (3, 5, 2)
    for b in range(3):
        q_one = corr.dce_factors(reps[b], params)[0]
        assert np.allclose(q_batch[b], q_one, atol=1e-14)


def test_time_varying_gradient_matches_fd():
    # d/dtheta of sum(Q * Q) + sum(V * G) against central differences
    rng = np.random.default_rng(16)
    params = corr.init_dce_params(n_channels=4, repr_dim=5, degree=2, rank=3,
                                  embed_dim=3, rng=rng)
    reps = rng.normal(size=(2, 4, 5))
    weights = rng.normal(size=(3, 3))

    def loss():
        q, v, _ = corr.dce_factors(reps, params)
        return (q * q).sum() + (v * weights).sum()

    q, _, back = corr.dce_factors(reps, params)
    for (name, t), grad in zip(params.named_tensors(), back(2.0 * q, weights)):
        flat = t.data.reshape(-1)
        for i in range(flat.size):
            x0 = flat[i]
            flat[i] = x0 + 1e-6
            up = loss()
            flat[i] = x0 - 1e-6
            down = loss()
            flat[i] = x0
            assert grad.reshape(-1)[i] == pytest.approx((up - down) / 2e-6, abs=1e-6), name


def test_time_invariant_range_and_zero_case():
    rng = np.random.default_rng(17)
    params = corr.init_dce_params(4, 5, degree=3, rank=3, embed_dim=4, rng=rng)
    v = corr.dce_factors(np.ones((1, 4, 5)), params)[1]
    assert v.shape == (3, 3)
    assert ((v > 0.0) & (v < 1.0)).all()
    # E1 E2^T == 0  ->  relu 0 -> sigmoid -> exactly 0.5 everywhere
    params.e1.data[:] = 0.0
    v0 = corr.dce_factors(np.ones((1, 4, 5)), params)[1]
    assert np.allclose(v0, 0.5)


# ---------------------------------------------------------------------------
# composition


def test_compose_zero_q_returns_rule_part():
    rng = np.random.default_rng(18)
    r = corr.pearson_matrix(rng.normal(size=(4, 30)))
    q = np.zeros((4, 2))
    v = rng.uniform(0.2, 0.8, size=(2, 2))
    m = corr.compose_correlation(r, q, v)
    assert np.allclose(m, r, atol=1e-15)


def test_compose_matches_triple_loop():
    rng = np.random.default_rng(19)
    for trial in range(25):
        n, m_rank = int(rng.integers(2, 6)), int(rng.integers(1, 4))
        r = corr.pearson_matrix(rng.normal(size=(n, 20)))
        q = rng.normal(size=(n, m_rank))
        v = rng.uniform(0.0, 1.0, size=(m_rank, m_rank))
        got = corr.compose_correlation(r, q, v)
        want = compose_triple_loop(r, q, v)
        assert np.abs(got - want).max() < 1e-12


def test_compose_learned_part_linear_in_v():
    rng = np.random.default_rng(20)
    q = rng.normal(size=(4, 3))
    v1 = rng.uniform(size=(3, 3))
    v2 = rng.uniform(size=(3, 3))
    zero_r = np.zeros((4, 4))
    m1 = corr.compose_correlation(zero_r, q, v1)
    m2 = corr.compose_correlation(zero_r, q, v2)
    m12 = corr.compose_correlation(zero_r, q, 2.0 * v1 + 0.5 * v2)
    assert np.allclose(m12, 2.0 * m1 + 0.5 * m2, atol=1e-12)


def test_compose_no_gradient_into_rule_part():
    # the contrastive op composes M = R + Q V Q^T and differentiates it
    # w.r.t. Q and V only: R enters as a constant
    rng = np.random.default_rng(21)
    r_tensor = ad.parameter(corr.pearson_matrix(rng.normal(size=(3, 20))))
    dce = corr.init_dce_params(3, 4, degree=2, rank=2, embed_dim=2, rng=rng)
    views = ad.constant(rng.normal(size=(2, 3, 4)))
    eps = ct.init_epsilon(0.1)
    ct.hpcl_loss(r_tensor, (views, views), 0.5, eps, None, dce,
                 rng.normal(size=(2, 3, 4)))[-1].backward()
    assert r_tensor.grad is None
    assert all(t.grad is not None for _, t in dce.named_tensors())


def test_allocation_counter_increments():
    before = corr.correlation_matrix_allocations()
    corr.pearson_matrix(np.random.default_rng(1).normal(size=(3, 16)))
    assert corr.correlation_matrix_allocations() == before + 1


def test_hpcl_op_counts_each_composed_window_once(monkeypatch):
    # once per window in the forward; backward forms none
    monkeypatch.setattr(ad, "BLOCK_BYTES", 1)          # a window a block
    rng = np.random.default_rng(22)
    r = corr.pearson_matrix(rng.normal(size=(5, 3, 20)))
    dce = corr.init_dce_params(3, 4, degree=2, rank=2, embed_dim=2, rng=rng)
    views = ad.constant(rng.normal(size=(5, 2, 3, 4)))
    before = corr.correlation_matrix_allocations()
    total = ct.hpcl_loss(r, (views, views), 0.5, ct.init_epsilon(0.1), None,
                         dce, rng.normal(size=(5, 2, 3, 4)))[-1]
    assert corr.correlation_matrix_allocations() == before + 5
    total.backward()
    assert corr.correlation_matrix_allocations() == before + 5


# ---------------------------------------------------------------------------
# the two identities


def test_additive_split_residual_tiny():
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(200):
        n, m = int(rng.integers(2, 8)), int(rng.integers(1, 5))
        qs = rng.normal(size=(n, m))
        qr = rng.normal(size=(n, m)) * 0.3
        v = rng.uniform(size=(m, m))
        static, varying, residual = corr.low_rank_additive_split(qs, qr, v)
        total = (qs + qr) @ v @ (qs + qr).T
        assert np.allclose(static + varying, total, atol=1e-10)
        worst = max(worst, residual)
    assert worst < 1e-10


def test_additive_split_zero_residual_part():
    rng = np.random.default_rng(24)
    qs = rng.normal(size=(5, 3))
    v = rng.uniform(size=(3, 3))
    static, varying, residual = corr.low_rank_additive_split(qs, np.zeros((5, 3)), v)
    assert np.allclose(varying, 0.0)
    assert np.allclose(static, qs @ v @ qs.T)
    assert residual < 1e-12


def test_degree_error_curve_exponential():
    curve = corr.polynomial_degree_error_curve(math.exp, range(5))
    errs = [e for _, e, _ in curve]
    # strictly better with every added degree, and the Maclaurin remainder
    # bound e/(K+1)! dominates each least-squares error
    for k in range(1, len(errs)):
        assert errs[k] < errs[k - 1]
    for k, err, _ in curve:
        assert err <= math.e / math.factorial(k + 1) + 1e-12
    assert errs[4] < 1e-2


def test_degree_error_curve_reports_conditioning():
    curve = corr.polynomial_degree_error_curve(math.sin, [2, 20])
    (k_lo, err_lo, cond_lo), (k_hi, err_hi, cond_hi) = curve
    assert cond_hi > cond_lo            # high degree: fragile
    assert cond_hi > 1e6
    assert err_hi <= err_lo             # but more degrees still never hurt
    assert math.isfinite(err_hi)


def test_degree_error_curve_non_increasing_other_targets():
    for target in (math.sin, lambda t: 1.0 / (1.0 + t * t)):
        curve = corr.polynomial_degree_error_curve(target, range(7))
        errs = [e for _, e, _ in curve]
        for k in range(1, len(errs)):
            assert errs[k] <= errs[k - 1] + 1e-12


def test_default_rank_formula():
    assert corr.default_rank(8) == 2
    assert corr.default_rank(1) == 2
    assert corr.default_rank(17) == 5
    assert corr.default_rank(400) == 16
