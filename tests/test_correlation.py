"""Correlation estimation against independent loop oracles."""

import math

import numpy as np
import pytest

from chancorr import autodiff as ad
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


def test_polynomial_expand_forced_coefficients():
    # degree 2, q = 0.5 everywhere, coefficients (1, 2, 4):
    # Q = 1*1 + 2*0.5 + 4*0.25 = 3.0
    q = np.full((3, 2), 0.5)
    coeffs = np.tile(np.array([1.0, 2.0, 4.0]), (3, 1))
    out = corr.polynomial_expand(ad.constant(coeffs), ad.constant(q))
    assert np.allclose(out.data, 3.0)


def test_polynomial_expand_identity_coefficients():
    # degree 1 with coefficients (0, 1) reproduces q itself
    rng = np.random.default_rng(14)
    q = rng.normal(size=(4, 3))
    coeffs = np.tile(np.array([0.0, 1.0]), (4, 1))
    out = corr.polynomial_expand(ad.constant(coeffs), ad.constant(q))
    assert np.allclose(out.data, q, atol=1e-15)


def test_time_varying_shapes_and_batch_consistency():
    rng = np.random.default_rng(15)
    params = corr.init_dce_params(n_channels=5, repr_dim=6, degree=3, rank=2,
                                  embed_dim=4, rng=rng)
    reps = rng.normal(size=(3, 2, 5, 6))
    q_batch = corr.time_varying_component(ad.constant(reps), params)
    assert q_batch.shape == (3, 5, 2)
    for b in range(3):
        q_one = corr.time_varying_component(ad.constant(reps[b]), params)
        assert np.allclose(q_batch.data[b], q_one.data, atol=1e-14)


def test_time_varying_gradient_matches_fd():
    rng = np.random.default_rng(16)
    params = corr.init_dce_params(n_channels=4, repr_dim=5, degree=2, rank=3,
                                  embed_dim=3, rng=rng)
    reps = ad.constant(rng.normal(size=(2, 4, 5)))

    def loss():
        q = corr.time_varying_component(reps, params)
        return ad.tensor_sum(ad.multiply(q, q))

    report = ad.grad_check(loss, params.named_tensors(), tol=1e-4)
    assert report.passed, str(report)


def test_time_invariant_range_and_zero_case():
    rng = np.random.default_rng(17)
    params = corr.init_dce_params(4, 5, rank=3, embed_dim=4, rng=rng)
    v = corr.time_invariant_component(params).data
    assert v.shape == (3, 3)
    assert ((v > 0.0) & (v < 1.0)).all()
    # E1 E2^T == 0  ->  relu 0 -> sigmoid -> exactly 0.5 everywhere
    params.e1.data[:] = 0.0
    v0 = corr.time_invariant_component(params).data
    assert np.allclose(v0, 0.5)


# ---------------------------------------------------------------------------
# composition


def test_compose_zero_q_returns_rule_part():
    rng = np.random.default_rng(18)
    r = corr.pearson_matrix(rng.normal(size=(4, 30)))
    q = np.zeros((4, 2))
    v = rng.uniform(0.2, 0.8, size=(2, 2))
    m = corr.compose_correlation(r, ad.constant(q), ad.constant(v))
    assert np.allclose(m.data, r, atol=1e-15)


def test_compose_matches_triple_loop():
    rng = np.random.default_rng(19)
    for trial in range(25):
        n, m_rank = int(rng.integers(2, 6)), int(rng.integers(1, 4))
        r = corr.pearson_matrix(rng.normal(size=(n, 20)))
        q = rng.normal(size=(n, m_rank))
        v = rng.uniform(0.0, 1.0, size=(m_rank, m_rank))
        got = corr.compose_correlation(r, ad.constant(q), ad.constant(v))
        want = compose_triple_loop(r, q, v)
        assert np.abs(got.data - want).max() < 1e-12


def test_compose_learned_part_linear_in_v():
    rng = np.random.default_rng(20)
    q = rng.normal(size=(4, 3))
    v1 = rng.uniform(size=(3, 3))
    v2 = rng.uniform(size=(3, 3))
    zero_r = np.zeros((4, 4))
    m1 = corr.compose_correlation(zero_r, ad.constant(q), ad.constant(v1)).data
    m2 = corr.compose_correlation(zero_r, ad.constant(q), ad.constant(v2)).data
    m12 = corr.compose_correlation(
        zero_r, ad.constant(q), ad.constant(2.0 * v1 + 0.5 * v2)).data
    assert np.allclose(m12, 2.0 * m1 + 0.5 * m2, atol=1e-12)


def test_compose_no_gradient_into_rule_part():
    rng = np.random.default_rng(21)
    r_tensor = ad.parameter(corr.pearson_matrix(rng.normal(size=(3, 20))))
    q = ad.parameter(rng.normal(size=(3, 2)))
    v = ad.constant(rng.uniform(size=(2, 2)))
    m = corr.compose_correlation(r_tensor, q, v)
    ad.tensor_sum(m).backward()
    assert r_tensor.grad is None  # R enters as a constant copy
    assert q.grad is not None


def test_allocation_counter_increments():
    before = corr.correlation_matrix_allocations()
    corr.pearson_matrix(np.random.default_rng(1).normal(size=(3, 16)))
    assert corr.correlation_matrix_allocations() == before + 1


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
