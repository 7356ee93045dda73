"""Engine-level checks: every primitive against central finite differences,
plus the bookkeeping contracts (determinism, error states, gate tracing)."""

import math

import numpy as np
import pytest

from chancorr import autodiff as ad


def numeric_grad(f, x: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Independent central-difference oracle over a plain array argument."""
    g = np.zeros_like(x)
    flat_x = x.reshape(-1)
    flat_g = g.reshape(-1)
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + step
        hi = f(x)
        flat_x[i] = orig - step
        lo = f(x)
        flat_x[i] = orig
        flat_g[i] = (hi - lo) / (2 * step)
    return g


def check_op(build, shapes, seed, positive=False, tol=1e-6):
    """FD-check d(sum of op output)/d(each input) for one random instance."""
    rng = np.random.default_rng(seed)
    arrays = []
    for s in shapes:
        a = rng.normal(size=s)
        if positive:
            a = np.abs(a) + 0.5
        arrays.append(a)
    params = [ad.parameter(a.copy()) for a in arrays]
    out = build(*params)
    loss = ad.tensor_sum(out)
    loss.backward()

    for i, (a, p) in enumerate(zip(arrays, params)):
        def scalar(arr, idx=i):
            args = [arrays[j] if j != idx else arr for j in range(len(arrays))]
            tensors = [ad.constant(v) for v in args]
            return ad.tensor_sum(build(*tensors)).item()

        fd = numeric_grad(scalar, a.copy())
        an = p.grad if p.grad is not None else np.zeros_like(a)
        assert np.allclose(an, fd, rtol=tol, atol=tol), (
            f"input {i}: analytic {an} vs numeric {fd}"
        )


N_INSTANCES = 100


@pytest.mark.parametrize("seed", range(N_INSTANCES))
def test_primitive_gradients_match_fd(seed):
    """Invariant: each primitive's analytic gradient matches central FD."""
    rng = np.random.default_rng(1000 + seed)
    n = int(rng.integers(2, 5))
    m = int(rng.integers(2, 5))
    k = int(rng.integers(2, 4))
    cases = [
        (lambda a, b: ad.add(a, b), [(n, m), (n, m)], False),
        (lambda a, b: ad.subtract(a, b), [(n, m), (m,)], False),
        (lambda a, b: ad.multiply(a, b), [(n, m), (n, m)], False),
        (lambda a, b: ad.multiply(a, b), [(n, 1, m), (k, m)], False),
        (lambda a, b: ad.divide(a, b), [(n, m), (n, m)], True),
        (lambda a, b: ad.matmul(a, b), [(n, k), (k, m)], False),
        (lambda a, b: ad.matmul(a, b), [(2, n, k), (k, m)], False),
        (lambda a, b: ad.matmul(a, b), [(2, n, k), (2, k, m)], False),
        (lambda a: ad.scale(a, -1.7), [(n, m)], False),
        (lambda a: ad.power(a, 3.0), [(n, m)], False),
        (lambda a: ad.power(a, 0.5), [(n, m)], True),
        (lambda a: ad.exp(a), [(n, m)], False),
        (lambda a: ad.log(a), [(n, m)], True),
        (lambda a: ad.tanh(a), [(n, m)], False),
        (lambda a: ad.sigmoid(a), [(n, m)], False),
        (lambda a: ad.softplus(a), [(n, m)], False),
        (lambda a: ad.softmax(a, axis=-1), [(n, m)], False),
        (lambda a: ad.softmax(a, axis=0), [(n, m)], False),
        (lambda a: ad.layer_norm(a), [(n, m)], False),
        (lambda a: ad.tensor_sum(a, axis=0), [(n, m)], False),
        (lambda a: ad.mean(a, axis=1), [(n, m, k)], False),
        (lambda a: ad.mean(a), [(n, m)], False),
        (lambda a: ad.expand(a, (k, n, m)), [(n, m)], False),
        (lambda a: ad.reshape(a, (m, n)), [(n, m)], False),
        (lambda a: ad.transpose(a, (1, 0)), [(n, m)], False),
        (lambda a: ad.take_slice(a, (slice(0, n - 1), slice(1, m))), [(n, m)], False),
        (lambda a: ad.cosine_similarity_matrix(a), [(n, m)], False),
        (lambda a, b: ad.mse_loss(a, b), [(n, m), (n, m)], False),
    ]
    build, shapes, positive = cases[seed % len(cases)]
    check_op(build, shapes, seed=seed, positive=positive)


def test_relu_subgradient_convention():
    x = ad.parameter(np.array([-2.0, -0.5, 0.0, 0.5, 2.0]))
    y = ad.tensor_sum(ad.relu(x))
    y.backward()
    # gradient 1 on kept entries (x > 0), 0 on dropped entries and at 0 itself
    assert np.array_equal(x.grad, np.array([0.0, 0.0, 0.0, 1.0, 1.0]))


def test_sigmoid_known_values():
    x = ad.parameter(np.array(0.0))
    y = ad.sigmoid(x)
    assert y.item() == pytest.approx(0.5)
    y.backward()
    assert x.grad == pytest.approx(0.25)  # sigma'(0) = 1/4
    assert ad.sigmoid(ad.constant(2.0)).item() == pytest.approx(1 / (1 + math.exp(-2)), abs=1e-15)


def test_softmax_rows_sum_to_one_and_shift_invariance():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 6)) * 50  # large values: max-subtraction must save us
    s1 = ad.softmax(ad.constant(x), axis=-1)
    s2 = ad.softmax(ad.constant(x + 123.456), axis=-1)
    assert np.allclose(s1.data.sum(axis=-1), 1.0)
    assert np.allclose(s1.data, s2.data, atol=1e-12)


def test_layer_norm_moments():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(3, 5, 17)) * 4 + 7
    out = ad.layer_norm(ad.constant(x)).data
    assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-12)
    assert np.allclose(out.var(axis=-1), 1.0, atol=1e-4)  # eps-limited


def test_cosine_self_similarity_is_one():
    rng = np.random.default_rng(5)
    v = rng.normal(size=(1, 8))
    sim = ad.cosine_similarity_matrix(ad.constant(v)).data
    assert sim[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_cosine_zero_row_yields_zero():
    x = np.zeros((2, 4))
    x[1] = [1.0, 2.0, 3.0, 4.0]
    sim = ad.cosine_similarity_matrix(ad.constant(x)).data
    assert sim[0, 1] == pytest.approx(0.0, abs=1e-9)
    assert sim[1, 1] == pytest.approx(1.0, abs=1e-12)


def test_chain_rule_matches_hand_derivative():
    # f(x) = sigmoid(3x)^2 at x=0.4; f' = 2*s*(s*(1-s))*3
    x = ad.parameter(np.array(0.4))
    s = ad.sigmoid(ad.scale(x, 3.0))
    loss = ad.tensor_sum(ad.multiply(s, s))
    loss.backward()
    sv = 1 / (1 + math.exp(-1.2))
    assert x.grad == pytest.approx(2 * sv * sv * (1 - sv) * 3, rel=1e-12)


def test_shared_parameter_accumulates():
    x = ad.parameter(np.array([1.5]))
    y = ad.add(ad.multiply(x, x), ad.scale(x, 2.0))  # x^2 + 2x -> dy/dx = 2x + 2
    ad.tensor_sum(y).backward()
    assert x.grad[0] == pytest.approx(5.0)


def test_non_participating_leaf_has_no_grad():
    x = ad.parameter(np.ones(3))
    unused = ad.parameter(np.ones(3))
    ad.tensor_sum(ad.multiply(x, x)).backward()
    assert unused.grad is None  # zero by convention; never touched


def test_backward_errors():
    x = ad.parameter(np.ones((2, 2)))
    y = ad.multiply(x, x)
    with pytest.raises(ad.GraphError):
        y.backward()  # non-scalar
    loss = ad.tensor_sum(y)
    loss.backward()
    with pytest.raises(ad.GraphError):
        loss.backward()  # graph consumed
    with pytest.raises(ad.GraphError):
        ad.constant(1.0).backward()  # detached


def test_shape_mismatch_raises():
    with pytest.raises(ad.ShapeMismatchError):
        ad.add(ad.constant(np.ones((2, 3))), ad.constant(np.ones((4, 5))))
    with pytest.raises(ad.ShapeMismatchError):
        ad.matmul(ad.constant(np.ones((2, 3))), ad.constant(np.ones((2, 3))))
    with pytest.raises(ad.ShapeMismatchError):
        ad.matmul(ad.constant(np.ones((2, 3))), ad.constant(np.ones(3)))


def test_non_finite_detection():
    big = ad.constant(np.array([1e308]))
    with pytest.raises(ad.NonFiniteError):
        ad.multiply(big, big)
    with pytest.raises(ad.NonFiniteError):
        ad.log(ad.constant(np.array([0.0])))
    with pytest.raises(ad.NonFiniteError):
        ad.log(ad.constant(np.array([-1.0])))


def test_no_grad_ops_propagate_non_finite_values():
    # under no_grad the ops do only the arithmetic; the caller checks its
    # final output once
    big = ad.constant(np.array([1e308]))
    with ad.no_grad():
        assert np.isinf(ad.multiply(big, big).data).all()
        out = ad.relu(ad.constant(np.array([np.nan, -1.0, 2.0])))
    assert np.isnan(out.data[0])
    assert np.array_equal(out.data[1:], [0.0, 2.0])
    with pytest.raises(ad.NonFiniteError):
        ad.check_finite(out.data, "relu")
    with pytest.raises(ad.NonFiniteError):
        ad.relu(ad.constant(np.array([np.nan, 1.0])))


def test_no_grad_blocks_recording():
    x = ad.parameter(np.ones(4))
    with ad.no_grad():
        y = ad.tensor_sum(ad.multiply(x, x))
    with pytest.raises(ad.GraphError):
        y.backward()


def test_forward_and_gradients_bit_deterministic():
    def run():
        rng = np.random.default_rng(42)
        x = ad.parameter(rng.normal(size=(5, 7)))
        w = ad.parameter(rng.normal(size=(7, 3)))
        loss = ad.mse_loss(ad.sigmoid(ad.matmul(x, w)), ad.constant(np.ones((5, 3)) * 0.3))
        loss.backward()
        return loss.data.tobytes(), x.grad.tobytes(), w.grad.tobytes()

    assert run() == run()


def test_grad_check_quadratic():
    # classic smoke case: f(x) = x^2 at x = 3 -> f'(x) = 6
    x = ad.parameter(np.array(3.0))
    report = ad.grad_check(lambda: ad.tensor_sum(ad.multiply(x, x)), [("x", x)], tol=1e-6)
    assert report.passed
    x2 = ad.parameter(np.array(3.0))
    loss = ad.multiply(x2, x2)
    loss.backward()
    assert x2.grad == pytest.approx(6.0, abs=1e-10)


def test_grad_check_excludes_gate_flips():
    # one coordinate sits exactly on the relu threshold: FD would straddle
    # the kink, so the checker must exclude it and still pass.
    x = ad.parameter(np.array([1.0, 0.0, -1.0, 0.5]))
    report = ad.grad_check(lambda: ad.tensor_sum(ad.relu(x)), [("x", x)], step=1e-5)
    assert report.passed
    assert report.results[0].excluded == 1
    assert report.results[0].checked == 3


def test_grad_check_flags_nondeterminism():
    state = {"calls": 0}

    def noisy():
        state["calls"] += 1
        return ad.constant(float(state["calls"]))

    with pytest.raises(ad.NonDeterministicError):
        ad.grad_check(noisy, [])


@pytest.mark.filterwarnings("error")
def test_grad_check_rejects_non_finite_evaluations():
    x = ad.parameter(np.array([1.0, 2.0]))
    nan = ad.constant(np.array([np.nan, 1.0]))
    with pytest.raises(ad.NonFiniteError):
        ad.grad_check(lambda: ad.tensor_sum(ad.multiply(x, nan)), [("x", x)])
    # only the x - step evaluation is NaN (sqrt of a negative number): it
    # must raise, not yield a NaN error that compares as a pass
    z = ad.parameter(np.array([0.0]))
    with pytest.raises(ad.NonFiniteError):
        ad.grad_check(lambda: ad.tensor_sum(ad.sqrt(z)), [("z", z)])
    assert z.data[0] == 0.0


def test_grad_check_subsampling_cap():
    x = ad.parameter(np.arange(100, dtype=float))
    report = ad.grad_check(
        lambda: ad.tensor_sum(ad.multiply(x, x)), [("x", x)], max_entries_per_param=10
    )
    assert report.results[0].checked == 10
    assert report.passed
