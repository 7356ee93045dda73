"""Engine-level checks: every generic op against central finite differences,
plus the bookkeeping contracts (determinism, error states, gate tracing)."""

import gc
import math
import threading
import weakref

import numpy as np
import pytest

from chancorr import autodiff as ad
from chancorr.adapter import init_adapter, named_parameters, training_losses
from chancorr.backbone import BackboneConfig, backbone_forward, pretrain_backbone
from chancorr.config import TrainConfig
from chancorr.correlation import pearson_matrix


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
    """Invariant: each generic op's analytic gradient matches central FD."""
    rng = np.random.default_rng(1000 + seed)
    n = int(rng.integers(2, 5))
    m = int(rng.integers(2, 5))
    k = int(rng.integers(2, 4))
    cases = [
        (lambda a, b: ad.add(a, b), [(n, m), (n, m)], False),
        (lambda a, b: ad.add(a, b), [(n, m), (m,)], False),
        (lambda a, b: ad.add(a, b), [(n, 1, m), (k, m)], False),
        (lambda a: ad.scale(a, -1.7), [(n, m)], False),
        (lambda a: ad.softplus(a), [(n, m)], False),
        (lambda a: ad.tensor_sum(a, axis=0), [(n, m)], False),
        (lambda a: ad.tensor_sum(a, axis=1), [(n, m, k)], False),
        (lambda a, b: ad.mse_loss(a, b), [(n, m), (n, m)], False),
        (lambda a, b: ad.mse_loss(a, b), [(2, n, m), (2, n, m)], False),
    ]
    build, shapes, positive = cases[seed % len(cases)]
    check_op(build, shapes, seed=seed, positive=positive)


def cosine(x):
    unit = ad.unit_rows(x)[0]
    return unit @ unit.T


def test_cosine_self_similarity_is_one():
    rng = np.random.default_rng(5)
    v = rng.normal(size=(1, 8))
    sim = cosine(v)
    assert sim[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_cosine_zero_row_yields_zero():
    x = np.zeros((2, 4))
    x[1] = [1.0, 2.0, 3.0, 4.0]
    sim = cosine(x)
    assert sim[0, 1] == pytest.approx(0.0, abs=1e-9)
    assert sim[1, 1] == pytest.approx(1.0, abs=1e-12)


def test_chain_rule_matches_hand_derivative():
    # f(x) = softplus(3 softplus(x)) at x=0.4; f' = sigma(3 sp(x)) * 3 * sigma(x)
    x = ad.parameter(np.array(0.4))
    loss = ad.softplus(ad.scale(ad.softplus(x), 3.0))
    loss.backward()
    sp = math.log1p(math.exp(0.4))
    sv = 1 / (1 + math.exp(-0.4))
    assert x.grad == pytest.approx(1 / (1 + math.exp(-3 * sp)) * 3 * sv, rel=1e-12)


def test_shared_parameter_accumulates():
    x = ad.parameter(np.array([1.5]))
    y = ad.add(ad.mse_loss(x, ad.constant([0.0])), ad.tensor_sum(ad.scale(x, 2.0)))
    y.backward()                        # x^2 + 2x -> dy/dx = 2x + 2
    assert x.grad[0] == pytest.approx(5.0)


def test_non_participating_leaf_has_no_grad():
    x = ad.parameter(np.ones(3))
    unused = ad.parameter(np.ones(3))
    ad.tensor_sum(ad.add(x, x)).backward()
    assert unused.grad is None  # zero by convention; never touched


def test_op_output_is_freed_when_no_closure_reads_it():
    x = ad.parameter(np.ones(3))
    y = ad.add(x, x)                    # add's closures keep shapes only
    loss = ad.tensor_sum(y)
    held = weakref.ref(y.data)
    del y
    assert held() is None
    loss.backward()
    assert x.grad.tolist() == [2.0, 2.0, 2.0]


def test_parameters_and_adapter_state_free_by_refcount_alone():
    # no reference cycle between a leaf and the tape: a parameter that a
    # recorded graph ran through, and an adapter state after a training
    # step, go as soon as they are dropped, with the cyclic collector off
    rng = np.random.default_rng(0)
    cfg = BackboneConfig(lookback=24, horizon=6, patch_len=8, repr_dim=8)
    x, y = rng.normal(size=(6, 4, 24)), rng.normal(size=(6, 4, 6))
    backbone = pretrain_backbone(x, y, cfg)
    out = backbone_forward(backbone, x)
    gc.collect()
    gc.disable()
    try:
        p = ad.parameter(np.ones(3))
        loss = ad.tensor_sum(ad.add(p, p))
        loss.backward()
        state = init_adapter(backbone, 4, TrainConfig(embed_dim=4, rank=2))
        losses = training_losses(state, out.repr, out.yhat_norm,
                                 (y - out.mean) / out.std, pearson_matrix(x))
        ad.add(losses["prediction"], losses["aux"]).backward()
        held = [weakref.ref(p), weakref.ref(state)]
        held += [weakref.ref(t) for _, t in named_parameters(state)]
        del p, loss, state, losses
        assert [ref() for ref in held] == [None] * len(held)
    finally:
        gc.enable()


def test_backward_errors():
    x = ad.parameter(np.ones((2, 2)))
    y = ad.add(x, x)
    with pytest.raises(ad.GraphError):
        y.backward()  # non-scalar
    loss = ad.tensor_sum(y)
    loss.backward()
    with pytest.raises(ad.GraphError):
        loss.backward()  # graph consumed
    with pytest.raises(ad.GraphError):
        ad.constant(1.0).backward()  # detached


def test_backward_through_a_consumed_graph_raises():
    # b shares a's graph: a second walk would run a's closures again and
    # double x's gradient
    x = ad.parameter([3.0])
    a = ad.mse_loss(x, ad.constant([0.0]))
    b = ad.scale(a, 1.0)
    a.backward()
    with pytest.raises(ad.GraphError):
        b.backward()
    assert x.grad.tolist() == [6.0]


def test_shape_mismatch_raises():
    with pytest.raises(ad.ShapeMismatchError):
        ad.add(ad.constant(np.ones((2, 3))), ad.constant(np.ones((4, 5))))


def test_mse_loss_rejects_shapes_that_only_broadcast():
    # broadcasting would average over a repeated target: a plausible but
    # wrong loss
    for pred, target in (((2, 3, 4), (3, 4)), ((3, 4), (2, 3, 4)), ((3, 1), (3, 4))):
        with pytest.raises(ad.ShapeMismatchError):
            ad.mse_loss(np.zeros(pred), np.ones(target))


def test_window_blocks_follow_the_byte_budget():
    # 1.5 MB: 4 windows of a serve-wide (6, 256, 32) representation, 128
    # of a few-shot (6, 8, 32) one, one train-wide (256, 256) window of the
    # HPCL op's three N x N arrays, and a whole N=8 training batch
    assert ad.BLOCK_BYTES == 3 << 19
    serve = ad.window_blocks((64, 6, 256, 32), 3)
    assert serve == [slice(lo, lo + 4) for lo in range(0, 64, 4)]
    fewshot = ad.window_blocks((300, 6, 8, 32), 3)
    assert fewshot == [slice(0, 128), slice(128, 256), slice(256, 384)]
    assert ad.window_blocks((48, 256, 256), 2, arrays=3) == [
        slice(b, b + 1) for b in range(48)]
    assert ad.window_blocks((32, 8, 8), 2, arrays=3) == [slice(0, 1024)]
    # an unbatched window is one block, and an empty batch one empty block
    assert ad.window_blocks((6, 256, 32), 3) == [...]
    assert ad.window_blocks((256, 256), 2, arrays=3) == [...]
    assert ad.window_blocks((0, 6, 8, 32), 3) == [slice(0, 128)]


def test_non_finite_detection():
    big = ad.constant(np.array([1e308]))
    with pytest.raises(ad.NonFiniteError):
        ad.add(big, big)


def test_no_grad_ops_propagate_non_finite_values():
    # under no_grad the ops do only the arithmetic; the caller checks its
    # final output once
    big = ad.constant(np.array([1e308]))
    with ad.no_grad():
        assert np.isinf(ad.add(big, big).data).all()
        out = ad.add(ad.constant(np.array([np.nan, 0.0])), ad.constant(0.5))
    assert np.isnan(out.data[0])
    assert np.array_equal(out.data[1:], [0.5])
    with pytest.raises(ad.NonFiniteError):
        ad.check_finite(out.data, "add")
    with pytest.raises(ad.NonFiniteError):
        ad.add(ad.constant(np.array([np.nan, 1.0])), ad.constant(0.5))


def test_no_grad_blocks_recording():
    x = ad.parameter(np.ones(4))
    with ad.no_grad():
        y = ad.tensor_sum(ad.add(x, x))
    with pytest.raises(ad.GraphError):
        y.backward()


def test_recording_mode_is_per_thread():
    # thread A sits inside no_grad and record_gates while thread B runs a
    # training step: B's graph is recorded, and its gates stay out of A's sink
    rng = np.random.default_rng(0)
    cfg = BackboneConfig(lookback=24, horizon=6, patch_len=8, repr_dim=8)
    x, y = rng.normal(size=(6, 4, 24)), rng.normal(size=(6, 4, 6))
    backbone = pretrain_backbone(x, y, cfg)
    out = backbone_forward(backbone, x)
    # soft gates make eps trainable, so every parameter takes a gradient
    state = init_adapter(backbone, 4, TrainConfig(embed_dim=4, rank=2, soft_gate=True))
    a_inside, b_done = threading.Event(), threading.Event()
    a_sink, no_grad_params, errors = [], [], []

    def thread_a():
        with ad.no_grad(), ad.record_gates(a_sink):
            a_inside.set()
            b_done.wait(timeout=60)

    def thread_b():
        try:
            assert a_inside.wait(timeout=60)
            losses = training_losses(state, out.repr, out.yhat_norm,
                                     (y - out.mean) / out.std, pearson_matrix(x))
            ad.add(losses["prediction"], losses["aux"]).backward()
            no_grad_params.extend(name for name, t in named_parameters(state)
                                  if t.grad is None)
        except Exception as exc:
            errors.append(exc)
        finally:
            b_done.set()

    threads = [threading.Thread(target=thread_a), threading.Thread(target=thread_b)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and no_grad_params == [] and a_sink == []


def test_forward_and_gradients_bit_deterministic():
    def run():
        rng = np.random.default_rng(42)
        x = ad.parameter(rng.normal(size=(5, 7)))
        w = ad.parameter(rng.normal(size=(7,)))
        y = ad.softplus(ad.scale(ad.add(x, w), 1.3))
        loss = ad.mse_loss(y, ad.constant(np.ones((5, 7)) * 0.3))
        loss.backward()
        return loss.data.tobytes(), x.grad.tobytes(), w.grad.tobytes()

    assert run() == run()


def test_grad_check_quadratic():
    # classic smoke case: f(x) = x^2 at x = 3 -> f'(x) = 6
    x = ad.parameter(np.array(3.0))
    report = ad.grad_check(lambda: ad.mse_loss(x, ad.constant(0.0)), [("x", x)], tol=1e-6)
    assert report.passed
    x2 = ad.parameter(np.array(3.0))
    loss = ad.mse_loss(x2, ad.constant(0.0))
    loss.backward()
    assert x2.grad == pytest.approx(6.0, abs=1e-10)


def relu(x):
    """max(x, 0) as a recorded op that reports its gate, gradient 0 at 0."""
    data = np.maximum(x.data, 0.0)
    ad.trace_gate(data)
    return ad._result(data, [(x, lambda g: g * (data > 0))], "relu")


def test_grad_check_excludes_gate_flips():
    # one coordinate sits exactly on the relu threshold: FD would straddle
    # the kink, so the checker must exclude it and still pass.
    x = ad.parameter(np.array([1.0, 0.0, -1.0, 0.5]))
    report = ad.grad_check(lambda: ad.tensor_sum(relu(x)), [("x", x)], step=1e-5)
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
        ad.grad_check(lambda: ad.tensor_sum(ad.add(x, nan)), [("x", x)])
    # only the z + step evaluation is NaN (z * z overflows, and inf - inf
    # is NaN): it must raise, not yield a NaN error that compares as a pass
    z, zero = ad.parameter(np.array([1e154])), ad.constant([0.0])

    def f():
        return ad.mse_loss(ad.mse_loss(z, zero), ad.mse_loss(z, zero))

    with pytest.raises(ad.NonFiniteError):
        ad.grad_check(f, [("z", z)], step=1e154)
    assert z.data[0] == 1e154


def test_grad_check_subsampling_cap():
    x = ad.parameter(np.arange(100, dtype=float))
    report = ad.grad_check(
        lambda: ad.mse_loss(x, ad.constant(np.zeros(100))), [("x", x)], max_entries_per_param=10
    )
    assert report.results[0].checked == 10
    assert report.passed
