"""Fusion gate behavior: convexity, limits, identity at init, gradients,
and the one-op head against the generic-op chain it replaced."""

import contextlib

import numpy as np
import pytest

from chancorr import autodiff as ad
from chancorr import fusion as fu


def make_inputs(rng, b=0, n=4, p=3, d=5, f=6):
    shape = (p, n, d) if b == 0 else (b, p, n, d)
    yshape = (n, f) if b == 0 else (b, n, f)
    return rng.normal(size=shape), rng.normal(size=shape), rng.normal(size=yshape)


def warmed_params(rng, n=4, p=3, d=5, f=6, depth=2, logit=0.0):
    params = fu.init_fusion_params(n, p, d, f, depth=depth, rng=rng,
                                   beta_logit_init=-5.0)
    params.head_w.data = rng.normal(0, 0.3, size=params.head_w.shape)
    params.head_b.data = rng.normal(0, 0.3, size=params.head_b.shape)
    params.beta_logits.data = rng.normal(logit, 1.0, size=n)
    for layer in (*params.post.pos_layers, *params.post.neg_layers):
        layer.w2.data = rng.normal(0, 0.2, size=layer.w2.shape)
        layer.v2.data = rng.normal(0, 0.2, size=layer.v2.shape)
    return params


def head_only(params, x_pos, x_neg):
    """What the head branch alone predicts (beta = 1 oracle)."""
    from chancorr.projection import flatten_per_channel, project_stack
    with ad.no_grad():
        a = project_stack(params.post.pos_layers, ad.constant(x_pos))
        b = project_stack(params.post.neg_layers, ad.constant(x_neg))
        flat = flatten_per_channel(a.data + b.data)
        return (flat @ params.head_w.data) + params.head_b.data


# Test-local copies of the generic ops the fusion head and the forecast loss
# were composed of, as the engine recorded them: the bitwise reference of
# the one-op `fuse_predict` and `ad.mse_loss`.

def _chain_subtract(a, b):
    return ad._result(a.data - b.data,
                      [(a, lambda g, s=a.shape: ad._sum_to_shape(g, s)),
                       (b, lambda g, s=b.shape: ad._sum_to_shape(-g, s))], "subtract")


def _chain_multiply(a, b):
    return ad._result(a.data * b.data, [
        (a, lambda g, o=b.data, s=a.shape: ad._sum_to_shape(np.multiply(g, o, order="C"), s)),
        (b, lambda g, o=a.data, s=b.shape: ad._sum_to_shape(np.multiply(g, o, order="C"), s))],
        "multiply")


def _chain_matmul(a, b):
    return ad._result(a.data @ b.data, [
        (a, lambda g, o=b.data, s=a.shape: ad._sum_to_shape(g @ o.swapaxes(-1, -2), s)),
        (b, lambda g, o=a.data, s=b.shape: ad._sum_to_shape(o.swapaxes(-1, -2) @ g, s))],
        "matmul")


def _chain_sigmoid(x):
    out = ad._logistic(x.data)
    return ad._result(out, [(x, lambda g, d=out: g * d * (1.0 - d))], "sigmoid")


def _chain_reshape(x, shape):
    return ad._result(x.data.reshape(shape), [(x, lambda g, s=x.shape: g.reshape(s))],
                      "reshape")


def _chain_transpose(x, axes):
    inverse = np.argsort(axes)
    return ad._result(np.transpose(x.data, axes),
                      [(x, lambda g: np.transpose(g, inverse))], "transpose")


def _chain_mean(x):
    count = x.size
    return ad._result(np.asarray(x.data.mean()), [
        (x, lambda g, s=x.shape: np.broadcast_to(g / count, s).copy())], "mean")


def chain_mse(pred, target):
    diff = _chain_subtract(pred, target)
    return _chain_mean(_chain_multiply(diff, diff))


def chain_fuse(params, x_pos, x_neg, yhat):
    """The generic-op composite that `fuse_predict` replaces."""
    from chancorr.projection import project_stack
    x_pos = project_stack(params.post.pos_layers, x_pos)
    x_neg = project_stack(params.post.neg_layers, x_neg)
    s = ad.add(x_pos, x_neg)
    nd = s.ndim
    swapped = _chain_transpose(s, tuple(range(nd - 3)) + (nd - 2, nd - 3, nd - 1))
    flat = _chain_reshape(swapped, swapped.shape[:-2] + (-1,))
    head = ad.add(_chain_matmul(flat, params.head_w), params.head_b)
    beta = _chain_reshape(_chain_sigmoid(params.beta_logits), (-1, 1))
    return ad.add(_chain_multiply(beta, head),
                  _chain_multiply(_chain_subtract(ad.constant(1.0), beta), yhat))


def test_closed_gate_returns_backbone_prediction():
    rng = np.random.default_rng(70)
    params = warmed_params(rng)
    params.beta_logits.data[:] = -30.0
    x_pos, x_neg, yhat = make_inputs(rng)
    ystar = fu.fuse_predict(params, ad.constant(x_pos), ad.constant(x_neg),
                            ad.constant(yhat))
    assert np.abs(ystar.data - yhat).max() < 1e-9


def test_open_gate_returns_head_output():
    rng = np.random.default_rng(71)
    params = warmed_params(rng)
    params.beta_logits.data[:] = 30.0
    x_pos, x_neg, yhat = make_inputs(rng)
    ystar = fu.fuse_predict(params, ad.constant(x_pos), ad.constant(x_neg),
                            ad.constant(yhat))
    assert np.abs(ystar.data - head_only(params, x_pos, x_neg)).max() < 1e-9


def test_half_open_gate_is_midpoint():
    rng = np.random.default_rng(72)
    params = warmed_params(rng, n=1)
    params.beta_logits.data[:] = 0.0  # sigmoid(0) = 0.5
    x_pos, x_neg, yhat = make_inputs(rng, n=1)
    ystar = fu.fuse_predict(params, ad.constant(x_pos), ad.constant(x_neg),
                            ad.constant(yhat))
    mid = 0.5 * (head_only(params, x_pos, x_neg) + yhat)
    assert np.abs(ystar.data - mid).max() < 1e-12


def test_fused_output_between_head_and_backbone():
    rng = np.random.default_rng(73)
    for _ in range(20):
        params = warmed_params(rng, logit=float(rng.normal(scale=3)))
        x_pos, x_neg, yhat = make_inputs(rng)
        ystar = fu.fuse_predict(params, ad.constant(x_pos), ad.constant(x_neg),
                                ad.constant(yhat)).data
        h = head_only(params, x_pos, x_neg)
        lo = np.minimum(h, yhat) - 1e-12
        hi = np.maximum(h, yhat) + 1e-12
        assert ((lo <= ystar) & (ystar <= hi)).all()


def test_fresh_params_reproduce_backbone_exactly():
    # zero head cancels the gate leakage term: beta * 0 == 0
    rng = np.random.default_rng(74)
    params = fu.init_fusion_params(4, 3, 5, 6, depth=3, rng=rng,
                                   beta_logit_init=-5.0)
    x_pos, x_neg, yhat = make_inputs(rng)
    ystar = fu.fuse_predict(params, ad.constant(x_pos), ad.constant(x_neg),
                            ad.constant(yhat))
    leak = 1.0 / (1.0 + np.exp(5.0))
    assert np.abs(ystar.data - yhat).max() <= leak * np.abs(yhat).max() + 1e-15
    assert np.abs(ystar.data - yhat).max() < 0.01 * np.abs(yhat).max()


def test_batched_matches_per_window():
    rng = np.random.default_rng(75)
    params = warmed_params(rng)
    x_pos, x_neg, yhat = make_inputs(rng, b=3)
    batched = fu.fuse_predict(params, ad.constant(x_pos), ad.constant(x_neg),
                              ad.constant(yhat)).data
    for i in range(3):
        one = fu.fuse_predict(params, ad.constant(x_pos[i]),
                              ad.constant(x_neg[i]), ad.constant(yhat[i])).data
        assert np.array_equal(batched[i], one)


def test_shape_mismatches_rejected():
    rng = np.random.default_rng(76)
    params = warmed_params(rng, n=4)
    x_pos, x_neg, yhat = make_inputs(rng, n=4)
    with pytest.raises(ad.ShapeMismatchError):
        fu.fuse_predict(params, ad.constant(x_pos[:, :3]), ad.constant(x_neg),
                        ad.constant(yhat))
    with pytest.raises(ad.ShapeMismatchError):
        fu.fuse_predict(params, ad.constant(x_pos), ad.constant(x_neg),
                        ad.constant(yhat[:3]))
    with pytest.raises(ad.ShapeMismatchError):
        bad = make_inputs(rng, n=5)
        fu.fuse_predict(params, ad.constant(bad[0]), ad.constant(bad[1]),
                        ad.constant(bad[2]))
    # views whose P*d the head was not built for, with no post layer to
    # reject them first
    params = warmed_params(rng, n=4, depth=0)
    bad = make_inputs(rng, n=4, p=2)
    with pytest.raises(ad.ShapeMismatchError):
        fu.fuse_predict(params, ad.constant(bad[0]), ad.constant(bad[1]),
                        ad.constant(bad[2]))


def test_gradients_match_finite_differences():
    # through the head op and the loss op, to the views too; at depth 0 the
    # views enter the head directly
    for depth in (0, 1):
        rng = np.random.default_rng(77)
        params = warmed_params(rng, n=3, p=2, d=4, f=3, depth=depth)
        x_pos, x_neg, yhat = (ad.parameter(a) for a in make_inputs(rng, n=3, p=2, d=4, f=3))
        target = rng.normal(size=yhat.shape)

        def loss():
            ystar = fu.fuse_predict(params, x_pos, x_neg, ad.constant(yhat.data))
            return ad.mse_loss(ystar, ad.constant(target))

        named = [("x_pos", x_pos), ("x_neg", x_neg)] + params.named_tensors()
        report = ad.grad_check(loss, named, tol=1e-4, max_entries_per_param=15)
        assert report.passed, str(report)
        assert all(r.checked for r in report.results), str(report)


def test_gate_receives_gradient_even_with_zero_head():
    rng = np.random.default_rng(78)
    params = fu.init_fusion_params(3, 2, 4, 3, depth=1, rng=rng,
                                   beta_logit_init=-5.0)
    x_pos, x_neg, yhat = make_inputs(rng, n=3, p=2, d=4, f=3)
    target = yhat + rng.normal(size=yhat.shape)
    ystar = fu.fuse_predict(params, ad.constant(x_pos), ad.constant(x_neg),
                            ad.constant(yhat))
    ad.mse_loss(ystar, ad.constant(target)).backward()
    assert params.beta_logits.grad is not None
    assert np.abs(params.beta_logits.grad).max() > 0
    assert params.head_w.grad is not None


def _fused_and_chain(depth, batch, grad, n=4, d=5, strided=False):
    """``run(fuse, mse)``: ystar's bytes and, in grad mode, the loss's and
    every gradient's after backward, for one problem with the views as
    parameters; ``strided`` views are transposed, not C-contiguous."""
    rng = np.random.default_rng(79 + depth)
    params = warmed_params(rng, n=n, d=d, depth=depth)
    arrays = make_inputs(rng, b=batch, n=n, d=d)
    target = rng.normal(size=arrays[2].shape)
    if strided:
        views = [np.ascontiguousarray(a.swapaxes(-3, -2)).swapaxes(-3, -2)
                 for a in arrays[:2]]
        assert not any(v.flags.c_contiguous for v in views)
        arrays = (*views, arrays[2])

    def run(fuse, mse):
        x_pos, x_neg = ad.parameter(arrays[0]), ad.parameter(arrays[1])
        leaves = [x_pos, x_neg] + [t for _, t in params.named_tensors()]
        for t in leaves:
            t.grad = None
        with contextlib.ExitStack() as stack:
            if not grad:
                stack.enter_context(ad.no_grad())
            ystar = fuse(params, x_pos, x_neg, ad.constant(arrays[2]))
        out = [ystar.data.tobytes()]
        if grad:
            loss = mse(ystar, ad.constant(target))
            loss.backward()
            out += [loss.data.tobytes()] + [t.grad.tobytes() for t in leaves]
        return out

    return run


@pytest.mark.parametrize("depth", [0, 1, 2])
@pytest.mark.parametrize("batch", [0, 3])
@pytest.mark.parametrize("grad", [True, False])
def test_fused_head_is_bitwise_the_generic_chain(depth, batch, grad):
    # ystar, the loss and the gradients to both views, every post layer,
    # head_w, head_b and beta_logits
    run = _fused_and_chain(depth, batch, grad)
    want = run(chain_fuse, chain_mse)
    assert len(want) == (7 + 20 * depth if grad else 1)
    assert run(fu.fuse_predict, ad.mse_loss) == want
    assert run(fu.fuse_predict, chain_mse) == want


@pytest.mark.parametrize("shape", [(), (4,), (3, 5), (2, 3, 4)])
def test_mse_loss_is_bitwise_the_generic_chain(shape):
    rng = np.random.default_rng(80)
    arrays = rng.normal(size=shape), rng.normal(size=shape)

    def run(mse):
        pred, target = ad.parameter(arrays[0]), ad.parameter(arrays[1])
        loss = mse(pred, target)
        loss.backward()
        with ad.no_grad():
            value = mse(ad.constant(arrays[0]), ad.constant(arrays[1]))
        return [t.tobytes() for t in (loss.data, value.data, pred.grad, target.grad)]

    assert run(ad.mse_loss) == run(chain_mse)


def row_fuse_predict(params, x_pos, x_neg, yhat):
    """The fusion op as it was before the views were summed straight into
    their per-channel flatten: sum, then flatten as a copy.  The bitwise
    reference of `fu.fuse_predict`."""
    from chancorr.projection import flatten_per_channel, project_stack
    x_pos, x_neg, yhat = ad.as_tensor(x_pos), ad.as_tensor(x_neg), ad.as_tensor(yhat)
    n = x_pos.shape[-2]
    x_pos = project_stack(params.post.pos_layers, x_pos)
    x_neg = project_stack(params.post.neg_layers, x_neg)
    head_w, head_b, beta_logits = params.head_w, params.head_b, params.beta_logits
    wd, yd, d, keep = head_w.data, yhat.data, x_pos.shape[-1], ad._mode.grad_enabled
    with np.errstate(over="ignore", invalid="ignore"):
        flat = flatten_per_channel(x_pos.data + x_neg.data)
        head = flat @ wd
        head += head_b.data
        sig = ad._logistic(beta_logits.data)
        beta = sig.reshape(n, 1)
        out = np.multiply(beta, head, out=None if keep else head)
        out += (1.0 - beta) * yd

    grads = {}
    sum_to = ad._sum_to_shape

    def backward(name, g):
        if grads:
            return grads.pop(name)
        g_beta = sum_to(np.multiply(g, head, order="C"), beta.shape)
        g_beta -= sum_to(np.multiply(g, yd, order="C"), beta.shape)
        g_head = np.multiply(g, beta, order="C")
        g_flat = g_head @ wd.swapaxes(-1, -2)
        g_views = g_flat.reshape(g_flat.shape[:-1] + (-1, d)).swapaxes(-3, -2)
        grads.update(x_pos=g_views, x_neg=g_views,
                     head_w=sum_to(flat.swapaxes(-1, -2) @ g_head, wd.shape),
                     head_b=sum_to(g_head, head_b.shape),
                     beta_logits=g_beta.reshape(n) * sig * (1.0 - sig))
        return grads.pop(name)

    edges = [(t, lambda g, name=name: backward(name, g)) for name, t in
             (("x_pos", x_pos), ("x_neg", x_neg), ("head_w", head_w),
              ("head_b", head_b), ("beta_logits", beta_logits))]
    return ad._result(out, edges, "fuse_predict")


@pytest.mark.parametrize("case", [dict(n=1), dict(d=1), dict(batch=0), dict(strided=True),
                                  dict(depth=0, strided=True)],
                         ids=["n1", "d1", "unbatched", "non-contiguous", "depth0-non-contiguous"])
@pytest.mark.parametrize("grad", [True, False])
def test_fused_head_is_bitwise_the_sum_then_flatten_kernel(case, grad):
    # summing the views into the flatten's buffer gives each element the
    # same one add: ystar, the loss and every gradient match
    case = {"depth": 1, "batch": 3, **case}
    run = _fused_and_chain(case.pop("depth"), case.pop("batch"), grad, **case)
    assert run(fu.fuse_predict, ad.mse_loss) == run(row_fuse_predict, ad.mse_loss)


def test_fusion_never_writes_to_its_inputs():
    # read-only views and yhat raise if the op writes to any, in either mode
    rng = np.random.default_rng(81)
    params = warmed_params(rng, depth=1)
    arrays = make_inputs(rng, b=3)
    for a in arrays:
        a.flags.writeable = False
    for grad in (True, False):
        with contextlib.ExitStack() as stack:
            if not grad:
                stack.enter_context(ad.no_grad())
            for depth_params in (params, warmed_params(rng, depth=0)):
                ystar = fu.fuse_predict(depth_params, *(ad.constant(a) for a in arrays))
                assert np.isfinite(ystar.data).all()
