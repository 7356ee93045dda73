"""Fusion gate behavior: convexity, limits, identity at init, gradients."""

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
        flat = flatten_per_channel(ad.add(a, b))
        return (flat.data @ params.head_w.data) + params.head_b.data


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


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(77)
    params = warmed_params(rng, n=3, p=2, d=4, f=3, depth=1)
    x_pos, x_neg, yhat = make_inputs(rng, n=3, p=2, d=4, f=3)
    target = rng.normal(size=yhat.shape)

    def loss():
        ystar = fu.fuse_predict(params, ad.constant(x_pos), ad.constant(x_neg),
                                ad.constant(yhat))
        return ad.mse_loss(ystar, ad.constant(target))

    report = ad.grad_check(loss, params.named_tensors(), tol=1e-4,
                           max_entries_per_param=15)
    assert report.passed, str(report)


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
