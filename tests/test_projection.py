"""Projection stacks: identity at init, channel weighting, gradients."""

import numpy as np
import pytest

from chancorr import autodiff as ad
from chancorr import projection as pj


def numpy_oracle_layer(layer, x):
    """Independent plain-numpy re-derivation of one projection layer."""
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    ln = (x - mu) / np.sqrt(var + 1e-5)
    ln = ln * layer.ln_scale.data + layer.ln_shift.data

    hidden = np.maximum(ln @ layer.w1.data + layer.b1.data, 0.0)
    proj = hidden @ layer.w2.data + layer.b2.data

    p_axis = x.ndim - 3
    flat = np.swapaxes(ln, p_axis, p_axis + 1)
    flat = flat.reshape(flat.shape[:-2] + (-1,))
    squeeze = np.maximum(flat @ layer.v1.data + layer.c1.data, 0.0)
    logits = (squeeze @ layer.v2.data + layer.c2.data)[..., 0]
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    w = e / e.sum(axis=-1, keepdims=True)
    return x + proj * w[..., None, :, None]


def randomized_layer(n_patches, d, rng):
    layer = pj.init_projection_layer(n_patches, d, rng)
    # overwrite the zero-init final affines so the layer actually does work
    layer.w2.data = rng.normal(0, 0.3, size=layer.w2.shape)
    layer.b2.data = rng.normal(0, 0.1, size=layer.b2.shape)
    layer.v2.data = rng.normal(0, 0.3, size=layer.v2.shape)
    layer.c2.data = rng.normal(0, 0.1, size=layer.c2.shape)
    return layer


def test_zero_init_layer_is_exact_identity():
    rng = np.random.default_rng(31)
    layer = pj.init_projection_layer(n_patches=3, repr_dim=6, rng=rng)
    x = rng.normal(size=(3, 5, 6))
    out = pj.channel_aware_project(layer, ad.constant(x))
    assert np.array_equal(out.data, x)


def test_zero_init_stack_is_exact_identity():
    rng = np.random.default_rng(32)
    params = pj.init_hd_params(n_patches=2, repr_dim=4, depth=3, rng=rng)
    x = rng.normal(size=(2, 2, 6, 4))
    pos, neg = pj.divide(params, ad.constant(x))
    assert np.array_equal(pos.data, x)
    assert np.array_equal(neg.data, x)


def test_matches_numpy_oracle():
    rng = np.random.default_rng(33)
    for trial in range(20):
        p, n, d = (int(rng.integers(1, 4)), int(rng.integers(2, 6)),
                   int(rng.integers(2, 7)))
        layer = randomized_layer(p, d, rng)
        batched = trial % 2 == 0
        shape = (2, p, n, d) if batched else (p, n, d)
        x = rng.normal(size=shape)
        got = pj.channel_aware_project(layer, ad.constant(x)).data
        want = numpy_oracle_layer(layer, x)
        assert np.abs(got - want).max() < 1e-12


def test_channel_weights_sum_to_one():
    # recover the implicit weights: (out - x) / proj-part is rank-checked
    # indirectly; here we just verify the softmax producing them via oracle
    rng = np.random.default_rng(34)
    layer = randomized_layer(2, 5, rng)
    x = rng.normal(size=(2, 7, 5))
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    ln = (x - mu) / np.sqrt(var + 1e-5) * layer.ln_scale.data + layer.ln_shift.data
    flat = np.swapaxes(ln, 0, 1).reshape(7, -1)
    squeeze = np.maximum(flat @ layer.v1.data + layer.c1.data, 0.0)
    logits = (squeeze @ layer.v2.data + layer.c2.data)[..., 0]
    e = np.exp(logits - logits.max())
    w = e / e.sum()
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    assert ((w > 0) & (w < 1)).all()


def test_identical_channels_get_uniform_weights():
    rng = np.random.default_rng(35)
    layer = randomized_layer(2, 4, rng)
    one = rng.normal(size=(2, 1, 4))
    x = np.repeat(one, 5, axis=1)  # five identical channels
    out = pj.channel_aware_project(layer, ad.constant(x)).data
    # identical channels -> identical logits -> uniform softmax; the update
    # is then identical across channels, so outputs stay channel-identical
    for c in range(1, 5):
        assert np.allclose(out[:, c, :], out[:, 0, :], atol=1e-13)
    # and the effective weight equals 1/N: out = x + proj/N
    ref = numpy_oracle_layer(layer, x)
    assert np.allclose(out, ref, atol=1e-13)


def test_channel_permutation_equivariance():
    rng = np.random.default_rng(36)
    layer = randomized_layer(2, 4, rng)
    x = rng.normal(size=(2, 6, 4))
    perm = rng.permutation(6)
    out = pj.channel_aware_project(layer, ad.constant(x)).data
    out_p = pj.channel_aware_project(layer, ad.constant(x[:, perm, :])).data
    assert np.allclose(out_p, out[:, perm, :], atol=1e-12)


def test_shape_preserved_and_batch_consistency():
    rng = np.random.default_rng(37)
    params = pj.init_hd_params(3, 5, depth=2, rng=rng)
    for stack in (params.pos_layers, params.neg_layers):
        for layer in stack:
            layer.w2.data = rng.normal(0, 0.2, size=layer.w2.shape)
            layer.v2.data = rng.normal(0, 0.2, size=layer.v2.shape)
    x = rng.normal(size=(4, 3, 6, 5))
    pos, neg = pj.divide(params, ad.constant(x))
    assert pos.shape == x.shape and neg.shape == x.shape
    assert not np.allclose(pos.data, neg.data)  # independent stacks diverge
    pos_b1, _ = pj.divide(params, ad.constant(x[1]))
    assert np.allclose(pos.data[1], pos_b1.data, atol=1e-13)


def test_shared_stack_produces_identical_views():
    rng = np.random.default_rng(38)
    params = pj.init_hd_params(2, 4, depth=2, rng=rng, shared=True)
    for layer in params.pos_layers:
        layer.w2.data = rng.normal(0, 0.2, size=layer.w2.shape)
    x = rng.normal(size=(2, 5, 4))
    pos, neg = pj.divide(params, ad.constant(x))
    assert np.array_equal(pos.data, neg.data)
    names = [n for n, _ in params.named_tensors()]
    assert all(n.startswith("hd.pos") for n in names)


def expanded_reference(layer, x):
    """One projection layer with the gate weights materialised, by adding
    a zeros constant, before the multiply."""
    ln = ad.add(ad.multiply(ad.layer_norm(x), layer.ln_scale), layer.ln_shift)
    hidden = ad.relu(ad.add(ad.matmul(ln, layer.w1), layer.b1))
    proj = ad.add(ad.matmul(hidden, layer.w2), layer.b2)
    squeeze = ad.relu(ad.add(ad.matmul(pj.flatten_per_channel(ln), layer.v1),
                             layer.c1))
    logits = ad.add(ad.matmul(squeeze, layer.v2), layer.c2)
    weights = ad.softmax(ad.reshape(logits, logits.shape[:-1]))
    w_shape = weights.shape[:-1] + (1, weights.shape[-1], 1)
    w_expanded = ad.add(ad.reshape(weights, w_shape), ad.constant(np.zeros(x.shape)))
    return ad.add(x, ad.multiply(proj, w_expanded))


def test_broadcast_gate_weights_match_expanded_reference_bitwise():
    rng = np.random.default_rng(41)
    layer = randomized_layer(3, 4, rng)
    x = ad.constant(rng.normal(size=(5, 3, 6, 4)))
    target = ad.constant(rng.normal(size=(5, 6, 12)))

    with ad.no_grad():
        assert np.array_equal(pj.channel_aware_project(layer, x).data,
                              expanded_reference(layer, x).data)

    grads = []
    for build in (pj.channel_aware_project, expanded_reference):
        for _, t in layer.named_tensors():
            t.grad = None
        out = build(layer, x)
        # flattening hands a transposed gradient back to the layer, the
        # layout under which a broadcast multiply could change the
        # summation order of the bias gradients
        loss = ad.tensor_sum(ad.multiply(pj.flatten_per_channel(out), target))
        loss.backward()
        grads.append((out.data, [t.grad for _, t in layer.named_tensors()]))
    (out_a, grads_a), (out_b, grads_b) = grads
    assert np.array_equal(out_a, out_b)
    for (name, _), ga, gb in zip(layer.named_tensors(), grads_a, grads_b):
        assert np.array_equal(ga, gb), name


def test_gradients_match_fd():
    rng = np.random.default_rng(39)
    layer = randomized_layer(2, 4, rng)
    x = ad.constant(rng.normal(size=(2, 3, 4)))
    target = ad.constant(rng.normal(size=(2, 3, 4)))

    def loss():
        return ad.mse_loss(pj.channel_aware_project(layer, x), target)

    report = ad.grad_check(loss, layer.named_tensors(), tol=1e-4)
    assert report.passed, str(report)


def test_stack_gradients_flow_to_all_layers():
    rng = np.random.default_rng(40)
    params = pj.init_hd_params(2, 3, depth=2, rng=rng)
    x = ad.constant(rng.normal(size=(2, 4, 3)))
    pos, neg = pj.divide(params, x)
    loss = ad.add(ad.tensor_sum(ad.multiply(pos, pos)),
                  ad.tensor_sum(ad.multiply(neg, neg)))
    loss.backward()
    for name, t in params.named_tensors():
        assert t.grad is not None, name
