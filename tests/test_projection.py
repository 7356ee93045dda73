"""Projection stacks: identity at init, channel weighting, gradients."""

import contextlib
import tracemalloc
import warnings

import numpy as np
import pytest

from chancorr import autodiff as ad
from chancorr import fusion as fu
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
    # with w2 = 0 and b2 = 1, proj is 1 everywhere, so out - x is the
    # channel gate broadcast over patches and features
    rng = np.random.default_rng(34)
    layer = randomized_layer(2, 5, rng)
    layer.w2.data[...] = 0.0
    layer.b2.data[...] = 1.0
    x = rng.normal(size=(3, 2, 7, 5))
    gate = pj.channel_aware_project(layer, ad.constant(x)).data - x
    w = gate[:, 0, :, 0]                                       # (window, channel)
    assert np.allclose(gate, w[:, None, :, None], rtol=0.0, atol=1e-14)
    assert np.allclose(w.sum(axis=-1), 1.0, rtol=0.0, atol=1e-12)
    assert ((w > 0) & (w < 1)).all()
    # the oracle: the softmax of MLP2's logits over the channels
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    ln = (x - mu) / np.sqrt(var + 1e-5) * layer.ln_scale.data + layer.ln_shift.data
    flat = np.swapaxes(ln, 1, 2).reshape(3, 7, -1)
    squeeze = np.maximum(flat @ layer.v1.data + layer.c1.data, 0.0)
    logits = (squeeze @ layer.v2.data + layer.c2.data)[..., 0]
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    assert np.allclose(w, e / e.sum(axis=-1, keepdims=True), rtol=0.0, atol=1e-13)


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
    """One projection layer in plain numpy, in the op's order of float
    operations, with the gate weights materialised to x's shape (by adding
    zeros) before the multiply.  Also returns both relus' gate decisions
    and the normalised input ln."""
    ln_scale, ln_shift, w1, b1, w2, b2, v1, c1, v2, c2 = (
        t.data for _, t in layer.named_tensors())
    mu = x.mean(axis=-1, keepdims=True)
    centred = x - mu
    var = (centred * centred).mean(axis=-1, keepdims=True)
    norm = centred * (1.0 / np.sqrt(var + pj.LAYER_NORM_EPS))
    ln = norm * ln_scale + ln_shift
    hidden = np.maximum(ln @ w1 + b1, 0.0)
    proj = hidden @ w2 + b2
    flat = np.swapaxes(ln, -3, -2)
    flat = flat.reshape(flat.shape[:-2] + (-1,))
    squeeze = np.maximum(flat @ v1 + c1, 0.0)
    logits = (squeeze @ v2 + c2)[..., 0]
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    weights = e / e.sum(axis=-1, keepdims=True)
    gate = weights[..., None, :, None] + np.zeros(x.shape)
    return x + proj * gate, [hidden > 0, squeeze > 0], ln


def gate_trace(layers, x, grad: bool):
    sink = []
    with ad.record_gates(sink), contextlib.ExitStack() as stack:
        if not grad:
            stack.enter_context(ad.no_grad())
        out = pj.project_stack(layers, ad.constant(x)).data
    return out, sink


def test_broadcast_gate_weights_match_expanded_reference_bitwise():
    rng = np.random.default_rng(41)
    # the last case's logits are large enough that exp overflows unless
    # the largest one is subtracted first
    for shape, logit_scale in (((5, 3, 6, 4), 1.0), ((3, 6, 4), 1.0),
                               ((2, 2, 3, 6, 4), 1.0), ((5, 3, 6, 4), 1e4)):
        layer = randomized_layer(3, 4, rng)
        layer.v2.data *= logit_scale
        x = rng.normal(size=shape)
        want, decisions, _ = expanded_reference(layer, x)
        assert np.isfinite(want).all()
        packed = [np.packbits(k, axis=None) for k in decisions]
        for grad in (False, True):
            got, sink = gate_trace([layer], x, grad)
            assert np.array_equal(got, want)
            assert [t.tobytes() for t in sink] == [t.tobytes() for t in packed]

    # the fusion head hands its post layers the gradient of its per-channel
    # flatten, transposed back to (..., P, N, d), the layout under which a
    # broadcast multiply could change the summation order of the bias
    # gradients: they must match those of a C-contiguous one bitwise
    post = randomized_layer(3, 4, rng)
    fusion = fu.init_fusion_params(6, 3, 4, 5, rng, depth=0, beta_logit_init=0.0)
    fusion.head_w.data = rng.normal(size=fusion.head_w.shape)
    x, yhat = rng.normal(size=(5, 3, 6, 4)), rng.normal(size=(5, 6, 5))
    target = rng.normal(size=yhat.shape)
    grads, seen = [], []
    for contiguous in (False, True):
        for _, t in post.named_tensors():
            t.grad = None
        view = relay(pj.channel_aware_project(post, ad.constant(x)), seen, contiguous)
        ystar = fu.fuse_predict(fusion, view, ad.constant(x), ad.constant(yhat))
        ad.mse_loss(ystar, ad.constant(target)).backward()
        grads.append([t.grad for _, t in post.named_tensors()])
    assert not seen[0].flags.c_contiguous
    assert np.array_equal(seen[0], seen[1])
    for (name, _), ga, gb in zip(post.named_tensors(), *grads):
        assert np.array_equal(ga, gb), name


def relay(x, seen, contiguous):
    """x as a recorded op that notes the gradient arriving at it and hands
    it on as it came or as a C-contiguous copy."""
    def grad(g):
        seen.append(g)
        return np.ascontiguousarray(g) if contiguous else g
    return ad._result(x.data, [(x, grad)], "relay")


def weighted_sum(x, weight):
    """sum(x * weight) for a plain array ``weight``, as one recorded op."""
    return ad._result(np.asarray((x.data * weight).sum()), [(x, lambda g: g * weight)],
                      "weighted_sum")


def test_gradients_match_fd():
    # a depth-2 stack with the input as a parameter, so both of x's edges
    # (the residual and the norm path) and the chain between layers are
    # checked; its relus keep some units and drop others
    rng = np.random.default_rng(39)
    layers = [randomized_layer(2, 4, rng) for _ in range(2)]
    x = ad.parameter(rng.normal(size=(2, 3, 4)))
    target = ad.constant(rng.normal(size=(2, 3, 4)))
    params = [("x", x)] + [pair for i, layer in enumerate(layers)
                           for pair in layer.named_tensors(f"layer{i}")]

    def loss():
        return ad.mse_loss(pj.project_stack(layers, x), target)

    _, sink = gate_trace(layers, x.data, grad=False)
    assert len(sink) == 4                       # hidden, squeeze per layer
    hidden = np.unpackbits(sink[0])[:x.size].reshape(x.shape)
    assert hidden.any() and not hidden.all()
    report = ad.grad_check(loss, params, tol=1e-4)
    assert report.passed, str(report)
    assert all(r.checked and not r.excluded for r in report.results), str(report)

    # put a hidden unit of layer 0 exactly on its kink: perturbations that
    # cross it must be excluded, not compared
    ln = expanded_reference(layers[0], x.data)[2]
    layers[0].b1.data[2] = -(ln @ layers[0].w1.data)[0, 0, 2]
    _, sink = gate_trace(layers, x.data, grad=False)
    assert not np.unpackbits(sink[0])[:x.size].reshape(x.shape)[0, 0, 2]
    report = ad.grad_check(loss, params, tol=1e-4)
    assert report.passed, str(report)
    assert sum(r.excluded for r in report.results) > 0


def test_layer_leaves_its_input_unchanged():
    # predict hands the layer views of the backbone's representation
    rng = np.random.default_rng(42)
    layers = [randomized_layer(3, 4, rng) for _ in range(2)]
    rep = rng.normal(size=(5, 3, 6, 4))
    before = rep.copy()
    with ad.no_grad():
        pj.project_stack(layers, ad.constant(rep[1:3]))
    ad.tensor_sum(pj.project_stack(layers, ad.constant(rep[2:]))).backward()
    assert np.array_equal(rep, before)


def test_overflow_inside_the_layer_raises_in_grad_mode():
    rng = np.random.default_rng(43)
    layer = randomized_layer(2, 4, rng)
    huge_input = np.full((2, 3, 4), 1e308)      # its mean overflows
    huge_weight = randomized_layer(2, 4, rng)
    huge_weight.w2.data *= 1e308                # the MLP1 output overflows
    x = rng.normal(size=(2, 3, 4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")          # the error, not a numpy warning
        for lay, inp in ((layer, huge_input), (huge_weight, x)):
            with pytest.raises(ad.NonFiniteError):
                pj.channel_aware_project(lay, ad.constant(inp))
            with ad.no_grad():
                out = pj.channel_aware_project(lay, ad.constant(inp))
            assert not np.isfinite(out.data).all()


def test_stack_gradients_flow_to_all_layers():
    rng = np.random.default_rng(40)
    params = pj.init_hd_params(2, 3, depth=2, rng=rng)
    x = ad.constant(rng.normal(size=(2, 4, 3)))
    pos, neg = pj.divide(params, x)
    loss = ad.add(weighted_sum(pos, pos.data), weighted_sum(neg, neg.data))
    loss.backward()
    for name, t in params.named_tensors():
        assert t.grad is not None, name


def _run(fn, x, leaves, grad):
    """The shapes and bytes of ``fn``'s views of ``x`` and, in grad mode, of
    the gradients of a random-weighted sum of them with respect to x and
    ``leaves``, plus the gate trace; ``x`` is read as a parameter."""
    sink, rng = [], np.random.default_rng(0)
    with ad.record_gates(sink), contextlib.ExitStack() as stack:
        if not grad:
            stack.enter_context(ad.no_grad())
        x_t = ad.parameter(x)
        views = fn(x_t)
    arrays = [v.data for v in views]
    if grad:
        loss = ad.constant(0.0)
        for view in views:
            weight = rng.normal(size=view.shape)
            loss = ad.add(loss, weighted_sum(view, weight))
        loss.backward()
        arrays += [t.grad for t in [x_t] + leaves]
        for t in leaves:
            t.grad = None
    return [(a.shape, a.tobytes()) for a in arrays], [t.tobytes() for t in sink]


def _randomized_params(depth, shared, rng):
    """Stacks with every parameter drawn, the layer norm's affine too."""
    def layer():
        out = randomized_layer(3, 4, rng)
        for t in (out.ln_scale, out.ln_shift, out.b1, out.c1):
            t.data = t.data + rng.normal(0, 0.3, size=t.shape)
        return out

    pos = [layer() for _ in range(depth)]
    neg = pos if shared else [layer() for _ in range(depth)]
    return pj.HdParams(pos_layers=pos, neg_layers=neg)


@pytest.mark.parametrize("depth", [1, 3])
@pytest.mark.parametrize("shared", [False, True])
def test_divide_equals_two_independent_stacks_bitwise(depth, shared):
    # divide layer-normalises x once for both stacks' first layers; its
    # views, gradients and gate trace are those of two separate stacks
    rng = np.random.default_rng(44 + depth)
    params = _randomized_params(depth, shared, rng)
    leaves = [t for _, t in params.named_tensors()]
    x = rng.normal(size=(5, 3, 6, 4))

    def stacks(x_t):
        return (pj.project_stack(params.pos_layers, x_t),
                pj.project_stack(params.neg_layers, x_t))

    for grad in (True, False):
        want = _run(stacks, x, leaves, grad)
        assert len(want[1]) == 4 * depth                  # two relus per layer
        assert _run(lambda x_t: pj.divide(params, x_t), x, leaves, grad) == want


@pytest.mark.parametrize("view", ["fancy", "swapaxes"])
def test_non_contiguous_input_gives_the_bits_of_a_contiguous_copy(view):
    # a reshape of a non-C-contiguous array is a copy, so a kernel that
    # wrote through one would lose the write; the layer norm is C-ordered
    # whatever x's layout, so every layout gives the same bits
    rng = np.random.default_rng(46)
    params = _randomized_params(2, False, rng)
    leaves = [t for _, t in params.named_tensors()]
    base = rng.normal(size=(5, 6, 3, 4))                 # (B, N, P, d)
    if view == "fancy":
        x = base.swapaxes(1, 2).copy()[:, :, rng.permutation(6), :]
    else:
        x = base.swapaxes(1, 2)
    assert not x.flags.c_contiguous
    copy = np.ascontiguousarray(x)
    layer = params.pos_layers[0]
    for fn, layer_leaves in (
            (lambda x_t: [pj.channel_aware_project(layer, x_t)],
             [t for _, t in layer.named_tensors()]),
            (lambda x_t: pj.divide(params, x_t), leaves)):
        for grad in (True, False):
            want = _run(fn, copy, layer_leaves, grad)
            assert _run(fn, x, layer_leaves, grad) == want


def row_project(layer, x, norm, inv, own_norm):
    """The layer op as it was before its per-feature vectors and gate were
    broadcast as (N, d) rows: each vector broadcast over d-long rows and
    the gate as (..., 1, N, 1).  The bitwise reference of `pj._project`."""
    tensors = [getattr(layer, name) for name in pj._PARAM_NAMES]
    ln_scale, ln_shift, w1, b1, w2, b2, v1, c1, v2, c2 = (t.data for t in tensors)
    xd, keep = x.data, ad._mode.grad_enabled
    with np.errstate(over="ignore", invalid="ignore"):
        ln = np.multiply(norm, ln_scale, out=norm if own_norm and not keep else None)
        ln += ln_shift
        hidden = ln @ w1
        hidden += b1
        ad.trace_gate(np.maximum(hidden, 0.0, out=hidden))
        proj = hidden @ w2
        proj += b2
        flat = pj.flatten_per_channel(ln)
        squeeze = flat @ v1
        squeeze += c1
        ad.trace_gate(np.maximum(squeeze, 0.0, out=squeeze))
        logits = squeeze @ v2
        logits += c2
        logits = logits.reshape(logits.shape[:-1])
        weights = np.exp(logits - logits.max(axis=-1, keepdims=True))
        weights = weights / weights.sum(axis=-1, keepdims=True)
        gate = weights.reshape(weights.shape[:-1] + (1, weights.shape[-1], 1))
        out = np.multiply(proj, gate, out=None if keep else proj)
        out += xd

    grads = {}
    sum_to = ad._sum_to_shape

    def backward(name, g):
        if grads:
            return grads.pop(name)
        g_proj = np.multiply(g, gate, order="C")
        grads.update(w2=sum_to(hidden.swapaxes(-1, -2) @ g_proj, w2.shape),
                     b2=sum_to(g_proj, b2.shape))
        g_hidden = g_proj @ w2.swapaxes(-1, -2)
        g_hidden *= hidden > 0
        grads.update(w1=sum_to(ln.swapaxes(-1, -2) @ g_hidden, w1.shape),
                     b1=sum_to(g_hidden, b1.shape))
        g_ln = g_hidden @ w1.swapaxes(-1, -2)
        g_gate = sum_to(np.multiply(g, proj, order="C"), gate.shape).reshape(weights.shape)
        g_logits = weights * (g_gate - (g_gate * weights).sum(axis=-1, keepdims=True))
        g_logits = g_logits.reshape(g_logits.shape + (1,))
        g_squeeze = g_logits @ v2.swapaxes(-1, -2)
        g_squeeze *= squeeze > 0
        grads.update(v1=sum_to(flat.swapaxes(-1, -2) @ g_squeeze, v1.shape),
                     c1=sum_to(g_squeeze, c1.shape),
                     v2=sum_to(squeeze.swapaxes(-1, -2) @ g_logits, v2.shape),
                     c2=sum_to(g_logits, c2.shape))
        g_flat = g_squeeze @ v1.swapaxes(-1, -2)
        g_ln += g_flat.reshape(g_flat.shape[:-1] + (-1, len(w1))).swapaxes(-3, -2)
        grads.update(ln_scale=sum_to(np.multiply(g_ln, norm, order="C"), ln_scale.shape),
                     ln_shift=sum_to(g_ln, ln_shift.shape), ln=g_ln)
        return grads.pop(name)

    def grad_x(g):
        g_norm = np.multiply(backward("ln", g), ln_scale, order="C")
        gn = (g_norm * norm).mean(axis=-1, keepdims=True)
        g_norm -= g_norm.mean(axis=-1, keepdims=True)
        g_norm -= norm * gn
        g_norm *= inv
        return g_norm

    edges = [(t, lambda g, name=name: backward(name, g))
             for name, t in zip(pj._PARAM_NAMES, tensors)]
    return ad._result(out, [(x, lambda g: g)] + edges + [(x, grad_x)], "projection")


def row_divide(params, x):
    """`pj.divide` on the row kernel."""
    norm, inv = pj._layer_norm(params.pos_layers[0], x)
    pos = pj.project_stack(params.pos_layers[1:],
                           row_project(params.pos_layers[0], x, norm, inv, False))
    neg = pj.project_stack(params.neg_layers[1:],
                           row_project(params.neg_layers[0], x, norm, inv, True))
    return pos, neg


def _row_case(shape, rng):
    """Randomised depth-1 stacks for (..., P, N, d) inputs of ``shape`` and
    such an input, made non-C-contiguous when ``shape`` is None."""
    p, d = (3, 4) if shape is None else (shape[-3], shape[-1])
    params = pj.HdParams(*[[randomized_layer(p, d, rng)] for _ in range(2)])
    for layer in params.pos_layers + params.neg_layers:
        for t in (layer.ln_scale, layer.ln_shift, layer.b1, layer.c1):
            t.data = t.data + rng.normal(0, 0.3, size=t.shape)
    if shape is None:
        x = rng.normal(size=(2, 5, p, d)).swapaxes(1, 2)    # (B, P, N, d) view
        assert not x.flags.c_contiguous
    else:
        x = rng.normal(size=shape)
    return params, x


@pytest.mark.parametrize("shape", [(3, 2, 1, 4), (3, 2, 5, 1), (2, 6, 4), (2, 2, 2, 3, 4),
                                   None], ids=["n1", "d1", "unbatched", "two-batch-axes",
                                               "non-contiguous"])
def test_row_broadcasts_are_bitwise_the_d_long_row_kernel(shape):
    # the per-feature vectors as (N, d) tiles and the gate repeated to
    # (..., 1, N, d) give each element the same one multiply or add as the
    # row kernel: views, every gradient (x's too) and the gate trace match
    rng = np.random.default_rng(47)
    params, x = _row_case(shape, rng)
    layer = params.pos_layers[0]
    leaves = [t for _, t in layer.named_tensors()]
    all_leaves = [t for _, t in params.named_tensors()]
    for grad in (True, False):
        want = _run(lambda x_t: [row_project(layer, x_t, *pj._layer_norm(layer, x_t), True)],
                    x, leaves, grad)
        assert _run(lambda x_t: [pj.channel_aware_project(layer, x_t)], x, leaves, grad) == want
        want = _run(lambda x_t: row_divide(params, x_t), x, all_leaves, grad)
        assert _run(lambda x_t: pj.divide(params, x_t), x, all_leaves, grad) == want


def test_layers_never_write_to_their_input():
    # a read-only input raises if any kernel writes to it, in either mode
    rng = np.random.default_rng(48)
    params, x = _row_case((3, 3, 5, 4), rng)
    x.flags.writeable = False
    for grad in (True, False):
        with contextlib.ExitStack() as stack:
            if not grad:
                stack.enter_context(ad.no_grad())
            views = pj.divide(params, ad.constant(x))
            views += (pj.channel_aware_project(params.neg_layers[0], ad.constant(x)),)
        assert all(np.isfinite(v.data).all() for v in views)


def test_live_arrays_counts_what_a_serving_layer_holds():
    # LIVE_ARRAYS sizes the serving blocks: under no_grad a layer's traced
    # peak is its window-sized temporaries, one fewer than the count since
    # its input x is allocated before tracing, plus the (..., N, d) squeeze
    # and gate rows, each 1/P of a window, at serve-wide's geometry
    rng = np.random.default_rng(49)
    layer = randomized_layer(6, 32, rng)
    for shape in ((6, 256, 32), (4, 6, 256, 32)):
        x = rng.normal(size=shape)
        with ad.no_grad():
            tracemalloc.start()
            try:
                pj.channel_aware_project(layer, ad.constant(x))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert pj.LIVE_ARRAYS - 1 < peak / x.nbytes < pj.LIVE_ARRAYS, peak / x.nbytes
