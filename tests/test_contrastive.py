"""Contrastive objective against a double-loop oracle, mask semantics."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from chancorr import autodiff as ad
from chancorr import contrastive as ct
from chancorr import correlation as corr
from chancorr import projection as pj
from chancorr.config import TrainConfig


# ---------------------------------------------------------------------------
# oracle: pure-Python double loop, no shared code with the implementation


def cosine(u, v):
    nu = math.sqrt(sum(a * a for a in u))
    nv = math.sqrt(sum(b * b for b in v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return sum(a * b for a, b in zip(u, v)) / (nu * nv)


def loss_oracle(views, mask, tau):
    """views: list of N flat per-channel vectors; mask: N x N weights."""
    n = len(views)
    sims = [[cosine(views[i], views[j]) for j in range(n)] for i in range(n)]
    terms = []
    for i in range(n):
        if all(mask[i][j] == 0.0 for j in range(n)):
            continue
        num = sum(mask[i][j] * math.exp(sims[i][j] / tau) for j in range(n))
        den = sum(math.exp(sims[i][k] / tau) for k in range(n))
        terms.append(math.log(num / den))
    if not terms:
        return 0.0
    return -sum(terms) / len(terms)


TINY = ct.init_epsilon(1e-12)


def one_branch(x, mask, tau):
    """Loss of views ``x`` under pair weights ``mask`` >= 0, rows without
    weight skipped: the op's negative branch on M = -mask, whose support is
    ``mask > eps``.  Its positive branch keeps the diagonal, with a unit
    weight where ``mask`` has none, so that a row of it is never empty."""
    mask = ad.as_tensor(mask).data
    m = np.where(np.eye(mask.shape[-1], dtype=bool) & (mask == 0), 1.0, -mask)
    return ct.hpcl_loss(m, (x, x), tau, TINY)[1]


def flat_views(x):
    """(P, N, d) -> list of N per-channel flattened vectors."""
    p, n, d = x.shape
    return [np.swapaxes(x, 0, 1)[c].reshape(-1).tolist() for c in range(n)]


# ---------------------------------------------------------------------------
# loss value checks


def test_loss_matches_double_loop_oracle():
    rng = np.random.default_rng(51)
    worst = 0.0
    for n in range(2, 9):
        for trial in range(100):
            p, d = int(rng.integers(1, 4)), int(rng.integers(2, 6))
            x = rng.normal(size=(p, n, d))
            mask = rng.uniform(0.0, 1.0, size=(n, n))
            mask[rng.uniform(size=(n, n)) < 0.3] = 0.0
            mask[np.arange(n), np.arange(n)] = 1.0  # keep rows nonempty
            got = one_branch(ad.constant(x), ad.constant(mask), tau=0.5).item()
            want = loss_oracle(flat_views(x), mask.tolist(), 0.5)
            worst = max(worst, abs(got - want))
    assert worst < 1e-10


def test_loss_with_empty_rows_skips_them():
    rng = np.random.default_rng(52)
    x = rng.normal(size=(2, 4, 3))
    mask = np.zeros((4, 4))
    mask[1, 2] = 0.7
    mask[3, 0] = 0.4  # rows 0 and 2 empty -> averaged over 2 rows only
    got = one_branch(ad.constant(x), ad.constant(mask), tau=0.5).item()
    want = loss_oracle(flat_views(x), mask.tolist(), 0.5)
    assert got == pytest.approx(want, abs=1e-12)


def test_two_identical_channels_self_mask_gives_log2():
    rng = np.random.default_rng(53)
    one = rng.normal(size=(2, 1, 5))
    x = np.repeat(one, 2, axis=1)  # identical channels: all sims are 1
    mask = np.eye(2)
    loss = one_branch(ad.constant(x), ad.constant(mask), tau=0.5)
    assert loss.item() == pytest.approx(math.log(2.0), abs=1e-12)


def test_full_unit_mask_reaches_zero_lower_bound():
    rng = np.random.default_rng(54)
    x = rng.normal(size=(1, 5, 4))
    loss = one_branch(ad.constant(x), ad.constant(np.ones((5, 5))), tau=0.5)
    assert loss.item() == pytest.approx(0.0, abs=1e-12)


def test_loss_nonnegative_for_unit_bounded_weights():
    rng = np.random.default_rng(55)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        x = rng.normal(size=(2, n, 3))
        mask = rng.uniform(0.0, 1.0, size=(n, n)) * (rng.uniform(size=(n, n)) < 0.6)
        loss = one_branch(ad.constant(x), ad.constant(mask), tau=0.5).item()
        assert loss >= -1e-12


def test_batched_loss_is_mean_of_windows():
    rng = np.random.default_rng(56)
    xs = rng.normal(size=(3, 2, 4, 5))
    masks = rng.uniform(0.0, 1.0, size=(3, 4, 4))
    batched = one_branch(ad.constant(xs), ad.constant(masks), tau=0.5).item()
    singles = [
        one_branch(ad.constant(xs[b]), ad.constant(masks[b]), tau=0.5).item()
        for b in range(3)
    ]
    assert batched == pytest.approx(np.mean(singles), abs=1e-12)


def test_channel_permutation_invariance():
    rng = np.random.default_rng(57)
    x = rng.normal(size=(2, 5, 4))
    mask = rng.uniform(0.0, 1.0, size=(5, 5))
    perm = rng.permutation(5)
    a = one_branch(ad.constant(x), ad.constant(mask), tau=0.5).item()
    b = one_branch(ad.constant(x[:, perm, :]),
                   ad.constant(mask[np.ix_(perm, perm)]), tau=0.5).item()
    assert a == pytest.approx(b, abs=1e-12)


def test_aligning_masked_pair_reduces_loss():
    # orthogonal basis channels, then make the masked pair identical while
    # keeping every similarity to the third channel fixed at zero
    mask = np.eye(3)
    mask[0, 1] = mask[1, 0] = 1.0
    apart = np.eye(3, 6)[None]  # channels e0, e1, e2
    together = apart.copy()
    together[0, 1] = together[0, 0]  # channels e0, e0, e2
    base = one_branch(ad.constant(apart), ad.constant(mask), tau=0.5).item()
    moved = one_branch(ad.constant(together), ad.constant(mask), tau=0.5).item()
    assert moved < base


# ---------------------------------------------------------------------------
# threshold masks


def test_threshold_supports_match_spec_example():
    m = np.array([[1.0, 0.5, -0.7], [0.5, 1.0, 0.1], [-0.7, 0.1, 1.0]])
    eps = ct.init_epsilon(0.3)
    masks = ct.threshold_masks(ad.constant(m), eps)
    pos_expected = {(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)}
    neg_expected = {(0, 2), (2, 0)}
    assert set(zip(*np.nonzero(masks.pos_support))) == pos_expected
    assert set(zip(*np.nonzero(masks.neg_support))) == neg_expected
    # retained entries keep raw values
    assert (m * masks.pos_support)[0, 1] == 0.5
    assert (m * masks.neg_support)[0, 2] == -0.7
    assert (m * masks.pos_support)[1, 2] == 0.0


def test_threshold_supports_disjoint_and_partition():
    rng = np.random.default_rng(59)
    eps = ct.init_epsilon(0.25)
    for _ in range(300):
        n = int(rng.integers(2, 8))
        m = np.clip(rng.normal(scale=0.6, size=(n, n)), -1, 1)
        np.fill_diagonal(m, 1.0)
        masks = ct.threshold_masks(ad.constant(m), eps)
        assert not (masks.pos_support & masks.neg_support).any()
        # everything above eps kept, everything below -eps kept, middle dropped
        middle = ~(masks.pos_support | masks.neg_support)
        assert (np.abs(m[middle]) <= ct.init_epsilon(0.25).numeric() + 1e-12).all()


def test_diagonal_always_in_positive_support():
    eps = ct.init_epsilon(0.3)
    m = np.eye(3) * 0.1  # diagonal below eps
    masks = ct.threshold_masks(ad.constant(m), eps)
    assert masks.pos_support[np.arange(3), np.arange(3)].all()


def test_epsilon_softplus_parameterisation():
    eps = ct.init_epsilon(0.3)
    assert eps.numeric() == pytest.approx(0.3, abs=1e-12)
    eps.raw.data -= 5.0
    assert eps.numeric() > 0.0  # positive whatever the raw value


def test_hard_gate_gradient_convention():
    m = ad.parameter(np.array([[1.0, 0.5, -0.7], [0.5, 1.0, 0.1], [-0.7, 0.1, 1.0]]))
    x = np.random.default_rng(58).normal(size=(2, 3, 4))
    eps = ct.init_epsilon(0.3)
    masks = ct.threshold_masks(m, eps)
    ct.aux_loss(ad.constant(x), ad.constant(x), masks)[2].backward()
    # gradient on kept entries (either mask) only; none into eps
    kept = masks.pos_support | masks.neg_support
    assert not m.grad[~kept].any()
    assert m.grad[kept].all()
    assert eps.raw.grad is None


def test_threshold_masks_trace_hard_supports():
    m = np.array([[1.0, 0.5, -0.7], [0.5, 1.0, 0.1], [-0.7, 0.1, 1.0]])
    eps = ct.init_epsilon(0.3)
    with ad.record_gates([]) as sink:
        masks = ct.threshold_masks(ad.constant(m), eps)
    assert len(sink) == 2
    for packed, support in zip(sink, (masks.pos_support, masks.neg_support)):
        assert np.array_equal(np.unpackbits(packed)[:9].astype(bool), support.ravel())
    x = np.random.default_rng(58).normal(size=(2, 3, 4))
    with ad.record_gates(sink):            # aux_loss reads the pair's supports
        ct.aux_loss(x, x, masks)
    assert len(sink) == 2
    with ad.record_gates([]) as sink:      # soft gates are smooth: no decision
        ct.threshold_masks(ad.constant(m), eps, TrainConfig(soft_gate=True))
    assert sink == []


def test_soft_gate_trains_epsilon():
    rng = np.random.default_rng(60)
    m = ad.parameter(np.clip(rng.normal(scale=0.6, size=(4, 4)), -1, 1))
    x = rng.normal(size=(2, 4, 3))
    eps = ct.init_epsilon(0.3)
    cfg = TrainConfig(soft_gate=True)
    masks = ct.threshold_masks(m, eps, cfg)
    ct.aux_loss(ad.constant(x), ad.constant(x), masks, cfg)[2].backward()
    assert eps.raw.grad is not None and eps.raw.grad != 0.0
    assert m.grad is not None


def test_empty_negative_mask_contributes_zero():
    rng = np.random.default_rng(61)
    x = rng.normal(size=(2, 3, 4))
    m = np.abs(corr.pearson_matrix(rng.normal(size=(3, 30))))  # all >= 0
    eps = ct.init_epsilon(0.3)
    masks = ct.threshold_masks(ad.constant(m), eps)
    assert not masks.neg_support.any()
    l_pos, l_neg, l_total = ct.aux_loss(ad.constant(x), ad.constant(x), masks)
    assert l_neg.item() == 0.0
    assert l_total.item() == pytest.approx(l_pos.item(), abs=1e-15)


def test_negative_weights_enter_by_magnitude():
    rng = np.random.default_rng(62)
    x = rng.normal(size=(1, 3, 5))
    m = np.array([[1.0, -0.8, 0.1], [-0.8, 1.0, 0.2], [0.1, 0.2, 1.0]])
    eps = ct.init_epsilon(0.3)
    masks = ct.threshold_masks(ad.constant(m), eps)
    _, l_neg, _ = ct.aux_loss(ad.constant(x), ad.constant(x), masks)
    neg_mask = np.zeros((3, 3))
    neg_mask[0, 1] = neg_mask[1, 0] = 0.8  # |{-0.8}|
    want = loss_oracle(flat_views(x), neg_mask.tolist(), 0.5)
    assert l_neg.item() == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# gradients through the whole objective


def _fd_problem(rng, config, lead=()):
    """A closure of the HPCL op over fresh DCE, projection and threshold
    parameters, and the parameters it reads."""
    n, p, d = 4, 2, 5
    reps = ad.constant(rng.normal(size=lead + (p, n, d)))
    r = corr.pearson_matrix(rng.normal(size=lead + (n, 30)))
    dce = corr.init_dce_params(n, d, degree=2, rank=2, embed_dim=3, rng=rng)
    # push coefficients away from zero so Q isn't degenerate
    dce.coef_w.data = rng.normal(0, 0.4, size=dce.coef_w.shape)
    hd = pj.init_hd_params(p, d, depth=1, rng=rng)
    for layer in (*hd.pos_layers, *hd.neg_layers):
        layer.w2.data = rng.normal(0, 0.3, size=layer.w2.shape)
        layer.v2.data = rng.normal(0, 0.3, size=layer.v2.shape)
    eps = ct.init_epsilon(0.25)

    def loss():
        x_pos, x_neg = pj.divide(hd, reps)
        temp = config.gate_temp if config.soft_gate else None
        return ct.hpcl_loss(r, (x_pos, x_neg), config.tau, eps, temp, dce, reps.data)[-1]

    return loss, dce.named_tensors() + hd.named_tensors() + eps.named_tensors()


def test_aux_loss_gradients_match_fd_through_masks():
    """Gradients reach projection AND correlation parameters through the
    retained mask values, matching finite differences (one window)."""
    loss, params = _fd_problem(np.random.default_rng(63), TrainConfig())
    report = ad.grad_check(loss, params, tol=1e-4, max_entries_per_param=20)
    assert report.passed, str(report)


def test_soft_gate_gradients_match_fd_in_batches(monkeypatch):
    """Soft gates: the threshold trains too, through every window, with
    each window a block."""
    monkeypatch.setattr(ad, "BLOCK_BYTES", 1)
    config = TrainConfig(soft_gate=True, gate_temp=0.2)
    loss, params = _fd_problem(np.random.default_rng(66), config, lead=(3,))
    report = ad.grad_check(loss, params, tol=1e-4, max_entries_per_param=12)
    assert report.passed, str(report)
    assert report.results[-1].name == "hpcl.eps_raw" and report.results[-1].checked
    checked = {res.name: res.checked for res in report.results}
    assert all(checked[name] for name in ("dce.q", "dce.coef_w", "dce.e1", "dce.e2"))


# ---------------------------------------------------------------------------
# the fused op against a plain-numpy composite of the chain it replaces


def _logistic(z):
    """1 / (1 + exp(-z)), with exp taken on the non-positive side only."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ex = np.exp(z[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def reference_branch(x, m, gate, rows, tau, g_out):
    """One branch, whole batch, op by op in float64 numpy: its per-window
    loss and, for the upstream gradient ``g_out`` of those values, the
    gradients with respect to ``x``, ``m`` and ``gate``."""
    nd = x.ndim
    axes = tuple(range(nd - 3)) + (nd - 2, nd - 3, nd - 1)
    moved = np.transpose(x, axes)
    v = moved.reshape(moved.shape[:-2] + (-1,))           # (..., N, P*d)
    s2 = (v * v).sum(axis=-1, keepdims=True) + ad.COSINE_EPS
    norms = s2 ** 0.5
    unit = v / norms
    sims = unit @ np.swapaxes(unit, -1, -2)
    e = np.exp((sims - sims.max(axis=-1, keepdims=True)) * (1.0 / tau))
    prod = m * gate
    w = np.abs(prod)
    keep = np.broadcast_to(rows, sims.shape[:-1]).astype(np.float64)
    counts = np.maximum(keep.sum(axis=-1), 1.0)
    num = (w * e).sum(axis=-1) + (1.0 - keep)
    den = e.sum(axis=-1)
    loss = -(((np.log(num) - np.log(den)) * keep).sum(axis=-1) / counts)

    g_ratio = (-g_out / counts)[..., None] * keep
    a = (g_ratio / num)[..., None]
    g_sims = (a * w + (-g_ratio / den)[..., None]) * e * (1.0 / tau)
    g_w = a * e * np.sign(prod)
    g_unit = g_sims @ unit + np.swapaxes(np.swapaxes(unit, -1, -2) @ g_sims, -1, -2)
    g_norms = (-g_unit * v / (norms * norms)).sum(axis=-1, keepdims=True)
    g_sq = g_norms * 0.5 * s2 ** -0.5 * v
    g_v = g_unit / norms + g_sq + g_sq
    g_x = np.transpose(g_v.reshape(moved.shape), np.argsort(axes))
    return loss, g_x, g_w * gate, g_w * m


def reference_aux_loss(x_pos, x_neg, m, raw, config):
    """Total loss and gradients w.r.t. (x_pos, x_neg, m, raw) of
    ``threshold_masks`` + ``aux_loss``, in numpy."""
    eps = np.logaddexp(0.0, raw)
    pos_support = (m > eps) | np.eye(m.shape[-1], dtype=bool)
    neg_support = m < -eps
    g_out = np.full(m.shape[:-2], 1.0 / max(1, m[..., 0, 0].size))
    if config.soft_gate:
        inv_temp = 1.0 / config.gate_temp
        gate_pos = _logistic((m - eps) * inv_temp)
        gate_neg = _logistic((m * -1.0 - eps) * inv_temp)
    else:
        gate_pos, gate_neg = pos_support, neg_support
    l_pos, g_xp, g_mp, g_gp = reference_branch(
        x_pos, m, gate_pos, pos_support.any(axis=-1), config.tau, g_out)
    l_neg, g_xn, g_mn, g_gn = reference_branch(
        x_neg, m, gate_neg, neg_support.any(axis=-1), config.tau, g_out)
    total = l_pos.mean() + l_neg.mean()
    if not config.soft_gate:
        return total, [g_xp, g_xn, g_mp + g_mn, None]
    # through the sigmoid gates into m and eps = softplus(raw), each
    # contribution added in the order reverse-mode accumulation meets it
    g_zp = g_gp * gate_pos * (1.0 - gate_pos) * inv_temp
    g_zn = g_gn * gate_neg * (1.0 - gate_neg) * inv_temp
    g_m = ((g_zp + g_mp) + g_mn) + g_zn * -1.0
    g_eps = (-g_zp).sum(axis=tuple(range(m.ndim))) + (-g_zn).sum(axis=tuple(range(m.ndim)))
    return total, [g_xp, g_xn, g_m, g_eps * _logistic(raw)]


def _run(build, arrays):
    """Loss and gradients of ``build(*params)``; a fresh set of
    parameters per call."""
    params = [ad.parameter(a.copy()) for a in arrays]
    loss = build(*params)
    loss.backward()
    return loss.data, [p.grad for p in params]


def _assert_same_bits(got, want):
    assert got[0].tobytes() == np.asarray(want[0]).tobytes()
    for g, w in zip(got[1], want[1]):
        assert (g is None) == (w is None)
        if w is not None:
            assert g.shape == np.shape(w) and g.tobytes() == np.ascontiguousarray(w).tobytes()


def _views_and_corr(rng, batch, n=6, p=2, d=3):
    lead = (batch,) if batch else ()
    x_pos = rng.normal(size=lead + (p, n, d))
    x_neg = rng.normal(size=lead + (p, n, d))
    m = np.clip(rng.normal(scale=0.6, size=lead + (n, n)), -1.0, 1.0)
    m[..., np.arange(n), np.arange(n)] = 1.0
    return x_pos, x_neg, m


@pytest.mark.parametrize("batch", [0, 3])
@pytest.mark.parametrize("soft_gate", [False, True])
def test_fused_aux_loss_bit_identical_to_generic_composite(soft_gate, batch):
    rng = np.random.default_rng(64 + batch + soft_gate)
    x_pos, x_neg, m = _views_and_corr(rng, batch)
    config = TrainConfig(soft_gate=soft_gate)

    def fused(xp, xn, mt, raw):
        masks = ct.threshold_masks(mt, ct.EpsilonParam(raw=raw), config)
        assert masks.neg_support.any()
        return ct.aux_loss(xp, xn, masks, config)[2]

    raw = np.array(math.log(math.expm1(0.3)))
    _assert_same_bits(_run(fused, [x_pos, x_neg, m, raw]),
                      reference_aux_loss(x_pos, x_neg, m, raw, config))


@pytest.mark.parametrize("batch", [0, 3])
@pytest.mark.parametrize("negative", [False, True])
def test_fused_contrastive_loss_bit_identical_to_generic_composite(negative, batch):
    # sparse weights with exact zeros on one branch, an empty row of them
    # on the negative one; the other branch keeps only the diagonal
    rng = np.random.default_rng(65 + batch + negative)
    x_pos, x_neg, _ = _views_and_corr(rng, batch)
    mask = rng.uniform(0.0, 1.0, size=x_pos.shape[:-3] + (6, 6))
    mask[rng.uniform(size=mask.shape) < 0.4] = 0.0
    mask[..., 2, :] = 0.0
    mask[..., np.arange(6), np.arange(6)] = 1.0
    m = -mask if negative else mask
    config, raw = TrainConfig(), np.array(math.log(math.expm1(1e-12)))

    def fused(xp, xn, mt):
        return ct.hpcl_loss(mt, (xp, xn), config.tau, TINY)[2]

    total, (g_xp, g_xn, g_m, _) = reference_aux_loss(x_pos, x_neg, m, raw, config)
    want = (total, [g_xp, g_xn if negative else None, g_m])   # an empty branch drops
    _assert_same_bits(_run(fused, [x_pos, x_neg, m]), want)


def test_hpcl_loss_m_gradient_is_sign_with_zero_at_zero():
    # pairs are weighted by |m|, and a larger weight lowers the loss: the
    # gradient w.r.t. m has the sign of -m, and is 0 where m is 0 (either sign)
    views = ad.constant(np.random.default_rng(71).normal(size=(1, 3, 4)))
    signed = np.array([[1.0, -2.0, -0.0], [0.0, 1.0, -0.3], [-1.5, 0.7, 1.0]])
    m = ad.parameter(signed)
    ct.hpcl_loss(m, (views, views), 0.5, TINY)[-1].backward()
    assert np.array_equal(np.sign(m.grad), -np.sign(signed))


def test_hpcl_loss_values_and_grad_check():
    rng = np.random.default_rng(70)
    tau, temp, n = 0.5, 0.2, 4
    x_pos, x_neg = (ad.parameter(rng.normal(size=(2, 1, n, 3))) for _ in range(2))
    m = ad.parameter(rng.uniform(-1.0, 1.0, size=(2, n, n)))
    m.data[1, 2] = np.abs(m.data[1, 2])
    eps = ct.init_epsilon(0.3)
    e_val = eps.numeric()
    pos_rows = ((m.data > e_val) | np.eye(n, dtype=bool)).any(-1)
    neg_rows = (m.data < -e_val).any(-1)
    assert neg_rows.any() and not neg_rows.all()    # a dropped row leaves the average
    want = []
    for x, gate, rows in ((x_pos, 1.0 / (1.0 + np.exp(-(m.data - e_val) / temp)), pos_rows),
                          (x_neg, 1.0 / (1.0 + np.exp(-(-m.data - e_val) / temp)), neg_rows)):
        unit = x.data[:, 0] / np.linalg.norm(x.data[:, 0], axis=-1, keepdims=True)
        e = np.exp(unit @ np.swapaxes(unit, -1, -2) / tau)
        log_ratio = np.log((np.abs(m.data * gate) * e).sum(-1) / e.sum(-1))
        want.append((-(log_ratio * rows).sum(-1) / rows.sum(-1)).mean())
    got = ct.hpcl_loss(m, (x_pos, x_neg), tau, eps, temp)
    assert np.allclose([t.item() for t in got], want + [sum(want)], rtol=0.0, atol=1e-13)

    report = ad.grad_check(
        lambda: ct.hpcl_loss(m, (x_pos, x_neg), tau, eps, temp)[-1],
        [("x_pos", x_pos), ("x_neg", x_neg), ("m", m), ("eps", eps.raw)], tol=1e-6)
    assert report.passed, str(report)
    assert [r.checked for r in report.results] == [24, 24, 32, 1]


def test_hpcl_loss_rejects_bad_shapes_and_empty_kept_rows():
    views = np.ones((2, 1, 3, 2))
    dce = corr.init_dce_params(3, 2, degree=1, rank=2, embed_dim=2,
                               rng=np.random.default_rng(0))
    for r, xs, qv in ((np.ones((2, 3, 3)), [np.ones((3, 1, 3, 2))], ()),
                      (np.ones((2, 3, 4)), [views], ()),
                      (np.ones((2, 3, 3)), [np.ones((2, 3, 2))], ()),
                      (np.ones((2, 3, 3)), [views], (dce, np.ones((3, 1, 3, 2)))),
                      (np.ones((2, 3, 3)), [views], (dce, np.ones((2, 1, 4, 2)))),
                      (np.ones((2, 3, 3)), [views], (dce, np.ones((2, 1, 3, 3))))):
        with pytest.raises(ad.ShapeMismatchError):
            ct.hpcl_loss(r, xs * 2, 0.5, TINY, None, *qv)
    with pytest.raises(ad.ShapeMismatchError):   # two branches, always
        ct.hpcl_loss(np.ones((2, 3, 3)), [views], 0.5, TINY)
    with pytest.raises(ad.NonFiniteError):   # a kept diagonal row with zero weight
        ct.hpcl_loss(np.zeros((2, 2)), [np.eye(2)[None]] * 2, 1.0, TINY)


def _chain_branch_op(views, m, gate, rows: np.ndarray, inv_tau: float):
    """One branch's per-window loss: the op each branch recorded before
    `ct.hpcl_loss` took over the whole chain, as it was."""
    views, m = ad.as_tensor(views), ad.as_tensor(m)
    gd = gate.data if (soft := isinstance(gate, ad.Tensor)) else gate
    if views.ndim < 2 or m.shape != views.shape[:-1] + m.shape[-1:] or gd.shape != m.shape:
        raise ad.ShapeMismatchError(f"hpcl_loss: views {views.shape}, m {m.shape} and "
                                    f"gate {gd.shape} must be (..., N, D) and (..., N, N)")
    x, md, inv_tau = views.data, m.data, float(inv_tau)
    keep = np.broadcast_to(rows, x.shape[:-1]).astype(np.float64)
    counts = np.maximum(keep.sum(axis=-1), 1.0)
    blocks = ad.window_blocks(md.shape, 2, arrays=3)
    top, num, den = np.empty(x.shape[:-1] + (1,)), np.empty(keep.shape), np.empty(keep.shape)

    def exps(k, e, p, forward=False):   # block k's rows, exponentials, m * gate
        u, e, p = unit[k], e[:len(md[k])], p[:len(md[k])]
        np.matmul(u, np.swapaxes(u, -1, -2), out=e)
        if forward:
            top[k] = e.max(axis=-1, keepdims=True)
        e -= top[k]
        e *= inv_tau
        np.copyto(p, gd[k])
        p *= md[k]
        return u, np.exp(e, out=e), p

    unit, norms, s2 = ad.unit_rows(x)
    with np.errstate(over="ignore", invalid="ignore"):
        buffers = [np.empty(md[blocks[0]].shape) for _ in range(2)]
        for k in blocks:
            _, e, prod = exps(k, *buffers, forward=True)
            den[k] = e.sum(axis=-1)
            num[k] = np.multiply(np.abs(prod, out=prod), e, out=prod).sum(axis=-1)
    num += 1.0 - keep
    if (num <= 0).any():            # a NaN is left to the finite checks
        raise ad.NonFiniteError("log of a non-positive value")
    ratio, grads = np.log(num) - np.log(den), {}

    def backward(name, g):
        if not grads:           # one pass over the blocks serves every input
            a = np.multiply((-g / counts)[..., None], keep)
            b, a = (-a / den)[..., None], (a / num)[..., None]
            gu, gm = np.empty_like(unit), np.empty_like(md)
            gg = np.empty_like(md) if soft else None
            buffers = [np.empty(md[blocks[0]].shape) for _ in range(3)]
            for k in blocks:        # reused buffers: an allocation costs a pass
                u, e, prod = exps(k, *buffers[:2])
                gs = np.abs(prod, out=buffers[2][:len(prod)])
                gs *= a[k]
                gs += b[k]
                gs *= e
                gs *= inv_tau
                gu[k] = gs @ u + np.swapaxes(np.swapaxes(u, -1, -2) @ gs, -1, -2)
                e *= a[k]                       # d loss / d |m * gate|
                np.sign(prod, out=gm[k])        # (in place, sign runs 10x slower)
                gm[k] *= e                      # d/dm; a boolean gate alters no bit
                if soft:
                    np.multiply(gm[k], md[k], out=gg[k])
                    gm[k] *= gd[k]
            gn = (-gu * x / (norms * norms)).sum(axis=-1, keepdims=True)
            gs = np.broadcast_to(gn * 0.5 * s2 ** -0.5, x.shape) * x
            grads.update(views=gu / norms + gs + gs, m=gm, gate=gg)
        return grads.pop(name)

    parents = [(views, lambda g: backward("views", g)), (m, lambda g: backward("m", g))]
    parents += [(gate, lambda g: backward("gate", g))] if soft else []
    return ad._result(-((ratio * keep).sum(axis=-1) / counts), parents, "hpcl_loss")


def _chain_tanh(x):
    data = np.tanh(x.data)
    return ad._result(data, [(x, lambda g, d=data: g * (1.0 - d * d))], "tanh")


def _chain_relu(x):
    data = np.maximum(x.data, 0.0)
    ad.trace_gate(data)
    return ad._result(data, [(x, lambda g, d=data: g * (d > 0))], "relu")


def _chain_polynomial_expand(coeffs, q):
    """Q = sum_i coeffs[..., i] * q**i, the op the estimator recorded."""
    cs = coeffs.shape[:-1] + (1,)
    c, qd = coeffs.data, q.data
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        powers = [qd if i == 1 else qd ** float(i) for i in range(1, c.shape[-1])]
        data = np.broadcast_to(c[..., :1], np.broadcast_shapes(cs, q.shape)).copy()
        for i, p in enumerate(powers, start=1):
            data += c[..., i:i + 1] * p

    def grad_c(g):
        gc = np.zeros(coeffs.shape)
        for i, p in enumerate([None] + powers):
            gc[..., i:i + 1] += ad._sum_to_shape(
                g if p is None else np.multiply(g, p, order="C"), cs)
        return gc

    def grad_q(g):
        gq = None
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for i in range(1, c.shape[-1]):
                t = ad._sum_to_shape(np.multiply(g, c[..., i:i + 1], order="C"), q.shape)
                t = t if i == 1 else t * float(i) * qd ** (i - 1.0)
                gq = t if gq is None else gq + t
        return gq

    return ad._result(data, [(coeffs, grad_c), (q, grad_q)], "polynomial_expand")


def _chain(r, reps, dce, eps, x_pos, x_neg, config):
    """``(l_pos, l_neg, total)`` of the generic-op chain that `ct.hpcl_loss`
    replaces: Q and V from autodiff ops on the estimator ``dce``, M = R +
    Q V Q^T from autodiff ops (R alone without ``dce``), the supports and,
    in soft mode, sigmoid gates from autodiff ops, and one
    `_chain_branch_op` per branch."""
    m = ad.constant(r)
    if dce is not None:
        pooled = ad.mean(reps, axis=-3)
        coeffs = _chain_tanh(ad.add(ad.matmul(pooled, dce.coef_w), dce.coef_b))
        q = _chain_polynomial_expand(coeffs, dce.q)
        v = ad.sigmoid(_chain_relu(ad.matmul(dce.e1, ad.transpose(dce.e2))))
        qt = ad.transpose(q, axes=tuple(range(q.ndim - 2)) + (q.ndim - 1, q.ndim - 2))
        m = ad.add(m, ad.matmul(ad.matmul(q, v), qt))
    eps_val = eps.numeric()
    pos = (m.data > eps_val) | np.eye(m.shape[-1], dtype=bool)
    neg = m.data < -eps_val
    gates = (pos, neg)
    if config.soft_gate:
        eps_t, inv_temp = eps.value, 1.0 / config.gate_temp
        gates = (ad.sigmoid(ad.scale(ad.subtract(m, eps_t), inv_temp)),
                 ad.sigmoid(ad.scale(ad.subtract(ad.scale(m, -1.0), eps_t), inv_temp)))

    def branch(x, gate, support):
        views = pj.flatten_per_channel(x)
        return ad.mean(_chain_branch_op(views, m, gate, support.any(axis=-1), 1.0 / config.tau))

    l_pos = branch(x_pos, gates[0], pos)
    l_neg = branch(x_neg, gates[1], neg) if neg.any() else ad.constant(0.0)
    return l_pos, l_neg, ad.add(l_pos, l_neg)


def _op_and_chain(rng, soft_gate, hd_mode, dce_mode, negative_pair=slice(None),
                  noise=0.5):
    """``run(chain, weight)`` for one problem: the losses' bytes and every
    parameter's gradient after backward from the op at ``weight``, or from
    the chain under ``ad.scale(total, weight)``.  Also its threshold and the
    least entry of each window's M."""
    n, b, p, d = 6, 5, 2, 3
    config = TrainConfig(soft_gate=soft_gate, gate_temp=0.2, tau=0.4)
    reps = ad.constant(rng.normal(size=(b, p, n, d)))
    x = rng.normal(size=(b, n, 30))
    pair = x[negative_pair, 0]                              # a negative pair
    x[negative_pair, 1] = -pair + noise * rng.normal(size=pair.shape)
    r = corr.pearson_matrix(x)
    dce = corr.init_dce_params(n, d, degree=2, rank=2, embed_dim=3, rng=rng)
    hd = pj.init_hd_params(p, d, depth=1, rng=rng, shared=hd_mode == "single-branch")
    eps = ct.init_epsilon(0.25)
    params = dce.named_tensors() + hd.named_tensors() + eps.named_tensors()
    for _, t in params:
        t.data[...] += rng.normal(0.0, 0.3, size=t.shape)
    dce = dce if dce_mode == "full" else None

    def run(chain, weight=1.0):
        for _, t in params:
            t.grad = None
        x_pos, x_neg = pj.divide(hd, reps)
        temp = config.gate_temp if soft_gate else None
        if chain:
            terms = _chain(r, reps, dce, eps, x_pos, x_neg, config)
            terms = (*terms[:2], ad.scale(terms[2], weight))
        else:
            terms = ct.hpcl_loss(r, (x_pos, x_neg), config.tau, eps, temp, dce,
                                 reps.data, weight=weight)
        terms[-1].backward()
        return [t.data.tobytes() for t in terms], {name: t.grad for name, t in params}

    m = r if dce is None else corr.compose_correlation(r, *corr.dce_factors(reps.data, dce)[:2])
    return run, eps, m.min(axis=(-2, -1))


def _assert_op_is_the_chain(run, soft_gate, weights=(1.0, 0.7, 1.0 / 3)):
    for weight in weights:
        got, got_grads = run(chain=False, weight=weight)
        want, want_grads = run(chain=True, weight=weight)
        assert got == want, weight
        for name, g in want_grads.items():
            if name == "hpcl.eps_raw" and soft_gate:
                # the op sums eps's gradient per window, then over windows
                assert got_grads[name] == pytest.approx(g, rel=1e-14, abs=0.0)
            elif g is None:
                assert got_grads[name] is None, name
            else:
                assert got_grads[name].tobytes() == g.tobytes(), (name, weight)
    return want


@pytest.mark.parametrize("several_blocks", [False, True])
@pytest.mark.parametrize("dce_mode", ["full", "pearson-only"])
@pytest.mark.parametrize("hd_mode", ["dual", "single-branch"])
@pytest.mark.parametrize("soft_gate", [False, True])
def test_op_is_bitwise_the_chain_it_replaces(monkeypatch, soft_gate, hd_mode, dce_mode,
                                             several_blocks):
    # at the weights 1, 0.7 and 1/3, the op's gradients are those the chain
    # gets from ``ad.scale(total, weight)``, as `fit` recorded the term
    if several_blocks:          # two windows a block, the last one short
        monkeypatch.setattr(ad, "BLOCK_BYTES", 2 * 3 * 6 * 6 * 8)
    rng = np.random.default_rng(80 + 8 * soft_gate + 4 * (hd_mode == "dual")
                                + 2 * (dce_mode == "full") + several_blocks)
    want = _assert_op_is_the_chain(_op_and_chain(rng, soft_gate, hd_mode, dce_mode)[0],
                                   soft_gate)
    assert want[1] != np.float64(0.0).tobytes()             # both branches ran


@pytest.mark.parametrize("negative", ["nowhere", "in the last window"])
@pytest.mark.parametrize("several_blocks", [False, True])
@pytest.mark.parametrize("soft_gate", [False, True])
def test_op_is_bitwise_the_chain_when_negative_support_is_sparse(
        monkeypatch, soft_gate, several_blocks, negative):
    # a negative branch without support in any window is dropped; one with
    # support only in the last block still counts in the blocks before it
    if several_blocks:
        monkeypatch.setattr(ad, "BLOCK_BYTES", 2 * 3 * 6 * 6 * 8)
    counts, compose = [], ct.compose_correlation
    monkeypatch.setattr(ct, "compose_correlation",
                        lambda *a, count: counts.append(count) or compose(*a, count=count))
    last = negative != "nowhere"
    run, eps, lows = _op_and_chain(np.random.default_rng(90), soft_gate, "dual", "full",
                                   negative_pair=-1 if last else slice(0), noise=0.05)
    # a threshold that only the last window's M crosses, or none does
    cut = (max(-lows[:-1]) + (-lows[-1] if last else 1.0)) / 2
    assert -lows[-1] > cut > max(-lows[:-1]) if last else cut > max(-lows)
    eps.raw.data = np.array(math.log(math.expm1(cut)))
    want = _assert_op_is_the_chain(run, soft_gate)
    assert (want[1] != np.float64(0.0).tobytes()) == last
    # the blocks before the last one ran again, with the negative branch
    assert (False in counts) == (last and several_blocks)


@pytest.mark.parametrize("soft_gate", [False, True])
def test_backward_reads_no_input_and_forms_no_nxn_array(monkeypatch, soft_gate):
    # the op forms its gradients in the forward: with R, the views, the
    # representation and every parameter spoiled after it and
    # `compose_correlation` gone, backward hands out a clean run's bytes,
    # and allocates less than one window's N x N array on the way
    n, b = 64, 4
    monkeypatch.setattr(ad, "BLOCK_BYTES", 1)
    rng = np.random.default_rng(72)
    x = rng.normal(size=(b, n, 30))
    x[:, 1] = -x[:, 0]
    r, reps = corr.pearson_matrix(x), rng.normal(size=(b, 1, n, 2))
    views = [ad.parameter(rng.normal(size=(b, 1, n, 2))) for _ in range(2)]
    dce = corr.init_dce_params(n, 2, degree=2, rank=2, embed_dim=2, rng=rng)
    eps = ct.init_epsilon(0.3)
    params = views + [t for _, t in dce.named_tensors()] + [eps.raw]

    def grads(spoil):
        for t in params:
            t.grad = None
        *branches, total = ct.hpcl_loss(r, views, 0.5, eps, 0.2 if soft_gate else None,
                                        dce, reps)
        assert branches[1].item() != 0.0                   # both branches ran
        if spoil:
            monkeypatch.setattr(ct, "compose_correlation", None)
            for a in (r, reps, *(t.data for t in params)):
                a[...] = np.nan
            tracemalloc.start()
        try:
            total.backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 or not spoil, peak
        return [None if t.grad is None else t.grad.tobytes() for t in params]

    assert grads(spoil=False) == grads(spoil=True)


def test_weight_scales_the_total_and_zero_records_no_edge():
    rng = np.random.default_rng(73)
    views, m = _branch_inputs(rng, 3, 5)
    xs = [ad.parameter(views), ad.parameter(views[..., ::-1])]
    one = ct.hpcl_loss(ad.parameter(m), xs, 0.5, TINY)
    for weight in (0.7, 0.0):
        got = ct.hpcl_loss(ad.parameter(m), xs, 0.5, TINY, weight=weight)
        assert [t.data.tobytes() for t in got[:2]] == [t.data.tobytes() for t in one[:2]]
        assert got[2].data.tobytes() == (one[2].data * weight).tobytes()
        assert (got[2]._node is None) == (weight == 0.0)


def test_nan_similarity_raises():
    views = np.array([[[1.0, np.nan], [0.2, 1.0]]])          # one patch
    with pytest.raises(ad.NonFiniteError):
        ct.hpcl_loss(np.eye(2), [views] * 2, 0.5, TINY)


def test_kept_row_with_underflowing_numerator_raises():
    # orthogonal channels: row 0 weights only its pair at similarity 0,
    # whose exp((0 - 1) / tau) underflows to 0 at tiny tau
    x = np.eye(3, 4)[None]
    mask = np.zeros((3, 3))
    mask[0, 1] = 1.0
    with pytest.raises(ad.NonFiniteError):
        one_branch(ad.constant(x), ad.constant(mask), tau=1e-4)
    # the same row is fine at an ordinary tau
    assert np.isfinite(
        one_branch(ad.constant(x), ad.constant(mask), tau=0.5).item())


# ---------------------------------------------------------------------------
# blocks of windows


def _branch_inputs(rng, b, n, d=5):
    """Views as one patch, (b, 1, n, d), for both branches; a correlation
    with a unit diagonal and no entry of |m| <= 0.3."""
    views = rng.normal(size=(b, 1, n, d))
    m = np.clip(rng.normal(scale=0.6, size=(b, n, n)), -1.0, 1.0)
    m[np.abs(m) <= 0.3] = 0.0
    m[:, np.arange(n), np.arange(n)] = 1.0
    return views, m


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_views_in_the_last_block_raise(monkeypatch, bad):
    monkeypatch.setattr(ad, "BLOCK_BYTES", 2 * 24 * 8 * 8)    # two windows a block
    views, m = _branch_inputs(np.random.default_rng(67), 5, 8)
    views[-1, -1, -1, -1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # the error, not a numpy warning
        with pytest.raises(ad.NonFiniteError):
            ct.hpcl_loss(ad.parameter(m), [ad.constant(views)] * 2, 0.5, TINY)


def test_underflowing_kept_row_in_the_last_block_raises(monkeypatch):
    # as above, but in one window of a batch that runs a window a block:
    # its negative branch keeps only row 0's pair at similarity 0
    monkeypatch.setattr(ad, "BLOCK_BYTES", 1)
    views, m = _branch_inputs(np.random.default_rng(68), 4, 3, d=4)
    views[-1, 0] = np.eye(3, 4)
    m[-1] = np.eye(3)
    m[-1, 0, 1] = -1.0
    assert np.isfinite(ct.hpcl_loss(m, [views] * 2, 0.5, TINY)[-1].data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # the error, not a numpy warning
        with pytest.raises(ad.NonFiniteError):
            ct.hpcl_loss(m, [views] * 2, 1e-4, TINY)


@pytest.mark.parametrize("n", [8, 64])
def test_unbatched_window_matches_its_row_of_a_blocked_batch(monkeypatch, n):
    # the batch loss is the mean of its windows': weighting one window's
    # loss by 1/3 hands it the upstream gradient the batch mean hands each row
    monkeypatch.setattr(ad, "BLOCK_BYTES", 1)
    views, m = _branch_inputs(np.random.default_rng(69 + n), 3, n)

    def run(lead, weight=1.0):
        params = [ad.parameter(a[lead].copy()) for a in (views, views[..., ::-1], m)]
        *branches, loss = ct.hpcl_loss(params[2], params[:2], 0.5, TINY, weight=weight)
        loss.backward()
        return [b.data for b in branches], [p.grad for p in params]

    batch, grads = run(slice(None))
    ones = [run(i, 1.0 / 3) for i in range(3)]
    for i, branch in enumerate(batch):      # the total adds the branch means
        assert np.array([one[i] for one, _ in ones]).mean().tobytes() == branch.tobytes()
    for i, (_, one_grads) in enumerate(ones):
        for got, want in zip(one_grads, grads):
            assert got.tobytes() == want[i].tobytes()
