"""Contrastive objective against a double-loop oracle, mask semantics."""

import math
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
            got = ct.contrastive_loss(ad.constant(x), ad.constant(mask), tau=0.5).item()
            want = loss_oracle(flat_views(x), mask.tolist(), 0.5)
            worst = max(worst, abs(got - want))
    assert worst < 1e-10


def test_loss_with_empty_rows_skips_them():
    rng = np.random.default_rng(52)
    x = rng.normal(size=(2, 4, 3))
    mask = np.zeros((4, 4))
    mask[1, 2] = 0.7
    mask[3, 0] = 0.4  # rows 0 and 2 empty -> averaged over 2 rows only
    got = ct.contrastive_loss(ad.constant(x), ad.constant(mask), tau=0.5).item()
    want = loss_oracle(flat_views(x), mask.tolist(), 0.5)
    assert got == pytest.approx(want, abs=1e-12)


def test_two_identical_channels_self_mask_gives_log2():
    rng = np.random.default_rng(53)
    one = rng.normal(size=(2, 1, 5))
    x = np.repeat(one, 2, axis=1)  # identical channels: all sims are 1
    mask = np.eye(2)
    loss = ct.contrastive_loss(ad.constant(x), ad.constant(mask), tau=0.5)
    assert loss.item() == pytest.approx(math.log(2.0), abs=1e-12)


def test_full_unit_mask_reaches_zero_lower_bound():
    rng = np.random.default_rng(54)
    x = rng.normal(size=(1, 5, 4))
    loss = ct.contrastive_loss(ad.constant(x), ad.constant(np.ones((5, 5))), tau=0.5)
    assert loss.item() == pytest.approx(0.0, abs=1e-12)


def test_loss_nonnegative_for_unit_bounded_weights():
    rng = np.random.default_rng(55)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        x = rng.normal(size=(2, n, 3))
        mask = rng.uniform(0.0, 1.0, size=(n, n)) * (rng.uniform(size=(n, n)) < 0.6)
        loss = ct.contrastive_loss(ad.constant(x), ad.constant(mask), tau=0.5).item()
        assert loss >= -1e-12


def test_batched_loss_is_mean_of_windows():
    rng = np.random.default_rng(56)
    xs = rng.normal(size=(3, 2, 4, 5))
    masks = rng.uniform(0.0, 1.0, size=(3, 4, 4))
    batched = ct.contrastive_loss(ad.constant(xs), ad.constant(masks), tau=0.5).item()
    singles = [
        ct.contrastive_loss(ad.constant(xs[b]), ad.constant(masks[b]), tau=0.5).item()
        for b in range(3)
    ]
    assert batched == pytest.approx(np.mean(singles), abs=1e-12)


def test_channel_permutation_invariance():
    rng = np.random.default_rng(57)
    x = rng.normal(size=(2, 5, 4))
    mask = rng.uniform(0.0, 1.0, size=(5, 5))
    perm = rng.permutation(5)
    a = ct.contrastive_loss(ad.constant(x), ad.constant(mask), tau=0.5).item()
    b = ct.contrastive_loss(ad.constant(x[:, perm, :]),
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
    base = ct.contrastive_loss(ad.constant(apart), ad.constant(mask), tau=0.5).item()
    moved = ct.contrastive_loss(ad.constant(together), ad.constant(mask), tau=0.5).item()
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
    assert masks.pos_gate is masks.pos_support
    assert len(sink) == 2
    for packed, support in zip(sink, (masks.pos_support, masks.neg_support)):
        assert np.array_equal(np.unpackbits(packed)[:9].astype(bool), support.ravel())
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
    """A closure of threshold + aux loss over fresh DCE and projection
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
        q = corr.time_varying_component(reps, dce)
        v = corr.time_invariant_component(dce)
        m = corr.compose_correlation(r, q, v)
        masks = ct.threshold_masks(m, eps, config)
        x_pos, x_neg = pj.divide(hd, reps)
        _, _, total = ct.aux_loss(x_pos, x_neg, masks, config)
        return total

    return loss, dce.named_tensors() + hd.named_tensors() + eps.named_tensors()


def test_aux_loss_gradients_match_fd_through_masks():
    """Gradients reach projection AND correlation parameters through the
    retained mask values, matching finite differences."""
    loss, params = _fd_problem(np.random.default_rng(63), TrainConfig())
    report = ad.grad_check(loss, params, tol=1e-4, max_entries_per_param=20)
    assert report.passed, str(report)


def test_soft_gate_gradients_match_fd_in_batches():
    """Soft gates: the threshold trains too, through every window."""
    config = TrainConfig(soft_gate=True, gate_temp=0.2)
    loss, params = _fd_problem(np.random.default_rng(66), config, lead=(3,))
    report = ad.grad_check(loss, params, tol=1e-4, max_entries_per_param=12)
    assert report.passed, str(report)
    assert report.results[-1].name == "hpcl.eps_raw" and report.results[-1].checked


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
@pytest.mark.parametrize("given_rows", [False, True])
def test_fused_contrastive_loss_bit_identical_to_generic_composite(given_rows, batch):
    rng = np.random.default_rng(65 + batch + given_rows)
    x, _, _ = _views_and_corr(rng, batch)
    mask = rng.uniform(0.0, 1.0, size=x.shape[:-3] + (6, 6))
    mask[rng.uniform(size=mask.shape) < 0.4] = 0.0
    mask[..., 2, :] = 0.0                       # one empty row per window
    rows = (mask > 0).any(axis=-1)
    g_out = np.full(x.shape[:-3], 1.0 / (batch or 1))
    loss, g_x, g_mask, _ = reference_branch(x, mask, mask != 0, rows, 0.5, g_out)
    got = _run(lambda a, w: ct.contrastive_loss(a, w, 0.5, rows if given_rows else None),
               [x, mask])
    _assert_same_bits(got, (loss.mean(), [g_x, g_mask]))


def test_nan_similarity_raises():
    views = np.array([[1.0, np.nan], [0.2, 1.0]])
    with pytest.raises(ad.NonFiniteError):
        ad.hpcl_loss(ad.constant(views), ad.constant(np.eye(2)), np.eye(2, dtype=bool),
                     np.ones(2, dtype=bool), 2.0)


def test_kept_row_with_underflowing_numerator_raises():
    # orthogonal channels: row 0 weights only its pair at similarity 0,
    # whose exp((0 - 1) / tau) underflows to 0 at tiny tau
    x = np.eye(3, 4)[None]
    mask = np.zeros((3, 3))
    mask[0, 1] = 1.0
    with pytest.raises(ad.NonFiniteError):
        ct.contrastive_loss(ad.constant(x), ad.constant(mask), tau=1e-4)
    # the same row is fine at an ordinary tau
    assert np.isfinite(
        ct.contrastive_loss(ad.constant(x), ad.constant(mask), tau=0.5).item())


# ---------------------------------------------------------------------------
# blocks of windows


def _branch_inputs(rng, b, n, d=5):
    views = rng.normal(size=(b, n, d))
    m = np.clip(rng.normal(scale=0.6, size=(b, n, n)), -1.0, 1.0)
    support = np.abs(m) > 0.3
    support[:, np.arange(n), np.arange(n)] = True
    return views, m, support, support.any(axis=-1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_views_in_the_last_block_raise(monkeypatch, bad):
    monkeypatch.setattr(ad, "BLOCK_BYTES", 2 * 24 * 8 * 8)    # two windows a block
    views, m, support, rows = _branch_inputs(np.random.default_rng(67), 5, 8)
    views[-1, -1, -1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # the error, not a numpy warning
        with pytest.raises(ad.NonFiniteError):
            ad.hpcl_loss(ad.constant(views), ad.parameter(m), support, rows, 2.0)


def test_underflowing_kept_row_in_the_last_block_raises(monkeypatch):
    # as below, but in one window of a batch that runs a window a block
    monkeypatch.setattr(ad, "BLOCK_BYTES", 1)
    views, m, support, rows = _branch_inputs(np.random.default_rng(68), 4, 3, d=4)
    views[-1] = np.eye(3, 4)
    support[-1], rows[-1] = False, False
    support[-1, 0, 1] = rows[-1, 0] = True
    m[-1, 0, 1] = 1.0
    assert np.isfinite(ad.hpcl_loss(ad.constant(views), ad.constant(m), support,
                                    rows, 2.0).data).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # the error, not a numpy warning
        with pytest.raises(ad.NonFiniteError):
            ad.hpcl_loss(ad.constant(views), ad.constant(m), support, rows, 1e4)


@pytest.mark.parametrize("n", [8, 64])
def test_unbatched_window_matches_its_row_of_a_blocked_batch(monkeypatch, n):
    monkeypatch.setattr(ad, "BLOCK_BYTES", 1)
    rng = np.random.default_rng(69 + n)
    views, m, gate, rows = _branch_inputs(rng, 3, n)
    weights = rng.uniform(0.5, 1.5, size=3)

    def run(lead):
        params = [ad.parameter(a[lead].copy()) for a in (views, m)]
        out = ad.hpcl_loss(*params, gate[lead], rows[lead], 2.0)
        ad.tensor_sum(ad.multiply(out, ad.constant(weights[lead]))).backward()
        return out.data, [p.grad for p in params]

    batch, grads = run(slice(None))
    for i in range(3):
        one, one_grads = run(i)
        assert one.tobytes() == batch[i].tobytes()
        for got, want in zip(one_grads, grads):
            assert got.tobytes() == want[i].tobytes()
