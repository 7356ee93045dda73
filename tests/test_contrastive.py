"""Contrastive objective against a double-loop oracle, mask semantics."""

import math

import numpy as np
import pytest

from chancorr import autodiff as ad
from chancorr import contrastive as ct
from chancorr import correlation as corr
from chancorr import projection as pj


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
    assert masks.pos.data[0, 1] == 0.5
    assert masks.neg.data[0, 2] == -0.7
    assert masks.pos.data[1, 2] == 0.0


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
    eps = ct.init_epsilon(0.3)
    masks = ct.threshold_masks(m, eps)
    ad.tensor_sum(ad.add(masks.pos, masks.neg)).backward()
    # gradient 1 on kept entries (either mask), 0 on dropped and into eps
    expected = (masks.pos_support | masks.neg_support).astype(float)
    assert np.array_equal(m.grad, expected)
    assert eps.raw.grad is None


def test_soft_gate_trains_epsilon():
    rng = np.random.default_rng(60)
    m = ad.parameter(np.clip(rng.normal(scale=0.6, size=(4, 4)), -1, 1))
    eps = ct.init_epsilon(0.3)
    cfg = ct.HpclConfig(soft_gate=True)
    masks = ct.threshold_masks(m, eps, cfg)
    ad.tensor_sum(ad.add(masks.pos, masks.neg)).backward()
    assert eps.raw.grad is not None
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


def test_aux_loss_gradients_match_fd_through_masks():
    """Gradients reach projection AND correlation parameters through the
    retained mask values, matching finite differences."""
    rng = np.random.default_rng(63)
    n, p, d = 4, 2, 5
    reps = ad.constant(rng.normal(size=(p, n, d)))
    raw_window = rng.normal(size=(n, 30))
    r = corr.pearson_matrix(raw_window)
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
        masks = ct.threshold_masks(m, eps)
        x_pos, x_neg = pj.divide(hd, reps)
        _, _, total = ct.aux_loss(x_pos, x_neg, masks)
        return total

    params = dce.named_tensors() + hd.named_tensors()
    report = ad.grad_check(loss, params, tol=1e-4, max_entries_per_param=20)
    assert report.passed, str(report)


# ---------------------------------------------------------------------------
# fused ops against the generic-op composite they replace


def reference_threshold_masks(m, eps, config):
    """Masks built from generic ops only: float supports via ``constant``."""
    pos_support = (m.data > eps.numeric()) | np.eye(m.shape[-1], dtype=bool)
    neg_support = m.data < -eps.numeric()
    if config.soft_gate:
        eps_t, inv_temp = eps.value, 1.0 / config.gate_temp
        gate_pos = ad.sigmoid(ad.scale(ad.subtract(m, eps_t), inv_temp))
        gate_neg = ad.sigmoid(ad.scale(ad.subtract(ad.scale(m, -1.0), eps_t),
                                       inv_temp))
        pos, neg = ad.multiply(m, gate_pos), ad.multiply(m, gate_neg)
    else:
        pos = ad.multiply(m, ad.constant(pos_support))
        neg = ad.multiply(m, ad.constant(neg_support))
    return ct.MaskPair(pos=pos, neg=neg, pos_support=pos_support,
                       neg_support=neg_support)


def reference_contrastive_loss(x, mask, tau, row_support=None):
    """subtract -> scale -> exp -> two row sums -> two logs, op by op."""
    sims = ad.cosine_similarity_matrix(pj.flatten_per_channel(x))
    shift = ad.constant(sims.data.max(axis=-1, keepdims=True))
    e = ad.exp(ad.scale(ad.subtract(sims, shift), 1.0 / tau))
    num = ad.tensor_sum(ad.multiply(mask, e), axis=-1)
    den = ad.tensor_sum(e, axis=-1)
    if row_support is None:
        keep = (np.abs(mask.data) > 0).any(axis=-1)
    else:
        keep = np.broadcast_to(row_support, num.shape)
    keep_f = keep.astype(np.float64)
    counts = np.maximum(keep_f.sum(axis=-1), 1.0)
    safe_num = ad.add(num, ad.constant(1.0 - keep_f))
    terms = ad.multiply(ad.subtract(ad.log(safe_num), ad.log(den)),
                        ad.constant(keep_f))
    per_window = ad.divide(ad.tensor_sum(terms, axis=-1), ad.constant(counts))
    return ad.scale(ad.mean(per_window), -1.0)


def reference_aux_loss(x_pos, x_neg, masks, config):
    def magnitude(w):
        return ad.multiply(w, ad.constant(np.sign(w.data)))

    l_pos = reference_contrastive_loss(x_pos, magnitude(masks.pos), config.tau,
                                       masks.pos_support.any(axis=-1))
    l_neg = reference_contrastive_loss(x_neg, magnitude(masks.neg), config.tau,
                                       masks.neg_support.any(axis=-1))
    return l_pos, l_neg, ad.add(l_pos, l_neg)


def _run(build, arrays):
    """Loss bytes and gradient bytes of ``build(*params)``; a fresh set of
    parameters per call."""
    params = [ad.parameter(a.copy()) for a in arrays]
    loss = build(*params)
    loss.backward()
    return loss.data.tobytes(), [None if p.grad is None else p.grad.tobytes()
                                 for p in params]


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
    config = ct.HpclConfig(soft_gate=soft_gate)

    def fused(xp, xn, mt, raw):
        masks = ct.threshold_masks(mt, ct.EpsilonParam(raw=raw), config)
        assert masks.neg_support.any()
        return ct.aux_loss(xp, xn, masks, config)[2]

    def generic(xp, xn, mt, raw):
        masks = reference_threshold_masks(mt, ct.EpsilonParam(raw=raw), config)
        return reference_aux_loss(xp, xn, masks, config)[2]

    raw = np.array(math.log(math.expm1(0.3)))
    want = _run(generic, [x_pos, x_neg, m, raw])
    assert _run(fused, [x_pos, x_neg, m, raw]) == want
    assert (want[1][3] is None) == (not soft_gate)   # eps trains only if soft


@pytest.mark.parametrize("batch", [0, 3])
@pytest.mark.parametrize("given_rows", [False, True])
def test_fused_contrastive_loss_bit_identical_to_generic_composite(given_rows, batch):
    rng = np.random.default_rng(65 + batch + given_rows)
    x, _, _ = _views_and_corr(rng, batch)
    mask = rng.uniform(0.0, 1.0, size=x.shape[:-3] + (6, 6))
    mask[rng.uniform(size=mask.shape) < 0.4] = 0.0
    mask[..., 2, :] = 0.0                       # one empty row per window
    rows = (mask > 0).any(axis=-1) if given_rows else None
    want = _run(lambda a, w: reference_contrastive_loss(a, w, 0.5, rows), [x, mask])
    got = _run(lambda a, w: ct.contrastive_loss(a, w, 0.5, rows), [x, mask])
    assert got == want


def test_nan_similarity_raises():
    sims = np.array([[1.0, np.nan], [0.2, 1.0]])
    with pytest.raises(ad.NonFiniteError):
        ad.log_mass_ratio(ad.constant(sims), ad.constant(np.eye(2)),
                          np.zeros(2), 2.0)


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
