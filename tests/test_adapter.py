"""Adapter assembly: init geometry, losses, prediction path, checkpoints."""

import warnings
from pathlib import Path

import numpy as np
import pytest

from chancorr import autodiff as ad
from chancorr.adapter import (backbone_parameter_count, branch_views,
                              correlation_estimate, init_adapter,
                              load_adapter, named_parameters,
                              parameter_count, predict, save_adapter,
                              state_tensors, training_losses)
from chancorr.backbone import BackboneConfig, backbone_forward, pretrain_backbone
from chancorr.config import TrainConfig, with_updates
from chancorr.correlation import correlation_matrix_allocations, pearson_matrix
from chancorr.projection import divide
from chancorr.serialize import SerializationError, load_arrays

DATA = Path(__file__).parent / "data"


def tiny_backbone(seed=0, n=4, b=40):
    rng = np.random.default_rng(seed)
    cfg = BackboneConfig(lookback=24, horizon=6, patch_len=8, repr_dim=8, seed=seed)
    x = rng.normal(size=(b, n, cfg.lookback))
    y = rng.normal(size=(b, n, cfg.horizon))
    return pretrain_backbone(x, y, cfg), x, y


def small_config(**overrides):
    base = TrainConfig(depth_division=1, depth_fusion=1, embed_dim=4,
                       poly_degree=2, rank=2)
    return with_updates(base, **overrides) if overrides else base


def test_init_geometry_and_counts():
    backbone, _, _ = tiny_backbone()
    state = init_adapter(backbone, n_channels=4, config=small_config())
    assert state.n_channels == 4
    assert state.n_patches == 3
    assert state.repr_dim == 8
    assert state.horizon == 6
    names = [n for n, _ in named_parameters(state)]
    assert names[0].startswith("dce.")
    assert "hpcl.eps_raw" in names
    assert "fusion.beta_logits" in names
    assert parameter_count(state) == sum(
        t.data.size for _, t in named_parameters(state))
    assert backbone_parameter_count(backbone) > 0


def test_named_parameters_follow_config_switches():
    backbone, _, _ = tiny_backbone()
    full = init_adapter(backbone, 4, small_config())
    pearson = init_adapter(backbone, 4, small_config(dce_mode="pearson-only"))
    shared = init_adapter(backbone, 4, small_config(hd_mode="single-branch"))
    no_hpcl = init_adapter(backbone, 4, small_config(hpcl=False))

    assert not any(n.startswith("dce.") for n, _ in named_parameters(pearson))
    assert any(n.startswith("dce.") for n, _ in named_parameters(full))
    full_hd = [n for n, _ in named_parameters(full) if n.startswith("hd.")]
    shared_hd = [n for n, _ in named_parameters(shared) if n.startswith("hd.")]
    assert len(shared_hd) == len(full_hd) // 2   # negative branch reuses positive
    assert all(n != "hpcl.eps_raw" for n, _ in named_parameters(no_hpcl))


def test_same_seed_same_init():
    backbone, _, _ = tiny_backbone()
    a = init_adapter(backbone, 4, small_config(seed=9))
    b = init_adapter(backbone, 4, small_config(seed=9))
    for (na, ta), (nb, tb) in zip(named_parameters(a), named_parameters(b)):
        assert na == nb
        assert np.array_equal(ta.data, tb.data)


def test_predict_matches_backbone_when_gate_closed():
    backbone, x, _ = tiny_backbone(seed=1)
    cfg = small_config(beta_logit_init=-30.0)
    state = init_adapter(backbone, 4, cfg)
    out = backbone_forward(backbone, x)
    ystar = predict(state, out)
    assert np.abs(ystar - out.yhat).max() < 1e-9


def test_predict_near_backbone_at_default_init():
    backbone, x, _ = tiny_backbone(seed=2)
    state = init_adapter(backbone, 4, small_config())   # beta_logit_init -5
    out = backbone_forward(backbone, x)
    ystar = predict(state, out)
    rel = np.linalg.norm(ystar - out.yhat) / np.linalg.norm(out.yhat)
    assert rel < 0.02


def test_predict_uses_no_correlation_path():
    backbone, x, _ = tiny_backbone(seed=3)
    state = init_adapter(backbone, 4, small_config())
    out = backbone_forward(backbone, x)
    before = correlation_matrix_allocations()
    predict(state, out)
    assert correlation_matrix_allocations() == before


def test_predict_and_branch_views_reject_non_finite_values():
    backbone, x, _ = tiny_backbone(seed=3)
    state = init_adapter(backbone, 4, small_config(beta_logit_init=0.0))
    out = backbone_forward(backbone, x)
    assert np.isfinite(predict(state, out)).all()

    state.fusion.head_w.data[0, 0] = np.nan
    with pytest.raises(ad.NonFiniteError):
        predict(state, out)
    state.fusion.head_w.data[0, 0] = 0.0

    out.repr[0, 0, 0, 0] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # the error, not a numpy warning
        with pytest.raises(ad.NonFiniteError):
            predict(state, out)
        with pytest.raises(ad.NonFiniteError):
            branch_views(state, out)


def test_training_losses_keys_and_prediction_value():
    backbone, x, y = tiny_backbone(seed=4)
    state = init_adapter(backbone, 4, small_config())
    out = backbone_forward(backbone, x)
    y_norm = (y - out.mean) / out.std
    r = pearson_matrix(x)
    losses = training_losses(state, out.repr, out.yhat_norm, y_norm, r)
    assert set(losses) >= {"prediction", "l_pos", "l_neg", "aux", "ystar"}
    manual = np.mean((losses["ystar"].data - y_norm) ** 2)
    assert abs(losses["prediction"].data - manual) < 1e-12


def test_training_losses_requires_correlation_when_hpcl():
    backbone, x, y = tiny_backbone(seed=5)
    state = init_adapter(backbone, 4, small_config())
    out = backbone_forward(backbone, x)
    y_norm = (y - out.mean) / out.std
    with pytest.raises(ValueError):
        training_losses(state, out.repr, out.yhat_norm, y_norm, None)


def test_correlation_estimate_pearson_only_passthrough():
    backbone, x, _ = tiny_backbone(seed=6)
    state = init_adapter(backbone, 4, small_config(dce_mode="pearson-only"))
    out = backbone_forward(backbone, x)
    r = pearson_matrix(x)
    m = correlation_estimate(state, ad.constant(out.repr), r)
    assert np.array_equal(m.data, r)


def test_correlation_estimate_full_blends_components():
    backbone, x, _ = tiny_backbone(seed=7)
    state = init_adapter(backbone, 4, small_config())
    out = backbone_forward(backbone, x)
    r = pearson_matrix(x)
    m = correlation_estimate(state, ad.constant(out.repr), r)
    assert m.data.shape == r.shape
    assert np.all(np.isfinite(m.data))


def _transposed_views(state, out):
    """Reference: the (..., P, N, d) branch outputs moved to (..., N, P*d)
    by a plain numpy transpose and reshape."""
    with ad.no_grad():
        views = divide(state.hd, ad.constant(out.repr))
    flat = []
    for v in views:
        nd = v.ndim
        moved = np.transpose(v.data, tuple(range(nd - 3)) + (nd - 2, nd - 3, nd - 1))
        flat.append(moved.reshape(moved.shape[:-2] + (-1,)))
    return flat


def test_branch_views_shapes():
    backbone, x, _ = tiny_backbone(seed=8)
    state = init_adapter(backbone, 4, small_config())
    rng = np.random.default_rng(9)
    for _, t in named_parameters(state):
        t.data[...] += rng.normal(0.0, 0.1, size=t.shape)
    for windows in (x, x[5]):
        out = backbone_forward(backbone, windows)
        pos, neg = branch_views(state, out)
        assert pos.shape == windows.shape[:-1] + (3 * 8,)
        assert neg.shape == pos.shape
        ref_pos, ref_neg = _transposed_views(state, out)
        assert pos.tobytes() == ref_pos.tobytes()
        assert neg.tobytes() == ref_neg.tobytes()
        assert not np.array_equal(pos, neg)


@pytest.mark.parametrize("overrides", [
    {},
    {"dce_mode": "pearson-only", "hd_mode": "single-branch"},
    {"hpcl": False},
    {"rank": None, "poly_degree": 3},
])
def test_save_load_round_trip(tmp_path, overrides):
    backbone, x, _ = tiny_backbone(seed=10)
    cfg = small_config(**overrides)
    state = init_adapter(backbone, 4, cfg)
    rng = np.random.default_rng(11)
    for _, t in named_parameters(state):
        t.data += rng.normal(0, 0.05, size=t.data.shape)
    state.eps.raw.data[...] = 0.125     # not the init value, HPCL on or off
    path = tmp_path / "adapter.npz"
    save_adapter(state, path)
    loaded = load_adapter(path, backbone)
    assert loaded.train_config == cfg
    saved, restored = state_tensors(state), state_tensors(loaded)
    assert [n for n, _ in saved] == [n for n, _ in restored]
    for (_, ta), (_, tb) in zip(saved, restored):
        assert np.array_equal(ta.data, tb.data)
    out = backbone_forward(backbone, x)
    assert np.array_equal(predict(state, out), predict(loaded, out))


@pytest.mark.parametrize("name", ["adapter_v1_hpcl.ckpt", "adapter_v1_nohpcl.ckpt"])
def test_loads_v1_checkpoints(name):
    """Checkpoints written before `state_tensors` existed (HPCL on and off,
    ``small_config()`` geometry): every stored array is a state tensor, and
    it loads bit for bit."""
    backbone, x, _ = tiny_backbone(seed=10)
    _, arrays = load_arrays(DATA / name)
    state = load_adapter(DATA / name, backbone)
    tensors = state_tensors(state)
    assert sorted(n for n, _ in tensors) == sorted(arrays)
    for n, t in tensors:
        assert np.array_equal(t.data, arrays[n])
    assert arrays["hpcl.eps_raw"] == 0.125
    assert np.isfinite(predict(state, backbone_forward(backbone, x))).all()


def test_load_rejects_wrong_geometry(tmp_path):
    backbone, _, _ = tiny_backbone(seed=12)
    state = init_adapter(backbone, 4, small_config())
    path = tmp_path / "adapter.npz"
    save_adapter(state, path)
    other_cfg = BackboneConfig(lookback=32, horizon=6, patch_len=8,
                               repr_dim=8, seed=12)
    rng = np.random.default_rng(13)
    other = pretrain_backbone(rng.normal(size=(30, 4, 32)),
                              rng.normal(size=(30, 4, 6)), other_cfg)
    with pytest.raises(SerializationError):
        load_adapter(path, other)


def test_load_rejects_wrong_kind(tmp_path):
    from chancorr.backbone import save_backbone
    backbone, _, _ = tiny_backbone(seed=14)
    path = tmp_path / "model.npz"
    save_backbone(backbone, path)
    with pytest.raises(SerializationError):
        load_adapter(path, backbone)
