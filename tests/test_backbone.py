"""Backbone surrogate: fitting, forward oracle, normalization, checkpoints."""

import json
import struct
from pathlib import Path

import numpy as np
import pytest

from chancorr import backbone as bb
from chancorr import serialize
from chancorr.adapter import load_adapter


CFG = bb.BackboneConfig(lookback=32, horizon=8, patch_len=8, repr_dim=4, seed=3)


def trend_corpus(rng, n_windows=40, n=3, cfg=CFG):
    t = np.arange(cfg.lookback + cfg.horizon)
    slopes = rng.normal(size=(n_windows, n, 1))
    offsets = rng.normal(scale=5.0, size=(n_windows, n, 1))
    series = slopes * t + offsets
    return series[..., :cfg.lookback], series[..., cfg.lookback:]


# ---------------------------------------------------------------------------
# serialization


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(80)
    path = tmp_path / "blob.bin"
    config = {"alpha": 1.5, "name": "x", "flag": True}
    arrays = {"a": rng.normal(size=(3, 4)), "b": np.arange(5), "c": np.float64(2.5)}
    serialize.save_arrays(path, config, arrays)
    got_cfg, got = serialize.load_arrays(path)
    assert got_cfg == config
    assert np.array_equal(got["a"], arrays["a"]) and got["a"].dtype == np.float64
    assert np.array_equal(got["b"], np.arange(5)) and got["b"].dtype == np.int64
    assert got["c"].shape == () and got["c"] == 2.5


def test_load_rejects_corruption(tmp_path):
    rng = np.random.default_rng(81)
    path = tmp_path / "blob.bin"
    serialize.save_arrays(path, {}, {"a": rng.normal(size=10)})
    blob = path.read_bytes()

    bad_magic = tmp_path / "m.bin"
    bad_magic.write_bytes(b"NOTMAGIC" + blob[8:])
    with pytest.raises(serialize.SerializationError):
        serialize.load_arrays(bad_magic)

    truncated = tmp_path / "t.bin"
    truncated.write_bytes(blob[:-8])
    with pytest.raises(serialize.SerializationError):
        serialize.load_arrays(truncated)

    trailing = tmp_path / "x.bin"
    trailing.write_bytes(blob + b"\x00" * 8)
    with pytest.raises(serialize.SerializationError):
        serialize.load_arrays(trailing)


def _raw_checkpoint(path, header, payload=b""):
    body = json.dumps(header).encode("utf-8")
    path.write_bytes(serialize.MAGIC + struct.pack("<II", serialize.VERSION, len(body))
                     + body + payload)


def _edited(path, source, key=None, array=None, **updates):
    """Copy of ``source`` without header field ``key`` and array ``array``,
    and with the header ``updates`` applied."""
    config, arrays = serialize.load_arrays(source)
    config.pop(key, None)
    arrays.pop(array, None)
    config.update(updates)
    serialize.save_arrays(path, config, arrays)


V1_ADAPTER = Path(__file__).parent / "data" / "adapter_v1_hpcl.ckpt"
ADAPTER_BACKBONE = bb.BackboneState(
    config=bb.BackboneConfig(lookback=24, horizon=6, patch_len=8, repr_dim=8),
    embed=np.zeros((8, 8)), head=np.zeros((24, 6)))


def _entry(name, shape):
    return {"name": name, "shape": shape, "dtype": "float64"}


@pytest.mark.parametrize("case", [
    "negative-dim", "non-integer-dim", "arrays-not-a-list",
    "config-not-an-object", "adapter-without-n_channels",
    "adapter-with-zero-epochs", "adapter-with-negative-n_channels",
    "backbone-without-lookback",
    "backbone-without-head", "backbone-with-patch_len-7"])
def test_loaders_reject_malformed_headers(tmp_path, case):
    """Every malformed header is a SerializationError, never another
    exception or header bytes returned as payload."""
    path = tmp_path / "bad.ckpt"
    good = tmp_path / "good.ckpt"
    bb.save_backbone(bb.BackboneState(config=CFG, embed=np.zeros((8, 4)),
                                      head=np.zeros((16, 8))), good)
    if case == "negative-dim":
        _raw_checkpoint(path, {"config": {}, "arrays": [
            _entry("a", [-2]), _entry("b", [4])]}, bytes(16))
    elif case == "non-integer-dim":
        _raw_checkpoint(path, {"config": {}, "arrays": [_entry("a", [2.5])]},
                        bytes(16))
    elif case == "arrays-not-a-list":
        _raw_checkpoint(path, {"config": {}, "arrays": 5})
    elif case == "config-not-an-object":
        _raw_checkpoint(path, {"config": [1], "arrays": []})
    elif case == "adapter-without-n_channels":
        _edited(path, V1_ADAPTER, key="n_channels")
    elif case == "adapter-with-zero-epochs":
        _edited(path, V1_ADAPTER, epochs=0)
    elif case == "adapter-with-negative-n_channels":
        _edited(path, V1_ADAPTER, n_channels=-2)
    elif case == "backbone-without-lookback":
        _edited(path, good, key="lookback")
    elif case == "backbone-with-patch_len-7":
        _edited(path, good, patch_len=7)
    else:
        _edited(path, good, array="head")
    with pytest.raises(serialize.SerializationError):
        if case.endswith("dim") or case == "arrays-not-a-list":
            serialize.load_arrays(path)
        elif case.startswith("adapter"):
            load_adapter(path, ADAPTER_BACKBONE)
        else:
            bb.load_backbone(path)


def test_save_is_atomic_no_tmp_left(tmp_path):
    path = tmp_path / "blob.bin"
    serialize.save_arrays(path, {}, {"a": np.zeros(3)})
    assert [p.name for p in tmp_path.iterdir()] == ["blob.bin"]


@pytest.mark.parametrize("mode", ["w", "wb"])
def test_failed_atomic_write_leaves_old_file_and_no_tmp(tmp_path, mode):
    path = tmp_path / "out.txt"
    path.write_bytes(b"old contents")
    with pytest.raises(RuntimeError, match="disk full"):
        with serialize.atomic_open(path, mode) as fh:
            fh.write("partial" if mode == "w" else b"partial")
            raise RuntimeError("disk full")
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
    assert path.read_bytes() == b"old contents"


# ---------------------------------------------------------------------------
# pretraining


def test_constant_corpus_predicts_the_constant():
    levels = np.array([2.0, -1.0, 7.5])[None, :, None]
    x = np.repeat(np.repeat(levels, 5, axis=0), CFG.lookback, axis=2)
    y = np.repeat(np.repeat(levels, 5, axis=0), CFG.horizon, axis=2)
    state = bb.pretrain_backbone(x, y, CFG)
    out = bb.backbone_forward(state, x)
    assert np.abs(out.yhat - y).max() < 1e-12
    assert float(((out.yhat - y) ** 2).mean()) == pytest.approx(0.0, abs=1e-24)


def test_linear_trends_beat_mean_predictor():
    rng = np.random.default_rng(82)
    x, y = trend_corpus(rng)
    state = bb.pretrain_backbone(x, y, CFG)
    hx, hy = trend_corpus(rng)  # held out
    pred = bb.backbone_forward(state, hx).yhat
    mse = float(((pred - hy) ** 2).mean())
    baseline = float(((hy - hy.mean()) ** 2).mean())
    assert mse < 0.05 * baseline


def test_recovers_planted_patch_linear_model():
    # data generated by the model family itself -> near-zero fit error
    rng = np.random.default_rng(83)
    cfg = CFG
    embed_true = rng.normal(size=(cfg.patch_len, cfg.repr_dim))
    head_true = rng.normal(size=(cfg.n_patches * cfg.repr_dim, cfg.horizon))
    x = rng.normal(size=(60, 3, cfg.lookback))
    mean = x.mean(axis=-1, keepdims=True)
    std = np.sqrt(((x - mean) ** 2).mean(axis=-1, keepdims=True))
    xn = (x - mean) / std
    z = (xn.reshape(60, 3, cfg.n_patches, cfg.patch_len) @ embed_true)
    y = (z.reshape(60, 3, -1) @ head_true) * std + mean
    state = bb.pretrain_backbone(x, y, cfg, ridge=1e-10)
    assert state.train_mse < 1e-8


def test_pretraining_is_deterministic():
    rng = np.random.default_rng(84)
    x, y = trend_corpus(rng)
    a = bb.pretrain_backbone(x, y, CFG)
    b = bb.pretrain_backbone(x, y, CFG)
    assert np.array_equal(a.embed, b.embed)
    assert np.array_equal(a.head, b.head)


def test_corpus_shape_validation():
    rng = np.random.default_rng(85)
    x, y = trend_corpus(rng)
    with pytest.raises(Exception):
        bb.pretrain_backbone(x[..., :-1], y, CFG)
    with pytest.raises(Exception):
        bb.pretrain_backbone(x, y[..., :-1], CFG)
    with pytest.raises(ValueError):
        bb.BackboneConfig(lookback=30, patch_len=7)


# ---------------------------------------------------------------------------
# forward


def fitted_state():
    rng = np.random.default_rng(86)
    x, y = trend_corpus(rng)
    return bb.pretrain_backbone(x, y, CFG)


def test_forward_matches_dense_oracle():
    state = fitted_state()
    rng = np.random.default_rng(87)
    x = rng.normal(size=(4, 3, CFG.lookback))
    out = bb.backbone_forward(state, x)
    assert out.repr.shape == (4, CFG.n_patches, 3, CFG.repr_dim)
    assert out.yhat.shape == (4, 3, CFG.horizon)
    for b in range(4):
        for c in range(3):
            w = x[b, c]
            mu, sd = w.mean(), w.std()
            wn = (w - mu) / sd
            z = wn.reshape(CFG.n_patches, CFG.patch_len) @ state.embed
            want = (z.reshape(-1) @ state.head) * sd + mu
            assert np.abs(out.yhat[b, c] - want).max() < 1e-12
            assert np.abs(out.repr[b, :, c, :] - z).max() < 1e-12


def test_zero_variance_channel_predicts_its_level():
    state = fitted_state()
    rng = np.random.default_rng(88)
    x = rng.normal(size=(3, CFG.lookback))
    x[1] = 4.25
    out = bb.backbone_forward(state, x)
    assert np.abs(out.yhat[1] - 4.25).max() < 1e-12


def test_batch_independence():
    state = fitted_state()
    rng = np.random.default_rng(89)
    w = rng.normal(size=(3, CFG.lookback))
    single = bb.backbone_forward(state, w)
    double = bb.backbone_forward(state, np.stack([w, rng.normal(size=w.shape)]))
    assert np.array_equal(double.yhat[0], single.yhat)
    assert np.array_equal(double.repr[0], single.repr)


def test_channel_permutation_equivariance():
    state = fitted_state()
    rng = np.random.default_rng(90)
    x = rng.normal(size=(5, CFG.lookback))
    perm = rng.permutation(5)
    a = bb.backbone_forward(state, x)
    b = bb.backbone_forward(state, x[perm])
    assert np.array_equal(b.yhat, a.yhat[perm])
    assert np.array_equal(b.repr, a.repr[:, perm, :])


def test_identity_head_round_trips_the_window():
    # embed = I and a head that re-reads the flattened patches reproduce the
    # input itself, exercising normalize -> denormalize as an exact inverse
    cfg = bb.BackboneConfig(lookback=12, horizon=12, patch_len=4, repr_dim=4, seed=0)
    head = np.zeros((cfg.n_patches * cfg.repr_dim, cfg.horizon))
    for p in range(cfg.n_patches):
        for j in range(cfg.patch_len):
            head[p * cfg.repr_dim + j, p * cfg.patch_len + j] = 1.0
    state = bb.BackboneState(config=cfg, embed=np.eye(4), head=head)
    rng = np.random.default_rng(91)
    x = rng.normal(scale=3.0, size=(4, cfg.lookback)) + 10.0
    out = bb.backbone_forward(state, x)
    assert np.abs(out.yhat - x).max() < 1e-12


def test_forward_rejects_wrong_lookback():
    state = fitted_state()
    with pytest.raises(Exception):
        bb.backbone_forward(state, np.zeros((3, CFG.lookback + 1)))


def test_backbone_checkpoint_round_trip(tmp_path):
    state = fitted_state()
    path = tmp_path / "bb.bin"
    bb.save_backbone(state, path)
    loaded = bb.load_backbone(path)
    assert loaded.config == state.config
    assert np.array_equal(loaded.embed, state.embed)
    assert np.array_equal(loaded.head, state.head)
    assert loaded.train_mse == pytest.approx(state.train_mse)

    rng = np.random.default_rng(92)
    x = rng.normal(size=(2, 3, CFG.lookback))
    assert np.array_equal(bb.backbone_forward(loaded, x).yhat,
                          bb.backbone_forward(state, x).yhat)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("array", ["embed", "head"])
def test_load_backbone_rejects_non_finite_payloads(tmp_path, array, bad):
    state = fitted_state()
    getattr(state, array)[-1, -1] = bad
    path = tmp_path / "bb.bin"
    bb.save_backbone(state, path)
    with pytest.raises(serialize.SerializationError, match=f"'{array}'.*NaN or Inf"):
        bb.load_backbone(path)


def test_load_backbone_rejects_other_kinds(tmp_path):
    path = tmp_path / "x.bin"
    serialize.save_arrays(path, {"kind": "adapter"}, {"a": np.zeros(2)})
    with pytest.raises(serialize.SerializationError):
        bb.load_backbone(path)
