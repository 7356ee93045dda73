"""Backbone surrogate: fitting, forward oracle, normalization, checkpoints."""

import dataclasses
import json
import math
import struct
from pathlib import Path

import numpy as np
import pytest

from chancorr import backbone as bb
from chancorr import serialize, train
from chancorr.adapter import load_adapter
from chancorr.config import ConfigError
from chancorr.data import DataError


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


# headers whose fit report save_backbone cannot have written
BAD_FIT_REPORTS = {
    "backbone-with-ridge-text": {"ridge": "1e-3"},
    "backbone-with-ridge-true": {"ridge": True},
    "backbone-with-negative-ridge": {"ridge": -1.0},
    "backbone-with-ridge-nan": {"ridge": float("nan")},
    "backbone-with-train_mse-text": {"train_mse": "0.5"},
    "backbone-with-train_mse-true": {"train_mse": True},
    "backbone-with-negative-train_mse": {"train_mse": -1.0},
    "backbone-with-train_mse-inf": {"train_mse": float("inf")},
    "backbone-with-als_rounds-2.5": {"als_rounds": 2.5},
    "backbone-with-als_rounds-true": {"als_rounds": True},
    "backbone-with-als_stop-list": {"als_stop": ["x"]},
    "backbone-with-als_stop-done": {"als_stop": "done"},
    "backbone-with-negative-ridge_escalations": {"ridge_escalations": -1},
    "backbone-with-ridge_escalations-text": {"ridge_escalations": "3"}}


@pytest.mark.parametrize("case", [
    "negative-dim", "non-integer-dim", "arrays-not-a-list",
    "config-not-an-object", "adapter-without-n_channels",
    "adapter-with-zero-epochs", "adapter-with-negative-n_channels",
    "adapter-with-huge-lr", "adapter-with-huge-tau",
    "backbone-without-lookback", "backbone-with-huge-train_mse",
    "backbone-without-head", "backbone-with-patch_len-7", *BAD_FIT_REPORTS])
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
    elif case.startswith("adapter-with-huge"):     # no float holds 10**400
        _edited(path, V1_ADAPTER, **{case.rpartition("-")[2]: 10 ** 400})
    elif case == "backbone-with-huge-train_mse":
        _edited(path, good, train_mse=10 ** 400)
    elif case == "backbone-without-lookback":
        _edited(path, good, key="lookback")
    elif case == "backbone-with-patch_len-7":
        _edited(path, good, patch_len=7)
    elif case in BAD_FIT_REPORTS:
        _edited(path, good, **BAD_FIT_REPORTS[case])
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


def planted_corpus(rng):
    """Windows whose targets the model family itself generates."""
    cfg = CFG
    embed_true = rng.normal(size=(cfg.patch_len, cfg.repr_dim))
    head_true = rng.normal(size=(cfg.n_patches * cfg.repr_dim, cfg.horizon))
    x = rng.normal(size=(60, 3, cfg.lookback))
    mean = x.mean(axis=-1, keepdims=True)
    std = np.sqrt(((x - mean) ** 2).mean(axis=-1, keepdims=True))
    xn = (x - mean) / std
    z = (xn.reshape(60, 3, cfg.n_patches, cfg.patch_len) @ embed_true)
    y = (z.reshape(60, 3, -1) @ head_true) * std + mean
    return x, y


def test_recovers_planted_patch_linear_model():
    # data generated by the model family itself -> near-zero fit error
    x, y = planted_corpus(np.random.default_rng(83))
    state = bb.pretrain_backbone(x, y, CFG, ridge=1e-10)
    assert state.train_mse < 1e-8


@pytest.mark.parametrize("seed, rounds, stop", [(83, None, "stall"),
                                                 (87, bb.ALS_ROUNDS, "cap")])
def test_fit_reports_how_als_ended(tmp_path, seed, rounds, stop):
    # the seed-87 corpus runs every round and stays far from an exact fit;
    # the report says so, and saving and loading keeps it and every bit
    x, y = planted_corpus(np.random.default_rng(seed))
    state = bb.pretrain_backbone(x, y, CFG, ridge=1e-10)
    assert (state.als_stop, state.ridge_escalations) == (stop, 0)
    assert state.als_rounds == rounds or rounds is None and state.als_rounds < bb.ALS_ROUNDS
    bb.save_backbone(state, tmp_path / "bb.bin")
    loaded = bb.load_backbone(tmp_path / "bb.bin")
    assert (loaded.als_rounds, loaded.als_stop, loaded.ridge_escalations) == \
        (state.als_rounds, stop, 0)
    assert loaded.embed.tobytes() == state.embed.tobytes()


def test_escalations_add_over_the_solves(monkeypatch):
    x, y = trend_corpus(np.random.default_rng(95))
    solve, calls = np.linalg.solve, []

    def flaky(a, b):                    # every fit's first try is singular
        calls.append(a)
        if len(calls) % 2:
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    monkeypatch.setattr(bb, "ALS_ROUNDS", 2)   # head, embed, head
    monkeypatch.setattr(np.linalg, "solve", flaky)
    state = bb.pretrain_backbone(x, y, CFG, ridge=1e-6)
    assert (state.ridge_escalations, state.als_rounds, len(calls)) == (3, 2, 6)


def test_older_backbone_files_load_without_the_report(tmp_path):
    state = fitted_state()
    path = tmp_path / "bb.bin"
    header = {"kind": "backbone", "lookback": CFG.lookback, "horizon": CFG.horizon,
              "patch_len": CFG.patch_len, "repr_dim": CFG.repr_dim, "seed": CFG.seed,
              "train_mse": state.train_mse, "ridge": state.ridge}
    serialize.save_arrays(path, header, {"embed": state.embed, "head": state.head})
    loaded = bb.load_backbone(path)
    assert (loaded.als_rounds, loaded.als_stop, loaded.ridge_escalations) == (0, "", 0)
    assert loaded.head.tobytes() == state.head.tobytes()


def als_oracle(x, y, cfg, ridge):
    """Alternating ridge least squares with every fit's normal equations
    rebuilt from the (window, channel) instances, 128 at a time.

    Returns (embed, head, train_mse, names of the solves in order)."""
    mean = x.mean(axis=-1, keepdims=True)
    std = np.maximum(np.sqrt(((x - mean) ** 2).mean(axis=-1, keepdims=True)),
                     bb.NORM_EPS)
    p_count, l, d, f = cfg.n_patches, cfg.patch_len, cfg.repr_dim, cfg.horizon
    patches = ((x - mean) / std).reshape(-1, p_count, l)
    targets = ((y - mean) / std).reshape(-1, f)
    n_inst = patches.shape[0]
    solves = []

    def solve(gram, rhs, what):
        solves.append(what)
        scale = max(np.trace(gram) / gram.shape[0], 1.0)
        return np.linalg.solve(gram + ridge * scale * np.eye(gram.shape[0]), rhs)

    embed = np.random.default_rng(cfg.seed).normal(0.0, 1.0 / np.sqrt(l), size=(l, d))
    prev_mse = None
    for round_idx in range(bb.ALS_ROUNDS):
        z = (patches @ embed).reshape(n_inst, p_count * d)
        head = solve(z.T @ z, z.T @ targets, "head fit")
        mse = float(((z @ head - targets) ** 2).mean())
        stalled = prev_mse is not None and prev_mse - mse <= bb.ALS_REL_TOL * prev_mse
        prev_mse = mse
        if stalled or round_idx == bb.ALS_ROUNDS - 1:
            break
        hp = head.reshape(p_count, d * f)
        gram = np.zeros((l * d, l * d))
        rhs = np.zeros(l * d)
        for lo in range(0, n_inst, 128):
            chunk = patches[lo:lo + 128]
            c = chunk.shape[0]
            g = (chunk.transpose(0, 2, 1).reshape(c * l, p_count) @ hp)
            stacked = g.reshape(c, l * d, f).transpose(1, 0, 2).reshape(l * d, c * f)
            gram += stacked @ stacked.T
            rhs += stacked @ targets[lo:lo + 128].reshape(c * f)
        embed = solve(gram, rhs, "embed fit").reshape(l, d)
    return embed, head, mse, solves


def scenario_corpus(monkeypatch):
    """The corpus and config ``few_shot_scenario`` pretrains its backbone on."""
    seen = {}

    def capture(x, y, cfg, **kwargs):
        seen.update(x=x, y=y, cfg=cfg)
        return bb.pretrain_backbone(x, y, cfg, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(train, "pretrain_backbone", capture)
        train.few_shot_scenario("dynamic", 0)
    return seen["x"], seen["y"], seen["cfg"]


@pytest.mark.parametrize("corpus", [83, 84, 85, 86, 87, "scenario"])
def test_moment_als_matches_the_per_instance_oracle(monkeypatch, corpus):
    """Both fits read the corpus through X^T X and X^T Y only, yet make the
    same solves and reach the same model as rebuilding from every instance."""
    if corpus == "scenario":
        x, y, cfg = scenario_corpus(monkeypatch)
        ridge = 1e-6
    else:
        x, y = planted_corpus(np.random.default_rng(corpus))
        cfg, ridge = CFG, 1e-10
    embed, head, mse, want_solves = als_oracle(x, y, cfg, ridge)
    solves = []
    solve_ridge = bb._solve_ridge

    def record(gram, rhs, lam, what):
        solves.append(what)
        return solve_ridge(gram, rhs, lam, what)

    monkeypatch.setattr(bb, "_solve_ridge", record)
    state = bb.pretrain_backbone(x, y, cfg, ridge=ridge)
    assert solves == want_solves
    assert state.ridge == ridge
    want = bb.backbone_forward(
        bb.BackboneState(config=cfg, embed=embed, head=head), x).yhat
    got = bb.backbone_forward(state, x).yhat
    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
    assert state.train_mse == pytest.approx(mse, rel=0, abs=1e-12)


def test_pretraining_is_exact_past_square_overflow():
    # 2^664 * O(10) squared overflows; z-scores are scale-free, and a scale
    # by a power of two is exact, so the fit keeps its bits
    rng = np.random.default_rng(93)
    x, y = trend_corpus(rng)
    big = 2.0 ** 664
    small = bb.pretrain_backbone(x, y, CFG)
    large = bb.pretrain_backbone(x * big, y * big, CFG)
    assert np.array_equal(large.embed, small.embed)
    assert np.array_equal(large.head, small.head)
    assert large.train_mse == small.train_mse
    assert np.array_equal(bb.backbone_forward(large, x * big).yhat,
                          bb.backbone_forward(small, x).yhat * big)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["windows", "targets"])
def test_non_finite_corpus_is_a_data_error(name, bad):
    x, y = trend_corpus(np.random.default_rng(94))
    (x if name == "windows" else y)[2, 1, 3] = bad
    with pytest.raises(DataError, match=f"corpus {name} hold NaN or Inf"):
        bb.pretrain_backbone(x, y, CFG)


@pytest.mark.parametrize("failure", ["singular", "non-finite"])
def test_one_failed_solve_escalates_the_ridge(monkeypatch, failure):
    x, y = trend_corpus(np.random.default_rng(95))
    solve = np.linalg.solve
    calls = []

    def flaky(a, b):
        calls.append(a)
        if len(calls) > 1:
            return solve(a, b)
        if failure == "singular":
            raise np.linalg.LinAlgError("Singular matrix")
        return np.full(b.shape, np.nan)

    monkeypatch.setattr(bb, "ALS_ROUNDS", 1)   # one head fit, no embed fit
    monkeypatch.setattr(np.linalg, "solve", flaky)
    state = bb.pretrain_backbone(x, y, CFG, ridge=1e-6)
    assert len(calls) == 2
    assert state.ridge == 1e-6 * 100.0


@pytest.mark.parametrize("what", ["head fit", "embed fit"])
def test_six_failed_solves_name_the_fit(monkeypatch, what):
    x, y = trend_corpus(np.random.default_rng(96))
    solve = np.linalg.solve
    calls = []

    def failing(a, b):
        calls.append(a)
        if what == "embed fit" and len(calls) == 1:
            return solve(a, b)
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(bb, "ALS_ROUNDS", 2)
    monkeypatch.setattr(np.linalg, "solve", failing)
    with pytest.raises(FloatingPointError, match=f"{what}: .* singular even at ridge"):
        bb.pretrain_backbone(x, y, CFG, ridge=1e-6)
    assert len(calls) == 6 + (what == "embed fit")


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
    for bad in ({"lookback": 30, "patch_len": 7}, {"lookback": 96.0},
                {"lookback": True, "patch_len": True}):
        with pytest.raises(ConfigError):
            bb.BackboneConfig(**bad)


@pytest.mark.parametrize("ridge", [10 ** 400, 0.0, -1e-6, math.nan, math.inf, True, "1e-6"],
                         ids=lambda v: "1e400" if v == 10 ** 400 else None)
def test_pretraining_checks_its_ridge(ridge):
    x, y = trend_corpus(np.random.default_rng(85))
    with pytest.raises(ConfigError, match="^ridge must be "):
        bb.pretrain_backbone(x, y, CFG, ridge=ridge)


@pytest.mark.parametrize("trace", [0.5, 1e3])
def test_solve_ridge_shifts_as_the_identity_would_bitwise(monkeypatch, trace):
    # the system solved is gram + lam * scale * I to the bit, signed zeros
    # included, whether the scale is the floor 1 or the mean diagonal
    rng = np.random.default_rng(88)
    a = rng.normal(size=(6, 6))
    gram = a @ a.T * (trace / np.trace(a @ a.T))
    gram[0, 1] = gram[1, 0] = -0.0
    gram[2, 4] = 0.0
    rhs = rng.normal(size=6)
    solve, systems = np.linalg.solve, []
    monkeypatch.setattr(np.linalg, "solve", lambda m, b: systems.append(m.copy()) or solve(m, b))
    kept = gram.copy()
    sol, lam, tries = bb._solve_ridge(gram, rhs, 1e-3, "fit")
    want = kept + 1e-3 * max(np.trace(kept) / 6, 1.0) * np.eye(6)
    assert (lam, tries, len(systems)) == (1e-3, 0, 1)
    assert gram.tobytes() == kept.tobytes()
    assert systems[0].tobytes() == want.tobytes()
    assert sol.tobytes() == solve(want, rhs).tobytes()


def test_solve_ridge_fails_when_the_shift_overflows():
    gram = np.array([[2e10, 1e9], [1e9, 3e10]])
    with pytest.raises(FloatingPointError, match="singular even at ridge inf"):
        with np.errstate(over="ignore"):
            bb._solve_ridge(gram, np.ones(2), 1e305, "fit")


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
    # a numpy seed is stored as an int, so the JSON header can hold it
    state.config = dataclasses.replace(CFG, seed=np.int64(CFG.seed))
    path = tmp_path / "bb.bin"
    bb.save_backbone(state, path)
    loaded = bb.load_backbone(path)
    assert loaded.config == state.config
    assert np.array_equal(loaded.embed, state.embed)
    assert np.array_equal(loaded.head, state.head)
    assert (loaded.train_mse, loaded.ridge) == (state.train_mse, state.ridge)
    # an unfitted state saves a NaN train_mse and a zero ridge
    bb.save_backbone(bb.BackboneState(config=CFG, embed=state.embed, head=state.head), path)
    loaded = bb.load_backbone(path)
    assert np.isnan(loaded.train_mse) and loaded.ridge == 0.0

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
