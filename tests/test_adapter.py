"""Adapter assembly: init geometry, losses, prediction path, checkpoints."""

import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from chancorr import adapter as adapter_module
from chancorr import autodiff as ad
from chancorr.adapter import (backbone_parameter_count, branch_views,
                              correlation_estimate, hpcl_terms, init_adapter,
                              load_adapter, named_parameters,
                              parameter_count, predict, predict_windows, save_adapter,
                              state_tensors, training_losses)
from chancorr.backbone import (BackboneConfig, BackboneOutput, BackboneState,
                               backbone_forward, pretrain_backbone)
from chancorr.config import TrainConfig, with_updates
from chancorr.correlation import correlation_matrix_allocations, pearson_matrix
from chancorr.data import WindowSet
from chancorr.projection import LIVE_ARRAYS, divide
from chancorr.serialize import SerializationError, load_arrays
from chancorr.train import _mse_mae, evaluate

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


def serving_setup(n, seed=0, batch=1):
    """A d=32, P=6, F=24 backbone and an adapter with random weights in the
    zero-initialised layers, so every op of the inference path matters,
    plus ``batch`` random raw windows and targets."""
    rng = np.random.default_rng(seed)
    cfg = BackboneConfig(lookback=96, horizon=24, patch_len=16, repr_dim=32)
    backbone = BackboneState(
        config=cfg, embed=rng.normal(0.0, 0.3, size=(16, 32)),
        head=rng.normal(0.0, 0.05, size=(cfg.n_patches * 32, 24)))
    state = init_adapter(backbone, n, small_config(seed=seed))
    for name, tensor in named_parameters(state):
        if name.rsplit(".", 1)[-1] in ("w2", "v2", "head_w", "beta_logits"):
            tensor.data[...] = rng.normal(0.0, 0.5, size=tensor.shape)
    windows = WindowSet(x=rng.normal(size=(batch, n, 96)),
                        y=rng.normal(size=(batch, n, 24)), starts=np.arange(batch))
    return backbone, state, windows


def serving_state(n, seed=0, batch=1):
    """`serving_setup`'s adapter and the backbone output of its windows."""
    backbone, state, windows = serving_setup(n, seed, batch)
    return state, backbone_forward(backbone, windows.x)


def windows_per_block(out):
    return max(1, ad.BLOCK_BYTES // (8 * LIVE_ARRAYS * math.prod(out.repr.shape[1:])))


@pytest.mark.parametrize("n, batch", [(8, 310), (64, 10)])
def test_blocked_inference_is_bit_identical_to_one_batch(monkeypatch, n, batch):
    state, out = serving_state(n, seed=n, batch=batch)
    size = windows_per_block(out)
    assert 1 <= size < batch and batch % size    # several blocks, last one short
    single = BackboneOutput(*(a[0] for a in (out.repr, out.yhat, out.yhat_norm,
                                             out.mean, out.std)))
    blocked = (predict(state, out), *branch_views(state, out))
    unbatched = (predict(state, single), *branch_views(state, single))

    monkeypatch.setattr(ad, "BLOCK_BYTES", 1 << 62)   # one block
    whole = (predict(state, out), *branch_views(state, out))
    for got, want in zip(blocked, whole):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    for got, want in zip(unbatched, whole):
        assert got.tobytes() == want[0].tobytes()


@pytest.mark.parametrize("n, batch", [(8, 300), (256, 10)])
def test_forecasts_do_not_depend_on_the_live_array_count(monkeypatch, n, batch):
    # the count only sizes the blocks: 1, 2, 4 and 8 cut 300 N=8 windows
    # into 3, 5, 10 and 19 blocks, and 10 N=256 windows into 3, 5, 10, 10
    backbone, state, windows = serving_setup(n, seed=n, batch=batch)
    out = backbone_forward(backbone, windows.x)
    runs = []
    for arrays in (1, 2, 4, 8):
        monkeypatch.setattr(adapter_module, "LIVE_ARRAYS", arrays)
        runs.append([predict(state, out).tobytes(),
                     predict_windows(state, backbone, windows.x).tobytes(),
                     *(v.tobytes() for v in branch_views(state, out))])
    assert all(run == runs[0] for run in runs)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_blocked_inference_checks_the_last_block(bad):
    state, out = serving_state(256, batch=10)
    assert windows_per_block(out) < 10
    out.repr[-1, -1, -1, -1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # the error, not a numpy warning
        with pytest.raises(ad.NonFiniteError):
            predict(state, out)
        with pytest.raises(ad.NonFiniteError):
            branch_views(state, out)


def test_predict_peak_memory_is_bounded_by_the_block_budget():
    # A (64, 6, 256, 32) float64 representation is 25 MB, and so is every
    # intermediate of one whole-batch pass: run that way, the peak measured
    # 231 MB.  Blocked, it measured 17.8 MB, the 3.1 MB forecast plus about
    # nine live block-sized intermediates.
    state, _ = serving_state(256)
    rng = np.random.default_rng(1)
    out = BackboneOutput(repr=rng.normal(size=(64, 6, 256, 32)),
                         yhat=None, yhat_norm=rng.normal(size=(64, 256, 24)),
                         mean=np.zeros((64, 256, 1)), std=np.ones((64, 256, 1)))
    tracemalloc.start()
    try:
        forecast = predict(state, out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12 * ad.BLOCK_BYTES + forecast.nbytes, peak


def test_evaluate_peak_memory_is_bounded_by_the_block_budget():
    # Run on whole 64-window chunks, the backbone alone built a 25 MB
    # (64, 6, 256, 32) representation and its contiguous copy: the peak
    # measured 66 MiB.  Run per block, it measured 16.0 MiB, the 3 MiB
    # forecast plus about nine block-sized arrays.
    backbone, state, windows = serving_setup(256, batch=64)
    tracemalloc.start()
    try:
        evaluate(state, backbone, windows, chunk=64)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12 * ad.BLOCK_BYTES + windows.y.nbytes, peak


@pytest.mark.parametrize("n, batch", [(8, 600), (256, 70)])
def test_evaluate_is_bit_identical_to_the_whole_chunk_composition(n, batch):
    backbone, state, windows = serving_setup(n, seed=n, batch=batch)
    for chunk in (64, 512):
        # the composition `evaluate` ran before it ran the backbone per block
        want = _mse_mae((predict(state, backbone_forward(backbone, windows.x[lo:lo + chunk])),
                         windows.y[lo:lo + chunk]) for lo in range(0, batch, chunk))
        got = evaluate(state, backbone, windows, chunk=chunk)
        assert np.array(got).tobytes() == np.array(want).tobytes(), chunk


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


def test_hpcl_terms_are_zero_when_off_and_need_r_when_on():
    backbone, x, _ = tiny_backbone(seed=6)
    out = backbone_forward(backbone, x)
    rep = ad.constant(out.repr)
    for hpcl in (False, True):
        state = init_adapter(backbone, 4, small_config(hpcl=hpcl))
        x_pos, x_neg = divide(state.hd, rep)
        if hpcl:
            with pytest.raises(ValueError, match="no correlation input"):
                hpcl_terms(state, rep, None, x_pos, x_neg)
            continue
        for r in (None, pearson_matrix(x)):
            terms = hpcl_terms(state, rep, r, x_pos, x_neg)
            assert [t.data.tobytes() for t in terms] == [np.float64(0.0).tobytes()] * 3
            assert not any(t.requires_grad or t._node for t in terms)


def test_inference_and_hpcl_blocks_come_from_the_one_rule(monkeypatch):
    calls = []
    rule = ad.window_blocks

    def spy(shape, window_ndim, arrays=1):
        calls.append((shape, window_ndim, arrays))
        return rule(shape, window_ndim, arrays)

    monkeypatch.setattr(ad, "window_blocks", spy)
    state, out = serving_state(8, batch=300)
    predict(state, out)
    # a serving layer keeps five window-sized arrays live
    assert calls == [((300, 6, 8, 32), 3, 5)]
    assert len(rule(*calls[0])) == 12                 # 25 windows a block

    # evaluate runs the backbone on the blocks the rule cuts from each chunk
    backbone, state, windows = serving_setup(8, batch=300)
    fed = []
    monkeypatch.setattr(adapter_module, "backbone_forward",
                        lambda bb, x: fed.append(len(x)) or backbone_forward(bb, x))
    calls.clear()
    evaluate(state, backbone, windows, chunk=210)
    assert calls == [((m, 6, 8, 32), 3, 5) for m in (210, 90)]
    assert fed == [25] * 8 + [10] + [25] * 3 + [15]
    backbone, x, y = tiny_backbone(seed=7, n=8, b=6)
    state = init_adapter(backbone, 8, small_config())
    out = backbone_forward(backbone, x)
    calls.clear()
    training_losses(state, out.repr, out.yhat_norm, (y - out.mean) / out.std,
                    pearson_matrix(x))
    assert calls == [((6, 8, 8), 2, 3)]               # one op for both branches
    assert rule(*calls[0]) == [slice(0, 1024)]        # the whole batch


def _nxn_buffers_on_tape(roots, n):
    """Distinct float buffers of (..., n, n) arrays that the recorded graph
    of ``roots`` keeps alive: the leaves and what the backward closures
    hold, also through the functions, containers and tensors they capture.
    Op outputs that no closure holds are freed, so they do not count, and
    neither do broadcast views of smaller arrays."""
    buffers, seen, stack = {}, set(), [t._node for t in roots]

    def note(a):
        if id(a) in seen:
            return
        seen.add(id(a))
        if isinstance(a, ad.Tensor):
            note(a.data)
        elif isinstance(a, (list, tuple, dict)):
            for held in a.values() if isinstance(a, dict) else a:
                note(held)
        elif callable(a):
            for cell in getattr(a, "__closure__", None) or ():
                note(cell.cell_contents)
            for default in getattr(a, "__defaults__", None) or ():
                note(default)
        elif (isinstance(a, np.ndarray) and a.dtype.kind == "f"
              and a.ndim >= 2 and a.shape[-2:] == (n, n)):
            owner = a
            while isinstance(owner.base, np.ndarray):
                owner = owner.base
            if owner.nbytes >= a.nbytes:
                buffers[id(owner)] = owner

    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        for parent, fn in node.edges:
            note(fn)
            if isinstance(parent, ad.Tensor):
                note(parent)            # a leaf
            else:
                stack.append(parent)
    return len(buffers)


def test_training_tape_holds_few_nxn_buffers(monkeypatch):
    # pins the N x N memory of one training step's tape to none: the
    # contrastive op forms every gradient in its forward, block by block,
    # and its closures hold only those, whatever the gates and the blocks
    n = 7
    backbone, x, y = tiny_backbone(seed=4, n=n, b=6)
    out = backbone_forward(backbone, x)
    r = pearson_matrix(x)
    for soft_gate in (False, True):
        state = init_adapter(backbone, n, small_config(soft_gate=soft_gate))
        args = (state, out.repr, out.yhat_norm, (y - out.mean) / out.std, r)
        for block_bytes in (1, 3 << 19):              # a window a block, one block
            monkeypatch.setattr(ad, "BLOCK_BYTES", block_bytes)
            losses = training_losses(*args)
            assert losses["l_neg"].item() != 0.0               # both branches ran
            assert _nxn_buffers_on_tape([losses["prediction"], losses["aux"]], n) == 0


def _step_bytes(state, out, y_norm, r):
    """Loss bytes and every parameter's gradient bytes of one step."""
    for _, t in named_parameters(state):
        t.grad = None
    losses = training_losses(state, out.repr, out.yhat_norm, y_norm, r)
    total = ad.add(losses["prediction"], losses["aux"])
    total.backward()
    return ([losses[k].data.tobytes() for k in ("l_pos", "l_neg", "aux")],
            [None if t.grad is None else t.grad.tobytes()
             for _, t in named_parameters(state)])


@pytest.mark.parametrize("soft_gate", [False, True])
@pytest.mark.parametrize("n, b", [(8, 6), (64, 5)])
def test_training_step_does_not_depend_on_the_block_size(monkeypatch, n, b, soft_gate):
    backbone, x, y = tiny_backbone(seed=n, n=n, b=b)
    state = init_adapter(backbone, n, small_config(soft_gate=soft_gate, gate_temp=0.2))
    rng = np.random.default_rng(n)
    for _, t in named_parameters(state):
        t.data[...] += rng.normal(0.0, 0.1, size=t.shape)
    out = backbone_forward(backbone, x)
    args = (state, out, (y - out.mean) / out.std, pearson_matrix(x))
    monkeypatch.setattr(ad, "BLOCK_BYTES", 1)           # one window a block
    per_window = _step_bytes(*args)
    monkeypatch.setattr(ad, "BLOCK_BYTES", 1 << 62)     # one block
    assert _step_bytes(*args) == per_window
    assert (state.eps.raw.grad is not None) == soft_gate   # eps trains only if soft


def test_training_step_memory_beyond_the_prediction_path_is_a_few_nxn_arrays():
    # With HPCL on, a step at N=256 adds only block-sized N x N arrays: the
    # contrastive op forms M, the gates and the gradient w.r.t. M per window
    # and contracts it against Q and V there.  The Pearson stack R is an
    # input.  (The per-branch op on a materialised M took about 5.5 (B, N, N)
    # arrays, and the fused similarity-to-log-ratio op before it 14.5.)
    n, b = 256, 8
    backbone, x, y = tiny_backbone(seed=12, n=n, b=b)
    out = backbone_forward(backbone, x)
    args = (out.repr, out.yhat_norm, (y - out.mean) / out.std, pearson_matrix(x))
    peaks = []
    for hpcl in (True, False):
        state = init_adapter(backbone, n, small_config(hpcl=hpcl))
        tracemalloc.start()
        try:
            losses = training_losses(state, *args)
            ad.add(losses["prediction"], losses["aux"]).backward()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] - peaks[1] < 2 * b * n * n * 8, peaks


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
    # numpy scalars are stored as builtins, so the JSON header can hold them
    {"seed": np.int64(1), "epochs": np.int64(2), "lr": np.float32(1e-3)},
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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_load_rejects_non_finite_payloads(tmp_path, bad):
    backbone, _, _ = tiny_backbone(seed=12)
    state = init_adapter(backbone, 4, small_config())
    state.fusion.head_w.data[0, 0] = bad
    state.eps.raw.data[...] = bad
    path = tmp_path / "adapter.npz"
    save_adapter(state, path)
    with pytest.raises(SerializationError,
                       match=r"\['fusion.head_w', 'hpcl.eps_raw'\] hold NaN or Inf"):
        load_adapter(path, backbone)


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
