"""Training loop: inertness, determinism, early stopping, divergence, export."""

import numpy as np
import pytest

from chancorr.backbone import BackboneConfig, backbone_forward, pretrain_backbone
from chancorr.config import TrainConfig, with_updates
from chancorr.data import (DataError, SplitSpec, WindowSet,
                           generate_synthetic, make_windows, planted_regime)
from chancorr.train import (ABLATION_ROWS, DivergenceError, ablate,
                            backbone_mse_mae, evaluate, export_similarity,
                            fit)
from chancorr import autodiff as ad
from chancorr import train as train_module
from chancorr.projection import divide
from chancorr.adapter import init_adapter, predict, state_tensors

BB = BackboneConfig(lookback=24, horizon=6, patch_len=8, repr_dim=8, seed=0)


def scenario(seed=0, t_total=900, noise_pre=0.1, noise_tgt=0.7, n=4):
    """Backbone pretrained on a clean series; noisy few-shot target windows."""
    structure = planted_regime("partial", n_channels=n)
    pre, _ = generate_synthetic(structure, t_total, noise_std=noise_pre,
                                seed=100 + seed)
    pre_tr, _, _ = make_windows(
        pre, SplitSpec(train_frac=1.0, val_frac=0.0, test_frac=0.0, stride=5),
        BB.lookback, BB.horizon)
    backbone = pretrain_backbone(pre_tr.x, pre_tr.y, BB)
    tgt, _ = generate_synthetic(structure, t_total, noise_std=noise_tgt,
                                seed=seed)
    train, val, test = make_windows(tgt, SplitSpec(), BB.lookback, BB.horizon)
    return backbone, train, val, test


def quick_config(**overrides):
    base = TrainConfig(epochs=3, batch_size=64, depth_division=1,
                       depth_fusion=1, embed_dim=4, poly_degree=2, rank=2)
    return with_updates(base, **overrides) if overrides else base


def test_inert_adapter_matches_frozen_backbone():
    backbone, train, val, test = scenario()
    cfg = quick_config(lambda_aux=0.0, beta_logit_init=-30.0, epochs=2,
                       patience=5)
    state, report = fit(cfg, train, val, backbone, test=test)
    base_mse, base_mae = backbone_mse_mae(backbone, test)
    assert abs(report.test_mse - base_mse) < 1e-9
    assert abs(report.test_mae - base_mae) < 1e-9


def test_train_loss_decreases():
    backbone, train, val, _ = scenario(seed=1)
    cfg = quick_config(lr=1e-2, beta_logit_init=0.0, epochs=5, patience=5)
    _, report = fit(cfg, train, val, backbone)
    assert report.epochs[-1].train_mse < report.epochs[0].train_mse


def test_fit_beats_backbone_under_noise_shift():
    backbone, train, val, test = scenario(seed=2, t_total=1500)
    cfg = quick_config(lr=1e-4, gate_lr_scale=500.0, beta_logit_init=-2.0,
                       epochs=8, patience=8, batch_size=32)
    _, report = fit(cfg, train, val, backbone, test=test)
    base_mse, _ = backbone_mse_mae(backbone, test)
    assert report.test_mse < base_mse


def test_same_seed_runs_are_bit_identical():
    csvs = []
    for _ in range(2):
        backbone, train, val, test = scenario(seed=3)
        cfg = quick_config(lr=1e-3, epochs=3, seed=7)
        _, report = fit(cfg, train, val, backbone, test=test)
        csvs.append(report.to_csv())
    assert csvs[0] == csvs[1]


def test_backbone_is_frozen_during_fit():
    backbone, train, val, _ = scenario(seed=4)
    before = (backbone.embed.copy(), backbone.head.copy())
    cfg = quick_config(lr=1e-2, beta_logit_init=0.0)
    fit(cfg, train, val, backbone)
    assert np.array_equal(backbone.embed, before[0])
    assert np.array_equal(backbone.head, before[1])


def test_divergence_raises_with_best_checkpoint():
    backbone, train, val, _ = scenario(seed=5)
    poisoned = WindowSet(x=train.x, y=train.y.copy(), starts=train.starts)
    poisoned.y[0] = np.nan
    cfg = quick_config(epochs=4)
    with pytest.raises(DivergenceError) as err:
        fit(cfg, poisoned, val, backbone)
    assert err.value.report.diverged is True
    state = err.value.state
    out = backbone_forward(backbone, val.x[:4])
    assert np.all(np.isfinite(predict(state, out)))


def test_evaluate_matches_window_loop_oracle():
    backbone, train, val, test = scenario(seed=6)
    cfg = quick_config(epochs=2, beta_logit_init=0.0, lr=1e-2)
    state, _ = fit(cfg, train, val, backbone)
    small = WindowSet(x=test.x[:30], y=test.y[:30], starts=test.starts[:30])
    mse, mae = evaluate(state, backbone, small, chunk=7)
    se, ae = 0.0, 0.0
    for i in range(30):
        out = backbone_forward(backbone, small.x[i:i + 1])
        diff = predict(state, out) - small.y[i:i + 1]
        se += float((diff ** 2).sum())
        ae += float(np.abs(diff).sum())
    assert abs(mse - se / small.y.size) < 1e-12
    assert abs(mae - ae / small.y.size) < 1e-12


def test_evaluate_raises_if_a_correlation_matrix_is_built(monkeypatch):
    # an explicit error, not an assert, so the guard holds under python -O
    backbone, train, val, test = scenario(seed=6)
    state, _ = fit(quick_config(epochs=1), train, val, backbone)
    calls = iter(range(100))
    monkeypatch.setattr(train_module, "correlation_matrix_allocations",
                        lambda: next(calls))
    with pytest.raises(RuntimeError, match="correlation matrix"):
        evaluate(state, backbone, test)


def test_best_epoch_checkpoint_is_restored():
    backbone, train, val, test = scenario(seed=7, t_total=1500)
    cfg = quick_config(lr=1e-4, gate_lr_scale=500.0, beta_logit_init=-2.0,
                       epochs=10, patience=10, batch_size=32)
    state, report = fit(cfg, train, val, backbone)
    vals = [row.val_mse for row in report.epochs]
    assert report.best_epoch == int(np.argmin(vals)) + 1
    mse, _ = evaluate(state, backbone, val)
    assert abs(mse - min(vals)) < 1e-12


@pytest.mark.parametrize("hpcl", [True, False])
def test_snapshot_restore_covers_every_state_tensor(hpcl):
    backbone, _, _, _ = scenario(seed=9)
    state = init_adapter(backbone, 4, quick_config(hpcl=hpcl))
    snap = train_module._snapshot(state)
    before = [t.data.copy() for _, t in state_tensors(state)]
    for _, t in state_tensors(state):
        t.data += 1.0
    train_module._restore(state, snap)
    assert len(snap) == len(before)
    for value, (_, t) in zip(before, state_tensors(state)):
        assert np.array_equal(t.data, value)


def test_patience_stops_early():
    backbone, train, val, _ = scenario(seed=8)
    # inert adapter -> identical val every epoch -> first plateau stops it
    cfg = quick_config(lambda_aux=0.0, beta_logit_init=-30.0, epochs=10,
                       patience=0)
    _, report = fit(cfg, train, val, backbone)
    assert len(report.epochs) == 2
    assert report.best_epoch == 1


def test_metrics_csv_shape():
    backbone, train, val, test = scenario(seed=9)
    cfg = quick_config(epochs=3)
    _, report = fit(cfg, train, val, backbone, test=test)
    text = report.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "epoch,train_mse,l_pos,l_neg,l_aux,val_mse"
    assert "test_mse,test_mae,adapter_params,backbone_params,best_epoch,diverged" in text
    assert "wall" not in text            # timings stay out of the artifact
    assert len(report.wall_clock_per_epoch) == len(report.epochs)
    assert all(dt > 0 for dt in report.wall_clock_per_epoch)
    float(lines[1].split(",")[1])        # numeric cells parse


def test_fit_rejects_empty_splits():
    backbone, train, val, _ = scenario(seed=10)
    empty = WindowSet(x=train.x[:0], y=train.y[:0], starts=train.starts[:0])
    with pytest.raises(ValueError):
        fit(quick_config(), empty, val, backbone)
    with pytest.raises(ValueError):
        fit(quick_config(), train, empty, backbone)


def test_ablation_rows_and_csv():
    scen = [scenario(seed=s, t_total=600) for s in (0, 1)]
    scen = [(b, tr, va, te) for b, tr, va, te in scen]
    cfg = quick_config(epochs=2)
    rows, csv_text = ablate(cfg, scen)
    assert [r["row"] for r in rows] == [name for name, _ in ABLATION_ROWS]
    base_mean = np.mean([backbone_mse_mae(b, te)[0] for b, _, _, te in scen])
    assert abs(rows[0]["mean_mse"] - base_mean) < 1e-12
    lines = csv_text.strip().split("\n")
    assert lines[0] == "row,mean_mse,seed0_mse,seed1_mse"
    assert len(lines) == 6
    for row in rows:
        assert len(row["per_seed"]) == 2
        assert np.isfinite(row["mean_mse"])


def test_export_similarity_matches_numpy_reference(tmp_path):
    """The exported CSVs equal, digit for digit, cosine similarities of
    views flattened by a numpy transpose."""
    backbone, train, val, test = scenario(seed=12)
    state = init_adapter(backbone, 4, quick_config())
    rng = np.random.default_rng(13)
    for _, t in state_tensors(state):
        t.data[...] += rng.normal(0.0, 0.1, size=t.shape)
    export_similarity(state, backbone, test, tmp_path, indices=(0, 2))
    with ad.no_grad():
        for index in (0, 2):
            rep = backbone_forward(backbone, test.x[index]).repr
            views = divide(state.hd, ad.constant(rep))
            for tag, v in zip(("pos", "neg"), views):
                flat = np.transpose(v.data, (1, 0, 2)).reshape(4, -1)
                norms = np.sqrt((flat ** 2).sum(axis=-1, keepdims=True))
                unit = flat / np.maximum(norms, 1e-24)
                sim = unit @ unit.T
                text = (tmp_path / f"sim_w{index}_{tag}.csv").read_text()
                rows = [line.split(",")[1:] for line in text.splitlines()[1:]]
                assert rows == [["%.17g" % c for c in row] for row in sim]
    with pytest.raises(DataError):      # checked before anything is written
        export_similarity(state, backbone, test, tmp_path / "none",
                          indices=(0, len(test)))
    assert not (tmp_path / "none").exists()


def test_scoring_an_empty_split_is_a_data_error():
    backbone, train, val, test = scenario(seed=0)
    empty = WindowSet(x=test.x[:0], y=test.y[:0], starts=test.starts[:0])
    state = init_adapter(backbone, 4, quick_config())
    with pytest.raises(DataError):
        evaluate(state, backbone, empty)
    with pytest.raises(DataError):
        backbone_mse_mae(backbone, empty)


def test_export_similarity_zero_init_branches_agree(tmp_path):
    backbone, train, val, test = scenario(seed=11)
    cfg = quick_config()
    from chancorr.adapter import init_adapter
    state = init_adapter(backbone, 4, cfg)      # untouched zero-init stacks
    paths = export_similarity(state, backbone, test, tmp_path,
                              channel_names=["a", "b", "c", "d"],
                              indices=(0, 3))
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["sim_w0_neg.csv", "sim_w0_pos.csv",
                     "sim_w3_neg.csv", "sim_w3_pos.csv"]
    pos = (tmp_path / "sim_w0_pos.csv").read_text()
    neg = (tmp_path / "sim_w0_neg.csv").read_text()
    assert pos == neg                            # identical branches at init
    lines = pos.strip().split("\n")
    assert lines[0].split(",")[1:] == ["a", "b", "c", "d"]
    cells = np.array([[float(v) for v in ln.split(",")[1:]]
                      for ln in lines[1:]])
    assert cells.shape == (4, 4)
    assert np.allclose(np.diag(cells), 1.0)
    assert np.all(np.abs(cells) <= 1.0 + 1e-12)
