"""Command-line behaviour: artifacts, exit codes, --set overrides.

Everything runs in-process through main(argv) so the exit codes of the
installed entry point are exactly what is asserted here.
"""

import json
import os
import re

import numpy as np
import pytest

from chancorr.backbone import BackboneConfig, pretrain_backbone, save_backbone
from chancorr.cli import main
from chancorr.data import (SplitSpec, generate_synthetic, load_csv,
                           make_windows, planted_regime, save_csv)
from chancorr.serialize import load_arrays, save_arrays


def run(*args):
    return main([str(a) for a in args])


SMALL_FIT = ["--set", "epochs=2", "--set", "depth_division=1",
             "--set", "depth_fusion=1", "--set", "embed_dim=4",
             "--set", "poly_degree=2", "--set", "rank=2",
             "--set", "batch_size=64"]


def make_dataset(tmp_path, length=1200, seed=1, regime="dynamic"):
    data = tmp_path / "series.csv"
    truth = tmp_path / "truth.json"
    code = run("synth", "--regime", regime, "--channels", 5,
               "--length", length, "--seed", seed, "--noise-std", 0.5,
               "--segment-len", 256, "--out", data, "--truth", truth)
    assert code == 0
    return data, truth


def make_backbone(tmp_path, data):
    ckpt = tmp_path / "backbone.npz"
    code = run("pretrain", "--data", data, "--out", ckpt,
               "--lookback", 48, "--horizon", 12, "--patch-len", 16,
               "--repr-dim", 8)
    assert code == 0
    return ckpt


def test_synth_writes_loadable_dataset_and_truth(tmp_path):
    data, truth = make_dataset(tmp_path, length=500, seed=3, regime="partial")
    series = load_csv(data)
    assert series.n_channels == 5
    assert series.length == 500
    doc = json.loads(truth.read_text())
    assert np.asarray(doc["matrices"][0]).shape == (5, 5)
    assert doc["tags"].get("partial") is True


def test_pipeline_fit_eval_export(tmp_path, capsys):
    data, _ = make_dataset(tmp_path)
    backbone = make_backbone(tmp_path, data)
    adapter = tmp_path / "adapter.npz"
    metrics = tmp_path / "metrics.csv"

    code = run("fit", "--data", data, "--backbone", backbone,
               "--out", adapter, "--metrics", metrics, *SMALL_FIT)
    assert code == 0
    assert adapter.exists()
    text = metrics.read_text()
    assert text.startswith("epoch,train_mse,l_pos,l_neg,l_aux,val_mse")
    # --set epochs=2 must cap the epoch table at exactly two rows
    epoch_rows = [ln for ln in text.splitlines()
                  if ln and ln.split(",")[0].isdigit()]
    assert len(epoch_rows) == 2

    scores = tmp_path / "scores.csv"
    code = run("eval", "--data", data, "--backbone", backbone,
               "--adapter", adapter, "--out", scores)
    assert code == 0
    out = capsys.readouterr().out
    assert "backbone: test_mse=" in out
    assert "adapter: test_mse=" in out
    lines = scores.read_text().splitlines()
    assert lines[0] == "model,test_mse,test_mae"
    assert len(lines) == 3

    sim_dir = tmp_path / "sims"
    code = run("export-sim", "--data", data, "--backbone", backbone,
               "--adapter", adapter, "--out-dir", sim_dir,
               "--windows", "0,2")
    assert code == 0
    names = sorted(os.listdir(sim_dir))
    assert names == ["sim_w0_neg.csv", "sim_w0_pos.csv",
                     "sim_w2_neg.csv", "sim_w2_pos.csv"]
    rows = (sim_dir / "sim_w0_pos.csv").read_text().splitlines()
    header = rows[0].split(",")
    assert header[0] == "" and len(header) == 6   # corner cell + 5 channels
    assert len(rows) == 6
    assert rows[1].split(",")[0] == header[1]     # row labels match columns


def test_eval_without_adapter_scores_backbone_only(tmp_path, capsys):
    data, _ = make_dataset(tmp_path, length=600)
    backbone = make_backbone(tmp_path, data)
    assert run("eval", "--data", data, "--backbone", backbone) == 0
    out = capsys.readouterr().out
    assert "backbone: test_mse=" in out
    assert "adapter:" not in out


def test_fit_divergence_exits_4_but_saves_artifacts(tmp_path):
    data, _ = make_dataset(tmp_path, length=600, seed=7)
    backbone = make_backbone(tmp_path, data)
    adapter = tmp_path / "adapter.npz"
    metrics = tmp_path / "metrics.csv"
    code = run("fit", "--data", data, "--backbone", backbone,
               "--out", adapter, "--metrics", metrics, *SMALL_FIT,
               "--set", "lr=1e200", "--set", "epochs=8")
    assert code == 4
    assert adapter.exists()
    rows = metrics.read_text().splitlines()
    summary_at = rows.index("test_mse,test_mae,adapter_params,"
                            "backbone_params,best_epoch,diverged")
    assert rows[summary_at + 1].split(",")[-1] == "1"


def test_missing_dataset_exits_3(tmp_path):
    backbone = tmp_path / "none.npz"
    code = run("fit", "--data", tmp_path / "missing.csv",
               "--backbone", backbone, "--out", tmp_path / "a.npz")
    assert code == 3


def test_bad_bench_list_exits_2(capsys):
    assert run("bench", "--mode", "inference", "--n-list", "8,4,2,1") == 2
    assert run("bench", "--mode", "inference", "--n-list", "oops") == 2
    capsys.readouterr()
    assert run("bench", "--mode", "inference", "--n-list", "0,1,2,3") == 2
    assert "N >= 1" in capsys.readouterr().err
    assert run("bench", "--mode", "inference", "--reps", "0") == 2
    capsys.readouterr()
    assert run("bench", "--mode", "inference", "--n-list", "8,8,8,8",
               "--reps", "1") == 2
    assert "strictly" in capsys.readouterr().err


def test_negative_list_value_exits_2(capsys):
    assert run("ablate", "--regime", "partial", "--seeds=-1") == 2
    assert ">= 0" in capsys.readouterr().err
    assert run("bench", "--mode", "inference", "--n-list=-8,1,2,3") == 2
    assert ">= 0" in capsys.readouterr().err


def test_empty_training_split_exits_3(tmp_path, capsys):
    data, _ = make_dataset(tmp_path, length=600)
    backbone = make_backbone(tmp_path, data)
    capsys.readouterr()
    fit_args = ("fit", "--data", data, "--backbone", backbone,
                "--out", tmp_path / "a.npz", *SMALL_FIT)
    assert run(*fit_args, "--train-frac", 0.8, "--val-frac", 0,
               "--test-frac", 0.2) == 3
    assert "empty val split" in capsys.readouterr().err
    assert run(*fit_args, "--train-frac", 0, "--val-frac", 0.3,
               "--test-frac", 0.7) == 3
    assert "empty train split" in capsys.readouterr().err
    assert run("pretrain", "--data", data, "--out", tmp_path / "b.npz",
               "--lookback", 48, "--horizon", 12, "--train-frac", 0) == 3
    assert "nonempty" in capsys.readouterr().err
    assert not (tmp_path / "a.npz").exists()
    assert not (tmp_path / "b.npz").exists()


def test_adapter_and_data_channel_mismatch_exits_3(tmp_path, capsys):
    data, _ = make_dataset(tmp_path, length=600)
    backbone = make_backbone(tmp_path, data)
    adapter = tmp_path / "adapter.npz"
    assert run("fit", "--data", data, "--backbone", backbone,
               "--out", adapter, *SMALL_FIT) == 0
    other = tmp_path / "other.csv"
    assert run("synth", "--regime", "dynamic", "--channels", 4,
               "--length", 600, "--out", other) == 0
    capsys.readouterr()
    assert run("eval", "--data", other, "--backbone", backbone,
               "--adapter", adapter) == 3
    assert "5 channels" in capsys.readouterr().err
    sims = tmp_path / "sims"
    assert run("export-sim", "--data", other, "--backbone", backbone,
               "--adapter", adapter, "--out-dir", sims) == 3
    assert "5 channels" in capsys.readouterr().err
    assert not sims.exists()


def test_bad_pretrain_settings_exit_2(tmp_path, capsys):
    data, _ = make_dataset(tmp_path, length=600)
    out = tmp_path / "b.npz"
    for flags, message in ((("--lookback", 0), "must be positive"),
                           (("--patch-len", 7), "not divisible"),
                           (("--repr-dim", 1), "repr_dim"),
                           (("--ridge", "nan"), "ridge"),
                           (("--ridge", "inf"), "ridge"),
                           (("--ridge", -1), "ridge"),
                           (("--ridge", 0), "ridge")):
        capsys.readouterr()
        assert run("pretrain", "--data", data, "--out", out, "--lookback", 48,
                   "--horizon", 12, *flags) == 2, flags
        assert message in capsys.readouterr().err, flags
    assert not out.exists()


def test_nan_split_fraction_exits_3(tmp_path, capsys):
    data, _ = make_dataset(tmp_path, length=600)
    backbone = make_backbone(tmp_path, data)
    capsys.readouterr()
    code = run("eval", "--data", data, "--backbone", backbone,
               "--train-frac", "nan")
    assert code == 3
    assert "must be finite" in capsys.readouterr().err


def test_non_finite_checkpoint_payload_exits_3(tmp_path, capsys):
    data, _ = make_dataset(tmp_path, length=600)
    backbone = make_backbone(tmp_path, data)
    adapter = tmp_path / "adapter.npz"
    assert run("fit", "--data", data, "--backbone", backbone,
               "--out", adapter, *SMALL_FIT) == 0
    broken = tmp_path / "broken.ckpt"
    for flag, path, name in (("--backbone", backbone, "head"),
                             ("--adapter", adapter, "fusion.head_w")):
        for bad in (np.nan, np.inf, -np.inf):
            config, arrays = load_arrays(path)
            arrays[name].flat[0] = bad
            save_arrays(broken, config, arrays)
            args = {"--backbone": backbone, "--adapter": adapter, flag: broken}
            capsys.readouterr()
            assert run("eval", "--data", data, *sum(args.items(), ())) == 3
            assert "NaN or Inf" in capsys.readouterr().err


def test_omitted_options_take_the_library_defaults(tmp_path, capsys):
    data, truth = tmp_path / "series.csv", tmp_path / "truth.json"
    assert run("synth", "--regime", "dynamic", "--length", 600,
               "--out", data, "--truth", truth) == 0
    series, _ = generate_synthetic(planted_regime("dynamic"), 600)
    save_csv(tmp_path / "library.csv", series)
    assert data.read_bytes() == (tmp_path / "library.csv").read_bytes()
    doc = json.loads(truth.read_text())
    assert (doc["noise_std"], doc["seed"]) == (0.4, 0)

    ckpt = tmp_path / "backbone.npz"
    capsys.readouterr()
    assert run("pretrain", "--data", data, "--out", ckpt) == 0
    # how the fit ended goes to stderr; the library's fit reads the same
    assert re.fullmatch(r"ALS: \d+ rounds, stopped by the (stall test|ALS_ROUNDS cap), "
                        r"\d+ ridge escalations\n", capsys.readouterr().err)
    cfg = BackboneConfig()
    # pretrain's own split: every window trains
    spec = SplitSpec(train_frac=1.0, val_frac=0.0, test_frac=0.0)
    train, _, _ = make_windows(load_csv(data), spec, cfg.lookback, cfg.horizon)
    save_backbone(pretrain_backbone(train.x, train.y, cfg),
                  tmp_path / "library.npz")
    assert ckpt.read_bytes() == (tmp_path / "library.npz").read_bytes()


@pytest.mark.parametrize("command", ["fit", "ablate", "pretrain", "synth"])
def test_negative_seed_exits_2(tmp_path, capsys, command):
    data, _ = make_dataset(tmp_path, length=600)
    backbone = make_backbone(tmp_path, data)
    out = tmp_path / "out"
    args = {
        "fit": ("--data", data, "--backbone", backbone, "--out", out,
                "--set", "seed=-1"),
        "ablate": ("--regime", "partial", "--out", out, "--set", "seed=-1"),
        "pretrain": ("--data", data, "--out", out, "--lookback", 48,
                     "--horizon", 12, "--seed", -1),
        "synth": ("--regime", "partial", "--length", 600, "--out", out,
                  "--seed", -1),
    }[command]
    capsys.readouterr()
    assert run(command, *args) == 2
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag,value", [
    ("--noise-std", "nan"), ("--noise-std", "inf"), ("--noise-std", -0.5),
    ("--season-amp", "nan"), ("--season-amp", "inf"),
])
def test_bad_generation_parameter_exits_3(tmp_path, capsys, flag, value):
    out, truth = tmp_path / "series.csv", tmp_path / "truth.json"
    assert run("synth", "--regime", "partial", "--length", 600, flag, value,
               "--out", out, "--truth", truth) == 3
    assert flag[2:].replace("-", "_") in capsys.readouterr().err
    assert not out.exists() and not truth.exists()


def test_mistyped_adapter_header_exits_3(tmp_path, capsys):
    data, _ = make_dataset(tmp_path, length=600)
    backbone = make_backbone(tmp_path, data)
    adapter = tmp_path / "adapter.npz"
    assert run("fit", "--data", data, "--backbone", backbone,
               "--out", adapter, *SMALL_FIT) == 0
    broken = tmp_path / "broken.ckpt"
    for key, bad in (("seed", 1.5), ("seed", -1), ("depth_division", 1.5),
                     ("rank", 2.5), ("hpcl", "false"), ("lr", True), ("tau", "0.5"),
                     ("lr", 10 ** 400)):
        config, arrays = load_arrays(adapter)
        config[key] = bad
        save_arrays(broken, config, arrays)
        capsys.readouterr()
        assert run("eval", "--data", data, "--backbone", backbone,
                   "--adapter", broken) == 3, (key, bad)
        assert f"bad header value ({key} must" in capsys.readouterr().err


def test_bad_config_value_exits_2(tmp_path):
    data, _ = make_dataset(tmp_path, length=600)
    backbone = make_backbone(tmp_path, data)
    code = run("fit", "--data", data, "--backbone", backbone,
               "--out", tmp_path / "a.npz", "--set", "epochs=never")
    assert code == 2
    code = run("fit", "--data", data, "--backbone", backbone,
               "--out", tmp_path / "a.npz", "--set", "no_such_key=1")
    assert code == 2


def test_non_finite_config_override_exits_2(tmp_path):
    data, _ = make_dataset(tmp_path, length=600)
    backbone = make_backbone(tmp_path, data)
    for override in ("lambda_aux=nan", "tau=nan", "epsilon_init=1000"):
        code = run("fit", "--data", data, "--backbone", backbone,
                   "--out", tmp_path / "a.npz", "--set", override)
        assert code == 2
    assert not (tmp_path / "a.npz").exists()


def test_export_sim_out_of_range_window_exits_3(tmp_path):
    data, _ = make_dataset(tmp_path, length=600)
    backbone = make_backbone(tmp_path, data)
    adapter = tmp_path / "adapter.npz"
    assert run("fit", "--data", data, "--backbone", backbone,
               "--out", adapter, *SMALL_FIT) == 0
    code = run("export-sim", "--data", data, "--backbone", backbone,
               "--adapter", adapter, "--out-dir", tmp_path / "sims",
               "--windows", "99999")
    assert code == 3


def test_unknown_choice_exits_2_via_argparse(capsys):
    with pytest.raises(SystemExit) as info:
        run("synth", "--regime", "nope", "--out", "x.csv")
    assert info.value.code == 2
    capsys.readouterr()
