"""TrainConfig validation and the key=value config-file parser."""

import pytest

from chancorr.config import (ConfigError, TrainConfig, load_train_config,
                             parse_assignments, with_updates)


def test_defaults_are_valid():
    cfg = TrainConfig()
    assert cfg.lr == 1e-3
    assert cfg.dce_mode == "full"
    assert cfg.hd_mode == "dual"
    assert cfg.hpcl is True
    assert cfg.rank is None
    assert cfg.gate_lr_scale == 1.0


@pytest.mark.parametrize("field,value", [
    ("lr", 0.0),
    ("lr", -1e-3),
    ("epochs", 0),
    ("patience", -1),
    ("batch_size", 0),
    ("lambda_aux", -0.5),
    ("aux_warmup_epochs", -1),
    ("dce_mode", "both"),
    ("hd_mode", "triple"),
    ("poly_degree", -1),
    ("rank", 0),
    ("embed_dim", 0),
    ("tau", 0.0),
    ("epsilon_init", -0.1),
    ("depth_division", 0),
    ("depth_fusion", 0),
    ("gate_temp", 0.0),
    ("gate_lr_scale", 0.0),
])
def test_invalid_field_rejected(field, value):
    with pytest.raises(ConfigError):
        TrainConfig(**{field: value})


def test_with_updates_revalidates():
    cfg = TrainConfig()
    cfg2 = with_updates(cfg, lr=5e-4, epochs=7)
    assert cfg2.lr == 5e-4 and cfg2.epochs == 7
    assert cfg.lr == 1e-3  # original untouched
    with pytest.raises(ConfigError):
        with_updates(cfg, batch_size=-3)


def test_parse_assignments_types_and_comments():
    lines = [
        "# a comment line",
        "",
        "lr = 0.01   # trailing comment",
        "epochs=12",
        "hpcl = off",
        "soft_gate = yes",
        "rank = none",
        "embed_dim = 4",
        "dce_mode = pearson-only",
    ]
    values = parse_assignments(lines)
    assert values == {"lr": 0.01, "epochs": 12, "hpcl": False,
                      "soft_gate": True, "rank": None, "embed_dim": 4,
                      "dce_mode": "pearson-only"}


def test_parse_rank_auto_and_int():
    assert parse_assignments(["rank = auto"])["rank"] is None
    assert parse_assignments(["rank = 3"])["rank"] == 3


@pytest.mark.parametrize("line,fragment", [
    ("mystery = 1", "unknown key"),
    ("binarize = on", "unknown key"),
    ("lr 0.01", "expected key = value"),
    ("epochs = three", "expected an integer"),
    ("lr = fast", "expected a number"),
    ("hpcl = maybe", "expected on/off"),
])
def test_parse_errors_are_descriptive(line, fragment):
    with pytest.raises(ConfigError) as err:
        parse_assignments([line], source="test.cfg")
    assert fragment in str(err.value)


def test_parse_error_reports_line_number():
    with pytest.raises(ConfigError) as err:
        parse_assignments(["lr = 0.01", "bogus = 1"], source="run.cfg")
    assert "run.cfg line 2" in str(err.value)


def test_load_train_config_file_plus_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("lr = 0.02\nepochs = 30\nhd_mode = single-branch\n")
    cfg = load_train_config(path, overrides=["epochs=5", "tau = 0.25"])
    assert cfg.lr == 0.02
    assert cfg.epochs == 5          # override wins over file
    assert cfg.hd_mode == "single-branch"
    assert cfg.tau == 0.25


def test_load_train_config_missing_file(tmp_path):
    with pytest.raises(ConfigError) as err:
        load_train_config(tmp_path / "absent.cfg")
    assert "cannot read" in str(err.value)


def test_load_train_config_invalid_combination(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("lambda_aux = -2\n")
    with pytest.raises(ConfigError):
        load_train_config(path)
