"""TrainConfig validation and the key=value config-file parser."""

from dataclasses import fields
from pathlib import Path

import pytest

from chancorr.config import (ConfigError, TrainConfig, load_train_config,
                             parse_assignments, rules, with_updates)
from chancorr.contrastive import init_epsilon


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
    ("seed", -1),
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


@pytest.mark.parametrize("field,value", [
    ("lr", float("nan")),
    ("lambda_aux", float("nan")),
    ("lambda_aux", float("inf")),
    ("tau", float("nan")),
    ("epsilon_init", float("inf")),
    ("epsilon_init", 1000.0),
    ("gate_temp", float("nan")),
    ("gate_lr_scale", float("inf")),
    ("beta_logit_init", float("-inf")),
])
def test_non_finite_or_overflowing_floats_rejected(field, value):
    # NaN passes every <= 0 check, and a NaN lambda_aux would silently
    # switch the auxiliary loss off; exp(1000) overflows the threshold init
    with pytest.raises(ConfigError):
        TrainConfig(**{field: value})
    with pytest.raises(ConfigError):
        load_train_config(overrides=[f"{field}={value}"])


@pytest.mark.parametrize("field,value", [
    ("seed", 1.5),
    ("epochs", "3"),
    ("batch_size", True),
    ("depth_division", 1.5),
    ("rank", 2.5),
    ("hpcl", "false"),
    ("soft_gate", 1),
])
def test_mistyped_int_or_bool_rejected(field, value):
    # a checkpoint header can carry any JSON value; "false" is truthy
    with pytest.raises(ConfigError, match=f"{field} must be"):
        TrainConfig(**{field: value})


@pytest.mark.parametrize("field,value", [
    ("lr", True),
    ("tau", False),
    ("gate_lr_scale", "1.0"),
    ("lambda_aux", None),
    ("epsilon_init", [0.3]),
    ("beta_logit_init", 1j),
])
def test_mistyped_float_rejected(field, value):
    # True is no learning rate, though bool subclasses int; a string or a
    # complex would otherwise end in a TypeError, not a config error
    with pytest.raises(ConfigError, match=f"{field} must be a number"):
        TrainConfig(**{field: value})


def test_epsilon_init_below_the_overflow_bound_builds_its_threshold():
    assert init_epsilon(TrainConfig(epsilon_init=709.0).epsilon_init).numeric() == 709.0


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


def test_readme_configuration_table_follows_train_config():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    rows = [[cell.strip() for cell in line.split("|")[1:-1]]
            for line in section.splitlines() if line.startswith("| `")]
    assert [row[0].strip("`") for row in rows] == [f.name for f in fields(TrainConfig)]
    for (key, default, allowed, _), f in zip(rows, fields(TrainConfig)):
        key = key.strip("`")
        assert parse_assignments([f"{key} = {default.strip('`')}"])[key] == f.default
        rule = rules(TrainConfig)[key]
        for text in ([f"`{c}`" for c in rule.kind] if isinstance(rule.kind, tuple)
                     else [t for *_, t in rule.tests]):
            assert text in allowed, (key, text)
