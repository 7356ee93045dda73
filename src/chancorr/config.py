"""Training configuration: defaults, validation, config-file parsing.

The config file format is plain ``key = value`` lines.  Blank lines and
``#`` comments are ignored.  Keys match TrainConfig field names; values are
parsed by the field's type.  Command-line overrides use the same
``key=value`` strings and win over file values.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields, replace
from numbers import Integral, Real


class ConfigError(ValueError):
    pass


DCE_MODES = ("full", "pearson-only")
HD_MODES = ("dual", "single-branch")
# init_epsilon inverts the threshold's softplus, log(expm1(x)), which
# overflows from here on
_EPSILON_INIT_MAX = math.log(sys.float_info.max)


@dataclass
class TrainConfig:
    # optimization
    lr: float = 1e-3
    epochs: int = 50
    patience: int = 10
    batch_size: int = 32
    lambda_aux: float = 1.0
    aux_warmup_epochs: int = 5
    seed: int = 0
    # ablation switches
    dce_mode: str = "full"          # full | pearson-only
    hd_mode: str = "dual"           # dual | single-branch
    hpcl: bool = True
    # module hyperparameters
    poly_degree: int = 3            # correlation polynomial degree
    rank: int | None = None         # low-rank factor count (None = auto)
    embed_dim: int = 8              # static-embedding width for V
    tau: float = 0.5                # contrastive temperature
    epsilon_init: float = 0.3       # initial threshold (post-softplus)
    depth_division: int = 3         # projection stack depth (division)
    depth_fusion: int = 3           # projection stack depth (fusion)
    soft_gate: bool = False
    gate_temp: float = 0.05
    gate_lr_scale: float = 1.0
    beta_logit_init: float = -5.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "bool" and not isinstance(value, bool):
                raise ConfigError(f"{f.name} must be true or false, got {value!r}")
            # bool subclasses int, but True is no count
            if f.type in ("int", "int | None") and not (
                    value is None and f.type == "int | None"
                    or isinstance(value, Integral) and not isinstance(value, bool)):
                raise ConfigError(f"{f.name} must be an integer, got {value!r}")
            if f.type == "float" and (isinstance(value, bool) or not isinstance(value, Real)):
                raise ConfigError(f"{f.name} must be a number, got {value!r}")
            # NaN passes every comparison below, so finiteness is checked first
            if f.type == "float" and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if self.epochs <= 0:
            raise ConfigError(f"epochs must be positive, got {self.epochs}")
        if self.patience < 0:
            raise ConfigError(f"patience must be >= 0, got {self.patience}")
        if self.batch_size <= 0:
            raise ConfigError(f"batch_size must be positive, got {self.batch_size}")
        if self.lambda_aux < 0:
            raise ConfigError(f"lambda_aux must be >= 0, got {self.lambda_aux}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.aux_warmup_epochs < 0:
            raise ConfigError("aux_warmup_epochs must be >= 0, "
                              f"got {self.aux_warmup_epochs}")
        if self.dce_mode not in DCE_MODES:
            raise ConfigError(f"dce_mode must be one of {DCE_MODES}, "
                              f"got {self.dce_mode!r}")
        if self.hd_mode not in HD_MODES:
            raise ConfigError(f"hd_mode must be one of {HD_MODES}, "
                              f"got {self.hd_mode!r}")
        if self.poly_degree < 0:
            raise ConfigError(f"poly_degree must be >= 0, got {self.poly_degree}")
        if self.rank is not None and self.rank < 1:
            raise ConfigError(f"rank must be >= 1 or none, got {self.rank}")
        if self.embed_dim < 1:
            raise ConfigError(f"embed_dim must be >= 1, got {self.embed_dim}")
        if self.tau <= 0:
            raise ConfigError(f"tau must be positive, got {self.tau}")
        if not 0 < self.epsilon_init < _EPSILON_INIT_MAX:
            raise ConfigError("epsilon_init must be positive and below "
                              f"{_EPSILON_INIT_MAX:.2f}, got {self.epsilon_init}")
        if self.depth_division < 1 or self.depth_fusion < 1:
            raise ConfigError("projection depths must be >= 1, got "
                              f"{self.depth_division}/{self.depth_fusion}")
        if self.gate_temp <= 0:
            raise ConfigError(f"gate_temp must be positive, got {self.gate_temp}")
        if self.gate_lr_scale <= 0:
            raise ConfigError("gate_lr_scale must be positive, "
                              f"got {self.gate_lr_scale}")


_FIELDS = {f.name: f for f in fields(TrainConfig)}

_TRUE = {"true", "on", "yes", "1"}
_FALSE = {"false", "off", "no", "0"}


def _parse_value(name: str, text: str):
    """Parse one config value by the declared field type."""
    field = _FIELDS[name]
    text = text.strip()
    if field.type in ("int", "int | None"):
        if field.type == "int | None" and text.lower() in ("none", "auto"):
            return None
        try:
            return int(text)
        except ValueError:
            raise ConfigError(f"{name}: expected an integer, got {text!r}") from None
    if field.type == "float":
        try:
            return float(text)
        except ValueError:
            raise ConfigError(f"{name}: expected a number, got {text!r}") from None
    if field.type == "bool":
        low = text.lower()
        if low in _TRUE:
            return True
        if low in _FALSE:
            return False
        raise ConfigError(f"{name}: expected on/off, got {text!r}")
    return text  # str fields (modes) validated by TrainConfig itself


def parse_assignments(lines, source="config"):
    """Parse ``key = value`` lines into a dict of typed values."""
    out = {}
    for i, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source} line {i}: expected key = value, "
                              f"got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _FIELDS:
            raise ConfigError(f"{source} line {i}: unknown key {key!r}")
        out[key] = _parse_value(key, value)
    return out


def load_train_config(path=None, overrides=()) -> TrainConfig:
    """Build a TrainConfig from an optional file plus key=value overrides."""
    values = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                values.update(parse_assignments(fh.readlines(), source=str(path)))
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    values.update(parse_assignments(list(overrides), source="override"))
    return TrainConfig(**values)


def with_updates(config: TrainConfig, **updates) -> TrainConfig:
    """Copy a config with named fields replaced (re-validates)."""
    return replace(config, **updates)
