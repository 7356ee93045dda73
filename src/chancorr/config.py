"""Training configuration: defaults, field checks, config-file parsing.

The configuration records (`TrainConfig`, `backbone.BackboneConfig`,
`data.SplitSpec`) give each field's bounds with `bounded`.  `rules` builds
a record's table from its field types and bounds, once, and the record's
``__post_init__`` applies it with `check_fields`: a value is stored as the
builtin ``int`` or ``float`` (no numpy scalar reaches a JSON header), and a
bool, a non-finite float or an out-of-range value raises the record's own
error naming the field and the value.  Only rules that span fields stay
hand-written.  Functions check a size or repeat count with `COUNT`, and
any other scalar argument with a `rule` of its own.

The config file format is plain ``key = value`` lines.  Blank lines and
``#`` comments are ignored.  Keys match TrainConfig field names; values are
parsed by the field's kind.  Command-line overrides use the same
``key=value`` strings and win over file values.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from collections import namedtuple
from dataclasses import dataclass, field, fields, replace
from numbers import Integral, Real


class ConfigError(ValueError):
    pass


# kind: int, float, bool or a tuple of allowed strings; what: the text for a
# value of the wrong kind; tests: (comparison, bound, text) for the range
Rule = namedtuple("Rule", "kind optional what tests")
_KINDS = {"int": (int, "an integer"), "float": (float, "a number"),
          "bool": (bool, "true or false")}


def bounded(default, **bounds):
    """A dataclass field with bounds for its `Rule`: gt or ge, lt or le, or choices."""
    return field(default=default, metadata=bounds)


def rule(kind, *, gt=None, ge=None, lt=None, le=None, choices=None) -> Rule:
    """The `Rule` for a value of ``kind`` (a type or its name) within the bounds."""
    name = getattr(kind, "__name__", kind)  # a type is text under postponed annotations
    kind, what = ((choices, f"one of {choices}") if choices else
                  _KINDS[name.removesuffix(" | None")])
    tests = [(op, bound, text.format(bound)) for op, bound, text in (
        (operator.gt, gt, "positive" if gt == 0 else "> {}"), (operator.ge, ge, ">= {}"),
        (operator.lt, lt, "below {:.2f}"), (operator.le, le, "<= {}")) if bound is not None]
    return Rule(kind, name.endswith(" | None"), what, tests)


@functools.cache
def rules(record_class) -> dict:
    """Field name -> `Rule` for a dataclass whose bounds come from `bounded`;
    built once per class."""
    return {f.name: rule(f.type, **f.metadata) for f in fields(record_class)}


def check_value(name: str, value, rule: Rule, error=ConfigError):
    """``value`` as the builtin its ``rule`` names; else ``error`` naming
    ``name`` and the value."""
    kind = rule.kind
    if value is None and rule.optional:
        return None
    if isinstance(kind, tuple):
        ok = isinstance(value, str) and value in kind
    else:  # bool subclasses int, but True is no count and no rate
        ok = type(value) is kind or (kind is not bool and not isinstance(value, bool)
                                     and isinstance(value, Integral if kind is int else Real))
    if not ok:
        raise error(f"{name} must be {rule.what}, got {value!r}")
    checked = int(value) if kind is int else value
    if kind is float:
        try:
            checked = float(value)
        except OverflowError:
            checked = math.inf
        # NaN passes every comparison below, so finiteness comes first
        if not math.isfinite(checked):
            raise error(f"{name} must be finite, got {value!r}")
    for op, bound, text in rule.tests:
        if not op(checked, bound):
            raise error(f"{name} must be {text}, got {value!r}")
    return checked


def check_fields(record, error=ConfigError) -> None:
    """Check and store each field of the dataclass ``record`` by its `Rule`."""
    for name, rule in rules(type(record)).items():
        setattr(record, name, check_value(name, getattr(record, name), rule, error))


# a size or repeat count given as an argument; either fault names the whole rule
COUNT = Rule(int, False, "an integer >= 1", [(operator.ge, 1, "an integer >= 1")])
DCE_MODES = ("full", "pearson-only")
HD_MODES = ("dual", "single-branch")
# init_epsilon inverts the threshold's softplus, log(expm1(x)), which
# overflows from here on
_EPSILON_INIT_MAX = math.log(sys.float_info.max)


@dataclass
class TrainConfig:
    # optimization
    lr: float = bounded(1e-3, gt=0)
    epochs: int = bounded(50, gt=0)
    patience: int = bounded(10, ge=0)
    batch_size: int = bounded(32, gt=0)
    lambda_aux: float = bounded(1.0, ge=0)
    aux_warmup_epochs: int = bounded(5, ge=0)
    seed: int = bounded(0, ge=0)
    # ablation switches
    dce_mode: str = bounded("full", choices=DCE_MODES)
    hd_mode: str = bounded("dual", choices=HD_MODES)
    hpcl: bool = True
    # module hyperparameters
    poly_degree: int = bounded(3, ge=0)     # correlation polynomial degree
    rank: int | None = bounded(None, ge=1)  # low-rank factor count (None = auto)
    embed_dim: int = bounded(8, ge=1)       # static-embedding width for V
    tau: float = bounded(0.5, gt=0)         # contrastive temperature
    epsilon_init: float = bounded(0.3, gt=0, lt=_EPSILON_INIT_MAX)  # post-softplus
    depth_division: int = bounded(3, ge=1)  # projection stack depth (division)
    depth_fusion: int = bounded(3, ge=1)    # projection stack depth (fusion)
    soft_gate: bool = False
    gate_temp: float = bounded(0.05, gt=0)
    gate_lr_scale: float = bounded(1.0, gt=0)
    beta_logit_init: float = -5.0

    def __post_init__(self):
        check_fields(self)


_TRUE = {"true", "on", "yes", "1"}
_FALSE = {"false", "off", "no", "0"}


def _parse_value(name: str, text: str):
    """Parse one config value by the field's kind."""
    rule = rules(TrainConfig)[name]
    text = text.strip()
    if rule.optional and text.lower() in ("none", "auto"):
        return None
    if rule.kind is bool:
        if text.lower() in _TRUE | _FALSE:
            return text.lower() in _TRUE
        raise ConfigError(f"{name}: expected on/off, got {text!r}")
    if rule.kind in (int, float):
        try:
            return rule.kind(text)
        except ValueError:
            raise ConfigError(f"{name}: expected {rule.what}, got {text!r}") from None
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
        if key not in rules(TrainConfig):
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
