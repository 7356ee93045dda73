"""Command-line driver.

Subcommands mirror the workflow: ``synth`` writes a planted-correlation
dataset (CSV plus a JSON truth sidecar), ``pretrain`` fits and freezes a
backbone on it, ``fit`` trains an adapter on few-shot windows, ``eval``
scores checkpoints, ``ablate`` runs the five-row comparison over planted
scenarios, ``bench`` times the scaling paths, and ``export-sim`` writes
positive/negative-space similarity matrices.

Training configuration comes from an optional ``key = value`` config file
(every TrainConfig field is a key) plus repeatable ``--set key=value``
overrides.  Exit codes: 0 success, 2 configuration error, 3 data or
checkpoint error, 4 numerical divergence (the best checkpoint so far is
still written).
"""

from __future__ import annotations

import argparse
import sys

from .adapter import load_adapter, parameter_count, save_adapter
from .backbone import (BackboneConfig, load_backbone, pretrain_backbone,
                       save_backbone)
from .bench import DEFAULT_N_LIST, repr_dim_doubling_ratio, run_bench
from .config import ConfigError, load_train_config
from .data import (NOISE_STD, SEED, DataError, SplitSpec, generate_synthetic,
                   load_csv, make_windows, planted_regime, save_csv,
                   save_truth)
from .serialize import SerializationError
from .train import (DivergenceError, ablate, backbone_mse_mae, evaluate,
                    export_similarity, few_shot_scenario, fit,
                    write_text_atomic)

REGIMES = ("partial", "heterogeneous", "dynamic")


def _int_list(text: str, what: str) -> list[int]:
    try:
        values = [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"{what}: expected comma-separated integers, "
                          f"got {text!r}") from None
    if not values:
        raise ConfigError(f"{what}: empty list")
    if min(values) < 0:
        raise ConfigError(f"{what}: expected integers >= 0, got {text!r}")
    return values


def _given(args, *names) -> dict:
    """Keyword arguments for the options among ``names`` that were given."""
    return {name: getattr(args, name) for name in names if hasattr(args, name)}


def _windows(args, backbone):
    """``(series, train, val, test)`` of ``--data`` at the backbone's shape."""
    series = load_csv(args.data)
    spec = SplitSpec(**_given(args, "train_frac", "val_frac", "test_frac",
                              "few_shot_frac", "stride"))
    cfg = backbone.config
    return (series, *make_windows(series, spec, cfg.lookback, cfg.horizon))


def _add_split_args(p: argparse.ArgumentParser) -> None:
    for flag in ("--train-frac", "--val-frac", "--test-frac"):
        p.add_argument(flag, type=float)
    p.add_argument("--few-shot", type=float, dest="few_shot_frac",
                   metavar="FEW_SHOT",
                   help="fraction of train windows kept (the most recent)")
    p.add_argument("--stride", type=int)


def _add_config_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None,
                   help="key = value file covering TrainConfig fields")
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="KEY=VALUE", help="override one config key")


def cmd_synth(args) -> int:
    structure = planted_regime(args.regime,
                               **_given(args, "n_channels", "segment_len"))
    # the sidecar records the noise and seed used, so those two are always set
    gen = {"noise_std": NOISE_STD, "seed": SEED,
           **_given(args, "noise_std", "seed", "season_amp")}
    series, structure = generate_synthetic(structure, args.length, **gen)
    save_csv(args.out, series)
    print(f"wrote {args.out}: {series.n_channels} channels x "
          f"{series.length} steps ({args.regime})")
    if args.truth:
        save_truth(args.truth, structure, noise_std=gen["noise_std"],
                   seed=gen["seed"])
        print(f"wrote {args.truth}")
    return 0


def cmd_pretrain(args) -> int:
    series = load_csv(args.data)
    cfg = BackboneConfig(**_given(args, "lookback", "horizon", "patch_len",
                                  "repr_dim", "seed"))
    spec = SplitSpec(train_frac=args.train_frac,
                     val_frac=0.0, test_frac=1.0 - args.train_frac,
                     **_given(args, "stride"))
    train, _, _ = make_windows(series, spec, cfg.lookback, cfg.horizon)
    state = pretrain_backbone(train.x, train.y, cfg, **_given(args, "ridge"))
    save_backbone(state, args.out)
    stop = {"stall": "the stall test", "cap": "the ALS_ROUNDS cap"}[state.als_stop]
    sys.stderr.write(f"ALS: {state.als_rounds} rounds, stopped by {stop}, "
                     f"{state.ridge_escalations} ridge escalations\n")
    print(f"wrote {args.out}: train_mse={state.train_mse:.6g} "
          f"({len(train)} windows)")
    return 0


def cmd_fit(args) -> int:
    config = load_train_config(args.config, args.overrides)
    backbone = load_backbone(args.backbone)
    _, train, val, test = _windows(args, backbone)
    try:
        state, report = fit(config, train, val, backbone, test=test)
    except DivergenceError as err:
        sys.stderr.write(f"diverged: {err}\n")
        if err.state is not None:
            save_adapter(err.state, args.out)
            sys.stderr.write(f"wrote best checkpoint to {args.out}\n")
        if args.metrics and err.report is not None:
            write_text_atomic(args.metrics, err.report.to_csv())
        return 4
    save_adapter(state, args.out)
    if args.metrics:
        write_text_atomic(args.metrics, report.to_csv())
        print(f"wrote {args.metrics}")
    print(f"wrote {args.out}: params={parameter_count(state)} "
          f"best_epoch={report.best_epoch} test_mse={report.test_mse:.6g} "
          f"test_mae={report.test_mae:.6g}")
    return 0


def cmd_eval(args) -> int:
    backbone = load_backbone(args.backbone)
    *_, test = _windows(args, backbone)
    rows = [("backbone", *backbone_mse_mae(backbone, test))]
    if args.adapter:
        state = load_adapter(args.adapter, backbone)
        rows.append(("adapter", *evaluate(state, backbone, test)))
    for name, mse, mae in rows:
        print(f"{name}: test_mse={mse:.6g} test_mae={mae:.6g}")
    if args.out:
        lines = ["model,test_mse,test_mae"]
        lines += [f"{n},%.17g,%.17g" % (mse, mae) for n, mse, mae in rows]
        write_text_atomic(args.out, "\n".join(lines) + "\n")
        print(f"wrote {args.out}")
    return 0


def cmd_ablate(args) -> int:
    config = load_train_config(args.config, args.overrides)
    seeds = _int_list(args.seeds, "--seeds")
    sizes = _given(args, "n_channels", "segment_len", "pre_length",
                   "pre_noise", "pre_stride", "length", "noise_std", "few_shot")
    scenarios = [few_shot_scenario(args.regime, seed, **sizes)
                 for seed in seeds]
    rows, csv_text = ablate(config, scenarios)
    sys.stdout.write(csv_text)
    if args.out:
        write_text_atomic(args.out, csv_text)
        print(f"wrote {args.out}")
    return 0


def cmd_bench(args) -> int:
    n_list = _int_list(args.n_list, "--n-list")
    try:
        result = run_bench(args.mode, n_list=n_list,
                           **_given(args, "reps", "seed"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    sys.stdout.write(result.table())
    if args.check_doubling:
        t1, t2, ratio = repr_dim_doubling_ratio(**_given(args, "seed"))
        print(f"repr_dim doubling: {t1:.6f}s -> {t2:.6f}s ratio {ratio:.3f}")
    if args.out:
        write_text_atomic(args.out, result.table())
        print(f"wrote {args.out}")
    return 0


def cmd_export_sim(args) -> int:
    backbone = load_backbone(args.backbone)
    state = load_adapter(args.adapter, backbone)
    series, train, val, test = _windows(args, backbone)
    windows = {"train": train, "val": val, "test": test}[args.split]
    indices = _int_list(args.windows, "--windows")
    paths = export_similarity(state, backbone, windows, args.out_dir,
                              channel_names=series.channel_names,
                              indices=indices)
    for path in paths:
        print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chancorr",
        description="Correlation-aware few-shot adaptation of frozen "
                    "multivariate forecasters")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, **kwargs):
        # options left out stay unset, and the library applies its defaults
        p = sub.add_parser(name, argument_default=argparse.SUPPRESS, **kwargs)
        p.set_defaults(func=func)
        return p

    p = command("synth", cmd_synth, help="generate a planted-correlation dataset")
    p.add_argument("--regime", choices=REGIMES, required=True)
    p.add_argument("--channels", type=int, dest="n_channels", metavar="CHANNELS")
    p.add_argument("--length", type=int, default=8192)
    p.add_argument("--noise-std", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--segment-len", type=int)
    p.add_argument("--season-amp", type=float)
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--truth", default=None, help="JSON truth sidecar path")

    p = command("pretrain", cmd_pretrain, help="fit and freeze a backbone")
    p.add_argument("--data", required=True, help="CSV dataset")
    p.add_argument("--out", required=True, help="backbone checkpoint path")
    for flag in ("--lookback", "--horizon", "--patch-len", "--repr-dim",
                 "--stride"):
        p.add_argument(flag, type=int)
    p.add_argument("--train-frac", type=float, default=1.0)
    p.add_argument("--ridge", type=float)
    p.add_argument("--seed", type=int)

    p = command("fit", cmd_fit, help="train an adapter on few-shot windows")
    p.add_argument("--data", required=True)
    p.add_argument("--backbone", required=True)
    p.add_argument("--out", required=True, help="adapter checkpoint path")
    p.add_argument("--metrics", default=None, help="metrics CSV path")
    _add_config_args(p)
    _add_split_args(p)

    p = command("eval", cmd_eval, help="score a backbone and optional adapter")
    p.add_argument("--data", required=True)
    p.add_argument("--backbone", required=True)
    p.add_argument("--adapter", default=None)
    p.add_argument("--out", default=None, help="metrics CSV path")
    _add_split_args(p)

    p = command("ablate", cmd_ablate,
                help="five-row comparison on planted scenarios")
    p.add_argument("--regime", choices=REGIMES, required=True)
    p.add_argument("--seeds", default="0,1,2")
    p.add_argument("--channels", type=int, dest="n_channels", metavar="CHANNELS")
    p.add_argument("--segment-len", type=int)
    p.add_argument("--pre-length", type=int)
    p.add_argument("--pre-noise", type=float)
    p.add_argument("--pre-stride", type=int)
    p.add_argument("--length", type=int)
    p.add_argument("--noise-std", type=float)
    p.add_argument("--few-shot", type=float)
    p.add_argument("--out", default=None, help="table CSV path")
    _add_config_args(p)

    p = command("bench", cmd_bench, help="time the scaling paths")
    p.add_argument("--mode", choices=("train-step", "inference"),
                   required=True)
    p.add_argument("--n-list", default=",".join(str(n) for n in DEFAULT_N_LIST))
    p.add_argument("--reps", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--check-doubling", action="store_true", default=False,
                   help="also report the repr_dim doubling ratio")
    p.add_argument("--out", default=None, help="table CSV path")

    p = command("export-sim", cmd_export_sim,
                help="write positive/negative-space similarity CSVs")
    p.add_argument("--data", required=True)
    p.add_argument("--backbone", required=True)
    p.add_argument("--adapter", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--split", choices=("train", "val", "test"),
                   default="test")
    p.add_argument("--windows", default="0",
                   help="comma-separated window indices")
    _add_split_args(p)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except (DataError, SerializationError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except DivergenceError as exc:
        sys.stderr.write(f"diverged: {exc}\n")
        return 4


if __name__ == "__main__":
    sys.exit(main())
