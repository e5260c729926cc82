"""Command-line surface.

Subcommands: select-context, train, predict, evaluate, synth, ablate.
Exit codes: 0 success, 1 usage error, 2 data error, 3 training divergence.
All randomness funnels through --seed (overriding the config file).
"""

from __future__ import annotations

import argparse
import math
import re
import sys

from .config import CONTEXT_MODES, TrainConfig, load_config, parse_overrides, read_key_values
from .data import (
    DataError,
    SynthSpec,
    load_panel,
    split,
    synth_generate,
    write_forecast_csv,
    write_panel_csv,
)
from .metrics import evaluate
from .model import (
    DivergenceError,
    ensemble_predict,
    load_model,
    save_model,
    train,
)
from .selection import SELECTION_MODES, build_context_map, read_context_map, write_context_map

__all__ = ["run_cli", "main"]


class UsageError(Exception):
    pass


def _parse_edges(text: str):
    """DRIVER-DRIVEN pairs with optional per-edge weight: 0-1,0-2:-1.5

    A malformed token raises argparse's ArgumentTypeError, whose message
    argparse reports as given for the ``--edges`` flag.
    """
    edges = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        pair, _, weight = token.partition(":")
        try:
            a, b = pair.split("-")
            edges.append((int(a), int(b), float(weight)) if weight else (int(a), int(b)))
        except ValueError:
            raise argparse.ArgumentTypeError(f"edge {token!r} is not DRIVER-DRIVEN[:WEIGHT]") from None
    return tuple(edges)


#: synth flags, also the keys of a synth spec file: the type of each and the SynthSpec field it sets
_SYNTH_FIELDS = {"n": (int, "n"), "t": (int, "T"), "edges": (_parse_edges, "edges"), "coupling": (float, "coupling"),
                 "lag": (int, "lag"), "noise": (float, "noise_sigma"), "period": (int, "seasonal_period"), "seed": (int, None)}
#: the defaults of the synth flags whose SynthSpec field has none, and of the seed
_SYNTH_DEFAULTS = {"n": 4, "t": 400, "seed": 0}


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads "-1.5" as a value but "-1e308" or "-inf" as a flag: read any negative number as a value.
        # This replaces a private attribute, which argparse of CPython 3.10 to 3.13 reads as here. The
        # tests/test_cli.py cases test_negative_value_in_exponent_form and
        # test_negative_exponent_form_reaches_the_flag_type fail if a later argparse stops reading it.
        self._negative_number_matcher = re.compile(r"^-(inf|infinity|(\d+\.?\d*|\.\d+)(e[+-]?\d+)?)$", re.IGNORECASE)

    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="contextrnn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        if config:
            p.add_argument("--config", help="flat key = value config file")
            p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                           help="override a config field (repeatable)")
        p.add_argument("--seed", type=int, help="seed overriding the config")

    p = sub.add_parser("select-context", help="build a context map from data")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=SELECTION_MODES, default="data_driven")
    p.add_argument("--predefined", help="existing map file for predefined mode")
    common(p)

    p = sub.add_parser("train", help="train on the first 60%%, validate on the next 20%%")
    p.add_argument("--data", required=True)
    p.add_argument("--map", required=True, dest="map_path")
    p.add_argument("--out", required=True, help="model file (members get .N suffixes when ensemble > 1)")
    common(p)

    p = sub.add_parser("predict", help="forecast at one anchor")
    p.add_argument("--model", required=True, nargs="+", help="model file(s); several form an ensemble")
    p.add_argument("--data", required=True)
    p.add_argument("--anchor", type=int, help="first forecast position (default: end of panel)")
    p.add_argument("--series", help="comma-separated series ids (default: all)")
    p.add_argument("--out", required=True, help="forecast CSV")
    common(p, config=False)

    p = sub.add_parser("evaluate", help="rolling evaluation on the most recent 20%%")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--test-start", type=int, help="override the 80%% boundary")
    common(p, config=False)

    p = sub.add_parser("synth", help="write a synthetic coupled panel")
    p.add_argument("--spec", help="flat key = value spec file (flags override)")
    for key, (kind, _field) in _SYNTH_FIELDS.items():
        p.add_argument(f"--{key}", type=kind, help="driver-driven pairs, e.g. 0-1,0-2:-1.5" if key == "edges" else None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("ablate", help="train and score full / global-context / no-context variants")
    p.add_argument("--data", required=True)
    p.add_argument("--map", required=True, dest="map_path")
    common(p)
    return parser


def _load_config(args) -> TrainConfig:
    overrides = parse_overrides(getattr(args, "set", []) or [])
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "config", None):
        return load_config(args.config, **overrides)
    return TrainConfig(**overrides)


def _cmd_select_context(args) -> int:
    cfg = _load_config(args)
    panel = load_panel(args.data)
    cm = build_context_map(
        panel,
        S=cfg.contexts_per_target,
        K=min(cfg.context_batch, panel.n),
        mode=args.mode,
        predefined_path=args.predefined,
        maxlag=cfg.maxlag,
    )
    write_context_map(cm, args.out)
    print(f"wrote context map for {panel.n} series to {args.out}")
    return 0


def _cmd_train(args) -> int:
    cfg = _load_config(args)
    panel = load_panel(args.data)
    cm = read_context_map(args.map_path)
    train_panel, val_panel, _ = split(panel)
    members = max(1, cfg.ensemble)
    for offset in range(members):
        member_cfg = cfg.with_overrides(seed=cfg.seed + offset)
        params, log = train(train_panel, cm, member_cfg, val_panel)
        out = args.out if members == 1 else f"{args.out}.{offset}"
        save_model(params, out)
        for entry in log:
            val = "-" if entry.val_loss is None else f"{entry.val_loss:.6f}"
            print(
                f"member {offset} epoch {entry.epoch:2d} batch {entry.batch_size:3d} "
                f"lr {entry.lr:.0e} train {entry.train_loss:.6f} val {val}"
            )
        print(f"saved model to {out}")
    return 0


def _cmd_predict(args) -> int:
    panel = load_panel(args.data)
    members = [load_model(path) for path in args.model]
    cfg = members[0].config
    anchor = args.anchor if args.anchor is not None else panel.T
    series = None
    if args.series:
        try:
            series = [int(tok) for tok in args.series.split(",") if tok.strip()]
        except ValueError:
            raise UsageError(f"--series {args.series!r} is not a comma-separated list of series ids") from None
    forecasts = ensemble_predict(members, panel, anchor, series)
    rows = []
    last_stamp = panel.timestamps[anchor - 1]
    for sid in sorted(forecasts):
        med, lo, hi = forecasts[sid]
        for h in range(cfg.horizon):
            stamp = last_stamp + (h + 1) * panel.frequency
            rows.append((stamp, sid, med[h], lo[h], hi[h]))
    write_forecast_csv(rows, args.out)
    print(f"wrote {len(rows)} forecast rows to {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    panel = load_panel(args.data)
    params = load_model(args.model)
    test_start = args.test_start if args.test_start is not None else int(math.floor(0.8 * panel.T))
    report = evaluate(params, panel, test_start, config_echo={"test_start": test_start, "data": args.data})
    print(report.to_json())
    return 0


def _cmd_synth(args) -> int:
    values = dict(_SYNTH_DEFAULTS)  # then the spec file's lines, then the flags given
    for lineno, line, key, value in read_key_values(args.spec, "synth spec") if args.spec else ():
        if key not in _SYNTH_FIELDS:
            raise DataError(f"bad synth spec line {lineno}: {line!r}")
        try:
            values[key] = _SYNTH_FIELDS[key][0](value)
        except (ValueError, argparse.ArgumentTypeError):
            raise DataError(f"bad synth spec value on line {lineno}: {line!r}") from None
    values.update((key, getattr(args, key)) for key in _SYNTH_FIELDS if getattr(args, key) is not None)
    spec = SynthSpec(**{name: values[key] for key, (_kind, name) in _SYNTH_FIELDS.items() if name and key in values})
    panel = synth_generate(spec, seed=values["seed"])
    write_panel_csv(panel, args.out)
    print(f"wrote {panel.n}x{panel.T} panel to {args.out}")
    return 0


def _cmd_ablate(args) -> int:
    cfg = _load_config(args)
    panel = load_panel(args.data)
    cm = read_context_map(args.map_path)
    train_panel, val_panel, _ = split(panel)
    test_start = int(math.floor(0.8 * panel.T))
    for mode in CONTEXT_MODES:
        mode_cfg = cfg.with_overrides(context_mode=mode)
        params, _ = train(train_panel, cm if mode != "none" else None, mode_cfg, val_panel)
        report = evaluate(params, panel, test_start)
        print(f"{mode} {report.rse:.6f}")
    return 0


_COMMANDS = {
    "select-context": _cmd_select_context,
    "train": _cmd_train,
    "predict": _cmd_predict,
    "evaluate": _cmd_evaluate,
    "synth": _cmd_synth,
    "ablate": _cmd_ablate,
}


def run_cli(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 3


def main():
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
