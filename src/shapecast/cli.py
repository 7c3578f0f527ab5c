"""Command-line entry point: ingest, predict, backtest, simulate.

Exit codes: 0 success, 1 domain error, 2 usage or I/O error. All randomness is
seeded explicitly (with fixed defaults), so reruns with identical inputs
produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import datetime as dt
import os
import sys
from contextlib import contextmanager
from dataclasses import replace
from functools import partial

import numpy as np

from .backtest import backtest, emit_day_curves, emit_report
from .calendars import DayGroup, annotate_calendar, parse_date_lines, parse_holiday_file
from .errors import ShapecastError
from .history import HistoryWindow, history_jsonl_text, read_history_jsonl
from .ingest import (
    parse_load_file,
    parse_temperature_forecast,
    parse_temperature_history,
    segmentize,
)
from .predictor import (
    KernelKind,
    KernelSpec,
    PredictorConfig,
    default_bandwidth_grid,
    predict_day,
    prediction_to_json,
    select_bandwidth,
)
from .reference import DeltaRule, DeltaRuleKind, ReferenceConfig, ReferenceMode
from .segments import DistanceKind, DistanceSpec, TimeGrid
from .synthetic import (
    SyntheticSpec,
    consistency_experiment,
    default_h_schedule,
    experiment_csv,
)


def _atomic_write(path: str, text: str) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


@contextmanager
def _input_file(path: str):
    """An unreadable or non-UTF-8 input file is an I/O error (exit 2)."""
    try:
        yield
    except OSError as exc:
        raise SystemExit(f"error: cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise SystemExit(
            f"error: {path} is not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from None


def _read_text(path: str) -> str:
    with _input_file(path), open(path, encoding="utf-8") as fh:
        return fh.read()


def _load_ini(path: str | None) -> configparser.ConfigParser:
    parser = configparser.ConfigParser()
    if path:
        if not os.path.exists(path):
            raise SystemExit(f"error: config file {path} not found")
        try:
            with _input_file(path):
                parser.read(path, encoding="utf-8")
        except configparser.Error as exc:
            raise SystemExit(f"error: config file {path}: {exc}") from None
    return parser


def parse_bandwidth(text: str) -> str | float:
    """'auto' or a positive number: the --bandwidth flag and the INI value."""
    if text == "auto":
        return text
    try:
        value = float(text)
        if value > 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"bandwidth must be 'auto' or a positive number, got {text!r}"
    )


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError("must be a positive integer")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError("must be a nonnegative integer")
    return value


def _nonnegative_float(text: str) -> float:
    value = float(text)
    if not value >= 0:  # NaN fails too
        raise ValueError("must be a nonnegative number")
    return value


def _length_list(text: str) -> list[int]:
    """Comma list of positive integers, at least one: the --lengths flag."""
    lengths = [_positive_int(x) for x in text.split(",") if x.strip()]
    if not lengths:
        raise ValueError("need at least one length")
    return lengths


def _optional_float(text: str) -> float | None:
    return float(text) if text else None


def _ini_value(ini: configparser.ConfigParser, section: str, key: str, parse, default):
    """`parse` applied to an INI value, or `default` when it is absent.

    A value that does not parse is a usage error (exit 2).
    """
    if not ini.has_option(section, key):
        return default
    raw = ini.get(section, key, raw=True)
    try:
        return parse(ini.get(section, key))
    except (configparser.Error, ValueError, argparse.ArgumentTypeError) as exc:
        raise SystemExit(f"error: config [{section}] {key} = {raw!r}: {exc}") from None


def build_predictor_config(
    args, ini: configparser.ConfigParser
) -> tuple[PredictorConfig, bool]:
    """INI values first, then command-line flags on top.

    Returns the config plus a flag saying whether the bandwidth should be
    selected from the data ('auto').
    """
    mode = args.mode or _ini_value(
        ini, "reference", "mode", ReferenceMode, "argmin"
    )
    n_l_g1 = _ini_value(ini, "reference", "n_l_g1", _positive_int, 14)
    n_l_default = _ini_value(ini, "reference", "n_l_default", _positive_int, 28)
    delta_kind = _ini_value(ini, "reference", "delta_rule", DeltaRuleKind, "min")
    delta_value = _ini_value(ini, "reference", "delta_value", _optional_float, None)
    delta_rule = DeltaRule(delta_kind, delta_value)
    n_l_by_group = {g: n_l_default for g in DayGroup}
    n_l_by_group[DayGroup.G1] = n_l_g1

    dist_kind = args.distance or _ini_value(
        ini, "distance", "kind", DistanceKind, "euclidean"
    )
    kernel_kind = args.kernel or _ini_value(
        ini, "kernel", "kind", KernelKind, "gaussian"
    )
    bandwidth = args.bandwidth or _ini_value(
        ini, "kernel", "bandwidth", parse_bandwidth, "auto"
    )

    reference = ReferenceConfig(
        n_L_by_group=n_l_by_group,
        mode=mode,
        delta_rule=delta_rule,
        temp_distance=DistanceSpec(dist_kind),
    )
    kernel = KernelSpec(kernel_kind, 1.0 if bandwidth == "auto" else bandwidth)
    cfg = PredictorConfig(
        reference=reference,
        kernel=kernel,
        shape_distance=DistanceSpec(dist_kind),
        same_group_only=args.same_group_only,
    )
    return cfg, bandwidth == "auto"


def _resolve_bandwidth(history: HistoryWindow, cfg: PredictorConfig,
                       auto: bool) -> PredictorConfig:
    if not auto:
        return cfg
    validation_days = min(30, max(1, len(history) - 31))
    grid = default_bandwidth_grid(history, cfg.shape_distance)
    h, _ = select_bandwidth(history, cfg, grid, validation_days)
    return replace(cfg, kernel=replace(cfg.kernel, bandwidth=h))


def cmd_ingest(args) -> int:
    grid = TimeGrid.equidistant(args.points_per_day)
    holidays = parse_holiday_file(_read_text(args.holidays)) if args.holidays else frozenset()
    records = parse_load_file(_read_text(args.load))
    temps = parse_temperature_history(_read_text(args.temps)) if args.temps else ()
    window, report = segmentize(
        records, grid, temps=temps, max_gap=args.max_gap, holiday_set=holidays
    )
    _atomic_write(args.out, history_jsonl_text(window))

    for line in report.summary_lines():
        print(line)
    n_rejected = len(report.rejected_dates)
    print(f"kept {len(window)} days, rejected {n_rejected}")
    if args.max_rejected is not None and n_rejected > args.max_rejected:
        print(
            f"error: {n_rejected} rejected days exceed --max-rejected={args.max_rejected}",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_predict(args) -> int:
    with _input_file(args.history):
        history = read_history_jsonl(args.history)
    if not len(history):
        raise ShapecastError("history file contains no usable days")
    date = args.date
    if date <= history.dates[0]:
        raise ShapecastError(
            f"target date {date.isoformat()} is not after the history start"
        )
    forecasts = parse_temperature_forecast(_read_text(args.temp_forecast), history.grid)
    if date not in forecasts:
        raise ShapecastError(f"no temperature forecast for {date.isoformat()}")
    ini = _load_ini(args.config)
    cfg, auto = build_predictor_config(args, ini)
    prior = history.before(date)
    cfg = _resolve_bandwidth(prior, cfg, auto)
    holidays = (
        parse_holiday_file(_read_text(args.holidays)) if args.holidays else frozenset()
    )
    meta = annotate_calendar(date, holidays)
    pred = predict_day(prior, meta, forecasts[date], args.next_day_max, cfg)
    text = prediction_to_json(pred, include_weights=args.include_weights) + "\n"
    if args.out:
        _atomic_write(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def _backtest_dates(args, history: HistoryWindow) -> list[dt.date]:
    if args.dates_file:
        dates = parse_date_lines(_read_text(args.dates_file), "dates file", unique=True)
        if not dates:
            raise ShapecastError(f"dates file {args.dates_file} lists no dates")
        return dates
    observed = ~np.isnan(history.temps[args.min_history:]).all(axis=1)
    eligible = [history.dates[args.min_history + i] for i in np.flatnonzero(observed)]
    if len(eligible) < args.sample:
        raise ShapecastError(
            f"only {len(eligible)} eligible days for --sample {args.sample}"
        )
    rng = np.random.default_rng(args.seed)
    picked = rng.choice(len(eligible), size=args.sample, replace=False)
    return [eligible[i] for i in sorted(picked)]


def cmd_backtest(args) -> int:
    with _input_file(args.history):
        history = read_history_jsonl(args.history)
    dates = _backtest_dates(args, history)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    ini = _load_ini(args.config)
    cfg, auto = build_predictor_config(args, ini)
    cfg = _resolve_bandwidth(history.before(min(dates)), cfg, auto)
    report = backtest(history, dates, methods, cfg)
    os.makedirs(args.out_dir, exist_ok=True)
    _atomic_write(os.path.join(args.out_dir, "report.csv"), emit_report(report, "csv"))
    _atomic_write(os.path.join(args.out_dir, "report.json"), emit_report(report, "json"))
    days_dir = os.path.join(args.out_dir, "days")
    os.makedirs(days_dir, exist_ok=True)
    for date_str, text in emit_day_curves(report).items():
        _atomic_write(os.path.join(days_dir, f"{date_str}.csv"), text)
    for method, stats in report.summary.items():
        print(
            f"{method}: mean RMAE {stats['mean_rmae']:.5f}, "
            f"median {stats['median_rmae']:.5f}, wins {stats['wins']}/{stats['days']}"
        )
    return 0


def cmd_simulate(args) -> int:
    lengths = args.lengths
    grid = TimeGrid.equidistant(args.points_per_day)
    noiseless = args.sigma == 0
    template = SyntheticSpec(
        grid=grid,
        length=max(lengths) + 1,
        noise_sigma=args.sigma,
        jitter_sigma=0.0 if noiseless else args.jitter,
        seed=args.seed,
        profile_mode="cycle" if noiseless else "random",
    )
    if noiseless:
        # exact-recovery setup: a compact kernel at a tiny bandwidth keeps
        # weight on exact shape matches only, and every past day is eligible
        experiment_kwargs = dict(
            h_of_L=lambda L: 1e-6,
            n_L_of_L=lambda L: L,
            kernel_kind="epanechnikov",
        )
    else:
        experiment_kwargs = dict(h_of_L=partial(default_h_schedule, coef=args.h_coef))
    rows = consistency_experiment(
        template,
        lengths,
        args.replications,
        **experiment_kwargs,
    )
    text = experiment_csv(rows)
    if args.out:
        _atomic_write(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shapecast",
        description="Short-term load forecasting via similar-shape kernel prediction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="normalize raw CSVs into a history file")
    p_ingest.add_argument("--load", required=True, help="load CSV (timestamp,load_mw)")
    p_ingest.add_argument("--temps", help="temperature CSV (timestamp,temp_c)")
    p_ingest.add_argument("--holidays", help="holiday file, one ISO date per line")
    p_ingest.add_argument("--out", required=True, help="output history JSONL")
    p_ingest.add_argument("--max-gap", type=_nonnegative_int, default=4)
    p_ingest.add_argument("--points-per-day", type=int, default=96)
    p_ingest.add_argument("--max-rejected", type=_nonnegative_int, default=None)
    p_ingest.set_defaults(func=cmd_ingest)

    def add_cfg_flags(p):
        p.add_argument("--config", help="INI config file")
        p.add_argument("--kernel", choices=["gaussian", "epanechnikov", "uniform"])
        p.add_argument(
            "--bandwidth", type=parse_bandwidth, help="positive number or 'auto'"
        )
        p.add_argument("--mode", choices=["argmin", "threshold"])
        p.add_argument(
            "--distance", choices=["euclidean", "mean-absolute", "max-absolute"]
        )
        p.add_argument("--same-group-only", action="store_true")

    p_predict = sub.add_parser("predict", help="predict one day")
    p_predict.add_argument("--history", required=True)
    p_predict.add_argument("--date", required=True, type=dt.date.fromisoformat)
    p_predict.add_argument("--temp-forecast", required=True)
    p_predict.add_argument("--next-day-max", type=float)
    p_predict.add_argument("--holidays")
    p_predict.add_argument("--out")
    p_predict.add_argument("--include-weights", action="store_true")
    add_cfg_flags(p_predict)
    p_predict.set_defaults(func=cmd_predict)

    p_backtest = sub.add_parser("backtest", help="walk-forward evaluation")
    p_backtest.add_argument("--history", required=True)
    p_backtest.add_argument("--dates-file")
    p_backtest.add_argument("--sample", type=_positive_int, default=30)
    p_backtest.add_argument("--seed", type=_nonnegative_int, default=0)
    p_backtest.add_argument("--min-history", type=_nonnegative_int, default=60)
    p_backtest.add_argument(
        "--methods", default="ssp,persistence,conditional-kernel"
    )
    p_backtest.add_argument("--out-dir", required=True)
    add_cfg_flags(p_backtest)
    p_backtest.set_defaults(func=cmd_backtest)

    p_sim = sub.add_parser("simulate", help="Monte Carlo consistency experiment")
    p_sim.add_argument("--lengths", type=_length_list, default="64,128,256,512")
    p_sim.add_argument("--replications", type=_positive_int, default=50)
    p_sim.add_argument("--sigma", type=_nonnegative_float, default=0.05)
    p_sim.add_argument("--jitter", type=_nonnegative_float, default=0.5)
    p_sim.add_argument("--seed", type=_nonnegative_int, default=0)
    p_sim.add_argument("--h-coef", type=float, default=0.6)
    p_sim.add_argument("--points-per-day", type=int, default=24)
    p_sim.add_argument("--out")
    p_sim.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ShapecastError, csv.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 2
        raise
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
