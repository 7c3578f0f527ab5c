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

import numpy as np

from .backtest import BANDWIDTH_METHODS, backtest, check_methods
from .backtest import emit_day_curves, emit_report
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
    predict_day,
    prediction_to_json,
    select_bandwidth,
)
from .reference import DEFAULT_N_L, DeltaRule, DeltaRuleKind, ReferenceConfig
from .segments import DistanceKind, TimeGrid
from .synthetic import SyntheticSpec, consistency_experiment, experiment_csv


def _atomic_write(path: str, text: str) -> None:
    """Write `path` by way of `<path>.tmp`; a failed write is an I/O error (exit 2)."""
    tmp = f"{path}.tmp"
    try:
        fh = open(tmp, "w", encoding="utf-8")
        try:
            with fh:
                fh.write(text)
            os.replace(tmp, path)
        except OSError:
            os.remove(tmp)  # the file opened above, never a directory
            raise
    except OSError as exc:
        raise SystemExit(f"error: cannot write {path}: {exc.strerror}") from exc


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
            # `parser.read` would skip a file it cannot open, such as a directory
            with _input_file(path), open(path, encoding="utf-8") as fh:
                parser.read_file(fh)
        except configparser.Error as exc:
            raise SystemExit(f"error: config file {path}: {exc}") from None
    # a [DEFAULT] key would show in every section, so none is read there
    for section in (parser.default_section, *parser.sections()):
        keys = [k for s, k in INI_KEYS if s == section]
        for key in parser[section]:
            if key not in keys:
                raise SystemExit(f"error: config [{section}] {key}: unknown key; "
                                 f"[{section}] takes {', '.join(keys) or 'no key'}")
        if not keys and section != parser.default_section:
            raise SystemExit(f"error: config [{section}]: unknown section")
    return parser


def parse_bandwidth(text: str) -> str | float:
    """'auto' or a positive finite number: the --bandwidth flag and the INI value."""
    if text == "auto":
        return text
    try:
        return _positive_float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bandwidth must be 'auto' or a positive number, got {text!r}"
        ) from None


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
    if not 0 <= value < np.inf:  # NaN fails too
        raise ValueError("must be a nonnegative finite number")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0 < value < np.inf:  # NaN fails too
        raise ValueError("must be a positive finite number")
    return value


def _points_per_day(text: str) -> int:
    """A grid size that divides the day: the --points-per-day flag."""
    try:
        return TimeGrid.equidistant(int(text)).points_per_day
    except ShapecastError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _length_list(text: str) -> list[int]:
    """Comma list of positive integers, at least one: the --lengths flag."""
    lengths = [_positive_int(x) for x in text.split(",") if x.strip()]
    if not lengths:
        raise ValueError("need at least one length")
    return lengths


def _optional_nonnegative_float(text: str) -> float | None:
    return _nonnegative_float(text) if text else None


# every setting a config file may hold, (section, key) -> (parse, default, flag),
# where flag names the argparse dest that overrides the key, or None: the table
# `build_predictor_config` reads and `_load_ini` refuses any other key by
INI_KEYS = {
    ("reference", "n_l_g1"): (_positive_int, DEFAULT_N_L[DayGroup.G1], None),
    ("reference", "n_l_default"): (_positive_int, DEFAULT_N_L[DayGroup.G2], None),
    ("reference", "delta_rule"): (DeltaRuleKind, DeltaRule.kind, None),
    ("reference", "delta_value"): (_optional_nonnegative_float, DeltaRule.value, None),
    ("distance", "kind"): (DistanceKind, PredictorConfig.shape_distance, "distance"),
    ("kernel", "kind"): (KernelKind, KernelSpec.kind, "kernel"),
    ("kernel", "bandwidth"): (parse_bandwidth, "auto", "bandwidth"),
}


def build_predictor_config(args, cv_history: HistoryWindow | None) -> PredictorConfig:
    """The `--config` file's settings, then the command-line flags on top.

    Every value the file holds must parse, also one a flag overrides; a bad
    one is a usage error (exit 2). An 'auto' bandwidth is selected on
    `cv_history`; without one it stays the library default, unused.
    """
    ini = _load_ini(args.config)
    settings = {}
    for (section, key), (parse, default, flag) in INI_KEYS.items():
        value = default
        if ini.has_option(section, key):
            try:
                value = parse(ini.get(section, key))
            except (configparser.Error, ValueError, argparse.ArgumentTypeError) as exc:
                raw = ini.get(section, key, raw=True)
                raise SystemExit(f"error: config [{section}] {key} = {raw!r}: {exc}") from None
        if flag is not None and getattr(args, flag) is not None:
            value = getattr(args, flag)
        settings[section, key] = value
    try:
        delta_rule = DeltaRule(kind=settings["reference", "delta_rule"],
                               value=settings["reference", "delta_value"])
    except ShapecastError as exc:  # a value out of the rule's range is a usage error
        raw = ini.get("reference", "delta_value", raw=True, fallback=None)
        where = "unset" if raw is None else f"= {raw!r}"
        raise SystemExit(f"error: config [reference] delta_value {where}: {exc}") from None
    n_l_by_group = dict.fromkeys(DayGroup, settings["reference", "n_l_default"])
    n_l_by_group[DayGroup.G1] = settings["reference", "n_l_g1"]
    bandwidth = settings["kernel", "bandwidth"]
    cfg = PredictorConfig(
        reference=ReferenceConfig(
            n_L_by_group=n_l_by_group,
            delta_rule=delta_rule,
            temp_distance=settings["distance", "kind"],
        ),
        kernel=KernelSpec(
            kind=settings["kernel", "kind"],
            bandwidth=KernelSpec.bandwidth if bandwidth == "auto" else bandwidth,
        ),
        shape_distance=settings["distance", "kind"],
        same_group_only=args.same_group_only,
    )
    if bandwidth == "auto" and cv_history is not None:
        h, _ = select_bandwidth(cv_history, cfg)
        cfg = replace(cfg, kernel=replace(cfg.kernel, bandwidth=h))
    return cfg


def cmd_ingest(args) -> int:
    grid = TimeGrid.equidistant(args.points_per_day)
    holidays = parse_holiday_file(_read_text(args.holidays)) if args.holidays else frozenset()
    records = parse_load_file(_read_text(args.load))
    temps = parse_temperature_history(_read_text(args.temps)) if args.temps else None
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
    prior = history.before(date)
    cfg = build_predictor_config(args, prior)
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
    check_methods(methods)
    # a run of bandwidth-free methods keeps the unused default bandwidth
    uses_h = not BANDWIDTH_METHODS.isdisjoint(methods)
    cfg = build_predictor_config(args, history.before(min(dates)) if uses_h else None)
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
    template = SyntheticSpec(
        grid=TimeGrid.equidistant(args.points_per_day),
        length=max(args.lengths) + 1,
        noise_sigma=args.sigma,
        jitter_sigma=args.jitter,
        seed=args.seed,
    )
    run = consistency_experiment(
        template, args.lengths, args.replications, h_coef=args.h_coef
    )
    text = experiment_csv(run)
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
    p_ingest.add_argument("--points-per-day", type=_points_per_day, default=96)
    p_ingest.add_argument("--max-rejected", type=_nonnegative_int, default=None)
    p_ingest.set_defaults(func=cmd_ingest)

    def add_cfg_flags(p):
        p.add_argument("--config", help="INI config file")
        p.add_argument("--kernel", choices=[k.value for k in KernelKind])
        p.add_argument(
            "--bandwidth", type=parse_bandwidth, help="positive number or 'auto'"
        )
        p.add_argument("--distance", choices=[d.value for d in DistanceKind])
        p.add_argument("--same-group-only", action="store_true")

    p_predict = sub.add_parser("predict", help="predict one day")
    p_predict.add_argument("--history", required=True)
    p_predict.add_argument("--date", required=True, type=dt.date.fromisoformat)
    p_predict.add_argument("--temp-forecast", required=True)
    p_predict.add_argument("--next-day-max", type=_positive_float)
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
    p_backtest.add_argument("--min-history", type=_positive_int, default=60)
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
    p_sim.add_argument("--h-coef", type=_positive_float, default=0.6)
    p_sim.add_argument("--points-per-day", type=_points_per_day, default=24)
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
