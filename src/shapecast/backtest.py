"""Rolling one-day-ahead backtests and report serialization.

Each requested date is predicted from strictly prior records only. Archived
temperature forecasts are not available, so the realized temperatures at the
comparison mask stand in for the forecast ("perfect-temperature protocol"),
and the realized daily maximum plays the provided next-day maximum. Scores
are computed on the megawatt scale.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .baselines import predict_conditional_kernel, predict_persistence
from .errors import ShapecastError
from .history import DailyRecord, HistoryWindow
from .metrics import DayScore, score_day
from .predictor import PredictorConfig, config_snapshot, predict_day
from .segments import LoadSegment


@dataclass
class DayCurves:
    actual: np.ndarray
    predicted: dict[str, np.ndarray] = field(default_factory=dict)


@dataclass
class BacktestReport:
    scores: list[DayScore]
    summary: dict[str, dict]
    config: dict
    grid_labels: tuple[str, ...]
    curves: dict[dt.date, DayCurves] = field(default_factory=dict)
    protocol: str = "perfect-temperature"


def _predict_ssp(prior: HistoryWindow, target: DailyRecord, cfg: PredictorConfig):
    pred = predict_day(
        prior,
        target.meta,
        target.temperature,
        next_day_max=float(np.max(target.load.values)),
        cfg=cfg,
    )
    return pred.scaled.values


def _predict_persistence(prior, target, cfg):
    shape = predict_persistence(prior, target.meta.group)
    return shape.values * float(np.max(target.load.values))


def _predict_conditional_kernel(prior, target, cfg):
    shape = predict_conditional_kernel(prior, cfg.kernel, cfg.shape_distance)
    return shape.values * float(np.max(target.load.values))


METHODS = {
    "ssp": _predict_ssp,
    "persistence": _predict_persistence,
    "conditional-kernel": _predict_conditional_kernel,
}


def backtest(
    history: HistoryWindow,
    dates,
    methods,
    cfg: PredictorConfig = PredictorConfig(),
    keep_curves: bool = True,
) -> BacktestReport:
    """Score every (date, method) pair; prior-only data enters each prediction."""
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise ShapecastError(f"unknown methods: {unknown}; pick from {sorted(METHODS)}")
    scores: list[DayScore] = []
    curves: dict[dt.date, DayCurves] = {}
    for date in dates:
        target = history.by_date(date)
        if target.temperature is None:
            raise ShapecastError(
                f"{date.isoformat()}: no realized temperature for the forecast stand-in"
            )
        prior = history.before(date)
        if not len(prior):
            raise ShapecastError(f"{date.isoformat()}: no prior history")
        day_curves = DayCurves(actual=target.load.values)
        for method in methods:
            predicted_values = METHODS[method](prior, target, cfg)
            predicted = LoadSegment(history.grid, predicted_values)
            rmae, maxdiff, mindiff = score_day(predicted, target.load)
            scores.append(DayScore(date, method, rmae, maxdiff, mindiff))
            day_curves.predicted[method] = predicted_values
        if keep_curves:
            curves[date] = day_curves
    return BacktestReport(
        scores=scores,
        summary=summarize(scores, list(methods)),
        config=config_snapshot(cfg),
        grid_labels=history.grid.labels if len(history) else (),
        curves=curves,
    )


def summarize(scores: list[DayScore], methods: list[str]) -> dict[str, dict]:
    """Per-method mean/median RMAE and per-date win counts (ties share the win)."""
    by_method = {m: [s for s in scores if s.method == m] for m in methods}
    by_date: dict[dt.date, dict[str, float]] = {}
    for s in scores:
        by_date.setdefault(s.date, {})[s.method] = s.rmae
    wins = {m: 0 for m in methods}
    for rmaes in by_date.values():
        best = min(rmaes.values())
        for m, r in rmaes.items():
            if r == best:
                wins[m] += 1
    summary = {}
    for m in methods:
        rmaes = [s.rmae for s in by_method[m]]
        summary[m] = {
            "days": len(rmaes),
            "mean_rmae": float(np.mean(rmaes)) if rmaes else None,
            "median_rmae": float(np.median(rmaes)) if rmaes else None,
            "wins": wins[m],
        }
    return summary


def emit_report(report: BacktestReport, format: str = "csv") -> str:
    """Flat CSV of the scores, or a JSON document that also carries the summary."""
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["date", "method", "rmae", "maxdiff", "mindiff"])
        for s in report.scores:
            writer.writerow(
                [s.date.isoformat(), s.method, repr(s.rmae), repr(s.maxdiff), repr(s.mindiff)]
            )
        return buf.getvalue()
    if format == "json":
        doc = {
            "protocol": report.protocol,
            "config": report.config,
            "summary": report.summary,
            "scores": [
                dict(asdict(s), date=s.date.isoformat()) for s in report.scores
            ],
        }
        return json.dumps(doc, sort_keys=True, indent=2)
    raise ShapecastError(f"unknown report format {format!r}")


def parse_report_csv(text: str) -> list[DayScore]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if header != ["date", "method", "rmae", "maxdiff", "mindiff"]:
        raise ShapecastError(f"bad report header {header!r}")
    return [
        DayScore(dt.date.fromisoformat(r[0]), r[1], float(r[2]), float(r[3]), float(r[4]))
        for r in reader
        if r
    ]


def emit_day_curves(report: BacktestReport) -> dict[str, str]:
    """Per-day CSV curve files keyed by date, columns `t,actual,<method>...`."""
    out = {}
    for date, day in sorted(report.curves.items()):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        methods = sorted(day.predicted)
        writer.writerow(["t", "actual"] + methods)
        for i, label in enumerate(report.grid_labels):
            row = [label, repr(float(day.actual[i]))]
            row += [repr(float(day.predicted[m][i])) for m in methods]
            writer.writerow(row)
        out[date.isoformat()] = buf.getvalue()
    return out
