"""Rolling one-day-ahead backtests and report serialization.

Each requested date is predicted and scored by the walk-forward protocol of
`predictor.walk_forward` (the "perfect-temperature protocol"), with scores on
the megawatt scale.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import json
from dataclasses import dataclass, field

import numpy as np
import orjson

from .baselines import predict_conditional_kernel, predict_persistence
from .errors import ShapecastError
from .history import HistoryWindow, orjson_unlike_repr
from .metrics import DayScore, score_day
from .predictor import PredictorConfig, config_snapshot, predict_day, walk_forward


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


# A method maps (prior history, target calendar, forecast, config) to the
# target's shape; it never sees the target's load.
METHODS = {
    "ssp": lambda prior, meta, forecast, cfg: (
        predict_day(prior, meta, forecast, cfg=cfg).shape
    ),
    "persistence": lambda prior, meta, forecast, cfg: (
        predict_persistence(prior, meta.group)
    ),
    "conditional-kernel": lambda prior, meta, forecast, cfg: (
        predict_conditional_kernel(prior, cfg.kernel, cfg.shape_distance)
    ),
}
# the methods that read the kernel bandwidth, so only they need it selected
BANDWIDTH_METHODS = frozenset({"ssp", "conditional-kernel"})


def check_methods(methods) -> None:
    """Refuse an empty list and any name that is not a key of `METHODS`."""
    if not methods:
        raise ShapecastError(f"no methods given; pick from {sorted(METHODS)}")
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise ShapecastError(f"unknown methods: {unknown}; pick from {sorted(METHODS)}")


def backtest(
    history: HistoryWindow,
    dates,
    methods,
    cfg: PredictorConfig = PredictorConfig(),
) -> BacktestReport:
    """Score every (date, method) pair, each date as `walk_forward` describes.

    Each method's shape is scaled by the day's realized maximum, and a day's
    methods are scored together in one `score_day` call.
    """
    check_methods(methods)
    scores: list[DayScore] = []
    curves: dict[dt.date, DayCurves] = {}
    # map, not a list: a date without a record fails only when the walk reaches it
    for i, prior, meta, forecast, day_max in walk_forward(history, map(history.row, dates)):
        actual = history.loads[i]
        predicted = np.array(
            [METHODS[m](prior, meta, forecast, cfg) for m in methods]
        ) * day_max
        curves[meta.date] = DayCurves(actual, dict(zip(methods, predicted)))
        # Python floats: repr of a numpy float would change the report
        day_scores = zip(methods, *(s.tolist() for s in score_day(predicted, actual, meta.date)))
        scores.extend(DayScore(meta.date, *score) for score in day_scores)
    return BacktestReport(
        scores=scores,
        summary=summarize(scores, list(methods)),
        config=config_snapshot(cfg),
        grid_labels=history.grid.labels,
        curves=curves,
    )


def summarize(scores: list[DayScore], methods: list[str]) -> dict[str, dict]:
    """Per-method mean/median RMAE and per-date win counts (ties share the win)."""
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
        rmaes = [s.rmae for s in scores if s.method == m]
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
        writer.writerows([s.date.isoformat(), s.method, repr(s.rmae), repr(s.maxdiff),
                          repr(s.mindiff)] for s in report.scores)
        return buf.getvalue()
    if format == "json":
        doc = {
            "protocol": report.protocol,
            "config": report.config,
            "summary": report.summary,
            # vars copies the fields shallowly; asdict would deep-copy every score
            "scores": [dict(vars(s), date=s.date.isoformat()) for s in report.scores],
        }
        return json.dumps(doc, sort_keys=True, indent=2)
    raise ShapecastError(f"unknown report format {format!r}")


def emit_day_curves(report: BacktestReport) -> dict[str, str]:
    """Per-day CSV curve files keyed by date, columns `t,actual,<method>...`."""
    out = {}
    for date, day in sorted(report.curves.items()):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        methods = sorted(day.predicted)
        writer.writerow(["t", "actual"] + methods)
        curves = np.array([day.actual] + [day.predicted[m] for m in methods])
        writer.writerows(zip(report.grid_labels, *_value_texts(curves)))
        out[date.isoformat()] = buf.getvalue()
    return out


def _value_texts(curves: np.ndarray) -> list:
    """Each row of `curves` as the `repr` of each of its values."""
    # orjson writes NaN and +-inf as null, where repr writes nan and inf
    odd = orjson_unlike_repr(curves) | ~np.isfinite(curves).all(axis=1)
    return [
        map(repr, row) if o else orjson.dumps(row)[1:-1].decode().split(",")
        for row, o in zip(curves.tolist(), odd.tolist())
    ]
