"""Rolling one-day-ahead backtests and report serialization.

`predictor.walk_forward` predicts and scores every requested date with all
methods at once (the "perfect-temperature protocol"), with scores on the
megawatt scale. A run is its dates x methods table, which the summary reduces
and every report file reads.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import json
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .baselines import predict_conditional_kernel, predict_persistence
from .errors import ShapecastError
from .history import HistoryWindow, _rows_text
from .predictor import PredictorConfig, config_snapshot, predict_day, walk_forward

PROTOCOL = "perfect-temperature"
SCORE_NAMES = ("rmae", "maxdiff", "mindiff")


@dataclass
class BacktestReport:
    dates: list[dt.date]  # D
    methods: list[str]  # M
    actual: np.ndarray  # D x P megawatts
    predicted: np.ndarray  # D x M x P megawatts
    scores: np.ndarray  # D x M x SCORE_NAMES, in score_day's order
    summary: dict[str, dict]
    config: dict
    grid_labels: tuple[str, ...]


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
        predict_conditional_kernel(prior, cfg.kernel, cfg.distance)
    ),
}
# the methods that read the kernel bandwidth, so only they need it selected
BANDWIDTH_METHODS = frozenset({"ssp", "conditional-kernel"})


def check_methods(methods) -> None:
    """Refuse an empty list, a name that is not a key of `METHODS` and a repeat."""
    if not methods:
        raise ShapecastError(f"no methods given; pick from {sorted(METHODS)}")
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise ShapecastError(f"unknown methods: {unknown}; pick from {sorted(METHODS)}")
    repeated = sorted({m for m in methods if methods.count(m) > 1})
    if repeated:
        raise ShapecastError(f"methods listed more than once: {repeated}")


def backtest(
    history: HistoryWindow,
    dates,
    methods,
    cfg: PredictorConfig = PredictorConfig(),
) -> BacktestReport:
    """Score every (date, method) pair, each date by `walk_forward`."""
    check_methods(methods)
    dates, methods = list(dates), list(methods)
    repeated = sorted(d.isoformat() for d, n in Counter(dates).items() if n > 1)
    if repeated:
        raise ShapecastError(f"dates listed more than once: {repeated}")
    actual, predicted, scores = walk_forward(
        history, dates,
        lambda prior, meta, forecast: np.array(
            [METHODS[m](prior, meta, forecast, cfg) for m in methods]),
        len(methods),
    )
    return BacktestReport(
        dates=dates,
        methods=methods,
        actual=actual,
        predicted=predicted,
        scores=scores,
        summary=summarize(scores[:, :, 0], methods),
        config=config_snapshot(cfg),
        grid_labels=history.grid.labels,
    )


def summarize(rmae: np.ndarray, methods: list[str]) -> dict[str, dict]:
    """Per-method mean/median RMAE and per-date wins (ties share) of a D x M table."""
    wins = (rmae == rmae.min(axis=1, keepdims=True)).sum(axis=0).tolist()
    return {
        m: {
            "days": len(rmae),
            "mean_rmae": float(np.mean(column)) if len(rmae) else None,
            "median_rmae": float(np.median(column)) if len(rmae) else None,
            "wins": w,
        }
        for m, column, w in zip(methods, rmae.T, wins)
    }


def emit_report(report: BacktestReport, format: str = "csv") -> str:
    """Flat CSV of the scores, or a JSON document that also carries the summary."""
    header = ["date", "method", *SCORE_NAMES]
    # Python floats: csv and json write their repr, where a numpy float's repr differs
    rows = [[date.isoformat(), method, *score]
            for date, day in zip(report.dates, report.scores.tolist())
            for method, score in zip(report.methods, day)]
    if format == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([header, *rows])
        return buf.getvalue()
    if format == "json":
        doc = {
            "protocol": PROTOCOL,
            "config": report.config,
            "summary": report.summary,
            "scores": [dict(zip(header, row)) for row in rows],
        }
        return json.dumps(doc, sort_keys=True, indent=2)
    raise ShapecastError(f"unknown report format {format!r}")


def emit_day_curves(report: BacktestReport) -> dict[str, str]:
    """Per-day CSV curve files keyed by date, columns `t,actual,<method>...`."""
    header = ["t", "actual", *sorted(report.methods)]
    order = np.argsort(report.methods)
    curves = np.concatenate([report.actual[:, None], report.predicted[:, order]], axis=1)
    out = {}
    for date, day in sorted(zip(report.dates, curves), key=lambda pair: pair[0]):
        buf = io.StringIO()
        rows = zip(report.grid_labels, *_value_texts(day))
        csv.writer(buf, lineterminator="\n").writerows([header, *rows])
        out[date.isoformat()] = buf.getvalue()
    return out


def _value_texts(curves: np.ndarray) -> list:
    """Each row of `curves` as the `repr` of each of its values."""
    # the history writer spells a finite value as repr does, but NaN as null
    finite = np.isfinite(curves).all(axis=1).tolist()
    return [
        text[1:-1].decode().split(", ") if ok else map(repr, row)
        for text, row, ok in zip(_rows_text(curves), curves.tolist(), finite)
    ]
