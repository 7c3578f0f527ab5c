"""Similar-shape predictor: kernel weights over the history and the forecast.

The next day's shape is a convex combination of all past shapes (daily-max
rescaled), weighted by kernel-smoothed distance to the reference segment, and
its megawatt curve is that shape times the provided next-day maximum. Dropped
candidates and weight fallbacks are values; `_report` alone warns of them.
`walk_forward` alone scales by a realized maximum and scores, for bandwidth
CV and the backtest alike.
"""

from __future__ import annotations

import datetime as dt
import json
import warnings
from dataclasses import dataclass, field, fields, is_dataclass
from enum import Enum

import numpy as np

from .calendars import CalendarMeta, DayGroup
from .errors import InsufficientHistoryError, ShapecastError, finite
from .history import HistoryWindow
from .metrics import score_day
from .reference import ReferenceConfig, ReferenceResult, candidate_set, select_reference
from .segments import DistanceKind, TemperatureSegment, TimeGrid, distances, read_only


class KernelKind(str, Enum):
    GAUSSIAN = "gaussian"
    EPANECHNIKOV = "epanechnikov"


def kernel_value(u: np.ndarray, kind: KernelKind) -> np.ndarray:
    """Evaluate the kernel density at scaled distances u >= 0."""
    u = np.asarray(u, dtype=float)
    if kind is KernelKind.GAUSSIAN:
        a = -0.5 * u * u
        # exp is exactly +0.0 below -745.1332 and slow there; a NaN is still computed
        mass = np.exp(a, out=np.zeros_like(a), where=~(a <= -746.0))
        return mass / np.sqrt(2.0 * np.pi)
    return np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u * u), 0.0)


@dataclass(frozen=True)
class KernelSpec:
    bandwidth: float = 1.0  # of the predictor's Gaussian kernel

    def __post_init__(self) -> None:
        object.__setattr__(self, "bandwidth", finite(self.bandwidth, "bandwidth"))  # for json


@dataclass(frozen=True)
class PredictorConfig:
    reference: ReferenceConfig = field(default_factory=ReferenceConfig)
    kernel: KernelSpec = field(default_factory=KernelSpec)
    distance: DistanceKind = DistanceKind.EUCLIDEAN  # compares temperatures and shapes

    def __post_init__(self) -> None:
        object.__setattr__(self, "distance", DistanceKind(self.distance))


@dataclass(frozen=True)
class Prediction:
    target_date: dt.date
    grid: TimeGrid
    shape: np.ndarray  # shape form
    scaled: np.ndarray | None  # megawatts, given a next-day maximum
    weights: np.ndarray
    reference: ReferenceResult
    config: PredictorConfig


def _kernel_weights(dists: np.ndarray, kind: KernelKind,
                    bandwidth: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalized kernel weights from the distance row of the history shapes.

    Returns (weights, dead). A float `bandwidth` gives weights (L,), an (H, 1)
    column of them (H, L) whose row r is the float call's at bandwidth r. A
    dead row, without mass (every Gaussian mass underflows, or no shape lies
    within a compact kernel's reach), falls back to the nearest shape.
    """
    with np.errstate(over="ignore"):  # an overflowed u is inf, where every kernel is 0
        mass = kernel_value(dists / bandwidth, kind)
    total = mass.sum(axis=-1, keepdims=True)
    dead = total[..., 0] == 0.0
    weights = mass / np.where(total == 0.0, 1.0, total)  # dead rows: 0 until the fallback
    if dead.any():
        weights[dead] = np.arange(len(dists)) == np.argmin(dists)
    return weights, dead


def _report(dropped: tuple[dt.date, ...], dead: np.ndarray, stacklevel: int = 3) -> None:
    """Warn of each dropped candidate and of a fallback to the nearest shape."""
    for day in dropped:  # one line for every caller: the default filter prints a date once
        warnings.warn(f"dropping candidate {day}: no temperature data on the comparison mask")
    if dead.any():  # by default the warning names the line that called our caller
        warnings.warn(
            "no segment within bandwidth; falling back to the nearest segment",
            stacklevel=stacklevel,
        )


def predict_shape(shapes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Coordinate-wise convex combination of history shapes.

    `weights` is (L,) or (H, L); each row takes its own (1 x L) @ (L x P)
    product, bit for bit the row's own call, which (H x L) @ (L x P) is not.
    """
    shapes = np.atleast_2d(np.asarray(shapes, dtype=float))
    weights = np.asarray(weights, dtype=float)
    if shapes.shape[0] != weights.shape[-1]:
        raise ShapecastError(
            f"{shapes.shape[0]} shapes but {weights.shape[-1]} weights"
        )
    return (weights[..., None, :] @ shapes)[..., 0, :]


def _stage(
    history: HistoryWindow,
    group: DayGroup,
    temp_forecast: TemperatureSegment,
    cfg: PredictorConfig,
    bandwidth: float | np.ndarray,
):
    """Candidates -> reference -> distance row -> weights -> combined shape.

    The reference averages the history's shapes and the weights combine them,
    for `predict_day` and bandwidth CV alike. Returns (reference, weights,
    shape, dead), `dead` being `_kernel_weights`'s fallback mask for the
    caller to `_report`. A float `bandwidth` gives one row; an (H, 1) column
    gives one row per bandwidth.
    """
    if not len(history):
        raise InsufficientHistoryError("cannot predict from an empty history")
    candidates = candidate_set(history, group, cfg.reference)
    shapes = history.shapes
    reference = select_reference(history, candidates, temp_forecast, cfg.distance)
    dists = distances(shapes, reference.reference, cfg.distance)
    weights, dead = _kernel_weights(dists, KernelKind.GAUSSIAN, bandwidth)
    return reference, weights, read_only(predict_shape(shapes, weights)), dead


def predict_day(
    history: HistoryWindow,
    target: CalendarMeta,
    temp_forecast: TemperatureSegment,
    next_day_max: float | None = None,
    cfg: PredictorConfig = PredictorConfig(),
) -> Prediction:
    """Full pipeline: candidates -> reference -> weights -> shape (-> megawatts)."""
    next_day_max = None if next_day_max is None else finite(next_day_max, "next_day_max")
    reference, weights, shape, dead = _stage(
        history, target.group, temp_forecast, cfg, cfg.kernel.bandwidth
    )
    _report(reference.dropped, dead)
    return Prediction(
        target_date=target.date,
        grid=history.grid,
        shape=shape,
        scaled=None if next_day_max is None else read_only(shape * next_day_max),
        weights=weights,
        reference=reference,
        config=cfg,
    )


def walk_forward(history: HistoryWindow, dates, predict, K: int) -> tuple:
    """Predict, scale and score each of `dates` one day ahead.

    The one protocol of bandwidth CV and the backtest: day i is predicted by
    `predict(prior, meta, forecast)`, its K shapes as a K x P array, from the
    strictly prior days `history.span(0, i)`. No forecasts are archived, so
    the day's realized temperature, all P points of it, stands in for the
    forecast, and its realized maximum scales the shapes to megawatts. Returns
    (actual D x P, predicted D x K x P, `score_day`'s scores D x K x 3).
    """
    D, P = len(dates), history.loads.shape[1]
    actual, predicted, scores = np.empty((D, P)), np.empty((D, K, P)), np.empty((D, K, 3))
    for d, date in enumerate(dates):
        i = history.row(date)  # a date without a record fails only when the walk reaches it
        if not history.has_temps[i]:
            raise ShapecastError(
                f"{date.isoformat()}: no realized temperature to stand in for the forecast"
            )
        if not i:
            raise ShapecastError(f"{date.isoformat()}: no prior history")
        meta, actual[d] = history.meta(i), history.loads[i]
        forecast = TemperatureSegment(history.grid, history.temps[i])
        predicted[d] = predict(history.span(0, i), meta, forecast) * float(history.peaks[i])
        scores[d] = np.transpose(score_day(predicted[d], actual[d], meta.date))
    return actual, predicted, scores


# the bandwidth grid: GRID_POINTS log-spaced multiples, GRID_SPAN apart, of the
# median shape distance over all pairs of history days or GRID_MAX_PAIRS of them
GRID_POINTS = 25
GRID_SPAN = (0.01, 10.0)
GRID_MAX_PAIRS = 2000
# CV predicts the trailing CV_DAYS days, fewer when the history is short, so
# that the first of them keeps CV_MIN_TRAIN days before it (down to one day)
CV_DAYS = 30
CV_MIN_TRAIN = 31


def default_bandwidth_grid(
    history: HistoryWindow, dist: DistanceKind = DistanceKind.EUCLIDEAN
) -> np.ndarray:
    """Log-spaced bandwidth grid anchored at the median pairwise shape distance.

    The median runs over all pairs of history days, or over `GRID_MAX_PAIRS`
    of them drawn with a fixed seed.
    """
    shapes = history.shapes
    L = shapes.shape[0]
    if L < 2:
        raise InsufficientHistoryError("need at least two days for a bandwidth grid")
    n_pairs = L * (L - 1) // 2
    # drawing every pair without replacement permutes them: the sorted draw is all of them
    rng = np.random.default_rng(0)
    picked = np.sort(rng.choice(n_pairs, size=min(n_pairs, GRID_MAX_PAIRS), replace=False))
    # pairs (i, j), i < j, are numbered row by row; row i starts at starts[i]
    rows = np.arange(L - 1)
    starts = rows * (L - 1) - rows * (rows - 1) // 2
    i = np.searchsorted(starts, picked, side="right") - 1
    j = i + 1 + (picked - starts[i])
    med = float(np.median(distances(shapes[i], shapes[j], dist)))
    if med <= 0:
        med = 1e-6
    return med * np.logspace(np.log10(GRID_SPAN[0]), np.log10(GRID_SPAN[1]), GRID_POINTS)


def select_bandwidth(
    history: HistoryWindow, cfg: PredictorConfig
) -> tuple[float, list[tuple[float, float]]]:
    """One-day-ahead empirical risk of each `default_bandwidth_grid` bandwidth.

    `walk_forward` predicts the validation window (the trailing `CV_DAYS`
    days, or len - `CV_MIN_TRAIN`, at least one, on a shorter history) at
    every bandwidth; mean relative absolute error decides, ties go to the
    smaller bandwidth. One `_stage` per day weighs and combines the whole
    grid; the results equal one `predict_day` per (h, day).
    """
    h_grid = default_bandwidth_grid(history, cfg.distance)
    validation_days = min(CV_DAYS, max(1, len(history) - CV_MIN_TRAIN))
    if len(history) <= validation_days + 1:
        raise InsufficientHistoryError(
            f"need more than {validation_days + 1} days of history"
        )

    def predict(prior, meta, forecast):
        reference, _, shapes, dead = _stage(prior, meta.group, forecast, cfg, h_grid[:, None])
        # the fallback names the line that called select_bandwidth
        _report(reference.dropped, dead, stacklevel=5)
        return shapes

    _, _, scores = walk_forward(
        history, history.dates[-validation_days:], predict, len(h_grid))
    # one contiguous row per bandwidth: a column mean would sum in another order
    errs = scores[..., 0].T.copy()
    risks = [(h, float(np.mean(e))) for h, e in zip(h_grid.tolist(), errs)]
    best_h, _ = min(risks, key=lambda hr: (hr[1], hr[0]))
    return best_h, risks


def prediction_to_dict(pred: Prediction, include_weights: bool = False) -> dict:
    d = {
        "date": pred.target_date.isoformat(),
        "grid": list(pred.grid.labels),
        "shape": [float(v) for v in pred.shape],
        "scaled": None if pred.scaled is None else [float(v) for v in pred.scaled],
        "reference_dates": [day.isoformat() for day in pred.reference.c_star],
        "config": config_snapshot(pred.config),
    }
    if include_weights:
        d["weights"] = [float(w) for w in pred.weights]
    return d


def config_snapshot(cfg) -> dict:
    """Plain-JSON form of a config: dataclass fields and Enum values."""
    if is_dataclass(cfg):
        return {f.name: config_snapshot(getattr(cfg, f.name)) for f in fields(cfg)}
    if isinstance(cfg, Enum):
        return cfg.value
    return cfg


def prediction_to_json(pred: Prediction, include_weights: bool = False) -> str:
    return json.dumps(
        prediction_to_dict(pred, include_weights), sort_keys=True, indent=2
    )
