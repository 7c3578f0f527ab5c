"""Similar-shape predictor: kernel weights over the history and the forecast.

The next day's shape is a convex combination of all past shapes (daily-max
rescaled), weighted by kernel-smoothed distance to the reference segment, and
its megawatt curve is that shape times the provided next-day maximum. Dropped
candidates and weight fallbacks are values; `_report` alone warns and raises.
"""

from __future__ import annotations

import datetime as dt
import json
import warnings
from collections.abc import Mapping
from dataclasses import dataclass, field, fields, is_dataclass
from enum import Enum

import numpy as np

from .calendars import GROUPS, CalendarMeta, DayGroup
from .errors import EmptyCandidateError, InsufficientHistoryError, ShapecastError
from .history import HistoryWindow
from .metrics import score_day
from .reference import ReferenceConfig, ReferenceResult, candidate_set, select_reference
from .segments import DistanceKind, TemperatureSegment, TimeGrid, distances, read_only


class KernelKind(str, Enum):
    GAUSSIAN = "gaussian"
    EPANECHNIKOV = "epanechnikov"
    UNIFORM = "uniform"


def kernel_value(u: np.ndarray, kind: KernelKind) -> np.ndarray:
    """Evaluate the kernel density at scaled distances u >= 0."""
    u = np.asarray(u, dtype=float)
    if kind is KernelKind.GAUSSIAN:
        return np.exp(-0.5 * u * u) / np.sqrt(2.0 * np.pi)
    if kind is KernelKind.EPANECHNIKOV:
        return np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u * u), 0.0)
    return np.where(np.abs(u) <= 1.0, 0.5, 0.0)


@dataclass(frozen=True)
class KernelSpec:
    kind: KernelKind = KernelKind.GAUSSIAN
    bandwidth: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", KernelKind(self.kind))
        if not 0 < self.bandwidth < np.inf:
            raise ShapecastError("bandwidth must be positive and finite")


@dataclass(frozen=True)
class PredictorConfig:
    reference: ReferenceConfig = field(default_factory=ReferenceConfig)
    kernel: KernelSpec = field(default_factory=KernelSpec)
    shape_distance: DistanceKind = DistanceKind.EUCLIDEAN
    same_group_only: bool = False  # restrict the weighted sum to same-group days
    rescale: bool = True  # weight daily-max rescaled shapes (production default)

    def __post_init__(self) -> None:
        object.__setattr__(self, "shape_distance", DistanceKind(self.shape_distance))


@dataclass(frozen=True)
class Prediction:
    target_date: dt.date
    grid: TimeGrid
    shape: np.ndarray  # shape form
    scaled: np.ndarray | None  # megawatts, given a next-day maximum
    weights: np.ndarray
    reference: ReferenceResult
    config: PredictorConfig


def _kernel_weights(dists: np.ndarray, kind: KernelKind, bandwidth: float | np.ndarray,
                    in_group: np.ndarray | None = None) -> tuple:
    """Normalized kernel weights from the distance row of the history shapes.

    Returns (weights, dead, empty). A float `bandwidth` gives weights (L,), an
    (H, 1) column of them (H, L) whose row r is the float call's at bandwidth r.
    A dead row, without mass (compact kernel, tiny bandwidth), falls back to the
    nearest shape. `in_group` (True on target-group days) renormalizes each row
    over that group; an empty row has no mass there and stays 0.
    """
    with np.errstate(over="ignore"):  # an overflowed u is inf, where every kernel is 0
        mass = kernel_value(dists / bandwidth, kind)
    total = mass.sum(axis=-1, keepdims=True)
    dead = total[..., 0] == 0.0
    weights = mass / np.where(total == 0.0, 1.0, total)  # dead rows: 0 until the fallback
    if dead.any():
        weights[dead] = np.arange(len(dists)) == np.argmin(dists)
    if in_group is None:
        return weights, dead, np.zeros_like(dead)
    masked = weights * in_group
    total = masked.sum(axis=-1, keepdims=True)
    return masked / np.where(total == 0.0, 1.0, total), dead, total[..., 0] == 0.0


def _report(dropped: tuple[dt.date, ...], dead: np.ndarray, empty: np.ndarray) -> None:
    """Warn of each dropped candidate and of a fallback; raise on an empty group."""
    for day in dropped:  # one line for every caller: the default filter prints a date once
        warnings.warn(f"dropping candidate {day}: no temperature data on the comparison mask")
    if dead.any():  # the warning names the line that called our caller
        warnings.warn(
            "no segment within bandwidth; falling back to the nearest segment",
            stacklevel=3,
        )
    if empty.any():
        raise EmptyCandidateError(
            "same_group_only left no weight mass in the target group"
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
):
    """The bandwidth-independent part of `predict_day`.

    Candidates -> reference -> matrix -> distance row -> group mask; returns
    (reference, matrix, distance row, group mask or None).
    """
    if not len(history):
        raise InsufficientHistoryError("cannot predict from an empty history")
    candidates = candidate_set(history, group, cfg.reference)
    reference = select_reference(
        history, candidates, temp_forecast, cfg.reference, rescale=cfg.rescale
    )
    matrix = history.shapes if cfg.rescale else history.loads
    dists = distances(matrix, reference.reference, cfg.shape_distance)
    in_group = history.group == GROUPS.index(group) if cfg.same_group_only else None
    return reference, matrix, dists, in_group


def predict_day(
    history: HistoryWindow,
    target: CalendarMeta,
    temp_forecast: TemperatureSegment,
    next_day_max: float | None = None,
    cfg: PredictorConfig = PredictorConfig(),
) -> Prediction:
    """Full pipeline: candidates -> reference -> weights -> shape (-> megawatts)."""
    if next_day_max is not None and not 0 < next_day_max < np.inf:
        raise ShapecastError("next_day_max must be positive and finite")
    reference, matrix, dists, in_group = _stage(
        history, target.group, temp_forecast, cfg
    )
    weights, *fallbacks = _kernel_weights(dists, cfg.kernel.kind, cfg.kernel.bandwidth, in_group)
    _report(reference.dropped, *fallbacks)
    shape = read_only(predict_shape(matrix, weights))
    return Prediction(
        target_date=target.date,
        grid=history.grid,
        shape=shape,
        scaled=None if next_day_max is None else read_only(shape * next_day_max),
        weights=weights,
        reference=reference,
        config=cfg,
    )


def walk_forward(history: HistoryWindow, rows):
    """Yield (i, prior, meta, forecast, day_max) to predict each of `rows` in turn.

    The one-day-ahead protocol of bandwidth CV and the backtest: day i is
    predicted from the strictly prior days `history.span(0, i)` and scored
    against its realized load `history.loads[i]`. No forecasts are archived,
    so the day's realized temperature, all P points of it, stands in for the
    forecast, and its realized maximum for the provided next-day maximum.
    """
    for i in rows:
        date = history.dates[i].isoformat()
        if np.isnan(history.temps[i]).all():
            raise ShapecastError(
                f"{date}: no realized temperature to stand in for the forecast"
            )
        if not i:
            raise ShapecastError(f"{date}: no prior history")
        forecast = TemperatureSegment(history.grid, history.temps[i])
        yield (i, history.span(0, i), history.meta(i), forecast,
               float(np.max(history.loads[i])))


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
    if n_pairs > GRID_MAX_PAIRS:
        rng = np.random.default_rng(0)
        picked = np.sort(rng.choice(n_pairs, size=GRID_MAX_PAIRS, replace=False))
    else:
        picked = np.arange(n_pairs)
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

    Each day of the validation window (the trailing `CV_DAYS` days, or
    len - `CV_MIN_TRAIN` days, at least one, on a shorter history) is
    predicted one day ahead by the `walk_forward` protocol; mean relative
    absolute error decides, ties go to the smaller bandwidth. The reference
    and its distance row do not depend on the bandwidth, so each validation
    day computes them once, then weighs, combines and scores every bandwidth
    in one call each; the results equal one `predict_day` per (h, day).
    """
    h_grid = default_bandwidth_grid(history, cfg.shape_distance)
    validation_days = min(CV_DAYS, max(1, len(history) - CV_MIN_TRAIN))
    if len(history) <= validation_days + 1:
        raise InsufficientHistoryError(
            f"need more than {validation_days + 1} days of history"
        )
    # one contiguous row per bandwidth: a column mean would sum in another order
    errs = np.empty((len(h_grid), validation_days))
    days = walk_forward(history, range(len(history) - validation_days, len(history)))
    for k, (i, prior, meta, forecast, next_day_max) in enumerate(days):
        reference, matrix, dists, in_group = _stage(prior, meta.group, forecast, cfg)
        weights, *fallbacks = _kernel_weights(dists, cfg.kernel.kind, h_grid[:, None], in_group)
        _report(reference.dropped, *fallbacks)
        errs[:, k] = score_day(predict_shape(matrix, weights) * next_day_max,
                               history.loads[i], meta.date)[0]
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
    """Plain-JSON form of a config: dataclass fields, Enum values, mappings."""
    if is_dataclass(cfg):
        return {f.name: config_snapshot(getattr(cfg, f.name)) for f in fields(cfg)}
    if isinstance(cfg, Enum):
        return cfg.value
    if isinstance(cfg, Mapping):
        return {config_snapshot(k): config_snapshot(v) for k, v in cfg.items()}
    return cfg


def prediction_to_json(pred: Prediction, include_weights: bool = False) -> str:
    return json.dumps(
        prediction_to_dict(pred, include_weights), sort_keys=True, indent=2
    )
