"""Similar-shape predictor: kernel weights over the history and the forecast.

The prediction for the next day is a convex combination of all past shape
segments, weighted by kernel-smoothed distance to the reference segment. The
weighting runs on shape form (daily-max rescaled) throughout; the megawatt
curve is recovered at the end by multiplying with the provided next-day
maximum.
"""

from __future__ import annotations

import datetime as dt
import json
import warnings
from collections.abc import Mapping
from dataclasses import dataclass, field, fields, is_dataclass, replace
from enum import Enum

import numpy as np

from .calendars import CalendarMeta, DayGroup
from .errors import EmptyCandidateError, InsufficientHistoryError, ShapecastError
from .history import HistoryWindow
from .reference import ReferenceConfig, ReferenceResult, candidate_set, select_reference
from .segments import DistanceSpec, LoadSegment, TemperatureSegment, distances


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
        if not self.bandwidth > 0:
            raise ShapecastError("bandwidth must be positive")


@dataclass(frozen=True)
class PredictorConfig:
    reference: ReferenceConfig = field(default_factory=ReferenceConfig)
    kernel: KernelSpec = field(default_factory=KernelSpec)
    shape_distance: DistanceSpec = field(default_factory=DistanceSpec)
    same_group_only: bool = False  # restrict the weighted sum to same-group days
    rescale: bool = True  # weight daily-max rescaled shapes (production default)


@dataclass(frozen=True)
class Prediction:
    target_date: dt.date
    shape: LoadSegment
    scaled: LoadSegment | None
    weights: np.ndarray
    reference: ReferenceResult
    config: PredictorConfig


def compute_weights(
    shapes: np.ndarray,
    reference: np.ndarray,
    kernel: KernelSpec,
    dist: DistanceSpec = DistanceSpec(),
) -> np.ndarray:
    """Normalized kernel weights of every history shape against the reference.

    Falls back to a one-hot weight on the nearest shape (with a warning) when
    a compact kernel at a tiny bandwidth kills all mass.
    """
    shapes = np.atleast_2d(np.asarray(shapes, dtype=float))
    if shapes.shape[0] < 1:
        raise InsufficientHistoryError("need at least one history segment")
    return _kernel_weights(distances(shapes, reference, dist), kernel)


def _kernel_weights(
    dists: np.ndarray, kernel: KernelSpec, in_group: np.ndarray | None = None
) -> np.ndarray:
    """Normalized kernel weights from the distance row of the history shapes.

    A compact kernel at a tiny bandwidth can kill all mass; the weight then
    falls back, with a warning, to the nearest shape. With `in_group` (1.0
    for days of the target group, 0.0 otherwise) the weights are restricted
    to that group and renormalized.
    """
    mass = kernel_value(dists / kernel.bandwidth, kernel.kind)
    total = mass.sum()
    if total == 0.0:
        warnings.warn(
            "no segment within bandwidth; falling back to the nearest segment",
            stacklevel=3,
        )
        weights = np.zeros(len(dists))
        weights[int(np.argmin(dists))] = 1.0
    else:
        weights = mass / total
    if in_group is None:
        return weights
    masked = weights * in_group
    if masked.sum() == 0.0:
        raise EmptyCandidateError(
            "same_group_only left no weight mass in the target group"
        )
    return masked / masked.sum()


def _group_mask(records, group: DayGroup) -> np.ndarray:
    return np.array([r.meta.group is group for r in records], dtype=float)


def predict_shape(shapes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Coordinate-wise convex combination of history shapes."""
    shapes = np.atleast_2d(np.asarray(shapes, dtype=float))
    weights = np.asarray(weights, dtype=float)
    if shapes.shape[0] != weights.shape[0]:
        raise ShapecastError(
            f"{shapes.shape[0]} shapes but {weights.shape[0]} weights"
        )
    return weights @ shapes


def _matrix(history: HistoryWindow, cfg: PredictorConfig) -> np.ndarray:
    """The rows the weights run on: shapes, or raw loads with rescale=False."""
    return history.shapes if cfg.rescale else history.loads


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
        candidates, temp_forecast, cfg.reference, rescale=cfg.rescale
    )
    matrix = _matrix(history, cfg)
    dists = distances(matrix, reference.reference.values, cfg.shape_distance)
    in_group = _group_mask(history.records, group) if cfg.same_group_only else None
    return reference, matrix, dists, in_group


def predict_day(
    history: HistoryWindow,
    target: CalendarMeta,
    temp_forecast: TemperatureSegment,
    next_day_max: float | None = None,
    cfg: PredictorConfig = PredictorConfig(),
) -> Prediction:
    """Full pipeline: candidates -> reference -> weights -> shape (-> megawatts)."""
    reference, matrix, dists, in_group = _stage(
        history, target.group, temp_forecast, cfg
    )
    weights = _kernel_weights(dists, cfg.kernel, in_group)
    shape_values = predict_shape(matrix, weights)
    shape_seg = LoadSegment(history.grid, shape_values, scale=None)
    scaled = None
    if next_day_max is not None:
        if next_day_max <= 0:
            raise ShapecastError("next_day_max must be positive")
        scaled = LoadSegment(
            history.grid, shape_values * next_day_max, scale=float(next_day_max)
        )
    return Prediction(
        target_date=target.date,
        shape=shape_seg,
        scaled=scaled,
        weights=weights,
        reference=reference,
        config=cfg,
    )


def default_bandwidth_grid(
    history: HistoryWindow,
    dist: DistanceSpec = DistanceSpec(),
    n: int = 25,
    span: tuple[float, float] = (0.01, 10.0),
    max_pairs: int = 2000,
) -> np.ndarray:
    """Log-spaced bandwidth grid anchored at the median pairwise shape distance.

    The median runs over all pairs of history days, or over `max_pairs` of
    them drawn with a fixed seed.
    """
    shapes = history.shapes
    L = shapes.shape[0]
    if L < 2:
        raise InsufficientHistoryError("need at least two days for a bandwidth grid")
    n_pairs = L * (L - 1) // 2
    if n_pairs > max_pairs:
        rng = np.random.default_rng(0)
        picked = np.sort(rng.choice(n_pairs, size=max_pairs, replace=False))
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
    return med * np.logspace(np.log10(span[0]), np.log10(span[1]), n)


def select_bandwidth(
    history: HistoryWindow,
    cfg: PredictorConfig,
    h_grid,
    validation_days: int = 30,
) -> tuple[float, list[tuple[float, float]]]:
    """One-day-ahead empirical risk over the trailing validation window.

    For each bandwidth, each of the last `validation_days` days is predicted
    from strictly prior data, with the realized temperature standing in for
    the forecast; mean relative absolute error decides, ties go to the
    smaller bandwidth. The reference and its distance row do not depend on
    the bandwidth, so each validation day computes them once and then scores
    every bandwidth; the results equal one `predict_day` per (h, day).
    """
    from .metrics import score_day

    h_grid = sorted(float(h) for h in h_grid)
    if not h_grid:
        raise ShapecastError("bandwidth grid is empty")
    if len(history) <= validation_days + 1:
        raise InsufficientHistoryError(
            f"need more than {validation_days + 1} days of history"
        )
    kernels = [replace(cfg.kernel, bandwidth=h) for h in h_grid]
    # the last day is only ever a target, so the matrix is built once without
    # it; every prefix below slices that one matrix
    base = history.prefix(len(history) - 1)
    _matrix(base, cfg)
    errs = [[] for _ in kernels]
    for i in range(len(history) - validation_days, len(history)):
        target = history.records[i]
        if target.temperature is None:
            raise ShapecastError(
                f"{target.meta.date.isoformat()}: no realized temperature to "
                "stand in for the forecast"
            )
        _, matrix, dists, in_group = _stage(
            base.prefix(i), target.meta.group, target.temperature, cfg
        )
        next_day_max = float(np.max(target.load.values))
        for kernel, day_errs in zip(kernels, errs):
            weights = _kernel_weights(dists, kernel, in_group)
            scaled = predict_shape(matrix, weights) * next_day_max
            rmae, _, _ = score_day(LoadSegment(history.grid, scaled), target.load)
            day_errs.append(rmae)
    risks = [(h, float(np.mean(e))) for h, e in zip(h_grid, errs)]
    best_h, _ = min(risks, key=lambda hr: (hr[1], hr[0]))
    return best_h, risks


def prediction_to_dict(pred: Prediction, include_weights: bool = False) -> dict:
    d = {
        "date": pred.target_date.isoformat(),
        "grid": list(pred.shape.grid.labels),
        "shape": [float(v) for v in pred.shape.values],
        "scaled": [float(v) for v in pred.scaled.values] if pred.scaled else None,
        "reference_dates": [day.isoformat() for day in pred.reference.c_star],
        "config": config_snapshot(pred.config),
    }
    if include_weights:
        d["weights"] = [float(w) for w in pred.weights]
    return d


def config_snapshot(cfg) -> dict:
    """Plain-JSON form of a config: dataclass fields, Enum values, lists."""
    if is_dataclass(cfg):
        return {f.name: config_snapshot(getattr(cfg, f.name)) for f in fields(cfg)}
    if isinstance(cfg, Enum):
        return cfg.value
    if isinstance(cfg, Mapping):
        return {config_snapshot(k): config_snapshot(v) for k, v in cfg.items()}
    if isinstance(cfg, tuple):
        return [config_snapshot(v) for v in cfg]
    return cfg


def prediction_to_json(pred: Prediction, include_weights: bool = False) -> str:
    return json.dumps(
        prediction_to_dict(pred, include_weights), sort_keys=True, indent=2
    )
