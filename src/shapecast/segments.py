"""Fixed-grid daily segments and the distances between them.

Every curve in the package is a float vector sampled on a fixed intra-day grid
of P equidistant clock times: a load in raw megawatts or in "shape form", i.e.
divided by its daily maximum so values lie in (0, 1]. Predictions, references
and baselines are fresh `read_only` arrays. A temperature forecast is a
`TemperatureSegment`, checked on entry; `LoadSegment` is only the type of the
history's record view. Distances compare every point they are given.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import GridMismatchError, ShapecastError

TEMPERATURE_LIMIT_C = 1000.0  # larger readings are input errors; huge ones overflow distances
OFF_LIMIT_TEMPERATURE = ("temperature values must be finite on the mask, "
                         f"within ±{TEMPERATURE_LIMIT_C:g} °C")


def _label_to_minutes(label: str) -> int:
    try:
        hh, mm = label.split(":")
        minutes = int(hh) * 60 + int(mm)
    except (AttributeError, ValueError) as exc:
        raise ShapecastError(f"bad grid label {label!r}, expected HH:MM") from exc
    if not 0 <= minutes < 24 * 60:
        raise ShapecastError(f"grid label {label!r} outside the day")
    return minutes


@dataclass(frozen=True)
class TimeGrid:
    """Equidistant intra-day sampling grid, labelled by clock times."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.labels) < 2:
            raise ShapecastError("grid needs at least 2 points")
        steps = np.diff(self.minutes)
        if np.any(steps <= 0):
            raise ShapecastError("grid labels must be strictly increasing")
        if len(set(steps.tolist())) != 1:
            raise ShapecastError("grid labels must be equidistant")

    @property
    def points_per_day(self) -> int:
        return len(self.labels)

    @cached_property
    def minutes(self) -> np.ndarray:
        """Minutes since midnight for every grid point; built once, read-only."""
        return read_only(np.array([_label_to_minutes(lb) for lb in self.labels]))

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError as exc:
            raise ShapecastError(f"label {label!r} not on grid") from exc

    @classmethod
    def equidistant(cls, points_per_day: int) -> "TimeGrid":
        """Grid of `points_per_day` points starting at 00:00."""
        if points_per_day < 2 or (24 * 60) % points_per_day != 0:
            raise ShapecastError(
                f"points_per_day={points_per_day} must divide the 1440-minute day"
            )
        step = 24 * 60 // points_per_day
        labels = tuple(f"{m // 60:02d}:{m % 60:02d}" for m in range(0, 24 * 60, step))
        return cls(labels)


def read_only(a: np.ndarray) -> np.ndarray:
    """`a` itself, marked read-only."""
    a.setflags(write=False)
    return a


def _as_vector(values, n: int | None = None) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise GridMismatchError(f"expected 1-d vector, got shape {arr.shape}")
    if n is not None and arr.shape[0] != n:
        raise GridMismatchError(f"expected length {n}, got {arr.shape[0]}")
    return arr


@dataclass(frozen=True, eq=False)
class LoadSegment:
    """One day's load on a grid, in megawatts, as the history's record view holds it."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        arr = _as_vector(self.values, self.grid.points_per_day)
        if not np.all(np.isfinite(arr)):
            raise ShapecastError("load values must be finite")
        if np.any(arr < 0):
            raise ShapecastError("load values must be nonnegative")
        object.__setattr__(self, "values", read_only(arr.copy()))


@dataclass(frozen=True, eq=False)
class TemperatureSegment:
    """One day's temperature on a grid; NaN marks a point not observed."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        arr = _as_vector(self.values, self.grid.points_per_day)
        if np.all(np.isnan(arr)):
            raise ShapecastError("temperature mask must be nonempty")
        if not np.nanmax(np.abs(arr)) <= TEMPERATURE_LIMIT_C:
            raise ShapecastError(OFF_LIMIT_TEMPERATURE)
        object.__setattr__(self, "values", read_only(arr.copy()))


class DistanceKind(str, Enum):
    EUCLIDEAN = "euclidean"
    MEAN_ABSOLUTE = "mean-absolute"


def distances(M, v, kind: DistanceKind = DistanceKind.EUCLIDEAN) -> np.ndarray:
    """Distance of every row of the L x P matrix `M` to `v` under the metric `kind`.

    `v` is one length-P vector, or an L x P matrix whose rows pair up with
    those of `M`. Row r is bit for bit the metric of the one vector
    `M[r] - (v[r] or v)`.
    """
    # C order keeps each row's sum pairwise, exactly as the sum of one vector
    M = np.ascontiguousarray(M, dtype=float)
    if M.ndim != 2:
        raise GridMismatchError(f"expected 2-d matrix, got shape {M.shape}")
    v = np.ascontiguousarray(v, dtype=float)
    if v.shape not in ((M.shape[1],), M.shape):
        raise GridMismatchError(f"cannot pair shape {v.shape} with matrix {M.shape}")
    diff = M - v  # fresh, so it is squared, or taken `abs` of, in place
    if DistanceKind(kind) is DistanceKind.EUCLIDEAN:
        return np.sqrt(np.sum(np.multiply(diff, diff, out=diff), axis=-1))
    return np.mean(np.abs(diff, out=diff), axis=-1)
