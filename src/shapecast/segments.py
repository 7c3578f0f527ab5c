"""Fixed-grid daily segments and the distances between them.

Every curve in the package is a vector sampled on a fixed intra-day grid of P
equidistant clock times. A load segment can be held either in raw megawatts or
in "shape form", i.e. divided by its daily maximum so values lie in (0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import GridMismatchError, ShapecastError

TEMPERATURE_LIMIT_C = 1000.0  # larger readings are input errors; huge ones overflow distances


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
    """One day's load on a grid, in megawatts or in shape form."""

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
            raise ShapecastError("temperature values must be finite on the mask, "
                                 f"within ±{TEMPERATURE_LIMIT_C:g} °C")
        object.__setattr__(self, "values", read_only(arr.copy()))

    @property
    def mask(self) -> tuple[int, ...]:
        """Grid indices of the observed points, ascending."""
        return tuple(np.flatnonzero(~np.isnan(self.values)).tolist())


class DistanceKind(str, Enum):
    EUCLIDEAN = "euclidean"
    MEAN_ABSOLUTE = "mean-absolute"
    MAX_ABSOLUTE = "max-absolute"


@dataclass(frozen=True)
class DistanceSpec:
    """Metric on R^P, optionally restricted to a subset of grid indices (0-based)."""

    kind: DistanceKind = DistanceKind.EUCLIDEAN
    point_subset: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", DistanceKind(self.kind))
        if self.point_subset is not None:
            subset = tuple(sorted(set(int(i) for i in self.point_subset)))
            if not subset:
                raise ShapecastError("point_subset must be nonempty when given")
            if subset[0] < 0:
                raise ShapecastError("point_subset indices must be nonnegative")
            object.__setattr__(self, "point_subset", subset)


def _subset_index(spec: DistanceSpec, n: int) -> list[int] | None:
    if spec.point_subset is None:
        return None
    if spec.point_subset[-1] >= n:
        raise GridMismatchError(
            f"point_subset index {spec.point_subset[-1]} out of bounds for length {n}"
        )
    return list(spec.point_subset)


def _reduce(diff: np.ndarray, kind: DistanceKind) -> np.ndarray:
    """Metric of each difference vector along the last axis."""
    if kind is DistanceKind.EUCLIDEAN:
        return np.sqrt(np.sum(diff * diff, axis=-1))
    if kind is DistanceKind.MEAN_ABSOLUTE:
        return np.mean(np.abs(diff), axis=-1)
    return np.max(np.abs(diff), axis=-1)


def distance(a, b, spec: DistanceSpec = DistanceSpec()) -> float:
    """Distance between two equal-length vectors under `spec`."""
    a = _as_vector(a)
    b = _as_vector(b, a.shape[0])
    idx = _subset_index(spec, a.shape[0])
    if idx is not None:
        a, b = a[idx], b[idx]
    return float(_reduce(a - b, spec.kind))


def distances(M, v, spec: DistanceSpec = DistanceSpec()) -> np.ndarray:
    """Distance of every row of the L x P matrix `M` to `v` under `spec`.

    `v` is one length-P vector, or an L x P matrix whose rows pair up with
    those of `M`. Row r equals `distance(M[r], v[r] or v, spec)` bit for bit.
    """
    # C order keeps each row's sum pairwise, exactly as `distance` sums a vector
    M = np.ascontiguousarray(M, dtype=float)
    if M.ndim != 2:
        raise GridMismatchError(f"expected 2-d matrix, got shape {M.shape}")
    v = np.ascontiguousarray(v, dtype=float)
    if v.shape not in ((M.shape[1],), M.shape):
        raise GridMismatchError(f"cannot pair shape {v.shape} with matrix {M.shape}")
    idx = _subset_index(spec, M.shape[1])
    if idx is not None:
        M, v = np.take(M, idx, axis=1), np.take(v, idx, axis=-1)
    return _reduce(M - v, spec.kind)

