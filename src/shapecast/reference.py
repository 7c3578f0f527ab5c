"""Candidate-day selection and construction of the reference segment.

The candidates are the target group's days among the last n_L: `n_l_g1` for
G1 (Mon/Tue/Thu/Fri), `n_l_default` for every other group. The reference
segment, the expected-shape proxy for the target day, averages the shapes of
those nearest the forecast in temperature under the predictor's one metric,
compared on the forecast's non-NaN points only; a candidate missing one is
dropped, and the result lists it. `nearest` alone sets the threshold δ, for
the predictor and the Monte Carlo lab: the smallest temperature distance, so
C* is the nearest day plus any exact ties. The threshold has no setting.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass

import numpy as np

from .calendars import GROUPS, DayGroup
from .errors import (EmptyCandidateError, GridMismatchError, MissingTemperatureError,
                     ShapecastError, whole)
from .history import HistoryWindow
from .segments import DistanceKind, TemperatureSegment, distances, read_only


def nearest(dists: np.ndarray) -> tuple[float, np.ndarray]:
    """δ, the smallest temperature distance, and the mask of C*: every candidate at δ."""
    delta = float(dists.min())
    return delta, dists <= delta


@dataclass(frozen=True)
class ReferenceConfig:
    n_l_g1: int = 14
    n_l_default: int = 28

    def __post_init__(self) -> None:
        for name in ("n_l_g1", "n_l_default"):
            n_l = whole(getattr(self, name), "n_L")
            if n_l < 1:
                raise ShapecastError("n_L values must be >= 1")
            object.__setattr__(self, name, n_l)

    def n_L(self, group: DayGroup) -> int:
        return self.n_l_g1 if group is DayGroup.G1 else self.n_l_default


@dataclass(frozen=True)
class ReferenceResult:
    reference: np.ndarray  # the mean of the history's shapes over C*
    c_star: tuple[dt.date, ...]
    temp_distances: dict[dt.date, float]
    delta: float
    dropped: tuple[dt.date, ...]  # candidates without temperature on the mask


def candidate_set(
    history: HistoryWindow, group: DayGroup, cfg: ReferenceConfig
) -> np.ndarray:
    """Row indices of the `group` days among the last n_L days, oldest first.

    A holiday with fewer than two such days widens the pool with the G4 days
    of its lookback (holidays behave most like Sundays).
    """
    code = GROUPS.index(group)
    start = max(len(history) - cfg.n_L(group), 0)
    pool = history.group[start:]
    rows = start + np.flatnonzero(pool == code)
    if group is DayGroup.HOLIDAY and len(rows) < 2:
        rows = start + np.flatnonzero((pool == code) | (pool == GROUPS.index(DayGroup.G4)))
    if not len(rows):
        raise EmptyCandidateError(f"no usable candidate for group {group.value}")
    return rows


def select_reference(
    history: HistoryWindow,
    candidates: np.ndarray,
    temp_forecast: TemperatureSegment,
    kind: DistanceKind = DistanceKind.EUCLIDEAN,
) -> ReferenceResult:
    """The candidates nearest the forecast's temperature under `kind`, and their mean shape."""
    if temp_forecast.grid != history.grid:
        raise GridMismatchError("the forecast's grid is not the history's")
    candidates = np.asarray(candidates, dtype=int)
    if not len(candidates):
        raise EmptyCandidateError("no candidates to select a reference from")
    points = np.flatnonzero(~np.isnan(temp_forecast.values))
    temps = history.temps[np.ix_(candidates, points)]
    observed = ~np.isnan(temps).any(axis=1)
    usable = candidates[observed]
    if not len(usable):
        raise MissingTemperatureError(
            "every candidate lacks temperature data on the comparison mask"
        )
    dists = distances(temps[observed], temp_forecast.values[points], kind)
    delta, near = nearest(dists)
    chosen = usable[near]
    return ReferenceResult(
        reference=read_only(history.shapes[chosen].mean(axis=0)),
        c_star=tuple(history.dates[i] for i in chosen),
        temp_distances={history.dates[i]: d for i, d in zip(usable, dists.tolist())},
        delta=delta,
        dropped=tuple(history.dates[i] for i in candidates[~observed]),
    )
