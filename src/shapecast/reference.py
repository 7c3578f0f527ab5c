"""Candidate-day selection and construction of the reference segment.

The reference segment, the expected-shape proxy for the target day, averages
the shapes of the recent same-group days nearest the forecast in
temperature. Temperatures are compared on the points the forecast observes
(its non-NaN points) only; a candidate missing one is dropped, and the result
lists it. `DeltaRule.threshold` alone sets the closeness threshold δ, for
the predictor and the Monte Carlo lab: the default `min` rule is the minimum
temperature distance, so only the nearest day (plus exact ties) contributes,
and a `quantile` or `fixed` rule widens the chosen set C*.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType

import numpy as np

from .calendars import GROUPS, DayGroup
from .errors import (EmptyCandidateError, GridMismatchError, MissingTemperatureError,
                     ShapecastError)
from .history import HistoryWindow
from .segments import DistanceKind, TemperatureSegment, distances, read_only


class DeltaRuleKind(str, Enum):
    MIN = "min"
    QUANTILE = "quantile"
    FIXED = "fixed"


@dataclass(frozen=True)
class DeltaRule:
    kind: DeltaRuleKind = DeltaRuleKind.MIN
    value: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", DeltaRuleKind(self.kind))
        if self.kind is DeltaRuleKind.MIN and self.value is not None:
            raise ShapecastError("min rule takes no value")
        if self.kind is DeltaRuleKind.QUANTILE:
            if self.value is None or not 0 < self.value <= 1:
                raise ShapecastError("quantile rule needs a value in (0, 1]")
        if self.kind is DeltaRuleKind.FIXED:
            if self.value is None or not 0 <= self.value < np.inf:  # NaN fails too
                raise ShapecastError("fixed rule needs a finite nonnegative value")

    def threshold(self, dists: np.ndarray) -> float:
        """δ over the candidates' temperature distances, never below their minimum."""
        d_min = float(dists.min())
        if self.kind is DeltaRuleKind.QUANTILE:
            return float(np.quantile(dists, self.value))
        return max(float(self.value), d_min) if self.kind is DeltaRuleKind.FIXED else d_min


DEFAULT_N_L = MappingProxyType(
    {
        DayGroup.G1: 14,
        DayGroup.G2: 28,
        DayGroup.G3: 28,
        DayGroup.G4: 28,
        DayGroup.HOLIDAY: 28,
    }
)


@dataclass(frozen=True)
class ReferenceConfig:
    n_L_by_group: dict = field(default_factory=lambda: dict(DEFAULT_N_L))
    delta_rule: DeltaRule = DeltaRule()
    temp_distance: DistanceKind = DistanceKind.EUCLIDEAN

    def __post_init__(self) -> None:
        object.__setattr__(self, "temp_distance", DistanceKind(self.temp_distance))
        n_l = {DayGroup(g): int(n) for g, n in self.n_L_by_group.items()}
        if any(n < 1 for n in n_l.values()):
            raise ShapecastError("n_L values must be >= 1")
        object.__setattr__(self, "n_L_by_group", MappingProxyType(n_l))

    def n_L(self, group: DayGroup) -> int:
        return self.n_L_by_group.get(group, DEFAULT_N_L[group])


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
    of the lookback (holidays behave most like Sundays).
    """
    code = GROUPS.index(group)
    n_l = cfg.n_L(group)
    start = max(len(history) - n_l, 0)
    rows = start + np.flatnonzero(history.group[start:] == code)
    if group is DayGroup.HOLIDAY and len(rows) < 2:
        start = max(len(history) - max(n_l, cfg.n_L(DayGroup.G4)), 0)
        pool = history.group[start:]
        rows = start + np.flatnonzero((pool == code) | (pool == GROUPS.index(DayGroup.G4)))
    if not len(rows):
        raise EmptyCandidateError(f"no usable candidate for group {group.value}")
    return rows


def select_reference(
    history: HistoryWindow,
    candidates: np.ndarray,
    temp_forecast: TemperatureSegment,
    cfg: ReferenceConfig,
) -> ReferenceResult:
    """Pick the candidate rows within δ of the forecast's temperature; average their shapes."""
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
    dists = distances(temps[observed], temp_forecast.values[points], cfg.temp_distance)
    delta = cfg.delta_rule.threshold(dists)
    chosen = usable[dists <= delta]
    return ReferenceResult(
        reference=read_only(history.shapes[chosen].mean(axis=0)),
        c_star=tuple(history.dates[i] for i in chosen),
        temp_distances={history.dates[i]: d for i, d in zip(usable, dists.tolist())},
        delta=delta,
        dropped=tuple(history.dates[i] for i in candidates[~observed]),
    )
