"""Candidate-day selection and construction of the reference segment.

The reference segment is the expected-shape proxy for the day to be predicted:
recent same-group days whose temperatures are closest to the forecast are
averaged (in shape form). In the default argmin mode the closeness threshold
collapses to the minimum temperature distance, so only the nearest day (plus
exact ties) contributes.
"""

from __future__ import annotations

import datetime as dt
import warnings
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType

import numpy as np

from .calendars import GROUPS, DayGroup
from .errors import EmptyCandidateError, MissingTemperatureError, ShapecastError
from .history import HistoryWindow
from .segments import DistanceSpec, LoadSegment, TemperatureSegment, distances


class ReferenceMode(str, Enum):
    ARGMIN = "argmin"
    THRESHOLD = "threshold"


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
        if self.kind is DeltaRuleKind.QUANTILE:
            if self.value is None or not 0 < self.value <= 1:
                raise ShapecastError("quantile rule needs a value in (0, 1]")
        if self.kind is DeltaRuleKind.FIXED:
            if self.value is None or self.value < 0:
                raise ShapecastError("fixed rule needs a nonnegative value")


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
    mode: ReferenceMode = ReferenceMode.ARGMIN
    delta_rule: DeltaRule = DeltaRule()
    temp_distance: DistanceSpec = DistanceSpec()
    holiday_fallback: bool = True  # widen HOLIDAY candidates with G4 days when < 2

    def __post_init__(self) -> None:
        object.__setattr__(self, "mode", ReferenceMode(self.mode))
        n_l = {DayGroup(g): int(n) for g, n in self.n_L_by_group.items()}
        if any(n < 1 for n in n_l.values()):
            raise ShapecastError("n_L values must be >= 1")
        object.__setattr__(self, "n_L_by_group", MappingProxyType(n_l))

    def n_L(self, group: DayGroup) -> int:
        return self.n_L_by_group.get(group, 28)


@dataclass(frozen=True)
class ReferenceResult:
    reference: LoadSegment  # shape form
    c_star: tuple[dt.date, ...]
    temp_distances: dict[dt.date, float]
    delta: float


def candidate_set(
    history: HistoryWindow, group: DayGroup, cfg: ReferenceConfig
) -> np.ndarray:
    """Row indices of the `group` days among the last n_L days, oldest first.

    A holiday with fewer than two such days widens the pool with the G4 days
    of the lookback (holidays behave most like Sundays) when
    `cfg.holiday_fallback` is set.
    """
    codes = [GROUPS.index(group)]
    n_l = cfg.n_L(group)
    start = max(len(history) - n_l, 0)
    rows = start + np.flatnonzero(np.isin(history.group[start:], codes))
    if group is DayGroup.HOLIDAY and cfg.holiday_fallback and len(rows) < 2:
        codes.append(GROUPS.index(DayGroup.G4))
        start = max(len(history) - max(n_l, cfg.n_L(DayGroup.G4)), 0)
        rows = start + np.flatnonzero(np.isin(history.group[start:], codes))
    if not len(rows):
        raise EmptyCandidateError(f"no usable candidate for group {group.value}")
    return rows


def select_reference(
    history: HistoryWindow,
    candidates: np.ndarray,
    temp_forecast: TemperatureSegment,
    cfg: ReferenceConfig,
    rescale: bool = True,
) -> ReferenceResult:
    """Pick the closest-temperature candidate rows and average their shapes.

    With rescale=False the raw (megawatt-scale) curves are averaged instead of
    their daily-max rescaled shapes.
    """
    candidates = np.asarray(candidates, dtype=int)
    if not len(candidates):
        raise EmptyCandidateError("no candidates to select a reference from")
    mask = list(temp_forecast.mask)
    if cfg.temp_distance.point_subset is not None:
        mask = sorted(set(mask) & set(cfg.temp_distance.point_subset))
        if not mask:
            raise ShapecastError("forecast mask and configured subset are disjoint")
    spec = DistanceSpec(cfg.temp_distance.kind, mask)

    observed = ~np.isnan(history.temps[np.ix_(candidates, mask)]).any(axis=1)
    for i in candidates[~observed]:
        warnings.warn(
            f"dropping candidate {history.dates[i].isoformat()}: no temperature "
            "data on the comparison mask",
            stacklevel=2,
        )
    usable = candidates[observed]
    if not len(usable):
        raise MissingTemperatureError(
            "every candidate lacks temperature data on the comparison mask"
        )
    dists = distances(history.temps[usable], temp_forecast.values, spec)

    d_min = float(dists.min())
    if cfg.mode is ReferenceMode.ARGMIN:
        delta = d_min
    else:
        rule = cfg.delta_rule
        if rule.kind is DeltaRuleKind.MIN:
            delta = d_min
        elif rule.kind is DeltaRuleKind.QUANTILE:
            delta = float(np.quantile(dists, rule.value))
        else:
            # the threshold may never undercut the minimum distance
            delta = max(float(rule.value), d_min)

    chosen = usable[dists <= delta]
    matrix = history.shapes if rescale else history.loads
    return ReferenceResult(
        reference=LoadSegment(history.grid, matrix[chosen].mean(axis=0)),
        c_star=tuple(history.dates[i] for i in chosen),
        temp_distances={history.dates[i]: d for i, d in zip(usable, dists.tolist())},
        delta=delta,
    )
