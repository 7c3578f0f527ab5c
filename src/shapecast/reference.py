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

from .calendars import DayGroup
from .errors import EmptyCandidateError, MissingTemperatureError, ShapecastError
from .history import DailyRecord, HistoryWindow
from .segments import DistanceSpec, LoadSegment, TemperatureSegment, distance, rescale_day


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
) -> list[DailyRecord]:
    """Days of `group` among the last n_L records, oldest first.

    A holiday with fewer than two such days widens the pool with the G4 days
    of the lookback (holidays behave most like Sundays) when
    `cfg.holiday_fallback` is set.
    """
    n_l = cfg.n_L(group)
    candidates = [r for r in history.records[-n_l:] if r.meta.group is group]
    if group is DayGroup.HOLIDAY and cfg.holiday_fallback and len(candidates) < 2:
        n_l = max(n_l, cfg.n_L(DayGroup.G4))
        candidates = [
            r
            for r in history.records[-n_l:]
            if r.meta.group in (DayGroup.HOLIDAY, DayGroup.G4)
        ]
    if not candidates:
        raise EmptyCandidateError(f"no usable candidate for group {group.value}")
    return candidates


def select_reference(
    candidates,
    temp_forecast: TemperatureSegment,
    cfg: ReferenceConfig,
    rescale: bool = True,
) -> ReferenceResult:
    """Pick the closest-temperature candidates and average their shapes.

    With rescale=False the raw (megawatt-scale) curves are averaged instead of
    their daily-max rescaled shapes.
    """
    if not candidates:
        raise EmptyCandidateError("no candidates to select a reference from")
    mask = set(temp_forecast.mask)
    if cfg.temp_distance.point_subset is not None:
        mask &= set(cfg.temp_distance.point_subset)
        if not mask:
            raise ShapecastError("forecast mask and configured subset are disjoint")
    spec = cfg.temp_distance.restricted_to(sorted(mask))

    usable, dists = [], {}
    for rec in candidates:
        temp = rec.temperature
        if temp is None or not temp.covers(mask):
            warnings.warn(
                f"dropping candidate {rec.meta.date.isoformat()}: no temperature "
                "data on the comparison mask",
                stacklevel=2,
            )
            continue
        usable.append(rec)
        dists[rec.meta.date] = distance(temp.values, temp_forecast.values, spec)
    if not usable:
        raise MissingTemperatureError(
            "every candidate lacks temperature data on the comparison mask"
        )

    d_min = min(dists.values())
    if cfg.mode is ReferenceMode.ARGMIN:
        delta = d_min
    else:
        rule = cfg.delta_rule
        if rule.kind is DeltaRuleKind.MIN:
            delta = d_min
        elif rule.kind is DeltaRuleKind.QUANTILE:
            delta = float(np.quantile(list(dists.values()), rule.value))
        else:
            # the threshold may never undercut the minimum distance
            delta = max(float(rule.value), d_min)

    chosen = [r for r in usable if dists[r.meta.date] <= delta]
    if rescale:
        shapes = np.array([rescale_day(r.load).values for r in chosen])
    else:
        shapes = np.array([r.load.values for r in chosen])
    reference = LoadSegment(chosen[0].load.grid, shapes.mean(axis=0))
    return ReferenceResult(
        reference=reference,
        c_star=tuple(r.meta.date for r in chosen),
        temp_distances=dists,
        delta=delta,
    )
