"""Per-day forecast scores: relative mean-absolute error and signed extremes."""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, ShapecastError
from .segments import LoadSegment


@dataclass(frozen=True)
class DayScore:
    date: dt.date
    method: str
    rmae: float
    maxdiff: float
    mindiff: float

    def __post_init__(self) -> None:
        if self.rmae < 0:
            raise ShapecastError("rmae cannot be negative")
        if self.mindiff > self.maxdiff:
            raise ShapecastError("mindiff cannot exceed maxdiff")


def score_day(predicted: LoadSegment, actual: LoadSegment) -> tuple[float, float, float]:
    """(rmae, maxdiff, mindiff) of a megawatt prediction against the actual day.

    maxdiff and mindiff are signed extremes of predicted minus actual, so a
    uniformly high forecast yields a positive mindiff.
    """
    if predicted.grid != actual.grid:
        raise GridMismatchError("predicted and actual segments on different grids")
    a = actual.values
    p = predicted.values
    if np.any(a <= 0):
        raise ShapecastError("actual values must be strictly positive for RMAE")
    diff = p - a
    # an actual near zero may push the relative error past any float: it is inf
    with np.errstate(over="ignore"):
        rmae = float(np.mean(np.abs(diff) / a))
    return rmae, float(np.max(diff)), float(np.min(diff))
