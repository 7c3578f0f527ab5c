"""Per-day forecast scores: relative mean-absolute error and signed extremes."""

from __future__ import annotations

import datetime as dt

import numpy as np

from .errors import ShapecastError


def score_day(predicted, actual, day: dt.date | None = None) -> tuple:
    """(rmae, maxdiff, mindiff) of megawatt predictions against the actual day.

    `predicted` is one curve or a matrix of curves, one per row; every score
    reduces along the last axis, so a matrix yields one score per row.
    maxdiff and mindiff are signed extremes of predicted minus actual, so a
    uniformly high forecast yields a positive mindiff. An error names `day`.
    """
    a = np.asarray(actual, dtype=float)
    if np.any(a <= 0):
        where = "" if day is None else f"{day.isoformat()}: "
        raise ShapecastError(f"{where}actual values must be strictly positive for RMAE")
    diff = np.asarray(predicted, dtype=float) - a
    # an actual near zero may push the relative error past any float: it is inf
    with np.errstate(over="ignore"):
        rmae = np.mean(np.abs(diff) / a, axis=-1)
    return rmae, np.max(diff, axis=-1), np.min(diff, axis=-1)
