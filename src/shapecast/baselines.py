"""Comparison predictors: naive persistence and a conditional-kernel baseline.

The conditional-kernel baseline weights each past segment by how similar its
predecessor is to the last observed segment; it conditions only on yesterday's
shape and knows nothing about the target day's group or temperature.
"""

from __future__ import annotations

import warnings

import numpy as np

from .calendars import DayGroup
from .errors import EmptyCandidateError, InsufficientHistoryError
from .history import HistoryWindow, shape_matrix
from .predictor import KernelSpec, kernel_value
from .segments import DistanceSpec, LoadSegment, distances, rescale_day


def predict_persistence(history: HistoryWindow, target_group: DayGroup) -> LoadSegment:
    """Shape of the most recent day in the target group."""
    for rec in reversed(history.records):
        if rec.meta.group is target_group:
            return rescale_day(rec.load)
    raise EmptyCandidateError(f"no {target_group.value} day in history")


def conditional_kernel_weights(
    shapes: np.ndarray, kernel: KernelSpec, dist: DistanceSpec = DistanceSpec()
) -> np.ndarray:
    """Length-L weights; entry r is kernel mass of shape r-1 against the last shape.

    The first segment has no predecessor and always gets weight zero.
    """
    shapes = np.atleast_2d(np.asarray(shapes, dtype=float))
    L = shapes.shape[0]
    if L < 2:
        raise InsufficientHistoryError("conditional kernel needs at least 2 days")
    last = shapes[-1]
    dists = distances(shapes[:-1], last, dist)
    mass = kernel_value(dists / kernel.bandwidth, kernel.kind)
    weights = np.zeros(L)
    if mass.sum() == 0.0:
        warnings.warn(
            "no predecessor within bandwidth; using the nearest one", stacklevel=2
        )
        weights[int(np.argmin(dists)) + 1] = 1.0
        return weights
    weights[1:] = mass / mass.sum()
    return weights


def predict_conditional_kernel(
    history: HistoryWindow,
    kernel: KernelSpec,
    dist: DistanceSpec = DistanceSpec(),
) -> LoadSegment:
    """Weighted average of successors of days similar to the last observed day."""
    shapes = shape_matrix(history)
    weights = conditional_kernel_weights(shapes, kernel, dist)
    return LoadSegment(history.grid, weights @ shapes)
