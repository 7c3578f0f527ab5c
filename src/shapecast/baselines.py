"""Comparison predictors: naive persistence and a conditional-kernel baseline.

The conditional-kernel baseline weights each past segment by how similar its
predecessor is to the last observed segment; it conditions only on yesterday's
shape and knows nothing about the target day's group or temperature.
"""

from __future__ import annotations

import numpy as np

from .calendars import GROUPS, DayGroup
from .errors import EmptyCandidateError, InsufficientHistoryError
from .history import HistoryWindow
from .predictor import KernelSpec, _kernel_weights, _report, predict_shape
from .segments import DistanceKind, distances, read_only


def predict_persistence(history: HistoryWindow, target_group: DayGroup) -> np.ndarray:
    """Shape of the most recent day in the target group; only its own row is checked."""
    rows = np.flatnonzero(history.group == GROUPS.index(target_group))
    if not len(rows):
        raise EmptyCandidateError(f"no {target_group.value} day in history")
    return read_only(history.span(rows[-1], rows[-1] + 1).shapes[0].copy())


def conditional_kernel_weights(
    shapes: np.ndarray, kernel: KernelSpec, dist: DistanceKind = DistanceKind.EUCLIDEAN
) -> np.ndarray:
    """Length-L weights; entry r is kernel mass of shape r-1 against the last shape.

    The first segment has no predecessor and always gets weight zero.
    """
    shapes = np.atleast_2d(np.asarray(shapes, dtype=float))
    if shapes.shape[0] < 2:
        raise InsufficientHistoryError("conditional kernel needs at least 2 days")
    weights = np.zeros(shapes.shape[0])
    dists = distances(shapes[:-1], shapes[-1], dist)
    weights[1:], *fallbacks = _kernel_weights(dists, kernel.kind, kernel.bandwidth)
    _report((), *fallbacks)
    return weights


def predict_conditional_kernel(
    history: HistoryWindow,
    kernel: KernelSpec,
    dist: DistanceKind = DistanceKind.EUCLIDEAN,
) -> np.ndarray:
    """Weighted average of successors of days similar to the last observed day."""
    shapes = history.shapes
    weights = conditional_kernel_weights(shapes, kernel, dist)
    return read_only(predict_shape(shapes, weights))
