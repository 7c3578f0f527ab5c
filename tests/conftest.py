import datetime as dt

import numpy as np
import pytest

from shapecast.history import HistoryWindow
from shapecast.segments import TimeGrid


@pytest.fixture
def grid4():
    return TimeGrid.equidistant(4)


@pytest.fixture
def grid24():
    return TimeGrid.equidistant(24)


def make_history(grid: TimeGrid, start: dt.date, loads, temps=None) -> HistoryWindow:
    """Consecutive days from `start`; no temperature where `temps` is None."""
    loads = np.asarray(loads, dtype=float)
    dates = tuple(start + dt.timedelta(days=i) for i in range(len(loads)))
    temps = np.full(loads.shape, np.nan) if temps is None else temps
    return HistoryWindow(grid, dates, loads, temps)


def random_history(grid: TimeGrid, rng: np.random.Generator, length: int,
                   start=dt.date(2010, 3, 1)) -> HistoryWindow:
    P = grid.points_per_day
    loads = 50.0 + 450.0 * rng.random((length, P))
    temps = 5.0 + 30.0 * rng.random((length, P))
    return make_history(grid, start, loads, temps)
