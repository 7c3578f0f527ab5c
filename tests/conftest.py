import datetime as dt

import numpy as np
import pytest

from shapecast.calendars import annotate_calendar
from shapecast.history import DailyRecord, HistoryWindow, Quality
from shapecast.segments import LoadSegment, TemperatureSegment, TimeGrid


@pytest.fixture
def grid4():
    return TimeGrid.equidistant(4)


@pytest.fixture
def grid24():
    return TimeGrid.equidistant(24)


def make_record(
    grid: TimeGrid,
    date: dt.date,
    load,
    temp=None,
    holiday=False,
) -> DailyRecord:
    holiday_set = {date} if holiday else frozenset()
    meta = annotate_calendar(date, holiday_set)
    temperature = None if temp is None else TemperatureSegment(grid, temp)
    return DailyRecord(meta, LoadSegment(grid, load), temperature, Quality.COMPLETE)


def make_history(grid: TimeGrid, start: dt.date, loads, temps=None) -> HistoryWindow:
    """Consecutive days from `start`; no temperature where `temps` is None."""
    loads = np.asarray(loads, dtype=float)
    dates = tuple(start + dt.timedelta(days=i) for i in range(len(loads)))
    temps = np.full(loads.shape, np.nan) if temps is None else temps
    return HistoryWindow(grid, dates, loads, temps)


def window_of(records, grid: TimeGrid | None = None) -> HistoryWindow:
    """The window whose `records` view equals `records`.

    `grid` is needed only when `records` is empty.
    """
    records = list(records)
    grid = grid or records[0].load.grid
    unobserved = np.full(grid.points_per_day, np.nan)
    return HistoryWindow(
        grid,
        tuple(r.meta.date for r in records),
        np.array([r.load.values for r in records]).reshape(-1, grid.points_per_day),
        np.array([unobserved if r.temperature is None else r.temperature.values
                  for r in records]).reshape(-1, grid.points_per_day),
        [r.meta.is_holiday for r in records],
        tuple(r.quality for r in records),
    )


def assert_same_record(a: DailyRecord, b: DailyRecord) -> None:
    """Field-for-field equality; segments compare by their values' bytes."""
    assert a.meta == b.meta
    assert a.quality is b.quality
    assert a.load.grid == b.load.grid
    assert a.load.values.tobytes() == b.load.values.tobytes()
    assert (a.temperature is None) == (b.temperature is None)
    if a.temperature is not None:
        assert a.temperature.grid == b.temperature.grid
        assert a.temperature.values.tobytes() == b.temperature.values.tobytes()


def random_history(grid: TimeGrid, rng: np.random.Generator, length: int,
                   start=dt.date(2010, 3, 1)) -> HistoryWindow:
    P = grid.points_per_day
    loads = 50.0 + 450.0 * rng.random((length, P))
    temps = 5.0 + 30.0 * rng.random((length, P))
    return make_history(grid, start, loads, temps)
