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
    records = []
    for i, load in enumerate(loads):
        temp = temps[i] if temps is not None else None
        records.append(make_record(grid, start + dt.timedelta(days=i), load, temp))
    return HistoryWindow(tuple(records))


def random_history(grid: TimeGrid, rng: np.random.Generator, length: int,
                   start=dt.date(2010, 3, 1)) -> HistoryWindow:
    P = grid.points_per_day
    loads = 50.0 + 450.0 * rng.random((length, P))
    temps = 5.0 + 30.0 * rng.random((length, P))
    return make_history(grid, start, loads, temps)
