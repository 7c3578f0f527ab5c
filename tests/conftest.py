import datetime as dt
import json

import numpy as np
import pytest

from shapecast.calendars import GROUPS
from shapecast.history import HistoryWindow
from shapecast.segments import TimeGrid


# where orjson's float text leaves `repr`'s: the edges of its plain notation,
# each with its neighbours, and the smallest doubles
FLOAT_EDGES = [
    sign * float(x)
    for edge in (1e-4, 1e16)
    for x in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf))
    for sign in (1.0, -1.0)
] + [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 9999999999999998.0]


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


def history_jsonl_oracle(window: HistoryWindow) -> str:
    """The history file `history_jsonl_text` must write: one `json.dumps` per line."""
    lines = [json.dumps({"grid": list(window.grid.labels)}, sort_keys=True)]
    observed = ~np.isnan(window.temps).all(axis=1)
    for i, date in enumerate(window.dates):
        d = {
            "date": date.isoformat(),
            "is_holiday": bool(window.is_holiday[i]),
            "group": GROUPS[window.group[i]].value,
            "quality": window.quality[i].value,
            "load_mw": window.loads[i].tolist(),
        }
        if observed[i]:
            # NaN, the one value unequal to itself, marks an unobserved point
            d["temp_c"] = [None if v != v else v for v in window.temps[i].tolist()]
        lines.append(json.dumps(d, sort_keys=True))
    return "\n".join(lines) + "\n"
