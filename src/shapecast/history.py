"""The history as day-by-day columns, daily-record views, and JSON-lines persistence."""

from __future__ import annotations

import datetime as dt
import json
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .calendars import GROUPS, CalendarMeta, group_codes
from .errors import GridMismatchError, IngestError, ShapecastError
from .segments import TEMPERATURE_LIMIT_C, LoadSegment, TemperatureSegment, TimeGrid
from .segments import _as_vector, read_only


class Quality(str, Enum):
    COMPLETE = "complete"
    GAP_FILLED = "gap-filled"
    REJECTED = "rejected"


@dataclass(frozen=True)
class DailyRecord:
    """One day's load (raw megawatts), optional temperature, and metadata."""

    meta: CalendarMeta
    load: LoadSegment
    temperature: TemperatureSegment | None = None
    quality: Quality = Quality.COMPLETE


# the per-day columns a prefix slices; `shapes` and `records` only once built
_COLUMNS = (
    "dates", "is_holiday", "quality", "loads", "temps", "group", "shapes", "records"
)
_NONPOSITIVE = "cannot rescale a segment with nonpositive maximum"


def _owned(a) -> np.ndarray:
    """`a` as a read-only float matrix: itself if it owns its data, else a copy."""
    a = np.asarray(a, dtype=float)
    # a view's base would stay writable, so only an owner is kept uncopied
    return read_only(a if a.base is None and a.flags.c_contiguous else a.copy())


def _refuse_bad_day(grid: TimeGrid, loads: np.ndarray, temps: np.ndarray) -> None:
    """Raise the segment error of the first day a window refuses, with its `row`."""
    bad = ~np.isfinite(loads) | (loads < 0) | (np.abs(temps) > TEMPERATURE_LIMIT_C)
    rows = np.flatnonzero(bad.any(axis=1))
    if len(rows):
        try:
            LoadSegment(grid, loads[rows[0]])
            TemperatureSegment(grid, temps[rows[0]])
        except ShapecastError as exc:
            exc.row = int(rows[0])
            raise


def _refuse_row(row: int, message: str):
    """Raise `message` as the error of the day at `row`."""
    exc = ShapecastError(message)
    exc.row = row
    raise exc


@dataclass(frozen=True, eq=False)
class HistoryWindow:
    """Ascending, duplicate-free usable (non-rejected) days, held as columns.

    Row i of every column is one day: `dates`, `is_holiday`, `group` (an index
    into `calendars.GROUPS`), `quality`, `loads` (L x P megawatts) and `temps`
    (L x P Celsius, NaN where unobserved; a day without temperature is an
    all-NaN row). The window keeps a float array it is given uncopied only
    when that array owns its data, and makes it read-only. `shapes` is built
    on first use; `prefix(n)` slices every column, and every prefix shares the
    whole window's `shapes` matrix. `records` and `by_date` build
    `DailyRecord` views only when asked.
    """

    grid: TimeGrid
    dates: tuple[dt.date, ...]
    loads: np.ndarray
    temps: np.ndarray
    is_holiday: np.ndarray | None = None  # None: no holidays
    quality: tuple[Quality, ...] | None = None  # None: every day complete

    _root = None  # for a prefix, the window whose shapes matrix it slices

    def __post_init__(self) -> None:
        n, P = len(self.dates), self.grid.points_per_day
        holiday = np.zeros(n) if self.is_holiday is None else self.is_holiday
        quality = (Quality.COMPLETE,) * n if self.quality is None else self.quality
        self.__dict__.update(
            dates=tuple(self.dates),
            loads=_owned(self.loads),
            temps=_owned(self.temps),
            is_holiday=read_only(np.array(holiday, dtype=bool)),
            quality=tuple(quality),
        )
        if (self.loads.shape != (n, P) or self.temps.shape != (n, P)
                or self.is_holiday.shape != (n,) or len(self.quality) != n):
            raise GridMismatchError(f"every column needs {n} days of {P} points")
        _refuse_bad_day(self.grid, self.loads, self.temps)
        for n in range(1, len(self.dates)):
            if self.dates[n] <= self.dates[n - 1]:
                _refuse_row(n, "history records must be strictly ascending by date")
        if Quality.REJECTED in self.quality:
            _refuse_row(self.quality.index(Quality.REJECTED),
                        "rejected records are excluded from history")
        # a day's group follows from its date and holiday flag, so it is no argument
        self.__dict__["group"] = read_only(group_codes(self.dates, self.is_holiday))

    def __len__(self) -> int:
        return len(self.dates)

    @cached_property
    def _shape_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """(each load row over its maximum or zero, whether that maximum is positive)."""
        peaks = self.loads.max(axis=1, keepdims=True)
        ok = peaks > 0
        rows = np.divide(self.loads, peaks, out=np.zeros_like(self.loads), where=ok)
        return read_only(rows), ok[:, 0]

    @cached_property
    def shapes(self) -> np.ndarray:
        """L x P matrix of shape-form (max-rescaled) load values, history order."""
        # a nonpositive row fails only the windows that hold it
        rows, ok = (self if self._root is None else self._root)._shape_rows
        if not ok[:len(self)].all():
            raise ShapecastError(_NONPOSITIVE)
        return rows[:len(self)]

    def shape(self, i: int) -> np.ndarray:
        """Day i's load over its maximum, without building `shapes`."""
        load = self.loads[i]
        peak = load.max()
        if peak <= 0:
            raise ShapecastError(_NONPOSITIVE)
        return load / peak

    def prefix(self, n: int) -> "HistoryWindow":
        """The first `n` days; a prefix of a valid window needs no checks."""
        window = object.__new__(HistoryWindow)
        window.__dict__.update(
            {name: self.__dict__[name][:n] for name in _COLUMNS if name in self.__dict__},
            grid=self.grid,
            _root=self if self._root is None else self._root,
        )
        return window

    def before(self, date: dt.date) -> "HistoryWindow":
        """Days strictly before `date`."""
        return self.prefix(bisect_left(self.dates, date))

    def row(self, date: dt.date) -> int:
        """Index of the day `date`."""
        i = bisect_left(self.dates, date)
        if i == len(self.dates) or self.dates[i] != date:
            raise ShapecastError(f"no record for {date.isoformat()}")
        return i

    def meta(self, i: int) -> CalendarMeta:
        return CalendarMeta(self.dates[i], bool(self.is_holiday[i]), GROUPS[self.group[i]])

    def _record(self, i: int) -> DailyRecord:
        temps = self.temps[i]
        temperature = None
        if not np.isnan(temps).all():
            temperature = TemperatureSegment(self.grid, temps)
        load = LoadSegment(self.grid, self.loads[i])
        return DailyRecord(self.meta(i), load, temperature, self.quality[i])

    @cached_property
    def records(self) -> tuple[DailyRecord, ...]:
        """Every day as a `DailyRecord` view, built on first use."""
        return tuple(map(self._record, range(len(self))))

    def by_date(self, date: dt.date) -> DailyRecord:
        return self._record(self.row(date))


def history_jsonl_text(window: HistoryWindow) -> str:
    """First line carries the grid labels; one day per following line."""
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


@contextmanager
def _located(path, lineno: int):
    """Report any parse or schema error inside the block at `path:lineno`."""
    try:
        yield
    except KeyError as exc:
        raise IngestError(f"{path}:{lineno}: missing key {exc}") from None
    except (ValueError, TypeError, OverflowError, ShapecastError) as exc:
        raise IngestError(f"{path}:{lineno}: {exc}") from None


def _refuse_constant(name: str):
    """NaN marks an unobserved temperature, so a file may not spell one out."""
    raise ValueError(f"non-finite number {name}")


_NUMBER = frozenset({int, float})  # bool is neither, though it subclasses int
_NUMBER_OR_NULL = _NUMBER | {type(None)}


def _numbers(values, key: str, P: int, kinds=_NUMBER) -> list:
    """`values` if it is a list of P JSON numbers (or nulls, where `kinds` has them)."""
    if type(values) is list and len(values) == P and kinds.issuperset(map(type, values)):
        return values
    _as_vector(values, P)  # a wrong nesting or length fails here, naming its shape
    bad = next(v for v in values if type(v) not in kinds)
    nulls = ", null only for an unobserved point" if type(None) in kinds else ""
    raise ValueError(f"{key} holds {json.dumps(bad)}: numbers only{nulls}")


def read_history_jsonl(path) -> HistoryWindow:
    """The window a history file holds; every error names `path:line`."""
    with open(path, encoding="utf-8") as fh:
        lines = [
            (n, ln) for n, ln in enumerate(fh.read().splitlines(), 1) if ln.strip()
        ]
    if not lines:
        raise ShapecastError(f"{path}: empty history file")
    lineno, text = lines[0]
    with _located(path, lineno):
        header = json.loads(text)
        if not isinstance(header, dict) or "grid" not in header:
            raise ShapecastError("missing grid header line")
        grid = TimeGrid(tuple(header["grid"]))
    records = lines[1:]
    P = grid.points_per_day
    dates, holidays, quality = [], [], []
    # a row not yet filled is zero load, no temperature: nothing to refuse
    loads, temps = np.zeros((len(records), P)), np.full((len(records), P), np.nan)
    failure = None
    for k, (lineno, text) in enumerate(records):
        try:
            with _located(path, lineno):
                d = json.loads(text, parse_constant=_refuse_constant)
                dates.append(dt.date.fromisoformat(d["date"]))
                holidays.append(bool(d.get("is_holiday")))
                loads[k] = _numbers(d["load_mw"], "load_mw", P)
                temp = d.get("temp_c")
                if temp is not None:
                    temps[k] = _numbers(temp, "temp_c", P, _NUMBER_OR_NULL)  # null: NaN
                    if temp.count(None) == P:
                        raise ShapecastError("temperature mask must be nonempty")
                quality.append(Quality(d["quality"]))
        except IngestError as exc:
            failure = exc
            break
    try:
        if failure is None:
            return HistoryWindow(grid, tuple(dates), loads, temps, holidays, tuple(quality))
        # a bad value on this line or an earlier one comes first
        _refuse_bad_day(grid, loads, temps)
    except ShapecastError as exc:
        if not hasattr(exc, "row"):
            raise
        raise IngestError(f"{path}:{records[exc.row][0]}: {exc}") from None
    raise failure
