"""The history as day-by-day columns, daily-record views, and JSON-lines persistence.

One check, `_read_record`, reads a decoded record line, and two decoders feed
it: orjson first, then, for a line orjson refuses or whose reading fails the
check, the stdlib's `json.loads`, whose value or error stands. So `NaN`, `1e400`
and a lone-surrogate escape read as the stdlib reads them, and every error text
is the stdlib path's. The header line is read by `json.loads` alone.

The writer keeps `json.dumps`'s text byte for byte. The header line is
`json.dumps`'s; each record's numbers take orjson's digits, which are
`repr`'s shortest ones, and a row where orjson spells an exponent differently
falls back to `json.dumps`.
"""

from __future__ import annotations

import datetime as dt
import json
import operator
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np
import orjson

from .calendars import GROUPS, CalendarMeta, group_codes
from .errors import GridMismatchError, IngestError, ShapecastError
from .segments import TEMPERATURE_LIMIT_C, LoadSegment, TemperatureSegment, TimeGrid
from .segments import OFF_LIMIT_TEMPERATURE, _as_vector, read_only


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


# the per-day columns a span slices; `_shapes` holds a zero row for a zero day
_COLUMNS = ("dates", "is_holiday", "quality", "loads", "temps", "group", "peaks", "_shapes")
_NONPOSITIVE = "{}: cannot rescale a segment with nonpositive maximum"


def _owned(a) -> np.ndarray:
    """`a` as a read-only float matrix: itself if it owns its data, else a copy."""
    a = np.asarray(a, dtype=float)
    # a view's base would stay writable, so only an owner is kept uncopied
    return read_only(a if a.base is None and a.flags.c_contiguous else a.copy())


def _refuse_bad_day(loads: np.ndarray, temps: np.ndarray) -> None:
    """Raise the error of the first day a window refuses, with its `row`."""
    bad = ~np.isfinite(loads) | (loads < 0) | (np.abs(temps) > TEMPERATURE_LIMIT_C)
    rows = np.flatnonzero(bad.any(axis=1))
    if len(rows):
        row = int(rows[0])
        if not np.isfinite(loads[row]).all():
            _refuse_row(row, "load values must be finite")
        if (loads[row] < 0).any():
            _refuse_row(row, "load values must be nonnegative")
        _refuse_row(row, OFF_LIMIT_TEMPERATURE)


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
    when that array owns its data, and makes it read-only. The constructor
    builds `group`, `peaks` (each day's maximum load) and the shape rows once;
    `span(start, stop)` is a slice of each column, so a span shares its parent's
    arrays and refers to no other window. `records` builds `DailyRecord` views
    only when asked.
    """

    grid: TimeGrid
    dates: tuple[dt.date, ...]
    loads: np.ndarray
    temps: np.ndarray
    is_holiday: np.ndarray | None = None  # None: no holidays
    quality: tuple[Quality, ...] | None = None  # None: every day complete

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
        _refuse_bad_day(self.loads, self.temps)
        ascending = list(map(operator.lt, self.dates, self.dates[1:]))
        if not all(ascending):
            _refuse_row(ascending.index(False) + 1,
                        "history records must be strictly ascending by date")
        if Quality.REJECTED in self.quality:
            _refuse_row(self.quality.index(Quality.REJECTED),
                        "rejected records are excluded from history")
        peaks = self.loads.max(axis=1, keepdims=True)
        shapes = np.divide(self.loads, peaks, out=np.zeros_like(self.loads), where=peaks > 0)
        # a day's group follows from its date and holiday flag, so it is no argument
        self.__dict__.update(group=read_only(group_codes(self.dates, self.is_holiday)),
                             peaks=read_only(peaks[:, 0]), _shapes=read_only(shapes))

    def __len__(self) -> int:
        return len(self.dates)

    @property
    def shapes(self) -> np.ndarray:
        """L x P matrix of shape-form (max-rescaled) load values, history order."""
        # a nonpositive day fails only the windows that hold it
        ok = self.peaks > 0
        if not ok.all():
            raise ShapecastError(_NONPOSITIVE.format(self.dates[np.argmin(ok)]))
        return self._shapes

    def span(self, start: int, stop: int) -> "HistoryWindow":
        """Rows `start:stop`, clamped like a slice; a run of a valid window needs no checks."""
        window = object.__new__(HistoryWindow)
        window.__dict__.update({name: self.__dict__[name][start:stop] for name in _COLUMNS},
                               grid=self.grid)
        return window

    def before(self, date: dt.date) -> "HistoryWindow":
        """Days strictly before `date`."""
        return self.span(0, bisect_left(self.dates, date))

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


def orjson_unlike_repr(m: np.ndarray) -> np.ndarray:
    """Per row of `m`, whether orjson writes one of its finite values unlike `repr`.

    Both write the shortest digits that read back, but orjson spells a nonzero
    |x| < 1e-4 or an |x| >= 1e16 in its own form: `0.00001` for `1e-05` and
    `1e16` for `1e+16`. (It writes NaN and +-inf as `null`.)
    """
    a = np.abs(m)
    return (((a < 1e-4) & (a != 0)) | (a >= 1e16)).any(axis=1)


def _rows_text(m: np.ndarray):
    """Each row of `m` as `json.dumps` writes its list, with NaN as `null`, in turn."""
    # one row's floats at a time: all of a long history's would outweigh its text.
    # `orjson_unlike_repr` is its own function so that its L x P `np.abs(m)` is
    # freed before the first row is written: held here, it raised the backtest
    # benchmark's peak RSS, which includes writing its input history, by 2.8 MB
    for row, odd in zip(m, orjson_unlike_repr(m).tolist()):
        if odd:  # in a list of floats, `json.dumps` writes "NaN" for a NaN only
            yield json.dumps(row.tolist()).replace("NaN", "null").encode()
        else:
            yield orjson.dumps(row.tolist()).replace(b",", b", ")


# a record line as `json.dumps(..., sort_keys=True)` writes it, and its line end
_LINE = b'{"date": "%s", "group": %s, "is_holiday": %s, "load_mw": %s, "quality": %s%s}\n'
_GROUP_TEXT = [json.dumps(g.value).encode() for g in GROUPS]
_QUALITY_TEXT = {q: json.dumps(q.value).encode() for q in Quality}


def history_jsonl_text(window: HistoryWindow) -> str:
    """First line carries the grid labels; one day per following line."""
    observed = ~np.isnan(window.temps).all(axis=1)
    temps = _rows_text(window.temps[observed])
    # one growing buffer: a list of lines, or its join, leaves more of the heap resident
    text = bytearray(json.dumps({"grid": list(window.grid.labels)}, sort_keys=True).encode())
    text += b"\n"
    for date, group, holiday, load, quality, has_temps in zip(
            window.dates, window.group.tolist(), window.is_holiday.tolist(),
            _rows_text(window.loads), window.quality, observed.tolist()):
        text += _LINE % (
            date.isoformat().encode(), _GROUP_TEXT[group], b"true" if holiday else b"false",
            load, _QUALITY_TEXT[quality], b', "temp_c": ' + next(temps) if has_temps else b"",
        )
    return text.decode()


# what a bad line raises, a line nested too deep to decode among them
_REPORTED = (KeyError, ValueError, TypeError, OverflowError, RecursionError, ShapecastError)


@contextmanager
def _located(path, lineno: int):
    """Report any parse or schema error inside the block at `path:lineno`."""
    try:
        yield
    except KeyError as exc:
        raise IngestError(f"{path}:{lineno}: missing key {exc}") from None
    except _REPORTED as exc:
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
    # the first value not allowed, at any depth, is named before numpy converts
    # (and fails on) it; a stack, not recursion: a line may nest thousands deep
    pending = [values]
    while pending:
        v = pending.pop()
        if type(v) is list:
            pending.extend(reversed(v))
        elif type(v) not in kinds:
            nulls = ", null only for an unobserved point" if type(None) in kinds else ""
            raise ValueError(f"{key} holds {json.dumps(v)}: numbers only{nulls}")
    try:
        _as_vector(values, P)  # a wrong nesting or length fails here, naming its shape
    except ValueError:  # numpy words a ragged or too deep nesting in its own terms
        raise GridMismatchError("expected 1-d vector, got nested lists") from None


# orjson builds a nested value by recursion without a limit, and a line nested
# about 10^5 deep crashes the interpreter; a deeper one than this goes to the
# stdlib decoder, which raises RecursionError
_ORJSON_DEPTH = 10_000


def _too_deep_for_orjson(text: str) -> bool:
    """Whether `text` could nest deeper than `_ORJSON_DEPTH`."""
    # a level takes two brackets, so only a long line needs its brackets counted
    return len(text) > 2 * _ORJSON_DEPTH and text.count("[") + text.count("{") > _ORJSON_DEPTH


_QUALITY = {q.value: q for q in Quality}


def _read_record(d, P: int, load: np.ndarray, temp: np.ndarray) -> tuple:
    """A decoded record line's (date, holiday flag, quality).

    Its numbers fill `load` and `temp`.
    """
    date = dt.date.fromisoformat(d["date"])
    holiday = bool(d.get("is_holiday"))
    load[:] = _numbers(d["load_mw"], "load_mw", P)
    temps = d.get("temp_c")
    if temps is not None:
        temp[:] = _numbers(temps, "temp_c", P, _NUMBER_OR_NULL)  # null: NaN
        # a list `_numbers` passed holds no null if its first value is not one
        if temps[0] is None and temps.count(None) == P:
            raise ShapecastError("temperature mask must be nonempty")
    q = d["quality"]
    try:
        return date, holiday, _QUALITY[q]
    except (KeyError, TypeError):  # an unknown or unhashable value: `Quality` names it
        return date, holiday, Quality(q)


def read_history_jsonl(path) -> HistoryWindow:
    """The window a history file holds; every error names `path:line`."""
    with open(path, encoding="utf-8") as fh:
        # universal newlines turn `\r\n` and `\r` into `\n`, the one break splitting
        # records: JSON allows U+2028 and the like raw inside a string
        lines = fh.read().split("\n")
    linenos = [n for n, ln in enumerate(lines, 1) if ln.strip()]
    if not linenos:
        raise ShapecastError(f"{path}: empty history file")
    with _located(path, linenos[0]):
        header = json.loads(lines[linenos[0] - 1])
        if not isinstance(header, dict) or "grid" not in header:
            raise ShapecastError("missing grid header line")
        grid = TimeGrid(tuple(header["grid"]))
    linenos = linenos[1:]
    P = grid.points_per_day
    days = []  # each line's (date, holiday flag, quality)
    # a row not yet filled is zero load, no temperature: nothing to refuse
    loads, temps = np.zeros((len(linenos), P)), np.full((len(linenos), P), np.nan)
    try:
        for k, lineno in enumerate(linenos):
            text = lines[lineno - 1]
            try:
                # a BOM is the stdlib path's error, and orjson must not see a deep line
                if text.startswith("\ufeff") or _too_deep_for_orjson(text):
                    raise ValueError
                days.append(_read_record(orjson.loads(text), P, loads[k], temps[k]))
            except _REPORTED:
                # the stdlib decoder reads the line again, and its values or error stand
                try:
                    with _located(path, lineno):
                        record = json.loads(text, parse_constant=_refuse_constant)
                        days.append(_read_record(record, P, loads[k], temps[k]))
                except IngestError:
                    # a bad value on this line (row k) or an earlier one comes first
                    _refuse_bad_day(loads[:k + 1], temps[:k + 1])
                    raise
        dates, holidays, quality = zip(*days) if days else ((), (), ())
        return HistoryWindow(grid, dates, loads, temps, holidays, quality)
    except ShapecastError as exc:  # a day the window refuses is named by its line
        if not hasattr(exc, "row"):
            raise
        raise IngestError(f"{path}:{linenos[exc.row]}: {exc}") from None
