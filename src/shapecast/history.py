"""Daily records, the ordered history window, and its JSON-lines persistence."""

from __future__ import annotations

import datetime as dt
import json
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .calendars import CalendarMeta, annotate_calendar
from .errors import IngestError, ShapecastError
from .segments import LoadSegment, TemperatureSegment, TimeGrid


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


@dataclass(frozen=True)
class HistoryWindow:
    """Ascending, duplicate-free list of usable (non-rejected) daily records.

    The window owns its column arrays: `dates`, `loads` (L x P megawatts) and
    `shapes` (L x P, each row divided by its maximum). Each is built at most
    once and is read-only; `prefix(n)` slices them instead of rebuilding.
    """

    records: tuple[DailyRecord, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "records", tuple(self.records))
        dates = self.dates
        if any(b <= a for a, b in zip(dates, dates[1:])):
            raise ShapecastError("history records must be strictly ascending by date")
        if any(r.quality is Quality.REJECTED for r in self.records):
            raise ShapecastError("rejected records are excluded from history")

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    @property
    def grid(self) -> TimeGrid:
        if not self.records:
            raise ShapecastError("empty history has no grid")
        return self.records[0].load.grid

    @cached_property
    def dates(self) -> tuple[dt.date, ...]:
        """Record dates, ascending; `before` and `by_date` bisect them."""
        return tuple(r.meta.date for r in self.records)

    @cached_property
    def loads(self) -> np.ndarray:
        """L x P matrix of raw load values (megawatts), history order."""
        if not self.records:
            return _read_only(np.empty((0, 0)))
        return _read_only(np.array([r.load.values for r in self.records]))

    @cached_property
    def shapes(self) -> np.ndarray:
        """L x P matrix of shape-form (max-rescaled) load values, history order."""
        loads = self.loads
        if not len(loads):
            return loads
        peaks = loads.max(axis=1, keepdims=True)
        if np.any(peaks <= 0):
            raise ShapecastError("cannot rescale a segment with nonpositive maximum")
        return _read_only(loads / peaks)

    def prefix(self, n: int) -> "HistoryWindow":
        """The first `n` records; a prefix of a valid window needs no checks.

        The prefix slices this window's arrays: `loads` always, `dates` and
        `shapes` when they are already built.
        """
        window = object.__new__(HistoryWindow)
        object.__setattr__(window, "records", self.records[:n])
        window.__dict__["loads"] = self.loads[:n]
        for name in ("dates", "shapes"):
            if name in self.__dict__:
                window.__dict__[name] = self.__dict__[name][:n]
        return window

    def before(self, date: dt.date) -> "HistoryWindow":
        """Records strictly before `date`."""
        return self.prefix(bisect_left(self.dates, date))

    def by_date(self, date: dt.date) -> DailyRecord:
        i = bisect_left(self.dates, date)
        if i == len(self.dates) or self.dates[i] != date:
            raise ShapecastError(f"no record for {date.isoformat()}")
        return self.records[i]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def record_to_dict(record: DailyRecord) -> dict:
    d = {
        "date": record.meta.date.isoformat(),
        "is_holiday": record.meta.is_holiday,
        "group": record.meta.group.value,
        "quality": record.quality.value,
        "load_mw": record.load.values.tolist(),
    }
    if record.temperature is not None:
        mask = set(record.temperature.mask)
        d["temp_c"] = [
            float(v) if i in mask else None
            for i, v in enumerate(record.temperature.values)
        ]
    return d


def record_from_dict(d: dict, grid: TimeGrid) -> DailyRecord:
    date = dt.date.fromisoformat(d["date"])
    holiday_set = {date} if d.get("is_holiday") else frozenset()
    meta = annotate_calendar(date, holiday_set)
    load = LoadSegment(grid, d["load_mw"])
    temperature = None
    if d.get("temp_c") is not None:
        raw = d["temp_c"]
        mask = tuple(i for i, v in enumerate(raw) if v is not None)
        values = np.array([v if v is not None else np.nan for v in raw])
        temperature = TemperatureSegment(grid, values, mask)
    return DailyRecord(meta, load, temperature, Quality(d["quality"]))


def history_jsonl_text(window: HistoryWindow, grid: TimeGrid | None = None) -> str:
    """First line carries the grid labels; one record per following line.

    `grid` is written for an empty window, which has no grid of its own.
    """
    grid = grid or window.grid
    lines = [json.dumps({"grid": list(grid.labels)}, sort_keys=True)]
    lines += [json.dumps(record_to_dict(r), sort_keys=True) for r in window.records]
    return "\n".join(lines) + "\n"


def write_history_jsonl(path, window: HistoryWindow) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(history_jsonl_text(window))


@contextmanager
def _located(path, lineno: int):
    """Report any parse or schema error inside the block at `path:lineno`."""
    try:
        yield
    except KeyError as exc:
        raise IngestError(f"{path}:{lineno}: missing key {exc}") from None
    except (ValueError, TypeError, ShapecastError) as exc:
        raise IngestError(f"{path}:{lineno}: {exc}") from None


def read_history_jsonl(path) -> HistoryWindow:
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
    records = []
    for lineno, text in lines[1:]:
        with _located(path, lineno):
            records.append(record_from_dict(json.loads(text), grid))
    return HistoryWindow(tuple(records))
