"""Raw file parsing and daily segmentation with an explicit gap policy.

Load and temperature readings arrive as flat (timestamp, value) CSVs. One
walk over the calendar days lays each day's load onto the configured grid;
short gaps are linearly interpolated and the day marked gap-filled, longer
gaps reject the whole day. Every fill and every rejection ends up in the gap
report. The same walk lays out each kept day's temperature: the reading at
each grid minute, NaN where none was read.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import IngestError
from .history import HistoryWindow, Quality
from .segments import TEMPERATURE_LIMIT_C, TemperatureSegment, TimeGrid

FORECAST_LABELS = ("08:00", "12:00", "16:00", "20:00")


@dataclass
class DayIssue:
    date: dt.date
    kind: str  # "gap-filled" | "resampled" | "rejected"
    detail: str
    filled_points: list[int] = field(default_factory=list)
    readings: int = 0


@dataclass
class GapReport:
    issues: list[DayIssue] = field(default_factory=list)

    @property
    def rejected_dates(self) -> list[dt.date]:
        return [i.date for i in self.issues if i.kind == "rejected"]

    def summary_lines(self) -> list[str]:
        lines = []
        for i in self.issues:
            lines.append(f"{i.date.isoformat()}  {i.kind:>10}  {i.detail}")
        if not lines:
            lines.append("no gaps, no rejections")
        return lines


def _csv_rows(stream, header: list[str], name: str = "file"):
    """(line number, row) for every data row of a CSV with the given header.

    `stream` is text, UTF-8 bytes or an open text stream. Blank lines are
    skipped; every other row must have one field per header column.
    """
    if isinstance(stream, bytes):
        stream = stream.decode("utf-8")
    reader = csv.reader(io.StringIO(stream) if isinstance(stream, str) else stream)
    try:
        found = [h.strip() for h in next(reader)]
    except StopIteration:
        raise IngestError(f"empty {name}, expected a header row") from None
    if found != header:
        raise IngestError(f"bad header {found!r}, expected {header}")
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != len(header):
            raise IngestError(
                f"line {lineno}: expected {len(header)} columns, got {len(row)}"
            )
        yield lineno, row


def _reading(text: str, lineno: int, what: str, limit: float = math.inf) -> float:
    """`text` as a finite number within ±`limit`; NaN would mean "not read"."""
    try:
        value = float(text)
    except ValueError:
        raise IngestError(f"line {lineno}: non-numeric {what} {text!r}") from None
    if not math.isfinite(value):
        raise IngestError(f"line {lineno}: non-finite {what} {text!r}")
    if abs(value) > limit:
        raise IngestError(f"line {lineno}: {what} {text!r} beyond ±{limit:g}")
    return value


def _parse_timeseries_csv(stream, value_column: str, limit: float = math.inf):
    records = []
    for lineno, (stamp, text) in _csv_rows(stream, ["timestamp", value_column]):
        try:
            ts = dt.datetime.fromisoformat(stamp.strip())
        except ValueError:
            raise IngestError(f"line {lineno}: bad timestamp {stamp!r}") from None
        records.append((ts, _reading(text, lineno, value_column, limit)))
    return records


def parse_load_file(stream) -> list[tuple[dt.datetime, float]]:
    """CSV with header `timestamp,load_mw`; errors name the offending line."""
    return _parse_timeseries_csv(stream, "load_mw")


def parse_temperature_history(stream) -> list[tuple[dt.datetime, float]]:
    """CSV with header `timestamp,temp_c`, same cadence as the load file."""
    return _parse_timeseries_csv(stream, "temp_c", TEMPERATURE_LIMIT_C)


def _group_by_day(records):
    by_day: dict[dt.date, dict[int, float]] = {}
    for ts, value in records:
        minute = ts.hour * 60 + ts.minute
        day = by_day.setdefault(ts.date(), {})
        if minute in day and day[minute] != value:
            raise IngestError(
                f"duplicate timestamp {ts.isoformat()} with conflicting values "
                f"{day[minute]} vs {value}"
            )
        day[minute] = value
    return by_day


def _max_missing_run(present: np.ndarray) -> int:
    longest = run = 0
    for ok in present:
        run = 0 if ok else run + 1
        longest = max(longest, run)
    return longest


def _lay_out_day(minute_values: dict[int, float], grid_minutes: list[int],
                 max_gap: int):
    """Lay one day's readings onto the grid.

    Returns (values, kind, detail, filled indices); `values` is None for a
    rejected day and `kind` is None for a complete one.
    """
    n = len(minute_values)
    if not n:
        return None, "rejected", "no readings", []
    if not set(grid_minutes) >= set(minute_values):
        # off-grid cadence (e.g. DST-shifted readings): resample in absolute time
        mins = np.array(sorted(minute_values))
        vals = np.array([minute_values[m] for m in mins])
        step = grid_minutes[1] - grid_minutes[0]
        if n < 2 or np.max(np.diff(mins)) > (max_gap + 1) * step:
            detail = f"off-grid readings with a gap beyond {max_gap} points"
            return None, "rejected", detail, []
        values = np.interp(grid_minutes, mins, vals)
        detail = f"{n} off-grid readings resampled onto the grid"
        return values, "resampled", detail, list(range(len(grid_minutes)))
    present = np.array([m in minute_values for m in grid_minutes])
    n_missing = int(np.sum(~present))
    if n_missing == 0:
        return np.array([minute_values[m] for m in grid_minutes]), None, "", []
    if _max_missing_run(present) > max_gap:
        detail = f"{n_missing} missing points with a run beyond max_gap={max_gap}"
        return None, "rejected", detail, []
    known_idx = np.flatnonzero(present)
    known_vals = np.array([minute_values[grid_minutes[i]] for i in known_idx])
    values = np.interp(np.arange(len(grid_minutes)), known_idx, known_vals)
    filled = np.flatnonzero(~present).tolist()
    return values, "gap-filled", f"interpolated {len(filled)} missing points", filled


def segmentize(
    records,
    grid: TimeGrid,
    *,
    temps=(),
    max_gap: int = 4,
    holiday_set=frozenset(),
) -> tuple[HistoryWindow, GapReport]:
    """Fold flat load and temperature readings into one record per calendar day.

    Days inside the covered date range with no load readings at all, and days
    whose gaps exceed `max_gap` consecutive grid points, are rejected and
    listed in the report; everything else becomes a complete or gap-filled
    record. A kept day's temperature is NaN at the grid minutes not read that
    day; temperature readings on other days or off the grid are ignored.
    """
    by_day = _group_by_day(records)
    temps_by_day = _group_by_day(temps)
    report = GapReport()
    grid_minutes = grid.minutes.tolist()
    # a kept day has load readings, so there are at most len(by_day) of them
    dates, quality = [], []
    load_rows = np.empty((len(by_day), len(grid_minutes)))
    temp_rows = np.full((len(by_day), len(grid_minutes)), np.nan)
    first = min(by_day, default=None)
    span = (max(by_day) - first).days + 1 if by_day else 0
    # counting days, not stepping a date, so that 9999-12-31 has no successor
    for offset in range(span):
        date = first + dt.timedelta(days=offset)
        minute_values = by_day.get(date, {})
        values, kind, detail, filled = _lay_out_day(minute_values, grid_minutes, max_gap)
        if kind is not None:
            report.issues.append(
                DayIssue(date, kind, detail, filled, readings=len(minute_values))
            )
        if values is None:
            continue
        load_rows[len(dates)] = values
        day_temps = temps_by_day.get(date, {})
        temp_rows[len(dates)] = [day_temps.get(m, np.nan) for m in grid_minutes]
        dates.append(date)
        quality.append(Quality.COMPLETE if kind is None else Quality.GAP_FILLED)
    n, holidays = len(dates), [date in holiday_set for date in dates]
    window = HistoryWindow(grid, tuple(dates), load_rows[:n], temp_rows[:n], holidays,
                           tuple(quality))
    return window, report


def forecast_mask_indices(grid: TimeGrid) -> tuple[int, ...]:
    """Grid indices of the four standard forecast clock times."""
    return tuple(grid.index_of(lb) for lb in FORECAST_LABELS)


def parse_temperature_forecast(stream, grid: TimeGrid) -> dict[dt.date, TemperatureSegment]:
    """CSV with header `date,t0800,t1200,t1600,t2000` -> segments, NaN elsewhere."""
    mask = list(forecast_mask_indices(grid))
    forecasts: dict[dt.date, TemperatureSegment] = {}
    header = ["date", "t0800", "t1200", "t1600", "t2000"]
    for lineno, row in _csv_rows(stream, header, "forecast file"):
        try:
            date = dt.date.fromisoformat(row[0].strip())
        except ValueError:
            raise IngestError(f"line {lineno}: bad date {row[0]!r}") from None
        if date in forecasts:
            raise IngestError(f"line {lineno}: duplicate date {date.isoformat()}")
        values = np.full(grid.points_per_day, np.nan)
        values[mask] = [
            _reading(v, lineno, "temperature", TEMPERATURE_LIMIT_C) for v in row[1:]
        ]
        forecasts[date] = TemperatureSegment(grid, values)
    return forecasts
