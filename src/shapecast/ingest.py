"""Raw file parsing and daily segmentation with an explicit gap policy.

Load readings arrive as a flat (timestamp, value) CSV. Each calendar day is
laid onto the configured grid; short gaps are linearly interpolated and the
day marked gap-filled, longer gaps reject the whole day. Every fill and every
rejection ends up in the gap report.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
from dataclasses import dataclass, field

import numpy as np

from .calendars import annotate_calendar
from .errors import IngestError
from .history import DailyRecord, HistoryWindow, Quality
from .segments import LoadSegment, TemperatureSegment, TimeGrid

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


def _csv_reader(stream):
    """CSV reader over text, UTF-8 bytes or an open text stream."""
    if isinstance(stream, bytes):
        stream = stream.decode("utf-8")
    return csv.reader(io.StringIO(stream) if isinstance(stream, str) else stream)


def _parse_timeseries_csv(stream, value_column: str) -> list[tuple[dt.datetime, float]]:
    reader = _csv_reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise IngestError("empty file, expected a header row") from None
    header = [h.strip() for h in header]
    if header != ["timestamp", value_column]:
        raise IngestError(
            f"bad header {header!r}, expected ['timestamp', '{value_column}']"
        )
    records = []
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 2:
            raise IngestError(f"line {lineno}: expected 2 columns, got {len(row)}")
        try:
            ts = dt.datetime.fromisoformat(row[0].strip())
        except ValueError:
            raise IngestError(f"line {lineno}: bad timestamp {row[0]!r}") from None
        try:
            value = float(row[1])
        except ValueError:
            raise IngestError(
                f"line {lineno}: non-numeric {value_column} {row[1]!r}"
            ) from None
        records.append((ts, value))
    return records


def parse_load_file(stream) -> list[tuple[dt.datetime, float]]:
    """CSV with header `timestamp,load_mw`; errors name the offending line."""
    return _parse_timeseries_csv(stream, "load_mw")


def parse_temperature_history(stream) -> list[tuple[dt.datetime, float]]:
    """CSV with header `timestamp,temp_c`, same cadence as the load file."""
    return _parse_timeseries_csv(stream, "temp_c")


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


def _lay_out_day(minute_values: dict[int, float], grid: TimeGrid, max_gap: int):
    """Return (values, filled_indices, resampled) or raise ValueError on reject."""
    grid_minutes = grid.minutes
    on_grid = set(grid_minutes.tolist()) >= set(minute_values)
    if not on_grid:
        # off-grid cadence (e.g. DST-shifted readings): resample in absolute time
        mins = np.array(sorted(minute_values))
        vals = np.array([minute_values[m] for m in mins])
        step = grid_minutes[1] - grid_minutes[0]
        if len(mins) < 2 or np.max(np.diff(mins)) > (max_gap + 1) * step:
            raise ValueError(f"off-grid readings with a gap beyond {max_gap} points")
        values = np.interp(grid_minutes, mins, vals)
        return values, list(range(len(grid_minutes))), True
    present = np.array([m in minute_values for m in grid_minutes])
    n_missing = int(np.sum(~present))
    if n_missing == 0:
        values = np.array([minute_values[m] for m in grid_minutes])
        return values, [], False
    if _max_missing_run(present) > max_gap:
        raise ValueError(
            f"{n_missing} missing points with a run beyond max_gap={max_gap}"
        )
    known_idx = np.flatnonzero(present)
    known_vals = np.array([minute_values[grid_minutes[i]] for i in known_idx])
    values = np.interp(np.arange(len(grid_minutes)), known_idx, known_vals)
    return values, np.flatnonzero(~present).tolist(), False


def segmentize(
    records,
    grid: TimeGrid,
    *,
    max_gap: int = 4,
    holiday_set=frozenset(),
) -> tuple[HistoryWindow, GapReport]:
    """Fold flat readings into one daily record per calendar day.

    Days inside the covered date range with no readings at all, and days whose
    gaps exceed `max_gap` consecutive grid points, are rejected and listed in
    the report; everything else becomes a complete or gap-filled record.
    """
    by_day = _group_by_day(records)
    report = GapReport()
    if not by_day:
        return HistoryWindow(()), report
    first, last = min(by_day), max(by_day)
    kept: list[DailyRecord] = []
    # counting days, not stepping a date, so that 9999-12-31 has no successor
    for offset in range((last - first).days + 1):
        date = first + dt.timedelta(days=offset)
        minute_values = by_day.get(date, {})
        if not minute_values:
            report.issues.append(DayIssue(date, "rejected", "no readings", readings=0))
            continue
        try:
            values, filled, resampled = _lay_out_day(minute_values, grid, max_gap)
        except ValueError as exc:
            report.issues.append(
                DayIssue(date, "rejected", str(exc), readings=len(minute_values))
            )
            continue
        if resampled:
            quality = Quality.GAP_FILLED
            report.issues.append(
                DayIssue(
                    date,
                    "resampled",
                    f"{len(minute_values)} off-grid readings resampled onto the grid",
                    filled_points=filled,
                    readings=len(minute_values),
                )
            )
        elif filled:
            quality = Quality.GAP_FILLED
            report.issues.append(
                DayIssue(
                    date,
                    "gap-filled",
                    f"interpolated {len(filled)} missing points",
                    filled_points=filled,
                    readings=len(minute_values),
                )
            )
        else:
            quality = Quality.COMPLETE
        meta = annotate_calendar(date, holiday_set)
        kept.append(DailyRecord(meta, LoadSegment(grid, values), None, quality))
    return HistoryWindow(tuple(kept)), report


def attach_temperature_history(window: HistoryWindow, records) -> HistoryWindow:
    """Attach per-day temperature segments built from flat (timestamp, temp) rows.

    The mask of each segment is whatever subset of grid points was observed;
    days without any reading keep temperature = None.
    """
    by_day = _group_by_day(records)
    grid_minutes = window.grid.minutes if len(window) else None
    out = []
    for rec in window.records:
        minute_values = by_day.get(rec.meta.date)
        temp = rec.temperature
        if minute_values:
            mask = tuple(
                i for i, m in enumerate(grid_minutes) if int(m) in minute_values
            )
            if mask:
                values = np.full(len(grid_minutes), np.nan)
                for i in mask:
                    values[i] = minute_values[int(grid_minutes[i])]
                temp = TemperatureSegment(window.grid, values, mask)
        out.append(DailyRecord(rec.meta, rec.load, temp, rec.quality))
    return HistoryWindow(tuple(out))


def forecast_mask_indices(grid: TimeGrid) -> tuple[int, ...]:
    """Grid indices of the four standard forecast clock times."""
    return tuple(grid.index_of(lb) for lb in FORECAST_LABELS)


def parse_temperature_forecast(stream, grid: TimeGrid) -> dict[dt.date, TemperatureSegment]:
    """CSV with header `date,t0800,t1200,t1600,t2000` -> masked segments."""
    reader = _csv_reader(stream)
    try:
        header = [h.strip() for h in next(reader)]
    except StopIteration:
        raise IngestError("empty forecast file, expected a header row") from None
    expected = ["date", "t0800", "t1200", "t1600", "t2000"]
    if header != expected:
        raise IngestError(f"bad header {header!r}, expected {expected}")
    mask = forecast_mask_indices(grid)
    forecasts: dict[dt.date, TemperatureSegment] = {}
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 5:
            raise IngestError(f"line {lineno}: expected 5 columns, got {len(row)}")
        try:
            date = dt.date.fromisoformat(row[0].strip())
        except ValueError:
            raise IngestError(f"line {lineno}: bad date {row[0]!r}") from None
        if date in forecasts:
            raise IngestError(f"line {lineno}: duplicate date {date.isoformat()}")
        try:
            temps = [float(v) for v in row[1:]]
        except ValueError:
            raise IngestError(f"line {lineno}: non-numeric temperature") from None
        values = np.full(grid.points_per_day, np.nan)
        for i, v in zip(mask, temps):
            values[i] = v
        forecasts[date] = TemperatureSegment(grid, values, mask)
    return forecasts
