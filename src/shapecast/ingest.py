"""Raw file parsing and daily segmentation with an explicit gap policy.

Load and temperature readings arrive as flat (timestamp, value) CSVs, parsed
into day ordinal, minute of day and value columns. A plain file is read from
its UTF-8 bytes, where numpy reads the canonical stamps, with no string per
line or per stamp, and orjson the values as one JSON array. A file with a
quote, a NUL or a CR outside a CRLF line end is read by `csv.reader`, and its
rows one by one, as are the stamps numpy refuses, every value of a plain file
where orjson refuses one, and bad rows.
`segmentize` sorts the readings by day and minute once. A day read at exactly
the grid minutes is one row as read; every other day is laid onto the grid,
where short gaps are linearly interpolated and the day marked gap-filled,
and longer gaps reject the whole day. Every fill and every rejection ends up
in the gap report. A kept day's temperature is the reading at each grid
minute, NaN where none was read.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import math
from dataclasses import dataclass, field

import numpy as np
import orjson

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
        lines = [f"{i.date.isoformat()}  {i.kind:>10}  {i.detail}" for i in self.issues]
        return lines or ["no gaps, no rejections"]


def _header(head: list[str], header: list[str]) -> None:
    found = [h.strip() for h in head]
    if found != header:
        raise IngestError(f"bad header {found!r}, expected {header}")


def _rows(text: str, header: list[str], name: str = "file"):
    """(line numbers, columns, error) of the data rows of CSV `text`, by `csv.reader`.

    Blank lines are skipped, and a row is numbered by the line it starts on.
    Every other row must have one field per header column; the rows end before
    the first that does not, and `error` is what reading it raised, or None.
    The caller raises it after the rows before it: errors come in line order.
    """
    if not text:
        raise IngestError(f"empty {name}, expected a header row")
    reader = csv.reader(io.StringIO(text))
    _header(next(reader), header)
    linenos, rows, error, width = [], [], None, len(header)
    try:
        start = reader.line_num + 1
        for row in reader:
            lineno, start = start, reader.line_num + 1
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != width:
                error = IngestError(f"line {lineno}: expected {width} columns, got {len(row)}")
                break
            linenos.append(lineno)
            rows.append(row)
    except csv.Error as exc:
        error = exc
    return linenos, [list(col) for col in zip(*rows)] or [[] for _ in header], error


def _utf8(raw: np.ndarray, start: int = 0, stop: int | None = None) -> str:
    return str(raw[start:stop], "utf-8", "surrogatepass")


def _plain_rows(text: str, header: list[str]):
    """(bytes, line numbers, line starts, commas, values) of two-column CSV `text`.

    Positions index the UTF-8 bytes of `text` with each CRLF read as LF, as
    `csv.reader` ends a line at either; `values` is one string of the second
    fields, a line each. Blank lines are skipped. None where `csv.reader`
    may read otherwise: a quote, a NUL, a CR outside a CRLF, an overlong
    field, a line neither blank nor 2 fields.
    """
    if '"' in text or "\0" in text:
        return None
    if "\r" in text:
        if text.count("\r") != text.count("\r\n"):
            return None
        text = text.replace("\r\n", "\n")
    raw = np.frombuffer(text.encode("utf-8", "surrogatepass"), np.uint8)
    ends = np.flatnonzero(raw == ord("\n"))  # csv's line breaks; splitlines() has more
    commas = np.flatnonzero(raw == ord(","))
    starts, stops = np.append(0, ends + 1), np.append(ends, len(raw))
    count = np.bincount(np.searchsorted(ends, commas), minlength=len(starts))
    if ((stops - starts).max() >= csv.field_size_limit()
            or any(count[k] or _utf8(raw, starts[k], stops[k]).strip()
                   for k in np.flatnonzero(count[1:] != 1) + 1)):
        return None
    _header(_utf8(raw, 0, stops[0]).split(",") if stops[0] else [], header)
    rows, commas = np.flatnonzero(count[1:] == 1) + 1, commas[count[0]:]
    field = np.zeros(len(raw) + 2, bool)  # flips on where a value starts, off past its line
    field[commas + 1] = field[stops[rows] + 1] = True
    field = np.logical_xor.accumulate(field, out=field)[:len(raw)]
    return raw, rows + 1, starts[rows], commas, _utf8(raw[field])


def _reading(text: str, lineno: int, what: str, limit: float = math.inf,
             signed: bool = True) -> float:
    """`text` as a finite number within ±`limit`; NaN would mean "not read"."""
    try:
        value = float(text)
    except ValueError:
        raise IngestError(f"line {lineno}: non-numeric {what} {text!r}") from None
    if not math.isfinite(value):
        raise IngestError(f"line {lineno}: non-finite {what} {text!r}")
    if abs(value) > limit:
        raise IngestError(f"line {lineno}: {what} {text!r} beyond ±{limit:g}")
    if value < 0 and not signed:
        raise IngestError(f"line {lineno}: negative {what} {text!r}")
    return value


@dataclass(frozen=True, eq=False)
class Readings:
    """Timestamped readings in file order, as columns.

    `days` holds date ordinals and `minutes` the minute of the day, seconds
    and UTC offsets dropped. `exact` maps a row to its timestamp where
    `datetime.fromisoformat` read it.
    """

    days: np.ndarray
    minutes: np.ndarray
    values: np.ndarray
    exact: dict[int, dt.datetime]

    def __len__(self) -> int:
        return len(self.values)

    def isoformat(self, i: int) -> str:
        """Row `i`'s timestamp as `datetime.isoformat` writes it."""
        ts = self.exact.get(i) or (dt.datetime.fromordinal(int(self.days[i]))
                                   + dt.timedelta(minutes=int(self.minutes[i])))
        return ts.isoformat()


_TEMPLATE = np.frombuffer(b"0000-00-00T00:00", np.uint8)
_EPOCH = dt.date(1970, 1, 1).toordinal()


def _stamps(raw: np.ndarray, starts: np.ndarray, commas: np.ndarray):
    """Day ordinals and minutes of day where numpy reads the stamp, day 0 elsewhere.

    A row's stamp is the bytes of `raw` from its line start to its comma.
    numpy parses `YYYY-MM-DDTHH:MM`, or a space for the T; every other stamp
    is left to `datetime.fromisoformat`, whose accepted set depends on the
    Python version, and so is every canonical one if numpy refuses one.
    """
    days, minutes = np.zeros((2, len(starts)), dtype=np.int64)
    rows = np.flatnonzero(commas - starts == 16)
    # the 16 bytes from every offset of `raw`, as overlapping strings: one gather
    block = np.ndarray(max(len(raw) - 15, 0), "S16", raw, strides=(1,))[starts[rows]]
    u = block.view(np.uint8).reshape(-1, 16)
    # a digit where the template has 0 (in uint8 a byte below "0" wraps past 9), else its byte
    match = u - _TEMPLATE <= (_TEMPLATE == ord("0")) * np.uint8(9)
    match[:, 10] |= u[:, 10] == ord(" ")
    ok = match.all(axis=1)
    try:
        stamps = block[ok].astype("M8[m]").astype(np.int64)
    except ValueError:  # an impossible date or time
        return days, minutes
    rows = rows[ok]
    days[rows], minutes[rows] = stamps // 1440 + _EPOCH, stamps % 1440
    return days, minutes


def _lines(texts: str, n: int) -> list[str]:
    """The `n` lines of `texts`; a newline after the last starts no other."""
    return texts.split("\n")[:n]


def _values(texts: str, n: int) -> np.ndarray:
    """Values of the `n` lines of `texts`, all NaN where orjson refuses one.

    orjson reads the string as one JSON array where it holds a number per
    line, and the string is split only to read each zero again with `float`:
    orjson reads "-0" as the integer 0. Where it refuses one, every row is
    read one by one.
    """
    try:  # a bracket is in no number, and orjson crashes on a deep nesting
        numbers = None if "[" in texts else orjson.loads(
            "[" + texts.removesuffix("\n").replace("\n", ",") + "]")
    except ValueError:  # a text JSON does not spell, or a lone surrogate
        numbers = None
    # the count differs where the last line, with no newline after it, is empty
    if (numbers is None or len(numbers) != n
            or not {*map(type, numbers)} <= {int, float}):  # true, false or null
        return np.full(n, np.nan)
    values = np.array(numbers, dtype=float)
    zeros = np.flatnonzero(values == 0).tolist()
    if zeros:
        lines = _lines(texts, n)
        values[zeros] = [float(lines[i]) for i in zeros]
    return values


def _parse_timeseries_csv(text: str, value_column: str, limit: float = math.inf,
                          signed: bool = True) -> Readings:
    header, error = ["timestamp", value_column], None
    plain = _plain_rows(text, header) if text else None
    if plain is None:  # every row is read one by one
        linenos, (stamps, texts), error = _rows(text, header)
        days, minutes = np.zeros((2, len(texts)), dtype=np.int64)
        values = np.full(len(texts), np.nan)
    else:
        raw, linenos, starts, commas, texts = plain
        days, minutes = _stamps(raw, starts, commas)
        values = _values(texts, len(linenos))
    # numpy reads year 0, which no date has, as a day below 1
    ok = (days > 0) & np.isfinite(values) & (np.abs(values) <= limit)
    if not signed:
        ok &= values >= 0
    exact, bad = {}, np.flatnonzero(~ok).tolist()
    if bad and plain is not None:
        texts = _lines(texts, len(linenos))
    # rows not read or that fail a check, in file order: the first bad one raises
    for i in bad:
        if days[i] < 1:  # a stamp numpy read is canonical and valid: reading it again adds nothing
            stamp = stamps[i] if plain is None else _utf8(raw, starts[i], commas[i])
            try:
                ts = exact[i] = dt.datetime.fromisoformat(stamp.strip())
            except ValueError:
                raise IngestError(f"line {linenos[i]}: bad timestamp {stamp!r}") from None
            days[i], minutes[i] = ts.toordinal(), ts.hour * 60 + ts.minute
        values[i] = _reading(texts[i], linenos[i], value_column, limit, signed)
    if error is not None:
        raise error
    return Readings(days, minutes, values, exact)


def parse_load_file(text: str) -> Readings:
    """CSV with header `timestamp,load_mw`; errors name the offending line."""
    return _parse_timeseries_csv(text, "load_mw", signed=False)


def parse_temperature_history(text: str) -> Readings:
    """CSV with header `timestamp,temp_c`, same cadence as the load file."""
    return _parse_timeseries_csv(text, "temp_c", TEMPERATURE_LIMIT_C)


def _by_minute(readings: Readings):
    """(days, minutes, values) sorted by day and minute, one reading per minute.

    Of equal duplicates the last in file order is kept. The first reading in
    file order that differs from an earlier one of its minute raises.
    """
    key = readings.days * 1440 + readings.minutes
    order = np.argsort(key, kind="stable")
    key, values = key[order], readings.values[order]
    same = key[1:] == key[:-1]
    clash = np.flatnonzero(same & (values[1:] != values[:-1])) + 1
    if len(clash):
        j = clash[np.argmin(order[clash])]
        raise IngestError(
            f"duplicate timestamp {readings.isoformat(int(order[j]))} with conflicting values "
            f"{float(values[j - 1])} vs {float(values[j])}"
        )
    last = np.ones(len(key), dtype=bool)
    last[:-1] = ~same
    return key[last] // 1440, key[last] % 1440, values[last]


def _lay_out_day(mins: list[int], vals: list[float], grid_minutes: list[int],
                 max_gap: int):
    """Lay one day's readings, by ascending minute and not the whole grid, onto it.

    One gap rule judges every day: from the grid point before the day's first
    to the grid point after its last, no stretch between consecutive readings
    may span more than `max_gap + 1` grid steps. On-grid readings are
    interpolated by grid index, off-grid ones (e.g. DST-shifted) in minutes.
    Returns (values, kind, detail, filled indices); `values` is None for a
    rejected day.
    """
    n, P = len(mins), len(grid_minutes)
    step = grid_minutes[1] - grid_minutes[0]
    on_grid = set(grid_minutes) >= set(mins)
    # integer minutes: dividing by the step first misjudges exact boundaries
    bounds = [grid_minutes[0] - step, *mins, grid_minutes[-1] + step]
    if max(b - a for a, b in zip(bounds, bounds[1:])) > (max_gap + 1) * step:
        detail = (f"{P - n} missing points with a run beyond max_gap={max_gap}" if on_grid
                  else f"off-grid readings with a gap beyond {max_gap} points")
        return None, "rejected", detail, []
    if not on_grid:
        detail = f"{n} off-grid readings resampled onto the grid"
        return np.interp(grid_minutes, mins, vals), "resampled", detail, list(range(P))
    known = [(m - grid_minutes[0]) // step for m in mins]
    filled = sorted(set(range(P)).difference(known))
    values = np.interp(np.arange(P), known, vals)
    return values, "gap-filled", f"interpolated {len(filled)} missing points", filled


def segmentize(
    records: Readings,
    grid: TimeGrid,
    *,
    temps: Readings | None = None,
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
    days, minutes, values = _by_minute(records)
    temp_days, temp_minutes, temp_values = (_by_minute(temps) if temps
                                            else (np.zeros(0, dtype=np.int64),) * 3)
    P, grid_minutes = grid.points_per_day, grid.minutes.tolist()
    slot = np.full(24 * 60, -1)
    slot[grid.minutes] = np.arange(P)
    ordinals, starts, counts = np.unique(days, return_index=True, return_counts=True)
    # a day read at exactly the grid minutes is its row as read; max_gap < 0 rejects it
    keep = (counts == P) & (np.add.reduceat(slot[minutes] >= 0, starts) == P) & (max_gap >= 0)
    complete, report = keep.copy(), GapReport()
    rows = np.empty((len(ordinals), P))
    rows[keep] = values[np.repeat(keep, counts)].reshape(-1, P)
    index = {ordinal: k for k, ordinal in enumerate(ordinals.tolist())}
    span = np.arange(ordinals[0], ordinals[-1] + 1) if len(ordinals) else ordinals
    # the other days and the days without readings, in date order
    for ordinal in np.union1d(np.setdiff1d(span, ordinals), ordinals[~keep]).tolist():
        date, k = dt.date.fromordinal(ordinal), index.get(ordinal)
        if k is None:
            report.issues.append(DayIssue(date, "rejected", "no readings"))
            continue
        day = slice(starts[k], starts[k] + counts[k])
        laid, kind, detail, filled = _lay_out_day(
            minutes[day].tolist(), values[day].tolist(), grid_minutes, max_gap)
        report.issues.append(DayIssue(date, kind, detail, filled, int(counts[k])))
        if laid is not None:
            rows[k], keep[k] = laid, True
    kept = ordinals[keep]
    temp_rows = np.full((len(kept), P), np.nan)
    hit = np.isin(temp_days, kept) & (slot[temp_minutes] >= 0)
    temp_rows[np.searchsorted(kept, temp_days[hit]), slot[temp_minutes[hit]]] = temp_values[hit]
    dates = tuple(map(dt.date.fromordinal, kept.tolist()))
    quality = [Quality.COMPLETE if c else Quality.GAP_FILLED for c in complete[keep]]
    window = HistoryWindow(grid, dates, rows[keep], temp_rows,
                           [date in holiday_set for date in dates], quality)
    return window, report


def forecast_mask_indices(grid: TimeGrid) -> tuple[int, ...]:
    """Grid indices of the four standard forecast clock times."""
    return tuple(grid.index_of(lb) for lb in FORECAST_LABELS)


def parse_temperature_forecast(text: str, grid: TimeGrid) -> dict[dt.date, TemperatureSegment]:
    """CSV with header `date,t0800,t1200,t1600,t2000` -> segments, NaN elsewhere."""
    mask = list(forecast_mask_indices(grid))
    forecasts: dict[dt.date, TemperatureSegment] = {}
    header = ["date", "t0800", "t1200", "t1600", "t2000"]
    linenos, (dates, *columns), error = _rows(text, header, "forecast file")
    for lineno, stamp, *texts in zip(linenos, dates, *columns):
        try:
            date = dt.date.fromisoformat(stamp.strip())
        except ValueError:
            raise IngestError(f"line {lineno}: bad date {stamp!r}") from None
        if date in forecasts:
            raise IngestError(f"line {lineno}: duplicate date {date.isoformat()}")
        values = np.full(grid.points_per_day, np.nan)
        values[mask] = [
            _reading(v, lineno, "temperature", TEMPERATURE_LIMIT_C) for v in texts
        ]
        forecasts[date] = TemperatureSegment(grid, values)
    if error is not None:
        raise error
    return forecasts
