import csv
import datetime as dt
import io
import itertools
import json
import math
import re
import tracemalloc

import numpy as np
import orjson
import pytest
from hypothesis import given, settings, strategies as st

from shapecast import ingest
from shapecast.calendars import annotate_calendar
from shapecast.cli import main
from shapecast.errors import IngestError, ShapecastError
from shapecast.history import Quality, history_jsonl_text
from shapecast.ingest import (
    _by_minute,
    _reading,
    forecast_mask_indices,
    parse_load_file,
    parse_temperature_forecast,
    parse_temperature_history,
    segmentize,
)
from shapecast.segments import TEMPERATURE_LIMIT_C, TimeGrid


def day_rows(date, values, grid):
    minutes = grid.minutes
    return [
        f"{date.isoformat()}T{m // 60:02d}:{m % 60:02d},{v}"
        for m, v in zip(minutes, values)
    ]


def csv_text(rows, header="timestamp,load_mw"):
    return header + "\n" + "\n".join(rows) + "\n"


def pairs(readings):
    """The readings as (datetime, value) pairs, seconds and offsets dropped."""
    return [(dt.datetime.fromordinal(d) + dt.timedelta(minutes=m), v)
            for d, m, v in zip(readings.days.tolist(), readings.minutes.tolist(),
                               readings.values.tolist())]


class TestParseLoadFile:
    def test_single_row(self):
        records = parse_load_file("timestamp,load_mw\n2010-06-07T00:00,512.5\n")
        assert pairs(records) == [(dt.datetime(2010, 6, 7, 0, 0), 512.5)]

    def test_empty_body(self):
        assert pairs(parse_load_file("timestamp,load_mw\n")) == []

    def test_non_numeric_load_names_line(self):
        text = "timestamp,load_mw\n2010-06-07T00:00,500\n2010-06-07T00:15,abc\n"
        with pytest.raises(IngestError, match="line 3"):
            parse_load_file(text)

    def test_bad_timestamp_names_line(self):
        with pytest.raises(IngestError, match="line 2"):
            parse_load_file("timestamp,load_mw\n07/06/2010 00:00,500\n")

    def test_bad_header(self):
        with pytest.raises(IngestError, match="header"):
            parse_load_file("time,load\n")

    def test_peak_memory_within_seven_times_the_text(self):
        # a year of 96 readings a day, as a meter writes them: no string per line or stamp
        grid, rng = TimeGrid.equidistant(96), np.random.default_rng(0)
        text = csv_text([row for d in range(365) for row in day_rows(
            dt.date(2010, 1, 1) + dt.timedelta(days=d),
            map(repr, rng.uniform(400, 1600, 96).tolist()), grid)])
        tracemalloc.start()
        try:
            parse_load_file(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 7 * len(text)

    def test_empty_file(self):
        with pytest.raises(IngestError):
            parse_load_file("")


class TestSegmentize:
    def setup_method(self):
        self.grid = TimeGrid.equidistant(24)
        self.date = dt.date(2010, 6, 7)

    def parse_day(self, values, drop=()):
        rows = day_rows(self.date, values, self.grid)
        rows = [r for i, r in enumerate(rows) if i not in drop]
        return parse_load_file(csv_text(rows))

    def test_last_representable_day(self):
        last = dt.date.max
        rows = day_rows(last - dt.timedelta(days=2), range(100, 124), self.grid)
        rows += day_rows(last, range(100, 124), self.grid)
        window, report = segmentize(parse_load_file(csv_text(rows)), self.grid)
        assert window.dates == (last - dt.timedelta(days=2), last)
        assert report.rejected_dates == [last - dt.timedelta(days=1)]

    def test_clean_day_complete(self):
        window, report = segmentize(self.parse_day(range(100, 124)), self.grid)
        assert len(window) == 1
        assert window.quality[0] is Quality.COMPLETE
        assert np.array_equal(window.loads[0], np.arange(100.0, 124.0))
        assert not report.issues

    def test_interior_gap_interpolates_neighbor_mean(self):
        values = [100.0] * 24
        values[9] = 60.0
        values[11] = 80.0
        window, report = segmentize(self.parse_day(values, drop={10}), self.grid)
        assert window.quality[0] is Quality.GAP_FILLED
        assert window.loads[0, 10] == pytest.approx((60.0 + 80.0) / 2)
        assert report.issues[0].filled_points == [10]

    def test_long_gap_rejected(self):
        # keep only 10 of 24 readings: a run of 14 missing points
        window, report = segmentize(self.parse_day(range(24), drop=set(range(10, 24))),
                                    self.grid, max_gap=4)
        assert len(window) == 0
        assert report.rejected_dates == [self.date]

    def test_max_gap_zero_rejects_any_gap(self):
        window, report = segmentize(self.parse_day(range(1, 25), drop={5}),
                                    self.grid, max_gap=0)
        assert len(window) == 0
        assert report.rejected_dates == [self.date]

    # a complete day is no judge of a bad max_gap: it is refused on entry
    @pytest.mark.parametrize("max_gap, message", [
        (-1, "max_gap -1 is below 0"),
        (1.5, "max_gap 1.5 is not a whole number"),
        (True, "max_gap True is not a whole number"),
        ("4", "max_gap '4' is not a whole number"),
        (None, "max_gap None is not a whole number"),
    ])
    def test_bad_max_gap_refused(self, max_gap, message):
        with pytest.raises(ShapecastError, match=f"^{re.escape(message)}$"):
            segmentize(self.parse_day(range(1, 25)), self.grid, max_gap=max_gap)

    def test_duplicate_conflicting_values(self):
        rows = day_rows(self.date, [1.0] * 24, self.grid)
        rows.append(f"{self.date.isoformat()}T00:00,99.0")
        with pytest.raises(IngestError, match="conflicting"):
            segmentize(parse_load_file(csv_text(rows)), self.grid)

    def test_duplicate_identical_values_ok(self):
        rows = day_rows(self.date, [1.0] * 24, self.grid)
        rows.append(f"{self.date.isoformat()}T00:00,1.0")
        window, _ = segmentize(parse_load_file(csv_text(rows)), self.grid)
        assert len(window) == 1

    def test_missing_middle_day_rejected(self):
        rows = day_rows(self.date, [1.0] * 24, self.grid)
        rows += day_rows(self.date + dt.timedelta(days=2), [2.0] * 24, self.grid)
        window, report = segmentize(parse_load_file(csv_text(rows)), self.grid)
        assert len(window) == 2
        assert report.rejected_dates == [self.date + dt.timedelta(days=1)]

    def test_idempotent_on_own_output(self):
        values = [100.0 + i for i in range(24)]
        window1, _ = segmentize(self.parse_day(values, drop={7}), self.grid)
        rows = day_rows(self.date, window1.loads[0], self.grid)
        window2, report2 = segmentize(parse_load_file(csv_text(rows)), self.grid)
        np.testing.assert_array_equal(window1.loads[0], window2.loads[0])
        assert not report2.issues

    def test_every_reading_accounted_for(self):
        good = day_rows(self.date, range(24), self.grid)
        bad_date = self.date + dt.timedelta(days=1)
        bad = day_rows(bad_date, range(24), self.grid)[:5]
        records = parse_load_file(csv_text(good + bad))
        window, report = segmentize(records, self.grid, max_gap=4)
        kept = window.loads.size
        rejected_readings = sum(i.readings for i in report.issues if i.kind == "rejected")
        assert kept - sum(
            len(i.filled_points) for i in report.issues if i.kind == "gap-filled"
        ) + rejected_readings == len(records)

    def test_off_grid_readings_resampled(self):
        # readings shifted by half a step: resampled onto the grid, flagged
        rows = [
            f"{self.date.isoformat()}T{m // 60:02d}:{m % 60:02d},{100.0 + i}"
            for i, m in enumerate(range(30, 24 * 60, 60))
        ]
        window, report = segmentize(parse_load_file(csv_text(rows)), self.grid)
        assert len(window) == 1
        assert window.quality[0] is Quality.GAP_FILLED
        assert report.issues[0].kind == "resampled"

    def test_holiday_annotation(self):
        window, _ = segmentize(
            self.parse_day(range(24)), self.grid, holiday_set={self.date}
        )
        assert window.meta(0).group.value == "HOLIDAY"

    def test_empty_input(self):
        window, report = segmentize(parse_load_file("timestamp,load_mw\n"), self.grid)
        assert len(window) == 0
        assert not report.issues


def stamp_rows(date, minute_values):
    return [f"{date.isoformat()}T{m // 60:02d}:{m % 60:02d},{v}"
            for m, v in minute_values.items()]


def longest_missing_run(present) -> int:
    """The longest run of consecutive missing grid points, edges included."""
    longest = run = 0
    for ok in present:
        run = 0 if ok else run + 1
        longest = max(longest, run)
    return longest


class TestGapRule:
    """One rule judges on-grid and off-grid days alike."""

    DATE = dt.date(2010, 6, 7)
    GRID = TimeGrid.equidistant(24)

    def lay_out(self, minute_values, max_gap, grid=GRID):
        records = parse_load_file(csv_text(stamp_rows(self.DATE, minute_values)))
        return segmentize(records, grid, max_gap=max_gap)

    def test_off_grid_long_leading_stretch_rejected(self):
        # 12:30 to 23:30: the grid points 00:00 to 12:00 precede every reading
        window, report = self.lay_out({h * 60 + 30: 100 + h for h in range(12, 24)}, 4)
        assert len(window) == 0
        [issue] = report.issues
        assert (issue.kind, issue.detail) == (
            "rejected", "off-grid readings with a gap beyond 4 points")

    def test_off_grid_long_trailing_stretch_rejected(self):
        window, report = self.lay_out({h * 60 + 30: 100 + h for h in range(11)}, 4)
        assert len(window) == 0
        assert report.rejected_dates == [self.DATE]

    def test_off_grid_gap_of_exactly_max_gap_plus_one_steps_kept(self):
        # 05:31 to 10:31 spans exactly 5 steps; 631/60 - 331/60 exceeds 5 in floats
        minutes = [31 + 60 * k for k in range(24) if not 5 < k < 10]
        assert 331 in minutes and 631 in minutes and 391 not in minutes
        window, report = self.lay_out({m: 100.0 for m in minutes}, 4)
        assert len(window) == 1
        assert report.issues[0].kind == "resampled"
        minutes.remove(631)
        minutes.append(632)
        window, report = self.lay_out({m: 100.0 for m in minutes}, 4)
        assert report.rejected_dates == [self.DATE]

    def test_max_gap_zero_rejects_off_grid_day(self):
        # grid point 00:00 precedes the 00:30 reading by more than one step
        window, report = self.lay_out({h * 60 + 30: 100 + h for h in range(24)}, 0)
        assert report.rejected_dates == [self.DATE]
        window, report = self.lay_out({h * 60 + 30: 100 + h for h in range(24)}, 1)
        assert report.issues[0].kind == "resampled"

    @pytest.mark.parametrize("max_gap, kept", [(2, False), (3, True)])
    def test_single_off_grid_reading_judged_by_both_edges(self, max_gap, kept):
        # 6-hour steps: 12:30 lies 3 1/12 steps after 18:00 the day before
        window, report = self.lay_out({750: 42.0}, max_gap, TimeGrid.equidistant(4))
        assert len(window) == kept
        if kept:
            np.testing.assert_array_equal(window.loads[0], [42.0] * 4)

    def test_on_grid_days_follow_the_longest_missing_run(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            P = int(rng.choice([4, 8, 24, 48, 96]))
            grid, max_gap = TimeGrid.equidistant(P), int(rng.integers(0, 8))
            present = rng.random(P) < rng.uniform(0.3, 1.0)
            if not present.any():
                continue
            minute_values = {int(m): 1.0 + i for i, m in enumerate(grid.minutes[present])}
            window, report = self.lay_out(minute_values, max_gap, grid)
            assert len(window) == (longest_missing_run(present) <= max_gap)


class TestTemperatureForecast:
    def setup_method(self):
        self.grid = TimeGrid.equidistant(96)

    def test_row_maps_to_masked_segment(self):
        text = "date,t0800,t1200,t1600,t2000\n2010-06-09,24.0,29.5,30.1,26.2\n"
        forecasts = parse_temperature_forecast(text, self.grid)
        seg = forecasts[dt.date(2010, 6, 9)]
        expected = np.full(self.grid.points_per_day, np.nan)
        expected[list(forecast_mask_indices(self.grid))] = [24.0, 29.5, 30.1, 26.2]
        np.testing.assert_array_equal(seg.values, expected)

    def test_duplicate_date_rejected(self):
        text = (
            "date,t0800,t1200,t1600,t2000\n"
            "2010-06-09,24,29,30,26\n2010-06-09,20,21,22,23\n"
        )
        with pytest.raises(IngestError, match="duplicate"):
            parse_temperature_forecast(text, self.grid)

    def test_extra_dates_accepted(self):
        text = (
            "date,t0800,t1200,t1600,t2000\n"
            "2031-01-01,10,11,12,13\n2010-06-09,24,29,30,26\n"
        )
        forecasts = parse_temperature_forecast(text, self.grid)
        assert len(forecasts) == 2

    def test_unknown_column(self):
        with pytest.raises(IngestError, match="header"):
            parse_temperature_forecast("date,humidity\n", self.grid)

    def test_bad_date(self):
        text = "date,t0800,t1200,t1600,t2000\nJune 9,24,29,30,26\n"
        with pytest.raises(IngestError, match="line 2"):
            parse_temperature_forecast(text, self.grid)


class TestParserRows:
    """The three CSV parsers share one row reader and its error messages."""

    GRID = TimeGrid.equidistant(96)
    PARSERS = {
        "load": (parse_load_file, "timestamp,load_mw", "2010-06-07T00:00,512.5"),
        "temps": (parse_temperature_history, "timestamp,temp_c",
                  "2010-06-07T00:00,21.5"),
        "forecast": (lambda text: parse_temperature_forecast(text, TestParserRows.GRID),
                     "date,t0800,t1200,t1600,t2000", "2010-06-09,24.0,29.5,30.1,26.2"),
    }

    @pytest.mark.parametrize("kind, text, message", [
        ("load", "", "empty file, expected a header row"),
        ("temps", "", "empty file, expected a header row"),
        ("forecast", "", "empty forecast file, expected a header row"),
        ("load", "time,load\n",
         "bad header ['time', 'load'], expected ['timestamp', 'load_mw']"),
        ("temps", " timestamp , load_mw\n",
         "bad header ['timestamp', 'load_mw'], expected ['timestamp', 'temp_c']"),
        ("forecast", "date,humidity\n",
         "bad header ['date', 'humidity'], expected "
         "['date', 't0800', 't1200', 't1600', 't2000']"),
        ("load", "timestamp,load_mw\n2010-06-07T00:00,1\n2010-06-07T01:00,1,2\n",
         "line 3: expected 2 columns, got 3"),
        ("temps", "timestamp,temp_c\n\n2010-06-07T00:00\n",
         "line 3: expected 2 columns, got 1"),
        ("forecast", "date,t0800,t1200,t1600,t2000\n2010-06-09,24,29,30\n",
         "line 2: expected 5 columns, got 4"),
        # a quoted field that holds a newline: a row is named by the line it starts on
        ("load", 'timestamp,load_mw\n"2010-06-07T00:00\n",1\nnoon,1\n',
         "line 4: bad timestamp 'noon'"),
        ("forecast", 'date,t0800,t1200,t1600,t2000\n"2010-06-09\n",24,29,30,26\nnoon,1,2,3,4\n',
         "line 4: bad date 'noon'"),
    ])
    def test_error_messages(self, kind, text, message):
        parse = self.PARSERS[kind][0]
        with pytest.raises(IngestError) as exc:
            parse(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize("kind", ["load", "temps", "forecast"])
    def test_blank_lines_skipped(self, kind):
        parse, header, row = self.PARSERS[kind]
        plain = parse(f"{header}\n{row}\n")
        padded = parse(f"{header}\n\n{row}\n  \n\n")
        assert len(plain) == 1
        if kind == "forecast":
            [(date, seg)] = plain.items()
            np.testing.assert_array_equal(padded[date].values, seg.values)
        else:
            assert pairs(padded) == pairs(plain)

    @pytest.mark.parametrize("kind, column", [
        ("load", "load_mw"), ("temps", "temp_c"), ("forecast", "temperature"),
    ])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_reading_names_line(self, kind, column, value):
        parse, header, row = self.PARSERS[kind]
        bad = row.rsplit(",", 1)[0] + "," + value
        with pytest.raises(IngestError) as exc:
            parse(f"{header}\n\n{bad}\n")
        assert str(exc.value) == f"line 3: non-finite {column} '{value}'"

    @pytest.mark.parametrize("kind", ["temps", "forecast"])
    def test_temperature_beyond_limit_names_line(self, kind):
        parse, header, row = self.PARSERS[kind]
        with pytest.raises(IngestError, match=r"^line 2: .* '1e200' beyond ±1000$"):
            parse(f"{header}\n{row.rsplit(',', 1)[0]},1e200\n")
        assert len(parse(f"{header}\n{row.rsplit(',', 1)[0]},-1000\n")) == 1

    def test_negative_load_names_line(self):
        with pytest.raises(IngestError) as exc:
            parse_load_file("timestamp,load_mw\n2010-06-07T11:00,4\n2010-06-07T12:00,-3\n")
        assert str(exc.value) == "line 3: negative load_mw '-3'"
        assert parse_temperature_history("timestamp,temp_c\n2010-06-07T12:00,-3\n")

    def test_line_numbers_count_blank_lines(self):
        with pytest.raises(IngestError, match="^line 4: bad timestamp"):
            parse_load_file("timestamp,load_mw\n\n2010-06-07T00:00,1\nnoon,2\n")


class TestAttachTemperatures:
    """`segmentize(..., temps=...)` masks each kept day's temperature."""

    def setup_method(self):
        self.grid = TimeGrid.equidistant(24)
        self.date = dt.date(2010, 6, 7)

    def load(self, *dates):
        rows = [r for d in dates for r in day_rows(d, range(100, 124), self.grid)]
        return parse_load_file(csv_text(rows))

    def temps(self, rows):
        return parse_temperature_history(csv_text(rows, header="timestamp,temp_c"))

    def test_partial_day_mask(self):
        temp_rows = day_rows(self.date, [20.0 + i for i in range(24)], self.grid)[:6]
        window, _ = segmentize(self.load(self.date), self.grid,
                               temps=self.temps(temp_rows))
        temps = window.temps[0]
        assert not np.isnan(temps).all()
        np.testing.assert_array_equal(temps[:6], [20.0 + i for i in range(6)])
        assert np.all(np.isnan(temps[6:]))

    def test_day_without_temperatures_keeps_none(self):
        window, _ = segmentize(self.load(self.date), self.grid)
        assert np.isnan(window.temps[0]).all()

    def test_temperatures_on_rejected_day_ignored(self):
        missing = self.date + dt.timedelta(days=1)
        last = self.date + dt.timedelta(days=2)
        temp_rows = [r for d in (self.date, missing, last)
                     for r in day_rows(d, [20.0] * 24, self.grid)]
        window, report = segmentize(self.load(self.date, last), self.grid,
                                    temps=self.temps(temp_rows))
        assert window.dates == (self.date, last)
        assert report.rejected_dates == [missing]
        assert not np.isnan(window.temps).any()

    def test_temperature_only_day_adds_no_record(self):
        later = self.date + dt.timedelta(days=5)
        temp_rows = day_rows(later, [20.0] * 24, self.grid)
        window, report = segmentize(self.load(self.date), self.grid,
                                    temps=self.temps(temp_rows))
        assert window.dates == (self.date,)
        assert np.isnan(window.temps[0]).all()
        assert not report.issues

    def test_off_grid_minutes_ignored(self):
        stamp = self.date.isoformat()
        temp_rows = [f"{stamp}T03:00,18.5", f"{stamp}T03:30,19.0", f"{stamp}T07:10,22.0"]
        window, _ = segmentize(self.load(self.date), self.grid,
                               temps=self.temps(temp_rows))
        temps = window.temps[0]
        assert np.flatnonzero(~np.isnan(temps)).tolist() == [3]
        assert temps[3] == 18.5

    def test_only_off_grid_minutes_give_no_temperature(self):
        temp_rows = [f"{self.date.isoformat()}T03:30,19.0"]
        window, _ = segmentize(self.load(self.date), self.grid,
                               temps=self.temps(temp_rows))
        assert np.isnan(window.temps[0]).all()

    def test_conflicting_temperature_duplicate_raises(self):
        stamp = self.date.isoformat()
        temps = self.temps([f"{stamp}T03:00,18.5", f"{stamp}T03:00,19.0"])
        with pytest.raises(IngestError, match="conflicting"):
            segmentize(self.load(self.date), self.grid, temps=temps)

    def test_conflicting_temperature_duplicate_without_load_rows(self):
        stamp = self.date.isoformat()
        temps = self.temps([f"{stamp}T03:00,18.5", f"{stamp}T03:00,19.0"])
        with pytest.raises(IngestError, match="conflicting"):
            segmentize(parse_load_file("timestamp,load_mw\n"), self.grid, temps=temps)


class TestColumns:
    """`segmentize` fills one row per kept day, as the day-by-day records were."""

    def test_rows_equal_day_by_day_records(self):
        grid = TimeGrid.equidistant(4)
        monday = dt.date(2010, 6, 7)
        days = [monday + dt.timedelta(days=n) for n in range(5)]
        load_rows = day_rows(days[0], [1.0, 2.0, 3.0, 4.0], grid)
        gapped = day_rows(days[1], [4.0, 6.0, 8.0, 2.0], grid)
        load_rows += gapped[:1] + gapped[2:]  # one missing point: gap-filled
        load_rows += day_rows(days[2], [5.0, 5.0, 6.0, 7.0], grid)  # a holiday
        # days[3] has no load readings: rejected
        load_rows += day_rows(days[4], [9.0, 8.0, 7.0, 6.0], grid)  # no temperature
        temp_rows = day_rows(days[0], [10.0, 11.0, 12.0, 13.0], grid)
        temp_rows += day_rows(days[1], [20.0, 21.0, 22.0, 23.0], grid)[2:]  # partial
        temp_rows += day_rows(days[2], [-1.0, 0.0, 1.0, 2.0], grid)
        temp_rows += day_rows(days[3], [5.0] * 4, grid)
        window, report = segmentize(
            parse_load_file(csv_text(load_rows)), grid,
            temps=parse_temperature_history(csv_text(temp_rows, header="timestamp,temp_c")),
            holiday_set={days[2]},
        )
        assert report.rejected_dates == [days[3]]
        nan = np.nan
        expected = [
            (days[0], [1.0, 2.0, 3.0, 4.0], [10.0, 11.0, 12.0, 13.0], Quality.COMPLETE),
            (days[1], [4.0, 6.0, 8.0, 2.0], [nan, nan, 22.0, 23.0], Quality.GAP_FILLED),
            (days[2], [5.0, 5.0, 6.0, 7.0], [-1.0, 0.0, 1.0, 2.0], Quality.COMPLETE),
            (days[4], [9.0, 8.0, 7.0, 6.0], None, Quality.COMPLETE),
        ]
        assert len(window) == len(expected)
        for i, (date, load, temp, quality) in enumerate(expected):
            assert window.meta(i) == annotate_calendar(date, {days[2]})
            assert window.quality[i] is quality
            assert window.loads[i].tobytes() == np.array(load).tobytes()
            # a day without temperature is an all-NaN row
            assert np.isnan(window.temps[i]).all() == (temp is None)
            if temp is not None:
                assert window.temps[i].tobytes() == np.array(temp).tobytes()
        # the day without temperature is an all-NaN row and writes no temp_c key
        assert np.isnan(window.temps[3]).all()
        lines = [json.loads(ln) for ln in history_jsonl_text(window).splitlines()[1:]]
        assert [("temp_c" in d) for d in lines] == [True, True, True, False]
        assert lines[1]["temp_c"] == [None, None, 22.0, 23.0]
        assert lines[2]["group"] == "HOLIDAY" and lines[2]["is_holiday"] is True

    def test_kept_rows_fit_the_days_with_readings(self):
        # a long span with readings on two days keeps two rows, not one per day
        grid = TimeGrid.equidistant(4)
        first, last = dt.date(2010, 1, 1), dt.date(2010, 12, 31)
        rows = day_rows(first, [1.0] * 4, grid) + day_rows(last, [2.0] * 4, grid)
        window, report = segmentize(parse_load_file(csv_text(rows)), grid)
        assert window.dates == (first, last)
        assert window.loads.shape == window.temps.shape == (2, 4)
        assert len(report.rejected_dates) == 363


def run_ingest(tmp_path, capsys, load, temps=None):
    """(exit code, stderr) of `shapecast ingest` on CSV texts, 24 points a day."""
    (tmp_path / "load.csv").write_text(load)
    argv = ["ingest", "--load", str(tmp_path / "load.csv"),
            "--out", str(tmp_path / "history.jsonl"), "--points-per-day", "24"]
    if temps is not None:
        (tmp_path / "temps.csv").write_text(temps)
        argv += ["--temps", str(tmp_path / "temps.csv")]
    code = main(argv)
    return code, capsys.readouterr().err


# csv.reader's message for a field past its limit, as a pattern
LIMIT = re.escape(f"field larger than field limit ({csv.field_size_limit()})")


class TestErrorPrecedence:
    """Parse errors come before duplicates, load before temps, whatever the day."""

    LOAD_BAD = "timestamp,load_mw\n2010-06-07T00:00,1\n2010-06-07T01:00,-3\n"
    LOAD_DUP = "timestamp,load_mw\n2010-06-07T00:00,1\n2010-06-07T00:00,2\n"
    LOAD_OK = "timestamp,load_mw\n2010-06-07T00:00,1\n"
    TEMPS_BAD = "timestamp,temp_c\n2010-06-07T00:00,abc\n"
    # on a day without load
    TEMPS_DUP = "timestamp,temp_c\n2010-06-09T05:00,20\n2010-06-09T05:00,21.5\n"

    @pytest.mark.parametrize("load, temps, message", [
        (LOAD_BAD, TEMPS_BAD, "line 3: negative load_mw '-3'"),
        (LOAD_DUP, TEMPS_BAD, "line 2: non-numeric temp_c 'abc'"),
        (LOAD_DUP, TEMPS_DUP, "duplicate timestamp 2010-06-07T00:00:00 with conflicting "
                              "values 1.0 vs 2.0"),
        (LOAD_OK, TEMPS_DUP, "duplicate timestamp 2010-06-09T05:00:00 with conflicting "
                             "values 20.0 vs 21.5"),
    ])
    def test_first_error_wins(self, tmp_path, capsys, load, temps, message):
        assert run_ingest(tmp_path, capsys, load, temps) == (1, f"error: {message}\n")

    def test_errors_come_in_line_order(self):
        # a bad value before a bad stamp, a bad stamp before a malformed row
        with pytest.raises(IngestError, match="^line 2: non-numeric load_mw 'x'$"):
            parse_load_file("timestamp,load_mw\n2010-06-07T00:00,x\nnoon,1\n")
        with pytest.raises(IngestError, match="^line 3: bad timestamp 'noon'$"):
            parse_load_file("timestamp,load_mw\n2010-06-07T00:00,1\nnoon,1\n1,2,3\n")
        with pytest.raises(IngestError, match="^line 2: bad timestamp 'noon'$"):
            parse_load_file("timestamp,load_mw\nnoon,x\n")
        with pytest.raises(IngestError, match="^line 3: expected 2 columns, got 3$"):
            parse_load_file("timestamp,load_mw\n2010-06-07T00:00,1\n1,2,3\nnoon,1\n")

    def test_csv_error_after_the_rows_before_it(self):
        huge = "1" * (csv.field_size_limit() + 1)
        with pytest.raises(IngestError, match=f"^line 2: {LIMIT}$"):
            parse_load_file(f"timestamp,load_mw\n2010-06-07T00:00,{huge}\n")
        with pytest.raises(IngestError, match="^line 2: bad timestamp 'noon'$"):
            parse_load_file(f"timestamp,load_mw\nnoon,1\n2010-06-07T00:00,{huge}\n")

    def test_csv_error_names_its_first_line(self):
        # the header line, which is read before any row; then a row after one
        # quoted over lines 2 and 3 and a blank line 4
        huge = "1" * (csv.field_size_limit() + 1)
        with pytest.raises(IngestError, match=f"^line 1: {LIMIT}$"):
            parse_load_file(f"timestamp{huge},load_mw\n2010-06-07T00:00,1\n")
        with pytest.raises(IngestError, match=f"^line 5: {LIMIT}$"):
            parse_load_file('timestamp,load_mw\n2010-06-07T00:00,"1\n"\n\n'
                            f'2010-06-07T01:00,"{huge}\n"\n')
        with pytest.raises(IngestError, match=f"^line 2: {LIMIT}$"):
            parse_temperature_forecast(f"date,t0800,t1200,t1600,t2000\n2010-06-07,{huge},1,2,3\n",
                                       TimeGrid.equidistant(24))


class TestDuplicates:
    """The conflict reported is the first in file order, named as it was read."""

    def conflict(self, *rows):
        with pytest.raises(IngestError) as exc:
            _by_minute(parse_load_file(csv_text(rows)))
        return str(exc.value)

    def test_first_conflict_in_file_order_not_in_date_order(self):
        assert self.conflict(
            "2010-06-08T00:00,1", "2010-06-08T00:00,2",
            "2010-06-07T00:00,5", "2010-06-07T00:00,6",
        ) == "duplicate timestamp 2010-06-08T00:00:00 with conflicting values 1.0 vs 2.0"

    def test_later_reading_against_the_latest_equal_one(self):
        # 0 and -0 are equal, so -0 is what the conflicting 5 meets
        assert self.conflict(
            "2010-06-07T03:00,0", "2010-06-07T03:00,-0", "2010-06-07T03:00,5",
            "2010-06-07T03:00,7",
        ) == "duplicate timestamp 2010-06-07T03:00:00 with conflicting values -0.0 vs 5.0"

    def test_equal_duplicates_keep_the_last(self):
        days, minutes, values = _by_minute(parse_load_file(csv_text(
            ["2010-06-07T01:00,0", "2010-06-07T00:00,4", "2010-06-07T01:00,-0"])))
        assert minutes.tolist() == [0, 60]
        assert values.tolist() == [4.0, 0.0] and math.copysign(1, values[1]) == -1


class TestStampsBeyondTheMinute:
    """Seconds and UTC offsets are dropped: the stamp lands on its wall-clock minute.

    This pins today's behaviour, not a wanted one: two sub-minute readings can
    meet as duplicates, and stamps from two offsets can collide.
    """

    def test_seconds_land_on_their_minute(self):
        rows = ["2010-06-07T00:00:30,7", "2010-06-07T00:00:45,7"]
        records = parse_load_file(csv_text(rows))
        assert pairs(records) == [(dt.datetime(2010, 6, 7), 7.0)] * 2
        days, minutes, values = _by_minute(records)
        assert (minutes.tolist(), values.tolist()) == ([0], [7.0])
        with pytest.raises(IngestError, match="^duplicate timestamp 2010-06-07T00:00:45 "
                                              "with conflicting values 7.0 vs 8.0$"):
            _by_minute(parse_load_file(csv_text(["2010-06-07T00:00:30,7",
                                                 "2010-06-07T00:00:45,8"])))

    def test_seconds_in_a_quoted_file_land_on_their_minute(self):
        # csv.reader reads a quoted file, and `datetime.fromisoformat` each of its stamps
        with pytest.raises(IngestError, match="^duplicate timestamp 2010-06-07T00:00:45 "
                                              "with conflicting values 7.0 vs 8.0$"):
            _by_minute(parse_load_file(csv_text(['"2010-06-07T00:00:30",7',
                                                 '"2010-06-07T00:00:45",8'])))

    def test_offset_dropped(self):
        records = parse_load_file(csv_text(["2010-06-07T01:00+02:00,7"]))
        assert pairs(records) == [(dt.datetime(2010, 6, 7, 1), 7.0)]
        with pytest.raises(IngestError, match="^duplicate timestamp 2010-06-07T01:00:00"
                                              r"\+00:00 with conflicting values"):
            _by_minute(parse_load_file(csv_text(["2010-06-07T01:00+02:00,7",
                                                 "2010-06-07T01:00Z,8"])))


# The per-row parser the columnar one replaced, kept as the reference.

def oracle_rows(text, header, name="file"):
    reader = csv.reader(io.StringIO(text))
    start = 1
    try:
        try:
            found = [h.strip() for h in next(reader)]
        except StopIteration:
            raise IngestError(f"empty {name}, expected a header row") from None
        if found != header:
            raise IngestError(f"bad header {found!r}, expected {header}")
        start = reader.line_num + 1
        for row in reader:
            lineno, start = start, reader.line_num + 1
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(header):
                raise IngestError(
                    f"line {lineno}: expected {len(header)} columns, got {len(row)}")
            yield lineno, row
    except csv.Error as exc:  # named by the first line of the row it could not read
        raise IngestError(f"line {start}: {exc}") from None


def oracle_parse(text, column, limit=math.inf, signed=True):
    records = []
    for lineno, (stamp, value) in oracle_rows(text, ["timestamp", column]):
        try:
            ts = dt.datetime.fromisoformat(stamp.strip())
        except ValueError:
            raise IngestError(f"line {lineno}: bad timestamp {stamp!r}") from None
        records.append((ts, _reading(value, lineno, column, limit, signed)))
    return records


def oracle_by_minute(records):
    by_day = {}
    for ts, value in records:
        minute = ts.hour * 60 + ts.minute
        day = by_day.setdefault(ts.date(), {})
        if minute in day and day[minute] != value:
            raise IngestError(
                f"duplicate timestamp {ts.isoformat()} with conflicting values "
                f"{day[minute]} vs {value}"
            )
        day[minute] = value
    return sorted((d.toordinal(), m, v) for d, day in by_day.items() for m, v in day.items())


def oracle_forecast(text, grid):
    forecasts = {}
    mask = list(forecast_mask_indices(grid))
    for lineno, row in oracle_rows(text, ["date", "t0800", "t1200", "t1600", "t2000"],
                                   "forecast file"):
        try:
            date = dt.date.fromisoformat(row[0].strip())
        except ValueError:
            raise IngestError(f"line {lineno}: bad date {row[0]!r}") from None
        if date in forecasts:
            raise IngestError(f"line {lineno}: duplicate date {date.isoformat()}")
        values = np.full(grid.points_per_day, np.nan)
        values[mask] = [_reading(v, lineno, "temperature", TEMPERATURE_LIMIT_C)
                        for v in row[1:]]
        forecasts[date] = values
    return forecasts


def outcome(call):
    """(result, None), or (None, (error type, message))."""
    try:
        return call(), None
    except IngestError as exc:
        return None, (type(exc), str(exc))


def bits(values):
    return np.asarray(values, dtype=float).tobytes()  # tells -0.0 from 0.0


STAMPS = [
    "2010-06-07T00:00", "2010-06-07 00:00", "2010-06-07t00:00", "2010-06-07x00:00",
    "2010-06-07T00:00:30", "2010-06-07T00:00:45", "2010-06-07T00:00:00.5",
    "2010-06-07T01:00+02:00", "2010-06-07T01:00", "2010-06-07T01:00Z",
    "0000-01-01T00:00", "0001-01-01T00:00", "9999-12-31T23:59", "2010-06-07T24:00",
    "2010-06-07T23:60", "2010-02-29T00:00", "2012-02-29T12:15", "2010-04-31T00:00",
    "2010-13-01T00:00", "2010-00-01T00:00", "2010-06-00T00:00", "20100607T0000",
    "2010-06-07T0000", "2010-06-07", "2010-06-07T00", " 2010-06-07T00:00 ",
    "2010-06-07T00:00\x0b", "２010-06-07T00:00", "2010-06-07T00:0\ud800", "", "noon",
]
VALUES = ["1", "1.0", "2", "0", "-0", "-0.0", " 3 ", "1_0", "1__0", "nan", "inf", "-inf",
          "1e400", "-3", "abc", "", "1e200", "-1e200", "1000", "-1000", "1000.5",
          "1\x0b", "\x1c2", "2\u2028", "0x10",
          # where JSON and float() differ: orjson reads the values of a plain file
          "true", "false", "null", "[1]", "{}", "01", "1.", ".5", "+1", "1E5", "-0e0", "\t1.5",
          "5e-324", "2.4703282292062328e-324", "1.7976931348623159e308", "9" * 30, "9" * 401]
DATE_TEXTS = ["2010-06-09", "2010-06-10", "2010-6-9", "20100609", "2010-02-30", " 2010-06-09"]


def canonical(ts, sep, tail):
    return (f"{ts.year:04d}-{ts.month:02d}-{ts.day:02d}{sep}{ts.hour:02d}:{ts.minute:02d}"
            + tail)


stamps = st.one_of(
    st.sampled_from(STAMPS),
    st.builds(canonical, st.datetimes(dt.datetime(1, 1, 1), dt.datetime(9999, 12, 31)),
              st.sampled_from(["T", " ", "t"]), st.sampled_from(["", "", ":30", "+02:00"])),
    st.text("0123456789-: T", min_size=16, max_size=16),
)
values = st.one_of(
    st.sampled_from(VALUES),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map("%.25e".__mod__),
    st.integers(-(2 ** 70), 2 ** 70).map(str),
)
FORMS = {
    "plain": "{0},{1}", "quoted": '"{0}",{1}', "quoted comma": '"{0},{1}"',
    "trailing comma": "{0},{1},", "one field": "{0}", "blank": "", "spaces": "  ",
    "nul": "{0}\x00,{1}", "cr": "{0},{1}\r",
}
rows = st.builds(lambda form, stamp, value: FORMS[form].format(stamp, value),
                 st.sampled_from(["plain"] * 12 + list(FORMS)), stamps, values)


def body(rows, trailing_newline):
    return "\n".join(rows) + ("\n" if trailing_newline else "")


# three days of plain rows, as a meter writes them: 16-byte stamps, one comma a line
LONG_BODY = [row for d in range(3)
             for row in day_rows(dt.date(2010, 6, 5) + dt.timedelta(days=d),
                                 [repr(0.5 + d + k / 7) for k in range(96)],
                                 TimeGrid.equidistant(96))]


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.lists(rows, max_size=8), st.booleans(), st.integers(2, 3), st.integers(0, 3 * 96))
def test_parsers_match_the_per_row_oracle(lines, trailing_newline, days, at):
    # the drawn rows alone, and spliced into a long canonical body; each with LF
    # and with CRLF line ends (a "cr" row then ends in a lone CR)
    at = min(at, days * 96)
    long = LONG_BODY[:at] + lines + LONG_BODY[at:days * 96]
    for (parse, column, limit, signed), file_rows, end in itertools.product([
        (parse_load_file, "load_mw", math.inf, False),
        (parse_temperature_history, "temp_c", TEMPERATURE_LIMIT_C, True),
    ], [lines, long], ["\n", "\r\n"]):
        text = (f"timestamp,{column}\n" + body(file_rows, trailing_newline)).replace("\n", end)
        want, want_error = outcome(lambda: oracle_parse(text, column, limit, signed))
        got, got_error = outcome(lambda: parse(text))
        assert got_error == want_error
        if want is None:
            continue
        assert got.days.tolist() == [ts.toordinal() for ts, _ in want]
        assert got.minutes.tolist() == [ts.hour * 60 + ts.minute for ts, _ in want]
        assert bits(got.values) == bits([v for _, v in want])
        assert [got.isoformat(i) for i in range(len(got))] == [ts.isoformat() for ts, _ in want]
        grouped, group_error = outcome(lambda: oracle_by_minute(want))
        columns, columns_error = outcome(lambda: _by_minute(got))
        assert columns_error == group_error
        if grouped is not None:
            days, minutes, kept = columns
            assert list(zip(days.tolist(), minutes.tolist())) == [g[:2] for g in grouped]
            assert bits(kept) == bits([g[2] for g in grouped])


@pytest.mark.parametrize("value", VALUES)
@pytest.mark.parametrize("at", [0, 95])
def test_each_value_in_a_plain_day_matches_the_per_row_oracle(value, at):
    # every other row a number JSON spells: orjson reads the file where it reads this
    # value; the last line has no newline after it
    lines = LONG_BODY[:96]
    lines = lines[:at] + [lines[at].split(",")[0] + "," + value] + lines[at + 1:]
    for parse, column, limit, signed in [
        (parse_load_file, "load_mw", math.inf, False),
        (parse_temperature_history, "temp_c", TEMPERATURE_LIMIT_C, True),
    ]:
        text = f"timestamp,{column}\n" + body(lines, at != 95)
        want, want_error = outcome(lambda: oracle_parse(text, column, limit, signed))
        got, got_error = outcome(lambda: parse(text))
        assert got_error == want_error
        if want is not None:
            assert bits(got.values) == bits([v for _, v in want])


@pytest.mark.parametrize("end, byte_path", [
    ("\n", True), ("\r\n", True), ("\r", False), ("\r\r\n", False), ("\n\r", False),
])
def test_only_a_cr_outside_crlf_leaves_the_byte_path(monkeypatch, end, byte_path):
    # csv.reader ends a line at CRLF as at LF, so a CRLF text is read from its
    # bytes; a CR outside a CRLF goes to csv.reader
    calls, rows = [], ingest._rows
    monkeypatch.setattr(ingest, "_rows", lambda *args: calls.append(args) or rows(*args))
    lines = [*LONG_BODY[:96], "", "  ", "2010-06-06T00:00,-1", ""]
    for parse, column, limit, signed in [
        (parse_load_file, "load_mw", math.inf, False),
        (parse_temperature_history, "temp_c", TEMPERATURE_LIMIT_C, True),
    ]:
        text = end.join([f"timestamp,{column}", *lines])
        want, want_error = outcome(lambda: oracle_parse(text, column, limit, signed))
        got, got_error = outcome(lambda: parse(text))
        assert got_error == want_error
        if want is not None:
            assert bits(got.values) == bits([v for _, v in want])
            stamps = [got.isoformat(i) for i in range(len(got))]
            assert stamps == [ts.isoformat() for ts, _ in want]
    assert bool(calls) is not byte_path


@pytest.mark.parametrize("others", [[], ["2010-06-07T01:00,+1"]])
def test_a_year_zero_stamp_read_by_numpy_is_refused(others):
    # numpy reads year 0 as a day below 1, which the row-by-row loop parses again,
    # whether orjson read every value or, refusing "+1", none
    with pytest.raises(IngestError) as exc:
        parse_load_file(csv_text(["0000-01-01T00:00,5", *others]))
    assert str(exc.value) == "line 2: bad timestamp '0000-01-01T00:00'"


def test_values_holding_a_bracket_never_reach_orjson(monkeypatch):
    # orjson recurses without a limit and crashes near 10**5 levels, which a "["
    # on each of as many lines would reach
    seen, loads = [], orjson.loads
    monkeypatch.setattr(orjson, "loads", lambda text: seen.append(text) or loads(text))
    lines = [f"2010-06-07T{h:02d}:00,{v}" for h, v in enumerate(["[", "1", "]"])]
    with pytest.raises(IngestError, match=r"^line 2: non-numeric load_mw '\['$"):
        parse_load_file(csv_text(lines))
    assert seen == []


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.builds(lambda form, date, value: FORMS[form].format(date, ",".join(value)),
                          st.sampled_from(["plain"] * 12 + list(FORMS)),
                          st.sampled_from(DATE_TEXTS), st.lists(values, min_size=4, max_size=4)),
                max_size=5),
       st.booleans())
def test_forecast_parser_matches_the_per_row_oracle(lines, trailing_newline):
    grid = TimeGrid.equidistant(24)
    text = "date,t0800,t1200,t1600,t2000\n" + body(lines, trailing_newline)
    want, want_error = outcome(lambda: oracle_forecast(text, grid))
    got, got_error = outcome(lambda: parse_temperature_forecast(text, grid))
    assert got_error == want_error
    if want is not None:
        assert list(got) == list(want)
        assert all(bits(got[d].values) == bits(want[d]) for d in want)
