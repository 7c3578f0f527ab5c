import datetime as dt
import json

import numpy as np
import pytest

from conftest import assert_same_record
from shapecast.calendars import annotate_calendar
from shapecast.errors import IngestError
from shapecast.history import DailyRecord, Quality, history_jsonl_text
from shapecast.ingest import (
    forecast_mask_indices,
    parse_load_file,
    parse_temperature_forecast,
    parse_temperature_history,
    segmentize,
)
from shapecast.segments import LoadSegment, TemperatureSegment, TimeGrid


def day_rows(date, values, grid):
    minutes = grid.minutes
    return [
        f"{date.isoformat()}T{m // 60:02d}:{m % 60:02d},{v}"
        for m, v in zip(minutes, values)
    ]


def csv_text(rows, header="timestamp,load_mw"):
    return header + "\n" + "\n".join(rows) + "\n"


class TestParseLoadFile:
    def test_single_row(self):
        records = parse_load_file("timestamp,load_mw\n2010-06-07T00:00,512.5\n")
        assert records == [(dt.datetime(2010, 6, 7, 0, 0), 512.5)]

    def test_empty_body(self):
        assert parse_load_file("timestamp,load_mw\n") == []

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
        rec = window.records[0]
        assert rec.quality is Quality.COMPLETE
        assert np.array_equal(rec.load.values, np.arange(100.0, 124.0))
        assert not report.issues

    def test_interior_gap_interpolates_neighbor_mean(self):
        values = [100.0] * 24
        values[9] = 60.0
        values[11] = 80.0
        window, report = segmentize(self.parse_day(values, drop={10}), self.grid)
        rec = window.records[0]
        assert rec.quality is Quality.GAP_FILLED
        assert rec.load.values[10] == pytest.approx((60.0 + 80.0) / 2)
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
        rows = day_rows(self.date, window1.records[0].load.values, self.grid)
        window2, report2 = segmentize(parse_load_file(csv_text(rows)), self.grid)
        np.testing.assert_array_equal(
            window1.records[0].load.values, window2.records[0].load.values
        )
        assert not report2.issues

    def test_every_reading_accounted_for(self):
        good = day_rows(self.date, range(24), self.grid)
        bad_date = self.date + dt.timedelta(days=1)
        bad = day_rows(bad_date, range(24), self.grid)[:5]
        records = parse_load_file(csv_text(good + bad))
        window, report = segmentize(records, self.grid, max_gap=4)
        kept = sum(len(r.load.values) for r in window.records)
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
        assert window.records[0].quality is Quality.GAP_FILLED
        assert report.issues[0].kind == "resampled"

    def test_holiday_annotation(self):
        window, _ = segmentize(
            self.parse_day(range(24)), self.grid, holiday_set={self.date}
        )
        assert window.records[0].meta.group.value == "HOLIDAY"

    def test_empty_input(self):
        window, report = segmentize([], self.grid)
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
        assert seg.mask == forecast_mask_indices(self.grid)
        np.testing.assert_array_equal(
            seg.values[list(seg.mask)], [24.0, 29.5, 30.1, 26.2]
        )

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
            assert padded == plain

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
        seg = window.records[0].temperature
        assert seg is not None
        assert seg.mask == tuple(range(6))
        np.testing.assert_array_equal(seg.values[:6], [20.0 + i for i in range(6)])
        assert np.all(np.isnan(seg.values[6:]))

    def test_day_without_temperatures_keeps_none(self):
        window, _ = segmentize(self.load(self.date), self.grid)
        assert window.records[0].temperature is None

    def test_temperatures_on_rejected_day_ignored(self):
        missing = self.date + dt.timedelta(days=1)
        last = self.date + dt.timedelta(days=2)
        temp_rows = [r for d in (self.date, missing, last)
                     for r in day_rows(d, [20.0] * 24, self.grid)]
        window, report = segmentize(self.load(self.date, last), self.grid,
                                    temps=self.temps(temp_rows))
        assert window.dates == (self.date, last)
        assert report.rejected_dates == [missing]
        assert all(r.temperature.mask == tuple(range(24)) for r in window.records)

    def test_temperature_only_day_adds_no_record(self):
        later = self.date + dt.timedelta(days=5)
        temp_rows = day_rows(later, [20.0] * 24, self.grid)
        window, report = segmentize(self.load(self.date), self.grid,
                                    temps=self.temps(temp_rows))
        assert window.dates == (self.date,)
        assert window.records[0].temperature is None
        assert not report.issues

    def test_off_grid_minutes_ignored(self):
        stamp = self.date.isoformat()
        temp_rows = [f"{stamp}T03:00,18.5", f"{stamp}T03:30,19.0", f"{stamp}T07:10,22.0"]
        window, _ = segmentize(self.load(self.date), self.grid,
                               temps=self.temps(temp_rows))
        seg = window.records[0].temperature
        assert seg.mask == (3,)
        assert seg.values[3] == 18.5

    def test_only_off_grid_minutes_give_no_temperature(self):
        temp_rows = [f"{self.date.isoformat()}T03:30,19.0"]
        window, _ = segmentize(self.load(self.date), self.grid,
                               temps=self.temps(temp_rows))
        assert window.records[0].temperature is None

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

    def test_records_view_equals_day_by_day_records(self):
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
        assert len(window.records) == len(expected)
        for got, (date, load, temp, quality) in zip(window.records, expected):
            want = DailyRecord(
                annotate_calendar(date, {days[2]}),
                LoadSegment(grid, load),
                None if temp is None else TemperatureSegment(grid, temp),
                quality,
            )
            assert_same_record(got, want)
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
