import datetime as dt

import numpy as np
import pytest

from shapecast.errors import IngestError
from shapecast.history import Quality
from shapecast.ingest import (
    attach_temperature_history,
    forecast_mask_indices,
    parse_load_file,
    parse_temperature_forecast,
    parse_temperature_history,
    segmentize,
)
from shapecast.segments import TimeGrid


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

    def test_bytes_input(self):
        records = parse_load_file(b"timestamp,load_mw\n2010-06-07T06:00,4.25\n")
        assert records[0][1] == 4.25


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


class TestAttachTemperatures:
    def test_partial_day_mask(self):
        grid = TimeGrid.equidistant(24)
        date = dt.date(2010, 6, 7)
        window, _ = segmentize(
            parse_load_file(csv_text(day_rows(date, range(24), grid))), grid
        )
        temp_rows = day_rows(date, [20.0 + i for i in range(24)], grid)[:6]
        temps = parse_temperature_history(
            csv_text(temp_rows, header="timestamp,temp_c")
        )
        window = attach_temperature_history(window, temps)
        seg = window.records[0].temperature
        assert seg is not None
        assert seg.mask == tuple(range(6))
        np.testing.assert_array_equal(seg.values[:6], [20.0 + i for i in range(6)])
