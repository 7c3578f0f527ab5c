import datetime as dt

import numpy as np
import pytest

from conftest import make_history, make_record
from shapecast.errors import ShapecastError
from shapecast.history import (
    DailyRecord,
    HistoryWindow,
    Quality,
    history_jsonl_text,
    read_history_jsonl,
)
from shapecast.segments import TimeGrid, rescale_day


def test_records_must_ascend(grid4):
    d = dt.date(2010, 1, 4)
    r1 = make_record(grid4, d, [1.0, 2.0, 3.0, 4.0])
    r2 = make_record(grid4, d + dt.timedelta(days=1), [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ShapecastError):
        HistoryWindow((r2, r1))
    with pytest.raises(ShapecastError):
        HistoryWindow((r1, r1))


def test_rejected_records_excluded(grid4):
    rec = make_record(grid4, dt.date(2010, 1, 4), [1.0, 2.0, 3.0, 4.0])
    bad = DailyRecord(rec.meta, rec.load, None, Quality.REJECTED)
    with pytest.raises(ShapecastError):
        HistoryWindow((bad,))


def test_before_slices_strictly(grid4):
    start = dt.date(2010, 1, 4)
    window = make_history(grid4, start, [[1.0, 2.0, 3.0, 4.0]] * 5)
    prior = window.before(start + dt.timedelta(days=2))
    assert len(prior) == 2
    assert all(r.meta.date < start + dt.timedelta(days=2) for r in prior)


def test_shape_matrix_rows_are_shapes(grid4):
    window = make_history(
        grid4, dt.date(2010, 1, 4), [[1.0, 2.0, 4.0, 2.0], [10.0, 5.0, 20.0, 40.0]]
    )
    m = window.shapes
    np.testing.assert_array_equal(m[0], [0.25, 0.5, 1.0, 0.5])
    assert np.max(m, axis=1).tolist() == [1.0, 1.0]


def test_shape_matrix_equals_rescaled_rows(grid24):
    rng = np.random.default_rng(5)
    window = make_history(grid24, dt.date(2010, 1, 4), 1.0 + 900.0 * rng.random((30, 24)))
    expected = np.array([rescale_day(r.load).values for r in window.records])
    assert np.array_equal(window.shapes, expected)


def test_shape_matrix_rejects_nonpositive_maximum(grid4):
    window = make_history(
        grid4, dt.date(2010, 1, 4), [[1.0, 2.0, 4.0, 2.0], [0.0, 0.0, 0.0, 0.0]]
    )
    with pytest.raises(ShapecastError, match="nonpositive maximum"):
        window.shapes


def test_shape_matrix_of_empty_window():
    assert HistoryWindow(()).shapes.shape[0] == 0


START = dt.date(2010, 1, 4)  # a Monday


@pytest.fixture
def gapped(grid24):
    """Six days from START with day 2 left out, as ingest leaves a rejected day."""
    rng = np.random.default_rng(8)
    window = make_history(grid24, START, 1.0 + 900.0 * rng.random((6, 24)))
    return HistoryWindow(window.records[:2] + window.records[3:])


def day(n):
    return START + dt.timedelta(days=n)


class TestPrefix:
    @pytest.mark.parametrize("date, n", [
        (day(-1), 0),  # before the first day
        (day(0), 0),
        (day(1), 1),
        (day(2), 2),  # inside the gap
        (day(3), 2),
        (day(5), 4),  # the last day
        (day(9), 5),  # after the last day
    ])
    def test_before_edges(self, gapped, date, n):
        prior = gapped.before(date)
        assert prior.records == gapped.records[:n]
        assert prior.dates == gapped.dates[:n]
        assert prior.loads.shape == (n, 24)

    @pytest.mark.parametrize("date", [day(-1), day(2), day(6)])
    def test_by_date_missing_raises(self, gapped, date):
        with pytest.raises(ShapecastError, match=date.isoformat()):
            gapped.by_date(date)

    def test_by_date_finds_every_day(self, gapped):
        for rec in gapped.records:
            assert gapped.by_date(rec.meta.date) is rec

    @pytest.mark.parametrize("n", [0, 1, 3, 5, 9])
    def test_prefix_length_clamps(self, gapped, n):
        assert len(gapped.prefix(n)) == min(n, len(gapped))

    @pytest.mark.parametrize("built_first", [False, True])
    def test_prefix_arrays_equal_fresh_window(self, gapped, built_first):
        if built_first:
            gapped.shapes
        for i in range(len(gapped) + 1):
            fresh = HistoryWindow(gapped.records[:i])
            prefix = gapped.prefix(i)
            assert prefix.shapes.tobytes() == fresh.shapes.tobytes()
            assert prefix.loads.tobytes() == fresh.loads.tobytes()
            assert prefix.dates == fresh.dates

    def test_prefix_shares_parent_arrays(self, gapped):
        shapes = gapped.shapes
        prefix = gapped.prefix(3).prefix(2)
        assert np.shares_memory(prefix.shapes, shapes)
        assert np.shares_memory(prefix.loads, gapped.loads)

    def test_arrays_built_once(self, gapped):
        assert gapped.shapes is gapped.shapes
        assert gapped.loads is gapped.loads
        assert gapped.dates is gapped.dates

    @pytest.mark.parametrize("name", ["loads", "shapes"])
    def test_arrays_read_only(self, gapped, name):
        for window in (gapped, gapped.prefix(3)):
            array = getattr(window, name)
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0, 0] = 0.0
        assert isinstance(gapped.dates, tuple)

    def test_prefix_skips_days_after_it(self, grid4):
        # a nonpositive day after the prefix does not spoil the prefix's shapes
        window = make_history(
            grid4, START, [[1.0, 2.0, 4.0, 2.0], [0.0, 0.0, 0.0, 0.0]]
        )
        np.testing.assert_array_equal(window.prefix(1).shapes, [[0.25, 0.5, 1.0, 0.5]])


def write_history(path, window: HistoryWindow) -> None:
    path.write_text(history_jsonl_text(window), encoding="utf-8")


class TestJsonlRoundtrip:
    def test_roundtrip_exact(self, tmp_path, grid24):
        rng = np.random.default_rng(11)
        loads = 100.0 + 400.0 * rng.random((6, 24))
        temps = 10.0 + 20.0 * rng.random((6, 24))
        window = make_history(grid24, dt.date(2010, 5, 3), loads, temps)
        path = tmp_path / "history.jsonl"
        write_history(path, window)
        back = read_history_jsonl(path)
        assert len(back) == len(window)
        for a, b in zip(window.records, back.records):
            assert a.meta == b.meta
            np.testing.assert_array_equal(a.load.values, b.load.values)
            np.testing.assert_array_equal(a.temperature.values, b.temperature.values)
            assert a.quality is b.quality

    def test_partial_temperature_mask(self, tmp_path, grid4):
        rec = make_record(
            grid4, dt.date(2010, 5, 3), [1.0, 2.0, 3.0, 4.0],
            temp=[np.nan, 21.0, np.nan, 24.0],
        )
        path = tmp_path / "h.jsonl"
        write_history(path, HistoryWindow((rec,)))
        assert '"temp_c": [null, 21.0, null, 24.0]' in path.read_text()
        back = read_history_jsonl(path)
        assert back.records[0].temperature.mask == (1, 3)
        np.testing.assert_array_equal(
            back.records[0].temperature.values, [np.nan, 21.0, np.nan, 24.0]
        )

    def test_holiday_flag_survives(self, tmp_path, grid4):
        rec = make_record(grid4, dt.date(2010, 1, 1), [1.0, 2.0, 3.0, 4.0], holiday=True)
        path = tmp_path / "h.jsonl"
        write_history(path, HistoryWindow((rec,)))
        back = read_history_jsonl(path)
        assert back.records[0].meta.group.value == "HOLIDAY"

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "h.jsonl"
        path.write_text('{"date": "2010-01-01"}\n')
        with pytest.raises(ShapecastError, match="grid"):
            read_history_jsonl(path)


RECORD = '{"date": "2010-01-05", "quality": "complete", "load_mw": [1, 2, 3, 4]}'


class TestJsonlErrors:
    GOOD = (
        '{"date": "2010-01-04", "is_holiday": false, "group": "G1", '
        '"quality": "complete", "load_mw": [1.0, 2.0, 3.0, 4.0]}'
    )

    def write(self, tmp_path, record_line):
        path = tmp_path / "h.jsonl"
        header = '{"grid": ["00:00", "06:00", "12:00", "18:00"]}'
        path.write_text("\n".join([header, self.GOOD, "", record_line]) + "\n")
        return path

    def test_good_file_reads(self, tmp_path):
        good = self.GOOD.replace("2010-01-04", "2010-01-05")
        assert len(read_history_jsonl(self.write(tmp_path, good))) == 2

    @pytest.mark.parametrize(
        "line, message",
        [
            ('{"date": "2010-01-05", "quality"', "Expecting"),
            ('{"date": "2010-01-05", "quality": "complete"}', "missing key 'load_mw'"),
            ('{"quality": "complete", "load_mw": [1, 2, 3, 4]}', "missing key 'date'"),
            ('{"date": "2010-01-05", "load_mw": [1, 2, 3, 4]}', "missing key 'quality'"),
            ('{"date": "2010-13-05", "quality": "complete", "load_mw": [1, 2, 3, 4]}',
             "month"),
            ('{"date": "2010-01-05", "quality": "complete", "load_mw": [1, 2]}',
             "length"),
            ('[1, 2]', "list indices"),
            ('{"date": "2010-01-05", "quality": "complete", "load_mw": [1, NaN, 3, 4]}',
             "non-finite number NaN"),
            (f'{RECORD[:-1]}, "temp_c": [1, Infinity, 3, 4]}}', "non-finite number Infinity"),
            (f'{RECORD[:-1]}, "temp_c": [1, 2, -Infinity, null]}}',
             "non-finite number -Infinity"),
            (f'{RECORD[:-1]}, "temp_c": [null, "nan", 3, 4]}}', "null only"),
            (f'{RECORD[:-1]}, "temp_c": [1e200, 2, 3, 4]}}', "within ±1000"),
            (f'{RECORD[:-1]}, "temp_c": [1, 2]}}', "expected length 4, got 2"),
            (f'{RECORD[:-1]}, "temp_c": [[1], [2], [3], [4]]}}', "1-d vector"),
            (RECORD.replace("[1, 2, 3, 4]", f"[1, 2, 3, {10**400}]"), "too large"),
            (f'{RECORD[:-1]}, "temp_c": [null, {10**400}, 3, 4]}}', "too large"),
        ],
    )
    def test_bad_line_names_path_and_line(self, tmp_path, line, message):
        path = self.write(tmp_path, line)
        with pytest.raises(ShapecastError, match=message) as exc:
            read_history_jsonl(path)
        # the bad record is on line 4: header, good record, blank line
        assert str(exc.value).startswith(f"{path}:4: ")

    def test_bad_header_names_line_one(self, tmp_path):
        path = tmp_path / "h.jsonl"
        path.write_text("{grid}\n")
        with pytest.raises(ShapecastError) as exc:
            read_history_jsonl(path)
        assert str(exc.value).startswith(f"{path}:1: ")
