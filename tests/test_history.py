import datetime as dt
import decimal
import json
import math
import os
import tracemalloc
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import given, settings, strategies as st

from conftest import FLOAT_EDGES, history_jsonl_oracle, make_history, read_history_jsonl_oracle
from shapecast import history
from shapecast.calendars import GROUPS, annotate_calendar
from shapecast.errors import GridMismatchError, ShapecastError
from shapecast.history import HistoryWindow, Quality, history_jsonl_text, read_history_jsonl
from shapecast.ingest import parse_load_file, parse_temperature_history, segmentize
from shapecast.segments import TimeGrid
from shapecast.synthetic import SyntheticSpec, generate


# day offsets from 2010-01-04, all from day 0, and the row of the first date
# that is out of order or repeated
DATE_ORDER = [
    ((0, -1), 1),
    ((0, 0), 1),
    ((0, 0, 1, 0), 1),  # a later break is not the one named
    ((0, 1, 2, 2, 4, 5), 3),
    ((0, 1, 2, 7, 4, 3), 4),
    ((0, 1, 2, 3, 4, 3), 5),
    ((0, 1, 2, 3, 4, 4), 5),
]


@pytest.mark.parametrize("offsets, row", DATE_ORDER)
def test_records_must_ascend(grid4, offsets, row):
    dates = tuple(dt.date(2010, 1, 4) + dt.timedelta(days=k) for k in offsets)
    n = len(dates)
    with pytest.raises(ShapecastError, match="strictly ascending by date") as info:
        HistoryWindow(grid4, dates, np.ones((n, 4)), np.full((n, 4), np.nan))
    assert info.value.row == row


def test_rejected_records_excluded(grid4):
    with pytest.raises(ShapecastError):
        HistoryWindow(grid4, (dt.date(2010, 1, 4),), [[1.0, 2.0, 3.0, 4.0]],
                      [[np.nan] * 4], quality=(Quality.REJECTED,))


def test_before_slices_strictly(grid4):
    start = dt.date(2010, 1, 4)
    window = make_history(grid4, start, [[1.0, 2.0, 3.0, 4.0]] * 5)
    prior = window.before(start + dt.timedelta(days=2))
    assert len(prior) == 2
    assert all(date < start + dt.timedelta(days=2) for date in prior.dates)


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
    expected = np.array([load / load.max() for load in window.loads])
    assert np.array_equal(window.shapes, expected)


def test_shape_matrix_rejects_nonpositive_maximum(grid4):
    window = make_history(
        grid4, dt.date(2010, 1, 4), [[1.0, 2.0, 4.0, 2.0], [0.0, 0.0, 0.0, 0.0]]
    )
    with pytest.raises(ShapecastError, match="nonpositive maximum"):
        window.shapes


def test_shape_matrix_of_empty_window(grid4):
    assert make_history(grid4, dt.date(2010, 1, 4), np.empty((0, 4))).shapes.shape[0] == 0


START = dt.date(2010, 1, 4)  # a Monday


@pytest.fixture
def gapped(grid24):
    """Six days from START with day 2 left out, as ingest leaves a rejected day."""
    rng = np.random.default_rng(8)
    loads = np.delete(1.0 + 900.0 * rng.random((6, 24)), 2, axis=0)
    dates = tuple(day(n) for n in (0, 1, 3, 4, 5))
    return HistoryWindow(grid24, dates, loads, np.full((5, 24), np.nan))


def day(n):
    return START + dt.timedelta(days=n)


def assert_same_rows(window: HistoryWindow, whole: HistoryWindow, rows) -> None:
    """`window` holds the days `rows` of `whole`, compared field by field."""
    assert window.grid == whole.grid
    assert len(window) == len(rows)
    for k, i in enumerate(rows):
        assert window.meta(k) == whole.meta(i)
        assert window.quality[k] is whole.quality[i]
        assert window.loads[k].tobytes() == whole.loads[i].tobytes()
        assert window.temps[k].tobytes() == whole.temps[i].tobytes()


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
        assert_same_rows(prior, gapped, range(len(gapped))[:n])
        assert prior.dates == gapped.dates[:n]
        assert prior.loads.shape == (n, 24)

    @pytest.mark.parametrize("date", [day(-1), day(2), day(6)])
    def test_row_missing_raises(self, gapped, date):
        with pytest.raises(ShapecastError, match=date.isoformat()):
            gapped.row(date)

    def test_row_finds_every_day(self, gapped):
        for i, date in enumerate(gapped.dates):
            assert gapped.row(date) == i

    @pytest.mark.parametrize("n", [0, 1, 3, 5, 9])
    def test_prefix_length_clamps(self, gapped, n):
        assert len(gapped.span(0, n)) == min(n, len(gapped))

    @pytest.mark.parametrize("built_first", [False, True])
    def test_prefix_arrays_equal_fresh_window(self, gapped, built_first):
        if built_first:
            gapped.shapes
        for i in range(len(gapped) + 1):
            fresh = HistoryWindow(gapped.grid, gapped.dates[:i], gapped.loads[:i],
                                  gapped.temps[:i], gapped.is_holiday[:i], gapped.quality[:i])
            prefix = gapped.span(0, i)
            assert prefix.shapes.tobytes() == fresh.shapes.tobytes()
            assert prefix.loads.tobytes() == fresh.loads.tobytes()
            assert prefix.dates == fresh.dates

    def test_prefix_shares_parent_arrays(self, gapped):
        shapes = gapped.shapes
        prefix = gapped.span(0, 3).span(0, 2)
        assert np.shares_memory(prefix.shapes, shapes)
        assert np.shares_memory(prefix.loads, gapped.loads)

    def test_arrays_built_once(self, gapped):
        assert gapped.shapes is gapped.shapes
        assert gapped.loads is gapped.loads
        assert gapped.dates is gapped.dates

    @pytest.mark.parametrize("name", ["loads", "shapes"])
    def test_arrays_read_only(self, gapped, name):
        for window in (gapped, gapped.span(0, 3)):
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
        np.testing.assert_array_equal(window.span(0, 1).shapes, [[0.25, 0.5, 1.0, 0.5]])

    @pytest.mark.parametrize("start, stop", [
        (1, 4), (2, 3), (3, 4), (4, 4), (6, 9), (-4, -1), (-3, 4), (2, -1), (4, 2),
    ])
    def test_span_past_row_0_skips_days_outside_it(self, grid4, start, stop):
        # nonpositive days before and after the span do not spoil its shapes
        loads = [[0.0] * 4, [1.0, 2.0, 4.0, 2.0], [10.0, 5.0, 20.0, 40.0],
                 [3.0, 3.0, 6.0, 1.5], [0.0] * 4]
        window = make_history(grid4, START, loads)
        span = window.span(start, stop)
        assert span.dates == window.dates[start:stop]
        assert span.quality == window.quality[start:stop]
        for name in ("is_holiday", "group", "has_temps", "loads", "temps", "peaks"):
            got, whole = getattr(span, name), getattr(window, name)
            assert got.tobytes() == whole[start:stop].tobytes(), name
        expected = np.array(loads[start:stop]).reshape(-1, 4)
        assert span.shapes.tobytes() == (expected / expected.max(axis=1)[:, None]).tobytes()
        assert span.span(1, 2).shapes.tobytes() == span.shapes[1:2].tobytes()

    def test_span_names_its_own_nonpositive_day(self, grid4):
        loads = [[0.0] * 4, [1.0, 2.0, 4.0, 2.0], [0.0] * 4, [1.0] * 4]
        window = make_history(grid4, START, loads)
        with pytest.raises(ShapecastError, match=f"{day(2)}: .*nonpositive maximum"):
            window.span(1, 4).shapes
        with pytest.raises(ShapecastError, match=f"{day(2)}: .*nonpositive maximum"):
            window.span(1, 4).span(1, 3).shapes

    def test_span_shares_root_arrays(self, gapped):
        shapes = gapped.shapes
        span = gapped.span(1, 5).span(1, 3)
        assert span.dates == gapped.dates[2:4]
        assert np.shares_memory(span.shapes, shapes)
        assert np.shares_memory(span.loads, gapped.loads)
        assert span.shapes.tobytes() == shapes[2:4].tobytes()


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
        for i in range(len(window)):
            assert window.meta(i) == back.meta(i)
            np.testing.assert_array_equal(window.loads[i], back.loads[i])
            np.testing.assert_array_equal(window.temps[i], back.temps[i])
            assert window.quality[i] is back.quality[i]

    def test_partial_temperature_mask(self, tmp_path, grid4):
        window = make_history(grid4, dt.date(2010, 5, 3), [[1.0, 2.0, 3.0, 4.0]],
                              np.array([[np.nan, 21.0, np.nan, 24.0]]))
        path = tmp_path / "h.jsonl"
        write_history(path, window)
        assert '"temp_c": [null, 21.0, null, 24.0]' in path.read_text()
        back = read_history_jsonl(path)
        np.testing.assert_array_equal(back.temps[0], [np.nan, 21.0, np.nan, 24.0])

    def test_holiday_flag_survives(self, tmp_path, grid4):
        window = HistoryWindow(grid4, (dt.date(2010, 1, 1),), [[1.0, 2.0, 3.0, 4.0]],
                               [[np.nan] * 4], [True])
        path = tmp_path / "h.jsonl"
        write_history(path, window)
        back = read_history_jsonl(path)
        assert back.meta(0).group.value == "HOLIDAY"

    def test_reading_needs_about_the_file_size_in_memory(self, tmp_path):
        # the reader holds one line at a time and fills growing column blocks,
        # joined once: neither the whole text nor a list of its lines exists
        rng = np.random.default_rng(2000)
        window = make_history(TimeGrid.equidistant(96), dt.date(2000, 1, 3),
                              rng.uniform(100, 900, (2000, 96)), rng.uniform(-5, 35, (2000, 96)))
        path = tmp_path / "history.jsonl"
        write_history(path, window)
        tracemalloc.start()
        try:
            back = read_history_jsonl(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * path.stat().st_size
        assert back.loads.tobytes() == window.loads.tobytes()
        assert back.temps.tobytes() == window.temps.tobytes()

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "h.jsonl"
        path.write_text('{"date": "2010-01-01"}\n')
        with pytest.raises(ShapecastError, match="grid"):
            read_history_jsonl(path)


RECORD = '{"date": "2010-01-05", "quality": "complete", "load_mw": [1, 2, 3, 4]}'
NEXT = RECORD.replace("2010-01-05", "2010-01-06")


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
            (RECORD.replace("[1, 2, 3, 4]", '["1.5", true, " 3", 4]'),
             'load_mw holds "1.5": numbers only$'),
            (RECORD.replace("[1, 2, 3, 4]", "[1, true, 3, 4]"), "load_mw holds true"),
            (RECORD.replace("[1, 2, 3, 4]", "[1, 2, null, 4]"), "load_mw holds null"),
            (f'{RECORD[:-1]}, "temp_c": ["20", false, null, 4]}}',
             'temp_c holds "20": numbers only, null only for an unobserved point$'),
            (f'{RECORD[:-1]}, "temp_c": [20, false, null, 4]}}', "temp_c holds false"),
            # named before numpy converts them, which would fail in its own words
            (RECORD.replace("[1, 2, 3, 4]", '["abc", 2, 3, 4]'),
             'load_mw holds "abc": numbers only$'),
            (RECORD.replace("[1, 2, 3, 4]", '[{"a": 1}, 2, 3, 4]'),
             r'load_mw holds \{"a": 1\}: numbers only$'),
            (RECORD.replace("[1, 2, 3, 4]", '"abc"'), 'load_mw holds "abc": numbers only$'),
            (f'{RECORD[:-1]}, "temp_c": [null, "abc", 3, 4]}}',
             'temp_c holds "abc": numbers only, null only for an unobserved point$'),
            (f'{RECORD[:-1]}, "temp_c": [{{"a": 1}}, 2, 3, 4]}}',
             r'temp_c holds \{"a": 1\}: numbers only, null only for an unobserved point$'),
            # at any depth, and a ragged nesting is worded as a shape
            (RECORD.replace("[1, 2, 3, 4]", '[["abc"], [2], [3], [4]]'),
             'load_mw holds "abc": numbers only$'),
            (RECORD.replace("[1, 2, 3, 4]", '[1, [2, [[true]]], 3, 4]'),
             "load_mw holds true: numbers only$"),
            (f'{RECORD[:-1]}, "temp_c": [[null], [2], [3, "x"], [4]]}}',
             'temp_c holds "x": numbers only, null only for an unobserved point$'),
            (RECORD.replace("[1, 2, 3, 4]", "[1, [2], 3, 4]"),
             "expected 1-d vector, got nested lists$"),
            # deeper than numpy's 64 dimensions
            (RECORD.replace("[1, 2, 3, 4]", "[" + "[" * 70 + "1" + "]" * 70 + ", 2, 3, 4]"),
             "expected 1-d vector, got nested lists$"),
            (f'{RECORD[:-1]}, "temp_c": [null, null, null, null]}}',
             "temperature mask must be nonempty"),
            (RECORD.replace("[1, 2, 3, 4]", "[1, -2, 3, 4]"),
             "load values must be nonnegative"),
            (f'{RECORD[:-1]}, "temp_c": [20, 1e400, null, 4]}}', "within ±1000"),
            ("\ufeff" + RECORD,
             r"Unexpected UTF-8 BOM \(decode using utf-8-sig\): line 1 column 1 \(char 0\)$"),
            # orjson refuses these lines; the stdlib decoder's value or error stands
            (RECORD.replace("[1, 2, 3, 4]", "[1, 2, 3, 1e400]"), "load values must be finite$"),
            (RECORD.replace("[1, 2, 3, 4]", "[1, 01, 3, 4]"),
             r"Expecting ',' delimiter: line 1 column 63 \(char 62\)$"),
            # orjson reads 2**64 as a float, but the error names the integer
            (RECORD.replace('"complete"', str(2**64)), f": {2**64} is not a valid Quality$"),
            # an unhashable quality is named as the value it is
            (RECORD.replace('"complete"', "[1]"), r": \[1\] is not a valid Quality$"),
            (RECORD.replace('"complete"', '{"a": 1}'), r": \{'a': 1\} is not a valid Quality$"),
            (f'{RECORD[:-1]}, "note": "\u2028"}} x', "Extra data"),
            (RECORD + "\u2028" + NEXT, "Extra data"),  # only \n, \r\n and \r split records
        ],
    )
    def test_bad_line_names_path_and_line(self, tmp_path, line, message):
        path = self.write(tmp_path, line)
        with pytest.raises(ShapecastError, match=message) as exc:
            read_history_jsonl(path)
        # the bad record is on line 4: header, good record, blank line
        assert str(exc.value).startswith(f"{path}:4: ")

    @pytest.mark.parametrize("line, load", [
        (RECORD.replace("[1, 2, 3, 4]", f"[1, 2, {2**64}, {2**64 + 1}]"), [1, 2, 2.0**64, 2.0**64]),
        (f'{RECORD[:-1]}, "note": "\\ud800"}}', [1, 2, 3, 4]),  # a lone-surrogate escape
        (f'{RECORD[:-1]}, "note": "\\ud83d\\ude00 \U0001f600"}}', [1, 2, 3, 4]),
    ])
    def test_stdlib_reading_stands(self, tmp_path, line, load):
        # orjson reads 2**64 + 1 as a float and refuses a lone surrogate
        window = read_history_jsonl(self.write(tmp_path, line))
        assert window.loads[1].tolist() == load

    @pytest.mark.parametrize("char", ["\u2028", "\u2029", "\x85"])
    def test_raw_line_break_in_a_string_splits_no_record(self, tmp_path, char):
        # JSON allows these raw inside a string, and only \n, \r\n and \r end a line
        line = f'{RECORD[:-1]}, "note": "a{char}b"}}'
        later = NEXT.replace("complete", "rejected")
        with pytest.raises(ShapecastError) as exc:
            read_history_jsonl(self.write(tmp_path, line + "\n" + later))
        assert str(exc.value).endswith(":5: rejected records are excluded from history")
        assert len(read_history_jsonl(self.write(tmp_path, line + "\n" + NEXT))) == 3

    @pytest.mark.parametrize("end", ["\r\n", "\r"])
    def test_crlf_and_cr_end_lines(self, tmp_path, end):
        path = self.write(tmp_path, RECORD + "\n\n" + NEXT)
        text = path.read_text()
        back = tmp_path / "crlf.jsonl"
        back.write_bytes(text.replace("\n", end).encode())
        assert_same_columns(read_history_jsonl(back), read_history_jsonl(path))
        broken = NEXT.replace("[1, 2, 3, 4]", "[1, -2, 3, 4]")
        back.write_bytes(text.replace(NEXT, broken).replace("\n", end).encode())
        with pytest.raises(ShapecastError) as exc:
            read_history_jsonl(back)
        assert str(exc.value) == f"{back}:6: load values must be nonnegative"

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_non_utf8_pipe_fails_at_its_stream_offset(self):
        # a pipe cannot be read again, so the offset is counted as lines are read:
        # the error is the whole stream's, though a bad line 3 comes before it
        data = "\n".join([HEADER, RECORD, NEXT[:30], *[NEXT] * 200]).encode()[:12_000]
        data = data[:9000] + b"\xff" + data[9000:]
        with pytest.raises(UnicodeDecodeError) as whole:
            str(data, "utf-8")
        r, w = os.pipe()
        try:
            os.write(w, data)
            os.close(w)
            with pytest.raises(UnicodeDecodeError) as exc:
                read_history_jsonl(f"/dev/fd/{r}")
        finally:
            os.close(r)
        assert (exc.value.start, exc.value.reason) == (9000, whole.value.reason)
        assert exc.value.end == whole.value.end and str(exc.value) == str(whole.value)

    def test_orjson_reads_every_good_line(self, tmp_path, monkeypatch):
        seen, loads = [], orjson.loads
        monkeypatch.setattr(history.orjson, "loads", lambda text: seen.append(text) or loads(text))
        assert len(read_history_jsonl(self.write(tmp_path, RECORD))) == 2
        assert seen == [self.GOOD, RECORD]

    @pytest.mark.parametrize("depth", [5_000, 20_000, 200_000])
    def test_deep_line(self, tmp_path, monkeypatch, depth):
        # orjson recurses without a limit and crashes near 10**5 levels, so a line
        # that may nest past 10**4 never reaches it; the stdlib decoder refuses it
        seen, loads = [], orjson.loads

        def spy(text):  # refuses, in place of crashing, a line the guard let through
            seen.append(len(text))
            if len(text) > 20_000:
                raise orjson.JSONDecodeError("too deep for this test", text, 0)
            return loads(text)
        monkeypatch.setattr(history.orjson, "loads", spy)
        line = f'{RECORD[:-1]}, "note": {"[" * depth}{"]" * depth}}}'
        path = self.write(tmp_path, line)
        if depth > 10_000:
            with pytest.raises(ShapecastError) as exc:
                read_history_jsonl(path)
            assert str(exc.value).startswith(f"{path}:4: maximum recursion depth exceeded")
            assert len(line) not in seen
        else:  # too deep for the stdlib decoder, not for orjson
            assert len(read_history_jsonl(path)) == 2
            assert len(line) in seen

    @pytest.mark.parametrize("later", [
        '{"date": "2010-01-06", "quality"',
        NEXT.replace("[1, 2, 3, 4]", '["1", 2, 3, 4]'),
        NEXT.replace("[1, 2, 3, 4]", "[1, -2, 3, 4]"),
    ])
    def test_first_bad_line_is_named(self, tmp_path, later):
        # line 4's value is refused before line 5 is looked at, however it fails
        first = RECORD.replace("[1, 2, 3, 4]", "[1, 2, -3, 4]")
        path = self.write(tmp_path, first + "\n" + later)
        with pytest.raises(ShapecastError) as exc:
            read_history_jsonl(path)
        assert str(exc.value) == f"{path}:4: load values must be nonnegative"

    @pytest.mark.parametrize("quality", ["complete", "rejected"])
    def test_bad_value_before_window_checks(self, tmp_path, quality):
        # the window's date-order and rejected-day checks come after its values'
        line = RECORD.replace("[1, 2, 3, 4]", "[1, 2, -3, 4]")
        later = RECORD.replace("complete", quality)  # 2010-01-05 again
        path = self.write(tmp_path, line + "\n" + later)
        with pytest.raises(ShapecastError) as exc:
            read_history_jsonl(path)
        assert str(exc.value) == f"{path}:4: load values must be nonnegative"

    @pytest.mark.parametrize("lines, message", [
        ([NEXT, RECORD], "history records must be strictly ascending by date"),
        ([RECORD, RECORD], "history records must be strictly ascending by date"),
        ([RECORD, NEXT.replace("complete", "rejected")],
         "rejected records are excluded from history"),
    ])
    def test_window_check_names_its_line(self, tmp_path, lines, message):
        # the second of the two lines (line 5) is the one the window refuses
        path = self.write(tmp_path, "\n".join(lines))
        with pytest.raises(ShapecastError) as exc:
            read_history_jsonl(path)
        assert str(exc.value) == f"{path}:5: {message}"

    @pytest.mark.parametrize("offsets, row", DATE_ORDER)
    def test_date_order_check_names_its_line(self, tmp_path, offsets, row):
        # line 2 holds day 0; line 4 holds row 1, after a blank line
        lines = [RECORD.replace("2010-01-05", str(dt.date(2010, 1, 4) + dt.timedelta(days=k)))
                 for k in offsets[1:]]
        path = self.write(tmp_path, "\n".join(lines))
        with pytest.raises(ShapecastError) as exc:
            read_history_jsonl(path)
        assert str(exc.value) == (
            f"{path}:{row + 3}: history records must be strictly ascending by date")

    MALFORMED = '{"date": "2010-01-06", "quality"'  # a line neither decoder reads

    @pytest.mark.parametrize("lines, lineno", [
        # line 4 fails to decode before line 5's bad value is looked at
        ([MALFORMED.replace("01-06", "01-05"), NEXT.replace("[1, 2, 3, 4]", "[1, -2, 3, 4]")], 4),
        # the window's rejected-day and date-order checks wait for every line
        ([RECORD.replace("complete", "rejected"), MALFORMED], 5),
        ([RECORD.replace("2010-01-05", "2010-01-03"), MALFORMED], 5),
    ])
    def test_decode_error_order(self, tmp_path, lines, lineno):
        path = self.write(tmp_path, "\n".join(lines))
        with pytest.raises(ShapecastError) as exc:
            read_history_jsonl(path)
        assert str(exc.value) == (
            f"{path}:{lineno}: Expecting ':' delimiter: line 1 column 33 (char 32)")

    def test_value_before_quality_on_one_line(self, tmp_path):
        line = RECORD.replace("[1, 2, 3, 4]", "[1, 2, -3, 4]")
        line = line.replace('"complete"', '"bad"')
        path = self.write(tmp_path, line)
        with pytest.raises(ShapecastError, match="^.*:4: load values must be nonnegative$"):
            read_history_jsonl(path)

    def test_bad_header_names_line_one(self, tmp_path):
        path = tmp_path / "h.jsonl"
        path.write_text("{grid}\n")
        with pytest.raises(ShapecastError) as exc:
            read_history_jsonl(path)
        assert str(exc.value).startswith(f"{path}:1: ")


# The decoder differential: the reader as it runs, with orjson, against the same
# reader when orjson refuses every line, so that the stdlib decoder reads them all.
# orjson is whichever version is installed, so this is what guards its rounding.

HEADER = '{"grid": ["00:00", "06:00", "12:00", "18:00"]}'


def read_outcome(path, reader=read_history_jsonl):
    """The columns `reader` gives, or its error text."""
    try:
        window = reader(path)
    except ShapecastError as exc:
        return str(exc)
    return (window.dates, window.is_holiday.tobytes(), window.quality,
            window.loads.tobytes(), window.temps.tobytes())


def refuse(text):
    raise orjson.JSONDecodeError("refused", text, 0)


def assert_decoders_agree(path, lines):
    """Both decoders give the record `lines` one outcome, which is returned."""
    path.write_text("\n".join([HEADER, *lines]) + "\n", encoding="utf-8")
    fast = read_outcome(path)
    with mock.patch.object(history.orjson, "loads", refuse):
        assert read_outcome(path) == fast
    return fast


def array(values) -> str:
    return "[" + ", ".join(values) + "]"


def digits(most: int):
    """Digit strings of 1 to `most` digits, each length as likely, leading zeros kept."""
    return st.integers(1, most).flatmap(
        lambda n: st.integers(0, 10**n - 1).map(lambda v: str(v).zfill(n)))


def mantissas(signs, whole_digits: int, exponents):
    """Number texts: a sign, a whole part, up to 40 fraction digits, an exponent."""
    whole = st.just("0") | digits(whole_digits).map(lambda d: d.lstrip("0") or "0")
    exponent = st.just("") | st.builds(
        lambda mark, n, plus: f"{mark}{'+' if plus and n >= 0 else ''}{n}",
        st.sampled_from("eE"), exponents, st.booleans())
    return st.builds("{}{}{}{}".format, st.sampled_from(signs), whole,
                     st.just("") | digits(40).map(".".__add__), exponent)


def arrays(values):
    return st.lists(values, min_size=4, max_size=4).map(array)


# integers at the edges of a double's exact integers, of orjson's 64-bit ones,
# and of a double's range
INT_EDGES = (2**53, 2**63, 2**64, 10**308, 2**1024 - 2**970)
loads_ok = st.one_of(  # nonnegative and mostly finite: lines that mostly read
    mantissas([""], 40, st.integers(-400, 260)),
    st.floats(0, allow_infinity=False).map(repr),
    st.floats(0, 2.3e-308).map(repr),  # subnormals
    st.builds(lambda edge, step: str(edge + step), st.sampled_from(INT_EDGES), st.integers(-3, 3)),
    st.sampled_from(["-0", "-0.0", "0e0", "1E+2"]),
)
temps_ok = mantissas(["", "-"], 3, st.integers(-400, 0)) | st.floats(-1000, 1000).map(repr)
numbers = st.one_of(  # a valid JSON number of any form or size
    loads_ok,
    mantissas(["-"], 40, st.integers(-400, 400)),
    st.builds(lambda edge, step: str(-edge + step), st.sampled_from(INT_EDGES), st.integers(-3, 3)),
    st.sampled_from(["1e400", "-1e400"]),
)
strings = st.builds(json.dumps, st.text(max_size=12), ensure_ascii=st.booleans()) | st.sampled_from([
    '"\\ud800"', '"a\\udfffb"', '"\\ud83d\\ude00"', '"\U0001f600 é"', '"\u2028\u2029\x85"',
    '"\\u0000\\n\\"\\\\\\/"', '"\\x"', '"\\u12"', '"\t"',
])
# a value of one field that may not read: the line's one twist
TWISTS = {
    "date": st.sampled_from(['"2010-01-05"', '"2010-02-30"', "5"]),
    "load_mw": arrays(numbers),
    "temp_c": arrays(numbers | st.just("null")),
    "quality": st.sampled_from(['"rejected"', '"bad"']) | numbers,
    "is_holiday": numbers,
}
BAD_NUMBERS = ["NaN", "Infinity", "-Infinity", "01", "-01", "00.5", "1.", ".5", "+1", "1e", "0x10",
               "1_0", "--1"]
DAMAGE = {  # or a damage to the line's text
    "truncated": lambda line, k: line[:k],
    "a character lost": lambda line, k: line[:k] + line[k + 1:],
    "a stray zero": lambda line, k: line[:k] + "0" + line[k:],
    "a number JSON refuses": lambda line, k: line.replace(
        "[", f"[{BAD_NUMBERS[k % len(BAD_NUMBERS)]}, ", 1),
    "a BOM": lambda line, k: "\ufeff" + line,
    "trailing data": lambda line, k: line + " " + line[:k],
}


@st.composite
def record_lines(draw, n: int):
    """The `n`th record of a file, its fields in any order, with at most one twist."""
    fields = {
        "date": f'"{day(n + 1)}"',
        "load_mw": draw(arrays(loads_ok)),
        "quality": draw(st.sampled_from(['"complete"', '"gap-filled"'])),
    }
    for key, values in [("is_holiday", st.sampled_from(["true", "false", "null", "0", "1e-400"])),
                        ("temp_c", arrays(temps_ok | st.just("null"))),
                        ("note", strings)]:
        if draw(st.booleans()):
            fields[key] = draw(values)
    twist = draw(st.sampled_from(["none"] * 10 + list(TWISTS) + list(DAMAGE)))
    if twist in TWISTS:
        fields[twist] = draw(TWISTS[twist])
    pairs = draw(st.permutations(list(fields.items())))
    if draw(st.booleans()):  # a duplicate key: the last one stands
        pairs.insert(0, ("quality", '"rejected"'))
    line = "{" + ", ".join(f'"{key}": {value}' for key, value in pairs) + "}"
    return DAMAGE[twist](line, draw(st.integers(0, len(line)))) if twist in DAMAGE else line


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(*map(record_lines, range(n)))))
def test_orjson_reads_as_the_stdlib_decoder(tmp_path_factory, lines):
    assert_decoders_agree(tmp_path_factory.getbasetemp() / "decoders.jsonl", lines)


def halfway(lo: float, hi: float | int, tilts=(-1, 0, 1)) -> list[str]:
    """Decimal texts exactly halfway between the doubles `lo` and `hi`, and a hair either side."""
    with decimal.localcontext(decimal.Context(prec=1200)):
        lo, hi = decimal.Decimal(lo), decimal.Decimal(hi)
        return [str((lo + hi) / 2 + tilt * (hi - lo) / 10**25) for tilt in tilts]


_rng = np.random.default_rng(18)
# doubles from every binade, from the subnormals to the largest, and the edges
# of the exact integers and of orjson's 64-bit ones
BINADES = [0.0, 5e-324, 2.2250738585072014e-308, 1.0, 999.0, 2.0**53, 2.0**63, 2.0**64,
           *np.ldexp(1 + _rng.random(300), _rng.integers(-1074, 1023, 300)).tolist()]
LARGEST = 1.7976931348623157e308


@pytest.mark.parametrize("texts", [
    pytest.param([t for x in BINADES for t in halfway(x, math.nextafter(x, math.inf))],
                 id="halfway in every binade"),
    *[pytest.param(halfway(LARGEST, 2**1024, [tilt]), id=f"halfway past the largest {tilt:+d}")
      for tilt in (-1, 0, 1)],
])
def test_decoders_agree_on_halfway_numbers(tmp_path, texts):
    lines = []
    for k in range(0, len(texts), 4):
        loads = (texts[k:k + 4] + ["1"] * 3)[:4]
        temps = f', "temp_c": {array("-" + t for t in loads)}'
        if max(map(float, loads)) > 1000:
            temps = ""
        lines.append(f'{{"date": "{day(k // 4)}", "quality": "complete", '
                     f'"load_mw": {array(loads)}{temps}}}')
    outcome = assert_decoders_agree(tmp_path / "h.jsonl", lines)
    # Python's `float` rounds a decimal text correctly, so it is the oracle too
    want = [float(t) for t in texts]
    if all(map(math.isfinite, want)):
        assert np.frombuffer(outcome[3])[:len(want)].tolist() == want
    else:
        assert outcome.endswith((":2: load values must be finite",
                                 ":2: int too large to convert to float"))


# The reader against the reader it replaced (`read_history_jsonl_oracle`), which
# sent every line through one checking function, first with orjson, then with
# the stdlib decoder: the same columns to the byte, or the same error text.

def assert_reads_as_the_oracle(path, text: str):
    """Both readers give the file `text` one outcome, which is returned."""
    path.write_bytes(text.encode("utf-8", "surrogatepass"))
    outcome = read_outcome(path)
    assert outcome == read_outcome(path, read_history_jsonl_oracle)
    return outcome


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(*map(record_lines, range(n)))),
       st.sampled_from(["\n", "\r\n", "\n\n"]))
def test_reader_reads_as_the_oracle(tmp_path_factory, lines, end):
    text = end.join([HEADER, *lines]) + end
    assert_reads_as_the_oracle(tmp_path_factory.getbasetemp() / "oracle.jsonl", text)


NULLS = f'{RECORD[:-1]}, "temp_c": [null, null, null, null]}}'
NEGATIVE = NEXT.replace("[1, 2, 3, 4]", "[1, -2, 3, 4]")
DEEP = f', "note": {"[" * 5000}{"]" * 5000}}}'  # orjson reads it, the stdlib decoder does not


@pytest.mark.parametrize("lines, message", [
    # a line whose temperatures are all null is named before a later bad value
    ([NULLS, NEGATIVE], ":2: temperature mask must be nonempty"),
    ([NULLS, '{"date": "2010-01-06", "quality"'], ":2: temperature mask must be nonempty"),
    ([NULLS, NEXT.replace("complete", "rejected")], ":2: temperature mask must be nonempty"),
    ([NULLS.replace("2010-01-05", "2010-01-07"), RECORD],
     ":2: temperature mask must be nonempty"),
    # and after an earlier one, or a bad value of its own line
    ([RECORD.replace("[1, 2, 3, 4]", "[1, -2, 3, 4]"), NULLS.replace("05", "06")],
     ":2: load values must be nonnegative"),
    ([RECORD.replace('"complete"', '"bad"'), NULLS.replace("05", "06")],
     ":2: 'bad' is not a valid Quality"),
    ([NULLS.replace("[1, 2, 3, 4]", "[1, -2, 3, 4]")], ":2: load values must be nonnegative"),
    ([RECORD, NULLS.replace("05", "06"), NEGATIVE.replace("06", "07")],
     ":3: temperature mask must be nonempty"),
    # the stdlib decoder's error stands
    ([NULLS[:-1] + DEEP, NEGATIVE], ":2: maximum recursion depth exceeded"),
    # and where orjson's reading failed a check, the rows it filled before it do
    ([NEGATIVE[:-1] + ', "temp_c": ["x"]' + DEEP], ":2: load values must be nonnegative"),
    # a first temperature null is no mask of nulls
    ([NULLS.replace("[null, null", "[null, 2"), NEGATIVE], ":3: load values must be nonnegative"),
])
def test_all_null_temperatures_keep_their_place(tmp_path, lines, message):
    outcome = assert_reads_as_the_oracle(tmp_path / "h.jsonl", "\n".join([HEADER, *lines]))
    assert message in outcome


def test_good_lines_never_reach_the_stdlib_decoder(tmp_path):
    path = tmp_path / "h.jsonl"
    good = [
        RECORD,  # integer-spelled loads
        f'{NEXT[:-1]}, "temp_c": [null, 2.5, null, 4]}}',  # a partial mask, null first
        NEXT.replace("2010-01-06", "2010-01-07").replace('"quality"',
                                                         '"quality": "bad", "quality"'),
    ]
    # the header line is the one `json.loads` reads
    spy = mock.patch.object(history.json, "loads", wraps=history.json.loads)
    path.write_text("\n".join([HEADER, *good]) + "\n")
    with spy as decode:
        window = read_history_jsonl(path)
    assert decode.call_args_list == [mock.call(HEADER)]
    # more brackets than orjson may nest, though they nest one deep: that line
    # alone is read by the stdlib decoder, whatever orjson's version
    good[1] = good[1][:-1] + ', "note": [' + ", ".join(["[]"] * history._ORJSON_DEPTH) + "]}"
    path.write_text("\n".join([HEADER, *good]) + "\n")
    with spy as decode:
        again = read_history_jsonl(path)
    assert decode.call_count == 2
    assert decode.call_args_list[1].args == (good[1],)
    assert (again.loads.tobytes(), again.temps.tobytes(), again.quality) == (
        window.loads.tobytes(), window.temps.tobytes(), window.quality)


def test_long_lines_read_as_the_oracle(tmp_path):
    # a minute grid: record lines of about 50,000 characters, past the length at
    # which the reader counts a line's brackets before orjson sees it
    grid = TimeGrid.equidistant(1440)
    rng = np.random.default_rng(1440)
    temps = rng.uniform(-30, 40, (4, 1440))
    temps[1, 100:900] = np.nan
    temps[3] = np.nan
    window = HistoryWindow(grid, tuple(map(day, range(4))), rng.uniform(0, 900, (4, 1440)), temps)
    text = history_jsonl_text(window)
    lines = text.splitlines()
    assert min(map(len, lines[1:])) > 20_000
    outcome = assert_reads_as_the_oracle(tmp_path / "h.jsonl", text)
    assert outcome[3] == window.loads.tobytes() and outcome[4] == window.temps.tobytes()
    # row 1's temperatures all null, and a negative load on row 2 after it
    lines[2] = lines[2][:-1] + ', "temp_c": [' + ", ".join(["null"] * 1440) + "]}"
    lines[3] = lines[3].replace('"load_mw": [', '"load_mw": [-', 1)
    outcome = assert_reads_as_the_oracle(tmp_path / "h.jsonl", "\n".join(lines))
    assert outcome.endswith(":3: temperature mask must be nonempty")


MIXED_DATES = (day(0), day(1), day(2), day(4))  # Mon, Tue, Wed, Fri; Thursday left out


@pytest.fixture
def mixed(grid4):
    """A holiday, a gap-filled day, a partial temperature and a day without one."""
    nan = np.nan
    return HistoryWindow(
        grid4,
        MIXED_DATES,
        [[1.0, 2.0, 4.0, 2.0], [10.0, 5.0, 20.0, 40.0], [3.0, 3.0, 6.0, 1.5],
         [7.0, 8.0, 9.0, 10.0]],
        [[20.0, 21.0, 22.0, 23.0], [nan, 21.0, nan, 24.0], [-5.0, 0.0, 5.0, 999.0],
         [nan, nan, nan, nan]],
        [False, False, True, False],
        (Quality.COMPLETE, Quality.GAP_FILLED, Quality.COMPLETE, Quality.COMPLETE),
    )


MIXED_EDITS = {
    "as written": lambda line: line,
    "a negative load": lambda line: line.replace('"load_mw": [', '"load_mw": [-', 1),
    "null temperatures": lambda line: line[:-1] + ', "temp_c": [null, null, null, null]}',
    "a bad quality": lambda line: line.replace('"quality": "', '"quality": "x', 1),
    "truncated": lambda line: line[:-2],
}


@pytest.mark.parametrize("end", ["\n", "\r\n", "\n\n"])
@pytest.mark.parametrize("row", range(len(MIXED_DATES)))
@pytest.mark.parametrize("edit", list(MIXED_EDITS))
def test_mixed_reads_as_the_oracle(mixed, tmp_path, edit, row, end):
    lines = history_jsonl_text(mixed).splitlines()
    lines[row + 1] = MIXED_EDITS[edit](lines[row + 1])
    assert_reads_as_the_oracle(tmp_path / "h.jsonl", end.join(lines) + end)


def assert_same_columns(a: HistoryWindow, b: HistoryWindow) -> None:
    assert a.grid == b.grid
    assert a.dates == b.dates
    assert a.quality == b.quality
    for name in ("is_holiday", "group", "loads", "temps"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape
        assert x.tobytes() == y.tobytes(), name


class TestColumns:
    def test_records_view_equals_day_by_day_records(self, mixed, grid4):
        # the view the benchmark's input builder reads, day by day: `meta`,
        # `load.values`, and `temperature.values` or None
        nan = np.nan
        temps = ([20.0, 21.0, 22.0, 23.0], [nan, 21.0, nan, 24.0], [-5.0, 0.0, 5.0, 999.0],
                 None)
        loads = ([1.0, 2.0, 4.0, 2.0], [10.0, 5.0, 20.0, 40.0], [3.0, 3.0, 6.0, 1.5],
                 [7.0, 8.0, 9.0, 10.0])
        quality = (Quality.COMPLETE, Quality.GAP_FILLED, Quality.COMPLETE, Quality.COMPLETE)
        assert len(mixed.records) == len(MIXED_DATES)
        for got, date, load, temp, q in zip(mixed.records, MIXED_DATES, loads, temps, quality):
            assert got.meta == annotate_calendar(date, {day(2)})
            assert got.quality is q
            assert got.load.grid == grid4
            assert got.load.values.tobytes() == np.array(load).tobytes()
            assert (got.temperature is None) == (temp is None)
            if temp is not None:
                assert got.temperature.grid == grid4
                assert got.temperature.values.tobytes() == np.array(temp).tobytes()
        expected_groups = [annotate_calendar(date, {day(2)}).group for date in MIXED_DATES]
        assert [GROUPS[g] for g in mixed.group] == expected_groups

    def test_day_without_temperature_is_an_all_nan_row(self, mixed):
        assert np.isnan(mixed.temps[3]).all()
        observed = ~np.isnan(mixed.temps[1])
        assert observed.tolist() == [False, True, False, True]

    def test_jsonl_roundtrip_byte_for_byte(self, mixed, tmp_path):
        path = tmp_path / "h.jsonl"
        write_history(path, mixed)
        back = read_history_jsonl(path)
        assert history_jsonl_text(back) == path.read_text(encoding="utf-8")
        assert_same_columns(back, mixed)
        assert_same_rows(back, mixed, range(len(mixed)))

    def test_jsonl_temperature_keys(self, mixed):
        lines = [json.loads(line) for line in history_jsonl_text(mixed).splitlines()[1:]]
        assert lines[1]["temp_c"] == [None, 21.0, None, 24.0]
        assert "temp_c" not in lines[3]
        assert [d["group"] for d in lines] == ["G1", "G1", "HOLIDAY", "G1"]
        assert [d["quality"] for d in lines] == [
            "complete", "gap-filled", "complete", "complete"
        ]

    @pytest.mark.parametrize("built", [(), ("shapes",)])
    def test_prefix_slices_every_column(self, mixed, built):
        for name in built:
            getattr(mixed, name)
        for n in range(len(mixed) + 1):
            prefix = mixed.span(0, n)
            assert len(prefix) == n
            assert prefix.grid == mixed.grid
            assert prefix.dates == mixed.dates[:n]
            assert prefix.quality == mixed.quality[:n]
            for name in ("is_holiday", "group", "has_temps", "loads", "temps", "peaks",
                         "shapes"):
                got, whole = getattr(prefix, name), getattr(mixed, name)
                assert got.tobytes() == whole[:n].tobytes(), name
                assert np.shares_memory(got, whole) or not n, name
            assert_same_rows(prefix, mixed, range(n))

    def test_before_and_row_slice_every_column(self, mixed):
        for i, date in enumerate(mixed.dates):
            assert_same_columns(mixed.before(date), mixed.span(0, i))
            assert mixed.meta(mixed.row(date)) == mixed.meta(i)
            assert mixed.row(date) == i
        assert_same_columns(mixed.before(day(3)), mixed.span(0, 3))

    def test_prefixes_share_one_shapes_matrix(self, mixed):
        # neither the window's nor any prefix's shapes are built beforehand
        short, longer = mixed.span(0, 2), mixed.span(0, 3)
        assert np.shares_memory(short.shapes, longer.shapes)
        assert np.shares_memory(short.shapes, mixed.shapes)
        assert short.shapes.tobytes() == mixed.shapes[:2].tobytes()

    def test_peaks_are_each_days_maximum(self, mixed):
        assert mixed.peaks.tobytes() == mixed.loads.max(axis=1).tobytes()
        span = mixed.span(1, 3)
        assert span.peaks.tobytes() == mixed.peaks[1:3].tobytes()
        assert np.shares_memory(span.peaks, mixed.peaks)
        for window in (mixed, span):
            assert not window.peaks.flags.writeable
            with pytest.raises(ValueError):
                window.peaks[0] = 0.0

    def test_zero_day_window_reads_its_peaks(self, grid4):
        # the window holding a zero day builds; only a span holding it fails `shapes`
        window = make_history(grid4, START, [[1.0, 2.0, 4.0, 2.0], [0.0] * 4, [1.0] * 4])
        assert window.peaks.tolist() == [4.0, 0.0, 1.0]
        for start, stop in [(0, 1), (2, 3), (0, 0), (0, 2), (1, 2), (1, 3), (0, 3)]:
            span = window.span(start, stop)
            assert span.peaks.tolist() == [4.0, 0.0, 1.0][start:stop]
            if start <= 1 < stop:
                with pytest.raises(ShapecastError, match=f"{day(1)}: .*nonpositive maximum"):
                    span.shapes
            else:
                assert span.shapes.tobytes() == (span.loads / span.peaks[:, None]).tobytes()

    def test_nonpositive_day_fails_only_windows_holding_it(self, grid4):
        window = make_history(
            grid4, START, [[1.0, 2.0, 4.0, 2.0], [1.0, 1.0, 1.0, 2.0], [0.0] * 4]
        )
        short = window.span(0, 2)
        with pytest.raises(ShapecastError, match="nonpositive maximum"):
            window.shapes
        np.testing.assert_array_equal(short.shapes[1], [0.5, 0.5, 0.5, 1.0])
        with pytest.raises(ShapecastError, match="nonpositive maximum"):
            window.span(2, 3).shapes


def readings_csv(header: str, days) -> str:
    """A raw CSV on the 4-point grid: one reading per grid point of each (date, values)."""
    rows = [header]
    for date, values in days:
        rows += [f"{date}T{h:02d}:00,{v}" for h, v in zip((0, 6, 12, 18), values)]
    return "\n".join(rows) + "\n"


def has_temps_windows(tmp_path, mixed):
    """Windows from the reader, ingest and the lab, each but the lab's with a day unobserved."""
    path = tmp_path / "h.jsonl"
    write_history(path, mixed)
    assert ['"temp_c"' in line for line in path.read_text().splitlines()[1:]] == [
        True, True, True, False]
    loads = readings_csv("timestamp,load_mw", [(day(n), [1, 2, 3, 4]) for n in range(4)])
    # day 1 has no temperature reading, day 2 only one
    temps = readings_csv("timestamp,temp_c", [(day(0), [5, 6, 7, 8]), (day(3), [9, 9, 9, 9])])
    temps += f"{day(2)}T06:00,4.5\n"
    ingested, _ = segmentize(parse_load_file(loads), mixed.grid,
                             temps=parse_temperature_history(temps))
    assert ingested.dates == tuple(map(day, range(4)))
    generated, _ = generate(SyntheticSpec(mixed.grid, 9, seed=4))
    return {"read": read_history_jsonl(path), "ingested": ingested, "generated": generated}


def test_has_temps_column(mixed, tmp_path):
    windows = has_temps_windows(tmp_path, mixed)
    assert windows["read"].has_temps.tolist() == [True, True, True, False]
    assert windows["ingested"].has_temps.tolist() == [True, False, True, True]
    assert windows["generated"].has_temps.all()
    for name, window in windows.items():
        n = len(window)
        for start, stop in [(0, n), (1, 3), (2, n), (0, 0), (3, 2), (-2, n)]:
            span = window.span(start, stop)
            column = span.has_temps
            expected = ~np.isnan(span.temps).all(axis=1)
            assert column.dtype == bool and column.tobytes() == expected.tobytes(), name
            assert column.tobytes() == window.has_temps[start:stop].tobytes(), name
            assert len(column) == len(span.dates) == len(span.loads), name
            assert np.shares_memory(column, window.has_temps) or not len(column), name
            assert not column.flags.writeable, name
            if len(column):
                with pytest.raises(ValueError):
                    column[0] = not column[0]


def masked_shapes(loads: np.ndarray) -> np.ndarray:
    """The shape rows by a masked division: a zero day's row stays +0."""
    peaks = loads.max(axis=1, keepdims=True)
    return np.divide(loads, peaks, out=np.zeros_like(loads), where=peaks > 0)


SHAPE_ROWS = {
    "tiny": [[5e-324, 0.0, 1e-323, 2.5e-323], [1e-310, 3e-310, 2e-310, 1e-311],
             [1e-300, 7e-301, 3e-300, 2.9999999999999997e-300]],
    "huge": [[1e308, 1.7976931348623157e308, 5e307, 0.0], [1e300, 3e300, 2e300, 1e300],
             [9e307, 9e307, 1.7e308, 1e-300]],
    "equal maxima": [[3.0, 7.0, 7.0, 1.0], [2.0] * 4, [0.1, 0.3, 0.30000000000000004, 0.3]],
}


@pytest.mark.parametrize("rows", list(SHAPE_ROWS))
def test_shapes_are_the_masked_division(grid4, rows):
    window = make_history(grid4, START, SHAPE_ROWS[rows])
    expected = masked_shapes(window.loads)
    assert window.shapes.tobytes() == expected.tobytes()
    for start, stop in [(0, 1), (1, 3), (2, 3)]:
        assert window.span(start, stop).shapes.tobytes() == expected[start:stop].tobytes()


def test_zero_day_with_a_negative_zero(grid4):
    loads = np.array([[1.0, 2.0, 4.0, 2.0], [0.0, -0.0, 0.0, 0.0], [3.0, 1.5, 6.0, 6.0]])
    window = make_history(grid4, START, loads)
    message = f"^{day(1)}: cannot rescale a segment with nonpositive maximum$"
    for start, stop in [(0, 3), (1, 2), (0, 2), (1, 3)]:
        with pytest.raises(ShapecastError, match=message):
            window.span(start, stop).shapes
    expected = masked_shapes(loads)
    for start, stop in [(0, 1), (2, 3)]:
        assert window.span(start, stop).shapes.tobytes() == expected[start:stop].tobytes()


def json_row(values) -> bytes:
    """A row as the stdlib writes it, NaN as `null`."""
    return json.dumps([None if v != v else v for v in values]).encode()


class TestWriter:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.lists(st.floats(allow_infinity=False)
                             | st.sampled_from([*FLOAT_EDGES, math.nan]),
                             min_size=4, max_size=4), min_size=1, max_size=6))
    def test_row_text_is_json_dumps(self, rows):
        assert list(history._rows_text(np.array(rows))) == list(map(json_row, rows))

    def test_rows_off_orjson_plain_notation_roundtrip(self, tmp_path, grid4):
        nan = np.nan
        window = HistoryWindow(
            grid4,
            MIXED_DATES + (day(5),),
            [[1e-5, 2.0, 3.0, 4.0], [3e17, 1.0, 2.0, 3.0], [5e-324, 1.0, 0.5, 2.0],
             [0.0] * 4, [1.0, 2.0, 3.0, 4.0]],
            [[nan, 21.0, nan, 24.0], [-1e-5, nan, nan, 3.0], [nan] * 4,
             [20.0, 1e-5, 0.0, -0.0], [10.0, 11.0, 12.0, 13.0]],
            [False, False, True, False, False],
            (Quality.COMPLETE, Quality.GAP_FILLED, Quality.COMPLETE, Quality.COMPLETE,
             Quality.GAP_FILLED),
        )
        text = history_jsonl_text(window)
        assert text == history_jsonl_oracle(window)
        path = tmp_path / "h.jsonl"
        path.write_text(text, encoding="utf-8")
        back = read_history_jsonl(path)
        assert history_jsonl_text(back) == text
        assert_same_columns(back, window)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.data())
    def test_history_text_is_the_oracle(self, data):
        n = data.draw(st.integers(0, 8))
        loads = st.floats(0.0, 1e300) | st.sampled_from([x for x in FLOAT_EDGES if x >= 0])
        temps = (st.floats(-1000.0, 1000.0) | st.just(np.nan)
                 | st.sampled_from([x for x in FLOAT_EDGES if abs(x) <= 1000]))
        window = HistoryWindow(
            TimeGrid.equidistant(4),
            tuple(START + dt.timedelta(days=k) for k in sorted(data.draw(
                st.sets(st.integers(0, 30), min_size=n, max_size=n)))),
            np.array(data.draw(st.lists(st.lists(loads, min_size=4, max_size=4),
                                        min_size=n, max_size=n))).reshape(n, 4),
            np.array(data.draw(st.lists(st.lists(temps, min_size=4, max_size=4),
                                        min_size=n, max_size=n))).reshape(n, 4),
            data.draw(st.lists(st.booleans(), min_size=n, max_size=n)),
            tuple(data.draw(st.lists(st.sampled_from([Quality.COMPLETE, Quality.GAP_FILLED]),
                                     min_size=n, max_size=n))),
        )
        assert history_jsonl_text(window) == history_jsonl_oracle(window)


class TestConstructor:
    def build(self, grid4, loads=((1.0, 2.0, 3.0, 4.0),), temps=None, **kwargs):
        """A one-day window, `START`."""
        temps = np.full((len(loads), 4), np.nan) if temps is None else temps
        return HistoryWindow(grid4, (START,), loads, temps, **kwargs)

    def test_defaults(self, grid4):
        window = self.build(grid4)
        assert window.quality == (Quality.COMPLETE,)
        assert window.is_holiday.tolist() == [False]

    def test_keeps_and_freezes_its_arrays(self, grid4):
        loads = np.array([[1.0, 2.0, 3.0, 4.0]])
        window = self.build(grid4, loads)
        assert window.loads is loads
        with pytest.raises(ValueError):
            loads[0, 0] = 9.0
        for name in ("loads", "temps", "is_holiday", "group"):
            assert not getattr(window, name).flags.writeable, name

    def test_copies_a_view(self, grid4):
        base = np.array([[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]])
        window = self.build(grid4, base[:1], np.full((2, 4), np.nan)[:1])
        assert not np.shares_memory(window.loads, base)
        base[0, 0] = -1.0  # the caller's array stays writable, the window unchanged
        assert window.loads.tolist() == [[1.0, 2.0, 3.0, 4.0]]
        np.testing.assert_array_equal(window.shapes, [[0.25, 0.5, 0.75, 1.0]])

    def test_bad_day_error_names_its_row(self, grid4):
        loads = [[1.0, 2.0, 3.0, 4.0], [1.0, -1.0, 3.0, 4.0], [-1.0, 2.0, 3.0, 4.0]]
        dates = tuple(START + dt.timedelta(days=i) for i in range(3))
        with pytest.raises(ShapecastError, match="nonnegative") as info:
            HistoryWindow(grid4, dates, loads, np.full((3, 4), np.nan))
        assert info.value.row == 1

    @pytest.mark.parametrize("kwargs", [
        {"loads": [[1.0, 2.0, 3.0]]},
        {"loads": [[1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0]]},
        {"temps": [[1.0, 2.0]]},
        {"is_holiday": [False, True]},
        {"quality": ()},
    ])
    def test_column_shapes_checked(self, grid4, kwargs):
        with pytest.raises(GridMismatchError, match="every column needs 1 days of 4"):
            self.build(grid4, **kwargs)

    @pytest.mark.parametrize("loads, temps, message", [
        ([[1.0, -1.0, 3.0, 4.0]], None, "load values must be nonnegative"),
        ([[1.0, np.inf, 3.0, 4.0]], None, "load values must be finite"),
        ([[1.0, np.nan, 3.0, 4.0]], None, "load values must be finite"),
        ([[1.0, 2.0, 3.0, 4.0]], [[np.nan, 1001.0, 0.0, 0.0]], "within ±1000 °C"),
        ([[1.0, 2.0, 3.0, 4.0]], [[-np.inf, 0.0, 0.0, 0.0]], "within ±1000 °C"),
    ])
    def test_rows_checked(self, grid4, loads, temps, message):
        with pytest.raises(ShapecastError, match=message):
            self.build(grid4, loads, temps)

    def test_rejected_day_refused(self, grid4):
        with pytest.raises(ShapecastError, match="rejected"):
            self.build(grid4, quality=(Quality.REJECTED,))
