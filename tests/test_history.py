import datetime as dt
import json

import numpy as np
import pytest

from conftest import make_history
from shapecast.calendars import GROUPS, annotate_calendar
from shapecast.errors import GridMismatchError, ShapecastError
from shapecast.history import HistoryWindow, Quality, history_jsonl_text, read_history_jsonl


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

    @pytest.mark.parametrize("start, stop", [(1, 4), (2, 3), (3, 4), (4, 4), (6, 9)])
    def test_span_past_row_0_skips_days_outside_it(self, grid4, start, stop):
        # nonpositive days before and after the span do not spoil its shapes
        loads = [[0.0] * 4, [1.0, 2.0, 4.0, 2.0], [10.0, 5.0, 20.0, 40.0],
                 [3.0, 3.0, 6.0, 1.5], [0.0] * 4]
        window = make_history(grid4, START, loads)
        span = window.span(start, stop)
        assert span.dates == window.dates[start:stop]
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
            (f'{RECORD[:-1]}, "temp_c": [null, null, null, null]}}',
             "temperature mask must be nonempty"),
            (RECORD.replace("[1, 2, 3, 4]", "[1, -2, 3, 4]"),
             "load values must be nonnegative"),
            (f'{RECORD[:-1]}, "temp_c": [20, 1e400, null, 4]}}', "within ±1000"),
            ("\ufeff" + RECORD,
             r"Unexpected UTF-8 BOM \(decode using utf-8-sig\): line 1 column 1 \(char 0\)$"),
        ],
    )
    def test_bad_line_names_path_and_line(self, tmp_path, line, message):
        path = self.write(tmp_path, line)
        with pytest.raises(ShapecastError, match=message) as exc:
            read_history_jsonl(path)
        # the bad record is on line 4: header, good record, blank line
        assert str(exc.value).startswith(f"{path}:4: ")

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
            for name in ("is_holiday", "group", "loads", "temps", "shapes"):
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

    def test_nonpositive_day_fails_only_windows_holding_it(self, grid4):
        window = make_history(
            grid4, START, [[1.0, 2.0, 4.0, 2.0], [1.0, 1.0, 1.0, 2.0], [0.0] * 4]
        )
        short = window.span(0, 2)
        with pytest.raises(ShapecastError, match="nonpositive maximum"):
            window.shapes
        np.testing.assert_array_equal(short.shapes[1], [0.5, 0.5, 0.5, 1.0])
        with pytest.raises(ShapecastError, match="nonpositive maximum"):
            window.shape(2)


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
