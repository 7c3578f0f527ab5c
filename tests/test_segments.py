import datetime as dt

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import distance, make_history, out_of_place
from shapecast.baselines import predict_persistence
from shapecast.calendars import DayGroup
from shapecast.errors import GridMismatchError, ShapecastError
from shapecast.segments import (
    DistanceKind,
    LoadSegment,
    TemperatureSegment,
    TimeGrid,
    distances,
)

finite_floats = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
vectors = st.integers(2, 12).flatmap(
    lambda n: st.lists(finite_floats, min_size=n, max_size=n)
)


class TestTimeGrid:
    @pytest.mark.parametrize("labels", [(0, 60), ("00:00", None)])
    def test_rejects_non_string_labels(self, labels):
        with pytest.raises(ShapecastError, match="bad grid label"):
            TimeGrid(labels)

    @pytest.mark.parametrize("label", ["24:00", "23:60", "-1:00"])
    def test_rejects_label_outside_the_day(self, label):
        with pytest.raises(ShapecastError, match=f"^grid label '{label}' outside the day$"):
            TimeGrid(("00:00", label))

    def test_quarter_hourly(self):
        grid = TimeGrid.equidistant(96)
        assert grid.points_per_day == 96
        assert grid.labels[0] == "00:00"
        assert grid.labels[-1] == "23:45"
        assert grid.index_of("08:00") == 32

    def test_rejects_non_equidistant(self):
        with pytest.raises(ShapecastError):
            TimeGrid(("00:00", "01:00", "03:00"))

    def test_rejects_decreasing(self):
        with pytest.raises(ShapecastError):
            TimeGrid(("01:00", "00:30"))

    def test_rejects_single_point(self):
        with pytest.raises(ShapecastError):
            TimeGrid(("00:00",))

    def test_rejects_non_divisor(self):
        with pytest.raises(ShapecastError):
            TimeGrid.equidistant(7)

    def test_minutes_built_once_and_read_only(self, monkeypatch):
        import shapecast.segments as segments

        grid = TimeGrid.equidistant(96)
        assert grid == TimeGrid.equidistant(96)
        calls = []
        monkeypatch.setattr(segments, "_label_to_minutes",
                            lambda label: calls.append(label) or 0)
        assert grid.minutes is grid.minutes
        assert not calls
        assert grid.minutes[:3].tolist() == [0, 15, 30]
        assert not grid.minutes.flags.writeable
        with pytest.raises(ValueError):
            grid.minutes[0] = 5


def one_row(a, b, kind=DistanceKind.EUCLIDEAN) -> float:
    """`distances` of the one-row matrix `a[None]` to `b`."""
    (d,) = distances(np.asarray(a, dtype=float)[None], b, kind)
    return float(d)


class TestDistance:
    """One pair's contract, through a one-row `distances`."""

    def test_identity(self):
        a = [1.0, 2.5, 3.0]
        assert one_row(a, a) == 0.0

    def test_3_4_5_triangle(self):
        assert one_row([0.0, 0.0], [3.0, 4.0]) == 5.0

    def test_mean_absolute(self):
        assert one_row([0.0, 0.0], [3.0, 4.0], DistanceKind.MEAN_ABSOLUTE) == pytest.approx(3.5)

    def test_max_absolute(self):
        assert one_row([0.0, 0.0], [3.0, 4.0], "max-absolute") == 4.0

    def test_unknown_kind_refused(self):
        with pytest.raises(ValueError, match="'bogus' is not a valid DistanceKind"):
            one_row([0.0, 0.0], [3.0, 4.0], "bogus")
        with pytest.raises(ValueError, match="'bogus' is not a valid DistanceKind"):
            distances(np.zeros((3, 2)), np.zeros(2), "bogus")

    def test_length_mismatch(self):
        with pytest.raises(GridMismatchError):
            one_row([1.0], [1.0, 2.0])

    @given(vectors, st.sampled_from(list(DistanceKind)))
    def test_symmetry_and_nonnegativity(self, a, kind):
        b = list(reversed(a))
        d_ab = one_row(a, b, kind)
        assert d_ab >= 0.0
        assert d_ab == one_row(b, a, kind)

    @given(
        st.integers(2, 8).flatmap(
            lambda n: st.tuples(
                *(st.lists(finite_floats, min_size=n, max_size=n) for _ in range(3))
            )
        ),
        st.sampled_from(list(DistanceKind)),
    )
    def test_triangle_inequality(self, abc, kind):
        a, b, c = abc
        assert one_row(a, c, kind) <= one_row(a, b, kind) + one_row(b, c, kind) + 1e-9

    @given(vectors, st.floats(-100, 100, allow_nan=False))
    def test_euclidean_homogeneity(self, a, c):
        b = [x + 1.0 for x in a]
        scaled = one_row([c * x for x in a], [c * x for x in b])
        assert scaled == pytest.approx(abs(c) * one_row(a, b), rel=1e-9, abs=1e-9)


class TestDistances:
    # `subset` names the compared points, as a forecast's observed points do
    # when reference selection slices the candidates' columns to them; the
    # L x 96 cases are a backtest's 3- and 10-year prefixes
    @pytest.mark.parametrize("kind", list(DistanceKind))
    @pytest.mark.parametrize("subset", [None, (0,), (1, 5, 6), tuple(range(0, 96, 3))])
    @pytest.mark.parametrize("P, L", [(7, 40), (24, 40), (96, 40), (96, 1095), (96, 3650)],
                             ids=["7", "24", "96", "96x1095", "96x3650"])
    def test_rows_equal_distance_bit_for_bit(self, kind, subset, P, L):
        rng = np.random.default_rng(P)
        points = [i for i in subset if i < P] if subset else list(range(P))
        M = (rng.random((L, P)) * 500.0)[:, points]
        v = (rng.random(P) * 500.0)[points]
        expected = np.array([distance(row, v, kind) for row in M])
        assert np.array_equal(distances(M, v, kind), expected)
        V = rng.random((L, P))[:, points]
        paired = np.array([distance(a, b, kind) for a, b in zip(M, V)])
        assert np.array_equal(distances(M, V, kind), paired)

    def test_grid_length_mismatch(self):
        with pytest.raises(GridMismatchError):
            distances(np.zeros((3, 4)), np.zeros(5))
        with pytest.raises(GridMismatchError):
            distances(np.zeros((3, 4)), np.zeros((2, 4)))
        with pytest.raises(GridMismatchError):
            distances(np.zeros(4), np.zeros(4))

    def test_empty_matrix(self):
        assert distances(np.empty((0, 4)), np.zeros(4)).shape == (0,)

    @pytest.mark.parametrize("kind", list(DistanceKind))
    @pytest.mark.parametrize("paired", [False, True])
    def test_inputs_unwritten_results_as_out_of_place(self, kind, paired):
        # the metric works in place on its difference array, never on an input:
        # a float64 C-order `M` is passed on uncopied, as are `a` and `b`
        rng = np.random.default_rng(5)
        M = rng.normal(0, 300, (60, 96))
        M[0, :4] = [-0.0, 5e-324, -1e150, 1e-160]
        v = rng.normal(0, 300, M.shape if paired else 96)
        M0, v0 = M.copy(), v.copy()
        assert np.shares_memory(np.ascontiguousarray(M, dtype=float), M)
        got = distances(M, v, kind)
        assert M.tobytes() == M0.tobytes() and v.tobytes() == v0.tobytes()
        assert got.tobytes() == out_of_place(M0 - v0, kind).tobytes()
        for a, b in zip(M, v if paired else [v] * len(M)):
            a0, b0 = a.copy(), b.copy()
            assert one_row(a, b, kind) == float(out_of_place(a0 - b0, kind))
            assert a.tobytes() == a0.tobytes() and b.tobytes() == b0.tobytes()


def one_day(grid, load):
    """A one-day window; its shape is the day's load over its maximum."""
    return make_history(grid, dt.date(2010, 6, 7), [load])


class TestRescale:
    """Rows of the history's shapes: the whole matrix, a one-row span's, and the
    row `predict_persistence` returns, which a one-row span builds."""

    def test_direct_division(self, grid4):
        grid3 = TimeGrid(("00:00", "08:00", "16:00"))
        window = one_day(grid3, [100.0, 200.0, 400.0])
        assert np.array_equal(predict_persistence(window, DayGroup.G1), [0.25, 0.5, 1.0])
        assert np.array_equal(window.shapes[0], [0.25, 0.5, 1.0])

    def test_constant_day(self):
        grid3 = TimeGrid(("00:00", "08:00", "16:00"))
        window = one_day(grid3, [5.0, 5.0, 5.0])
        assert np.array_equal(window.span(0, 1).shapes[0], [1.0, 1.0, 1.0])

    def test_max_exactly_one(self, grid24):
        rng = np.random.default_rng(3)
        for _ in range(50):
            window = one_day(grid24, 1e-3 + rng.random(24) * 700)
            shape = predict_persistence(window, DayGroup.G1)
            assert np.max(shape) == 1.0
            assert shape.tobytes() == window.shapes[0].tobytes()

    def test_roundtrip(self, grid24):
        rng = np.random.default_rng(4)
        for _ in range(50):
            raw = 1e-3 + rng.random(24) * 700
            shaped = one_day(grid24, raw).span(0, 1).shapes[0]
            back = shaped * np.max(raw)
            # one division and one multiplication each cost at most an ulp
            np.testing.assert_allclose(back, raw, rtol=1e-15)

    def test_all_zero_rejected(self, grid4):
        window = one_day(grid4, [0.0, 0.0, 0.0, 0.0])
        with pytest.raises(ShapecastError):
            predict_persistence(window, DayGroup.G1)
        with pytest.raises(ShapecastError):
            window.shapes

    def test_negative_values_rejected(self, grid4):
        with pytest.raises(ShapecastError):
            LoadSegment(grid4, [1.0, -2.0, 3.0, 4.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, grid4, bad):
        with pytest.raises(ShapecastError, match="^load values must be finite$"):
            LoadSegment(grid4, [1.0, bad, 3.0, 4.0])


class TestTemperatureSegment:
    def test_empty_mask(self, grid4):
        with pytest.raises(ShapecastError, match="mask must be nonempty"):
            TemperatureSegment(grid4, [np.nan] * 4)

    def test_nan_allowed_off_mask(self, grid4):
        # the observed points are the non-NaN values; NaN compares equal here
        seg = TemperatureSegment(grid4, [np.nan, 10.0, np.nan, 30.0])
        np.testing.assert_array_equal(seg.values, [np.nan, 10.0, np.nan, 30.0])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, 1000.5, -1e200])
    def test_infinite_or_absurd_values_rejected(self, grid4, bad):
        with pytest.raises(ShapecastError, match="finite on the mask"):
            TemperatureSegment(grid4, [20.0, bad, np.nan, 21.0])

    def test_values_are_a_read_only_copy(self, grid4):
        raw = np.array([20.0, np.nan, 22.0, 23.0])
        seg = TemperatureSegment(grid4, raw)
        raw[0] = 99.0
        assert seg.values[0] == 20.0
        with pytest.raises(ValueError):
            seg.values[0] = 1.0
