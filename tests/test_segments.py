import numpy as np
import pytest
from hypothesis import given, strategies as st

from shapecast.errors import GridMismatchError, ShapecastError
from shapecast.segments import (
    DistanceKind,
    DistanceSpec,
    LoadSegment,
    TemperatureSegment,
    TimeGrid,
    distance,
    distances,
    rescale_day,
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


class TestDistance:
    def test_identity(self):
        a = [1.0, 2.5, 3.0]
        assert distance(a, a) == 0.0

    def test_3_4_5_triangle(self):
        assert distance([0.0, 0.0], [3.0, 4.0]) == 5.0

    def test_subset_restriction(self):
        spec = DistanceSpec(DistanceKind.EUCLIDEAN, (0,))
        assert distance([1.0, 100.0], [2.0, 0.0], spec) == 1.0

    def test_mean_absolute(self):
        spec = DistanceSpec(DistanceKind.MEAN_ABSOLUTE)
        assert distance([0.0, 0.0], [3.0, 4.0], spec) == pytest.approx(3.5)

    def test_max_absolute(self):
        spec = DistanceSpec(DistanceKind.MAX_ABSOLUTE)
        assert distance([0.0, 0.0], [3.0, 4.0], spec) == 4.0

    def test_length_mismatch(self):
        with pytest.raises(GridMismatchError):
            distance([1.0], [1.0, 2.0])

    def test_subset_out_of_bounds(self):
        with pytest.raises(GridMismatchError):
            distance([1.0, 2.0], [1.0, 2.0], DistanceSpec(point_subset=(5,)))

    def test_empty_subset_rejected(self):
        with pytest.raises(ShapecastError):
            DistanceSpec(point_subset=())

    @given(vectors, st.sampled_from(list(DistanceKind)))
    def test_symmetry_and_nonnegativity(self, a, kind):
        b = list(reversed(a))
        spec = DistanceSpec(kind)
        d_ab = distance(a, b, spec)
        assert d_ab >= 0.0
        assert d_ab == distance(b, a, spec)

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
        spec = DistanceSpec(kind)
        assert distance(a, c, spec) <= distance(a, b, spec) + distance(b, c, spec) + 1e-9

    @given(vectors, st.floats(-100, 100, allow_nan=False))
    def test_euclidean_homogeneity(self, a, c):
        b = [x + 1.0 for x in a]
        scaled = distance([c * x for x in a], [c * x for x in b])
        assert scaled == pytest.approx(abs(c) * distance(a, b), rel=1e-9, abs=1e-9)


class TestDistances:
    @pytest.mark.parametrize("kind", list(DistanceKind))
    @pytest.mark.parametrize("subset", [None, (0,), (1, 5, 6), tuple(range(0, 96, 3))])
    @pytest.mark.parametrize("P", [7, 24, 96])
    def test_rows_equal_distance_bit_for_bit(self, kind, subset, P):
        rng = np.random.default_rng(P)
        spec = DistanceSpec(kind, tuple(i for i in subset if i < P) if subset else None)
        M = rng.random((40, P)) * 500.0
        v = rng.random(P) * 500.0
        expected = np.array([distance(row, v, spec) for row in M])
        assert np.array_equal(distances(M, v, spec), expected)
        V = rng.random((40, P))
        paired = np.array([distance(a, b, spec) for a, b in zip(M, V)])
        assert np.array_equal(distances(M, V, spec), paired)

    @pytest.mark.parametrize("kind", list(DistanceKind))
    def test_subset_out_of_bounds(self, kind):
        spec = DistanceSpec(kind, (1, 4))
        with pytest.raises(GridMismatchError):
            distances(np.zeros((3, 4)), np.zeros(4), spec)
        with pytest.raises(GridMismatchError):
            distance(np.zeros(4), np.zeros(4), spec)

    def test_grid_length_mismatch(self):
        with pytest.raises(GridMismatchError):
            distances(np.zeros((3, 4)), np.zeros(5))
        with pytest.raises(GridMismatchError):
            distances(np.zeros((3, 4)), np.zeros((2, 4)))
        with pytest.raises(GridMismatchError):
            distances(np.zeros(4), np.zeros(4))

    def test_empty_matrix(self):
        assert distances(np.empty((0, 4)), np.zeros(4)).shape == (0,)


class TestRescale:
    def test_direct_division(self, grid4):
        grid3 = TimeGrid(("00:00", "08:00", "16:00"))
        seg = rescale_day(LoadSegment(grid3, [100.0, 200.0, 400.0]))
        assert np.array_equal(seg.values, [0.25, 0.5, 1.0])
        assert seg.scale == 400.0

    def test_constant_day(self):
        grid3 = TimeGrid(("00:00", "08:00", "16:00"))
        seg = rescale_day(LoadSegment(grid3, [5.0, 5.0, 5.0]))
        assert np.array_equal(seg.values, [1.0, 1.0, 1.0])
        assert seg.scale == 5.0

    def test_max_exactly_one(self, grid24):
        rng = np.random.default_rng(3)
        for _ in range(50):
            seg = rescale_day(LoadSegment(grid24, 1e-3 + rng.random(24) * 700))
            assert np.max(seg.values) == 1.0

    def test_roundtrip(self, grid24):
        rng = np.random.default_rng(4)
        for _ in range(50):
            raw = LoadSegment(grid24, 1e-3 + rng.random(24) * 700)
            shaped = rescale_day(raw)
            back = shaped.values * shaped.scale
            # one division and one multiplication each cost at most an ulp
            np.testing.assert_allclose(back, raw.values, rtol=1e-15)

    def test_all_zero_rejected(self, grid4):
        with pytest.raises(ShapecastError):
            rescale_day(LoadSegment(grid4, [0.0, 0.0, 0.0, 0.0]))

    def test_negative_values_rejected(self, grid4):
        with pytest.raises(ShapecastError):
            LoadSegment(grid4, [1.0, -2.0, 3.0, 4.0])


class TestTemperatureSegment:
    def test_mask_bounds(self, grid4):
        with pytest.raises(ShapecastError):
            TemperatureSegment(grid4, [1.0, 2.0, 3.0, 4.0], (9,))

    def test_empty_mask(self, grid4):
        with pytest.raises(ShapecastError):
            TemperatureSegment(grid4, [1.0, 2.0, 3.0, 4.0], ())

    def test_nan_allowed_off_mask(self, grid4):
        seg = TemperatureSegment(grid4, [np.nan, 20.0, np.nan, np.nan], (1,))
        assert seg.covers((1,))
        assert not seg.covers((0, 1))
