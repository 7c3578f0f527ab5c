import datetime as dt
import re
import warnings

import numpy as np
import pytest

from conftest import distance, make_history
from shapecast.calendars import GROUPS, DayGroup
from shapecast.errors import (EmptyCandidateError, MissingTemperatureError,
                              ShapecastError)
from shapecast.history import HistoryWindow
from shapecast.reference import (
    ReferenceConfig,
    candidate_set,
    nearest,
    select_reference,
)
from shapecast.segments import (
    DistanceKind,
    TemperatureSegment,
    TimeGrid,
)

MONDAY = dt.date(2010, 6, 7)


def standard_history(grid, days, rng=None):
    rng = rng or np.random.default_rng(0)
    loads = 100.0 + 400.0 * rng.random((days, grid.points_per_day))
    temps = 15.0 + 10.0 * rng.random((days, grid.points_per_day))
    return make_history(grid, MONDAY, loads, temps)


def lookback(n_L):
    return ReferenceConfig(n_l_g1=n_L, n_l_default=n_L)


@pytest.mark.parametrize("field", ["n_l_g1", "n_l_default"])
@pytest.mark.parametrize("n_L", [0, -3])
def test_n_L_below_one_refused(field, n_L):
    with pytest.raises(ShapecastError, match="^n_L values must be >= 1$"):
        ReferenceConfig(**{field: n_L})


@pytest.mark.parametrize("field", ["n_l_g1", "n_l_default"])
@pytest.mark.parametrize("n_L", [2.5, 3.0, np.float64(3.0), True, np.True_, "3", None], ids=repr)
def test_n_L_that_is_not_whole_refused(field, n_L):
    with pytest.raises(ShapecastError, match=f"^n_L {re.escape(repr(n_L))} is not a whole number$"):
        ReferenceConfig(**{field: n_L})


def test_n_L_held_as_int():
    cfg = ReferenceConfig(n_l_g1=np.int64(3), n_l_default=np.int64(5))
    assert [cfg.n_L(g) for g in DayGroup] == [3, 5, 5, 5, 5]
    assert all(type(cfg.n_L(g)) is int for g in DayGroup)


@pytest.mark.parametrize("dists, c_star", [
    ([3.0, 1.0, 2.0], [1]),
    ([1.0, 2.0, 1.0], [0, 2]),
    ([0.0, 0.0, 0.0], [0, 1, 2]),
    ([5.0], [0]),
], ids=["unique", "pair", "all-zero", "single"])
def test_nearest_takes_every_candidate_at_the_minimum(dists, c_star):
    delta, mask = nearest(np.array(dists))
    assert type(delta) is float and delta == min(dists)
    assert mask.dtype == bool and np.flatnonzero(mask).tolist() == c_star


def test_nearest_keeps_a_near_tie_out():
    # one ulp above δ is not a tie: C* joins on exact equality only
    delta, mask = nearest(np.array([1.0, np.nextafter(1.0, 2.0)]))
    assert delta == 1.0 and mask.tolist() == [True, False]


class TestCandidateSet:
    def test_g1_in_14_trailing_days(self, grid4):
        history = standard_history(grid4, 14)
        candidates = candidate_set(history, DayGroup.G1, lookback(14))
        # two full weeks hold 4 G1 weekdays each
        assert len(candidates) == 8
        assert all(GROUPS[history.group[i]] is DayGroup.G1 for i in candidates)
        dates = [history.dates[i] for i in candidates]
        assert dates == sorted(dates)

    def test_g2_in_28_trailing_days(self, grid4):
        history = standard_history(grid4, 28)
        candidates = candidate_set(history, DayGroup.G2, lookback(28))
        assert len(candidates) == 4

    def test_short_history_without_group(self, grid4):
        history = standard_history(grid4, 3)  # Mon-Wed, no Saturday
        with pytest.raises(EmptyCandidateError):
            candidate_set(history, DayGroup.G3, lookback(14))

    def test_returns_row_indices(self, grid4):
        history = standard_history(grid4, 21)  # three weeks from a Monday
        rows = candidate_set(history, DayGroup.G4, lookback(14))
        assert rows.tolist() == [13, 20]

    def test_holiday_widened_with_sundays(self, grid4):
        rng = np.random.default_rng(0)
        days = 21
        draws = [(100.0 + 400.0 * rng.random(4), 15.0 + 10.0 * rng.random(4))
                 for _ in range(days)]
        loads, temps = map(np.array, zip(*draws))
        dates = tuple(MONDAY + dt.timedelta(days=i) for i in range(days))
        window = HistoryWindow(grid4, dates, loads, temps, np.arange(days) == 9)
        rows = candidate_set(window, DayGroup.HOLIDAY, lookback(14))
        # one holiday in the lookback is fewer than two: Sundays join it
        assert rows.tolist() == [9, 13, 20]
        # the widened pool keeps the holiday's lookback, G1's plays no part
        held = candidate_set(window, DayGroup.HOLIDAY, ReferenceConfig(n_l_g1=1, n_l_default=14))
        assert held.tolist() == rows.tolist()

    def test_window_limits_lookback(self, grid4):
        history = standard_history(grid4, 28)
        recent = candidate_set(history, DayGroup.G1, lookback(7))
        assert len(recent) == 4
        assert all(history.dates[i] >= MONDAY + dt.timedelta(days=21) for i in recent)


def temp_segment(grid, values):
    return TemperatureSegment(grid, values)


def shape_of(load):
    return load / load.max()


def select(window, forecast):
    """`select_reference` over every row of `window`."""
    return select_reference(window, np.arange(len(window)), forecast)


class TestSelectReference:
    def setup_method(self):
        self.grid = TimeGrid.equidistant(4)

    def window(self, *days):
        """Consecutive days from MONDAY, each a (load, temp) pair; temp None: unobserved."""
        temps = [[np.nan] * 4 if temp is None else temp for _, temp in days]
        loads = np.array([load for load, _ in days], dtype=float).reshape(-1, 4)
        return make_history(self.grid, MONDAY, loads,
                            np.array(temps, dtype=float).reshape(-1, 4))

    def random_window(self, rng, days):
        return self.window(*(
            (100.0 + 300.0 * rng.random(4), 15.0 + 10.0 * rng.random(4))
            for _ in range(days)
        ))

    def test_single_candidate_is_its_shape(self):
        window = self.window(([100.0, 200.0, 400.0, 300.0], [20.0] * 4))
        forecast = temp_segment(self.grid, [21.0] * 4)
        result = select(window, forecast)
        np.testing.assert_array_equal(result.reference, [0.25, 0.5, 1.0, 0.75])
        assert result.c_star == (window.dates[0],)

    def test_argmin_picks_closer_temperature(self):
        window = self.window(([100.0, 100.0, 200.0, 100.0], [20.0] * 4),
                             ([400.0, 400.0, 400.0, 400.0], [25.0] * 4))
        near, far = window.dates
        forecast = temp_segment(self.grid, [19.5] * 4)
        result = select(window, forecast)
        assert result.c_star == (near,)
        np.testing.assert_array_equal(result.reference, shape_of(window.loads[0]))
        assert result.temp_distances[near] == pytest.approx(1.0)
        assert result.temp_distances[far] == pytest.approx(11.0)

    def test_tied_minima_averaged(self):
        window = self.window(([100.0, 200.0, 400.0, 300.0], [18.0] * 4),
                             ([400.0, 200.0, 100.0, 300.0], [22.0] * 4))
        forecast = temp_segment(self.grid, [20.0] * 4)
        result = select(window, forecast)
        assert set(result.c_star) == set(window.dates)
        expected = (shape_of(window.loads[0]) + shape_of(window.loads[1])) / 2
        np.testing.assert_array_equal(result.reference, expected)

    def test_unique_minimizer_is_c_star_alone(self):
        rng = np.random.default_rng(5)
        window = self.random_window(rng, 6)
        forecast = temp_segment(self.grid, 15.0 + 10.0 * rng.random(4))
        result = select(window, forecast)
        nearest = min(result.temp_distances, key=result.temp_distances.get)
        assert result.c_star == (nearest,)
        assert result.delta == result.temp_distances[nearest]
        np.testing.assert_array_equal(result.reference, window.shapes[window.row(nearest)])

    def test_convex_hull_property(self):
        # temperatures from a two-row pool: the candidates tie in pairs or more
        rng = np.random.default_rng(9)
        pool = 15.0 + 10.0 * rng.random((2, 4))
        window = self.window(*((100.0 + 300.0 * rng.random(4), pool[i % 2]) for i in range(8)))
        result = select(window, temp_segment(self.grid, pool[1]))
        assert result.c_star == window.dates[1::2]
        shapes = np.array([shape_of(load) for load in window.loads])
        assert np.all(result.reference >= shapes[1::2].min(axis=0) - 1e-12)
        assert np.all(result.reference <= shapes[1::2].max(axis=0) + 1e-12)

    def test_argmin_invariant_under_deviation_scaling(self):
        rng = np.random.default_rng(13)
        forecast_vals = 20.0 + 2.0 * rng.random(4)
        deviations = [rng.standard_normal(4) for _ in range(6)]
        for c in (0.5, 1.0, 3.0):
            window = self.window(*(
                ([100.0 + i] * 4, forecast_vals + c * dev)
                for i, dev in enumerate(deviations)
            ))
            forecast = temp_segment(self.grid, forecast_vals)
            result = select(window, forecast)
            assert result.c_star == select(
                window, temp_segment(self.grid, forecast_vals)
            ).c_star

    def test_deterministic(self):
        rng = np.random.default_rng(21)
        window = self.random_window(rng, 6)
        forecast = temp_segment(self.grid, [20.0] * 4)
        r1 = select(window, forecast)
        r2 = select(window, forecast)
        assert r1.c_star == r2.c_star
        np.testing.assert_array_equal(r1.reference, r2.reference)

    def test_candidate_without_temperature_dropped(self):
        window = self.window(([100.0] * 4, [20.0] * 4), ([200.0] * 4, None))
        forecast = temp_segment(self.grid, [19.0] * 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = select(window, forecast)
        assert result.dropped == (window.dates[1],)
        assert result.c_star == (window.dates[0],)
        assert list(result.temp_distances) == [window.dates[0]]

    def test_all_candidates_missing_temperature(self):
        window = self.window(([200.0] * 4, None))
        forecast = temp_segment(self.grid, [19.0] * 4)
        with pytest.raises(MissingTemperatureError):
            select(window, forecast)

    def test_distance_restricted_to_forecast_mask(self):
        # candidate differs wildly off-mask; only masked points count
        window = self.window(([100.0] * 4, [20.0, 999.0, 20.0, -50.0]))
        forecast = temp_segment(self.grid, [20.0, np.nan, 20.0, np.nan])
        result = select(window, forecast)
        assert result.temp_distances[window.dates[0]] == 0.0

    def test_only_the_candidate_rows_count(self):
        window = self.window(
            ([100.0, 200.0, 400.0, 300.0], [19.0] * 4),
            ([400.0, 200.0, 100.0, 300.0], [30.0] * 4),
            ([100.0, 100.0, 200.0, 100.0], [25.0] * 4),
        )
        forecast = temp_segment(self.grid, [20.0] * 4)
        result = select_reference(window, np.array([1, 2]), forecast)
        assert result.c_star == (window.dates[2],)
        assert list(result.temp_distances) == [window.dates[1], window.dates[2]]

    def test_empty_candidates(self):
        forecast = temp_segment(self.grid, [20.0] * 4)
        window = self.window()
        with pytest.raises(EmptyCandidateError):
            select_reference(window, np.array([], dtype=int), forecast)


def per_candidate_reference(dates, loads, temps, forecast, kind):
    """Reference selection one candidate row at a time, as a flat loop.

    The candidates enter as their dates, load rows and temperature rows (all
    NaN for a day without temperature). The comparison points are the
    forecast's observed points.
    """
    mask = np.flatnonzero(~np.isnan(forecast.values))
    usable = [k for k, temp in enumerate(temps) if not np.isnan(temp[mask]).any()]
    dists = {dates[k]: distance(temps[k][mask], forecast.values[mask], kind)
             for k in usable}
    delta = min(dists.values())
    chosen = [k for k in usable if dists[dates[k]] == delta]
    rows = [loads[k] / loads[k].max() for k in chosen]
    return np.array(rows).mean(axis=0), tuple(dates[k] for k in chosen), dists


@pytest.mark.parametrize("kind", list(DistanceKind))
# distinct temperatures make C* the argmin; a pool of two or three rows makes ties
@pytest.mark.parametrize("pool", [None, 2, 3], ids=["argmin", "pairs", "ties"])
def test_rows_match_per_candidate_loop(kind, pool):
    grid = TimeGrid.equidistant(24)
    rng = np.random.default_rng(3)
    loads = 50.0 + 450.0 * rng.random((60, 24))
    temps = 5.0 + 25.0 * rng.random((60, 24))
    if pool:
        temps = temps[np.arange(60) % pool]
    temps[rng.random((60, 24)) < 0.1] = np.nan  # partial days, some dropped
    temps[::9] = np.nan  # days without temperature
    history = make_history(grid, MONDAY, loads, temps)
    every_third = np.isin(np.arange(24), range(1, 24, 3))
    sizes = [size for forecast_points in (None, every_third)
             for size in check_against_loop(history, kind, rng, forecast_points)]
    assert (max(sizes) > 1) == bool(pool)


def check_against_loop(history, kind, rng, forecast_points=None):
    """Each checked C*'s size; `forecast_points`, if given, leave the forecast NaN off them."""
    sizes = []
    for forecast_values in 5.0 + 25.0 * rng.random((8, 24)):
        forecast_values[rng.random(24) < 0.5] = np.nan
        if forecast_points is not None:
            forecast_values[~forecast_points] = np.nan
        forecast = temp_segment(history.grid, forecast_values)
        for group in DayGroup:
            try:
                rows = candidate_set(history, group, ReferenceConfig())
            except EmptyCandidateError:
                continue
            try:
                got = select_reference(history, rows, forecast, kind)
            except MissingTemperatureError:
                continue
            reference, c_star, dists = per_candidate_reference(
                [history.dates[i] for i in rows], history.loads[rows],
                history.temps[rows], forecast, kind)
            assert got.reference.tobytes() == reference.tobytes()
            assert got.c_star == c_star
            assert got.temp_distances == dists
            assert got.dropped == tuple(history.dates[i] for i in rows
                                        if history.dates[i] not in dists)
            sizes.append(len(c_star))
    assert len(sizes) >= 4 * len(DayGroup)  # most draws reach a reference
    return sizes
