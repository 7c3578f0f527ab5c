import datetime as dt

import numpy as np
import pytest

from conftest import make_history, make_record
from shapecast.calendars import DayGroup
from shapecast.errors import EmptyCandidateError, MissingTemperatureError
from shapecast.history import HistoryWindow
from shapecast.reference import (
    DeltaRule,
    ReferenceConfig,
    ReferenceMode,
    candidate_set,
    select_reference,
)
from shapecast.segments import TemperatureSegment, TimeGrid, rescale_day

MONDAY = dt.date(2010, 6, 7)


def standard_history(grid, days, rng=None):
    rng = rng or np.random.default_rng(0)
    loads = 100.0 + 400.0 * rng.random((days, grid.points_per_day))
    temps = 15.0 + 10.0 * rng.random((days, grid.points_per_day))
    return make_history(grid, MONDAY, loads, temps)


def lookback(n_L):
    return ReferenceConfig(n_L_by_group={g: n_L for g in DayGroup})


class TestCandidateSet:
    def test_g1_in_14_trailing_days(self, grid4):
        history = standard_history(grid4, 14)
        candidates = candidate_set(history, DayGroup.G1, lookback(14))
        # two full weeks hold 4 G1 weekdays each
        assert len(candidates) == 8
        assert all(c.meta.group is DayGroup.G1 for c in candidates)
        dates = [c.meta.date for c in candidates]
        assert dates == sorted(dates)

    def test_g2_in_28_trailing_days(self, grid4):
        history = standard_history(grid4, 28)
        candidates = candidate_set(history, DayGroup.G2, lookback(28))
        assert len(candidates) == 4

    def test_short_history_without_group(self, grid4):
        history = standard_history(grid4, 3)  # Mon-Wed, no Saturday
        with pytest.raises(EmptyCandidateError):
            candidate_set(history, DayGroup.G3, lookback(14))

    def test_window_limits_lookback(self, grid4):
        history = standard_history(grid4, 28)
        recent = candidate_set(history, DayGroup.G1, lookback(7))
        assert len(recent) == 4
        assert all(c.meta.date >= MONDAY + dt.timedelta(days=21) for c in recent)


def temp_segment(grid, values, mask=None):
    mask = mask if mask is not None else tuple(range(grid.points_per_day))
    return TemperatureSegment(grid, values, mask)


class TestSelectReference:
    def setup_method(self):
        self.grid = TimeGrid.equidistant(4)
        self.cfg = ReferenceConfig()

    def record(self, day_offset, load, temp):
        return make_record(self.grid, MONDAY + dt.timedelta(days=day_offset), load, temp)

    def test_single_candidate_is_its_shape(self):
        rec = self.record(0, [100.0, 200.0, 400.0, 300.0], [20.0] * 4)
        forecast = temp_segment(self.grid, [21.0] * 4)
        result = select_reference([rec], forecast, self.cfg)
        np.testing.assert_array_equal(result.reference.values, [0.25, 0.5, 1.0, 0.75])
        assert result.c_star == (rec.meta.date,)

    def test_argmin_picks_closer_temperature(self):
        near = self.record(0, [100.0, 100.0, 200.0, 100.0], [20.0] * 4)
        far = self.record(1, [400.0, 400.0, 400.0, 400.0], [25.0] * 4)
        forecast = temp_segment(self.grid, [19.5] * 4)
        result = select_reference([near, far], forecast, self.cfg)
        assert result.c_star == (near.meta.date,)
        np.testing.assert_array_equal(
            result.reference.values, rescale_day(near.load).values
        )
        assert result.temp_distances[near.meta.date] == pytest.approx(1.0)
        assert result.temp_distances[far.meta.date] == pytest.approx(11.0)

    def test_tied_minima_averaged(self):
        a = self.record(0, [100.0, 200.0, 400.0, 300.0], [18.0] * 4)
        b = self.record(1, [400.0, 200.0, 100.0, 300.0], [22.0] * 4)
        forecast = temp_segment(self.grid, [20.0] * 4)
        result = select_reference([a, b], forecast, self.cfg)
        assert set(result.c_star) == {a.meta.date, b.meta.date}
        expected = (rescale_day(a.load).values + rescale_day(b.load).values) / 2
        np.testing.assert_array_equal(result.reference.values, expected)

    def test_threshold_min_matches_argmin_with_unique_minimizer(self):
        rng = np.random.default_rng(5)
        records = [
            self.record(i, 100.0 + 300.0 * rng.random(4), 15.0 + 10.0 * rng.random(4))
            for i in range(6)
        ]
        forecast = temp_segment(self.grid, 15.0 + 10.0 * rng.random(4))
        argmin_cfg = ReferenceConfig(mode=ReferenceMode.ARGMIN)
        threshold_cfg = ReferenceConfig(
            mode=ReferenceMode.THRESHOLD, delta_rule=DeltaRule("min")
        )
        r1 = select_reference(records, forecast, argmin_cfg)
        r2 = select_reference(records, forecast, threshold_cfg)
        assert r1.c_star == r2.c_star
        np.testing.assert_array_equal(r1.reference.values, r2.reference.values)

    def test_threshold_quantile_widens_c_star(self):
        records = [
            self.record(i, [100.0 + 10 * i] * 4, [20.0 + i] * 4) for i in range(5)
        ]
        forecast = temp_segment(self.grid, [20.0] * 4)
        cfg = ReferenceConfig(
            mode=ReferenceMode.THRESHOLD, delta_rule=DeltaRule("quantile", 1.0)
        )
        result = select_reference(records, forecast, cfg)
        assert len(result.c_star) == 5

    def test_threshold_fixed_never_undercuts_min(self):
        records = [self.record(0, [100.0] * 4, [30.0] * 4)]
        forecast = temp_segment(self.grid, [20.0] * 4)
        cfg = ReferenceConfig(
            mode=ReferenceMode.THRESHOLD, delta_rule=DeltaRule("fixed", 0.1)
        )
        result = select_reference(records, forecast, cfg)
        assert result.c_star  # clamped up to the minimum distance

    def test_convex_hull_property(self):
        rng = np.random.default_rng(9)
        records = [
            self.record(i, 100.0 + 300.0 * rng.random(4), 15.0 + 10.0 * rng.random(4))
            for i in range(8)
        ]
        forecast = temp_segment(self.grid, [20.0] * 4)
        cfg = ReferenceConfig(
            mode=ReferenceMode.THRESHOLD, delta_rule=DeltaRule("quantile", 1.0)
        )
        result = select_reference(records, forecast, cfg)
        shapes = np.array([rescale_day(r.load).values for r in records])
        assert np.all(result.reference.values >= shapes.min(axis=0) - 1e-12)
        assert np.all(result.reference.values <= shapes.max(axis=0) + 1e-12)

    def test_argmin_invariant_under_deviation_scaling(self):
        rng = np.random.default_rng(13)
        forecast_vals = 20.0 + 2.0 * rng.random(4)
        deviations = [rng.standard_normal(4) for _ in range(6)]
        for c in (0.5, 1.0, 3.0):
            records = [
                self.record(i, [100.0 + i] * 4, forecast_vals + c * dev)
                for i, dev in enumerate(deviations)
            ]
            forecast = temp_segment(self.grid, forecast_vals)
            result = select_reference(records, forecast, self.cfg)
            assert result.c_star == select_reference(
                records, temp_segment(self.grid, forecast_vals), self.cfg
            ).c_star

    def test_deterministic(self):
        rng = np.random.default_rng(21)
        records = [
            self.record(i, 100.0 + 300.0 * rng.random(4), 15.0 + 10.0 * rng.random(4))
            for i in range(6)
        ]
        forecast = temp_segment(self.grid, [20.0] * 4)
        r1 = select_reference(records, forecast, self.cfg)
        r2 = select_reference(records, forecast, self.cfg)
        assert r1.c_star == r2.c_star
        np.testing.assert_array_equal(r1.reference.values, r2.reference.values)

    def test_candidate_without_temperature_dropped_with_warning(self):
        with_temp = self.record(0, [100.0] * 4, [20.0] * 4)
        without = make_record(self.grid, MONDAY + dt.timedelta(days=1), [200.0] * 4)
        forecast = temp_segment(self.grid, [19.0] * 4)
        with pytest.warns(UserWarning, match="dropping candidate"):
            result = select_reference([with_temp, without], forecast, self.cfg)
        assert result.c_star == (with_temp.meta.date,)

    def test_all_candidates_missing_temperature(self):
        without = make_record(self.grid, MONDAY, [200.0] * 4)
        forecast = temp_segment(self.grid, [19.0] * 4)
        with pytest.raises(MissingTemperatureError):
            select_reference([without], forecast, self.cfg)

    def test_distance_restricted_to_forecast_mask(self):
        # candidate differs wildly off-mask; only masked points count
        cand = self.record(0, [100.0] * 4, [20.0, 999.0, 20.0, -50.0])
        forecast = temp_segment(self.grid, [20.0, np.nan, 20.0, np.nan], mask=(0, 2))
        result = select_reference([cand], forecast, self.cfg)
        assert result.temp_distances[cand.meta.date] == 0.0

    def test_empty_candidates(self):
        forecast = temp_segment(self.grid, [20.0] * 4)
        with pytest.raises(EmptyCandidateError):
            select_reference([], forecast, self.cfg)
