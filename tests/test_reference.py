import datetime as dt
import warnings

import numpy as np
import pytest

from conftest import make_history, make_record, window_of
from shapecast.calendars import GROUPS, DayGroup
from shapecast.errors import EmptyCandidateError, MissingTemperatureError
from shapecast.reference import (
    DeltaRule,
    ReferenceConfig,
    ReferenceMode,
    candidate_set,
    select_reference,
)
from shapecast.segments import (
    DistanceKind,
    DistanceSpec,
    TemperatureSegment,
    TimeGrid,
    distance,
)

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
        window = window_of(
            make_record(grid4, MONDAY + dt.timedelta(days=i),
                        100.0 + 400.0 * rng.random(4), 15.0 + 10.0 * rng.random(4),
                        holiday=i == 9)
            for i in range(days)
        )
        rows = candidate_set(window, DayGroup.HOLIDAY, lookback(14))
        # one holiday in the lookback is fewer than two: Sundays join it
        assert rows.tolist() == [9, 13, 20]
        no_widening = ReferenceConfig(n_L_by_group={g: 14 for g in DayGroup},
                                      holiday_fallback=False)
        assert candidate_set(window, DayGroup.HOLIDAY, no_widening).tolist() == [9]

    def test_window_limits_lookback(self, grid4):
        history = standard_history(grid4, 28)
        recent = candidate_set(history, DayGroup.G1, lookback(7))
        assert len(recent) == 4
        assert all(history.dates[i] >= MONDAY + dt.timedelta(days=21) for i in recent)


def temp_segment(grid, values):
    return TemperatureSegment(grid, values)


def shape_of(rec):
    return rec.load.values / rec.load.values.max()


def select(records, forecast, cfg, **kwargs):
    """`select_reference` over every row of the window holding `records`."""
    window = window_of(records, forecast.grid)
    return select_reference(window, np.arange(len(window)), forecast, cfg, **kwargs)


class TestSelectReference:
    def setup_method(self):
        self.grid = TimeGrid.equidistant(4)
        self.cfg = ReferenceConfig()

    def record(self, day_offset, load, temp):
        return make_record(self.grid, MONDAY + dt.timedelta(days=day_offset), load, temp)

    def test_single_candidate_is_its_shape(self):
        rec = self.record(0, [100.0, 200.0, 400.0, 300.0], [20.0] * 4)
        forecast = temp_segment(self.grid, [21.0] * 4)
        result = select([rec], forecast, self.cfg)
        np.testing.assert_array_equal(result.reference.values, [0.25, 0.5, 1.0, 0.75])
        assert result.c_star == (rec.meta.date,)

    def test_argmin_picks_closer_temperature(self):
        near = self.record(0, [100.0, 100.0, 200.0, 100.0], [20.0] * 4)
        far = self.record(1, [400.0, 400.0, 400.0, 400.0], [25.0] * 4)
        forecast = temp_segment(self.grid, [19.5] * 4)
        result = select([near, far], forecast, self.cfg)
        assert result.c_star == (near.meta.date,)
        np.testing.assert_array_equal(result.reference.values, shape_of(near))
        assert result.temp_distances[near.meta.date] == pytest.approx(1.0)
        assert result.temp_distances[far.meta.date] == pytest.approx(11.0)

    def test_tied_minima_averaged(self):
        a = self.record(0, [100.0, 200.0, 400.0, 300.0], [18.0] * 4)
        b = self.record(1, [400.0, 200.0, 100.0, 300.0], [22.0] * 4)
        forecast = temp_segment(self.grid, [20.0] * 4)
        result = select([a, b], forecast, self.cfg)
        assert set(result.c_star) == {a.meta.date, b.meta.date}
        expected = (shape_of(a) + shape_of(b)) / 2
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
        r1 = select(records, forecast, argmin_cfg)
        r2 = select(records, forecast, threshold_cfg)
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
        result = select(records, forecast, cfg)
        assert len(result.c_star) == 5

    def test_threshold_fixed_never_undercuts_min(self):
        records = [self.record(0, [100.0] * 4, [30.0] * 4)]
        forecast = temp_segment(self.grid, [20.0] * 4)
        cfg = ReferenceConfig(
            mode=ReferenceMode.THRESHOLD, delta_rule=DeltaRule("fixed", 0.1)
        )
        result = select(records, forecast, cfg)
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
        result = select(records, forecast, cfg)
        shapes = np.array([shape_of(r) for r in records])
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
            result = select(records, forecast, self.cfg)
            assert result.c_star == select(
                records, temp_segment(self.grid, forecast_vals), self.cfg
            ).c_star

    def test_deterministic(self):
        rng = np.random.default_rng(21)
        records = [
            self.record(i, 100.0 + 300.0 * rng.random(4), 15.0 + 10.0 * rng.random(4))
            for i in range(6)
        ]
        forecast = temp_segment(self.grid, [20.0] * 4)
        r1 = select(records, forecast, self.cfg)
        r2 = select(records, forecast, self.cfg)
        assert r1.c_star == r2.c_star
        np.testing.assert_array_equal(r1.reference.values, r2.reference.values)

    def test_candidate_without_temperature_dropped_with_warning(self):
        with_temp = self.record(0, [100.0] * 4, [20.0] * 4)
        without = make_record(self.grid, MONDAY + dt.timedelta(days=1), [200.0] * 4)
        forecast = temp_segment(self.grid, [19.0] * 4)
        with pytest.warns(UserWarning, match="dropping candidate"):
            result = select([with_temp, without], forecast, self.cfg)
        assert result.c_star == (with_temp.meta.date,)

    def test_all_candidates_missing_temperature(self):
        without = make_record(self.grid, MONDAY, [200.0] * 4)
        forecast = temp_segment(self.grid, [19.0] * 4)
        with pytest.raises(MissingTemperatureError):
            select([without], forecast, self.cfg)

    def test_distance_restricted_to_forecast_mask(self):
        # candidate differs wildly off-mask; only masked points count
        cand = self.record(0, [100.0] * 4, [20.0, 999.0, 20.0, -50.0])
        forecast = temp_segment(self.grid, [20.0, np.nan, 20.0, np.nan])
        result = select([cand], forecast, self.cfg)
        assert result.temp_distances[cand.meta.date] == 0.0

    def test_only_the_candidate_rows_count(self):
        records = [
            self.record(0, [100.0, 200.0, 400.0, 300.0], [19.0] * 4),
            self.record(1, [400.0, 200.0, 100.0, 300.0], [30.0] * 4),
            self.record(2, [100.0, 100.0, 200.0, 100.0], [25.0] * 4),
        ]
        window = window_of(records)
        forecast = temp_segment(self.grid, [20.0] * 4)
        result = select_reference(window, np.array([1, 2]), forecast, self.cfg)
        assert result.c_star == (records[2].meta.date,)
        assert list(result.temp_distances) == [records[1].meta.date, records[2].meta.date]
        raw = select_reference(window, np.array([1, 2]), forecast, self.cfg,
                                    rescale=False)
        np.testing.assert_array_equal(raw.reference.values, records[2].load.values)

    def test_empty_candidates(self):
        forecast = temp_segment(self.grid, [20.0] * 4)
        with pytest.raises(EmptyCandidateError):
            select_reference(window_of((), self.grid), np.array([], dtype=int),
                             forecast, self.cfg)


def per_candidate_reference(records, forecast, cfg, rescale):
    """Reference selection one candidate record at a time, as a flat loop."""
    mask = list(forecast.mask)
    spec = DistanceSpec(cfg.temp_distance.kind, mask)
    usable = [r for r in records if r.temperature is not None
              and not np.isnan(r.temperature.values[mask]).any()]
    dists = {r.meta.date: distance(r.temperature.values, forecast.values, spec)
             for r in usable}
    d_min = min(dists.values())
    delta = d_min
    if cfg.mode is ReferenceMode.THRESHOLD and cfg.delta_rule.kind.value == "quantile":
        delta = float(np.quantile(list(dists.values()), cfg.delta_rule.value))
    chosen = [r for r in usable if dists[r.meta.date] <= delta]
    rows = [r.load.values / (r.load.values.max() if rescale else 1.0) for r in chosen]
    return np.array(rows).mean(axis=0), tuple(r.meta.date for r in chosen), dists


@pytest.mark.parametrize("kind", list(DistanceKind))
@pytest.mark.parametrize("mode, rule", [
    (ReferenceMode.ARGMIN, DeltaRule()),
    (ReferenceMode.THRESHOLD, DeltaRule("quantile", 0.3)),
])
@pytest.mark.parametrize("rescale", [True, False])
def test_rows_match_per_candidate_loop(kind, mode, rule, rescale):
    grid = TimeGrid.equidistant(24)
    rng = np.random.default_rng(3)
    loads = 50.0 + 450.0 * rng.random((60, 24))
    temps = 5.0 + 25.0 * rng.random((60, 24))
    temps[rng.random((60, 24)) < 0.1] = np.nan  # partial days, some dropped
    temps[::9] = np.nan  # days without temperature
    history = make_history(grid, MONDAY, loads, temps)
    records = history.records
    cfg = ReferenceConfig(mode=mode, delta_rule=rule,
                          temp_distance=DistanceSpec(kind))
    checked = 0
    for forecast_values in 5.0 + 25.0 * rng.random((8, 24)):
        forecast_values[rng.random(24) < 0.5] = np.nan
        forecast = temp_segment(grid, forecast_values)
        for group in DayGroup:
            try:
                rows = candidate_set(history, group, cfg)
            except EmptyCandidateError:
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                try:
                    got = select_reference(history, rows, forecast, cfg, rescale)
                except MissingTemperatureError:
                    continue
                reference, c_star, dists = per_candidate_reference(
                    [records[i] for i in rows], forecast, cfg, rescale)
            assert got.reference.values.tobytes() == reference.tobytes()
            assert got.c_star == c_star
            assert got.temp_distances == dists
            checked += 1
    assert checked >= 4 * len(DayGroup)  # most draws reach a reference
