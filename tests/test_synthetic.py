import datetime as dt
import math

import numpy as np
import pytest

from shapecast.calendars import DayGroup
from shapecast.errors import ShapecastError
from shapecast.predictor import KernelKind
from shapecast.synthetic import (
    DayTruth,
    ExperimentRow,
    SyntheticSpec,
    consistency_experiment,
    default_h_schedule,
    default_n_L_schedule,
    default_shape_functions,
    default_temperature_pool,
    experiment_csv,
    generate,
)
from shapecast.segments import TimeGrid

GRID = TimeGrid.equidistant(24)


class TestGenerate:
    def test_deterministic_given_seed(self):
        spec = SyntheticSpec(GRID, 30, seed=7)
        w1, t1 = generate(spec)
        w2, t2 = generate(spec)
        for a, b in zip(w1.records, w2.records):
            np.testing.assert_array_equal(a.load.values, b.load.values)
            np.testing.assert_array_equal(a.temperature.values, b.temperature.values)
        assert [t.profile_index for t in t1] == [t.profile_index for t in t2]

    def test_seeds_differ(self):
        w1, _ = generate(SyntheticSpec(GRID, 10, seed=0))
        w2, _ = generate(SyntheticSpec(GRID, 10, seed=1))
        assert any(
            not np.array_equal(a.load.values, b.load.values)
            for a, b in zip(w1.records, w2.records)
        )

    def test_prefix_stability(self):
        # extending the horizon must not disturb earlier days
        w_short, _ = generate(SyntheticSpec(GRID, 10, seed=3))
        w_long, _ = generate(SyntheticSpec(GRID, 20, seed=3))
        for a, b in zip(w_short.records, w_long.records[:10]):
            np.testing.assert_array_equal(a.load.values, b.load.values)

    def test_noiseless_matches_clean_truth(self):
        spec = SyntheticSpec(GRID, 14, noise_sigma=0.0, seed=5)
        window, truths = generate(spec)
        for rec, truth in zip(window.records, truths):
            np.testing.assert_array_equal(rec.load.values, truth.clean)

    def test_group_routing_of_shape_functions(self):
        _, truths = generate(SyntheticSpec(GRID, 14, seed=1))
        for truth in truths:
            weekday = truth.date.weekday()
            expected = "f2" if weekday in (5, 6) else "f1"
            assert truth.shape_ident == expected

    def test_start_is_monday_by_default(self):
        window, _ = generate(SyntheticSpec(GRID, 1))
        assert window.records[0].meta.weekday == "Mon"

    def test_cycle_mode_visits_pool_in_order(self):
        _, truths = generate(SyntheticSpec(GRID, 12, profile_mode="cycle", seed=0))
        assert [t.profile_index for t in truths] == [i % 5 for i in range(12)]

    def test_values_positive_and_bounded_truth(self):
        window, truths = generate(SyntheticSpec(GRID, 40, seed=9))
        for rec in window.records:
            assert np.all(rec.load.values > 0)
        for t in truths:
            assert np.all(t.clean > 0)
            assert np.all(t.clean <= 1.0)

    def test_noise_moments(self):
        # long horizon: residual sd concentrates near sigma, mean near zero
        sigma = 0.05
        spec = SyntheticSpec(GRID, 1000, noise_sigma=sigma, seed=17)
        window, truths = generate(spec)
        resid = np.concatenate(
            [rec.load.values - t.clean for rec, t in zip(window.records, truths)]
        )
        n = resid.size
        assert 0.045 <= resid.std() <= 0.055
        assert abs(resid.mean()) <= 4 * sigma / math.sqrt(n)

    def test_bad_spec_rejected(self):
        with pytest.raises(ShapecastError):
            SyntheticSpec(GRID, 0)
        with pytest.raises(ShapecastError):
            SyntheticSpec(GRID, 10, noise_sigma=-0.1)
        with pytest.raises(ShapecastError):
            SyntheticSpec(GRID, 10, profile_mode="shuffled")

    @pytest.mark.parametrize("sigmas", [dict(noise_sigma=math.nan),
                                        dict(jitter_sigma=math.nan),
                                        dict(jitter_sigma=-1.0)])
    def test_nan_or_negative_sigma_rejected(self, sigmas):
        with pytest.raises(ShapecastError, match="sigmas must be nonnegative"):
            SyntheticSpec(GRID, 10, **sigmas)


class TestDefaults:
    def test_temperature_pool_distinct_and_in_range(self):
        pool = default_temperature_pool(GRID)
        assert len(pool) == 5
        for profile in pool:
            assert profile.shape == (24,)
            assert np.all(profile > 5.0) and np.all(profile < 40.0)
        for i in range(5):
            for j in range(i + 1, 5):
                assert not np.allclose(pool[i], pool[j])

    def test_shape_functions_cover_all_groups(self):
        fns = default_shape_functions()
        covered = frozenset().union(*(f.groups for f in fns))
        assert covered == frozenset(DayGroup)

    def test_h_schedule_decreases(self):
        hs = [default_h_schedule(L) for L in (32, 64, 128, 256)]
        assert all(a > b for a, b in zip(hs, hs[1:]))
        assert default_h_schedule(32) == pytest.approx(0.6 * 32 ** -0.2)

    def test_n_L_schedule_grows_sublinearly(self):
        for L in (32, 64, 128, 256):
            n = default_n_L_schedule(L)
            assert n == math.ceil(L ** (2 / 3))
            assert n < L


class TestConsistencyExperiment:
    def run_small(self):
        template = SyntheticSpec(GRID, 1, noise_sigma=0.05, seed=0)
        return consistency_experiment(template, [32, 64], replications=5)

    def test_row_bookkeeping(self):
        rows = self.run_small()
        assert len(rows) == 10
        assert {r.L for r in rows} == {32, 64}
        for r in rows:
            assert r.err_pred >= 0 and r.err_ref >= 0 and r.err_pred_ref >= 0
            assert r.c_star_size >= 1
            assert r.n_L == default_n_L_schedule(r.L)
            assert r.h == pytest.approx(default_h_schedule(r.L))

    def test_triangle_inequality_coupling(self):
        for r in self.run_small():
            assert abs(r.err_pred - r.err_ref) <= r.err_pred_ref + 1e-9

    def test_reproducible(self):
        assert self.run_small() == self.run_small()

    def test_noiseless_exact_recovery(self):
        # zero noise, zero jitter, cycling profiles: day L+1's temperature has
        # exact matches in history, so the prediction recovers the clean curve
        template = SyntheticSpec(
            GRID, 1, noise_sigma=0.0, jitter_sigma=0.0, profile_mode="cycle", seed=0
        )
        rows = consistency_experiment(
            template,
            [50],
            replications=3,
            h_of_L=lambda L: 1e-6,
            n_L_of_L=lambda L: L,
            kernel_kind=KernelKind.EPANECHNIKOV,
        )
        for r in rows:
            assert r.err_pred <= 1e-12
            assert r.err_ref <= 1e-12

    def test_lengths_must_increase(self):
        template = SyntheticSpec(GRID, 1, seed=0)
        with pytest.raises(ShapecastError):
            consistency_experiment(template, [64, 32], replications=1)
        with pytest.raises(ShapecastError):
            consistency_experiment(template, [32], replications=0)

    def test_target_weekday_fixed_across_lengths(self):
        # the per-length start shift keeps day L+1 on the template's weekday
        template = SyntheticSpec(GRID, 1, seed=0)
        for L in (32, 64, 128):
            offset = (-L) % 7
            start = template.start + dt.timedelta(days=offset)
            target = start + dt.timedelta(days=L)
            assert target.weekday() == template.start.weekday()


class TestSerialization:
    ROW = ExperimentRow(32, 0, 0.1, 0.05, 0.08, 0.3, 11, 2)

    def test_csv_layout(self):
        text = experiment_csv([self.ROW])
        lines = text.splitlines()
        assert lines[0] == "L,replication,err_pred,err_ref,err_pred_ref,h,n_L,c_star_size"
        assert lines[1] == "32,0,0.1,0.05,0.08,0.3,11,2"
