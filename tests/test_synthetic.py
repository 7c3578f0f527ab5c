import csv
import datetime as dt
import io
import itertools
import math
import re
from dataclasses import dataclass, fields, replace

import numpy as np
import pytest

from conftest import distance, raw_stage
from shapecast import predictor, synthetic
from shapecast.calendars import GROUPS, DayGroup, annotate_calendar, group_codes
from shapecast.errors import ShapecastError
from shapecast.history import HistoryWindow, Quality
from shapecast.predictor import KernelKind, KernelSpec, PredictorConfig
from shapecast.reference import DeltaRule, ReferenceConfig
from shapecast.synthetic import (
    ERROR_NAMES,
    SHAPE_FUNCTIONS,
    Experiment,
    SyntheticSpec,
    consistency_experiment,
    default_h_schedule,
    default_n_L_schedule,
    default_temperature_pool,
    experiment_csv,
    generate,
)
from shapecast.segments import TemperatureSegment, TimeGrid

GRID = TimeGrid.equidistant(24)


def day_by_day_generate(spec):
    """Reference generator: one calendar annotation and one row per day.

    Each day takes its profile index, jitter and noise one at a time from the
    seed's three streams (profile, jitter, noise). Returns each day's (meta,
    load bytes, temperature bytes) and each day's clean-curve bytes.
    """
    P = spec.grid.points_per_day
    pool = default_temperature_pool(spec.grid)
    streams = np.random.SeedSequence(spec.seed).spawn(3)
    profile_rng, jitter_rng, noise_rng = map(np.random.default_rng, streams)
    days, cleans = [], []
    for n in range(spec.length):
        meta = annotate_calendar(spec.start + dt.timedelta(days=n))
        if spec.profile_mode == "cycle":
            profile_index = n % len(pool)
        else:
            profile_index = int(profile_rng.integers(len(pool)))
        temps = pool[profile_index].copy()
        if spec.jitter_sigma > 0:
            temps = temps + spec.jitter_sigma * jitter_rng.standard_normal(P)
        clean = np.clip(SHAPE_FUNCTIONS[meta.group](temps), 1e-9, 1.0)
        values = clean
        if spec.noise_sigma > 0:
            values = clean + spec.noise_sigma * noise_rng.standard_normal(P)
        values = np.maximum(values, 1e-9)
        days.append((meta, values.tobytes(), temps.tobytes()))
        cleans.append(clean.tobytes())
    return days, cleans


class TestGenerate:
    @pytest.mark.parametrize("spec", [
        SyntheticSpec(GRID, 30, seed=7),
        SyntheticSpec(GRID, 17, seed=(2, 5), start=dt.date(2010, 6, 10)),
        SyntheticSpec(GRID, 12, noise_sigma=0.0, jitter_sigma=0.0, profile_mode="cycle"),
        SyntheticSpec(GRID, 9, noise_sigma=0.0, seed=3),
        SyntheticSpec(GRID, 11, jitter_sigma=0.0, seed=4),
        SyntheticSpec(GRID, 13, profile_mode="cycle", seed=(6, 1)),
    ])
    def test_rows_equal_day_by_day_records(self, spec):
        window, clean = generate(spec)
        days, expected_cleans = day_by_day_generate(spec)
        assert len(window) == len(days)
        for i, (meta, load, temps) in enumerate(days):
            assert window.meta(i) == meta
            assert window.quality[i] is Quality.COMPLETE
            assert window.loads[i].tobytes() == load
            assert window.temps[i].tobytes() == temps
        assert clean.shape == (spec.length, spec.grid.points_per_day)
        assert [row.tobytes() for row in clean] == expected_cleans

    @pytest.mark.parametrize("spec", [
        SyntheticSpec(GRID, 30, seed=7),
        SyntheticSpec(GRID, 13, profile_mode="cycle"),
        SyntheticSpec(GRID, 11, jitter_sigma=0.0),
        SyntheticSpec(GRID, 9, noise_sigma=0.0),
        SyntheticSpec(GRID, 8, start=dt.date(2012, 2, 27)),  # across 29 February
    ])
    def test_paths_of_one_calendar_equal_lone_paths(self, spec):
        # `_paths` lays the calendar out once for all its seeds; each path
        # still equals the one `generate` draws alone at that seed
        seeds = [(5,), (5, 0), (7, 2)]
        dates, codes, draws = synthetic._paths(spec, seeds)
        paths = list(draws)
        assert len(paths) == len(seeds)
        for seed, (loads, temps, clean) in zip(seeds, paths):
            lone, lone_clean = generate(replace(spec, seed=seed))
            assert dates == lone.dates
            assert codes.tobytes() == lone.group.tobytes()
            assert loads.tobytes() == lone.loads.tobytes()
            assert temps.tobytes() == lone.temps.tobytes()
            assert clean.tobytes() == lone_clean.tobytes()

    def test_deterministic_given_seed(self):
        spec = SyntheticSpec(GRID, 30, seed=7)
        w1, c1 = generate(spec)
        w2, c2 = generate(spec)
        np.testing.assert_array_equal(w1.loads, w2.loads)
        np.testing.assert_array_equal(w1.temps, w2.temps)
        np.testing.assert_array_equal(c1, c2)

    def test_seeds_differ(self):
        w1, _ = generate(SyntheticSpec(GRID, 10, seed=0))
        w2, _ = generate(SyntheticSpec(GRID, 10, seed=1))
        assert any(not np.array_equal(a, b) for a, b in zip(w1.loads, w2.loads))

    def test_prefix_stability(self):
        # extending the horizon must not disturb earlier days
        w_short, _ = generate(SyntheticSpec(GRID, 10, seed=3))
        w_long, _ = generate(SyntheticSpec(GRID, 20, seed=3))
        np.testing.assert_array_equal(w_short.loads, w_long.loads[:10])

    def test_noise_independent_of_jitter(self):
        # one stream per quantity: changing the jitter leaves the noise alone
        w1, c1 = generate(SyntheticSpec(GRID, 30, jitter_sigma=0.5, seed=8))
        w2, c2 = generate(SyntheticSpec(GRID, 30, jitter_sigma=0.0, seed=8))
        assert not np.array_equal(c1, c2)
        np.testing.assert_allclose(w1.loads - c1, w2.loads - c2, rtol=0, atol=1e-12)

    def test_noiseless_matches_clean_truth(self):
        spec = SyntheticSpec(GRID, 14, noise_sigma=0.0, seed=5)
        window, clean = generate(spec)
        for load, truth in zip(window.loads, clean):
            np.testing.assert_array_equal(load, truth)

    def test_group_routing_of_shape_functions(self):
        window, clean = generate(SyntheticSpec(GRID, 14, seed=1))
        weekday_fn, weekend_fn = SHAPE_FUNCTIONS[DayGroup.G1], SHAPE_FUNCTIONS[DayGroup.G4]
        assert weekday_fn is not weekend_fn
        for date, temps, truth in zip(window.dates, window.temps, clean):
            expected = weekend_fn if date.weekday() in (5, 6) else weekday_fn
            assert truth.tobytes() == np.clip(expected(temps), 1e-9, 1.0).tobytes()

    @pytest.mark.parametrize("start, length", [
        *((dt.date(2010, 6, 7) + dt.timedelta(days=k), 9) for k in range(7)),
        (dt.date(2012, 2, 27), 8),  # across 29 February
        (dt.date(2000, 2, 1), 400),  # a century leap year, and into the next year
    ])
    def test_group_codes_follow_the_calendar(self, monkeypatch, start, length):
        # each group's shape function returns its group code, so `clean` shows
        # the code generate gave each day
        codes = {g: (lambda u, c=GROUPS.index(g): np.full_like(u, c / 10)) for g in GROUPS}
        monkeypatch.setattr(synthetic, "SHAPE_FUNCTIONS", codes)
        window, clean = generate(SyntheticSpec(GRID, length, start=start))
        expected = group_codes(window.dates, False)
        assert (np.rint(clean * 10) == expected[:, None]).all()
        assert window.dates == tuple(start + dt.timedelta(days=n) for n in range(length))

    def test_start_is_monday_by_default(self):
        window, _ = generate(SyntheticSpec(GRID, 1))
        assert window.dates[0].weekday() == 0

    def test_cycle_mode_visits_pool_in_order(self):
        window, _ = generate(SyntheticSpec(GRID, 12, profile_mode="cycle", seed=0))
        pool = np.array(default_temperature_pool(GRID))
        # the jitter (sd 0.5) keeps each day far nearer its profile than any other
        nearest = [
            int(np.argmin(np.linalg.norm(pool - temps, axis=1))) for temps in window.temps
        ]
        assert nearest == [i % 5 for i in range(12)]

    def test_values_positive_and_bounded_truth(self):
        window, clean = generate(SyntheticSpec(GRID, 40, seed=9))
        for load in window.loads:
            assert np.all(load > 0)
        for t in clean:
            assert np.all(t > 0)
            assert np.all(t <= 1.0)

    def test_noise_moments(self):
        # long horizon: residual sd concentrates near sigma, mean near zero
        sigma = 0.05
        spec = SyntheticSpec(GRID, 1000, noise_sigma=sigma, seed=17)
        window, clean = generate(spec)
        resid = np.concatenate([load - t for load, t in zip(window.loads, clean)])
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

    @pytest.mark.parametrize("length, message", [
        (2.5, "length 2.5 is not a whole number"),
        (True, "length True is not a whole number"),
        ("3", "length '3' is not a whole number"),
        (0, "length 0 is below 1"),
    ])
    def test_length_must_be_a_whole_number_of_days(self, length, message):
        with pytest.raises(ShapecastError) as exc:
            SyntheticSpec(GRID, length)
        assert str(exc.value) == message

    def test_numpy_integer_length_held_as_int(self):
        spec = SyntheticSpec(GRID, np.int64(3))
        assert type(spec.length) is int and len(generate(spec)[0]) == 3

    def test_path_must_end_by_the_last_date(self):
        start = dt.date(9999, 12, 25)
        window, _ = generate(SyntheticSpec(GRID, 7, start=start))
        assert window.dates[-1] == dt.date.max
        with pytest.raises(ShapecastError, match="length 8 from 9999-12-25 runs past"):
            SyntheticSpec(GRID, 8, start=start)

    def test_seed_held_as_entropy_tuple(self):
        assert SyntheticSpec(GRID, 1, seed=4).seed == (4,)
        assert SyntheticSpec(GRID, 1, seed=[4, 2]).seed == (4, 2)

    @pytest.mark.parametrize("seed, message", [
        (-1, "seed -1 is below 0"),
        ((1, -2), "seed -2 is below 0"),
        (1.5, "seed 1.5 is not a whole number"),
        ("a", "seed 'a' is not a whole number"),
        (None, "seed None is not a whole number"),
        (True, "seed True is not a whole number"),
        ([3, np.True_], "seed np.True_ is not a whole number"),
    ])
    def test_seed_must_be_nonnegative_whole_numbers(self, seed, message):
        with pytest.raises(ShapecastError) as exc:
            SyntheticSpec(GRID, 1, seed=seed)
        assert str(exc.value) == message

    def test_seed_entries_held_as_ints(self):
        spec = SyntheticSpec(GRID, 1, seed=(np.int64(3), 0))
        assert spec.seed == (3, 0) and all(type(s) is int for s in spec.seed)

    # an infinite sigma would fail later, on a load, with `load values must be finite`
    @pytest.mark.parametrize("sigmas", [dict(noise_sigma=math.nan),
                                        dict(jitter_sigma=math.nan),
                                        dict(jitter_sigma=-1.0),
                                        dict(noise_sigma=math.inf),
                                        dict(jitter_sigma=math.inf)])
    def test_nan_negative_or_infinite_sigma_rejected(self, sigmas):
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
        assert frozenset(SHAPE_FUNCTIONS) == frozenset(DayGroup)

    def test_h_schedule_decreases(self):
        hs = [default_h_schedule(L) for L in (32, 64, 128, 256)]
        assert all(a > b for a, b in zip(hs, hs[1:]))
        assert default_h_schedule(32) == pytest.approx(0.6 * 32 ** -0.2)

    def test_n_L_schedule_grows_sublinearly(self):
        for L in (32, 64, 128, 256):
            n = default_n_L_schedule(L)
            assert n == math.ceil(L ** (2 / 3))
            assert n < L


def error(run: Experiment, name: str) -> np.ndarray:
    """The K x R table of one of `ERROR_NAMES`."""
    return run.errors[..., ERROR_NAMES.index(name)]


class TestConsistencyExperiment:
    def run_small(self):
        template = SyntheticSpec(GRID, 1, noise_sigma=0.05, seed=0)
        return consistency_experiment(template, [32, 64], replications=5)

    def test_table_bookkeeping(self):
        run = self.run_small()
        assert ERROR_NAMES == ("err_pred", "err_ref", "err_pred_ref")
        assert run.lengths == (32, 64)
        assert run.errors.shape == (2, 5, 3)
        assert run.c_star_size.shape == (2, 5)
        assert run.n_L == tuple(default_n_L_schedule(L) for L in (32, 64))
        assert run.h == pytest.approx([default_h_schedule(L) for L in (32, 64)])
        assert all(type(h) is float for h in run.h) and all(type(n) is int for n in run.n_L)
        assert (run.errors >= 0).all()
        assert (run.c_star_size >= 1).all()

    def test_triangle_inequality_coupling(self):
        run = self.run_small()
        gap = np.abs(error(run, "err_pred") - error(run, "err_ref"))
        assert (gap <= error(run, "err_pred_ref") + 1e-9).all()

    def test_reproducible(self):
        first, again = self.run_small(), self.run_small()
        for f in fields(Experiment):
            got, want = getattr(again, f.name), getattr(first, f.name)
            if isinstance(want, np.ndarray):
                assert got.dtype == want.dtype and got.shape == want.shape, f.name
                assert got.tobytes() == want.tobytes(), f.name
            else:
                assert got == want, f.name

    def test_noiseless_exact_recovery(self):
        # zero noise turns off jitter and cycles the profiles: day L+1's
        # temperature has exact matches in history, so the prediction
        # recovers the clean curve
        template = SyntheticSpec(GRID, 1, noise_sigma=0.0, seed=0)
        run = consistency_experiment(template, [50], replications=3)
        assert run.errors.shape == (1, 3, 3)
        assert (error(run, "err_pred") <= 1e-12).all()
        assert (error(run, "err_ref") <= 1e-12).all()

    @pytest.mark.parametrize("lengths, message", [
        ([], "need at least one length"),
        ([0, 32], "length 0 is below 1"),
        ([-5], "length -5 is below 1"),
    ])
    def test_lengths_refused_before_any_path(self, drawn_seeds, lengths, message):
        template = SyntheticSpec(GRID, 1, seed=0)
        with pytest.raises(ShapecastError, match=f"^{re.escape(message)}$"):
            consistency_experiment(template, lengths, replications=2)
        assert drawn_seeds == []

    @pytest.mark.parametrize("lengths, replications, message", [
        ([32.9], 1, "length 32.9 is not a whole number"),
        ([True, 32], 1, "length True is not a whole number"),
        ([np.float64(32.0)], 1, "length np.float64(32.0) is not a whole number"),
        (["32"], 1, "length '32' is not a whole number"),
        ([32], 2.5, "replications 2.5 is not a whole number"),
        ([32], True, "replications True is not a whole number"),
        ([32], np.True_, "replications np.True_ is not a whole number"),
        ([32], 0, "replications 0 is below 1"),
        ([32], np.int64(-1), "replications -1 is below 1"),
    ])
    def test_counts_refused_before_any_path(self, drawn_seeds, lengths, replications,
                                            message):
        template = SyntheticSpec(GRID, 1, seed=0)
        with pytest.raises(ShapecastError, match=f"^{re.escape(message)}$"):
            consistency_experiment(template, lengths, replications)
        assert drawn_seeds == []

    def test_calendar_laid_out_once_per_experiment(self, monkeypatch):
        # one calendar of max(L) + 1 days serves every replication's path
        calls, codes = [], synthetic.group_codes

        def counted(dates, is_holiday):
            calls.append(len(dates))
            return codes(dates, is_holiday)

        monkeypatch.setattr(synthetic, "group_codes", counted)
        self.run_small()
        assert calls == [65]

    def test_numpy_integers_write_the_same_table(self):
        template = SyntheticSpec(GRID, 1, seed=0)
        run = consistency_experiment(template, np.array([32, 64]), np.int64(2))
        assert run.lengths == (32, 64) and all(type(L) is int for L in run.lengths)
        assert experiment_csv(run) == experiment_csv(consistency_experiment(template, [32, 64], 2))

    def test_lengths_must_increase(self):
        template = SyntheticSpec(GRID, 1, seed=0)
        with pytest.raises(ShapecastError):
            consistency_experiment(template, [64, 32], replications=1)
        with pytest.raises(ShapecastError):
            consistency_experiment(template, [32], replications=0)

    def test_lab_builds_no_window_and_calls_no_stage(self, monkeypatch):
        # each replication is weighed on its path's arrays; `per_row_experiment_csv`,
        # which predicts from one window span per (replication, L), pins its rows
        built, staged, init, stage = [], [], HistoryWindow.__post_init__, predictor._stage
        monkeypatch.setattr(HistoryWindow, "__post_init__",
                            lambda window: built.append(len(window.dates)) or init(window))

        def recorded(*args):
            staged.append(args)
            return stage(*args)

        monkeypatch.setattr(predictor, "_stage", recorded)
        monkeypatch.setattr(synthetic, "_stage", recorded, raising=False)
        run = consistency_experiment(SyntheticSpec(GRID, 1, seed=0), [32, 45, 64], 3)
        assert run.errors.shape == (3, 3, 3)
        assert built == [] and staged == []

    def test_one_delta_threshold_per_replication_and_length(self, monkeypatch):
        # the lab's δ is the predictor's default rule, δ = min, taken once per cell
        dists, threshold = [], DeltaRule.threshold
        monkeypatch.setattr(DeltaRule, "threshold",
                            lambda rule, near: dists.append(near) or threshold(rule, near))
        run = consistency_experiment(SyntheticSpec(GRID, 1, seed=0), [32, 45, 64], 3)
        assert len(dists) == 9
        assert [len(near) for near in dists] == [len(near) for near in dists[:3]] * 3
        sizes = [int(np.sum(near == near.min())) for near in dists]
        assert sizes == run.c_star_size.T.ravel().tolist()

    @pytest.mark.parametrize("sigmas", [dict(noise_sigma=math.inf), dict(jitter_sigma=math.inf)])
    def test_infinite_sigma_template_draws_no_path(self, drawn_seeds, sigmas):
        with pytest.raises(ShapecastError, match="^sigmas must be nonnegative and finite$"):
            consistency_experiment(SyntheticSpec(GRID, 1, seed=0, **sigmas), [32, 64], 2)
        assert drawn_seeds == []

    @pytest.mark.parametrize("h_coef", [0.0, -1.0, math.nan, math.inf])
    def test_bad_h_coef_refused_before_any_path(self, drawn_seeds, h_coef):
        template = SyntheticSpec(GRID, 1, seed=0)
        with pytest.raises(ShapecastError, match="^bandwidth must be positive and finite$"):
            consistency_experiment(template, [32, 64], 2, h_coef=h_coef)
        assert drawn_seeds == []


class TestSerialization:
    RUN = Experiment(
        lengths=(32,), h=(0.3,), n_L=(11,),
        errors=np.array([[[0.1, 0.05, 0.08]]]), c_star_size=np.array([[2]]),
    )

    def test_csv_layout(self):
        lines = experiment_csv(self.RUN).splitlines()
        assert lines == [
            "L,replication,err_pred,err_ref,err_pred_ref,h,n_L,c_star_size",
            "32,0,0.1,0.05,0.08,0.3,11,2",
        ]


@dataclass(frozen=True)
class ExperimentRow:
    L: int
    replication: int
    err_pred: float
    err_ref: float
    err_pred_ref: float
    h: float
    n_L: int
    c_star_size: int


def per_row_experiment_csv(template, lengths, replications, h_coef):
    """The lab's CSV as the record-per-row lab wrote it, kept as the reference.

    One `ExperimentRow` per (replication, L), its errors from three `distance`
    calls, then the rows stably sorted by L and written field by field.
    """
    noiseless = template.noise_sigma == 0
    if noiseless:
        template = replace(template, jitter_sigma=0.0, profile_mode="cycle")
    T = lengths[-1]
    path = replace(template, length=T + 1, start=template.start + dt.timedelta(days=(-T) % 7))
    configs = []
    for L in lengths:
        if noiseless:
            n_L, kernel = L, KernelSpec(KernelKind.EPANECHNIKOV, 1e-6)
        else:
            n_L = default_n_L_schedule(L)
            kernel = KernelSpec(KernelKind.GAUSSIAN, default_h_schedule(L, h_coef))
        cfg = PredictorConfig(
            reference=ReferenceConfig(n_L_by_group={g: n_L for g in DayGroup}),
            kernel=kernel,
        )
        configs.append((L, n_L, cfg))
    rows = []
    for rep in range(replications):
        window, clean = generate(replace(path, seed=(*template.seed, rep)))
        forecast = TemperatureSegment(path.grid, window.temps[T])
        for L, n_L, cfg in configs:
            prior = window.span(T - L, T)
            reference, _, predicted, _ = raw_stage(prior, window.meta(T).group, forecast, cfg,
                                                   cfg.kernel.bandwidth)
            ref_values = reference.reference
            rows.append(ExperimentRow(
                L=L,
                replication=rep,
                err_pred=distance(predicted, clean[T]),
                err_ref=distance(ref_values, clean[T]),
                err_pred_ref=distance(predicted, ref_values),
                h=cfg.kernel.bandwidth,
                n_L=n_L,
                c_star_size=len(reference.c_star),
            ))
    rows.sort(key=lambda row: row.L)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    names = [f.name for f in fields(ExperimentRow)]
    writer.writerow(names)
    writer.writerows([getattr(row, name) for name in names] for row in rows)
    return buf.getvalue()


@pytest.mark.parametrize("noise_sigma", [0.05, 0.0])
@pytest.mark.parametrize("points_per_day", [12, 24])
def test_csv_equals_per_row_records(noise_sigma, points_per_day):
    grid = TimeGrid.equidistant(points_per_day)
    cases = itertools.product(
        (0, 7), (0.6, 1.7), ([9], [9, 16], [9, 16, 30]), range(1, 5))
    for seed, h_coef, lengths, replications in cases:
        template = SyntheticSpec(grid, 1, noise_sigma=noise_sigma, seed=seed)
        run = consistency_experiment(template, lengths, replications, h_coef=h_coef)
        want = per_row_experiment_csv(template, lengths, replications, h_coef)
        assert experiment_csv(run) == want, (seed, h_coef, lengths, replications)
