import datetime as dt
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_history, random_history, window_of
from shapecast.calendars import annotate_calendar
from shapecast.errors import InsufficientHistoryError, ShapecastError
from shapecast.predictor import (
    KernelKind,
    KernelSpec,
    PredictorConfig,
    compute_weights,
    default_bandwidth_grid,
    kernel_value,
    predict_day,
    predict_shape,
    prediction_to_dict,
    select_bandwidth,
)
from shapecast.reference import DeltaRule, ReferenceConfig
from shapecast.segments import DistanceSpec, TemperatureSegment, TimeGrid, distance

MONDAY = dt.date(2010, 6, 7)


class TestComputeWeights:
    def test_singleton_normalizes_to_one(self):
        w = compute_weights(np.array([[0.5, 1.0]]), np.array([0.1, 0.9]), KernelSpec())
        np.testing.assert_array_equal(w, [1.0])

    def test_equidistant_split_evenly(self):
        shapes = np.array([[1.0, 0.0], [0.0, 1.0]])
        ref = np.array([0.5, 0.5])
        w = compute_weights(shapes, ref, KernelSpec())
        np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-15)

    def test_gaussian_unit_bandwidth_fixture(self):
        # standard normal density at distances 0 and 1, normalized
        shapes = np.array([[0.0, 0.0], [1.0, 0.0]])
        ref = np.array([0.0, 0.0])
        w = compute_weights(shapes, ref, KernelSpec(KernelKind.GAUSSIAN, 1.0))
        np.testing.assert_allclose(w, [0.62246, 0.37754], atol=1e-5)

    def test_simplex(self):
        import warnings

        rng = np.random.default_rng(2)
        for _ in range(30):
            shapes = rng.random((6, 5))
            ref = rng.random(5)
            h = 10 ** rng.uniform(-2, 1)
            kind = list(KernelKind)[int(rng.integers(3))]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                w = compute_weights(shapes, ref, KernelSpec(kind, h))
            assert np.all(w >= 0)
            assert abs(w.sum() - 1.0) <= 1e-12

    def test_compact_kernel_tiny_bandwidth_falls_back(self):
        shapes = np.array([[0.0, 0.0], [1.0, 1.0]])
        ref = np.array([0.4, 0.4])
        with pytest.warns(UserWarning, match="no segment within bandwidth"):
            w = compute_weights(
                shapes, ref, KernelSpec(KernelKind.EPANECHNIKOV, 1e-9)
            )
        np.testing.assert_array_equal(w, [1.0, 0.0])

    def test_huge_bandwidth_is_uniform(self):
        rng = np.random.default_rng(7)
        shapes = rng.random((10, 8))
        ref = rng.random(8)
        w = compute_weights(shapes, ref, KernelSpec(KernelKind.GAUSSIAN, 1e9))
        assert np.max(np.abs(w - 0.1)) < 1e-6

    def test_tiny_bandwidth_concentrates_on_nearest(self):
        shapes = np.array([[0.0, 0.0], [0.5, 0.5], [1.0, 1.0]])
        ref = np.array([0.45, 0.45])
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            w = compute_weights(shapes, ref, KernelSpec(KernelKind.GAUSSIAN, 1e-3))
        assert w[1] > 1.0 - 1e-12

    def test_scale_equivariance(self):
        rng = np.random.default_rng(8)
        shapes = rng.random((5, 6))
        ref = rng.random(6)
        c = 7.5
        w1 = compute_weights(shapes, ref, KernelSpec(KernelKind.GAUSSIAN, 0.3))
        w2 = compute_weights(c * shapes, c * ref, KernelSpec(KernelKind.GAUSSIAN, c * 0.3))
        np.testing.assert_allclose(w1, w2, atol=1e-12)

    def test_empty_history_rejected(self):
        with pytest.raises(InsufficientHistoryError):
            compute_weights(np.empty((0, 3)), np.zeros(3), KernelSpec())


class TestPredictShape:
    def test_identical_history_reproduces_it(self):
        s = np.array([0.2, 0.8, 1.0])
        shapes = np.tile(s, (4, 1))
        w = np.array([0.1, 0.2, 0.3, 0.4])
        np.testing.assert_allclose(predict_shape(shapes, w), s, atol=1e-15)

    def test_weighted_two_point_fixture(self):
        shapes = np.array([[1.0, 0.0], [0.0, 1.0]])
        w = np.array([0.62246, 0.37754])
        np.testing.assert_allclose(
            predict_shape(shapes, w), [0.62246, 0.37754], atol=1e-5
        )

    def test_one_hot_selects_exactly(self):
        rng = np.random.default_rng(3)
        shapes = rng.random((5, 7))
        w = np.zeros(5)
        w[3] = 1.0
        np.testing.assert_array_equal(predict_shape(shapes, w), shapes[3])

    def test_length_mismatch(self):
        with pytest.raises(ShapecastError):
            predict_shape(np.ones((2, 3)), np.ones(3))

    def test_convex_hull(self):
        rng = np.random.default_rng(4)
        shapes = rng.random((6, 5))
        w = rng.random(6)
        w /= w.sum()
        pred = predict_shape(shapes, w)
        assert np.all(pred >= shapes.min(axis=0) - 1e-12)
        assert np.all(pred <= shapes.max(axis=0) + 1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        shapes = rng.random((6, 5))
        ref = rng.random(5)
        perm = rng.permutation(6)
        w = compute_weights(shapes, ref, KernelSpec(KernelKind.GAUSSIAN, 0.5))
        w_perm = compute_weights(shapes[perm], ref, KernelSpec(KernelKind.GAUSSIAN, 0.5))
        np.testing.assert_allclose(w[perm], w_perm, atol=1e-15)
        np.testing.assert_allclose(
            predict_shape(shapes, w), predict_shape(shapes[perm], w_perm), atol=1e-12
        )


def full_mask_forecast(grid, values):
    return TemperatureSegment(grid, values)


def brute_force_ssp(records, target_group, forecast_values, forecast_mask,
                    n_L, kind, h):
    """Flat single-function re-implementation, pure Python floats throughout.

    Candidates: same-group days among the last n_L. Reference: the candidate
    (plus exact ties) with minimal euclidean temperature distance on the
    forecast mask, shapes averaged. Weights: normalized kernel of euclidean
    shape distance over the whole history. Prediction: the weighted sum.
    """
    def eucl(a, b, idx):
        return math.sqrt(sum((a[i] - b[i]) ** 2 for i in idx))

    def kern(u):
        if kind == "gaussian":
            return math.exp(-0.5 * u * u) / math.sqrt(2 * math.pi)
        if kind == "epanechnikov":
            return 0.75 * (1 - u * u) if abs(u) <= 1 else 0.0
        return 0.5 if abs(u) <= 1 else 0.0

    P = len(records[0].load.values)
    shapes = []
    for rec in records:
        m = max(rec.load.values)
        shapes.append([v / m for v in rec.load.values])

    tail = records[-n_L:]
    cand_idx = [i for i, rec in enumerate(records)
                if rec in tail and rec.meta.group is target_group]
    dists = {
        i: eucl(list(records[i].temperature.values), list(forecast_values), forecast_mask)
        for i in cand_idx
    }
    d_min = min(dists.values())
    chosen = [i for i in cand_idx if dists[i] == d_min]
    ref = [sum(shapes[i][p] for i in chosen) / len(chosen) for p in range(P)]

    mass = [kern(eucl(s, ref, range(P)) / h) for s in shapes]
    total = sum(mass)
    weights = [m / total for m in mass]
    return [sum(weights[r] * shapes[r][p] for r in range(len(records)))
            for p in range(P)]


class TestPredictDay:
    def test_identical_same_group_days(self, grid4):
        # every day shares one shape; prediction must reproduce it
        shape = np.array([0.5, 1.0, 0.75, 0.25])
        loads = [shape * (300.0 + 10 * i) for i in range(14)]
        temps = [[20.0] * 4 for _ in range(14)]
        history = make_history(grid4, MONDAY, loads, temps)
        target = annotate_calendar(MONDAY + dt.timedelta(days=14))
        pred = predict_day(history, target, full_mask_forecast(grid4, [20.0] * 4))
        np.testing.assert_allclose(pred.shape.values, shape, atol=1e-12)

    def test_single_day_history(self, grid4):
        history = make_history(grid4, MONDAY, [[100.0, 300.0, 200.0, 100.0]],
                               [[20.0] * 4])
        target = annotate_calendar(MONDAY + dt.timedelta(days=7))
        pred = predict_day(history, target, full_mask_forecast(grid4, [25.0] * 4))
        np.testing.assert_array_equal(
            pred.shape.values, [1 / 3, 1.0, 2 / 3, 1 / 3]
        )

    def test_scaled_output_present_iff_max_given(self, grid4):
        history = make_history(grid4, MONDAY, [[100.0, 300.0, 200.0, 100.0]],
                               [[20.0] * 4])
        target = annotate_calendar(MONDAY + dt.timedelta(days=7))
        forecast = full_mask_forecast(grid4, [20.0] * 4)
        assert predict_day(history, target, forecast).scaled is None
        pred = predict_day(history, target, forecast, next_day_max=600.0)
        np.testing.assert_allclose(pred.scaled.values, [200.0, 600.0, 400.0, 200.0])

    def test_matches_brute_force_oracle(self, grid4):
        rng = np.random.default_rng(17)
        grid = TimeGrid.equidistant(8)
        history = random_history(grid, rng, 10)
        target = annotate_calendar(history.records[-1].meta.date + dt.timedelta(days=1))
        forecast_values = 5.0 + 30.0 * rng.random(8)
        cfg = PredictorConfig(kernel=KernelSpec(KernelKind.GAUSSIAN, 0.7))
        pred = predict_day(history, target, full_mask_forecast(grid, forecast_values),
                           cfg=cfg)
        expected = brute_force_ssp(
            list(history.records), target.group, list(forecast_values),
            list(range(8)), 28, "gaussian", 0.7,
        )
        np.testing.assert_allclose(pred.shape.values, expected, atol=1e-12)

    def test_weight_vector_aligned_to_history(self, grid4):
        history = random_history(grid4, np.random.default_rng(19), 12)
        target = annotate_calendar(history.records[-1].meta.date + dt.timedelta(days=1))
        pred = predict_day(history, target, full_mask_forecast(grid4, [20.0] * 4))
        assert len(pred.weights) == len(history)
        assert abs(pred.weights.sum() - 1.0) <= 1e-12

    def test_same_group_only_masks_weights(self, grid4):
        history = random_history(grid4, np.random.default_rng(23), 14)
        target = annotate_calendar(history.records[-1].meta.date + dt.timedelta(days=1))
        cfg = PredictorConfig(same_group_only=True)
        pred = predict_day(history, target, full_mask_forecast(grid4, [20.0] * 4),
                           cfg=cfg)
        for w, rec in zip(pred.weights, history.records):
            if rec.meta.group is not target.group:
                assert w == 0.0
        assert abs(pred.weights.sum() - 1.0) <= 1e-12

    def test_empty_history_rejected(self, grid4):
        target = annotate_calendar(MONDAY)
        with pytest.raises(InsufficientHistoryError):
            predict_day(window_of((), grid4), target,
                        full_mask_forecast(grid4, [20.0] * 4))

    def test_holiday_fallback_uses_sundays(self, grid4):
        history = random_history(grid4, np.random.default_rng(29), 21)
        holiday = history.records[-1].meta.date + dt.timedelta(days=1)
        target = annotate_calendar(holiday, {holiday})
        pred = predict_day(history, target, full_mask_forecast(grid4, [20.0] * 4))
        sundays = {r.meta.date for r in history.records if r.meta.group.value == "G4"}
        assert set(pred.reference.c_star) <= sundays

    def test_serialization_fields(self, grid4):
        history = random_history(grid4, np.random.default_rng(31), 10)
        target = annotate_calendar(history.records[-1].meta.date + dt.timedelta(days=1))
        pred = predict_day(history, target, full_mask_forecast(grid4, [20.0] * 4),
                           next_day_max=500.0)
        d = prediction_to_dict(pred)
        assert d["date"] == target.date.isoformat()
        assert len(d["shape"]) == 4
        assert len(d["scaled"]) == 4
        assert "weights" not in d
        assert "kernel" in d["config"]
        d2 = prediction_to_dict(pred, include_weights=True)
        assert len(d2["weights"]) == len(history)


class TestSelectBandwidth:
    def make_noiseless_history(self, grid, days=60):
        # same-group days share a shape: any bandwidth attains zero risk
        rng = np.random.default_rng(41)
        base = 0.2 + 0.8 * rng.random(grid.points_per_day)
        base /= base.max()
        loads, temps = [], []
        for i in range(days):
            loads.append(base * (300.0 + 10.0 * (i % 9)))
            temps.append([20.0] * grid.points_per_day)
        return make_history(grid, MONDAY, loads, temps)

    def test_single_value_grid(self, grid4):
        history = self.make_noiseless_history(grid4)
        h, risks = select_bandwidth(history, PredictorConfig(), [0.37],
                                    validation_days=5)
        assert h == 0.37
        assert len(risks) == 1

    def test_noiseless_ties_resolve_to_smallest(self, grid4):
        history = self.make_noiseless_history(grid4)
        h, risks = select_bandwidth(history, PredictorConfig(), [0.5, 0.1, 2.0],
                                    validation_days=5)
        assert h == 0.1
        assert all(r == pytest.approx(0.0, abs=1e-12) for _, r in risks)

    def test_argmin_of_risks(self, grid4):
        rng = np.random.default_rng(43)
        history = random_history(grid4, rng, 40)
        _, risks = select_bandwidth(history, PredictorConfig(), [0.05, 0.5, 5.0],
                                    validation_days=5)
        best_h, _ = min(risks, key=lambda hr: (hr[1], hr[0]))
        h, _ = select_bandwidth(history, PredictorConfig(), [0.05, 0.5, 5.0],
                                validation_days=5)
        assert h == best_h

    def test_empty_grid_rejected(self, grid4):
        history = self.make_noiseless_history(grid4)
        with pytest.raises(ShapecastError):
            select_bandwidth(history, PredictorConfig(), [])

    def test_insufficient_history(self, grid4):
        history = self.make_noiseless_history(grid4, days=10)
        with pytest.raises(InsufficientHistoryError):
            select_bandwidth(history, PredictorConfig(), [0.5], validation_days=30)

    def test_default_grid_spans_median(self, grid4):
        history = random_history(grid4, np.random.default_rng(47), 30)
        grid_h = default_bandwidth_grid(history, n=25)
        assert len(grid_h) == 25
        assert grid_h[0] < grid_h[-1]
        assert np.all(np.diff(grid_h) > 0)


def seed_select_bandwidth(history, cfg, h_grid, validation_days=30):
    """Reference CV: one full predict_day per (bandwidth, validation day)."""
    risks = []
    records = history.records
    for h in sorted(float(h) for h in h_grid):
        day_cfg = PredictorConfig(
            cfg.reference, KernelSpec(cfg.kernel.kind, h), cfg.shape_distance,
            cfg.same_group_only, cfg.rescale,
        )
        errs = []
        for i in range(len(records) - validation_days, len(records)):
            target = records[i]
            pred = predict_day(
                window_of(records[:i]), target.meta, target.temperature,
                next_day_max=float(np.max(target.load.values)), cfg=day_cfg,
            )
            actual = target.load.values
            errs.append(float(np.mean(np.abs(pred.scaled.values - actual) / actual)))
        risks.append((h, float(np.mean(errs))))
    best_h, _ = min(risks, key=lambda hr: (hr[1], hr[0]))
    return best_h, risks


def seed_default_bandwidth_grid(history, dist=DistanceSpec(), n=25,
                                span=(0.01, 10.0), max_pairs=2000):
    """Reference grid: sample from the explicit list of all (i, j) pairs."""
    shapes = history.shapes
    L = shapes.shape[0]
    rng = np.random.default_rng(0)
    pairs = [(i, j) for i in range(L) for j in range(i + 1, L)]
    if len(pairs) > max_pairs:
        idx = rng.choice(len(pairs), size=max_pairs, replace=False)
        pairs = [pairs[i] for i in sorted(idx)]
    med = float(np.median([distance(shapes[i], shapes[j], dist) for i, j in pairs]))
    if med <= 0:
        med = 1e-6
    return med * np.logspace(np.log10(span[0]), np.log10(span[1]), n)


# threshold mode averages several candidates, so the reference is no history
# row and a compact kernel at a tiny bandwidth leaves every shape massless
THRESHOLD = ReferenceConfig(mode="threshold", delta_rule=DeltaRule("quantile", 0.9))

CV_CONFIGS = {
    "gaussian": PredictorConfig(),
    "gaussian-threshold": PredictorConfig(reference=THRESHOLD),
    "epanechnikov-threshold": PredictorConfig(
        reference=THRESHOLD, kernel=KernelSpec(KernelKind.EPANECHNIKOV)
    ),
    "uniform-threshold": PredictorConfig(
        reference=THRESHOLD, kernel=KernelSpec(KernelKind.UNIFORM)
    ),
    "mean-absolute": PredictorConfig(
        reference=ReferenceConfig(temp_distance=DistanceSpec("mean-absolute")),
        shape_distance=DistanceSpec("mean-absolute"),
    ),
    "max-absolute": PredictorConfig(
        reference=THRESHOLD, shape_distance=DistanceSpec("max-absolute")
    ),
    "no-rescale": PredictorConfig(rescale=False),
    "no-rescale-uniform": PredictorConfig(
        reference=THRESHOLD, kernel=KernelSpec(KernelKind.UNIFORM), rescale=False
    ),
    "same-group-only": PredictorConfig(same_group_only=True),
    "same-group-only-epanechnikov": PredictorConfig(
        kernel=KernelSpec(KernelKind.EPANECHNIKOV), same_group_only=True
    ),
}


class TestSelectBandwidthOracle:
    @pytest.mark.parametrize("name", sorted(CV_CONFIGS))
    def test_equals_per_bandwidth_pipelines(self, name, grid24):
        cfg = CV_CONFIGS[name]
        history = random_history(grid24, np.random.default_rng(53), 60)
        h_grid = list(default_bandwidth_grid(history, cfg.shape_distance)) + [1e-9, 3.0]
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            expected = seed_select_bandwidth(history, cfg, h_grid, validation_days=15)
        with warnings.catch_warnings(record=True) as seen_new:
            warnings.simplefilter("always")
            got = select_bandwidth(history, cfg, h_grid, validation_days=15)
        assert got == expected

        def fallbacks(ws):
            return sum("no segment within bandwidth" in str(w.message) for w in ws)

        # the nearest-segment fallback fires in both or in neither
        assert (fallbacks(seen) > 0) == (fallbacks(seen_new) > 0)
        # and, in both, it names the caller's file
        assert all(w.filename == __file__ for w in seen + seen_new
                   if "no segment within bandwidth" in str(w.message))
        if "threshold" in name or name == "no-rescale-uniform":
            assert fallbacks(seen_new) > 0

    def test_same_group_error_matches(self, grid24):
        # a one-hot fallback on an out-of-group day leaves no in-group mass
        cfg = PredictorConfig(
            reference=THRESHOLD, kernel=KernelSpec(KernelKind.UNIFORM),
            same_group_only=True,
        )
        history = random_history(grid24, np.random.default_rng(59), 60)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(ShapecastError) as seed_err:
                seed_select_bandwidth(history, cfg, [1e-9], validation_days=15)
            with pytest.raises(ShapecastError) as new_err:
                select_bandwidth(history, cfg, [1e-9], validation_days=15)
        assert type(new_err.value) is type(seed_err.value)
        assert str(new_err.value) == str(seed_err.value)

    @pytest.mark.parametrize("kind", ["euclidean", "mean-absolute", "max-absolute"])
    @pytest.mark.parametrize("length, max_pairs", [(2, 2000), (12, 2000), (80, 2000),
                                                   (30, 50), (30, 435), (30, 434)])
    def test_default_grid_equals_pair_list(self, grid24, kind, length, max_pairs):
        history = random_history(grid24, np.random.default_rng(length), length)
        dist = DistanceSpec(kind)
        expected = seed_default_bandwidth_grid(history, dist, max_pairs=max_pairs)
        got = default_bandwidth_grid(history, dist, max_pairs=max_pairs)
        assert np.array_equal(got, expected)

    def test_default_grid_needs_two_days(self, grid24):
        history = random_history(grid24, np.random.default_rng(1), 1)
        with pytest.raises(InsufficientHistoryError):
            default_bandwidth_grid(history)
        with pytest.raises(InsufficientHistoryError):
            default_bandwidth_grid(window_of((), grid24))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_weight_simplex_property(seed):
    rng = np.random.default_rng(seed)
    L = int(rng.integers(1, 12))
    P = int(rng.integers(2, 10))
    shapes = rng.random((L, P)) + 1e-3
    ref = rng.random(P)
    kind = list(KernelKind)[int(rng.integers(3))]
    h = 10 ** rng.uniform(-1.5, 1.5)
    import warnings as _warnings

    with _warnings.catch_warnings():
        _warnings.simplefilter("ignore")
        w = compute_weights(shapes, ref, KernelSpec(kind, h))
    assert np.all(w >= 0)
    assert abs(w.sum() - 1.0) <= 1e-12
    pred = predict_shape(shapes, w)
    assert np.all(pred >= shapes.min(axis=0) - 1e-12)
    assert np.all(pred <= shapes.max(axis=0) + 1e-12)


def test_kernel_shapes():
    assert kernel_value(0.0, KernelKind.GAUSSIAN) == pytest.approx(0.3989422804)
    assert kernel_value(1.5, KernelKind.EPANECHNIKOV) == 0.0
    assert kernel_value(0.5, KernelKind.EPANECHNIKOV) == pytest.approx(0.5625)
    assert kernel_value(0.99, KernelKind.UNIFORM) == 0.5
    assert kernel_value(1.01, KernelKind.UNIFORM) == 0.0
