import datetime as dt
import inspect
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import distance, make_history, random_history, raw_stage
from shapecast import baselines, predictor
from shapecast.baselines import predict_conditional_kernel, predict_persistence
from shapecast.calendars import GROUPS, DayGroup, annotate_calendar
from shapecast.errors import (
    EmptyCandidateError,
    GridMismatchError,
    InsufficientHistoryError,
    ShapecastError,
)
from shapecast.history import HistoryWindow
from shapecast.predictor import (
    KernelKind,
    KernelSpec,
    PredictorConfig,
    _kernel_weights,
    default_bandwidth_grid,
    kernel_value,
    predict_day,
    predict_shape,
    prediction_to_dict,
    select_bandwidth,
)
from shapecast.reference import DEFAULT_N_L, DeltaRule, ReferenceConfig, select_reference
from shapecast.segments import (
    DistanceKind,
    TemperatureSegment,
    TimeGrid,
    distances,
)

MONDAY = dt.date(2010, 6, 7)


class TestComputeWeights:
    """Kernel weights of history shapes: `_kernel_weights` over their `distances`."""

    def test_singleton_normalizes_to_one(self):
        dists = distances(np.array([[0.5, 1.0]]), np.array([0.1, 0.9]))
        w, _, _ = _kernel_weights(dists, KernelKind.GAUSSIAN, 1.0)
        np.testing.assert_array_equal(w, [1.0])

    def test_equidistant_split_evenly(self):
        shapes = np.array([[1.0, 0.0], [0.0, 1.0]])
        ref = np.array([0.5, 0.5])
        w, _, _ = _kernel_weights(distances(shapes, ref), KernelKind.GAUSSIAN, 1.0)
        np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-15)

    def test_gaussian_unit_bandwidth_fixture(self):
        # standard normal density at distances 0 and 1, normalized
        shapes = np.array([[0.0, 0.0], [1.0, 0.0]])
        ref = np.array([0.0, 0.0])
        w, _, _ = _kernel_weights(distances(shapes, ref), KernelKind.GAUSSIAN, 1.0)
        np.testing.assert_allclose(w, [0.62246, 0.37754], atol=1e-5)

    def test_simplex(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            shapes = rng.random((6, 5))
            ref = rng.random(5)
            h = 10 ** rng.uniform(-2, 1)
            kind = list(KernelKind)[int(rng.integers(3))]
            w, _, _ = _kernel_weights(distances(shapes, ref), kind, h)
            assert np.all(w >= 0)
            assert abs(w.sum() - 1.0) <= 1e-12

    def test_compact_kernel_tiny_bandwidth_falls_back(self):
        shapes = np.array([[0.0, 0.0], [1.0, 1.0]])
        ref = np.array([0.4, 0.4])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w, dead, empty = _kernel_weights(
                distances(shapes, ref), KernelKind.EPANECHNIKOV, 1e-9
            )
        np.testing.assert_array_equal(w, [1.0, 0.0])
        assert dead and not empty

    def test_nearest_shape_out_of_group_leaves_the_row_empty(self):
        shapes = np.array([[0.0, 0.0], [1.0, 1.0]])
        ref = np.array([0.4, 0.4])
        w, dead, empty = _kernel_weights(distances(shapes, ref), KernelKind.EPANECHNIKOV,
                                         1e-9, np.array([False, True]))
        np.testing.assert_array_equal(w, [0.0, 0.0])
        assert dead and empty

    def test_huge_bandwidth_is_uniform(self):
        rng = np.random.default_rng(7)
        shapes = rng.random((10, 8))
        ref = rng.random(8)
        w, _, _ = _kernel_weights(distances(shapes, ref), KernelKind.GAUSSIAN, 1e9)
        assert np.max(np.abs(w - 0.1)) < 1e-6

    @pytest.mark.parametrize("h", [0.0, -1.0, math.nan, math.inf])
    def test_bandwidth_must_be_positive_and_finite(self, h):
        with pytest.raises(ShapecastError, match="bandwidth must be positive and finite"):
            KernelSpec(KernelKind.GAUSSIAN, h)

    def test_tiny_bandwidth_concentrates_on_nearest(self):
        shapes = np.array([[0.0, 0.0], [0.5, 0.5], [1.0, 1.0]])
        ref = np.array([0.45, 0.45])
        w, _, _ = _kernel_weights(distances(shapes, ref), KernelKind.GAUSSIAN, 1e-3)
        assert w[1] > 1.0 - 1e-12

    def test_scale_equivariance(self):
        rng = np.random.default_rng(8)
        shapes = rng.random((5, 6))
        ref = rng.random(6)
        c = 7.5
        w1, _, _ = _kernel_weights(distances(shapes, ref), KernelKind.GAUSSIAN, 0.3)
        w2, _, _ = _kernel_weights(
            distances(c * shapes, c * ref), KernelKind.GAUSSIAN, c * 0.3
        )
        np.testing.assert_allclose(w1, w2, atol=1e-12)


class TestBandwidthAxis:
    """An (H, 1) column of bandwidths weighs and combines the whole grid at once."""

    # 1e-9 leaves every kernel without mass; the dead rows sit between live ones
    H = np.array([1e-9, 0.05, 0.3, 1e-9, 1.0, 10.0])

    @pytest.mark.parametrize("grouped", [False, True])
    @pytest.mark.parametrize("kind", list(KernelKind))
    @pytest.mark.parametrize("L", [7, 300, 3000])
    def test_rows_equal_float_calls(self, kind, grouped, L):
        rng = np.random.default_rng(L)
        dists = distances(rng.random((L, 24)), rng.random(24))
        in_group = None
        if grouped:
            # a dead row falls back to the nearest shape: keep it in the group
            in_group = rng.random(L) < 0.5
            in_group[np.argmin(dists)] = True
        weights, dead, empty = _kernel_weights(dists, kind, self.H[:, None], in_group)
        assert weights.shape == (len(self.H), L)
        # 1e-9 is dead under every kernel; a compact kernel has no mass at
        # any bandwidth below the nearest distance either
        compact = kind is not KernelKind.GAUSSIAN
        assert np.array_equal(dead, (self.H == 1e-9) | compact & (self.H < dists.min()))
        for r, h in enumerate(self.H.tolist()):
            row, row_dead, row_empty = _kernel_weights(dists, kind, h, in_group)
            assert np.array_equal(weights[r], row)
            assert (dead[r], empty[r]) == (row_dead, row_empty)

    @pytest.mark.parametrize("L", [30, 300, 3000])
    def test_stacked_combination_equals_row_calls(self, L):
        rng = np.random.default_rng(L)
        shapes = rng.random((L, 96))
        weights = rng.random((25, L))
        weights /= weights.sum(axis=1, keepdims=True)
        got = predict_shape(shapes, weights)
        assert got.shape == (25, 96)
        for r in range(25):
            assert np.array_equal(got[r], predict_shape(shapes, weights[r]))
            assert np.array_equal(got[r], weights[r] @ shapes)


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
        w, _, _ = _kernel_weights(distances(shapes, ref), KernelKind.GAUSSIAN, 0.5)
        w_perm, _, _ = _kernel_weights(
            distances(shapes[perm], ref), KernelKind.GAUSSIAN, 0.5
        )
        np.testing.assert_allclose(w[perm], w_perm, atol=1e-15)
        np.testing.assert_allclose(
            predict_shape(shapes, w), predict_shape(shapes[perm], w_perm), atol=1e-12
        )


def full_mask_forecast(grid, values):
    return TemperatureSegment(grid, values)


def brute_force_ssp(history, target_group, forecast_values, forecast_mask,
                    n_L, kind, h, unit="shapes"):
    """Flat single-function re-implementation, pure Python floats throughout.

    The history enters as its column rows, turned into Python lists first.
    Each day's curve is its load divided by its maximum under `unit="shapes"`,
    the raw load itself under `unit="loads"`.
    Candidates: same-group days among the last n_L. Reference: the candidate
    (plus exact ties) with minimal euclidean temperature distance on the
    forecast mask, curves averaged. Weights: normalized kernel of euclidean
    curve distance over the whole history. Prediction: the weighted sum.
    """
    def eucl(a, b, idx):
        return math.sqrt(sum((a[i] - b[i]) ** 2 for i in idx))

    def kern(u):
        if kind == "gaussian":
            return math.exp(-0.5 * u * u) / math.sqrt(2 * math.pi)
        if kind == "epanechnikov":
            return 0.75 * (1 - u * u) if abs(u) <= 1 else 0.0
        return 0.5 if abs(u) <= 1 else 0.0

    loads, temps = history.loads.tolist(), history.temps.tolist()
    groups = [GROUPS[g] for g in history.group.tolist()]
    P, L = len(loads[0]), len(loads)
    curves = []
    for load in loads:
        m = max(load) if unit == "shapes" else 1.0
        curves.append([v / m for v in load])

    cand_idx = [i for i in range(max(L - n_L, 0), L) if groups[i] is target_group]
    dists = {
        i: eucl(temps[i], list(forecast_values), forecast_mask)
        for i in cand_idx
    }
    d_min = min(dists.values())
    chosen = [i for i in cand_idx if dists[i] == d_min]
    ref = [sum(curves[i][p] for i in chosen) / len(chosen) for p in range(P)]

    mass = [kern(eucl(c, ref, range(P)) / h) for c in curves]
    total = sum(mass)
    weights = [m / total for m in mass]
    return [sum(weights[r] * curves[r][p] for r in range(L))
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
        np.testing.assert_allclose(pred.shape, shape, atol=1e-12)

    def test_single_day_history(self, grid4):
        history = make_history(grid4, MONDAY, [[100.0, 300.0, 200.0, 100.0]],
                               [[20.0] * 4])
        target = annotate_calendar(MONDAY + dt.timedelta(days=7))
        pred = predict_day(history, target, full_mask_forecast(grid4, [25.0] * 4))
        np.testing.assert_array_equal(pred.shape, [1 / 3, 1.0, 2 / 3, 1 / 3])

    def test_scaled_output_present_iff_max_given(self, grid4):
        history = make_history(grid4, MONDAY, [[100.0, 300.0, 200.0, 100.0]],
                               [[20.0] * 4])
        target = annotate_calendar(MONDAY + dt.timedelta(days=7))
        forecast = full_mask_forecast(grid4, [20.0] * 4)
        assert predict_day(history, target, forecast).scaled is None
        pred = predict_day(history, target, forecast, next_day_max=600.0)
        np.testing.assert_allclose(pred.scaled, [200.0, 600.0, 400.0, 200.0])

    def test_matches_brute_force_oracle(self, grid4):
        rng = np.random.default_rng(17)
        grid = TimeGrid.equidistant(8)
        history = random_history(grid, rng, 10)
        target = annotate_calendar(history.dates[-1] + dt.timedelta(days=1))
        forecast_values = 5.0 + 30.0 * rng.random(8)
        cfg = PredictorConfig(kernel=KernelSpec(KernelKind.GAUSSIAN, 0.7))
        pred = predict_day(history, target, full_mask_forecast(grid, forecast_values),
                           cfg=cfg)
        expected = brute_force_ssp(
            history, target.group, list(forecast_values),
            list(range(8)), 28, "gaussian", 0.7,
        )
        np.testing.assert_allclose(pred.shape, expected, atol=1e-12)

    def test_raw_loads_match_brute_force_oracle(self):
        # the lab's oracle weighs and combines the raw loads: the paper's predictor
        # on the raw scale
        rng = np.random.default_rng(53)
        checked = 0
        while checked < 40:
            L, P = int(rng.integers(5, 31)), int(rng.choice([4, 8, 24]))
            start = MONDAY + dt.timedelta(days=int(rng.integers(7)))
            history = random_history(TimeGrid.equidistant(P), rng, L, start=start)
            target = annotate_calendar(history.dates[-1] + dt.timedelta(days=1))
            forecast_values = 5.0 + 30.0 * rng.random(P)
            # bandwidths on the scale of the raw distances keep several days weighted
            i, j = np.triu_indices(L, 1)
            median = float(np.median(distances(history.loads[i], history.loads[j])))
            h = median * float(10 ** rng.uniform(-0.5, 0.5))
            try:  # the default kernel is Gaussian
                _, weights, shape, _ = raw_stage(
                    history, target.group, full_mask_forecast(history.grid, forecast_values),
                    PredictorConfig(), h)
            except EmptyCandidateError:
                continue  # short history without the target's group; redraw
            assert weights.max() < 0.99
            expected = brute_force_ssp(
                history, target.group, list(forecast_values),
                list(range(P)), DEFAULT_N_L[target.group], "gaussian", h, unit="loads",
            )
            np.testing.assert_allclose(shape, expected, atol=1e-12)
            checked += 1

    def test_weight_vector_aligned_to_history(self, grid4):
        history = random_history(grid4, np.random.default_rng(19), 12)
        target = annotate_calendar(history.dates[-1] + dt.timedelta(days=1))
        pred = predict_day(history, target, full_mask_forecast(grid4, [20.0] * 4))
        assert len(pred.weights) == len(history)
        assert abs(pred.weights.sum() - 1.0) <= 1e-12

    def test_same_group_only_masks_weights(self, grid4):
        history = random_history(grid4, np.random.default_rng(23), 14)
        target = annotate_calendar(history.dates[-1] + dt.timedelta(days=1))
        cfg = PredictorConfig(same_group_only=True)
        pred = predict_day(history, target, full_mask_forecast(grid4, [20.0] * 4),
                           cfg=cfg)
        for i, w in enumerate(pred.weights):
            if history.meta(i).group is not target.group:
                assert w == 0.0
        assert abs(pred.weights.sum() - 1.0) <= 1e-12

    def test_empty_history_rejected(self, grid4):
        target = annotate_calendar(MONDAY)
        with pytest.raises(InsufficientHistoryError):
            predict_day(make_history(grid4, MONDAY, np.empty((0, 4))), target,
                        full_mask_forecast(grid4, [20.0] * 4))

    def test_holiday_fallback_uses_sundays(self, grid4):
        history = random_history(grid4, np.random.default_rng(29), 21)
        holiday = history.dates[-1] + dt.timedelta(days=1)
        target = annotate_calendar(holiday, {holiday})
        pred = predict_day(history, target, full_mask_forecast(grid4, [20.0] * 4))
        sundays = {history.meta(i).date for i in range(len(history))
                   if history.meta(i).group.value == "G4"}
        assert set(pred.reference.c_star) <= sundays

    def test_serialization_fields(self, grid4):
        history = random_history(grid4, np.random.default_rng(31), 10)
        target = annotate_calendar(history.dates[-1] + dt.timedelta(days=1))
        pred = predict_day(history, target, full_mask_forecast(grid4, [20.0] * 4),
                           next_day_max=500.0)
        d = prediction_to_dict(pred)
        assert d["date"] == target.date.isoformat()
        assert len(d["shape"]) == 4
        assert len(d["scaled"]) == 4
        assert "weights" not in d
        assert "kernel" in d["config"]
        assert d["config"]["shape_distance"] == "euclidean"
        assert d["config"]["reference"]["temp_distance"] == "euclidean"
        d2 = prediction_to_dict(pred, include_weights=True)
        assert len(d2["weights"]) == len(history)



# two forecasts of the wrong length, and one of the right length on other times
@pytest.mark.parametrize("grid", [TimeGrid.equidistant(2), TimeGrid.equidistant(8),
                                  TimeGrid(("03:00", "09:00", "15:00", "21:00"))])
def test_forecast_off_the_history_grid_refused(grid4, grid):
    history = random_history(grid4, np.random.default_rng(20), 20)
    target = annotate_calendar(history.dates[-1] + dt.timedelta(days=1))
    forecast = TemperatureSegment(grid, [20.0] * grid.points_per_day)
    message = "^the forecast's grid is not the history's$"
    with pytest.raises(GridMismatchError, match=message):
        predict_day(history, target, forecast)
    with pytest.raises(GridMismatchError, match=message):
        select_reference(history, np.arange(len(history)), forecast, ReferenceConfig())


def test_shape_distance_coerced_and_checked():
    cfg = PredictorConfig(shape_distance="mean-absolute")
    assert cfg.shape_distance is DistanceKind.MEAN_ABSOLUTE
    with pytest.raises(ValueError, match="'bogus' is not a valid DistanceKind"):
        PredictorConfig(shape_distance="bogus")


def next_day(history):
    """The day after the history and a flat 20 C forecast for it."""
    target = annotate_calendar(history.dates[-1] + dt.timedelta(days=1))
    return target, full_mask_forecast(history.grid, [20.0] * history.grid.points_per_day)


def predict_after(history):
    """The next day's prediction, at a next-day maximum of 500 MW."""
    return predict_day(history, *next_day(history), next_day_max=500.0)


def raw_reference(history):
    """The reference segment the lab's raw-load oracle builds for the next day."""
    target, forecast = next_day(history)
    cfg = PredictorConfig()
    reference, *_ = raw_stage(history, target.group, forecast, cfg, cfg.kernel.bandwidth)
    return reference.reference


OUTPUTS = {
    "shape": lambda history: predict_after(history).shape,
    "scaled": lambda history: predict_after(history).scaled,
    "reference": lambda history: predict_after(history).reference.reference,
    "raw-reference": raw_reference,
    "persistence": lambda history: predict_persistence(history, DayGroup.G1),
    "conditional-kernel": lambda history: predict_conditional_kernel(history, KernelSpec()),
}


class TestOutputContract:
    """Predictions, references and baselines are fresh read-only arrays."""

    @pytest.mark.parametrize("name", sorted(OUTPUTS))
    def test_output_refuses_writes(self, grid4, name):
        history = random_history(grid4, np.random.default_rng(37), 14)
        loads, shapes = history.loads.copy(), history.shapes.copy()
        out = OUTPUTS[name](history)
        assert out.dtype == float and out.shape == (4,)
        assert not np.shares_memory(out, history.loads)
        assert not np.shares_memory(out, history.shapes)
        with pytest.raises(ValueError):
            out[0] = -1.0
        with pytest.raises(ValueError):
            out *= 0.0
        assert history.loads.tobytes() == loads.tobytes()
        assert history.shapes.tobytes() == shapes.tobytes()

    @pytest.mark.parametrize("next_day_max", [math.nan, math.inf, 0.0, -1.0])
    def test_next_day_max_must_be_positive_and_finite(self, grid4, next_day_max):
        history = random_history(grid4, np.random.default_rng(37), 14)
        target = annotate_calendar(history.dates[-1] + dt.timedelta(days=1))
        with pytest.raises(ShapecastError,
                           match="^next_day_max must be positive and finite$"):
            predict_day(history, target, full_mask_forecast(grid4, [20.0] * 4),
                        next_day_max=next_day_max)


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

    def test_single_value_grid(self, grid4, monkeypatch):
        history = self.make_noiseless_history(grid4, days=36)
        use_grid(monkeypatch, [0.37])
        h, risks = select_bandwidth(history, PredictorConfig())
        assert h == 0.37
        assert len(risks) == 1

    def test_noiseless_ties_resolve_to_smallest(self, grid4, monkeypatch):
        history = self.make_noiseless_history(grid4, days=36)
        use_grid(monkeypatch, [0.5, 0.1, 2.0])
        h, risks = select_bandwidth(history, PredictorConfig())
        assert h == 0.1
        assert all(r == pytest.approx(0.0, abs=1e-12) for _, r in risks)

    def test_argmin_of_risks(self, grid4, monkeypatch):
        rng = np.random.default_rng(43)
        history = random_history(grid4, rng, 36)
        use_grid(monkeypatch, [0.05, 0.5, 5.0])
        _, risks = select_bandwidth(history, PredictorConfig())
        best_h, _ = min(risks, key=lambda hr: (hr[1], hr[0]))
        h, _ = select_bandwidth(history, PredictorConfig())
        assert h == best_h

    def test_insufficient_history(self, grid4):
        history = self.make_noiseless_history(grid4, days=2)
        with pytest.raises(InsufficientHistoryError, match="need more than 2 days"):
            select_bandwidth(history, PredictorConfig())

    def test_default_grid_spans_median(self, grid4):
        history = random_history(grid4, np.random.default_rng(47), 30)
        grid_h = default_bandwidth_grid(history)
        assert len(grid_h) == 25
        assert grid_h[0] < grid_h[-1]
        assert np.all(np.diff(grid_h) > 0)

    @pytest.mark.parametrize("days, window", [(61, 30), (60, 29), (46, 15), (32, 1),
                                              (3, 1)])
    def test_validation_window(self, grid4, monkeypatch, days, window):
        # one walk-forward step per validation day
        calls, real = [], predictor.walk_forward

        def spy(history, dates, predict, K):
            def walked(prior, meta, forecast):
                calls.append(len(prior))  # day i is predicted from its i prior days
                return predict(prior, meta, forecast)
            return real(history, dates, walked, K)

        monkeypatch.setattr(predictor, "walk_forward", spy)
        # from a Sunday, so that even the 3-day history's last day, a Tuesday,
        # has a same-group day before it
        history = random_history(grid4, np.random.default_rng(days), days,
                                 start=dt.date(2010, 3, 7))
        select_bandwidth(history, PredictorConfig())
        assert calls == list(range(days - window, days))

    def test_one_stage_and_one_score_per_validation_day(self, grid4, monkeypatch):
        # the whole grid is weighed, combined and scored in one call per day
        calls = []

        def spy(name):
            real = getattr(predictor, name)
            return lambda *args: calls.append(name) or real(*args)

        for name in ("_stage", "score_day"):
            monkeypatch.setattr(predictor, name, spy(name))
        history = random_history(grid4, np.random.default_rng(46), 46)
        _, risks = select_bandwidth(history, PredictorConfig())
        assert len(risks) == 25
        assert calls == ["_stage", "score_day"] * 15


def use_grid(monkeypatch, h_grid):
    """Make `select_bandwidth` score `h_grid` instead of the default grid."""
    monkeypatch.setattr(predictor, "default_bandwidth_grid",
                        lambda history, dist: np.asarray(h_grid, dtype=float))


def seed_select_bandwidth(history, cfg, h_grid, validation_days=30):
    """Reference CV: one full predict_day per (bandwidth, validation day)."""
    risks = []
    L = len(history)
    for h in sorted(float(h) for h in h_grid):
        day_cfg = replace(cfg, kernel=replace(cfg.kernel, bandwidth=h))
        errs = []
        for i in range(L - validation_days, L):
            prior = HistoryWindow(
                history.grid, history.dates[:i], history.loads[:i], history.temps[:i],
                history.is_holiday[:i], history.quality[:i],
            )
            actual = history.loads[i]
            try:
                pred = predict_day(
                    prior, history.meta(i), TemperatureSegment(history.grid, history.temps[i]),
                    next_day_max=float(np.max(actual)), cfg=day_cfg,
                )
            except EmptyCandidateError as exc:  # a failed (h, day) scores infinite risk
                failure = exc
                errs.append(math.inf)
                continue
            errs.append(float(np.mean(np.abs(pred.scaled - actual) / actual)))
        risks.append((h, float(np.mean(errs))))
    if all(risk == math.inf for _, risk in risks):
        raise failure
    best_h, _ = min(risks, key=lambda hr: (hr[1], hr[0]))
    return best_h, risks


def seed_default_bandwidth_grid(history, dist):
    """Reference grid: sample 2,000 pairs from the explicit list of all (i, j)."""
    shapes = history.shapes
    L = shapes.shape[0]
    rng = np.random.default_rng(0)
    pairs = [(i, j) for i in range(L) for j in range(i + 1, L)]
    if len(pairs) > 2000:
        idx = rng.choice(len(pairs), size=2000, replace=False)
        pairs = [pairs[i] for i in sorted(idx)]
    med = float(np.median([distance(shapes[i], shapes[j], dist) for i, j in pairs]))
    if med <= 0:
        med = 1e-6
    return med * np.logspace(np.log10(0.01), np.log10(10.0), 25)


# a quantile δ rule averages several candidates, so the reference is no history
# row and a compact kernel at a tiny bandwidth leaves every shape massless
THRESHOLD = ReferenceConfig(delta_rule=DeltaRule("quantile", 0.9))

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
        reference=ReferenceConfig(temp_distance=DistanceKind("mean-absolute")),
        shape_distance=DistanceKind("mean-absolute"),
    ),
    "max-absolute": PredictorConfig(
        reference=THRESHOLD, shape_distance=DistanceKind("max-absolute")
    ),
    "same-group-only": PredictorConfig(same_group_only=True),
    "same-group-only-epanechnikov": PredictorConfig(
        kernel=KernelSpec(KernelKind.EPANECHNIKOV), same_group_only=True
    ),
}


class TestSelectBandwidthOracle:
    @pytest.mark.parametrize("name", sorted(CV_CONFIGS))
    def test_equals_per_bandwidth_pipelines(self, name, grid24, monkeypatch):
        cfg = CV_CONFIGS[name]
        # 46 days: a 15-day validation window
        history = random_history(grid24, np.random.default_rng(53), 46)
        h_grid = sorted([*default_bandwidth_grid(history, cfg.shape_distance), 1e-9, 3.0])
        use_grid(monkeypatch, h_grid)
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            expected = seed_select_bandwidth(history, cfg, h_grid, validation_days=15)
        with warnings.catch_warnings(record=True) as seen_new:
            warnings.simplefilter("always")
            got = select_bandwidth(history, cfg)
        assert got == expected

        def fallbacks(ws):
            return sum("no segment within bandwidth" in str(w.message) for w in ws)

        # the nearest-segment fallback fires in both or in neither
        assert (fallbacks(seen) > 0) == (fallbacks(seen_new) > 0)
        # and, in both, it names the caller's file
        assert all(w.filename == __file__ for w in seen + seen_new
                   if "no segment within bandwidth" in str(w.message))
        if "threshold" in name:
            assert fallbacks(seen_new) > 0

    # 1e-9 alone, or among bandwidths that keep their in-group mass: shapes and
    # references lie in [0, 1], so no euclidean distance on 24 points reaches 5
    @pytest.mark.parametrize("live", [[], [5.0, 10.0]])
    def test_same_group_error_matches(self, grid24, monkeypatch, live):
        # a one-hot fallback on an out-of-group day leaves no in-group mass: 1e-9
        # scores infinite risk, and CV fails only where no other bandwidth is live
        cfg = PredictorConfig(
            reference=THRESHOLD, kernel=KernelSpec(KernelKind.UNIFORM),
            same_group_only=True,
        )
        # seed 60: on this 46-day history the case arises in the 15-day window
        history = random_history(grid24, np.random.default_rng(60), 46)
        h_grid = [1e-9, *live]
        use_grid(monkeypatch, h_grid)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            if live:
                got = select_bandwidth(history, cfg)
                assert got == seed_select_bandwidth(history, cfg, h_grid, validation_days=15)
                assert [risk == math.inf for _, risk in got[1]] == [True, False, False]
                return
            with pytest.raises(ShapecastError) as seed_err:
                seed_select_bandwidth(history, cfg, h_grid, validation_days=15)
            with pytest.raises(ShapecastError) as new_err:
                select_bandwidth(history, cfg)
        assert type(new_err.value) is type(seed_err.value)
        assert str(new_err.value) == str(seed_err.value)

    @pytest.mark.parametrize("kind", ["euclidean", "mean-absolute", "max-absolute"])
    # 63 days make 1,953 pairs, all of them used; 64 and 80 days are sampled
    @pytest.mark.parametrize("length", [2, 12, 63, 64, 80])
    def test_default_grid_equals_pair_list(self, grid24, kind, length):
        history = random_history(grid24, np.random.default_rng(length), length)
        dist = DistanceKind(kind)
        expected = seed_default_bandwidth_grid(history, dist)
        got = default_bandwidth_grid(history, dist)
        assert np.array_equal(got, expected)

    def test_default_grid_needs_two_days(self, grid24):
        history = random_history(grid24, np.random.default_rng(1), 1)
        with pytest.raises(InsufficientHistoryError):
            default_bandwidth_grid(history)
        with pytest.raises(InsufficientHistoryError):
            default_bandwidth_grid(make_history(grid24, MONDAY, np.empty((0, 24))))


def test_fallback_warns_once_per_validation_day(grid24, monkeypatch):
    # three massless bandwidths on every one of the 15 validation days
    cfg = PredictorConfig(reference=THRESHOLD, kernel=KernelSpec(KernelKind.UNIFORM))
    history = random_history(grid24, np.random.default_rng(53), 46)
    use_grid(monkeypatch, [1e-9, 2e-9, 1e-8, 5.0, 10.0])
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        select_bandwidth(history, cfg)
    assert [str(w.message) for w in seen] == [
        "no segment within bandwidth; falling back to the nearest segment"
    ] * 15
    assert all(w.filename == __file__ for w in seen)


def test_conditional_kernel_fallback_names_its_call_line(grid4):
    # a compact kernel at a tiny bandwidth leaves no mass on any predecessor
    history = random_history(grid4, np.random.default_rng(5), 10)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        predict_conditional_kernel(history, KernelSpec(KernelKind.EPANECHNIKOV, 1e-9))
    # the warning names the line in `predict_conditional_kernel` that weighs
    lines, start = inspect.getsourcelines(baselines.predict_conditional_kernel)
    call = start + next(k for k, line in enumerate(lines) if "conditional_kernel_weights(" in line)
    assert [(str(w.message), w.filename, w.lineno) for w in seen] == [(
        "no segment within bandwidth; falling back to the nearest segment",
        baselines.__file__, call,
    )]


def test_dropped_candidates_warn_from_one_line(grid4, monkeypatch):
    # 48 days from a Monday: day 20, a Sunday, lies in the 28-day lookback of
    # the Sunday target and of the validation window's two Sundays (days
    # 34 and 41), and before the window (days 31-47)
    history = random_history(grid4, np.random.default_rng(53), 48)
    temps = history.temps.copy()
    temps[20] = np.nan
    history = make_history(grid4, history.dates[0], history.loads, temps)
    target = annotate_calendar(history.dates[-1] + dt.timedelta(days=1))
    assert target.group is DayGroup.G4
    use_grid(monkeypatch, [0.3])
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        predict_day(history, target, TemperatureSegment(grid4, [20.0] * 4))
        select_bandwidth(history, PredictorConfig())
    assert [str(w.message) for w in seen] == [
        f"dropping candidate {history.dates[20]}: no temperature data on the "
        "comparison mask"
    ] * 3
    assert {(w.filename, w.lineno) for w in seen} == {(seen[0].filename, seen[0].lineno)}
    assert seen[0].filename == predictor.__file__


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
    w, _, _ = _kernel_weights(distances(shapes, ref), kind, h)
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
