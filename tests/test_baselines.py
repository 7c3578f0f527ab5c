import datetime as dt
import math

import numpy as np
import pytest

from conftest import make_history, random_history
from shapecast.baselines import (
    conditional_kernel_weights,
    predict_conditional_kernel,
    predict_persistence,
)
from shapecast.calendars import DayGroup
from shapecast.errors import EmptyCandidateError, InsufficientHistoryError
from shapecast.predictor import KernelKind, KernelSpec
from shapecast.segments import rescale_day

MONDAY = dt.date(2010, 6, 7)


class TestPersistence:
    def test_returns_latest_same_group_shape(self, grid4):
        history = random_history(grid4, np.random.default_rng(1), 21)
        latest = max(
            (r for r in history.records if r.meta.group is DayGroup.G3),
            key=lambda r: r.meta.date,
        )
        shape = predict_persistence(history, DayGroup.G3)
        np.testing.assert_array_equal(shape.values, rescale_day(latest.load).values)

    def test_weekday_pool_prefers_friday(self, grid4):
        loads = [[100.0 + i, 200.0, 300.0 + i, 150.0] for i in range(7)]
        history = make_history(grid4, MONDAY, loads)
        shape = predict_persistence(history, DayGroup.G1)
        # Mon/Tue/Thu/Fri share the pool; Friday is its most recent member
        np.testing.assert_array_equal(
            shape.values, rescale_day(history.records[4].load).values
        )

    def test_no_same_group_day(self, grid4):
        history = make_history(grid4, MONDAY, [[1.0, 2.0, 3.0, 4.0]] * 2)  # Mon, Tue
        with pytest.raises(EmptyCandidateError):
            predict_persistence(history, DayGroup.G3)

    def test_output_is_shape(self, grid4):
        history = make_history(grid4, MONDAY, [[100.0, 400.0, 200.0, 100.0]])
        shape = predict_persistence(history, DayGroup.G1)
        assert np.max(shape.values) == 1.0
        np.testing.assert_array_equal(shape.values, [0.25, 1.0, 0.5, 0.25])


class TestConditionalKernelWeights:
    def test_first_day_gets_zero_weight(self):
        rng = np.random.default_rng(3)
        shapes = rng.random((6, 4))
        w = conditional_kernel_weights(shapes, KernelSpec(KernelKind.GAUSSIAN, 0.5))
        assert w[0] == 0.0
        assert abs(w.sum() - 1.0) <= 1e-12
        assert np.all(w >= 0)

    def test_weights_reflect_predecessor_similarity(self):
        # day r is weighted by closeness of day r-1 to the last day
        last = np.array([0.5, 1.0, 0.5, 0.25])
        shapes = np.array([
            last,                   # index 0: no predecessor, weight 0
            [0.9, 1.0, 0.1, 0.9],   # predecessor == last, so nearest
            [0.2, 0.3, 1.0, 0.2],   # predecessor far from last
            last,
        ])
        w = conditional_kernel_weights(shapes, KernelSpec(KernelKind.GAUSSIAN, 0.3))
        assert w[1] == max(w)
        assert w[1] > w[2]

    def test_single_day_rejected(self):
        with pytest.raises(InsufficientHistoryError):
            conditional_kernel_weights(np.ones((1, 4)), KernelSpec())

    def test_two_identical_days(self):
        shapes = np.array([[0.5, 1.0], [0.5, 1.0]])
        w = conditional_kernel_weights(shapes, KernelSpec())
        np.testing.assert_array_equal(w, [0.0, 1.0])

    def test_compact_kernel_zero_mass_falls_back(self):
        shapes = np.array([[0.0, 0.0], [1.0, 1.0], [0.3, 0.3]])
        with pytest.warns(UserWarning, match="nearest"):
            w = conditional_kernel_weights(
                shapes, KernelSpec(KernelKind.EPANECHNIKOV, 1e-9)
            )
        assert w.sum() == 1.0
        assert w[0] == 0.0


class TestConditionalKernelPredict:
    def test_identical_history(self, grid4):
        shape = np.array([0.25, 1.0, 0.5, 0.25])
        loads = [shape * (200.0 + 5 * i) for i in range(6)]
        history = make_history(grid4, MONDAY, loads)
        pred = predict_conditional_kernel(history, KernelSpec())
        np.testing.assert_allclose(pred.values, shape, atol=1e-12)

    def test_convex_combination_of_history(self, grid4):
        history = random_history(grid4, np.random.default_rng(5), 10)
        pred = predict_conditional_kernel(
            history, KernelSpec(KernelKind.GAUSSIAN, 0.4)
        )
        shapes = history.shapes
        assert np.all(pred.values >= shapes.min(axis=0) - 1e-12)
        assert np.all(pred.values <= shapes.max(axis=0) + 1e-12)

    def test_oracle_small_case(self, grid4):
        history = random_history(grid4, np.random.default_rng(7), 5)
        h = 0.6
        pred = predict_conditional_kernel(history, KernelSpec(KernelKind.GAUSSIAN, h))
        shapes = history.shapes
        last = shapes[-1]
        mass = [0.0]
        for r in range(1, 5):
            d = math.sqrt(float(np.sum((shapes[r - 1] - last) ** 2)))
            mass.append(math.exp(-0.5 * (d / h) ** 2) / math.sqrt(2 * math.pi))
        w = np.array(mass) / sum(mass)
        np.testing.assert_allclose(pred.values, w @ shapes, atol=1e-12)
