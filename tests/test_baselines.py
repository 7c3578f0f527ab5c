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
from shapecast.calendars import GROUPS, DayGroup
from shapecast.errors import EmptyCandidateError, InsufficientHistoryError, ShapecastError
from shapecast.history import HistoryWindow
from shapecast.predictor import KernelSpec

MONDAY = dt.date(2010, 6, 7)


class TestPersistence:
    def test_returns_latest_same_group_shape(self, grid4):
        history = random_history(grid4, np.random.default_rng(1), 21)
        latest = max(
            (i for i in range(len(history)) if history.meta(i).group is DayGroup.G3),
            key=lambda i: history.dates[i],
        )
        shape = predict_persistence(history, DayGroup.G3)
        np.testing.assert_array_equal(
            shape, history.loads[latest] / history.loads[latest].max()
        )

    def test_weekday_pool_prefers_friday(self, grid4):
        loads = [[100.0 + i, 200.0, 300.0 + i, 150.0] for i in range(7)]
        history = make_history(grid4, MONDAY, loads)
        shape = predict_persistence(history, DayGroup.G1)
        # Mon/Tue/Thu/Fri share the pool; Friday is its most recent member
        friday = history.loads[4]
        np.testing.assert_array_equal(shape, friday / friday.max())

    def test_no_same_group_day(self, grid4):
        history = make_history(grid4, MONDAY, [[1.0, 2.0, 3.0, 4.0]] * 2)  # Mon, Tue
        with pytest.raises(EmptyCandidateError):
            predict_persistence(history, DayGroup.G3)

    def test_output_is_shape(self, grid4):
        history = make_history(grid4, MONDAY, [[100.0, 400.0, 200.0, 100.0]])
        shape = predict_persistence(history, DayGroup.G1)
        assert np.max(shape) == 1.0
        np.testing.assert_array_equal(shape, [0.25, 1.0, 0.5, 0.25])

    def test_bytes_are_the_history_shapes_row(self, grid24):
        rng = np.random.default_rng(11)
        for _ in range(30):
            days = random_history(grid24, rng, int(rng.integers(1, 40)))
            holidays = rng.random(len(days)) < 0.1
            history = HistoryWindow(grid24, days.dates, days.loads, days.temps, holidays)
            # a span that may start past its root's row 0, as no backtest prefix does
            window = history.span(int(rng.integers(0, len(history))), len(history))
            for group in DayGroup:
                rows = np.flatnonzero(window.group == GROUPS.index(group))
                if len(rows):
                    shape = predict_persistence(window, group)
                    assert shape.tobytes() == window.shapes[rows[-1]].tobytes()

    def test_zero_load_day_of_another_group_is_not_read(self, grid4):
        loads = [[100.0 + i, 200.0, 300.0 + i, 150.0] for i in range(7)]
        loads[6] = [0.0] * 4  # the Sunday
        history = make_history(grid4, MONDAY, loads)
        with pytest.raises(ShapecastError, match="nonpositive maximum"):
            history.shapes
        friday = history.loads[4]
        np.testing.assert_array_equal(
            predict_persistence(history, DayGroup.G1), friday / friday.max()
        )

    def test_zero_load_last_target_day_names_its_date(self, grid4):
        loads = [[100.0 + i, 200.0, 300.0 + i, 150.0] for i in range(7)]
        loads[4] = [0.0] * 4  # the Friday, the latest day of the weekday pool
        history = make_history(grid4, MONDAY, loads)
        message = f"{history.dates[4]}: cannot rescale a segment with nonpositive maximum"
        with pytest.raises(ShapecastError, match=f"^{message}$"):
            predict_persistence(history, DayGroup.G1)


class TestConditionalKernelWeights:
    def test_first_day_gets_zero_weight(self):
        rng = np.random.default_rng(3)
        shapes = rng.random((6, 4))
        w = conditional_kernel_weights(shapes, KernelSpec(0.5))
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
        w = conditional_kernel_weights(shapes, KernelSpec(0.3))
        assert w[1] == max(w)
        assert w[1] > w[2]

    def test_single_day_rejected(self):
        with pytest.raises(InsufficientHistoryError):
            conditional_kernel_weights(np.ones((1, 4)), KernelSpec())

    def test_two_identical_days(self):
        shapes = np.array([[0.5, 1.0], [0.5, 1.0]])
        w = conditional_kernel_weights(shapes, KernelSpec())
        np.testing.assert_array_equal(w, [0.0, 1.0])

    def test_underflowing_kernel_falls_back(self):
        # at h = 1e-9 every Gaussian mass underflows to 0
        shapes = np.array([[0.0, 0.0], [1.0, 1.0], [0.3, 0.3]])
        with pytest.warns(UserWarning, match="nearest"):
            w = conditional_kernel_weights(shapes, KernelSpec(1e-9))
        assert w.sum() == 1.0
        assert w[0] == 0.0


class TestConditionalKernelPredict:
    def test_identical_history(self, grid4):
        shape = np.array([0.25, 1.0, 0.5, 0.25])
        loads = [shape * (200.0 + 5 * i) for i in range(6)]
        history = make_history(grid4, MONDAY, loads)
        pred = predict_conditional_kernel(history, KernelSpec())
        np.testing.assert_allclose(pred, shape, atol=1e-12)

    def test_convex_combination_of_history(self, grid4):
        history = random_history(grid4, np.random.default_rng(5), 10)
        pred = predict_conditional_kernel(
            history, KernelSpec(0.4)
        )
        shapes = history.shapes
        assert np.all(pred >= shapes.min(axis=0) - 1e-12)
        assert np.all(pred <= shapes.max(axis=0) + 1e-12)

    def test_oracle_small_case(self, grid4):
        history = random_history(grid4, np.random.default_rng(7), 5)
        h = 0.6
        pred = predict_conditional_kernel(history, KernelSpec(h))
        shapes = history.shapes
        last = shapes[-1]
        mass = [0.0]
        for r in range(1, 5):
            d = math.sqrt(float(np.sum((shapes[r - 1] - last) ** 2)))
            mass.append(math.exp(-0.5 * (d / h) ** 2) / math.sqrt(2 * math.pi))
        w = np.array(mass) / sum(mass)
        np.testing.assert_allclose(pred, w @ shapes, atol=1e-12)
