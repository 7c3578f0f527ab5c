import csv
import datetime as dt
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import FLOAT_EDGES, make_history, random_history
from shapecast import backtest as backtest_module
from shapecast.backtest import (
    METHODS,
    BacktestReport,
    backtest,
    check_methods,
    emit_day_curves,
    emit_report,
    summarize,
)
from shapecast.errors import ShapecastError
from shapecast.history import HistoryWindow
from shapecast.metrics import score_day
from shapecast.predictor import KernelSpec, PredictorConfig, select_bandwidth
from shapecast.segments import TemperatureSegment, TimeGrid

MONDAY = dt.date(2010, 6, 7)
ALL_METHODS = ["ssp", "persistence", "conditional-kernel"]


def backtest_history(grid, days=40, seed=13):
    return random_history(grid, np.random.default_rng(seed), days)


class TestBacktest:
    def test_every_pair_scored(self, grid4):
        history = backtest_history(grid4)
        dates = list(history.dates[-5:])
        report = backtest(history, dates, ALL_METHODS)
        assert report.dates == dates
        assert report.methods == ALL_METHODS
        assert report.actual.shape == (5, 4)
        assert report.predicted.shape == (5, 3, 4)
        assert report.scores.shape == (5, 3, 3)

    def test_unknown_method_rejected(self, grid4):
        history = backtest_history(grid4)
        with pytest.raises(ShapecastError, match="unknown methods"):
            backtest(history, [history.dates[-1]], ["oracle"])

    @pytest.mark.parametrize("methods, repeated", [
        (["ssp", "ssp", "persistence"], ["ssp"]),
        (["persistence", "ssp", "persistence", "ssp", "persistence"], ["persistence", "ssp"]),
    ])
    def test_repeated_method_rejected(self, grid4, methods, repeated):
        history = backtest_history(grid4)
        with pytest.raises(ShapecastError) as err:
            backtest(history, [history.dates[-1]], methods)
        assert str(err.value) == f"methods listed more than once: {repeated}"
        check_methods(sorted(set(methods)))

    def test_date_without_prior_history(self, grid4):
        history = backtest_history(grid4)
        with pytest.raises(ShapecastError, match="no prior history"):
            backtest(history, [history.dates[0]], ["persistence"])

    def test_missing_temperature_rejected(self, grid4):
        days = backtest_history(grid4, days=30)
        bare = days.dates[-1] + dt.timedelta(days=1)
        history = make_history(grid4, days.dates[0],
                               np.vstack([days.loads, [[1.0, 2.0, 3.0, 2.0]]]),
                               np.vstack([days.temps, np.full((1, 4), np.nan)]))
        with pytest.raises(ShapecastError, match="no realized temperature") as in_backtest:
            backtest(history, [bare], ["ssp"])
        # bandwidth CV walks forward the same way, so it fails with the same error
        # (31 days: a one-day validation window, the bare day)
        with pytest.raises(ShapecastError) as in_cv:
            select_bandwidth(history, PredictorConfig())
        assert str(in_backtest.value) == str(in_cv.value) == (
            f"{bare.isoformat()}: no realized temperature to stand in "
            "for the forecast"
        )

    def test_unscorable_day_named(self, grid4):
        history = backtest_history(grid4, days=31)
        loads = np.array(history.loads)
        loads[-1, 2] = 0.0  # a valid history, but no RMAE against this day
        zero = make_history(grid4, history.dates[0], loads, history.temps)
        day = history.dates[-1]
        with pytest.raises(ShapecastError) as in_backtest:
            backtest(zero, [day], ALL_METHODS)
        # bandwidth CV scores the same day (its one-day validation window)
        with pytest.raises(ShapecastError) as in_cv:
            select_bandwidth(zero, PredictorConfig())
        assert str(in_backtest.value) == str(in_cv.value) == (
            f"{day.isoformat()}: actual values must be strictly positive for RMAE"
        )

    def test_no_lookahead(self, grid4):
        # replacing every record after the target day must not move the scores
        history = backtest_history(grid4, days=40)
        target_date = history.dates[20]
        report_full = backtest(history, [target_date], ALL_METHODS)

        loads = np.array(history.loads)
        loads[[date > target_date for date in history.dates]] = 777.0
        tampered = HistoryWindow(history.grid, history.dates, loads, history.temps,
                                 history.is_holiday, history.quality)
        report_tampered = backtest(tampered, [target_date], ALL_METHODS)
        assert report_full.scores.tolist() == report_tampered.scores.tolist()

    def test_deterministic(self, grid4):
        history = backtest_history(grid4)
        dates = list(history.dates[-4:])
        r1 = backtest(history, dates, ALL_METHODS)
        r2 = backtest(history, dates, ALL_METHODS)
        assert r1.scores.tolist() == r2.scores.tolist()
        assert emit_report(r1, "json") == emit_report(r2, "json")

    def test_perfect_predictor_on_constant_shape(self, grid4):
        # every day shares one shape (levels differ): persistence is exact
        rng = np.random.default_rng(3)
        shape = 0.25 + 0.75 * rng.random(4)
        shape /= shape.max()
        loads = [shape * (200.0 + 10.0 * (i % 11)) for i in range(35)]
        temps = [[20.0] * 4 for _ in range(35)]
        history = make_history(grid4, MONDAY, loads, temps)
        dates = list(history.dates[-7:])
        report = backtest(history, dates, ["persistence"])
        assert report.summary["persistence"]["mean_rmae"] == pytest.approx(0.0, abs=1e-12)

    def test_persistence_is_shape_times_actual_max(self, grid4):
        # the megawatt curve is the same-group shape times the realized maximum
        history = backtest_history(grid4)
        target = len(history) - 1
        last_same = next(i for i in reversed(range(target))
                         if history.meta(i).group is history.meta(target).group)
        date = history.dates[target]
        report = backtest(history, [date], ["persistence"])
        last_load = history.loads[last_same]
        expected = last_load / last_load.max() * float(np.max(history.loads[target]))
        curve = report.predicted[0, 0]
        assert curve.tobytes() == expected.tobytes()


class TestErrorOrder:
    """A day without temperature fails first; an absent date fails when reached."""

    def bare_at(self, grid4, row):
        history = backtest_history(grid4, days=10)
        temps = np.array(history.temps)
        temps[row] = np.nan
        return make_history(grid4, history.dates[0], history.loads, temps)

    def test_bare_first_day_is_a_temperature_error(self, grid4):
        history = self.bare_at(grid4, 0)
        with pytest.raises(ShapecastError) as err:
            backtest(history, [history.dates[0]], ["persistence"])
        assert str(err.value) == (
            f"{history.dates[0].isoformat()}: no realized temperature to stand in "
            "for the forecast"
        )

    def test_bare_day_before_absent_date(self, grid4):
        history = self.bare_at(grid4, 5)
        absent = history.dates[-1] + dt.timedelta(days=30)
        with pytest.raises(ShapecastError, match="no realized temperature") as err:
            backtest(history, [history.dates[5], absent], ["persistence"])
        assert history.dates[5].isoformat() in str(err.value)

    def test_absent_date_before_bare_day(self, grid4):
        history = self.bare_at(grid4, 5)
        absent = history.dates[-1] + dt.timedelta(days=30)
        with pytest.raises(ShapecastError) as err:
            backtest(history, [absent, history.dates[5]], ["persistence"])
        assert str(err.value) == f"no record for {absent.isoformat()}"

    def test_methods_predict_before_the_day_is_scored(self, grid4):
        history = backtest_history(grid4)
        loads = np.array(history.loads)
        loads[30] = 0.0  # no shape for this day: ssp fails on every later prior
        loads[38, 1] = 0.0  # and day 38 cannot be scored
        spoiled = make_history(grid4, history.dates[0], loads, history.temps)
        target = [history.dates[38]]
        with pytest.raises(ShapecastError, match="actual values must be strictly positive"):
            backtest(spoiled, target, ["persistence"])
        # a failing method comes first, wherever it stands in the list
        for methods in (["persistence", "ssp"], ["ssp", "persistence"]):
            with pytest.raises(ShapecastError, match="nonpositive maximum"):
                backtest(spoiled, target, methods)


def seed_backtest(history, dates, methods, cfg):
    """Reference backtest: one `METHODS` call and one `score_day` per (date, method).

    The scores nest as date, method, (rmae, maxdiff, mindiff), in Python floats.
    """
    scores, curves = [], {}
    for date in dates:
        i = history.row(date)
        prior, meta, actual = history.before(date), history.meta(i), history.loads[i]
        forecast = TemperatureSegment(history.grid, history.temps[i])
        day_max = float(np.max(actual))
        scores.append([])
        curves[date] = {}
        for method in methods:
            predicted = METHODS[method](prior, meta, forecast, cfg) * day_max
            scores[-1].append(list(map(float, score_day(predicted, actual))))
            curves[date][method] = predicted
    return scores, curves


BACKTEST_CONFIGS = {
    "default": PredictorConfig(kernel=KernelSpec(bandwidth=0.3)),
    "same-group-only": PredictorConfig(kernel=KernelSpec(bandwidth=0.3),
                                       same_group_only=True),
    # megawatt distances: a bandwidth on their scale
    "no-rescale": PredictorConfig(kernel=KernelSpec(bandwidth=300.0), rescale=False),
}


class TestBacktestOracle:
    """Scoring a day's methods together equals scoring each pair alone, bit for bit."""

    @pytest.mark.parametrize("name", sorted(BACKTEST_CONFIGS))
    @pytest.mark.parametrize("points", [4, 96])
    def test_equals_per_pair_scoring(self, name, points):
        cfg = BACKTEST_CONFIGS[name]
        grid = TimeGrid.equidistant(points)
        history = backtest_history(grid, days=40, seed=points)
        dates = history.dates[-8:]
        expected_scores, expected_curves = seed_backtest(history, dates, ALL_METHODS, cfg)
        report = backtest(history, dates, ALL_METHODS, cfg)
        scores = report.scores.tolist()
        assert scores == expected_scores
        assert all(type(v) is float for day in scores for s in day for v in s)
        assert report.dates == list(dates)
        assert report.methods == ALL_METHODS
        for date, actual, predicted in zip(report.dates, report.actual, report.predicted):
            assert actual.tobytes() == history.loads[history.row(date)].tobytes()
            for method, curve in zip(report.methods, predicted):
                assert curve.tobytes() == expected_curves[date][method].tobytes()


class TestSharedShapes:
    """Every date's prior window is a prefix of one history and shares its shapes."""

    def test_prefixes_share_one_shapes_matrix(self, grid4, monkeypatch):
        history = backtest_history(grid4)
        priors = []

        def spy(prior, meta, forecast, cfg, ssp=METHODS["ssp"]):
            priors.append(prior)
            return ssp(prior, meta, forecast, cfg)

        monkeypatch.setitem(METHODS, "ssp", spy)
        backtest(history, history.dates[-3:], ["ssp", "conditional-kernel"])
        assert [len(p) for p in priors] == [37, 38, 39]
        for a, b in zip(priors, priors[1:]):
            assert np.shares_memory(a.shapes, b.shapes)
            assert np.array_equal(a.shapes, b.shapes[:len(a)])

    def test_nonpositive_day_after_last_date(self, grid4):
        history = backtest_history(grid4)
        loads = np.array(history.loads)
        loads[-1] = 0.0
        spoiled = make_history(grid4, history.dates[0], loads, history.temps)
        dates = history.dates[-4:-1]
        report = backtest(spoiled, dates, ALL_METHODS)
        assert report.scores.tolist() == backtest(history, dates, ALL_METHODS).scores.tolist()


class TestSummarize:
    def test_wins_shared_on_tie(self):
        summary = summarize(np.array([[0.1, 0.1], [0.1, 0.2]]), ["a", "b"])
        assert summary["a"]["wins"] == 2
        assert summary["b"]["wins"] == 1

    def test_mean_median(self):
        summary = summarize(np.array([[0.1], [0.2], [0.6]]), ["a"])
        assert summary["a"]["mean_rmae"] == pytest.approx(0.3)
        assert summary["a"]["median_rmae"] == pytest.approx(0.2)
        assert summary["a"]["days"] == 3

    def test_empty(self):
        summary = summarize(np.empty((0, 1)), ["a"])
        assert summary["a"]["days"] == 0
        assert summary["a"]["mean_rmae"] is None


def seed_summarize(rmae, methods):
    """Reference summary: per-date dicts of (method, rmae) records, one day at a time."""
    records = [(d, m, r) for d, row in enumerate(rmae.tolist()) for m, r in zip(methods, row)]
    by_date = {}
    for d, m, r in records:
        by_date.setdefault(d, {})[m] = r
    wins = {m: 0 for m in methods}
    for rmaes in by_date.values():
        best = min(rmaes.values())
        for m, r in rmaes.items():
            if r == best:
                wins[m] += 1
    summary = {}
    for m in methods:
        rmaes = [r for _, method, r in records if method == m]
        summary[m] = {
            "days": len(rmaes),
            "mean_rmae": float(np.mean(rmaes)) if rmaes else None,
            "median_rmae": float(np.median(rmaes)) if rmaes else None,
            "wins": wins[m],
        }
    return summary


# a few distinct values, so that ties and repeats are common, and fractions
# whose sums round, so that the order of summation shows; no finite value is
# large enough for a mean to overflow
RMAE_VALUES = st.sampled_from([0.0, 0.05, 0.1, math.inf]) | st.floats(0, 1) | st.floats(0, 1e100)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 4).flatmap(lambda m: st.lists(
    st.lists(RMAE_VALUES, min_size=m, max_size=m), max_size=40,
).map(lambda rows: np.array(rows, dtype=float).reshape(len(rows), m))))
def test_summarize_equals_per_date_records(rmae):
    methods = [f"m{j}" for j in range(rmae.shape[1])]
    summary = summarize(rmae, methods)
    assert summary == seed_summarize(rmae, methods)
    assert all(type(s["wins"]) is int for s in summary.values())


class TestReportSerialization:
    def make_report(self, grid4):
        history = backtest_history(grid4)
        dates = list(history.dates[-3:])
        return backtest(history, dates, ALL_METHODS)

    def test_csv_roundtrip_exact(self, grid4):
        report = self.make_report(grid4)
        rows = list(csv.reader(io.StringIO(emit_report(report, "csv"))))[1:]
        assert [(dt.date.fromisoformat(r[0]), r[1]) for r in rows] == [
            (date, method) for date in report.dates for method in report.methods
        ]
        back = [[float(v) for v in r[2:]] for r in rows]
        # repr() floats survive the trip bit-exactly
        assert back == report.scores.reshape(-1, 3).tolist()

    def test_csv_header(self, grid4):
        text = emit_report(self.make_report(grid4), "csv")
        assert text.splitlines()[0] == "date,method,rmae,maxdiff,mindiff"

    def test_json_carries_summary_and_config(self, grid4):
        import json

        doc = json.loads(emit_report(self.make_report(grid4), "json"))
        assert doc["protocol"] == "perfect-temperature"
        assert set(doc["summary"]) == set(ALL_METHODS)
        assert "kernel" in doc["config"]
        assert len(doc["scores"]) == 9

    def test_unknown_format(self, grid4):
        with pytest.raises(ShapecastError, match="format"):
            emit_report(self.make_report(grid4), "xml")

    def test_day_curves_layout(self, grid4):
        report = self.make_report(grid4)
        files = emit_day_curves(report)
        assert len(files) == 3
        for date_key, text in files.items():
            lines = text.splitlines()
            assert lines[0] == "t,actual,conditional-kernel,persistence,ssp"
            assert len(lines) == 1 + 4  # header + one row per grid point
            dt.date.fromisoformat(date_key)

    def test_day_files_sorted_by_date(self, grid4):
        history = backtest_history(grid4)
        dates = list(history.dates[-3:])
        forward = emit_day_curves(backtest(history, dates, ALL_METHODS))
        backward = emit_day_curves(backtest(history, dates[::-1], ALL_METHODS))
        assert list(backward) == [date.isoformat() for date in dates]
        assert backward == forward

    def test_day_curves_write_each_value_as_repr(self, grid4):
        actual = np.array([1e-5, 2.5, 3e17, 4.0])
        predicted = {"ssp": np.array([np.nan, np.inf, -np.inf, 1.0]),
                     "persistence": np.array([0.1, 0.2, 0.30000000000000004, 1e15])}
        report = BacktestReport(
            dates=[MONDAY], methods=list(predicted), actual=actual[None],
            predicted=np.array([list(predicted.values())]), scores=np.empty((1, 2, 3)),
            summary={}, config={}, grid_labels=grid4.labels,
        )
        columns = [actual] + [predicted[m] for m in sorted(predicted)]
        rows = zip(grid4.labels, *(c.tolist() for c in columns))
        want = "t,actual,persistence,ssp\n" + "".join(
            ",".join([label, *map(repr, values)]) + "\n" for label, *values in rows)
        assert emit_day_curves(report) == {MONDAY.isoformat(): want}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.lists(st.floats() | st.sampled_from([*FLOAT_EDGES, math.nan, math.inf]),
                         min_size=4, max_size=4), min_size=1, max_size=4))
def test_day_curve_texts_are_reprs(rows):
    texts = backtest_module._value_texts(np.array(rows))
    assert [list(t) for t in texts] == [list(map(repr, row)) for row in rows]
