import csv
import datetime as dt
import io

import numpy as np
import pytest

from conftest import make_history, make_record, random_history, window_of
from shapecast.backtest import (
    METHODS,
    backtest,
    emit_day_curves,
    emit_report,
    summarize,
)
from shapecast.errors import ShapecastError
from shapecast.history import DailyRecord, HistoryWindow
from shapecast.metrics import DayScore
from shapecast.predictor import PredictorConfig, select_bandwidth

MONDAY = dt.date(2010, 6, 7)
ALL_METHODS = ["ssp", "persistence", "conditional-kernel"]


def backtest_history(grid, days=40, seed=13):
    return random_history(grid, np.random.default_rng(seed), days)


class TestBacktest:
    def test_every_pair_scored(self, grid4):
        history = backtest_history(grid4)
        dates = [r.meta.date for r in history.records[-5:]]
        report = backtest(history, dates, ALL_METHODS)
        assert len(report.scores) == 5 * 3
        assert {s.method for s in report.scores} == set(ALL_METHODS)
        assert report.protocol == "perfect-temperature"

    def test_unknown_method_rejected(self, grid4):
        history = backtest_history(grid4)
        with pytest.raises(ShapecastError, match="unknown methods"):
            backtest(history, [history.records[-1].meta.date], ["oracle"])

    def test_date_without_prior_history(self, grid4):
        history = backtest_history(grid4)
        with pytest.raises(ShapecastError, match="no prior history"):
            backtest(history, [history.records[0].meta.date], ["persistence"])

    def test_missing_temperature_rejected(self, grid4):
        recs = list(backtest_history(grid4, days=30).records)
        bare = make_record(
            grid4, recs[-1].meta.date + dt.timedelta(days=1), [1.0, 2.0, 3.0, 2.0]
        )
        history = window_of(tuple(recs) + (bare,))
        with pytest.raises(ShapecastError, match="no realized temperature") as in_backtest:
            backtest(history, [bare.meta.date], ["ssp"])
        # bandwidth CV uses the same stand-in, so it fails with the same error
        with pytest.raises(ShapecastError) as in_cv:
            select_bandwidth(history, PredictorConfig(), [0.3], validation_days=1)
        assert str(in_backtest.value) == str(in_cv.value) == (
            f"{bare.meta.date.isoformat()}: no realized temperature to stand in "
            "for the forecast"
        )

    def test_no_lookahead(self, grid4):
        # replacing every record after the target day must not move the scores
        history = backtest_history(grid4, days=40)
        target_date = history.records[20].meta.date
        report_full = backtest(history, [target_date], ALL_METHODS)

        tampered = []
        for i, rec in enumerate(history.records):
            if rec.meta.date > target_date:
                load = rec.load.__class__(rec.load.grid, rec.load.values * 0.0 + 777.0)
                tampered.append(DailyRecord(rec.meta, load, rec.temperature, rec.quality))
            else:
                tampered.append(rec)
        report_tampered = backtest(window_of(tampered), [target_date],
                                   ALL_METHODS)
        for a, b in zip(report_full.scores, report_tampered.scores):
            assert a == b

    def test_deterministic(self, grid4):
        history = backtest_history(grid4)
        dates = [r.meta.date for r in history.records[-4:]]
        r1 = backtest(history, dates, ALL_METHODS)
        r2 = backtest(history, dates, ALL_METHODS)
        assert r1.scores == r2.scores
        assert emit_report(r1, "json") == emit_report(r2, "json")

    def test_perfect_predictor_on_constant_shape(self, grid4):
        # every day shares one shape (levels differ): persistence is exact
        rng = np.random.default_rng(3)
        shape = 0.25 + 0.75 * rng.random(4)
        shape /= shape.max()
        loads = [shape * (200.0 + 10.0 * (i % 11)) for i in range(35)]
        temps = [[20.0] * 4 for _ in range(35)]
        history = make_history(grid4, MONDAY, loads, temps)
        dates = [r.meta.date for r in history.records[-7:]]
        report = backtest(history, dates, ["persistence"])
        assert report.summary["persistence"]["mean_rmae"] == pytest.approx(0.0, abs=1e-12)

    def test_persistence_is_shape_times_actual_max(self, grid4):
        # the megawatt curve is the same-group shape times the realized maximum
        history = backtest_history(grid4)
        target = history.records[-1]
        last_same = next(r for r in reversed(history.records[:-1])
                         if r.meta.group is target.meta.group)
        report = backtest(history, [target.meta.date], ["persistence"])
        last_load = last_same.load.values
        expected = last_load / last_load.max() * float(np.max(target.load.values))
        curve = report.curves[target.meta.date].predicted["persistence"]
        assert curve.tobytes() == expected.tobytes()


def never_built(window):
    pytest.fail("the shapes matrix was built")


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
        assert report.scores == backtest(history, dates, ALL_METHODS).scores

    def test_persistence_never_builds_shapes(self, grid4, monkeypatch):
        history = backtest_history(grid4)
        expected = backtest(history, history.dates[-3:], ["persistence"])
        monkeypatch.setattr(HistoryWindow, "shapes", property(never_built))
        report = backtest(history, history.dates[-3:], ["persistence"])
        assert report.scores == expected.scores


class TestSummarize:
    def test_wins_shared_on_tie(self):
        d = dt.date(2010, 1, 4)
        scores = [
            DayScore(d, "a", 0.1, 0.0, 0.0),
            DayScore(d, "b", 0.1, 0.0, 0.0),
            DayScore(d + dt.timedelta(days=1), "a", 0.1, 0.0, 0.0),
            DayScore(d + dt.timedelta(days=1), "b", 0.2, 0.0, 0.0),
        ]
        summary = summarize(scores, ["a", "b"])
        assert summary["a"]["wins"] == 2
        assert summary["b"]["wins"] == 1

    def test_mean_median(self):
        d = dt.date(2010, 1, 4)
        scores = [
            DayScore(d + dt.timedelta(days=i), "a", r, 0.0, 0.0)
            for i, r in enumerate([0.1, 0.2, 0.6])
        ]
        summary = summarize(scores, ["a"])
        assert summary["a"]["mean_rmae"] == pytest.approx(0.3)
        assert summary["a"]["median_rmae"] == pytest.approx(0.2)
        assert summary["a"]["days"] == 3

    def test_empty(self):
        summary = summarize([], ["a"])
        assert summary["a"]["days"] == 0
        assert summary["a"]["mean_rmae"] is None


class TestReportSerialization:
    def make_report(self, grid4):
        history = backtest_history(grid4)
        dates = [r.meta.date for r in history.records[-3:]]
        return backtest(history, dates, ALL_METHODS)

    def test_csv_roundtrip_exact(self, grid4):
        report = self.make_report(grid4)
        rows = list(csv.reader(io.StringIO(emit_report(report, "csv"))))[1:]
        back = [
            DayScore(dt.date.fromisoformat(r[0]), r[1], float(r[2]), float(r[3]),
                     float(r[4]))
            for r in rows
        ]
        assert back == report.scores  # repr() floats survive the trip bit-exactly

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
