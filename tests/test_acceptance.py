"""End-to-end acceptance checks.

Each test exercises one externally stated guarantee of the package and prints
a single PASS/FAIL line so the suite doubles as an acceptance report. All
randomness is pinned, so these are deterministic.
"""

import contextlib
import datetime as dt

import numpy as np
import pytest

from conftest import random_history, window_of
from shapecast.backtest import backtest
from shapecast.calendars import DayGroup, annotate_calendar
from shapecast.cli import main
from shapecast.errors import EmptyCandidateError
from shapecast.metrics import score_day
from shapecast.predictor import (
    KernelKind,
    KernelSpec,
    PredictorConfig,
    compute_weights,
    predict_day,
    predict_shape,
)
from shapecast.reference import DEFAULT_N_L, ReferenceConfig
from shapecast.segments import TimeGrid
from shapecast.synthetic import SyntheticSpec, consistency_experiment, generate
from test_predictor import brute_force_ssp, full_mask_forecast

# daily point counts that divide the day evenly, within the supported span
_VALID_P = [p for p in range(4, 97) if 1440 % p == 0]


@contextlib.contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    print(f"ACCEPTANCE {label}: PASS")


def test_01_oracle_equivalence():
    """Pipeline output matches a flat brute-force reimplementation to 1e-12."""
    with criterion("1 oracle equivalence"):
        rng = np.random.default_rng(2024)
        checked = 0
        while checked < 100:
            L = int(rng.integers(5, 31))
            P = _VALID_P[int(rng.integers(len(_VALID_P)))]
            grid = TimeGrid.equidistant(P)
            start = dt.date(2010, 3, 1) + dt.timedelta(days=int(rng.integers(7)))
            history = random_history(grid, rng, L, start=start)
            target = annotate_calendar(
                history.records[-1].meta.date + dt.timedelta(days=1)
            )
            forecast_values = 5.0 + 30.0 * rng.random(P)
            h = float(10 ** rng.uniform(-1, 0.5))
            cfg = PredictorConfig(kernel=KernelSpec(KernelKind.GAUSSIAN, h))
            try:
                pred = predict_day(
                    history, target, full_mask_forecast(grid, forecast_values),
                    cfg=cfg,
                )
            except EmptyCandidateError:
                continue  # short history without the target's group; redraw
            expected = brute_force_ssp(
                list(history.records), target.group, list(forecast_values),
                list(range(P)), DEFAULT_N_L[target.group], "gaussian", h,
            )
            np.testing.assert_allclose(pred.shape.values, expected, atol=1e-12)
            checked += 1


def test_02_weight_simplex_and_convex_hull():
    """1,000 random configurations keep weights on the simplex and predictions
    inside the pointwise convex hull of history."""
    import warnings

    with criterion("2 weight simplex / convex hull"):
        rng = np.random.default_rng(7)
        kinds = list(KernelKind)
        for _ in range(1000):
            L = int(rng.integers(1, 40))
            P = int(rng.integers(2, 48))
            shapes = 1e-3 + rng.random((L, P))
            ref = rng.random(P)
            spec = KernelSpec(kinds[int(rng.integers(3))], 10 ** rng.uniform(-2, 2))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                w = compute_weights(shapes, ref, spec)
            assert np.all(w >= 0)
            assert abs(w.sum() - 1.0) <= 1e-12
            pred = predict_shape(shapes, w)
            assert np.all(pred >= shapes.min(axis=0) - 1e-12)
            assert np.all(pred <= shapes.max(axis=0) + 1e-12)


def test_03_noiseless_exact_recovery():
    """With zero noise and a cycling finite temperature pool, the predictor
    recovers the clean curve to RMAE <= 1e-10 on every replication."""
    with criterion("3 noiseless exact recovery"):
        grid = TimeGrid.equidistant(24)
        L = 200
        cfg = PredictorConfig(
            reference=ReferenceConfig(n_L_by_group={g: L for g in DayGroup}),
            kernel=KernelSpec(KernelKind.EPANECHNIKOV, 1e-6),
            rescale=False,
        )
        for rep in range(20):
            spec = SyntheticSpec(
                grid, L + 1, noise_sigma=0.0, jitter_sigma=0.0,
                profile_mode="cycle", seed=(0, rep),
            )
            window, clean = generate(spec)
            history = window_of(window.records[:L])
            truth = clean[L]
            target = window.records[L]
            pred = predict_day(history, target.meta, target.temperature, cfg=cfg)
            rmae = float(np.mean(np.abs(pred.shape.values - truth) / truth))
            assert rmae <= 1e-10


@pytest.fixture(scope="module")
def decay_rows():
    template = SyntheticSpec(
        TimeGrid.equidistant(24), 1, noise_sigma=0.05, jitter_sigma=0.5, seed=0
    )
    return consistency_experiment(template, [64, 128, 256, 512], replications=50)


def test_04_consistency_decay(decay_rows):
    """Mean prediction error strictly decreases over growing history lengths
    under the shrinking-bandwidth / widening-window schedules."""
    with criterion("4 consistency decay"):
        means = {
            L: float(np.mean([r.err_pred for r in decay_rows if r.L == L]))
            for L in (64, 128, 256, 512)
        }
        assert means[64] > means[128] > means[256] > means[512]
        assert means[512] < 0.8 * means[64]


def test_05_prediction_reference_coupling(decay_rows):
    """|err_pred - err_ref| never exceeds the prediction-to-reference distance,
    and that distance shrinks with the bandwidth schedule."""
    with criterion("5 prediction/reference coupling"):
        for r in decay_rows:
            assert abs(r.err_pred - r.err_ref) <= r.err_pred_ref + 1e-12
        gap = {
            L: float(np.mean([r.err_pred_ref for r in decay_rows if r.L == L]))
            for L in (64, 512)
        }
        assert gap[512] < gap[64]


def test_06_beats_baselines():
    """On group-dependent synthetic data the kernel predictor posts a lower
    median RMAE than both baselines in at least 80% of replications."""
    with criterion("6 comparative behavior"):
        grid = TimeGrid.equidistant(24)
        L = 160
        cfg = PredictorConfig(kernel=KernelSpec(KernelKind.GAUSSIAN, 0.3))
        methods = ["ssp", "persistence", "conditional-kernel"]
        ssp_wins = 0
        reps = 20
        for rep in range(reps):
            spec = SyntheticSpec(grid, L, noise_sigma=0.03, seed=(1, rep))
            window, _ = generate(spec)
            pool = [r.meta.date for r in window.records[100:]]
            picker = np.random.default_rng(rep)
            dates = sorted(
                pool[i] for i in picker.choice(len(pool), size=30, replace=False)
            )
            report = backtest(window, dates, methods, cfg)
            medians = {m: report.summary[m]["median_rmae"] for m in methods}
            if medians["ssp"] < medians["persistence"] and (
                medians["ssp"] < medians["conditional-kernel"]
            ):
                ssp_wins += 1
        assert ssp_wins >= 0.8 * reps


def test_07_metric_correctness():
    """score_day reproduces hand-computed error values exactly."""
    with criterion("7 metric correctness"):
        def seg(values):
            return np.asarray(values, dtype=float)

        rmae, maxdiff, mindiff = score_day(
            seg([0.6, 1.0, 0.5, 0.5]), seg([0.5, 1.0, 1.0, 0.25])
        )
        assert abs(rmae - (0.2 + 0.0 + 0.5 + 1.0) / 4) <= 1e-12
        assert abs(maxdiff - 0.25) <= 1e-12
        assert abs(mindiff - (-0.5)) <= 1e-12

        # uniform overestimate: even the least-wrong point errs high, so the
        # signed minimum difference is positive
        rmae, maxdiff, mindiff = score_day(
            seg([0.6, 1.1, 0.6, 0.6]), seg([0.5, 1.0, 0.5, 0.5])
        )
        assert mindiff > 0
        assert abs(maxdiff - 0.1) <= 1e-12
        assert abs(mindiff - 0.1) <= 1e-12
        assert abs(rmae - (0.2 + 0.1 + 0.2 + 0.2) / 4) <= 1e-12

        perfect = seg([0.5, 1.0, 0.75, 0.25])
        assert score_day(perfect, perfect) == (0.0, 0.0, 0.0)


def test_08_cli_determinism(tmp_path):
    """Every CLI command rerun with identical inputs produces byte-identical
    output files."""
    with criterion("8 CLI determinism"):
        start = dt.date(2010, 3, 1)
        days = 70
        rng = np.random.default_rng(5)
        load_rows = ["timestamp,load_mw"]
        temp_rows = ["timestamp,temp_c"]
        for d in range(days):
            date = start + dt.timedelta(days=d)
            for p in range(24):
                stamp = f"{date.isoformat()}T{p:02d}:00"
                load = 200.0 + 70.0 * np.sin(2 * np.pi * p / 24.0) + rng.normal(0, 2)
                temp = 15.0 + 7.0 * np.sin(2 * np.pi * p / 24.0 - 2.0)
                load_rows.append(f"{stamp},{load:.3f}")
                temp_rows.append(f"{stamp},{temp:.3f}")
        load_csv = tmp_path / "load.csv"
        temps_csv = tmp_path / "temps.csv"
        load_csv.write_text("\n".join(load_rows) + "\n")
        temps_csv.write_text("\n".join(temp_rows) + "\n")
        target = (start + dt.timedelta(days=days - 1)).isoformat()
        forecast_csv = tmp_path / "forecast.csv"
        forecast_csv.write_text(
            f"date,t0800,t1200,t1600,t2000\n{target},16.0,20.0,19.0,15.0\n"
        )
        dates_file = tmp_path / "dates.txt"
        dates_file.write_text(
            "\n".join(
                (start + dt.timedelta(days=d)).isoformat() for d in (60, 62, 65)
            )
            + "\n"
        )

        def run_all(tag):
            hist = tmp_path / f"history-{tag}.jsonl"
            assert main([
                "ingest", "--load", str(load_csv), "--temps", str(temps_csv),
                "--out", str(hist), "--points-per-day", "24",
            ]) == 0
            pred = tmp_path / f"pred-{tag}.json"
            assert main([
                "predict", "--history", str(hist), "--date", target,
                "--temp-forecast", str(forecast_csv), "--bandwidth", "auto",
                "--out", str(pred),
            ]) == 0
            bt_dir = tmp_path / f"bt-{tag}"
            assert main([
                "backtest", "--history", str(hist), "--dates-file",
                str(dates_file), "--out-dir", str(bt_dir), "--bandwidth", "0.3",
            ]) == 0
            sim = tmp_path / f"sim-{tag}.csv"
            assert main([
                "simulate", "--lengths", "32,64", "--replications", "2",
                "--points-per-day", "12", "--seed", "3", "--out", str(sim),
            ]) == 0
            files = {
                "history": hist.read_bytes(),
                "pred": pred.read_bytes(),
                "report.csv": (bt_dir / "report.csv").read_bytes(),
                "report.json": (bt_dir / "report.json").read_bytes(),
                "sim": sim.read_bytes(),
            }
            for day_csv in sorted((bt_dir / "days").glob("*.csv")):
                files[f"days/{day_csv.name}"] = day_csv.read_bytes()
            return files

        first = run_all("a")
        second = run_all("b")
        assert first.keys() == second.keys()
        for name in first:
            assert first[name] == second[name], f"{name} differs between reruns"
