"""Golden bytes of `shapecast predict` and `shapecast backtest` on a small history.

The history is written from seeded arrays: 100 days on a 24-point grid, three
early days without temperature (so reference selection drops candidates), a
few unobserved points, and two holidays inside the bandwidth CV window (so a
holiday widens its candidates with Sundays). The digests pin the prediction
JSON at a fixed and at the cross-validated bandwidth, and every file the
backtest writes for all three methods, so a rewrite of any layer under them
that moves a single byte fails here. With a one-day reference lookback a
day can have no candidate; the whole run then fails, and the tests pin how.
"""

import datetime as dt
import hashlib

import numpy as np
import pytest

from shapecast.cli import main
from shapecast.history import HistoryWindow, history_jsonl_text
from shapecast.segments import TimeGrid

START = dt.date(2010, 3, 1)
DAYS = 100
TARGET = START + dt.timedelta(days=DAYS)
BACKTEST_ROWS = (70, 75, 88, 95)

PREDICT_SHA256 = {
    "0.3": "a52c22f6fbcfd0a1a1de6347ae3c62a5bdb6562e43111705e2c5705e8978c714",
    "auto": "cdc00583f53bf52328ba8ebeb08ef2184fe7f2dc9d3528433e02c95c6ab39e4a",
}
BACKTEST_SHA256 = {
    "days/2010-05-10.csv": "665ad64adfc50a9bb3761753400b70b25a9aa2ef2a43206dea45750fa33a7d97",
    "days/2010-05-15.csv": "9cd946535404bee05943f8782f718036c94dac2db1afb97208d4dce0ef56f668",
    "days/2010-05-28.csv": "14ee653a77355e99d0b28d5a8b534a1e46550d4c38fd40225f3a30efcc6f1a8d",
    "days/2010-06-04.csv": "7cce0f33d080ae1b6e348c909f78a4829953ce6bdd40ec5ac23ed94e1b225a89",
    "report.csv": "777414508fe0902efa290219bf1430969bfae0774984c97c9dd73ade603253dd",
    "report.json": "bee4f858fb755b1f727f8fc8014fed6561009933a45e6ff040570e85061eed56",
}


def write_inputs(tmp_path):
    grid = TimeGrid.equidistant(24)
    rng = np.random.default_rng(11)
    x = np.arange(24) / 24.0
    level = 5.0 * rng.random((DAYS, 1))
    temps = np.round(15.0 + level + 8.0 * np.sin(2 * np.pi * (x - 0.35))
                     + rng.random((DAYS, 24)), 3)
    loads = np.round(300.0 + 12.0 * level + 120.0 * np.sin(2 * np.pi * (x - 0.3))
                     + 20.0 * rng.random((DAYS, 24)), 3)
    temps[[3, 10, 17]] = np.nan
    temps[[22, 50, 81], [5, 14, 20]] = np.nan
    dates = tuple(START + dt.timedelta(days=i) for i in range(DAYS))
    holidays = [i in (45, 60) for i in range(DAYS)]
    history = tmp_path / "history.jsonl"
    history.write_text(history_jsonl_text(
        HistoryWindow(grid, dates, loads, temps, holidays)))
    forecast = tmp_path / "forecast.csv"
    forecast.write_text(f"date,t0800,t1200,t1600,t2000\n{TARGET},17.5,24.0,22.5,16.0\n")
    dates_file = tmp_path / "dates.txt"
    dates_file.write_text("".join(f"{dates[i]}\n" for i in BACKTEST_ROWS))
    return history, forecast, dates_file


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("bandwidth", sorted(PREDICT_SHA256))
def test_predict_output_is_pinned(tmp_path, bandwidth):
    history, forecast, _ = write_inputs(tmp_path)
    out = tmp_path / "prediction.json"
    code = main([
        "predict", "--history", str(history), "--date", TARGET.isoformat(),
        "--temp-forecast", str(forecast), "--next-day-max", "420",
        "--bandwidth", *bandwidth.split(), "--out", str(out),
    ])
    assert code == 0
    assert digest(out) == PREDICT_SHA256[bandwidth]


def test_backtest_outputs_are_pinned(tmp_path):
    history, _, dates_file = write_inputs(tmp_path)
    out_dir = tmp_path / "bt"
    code = main([
        "backtest", "--history", str(history), "--dates-file", str(dates_file),
        "--methods", "ssp,persistence,conditional-kernel", "--bandwidth", "auto",
        "--out-dir", str(out_dir),
    ])
    assert code == 0
    files = sorted(p for p in out_dir.rglob("*") if p.is_file())
    got = {p.relative_to(out_dir).as_posix(): digest(p) for p in files}
    assert got == BACKTEST_SHA256


# a one-day lookback: a day's only candidate is the day before it, when in its group
ONE_DAY_LOOKBACK = "[reference]\nn_l_g1 = 1\nn_l_default = 1\n"


@pytest.mark.parametrize("bandwidth, group", [("auto", "G1"), ("0.3", "G2")])
def test_predict_without_a_candidate_fails(tmp_path, capsys, bandwidth, group):
    # auto: CV's first validation day, a Monday, follows a Sunday; 0.3: the
    # target, a Wednesday, follows a Tuesday
    history, forecast, _ = write_inputs(tmp_path)
    config = tmp_path / "one-day.ini"
    config.write_text(ONE_DAY_LOOKBACK)
    out = tmp_path / "prediction.json"
    code = main([
        "predict", "--history", str(history), "--date", TARGET.isoformat(),
        "--temp-forecast", str(forecast), "--next-day-max", "420",
        "--config", str(config), "--bandwidth", bandwidth, "--out", str(out),
    ])
    assert code == 1
    assert capsys.readouterr().err == f"error: no usable candidate for group {group}\n"
    assert not out.exists()


def test_backtest_without_a_candidate_fails(tmp_path, capsys):
    # a Wednesday backtest date fails the whole run, before any file is written
    history, _, dates_file = write_inputs(tmp_path)
    dates_file.write_text(f"{START + dt.timedelta(days=72)}\n")
    config = tmp_path / "one-day.ini"
    config.write_text(ONE_DAY_LOOKBACK)
    out_dir = tmp_path / "bt"
    code = main([
        "backtest", "--history", str(history), "--dates-file", str(dates_file),
        "--config", str(config), "--bandwidth", "0.3", "--out-dir", str(out_dir),
    ])
    assert code == 1
    assert capsys.readouterr().err == "error: no usable candidate for group G2\n"
    assert not out_dir.exists()
