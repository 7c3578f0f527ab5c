import datetime as dt
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import shapecast
from shapecast import synthetic
from shapecast.cli import INI_KEYS, main
from shapecast.history import HistoryWindow, history_jsonl_text, read_history_jsonl
from shapecast.predictor import KernelSpec, PredictorConfig, config_snapshot
from shapecast.segments import TimeGrid

GRID = TimeGrid.equidistant(24)
START = dt.date(2010, 3, 1)  # a Monday
DAYS = 80


def synth_values(day, point, rng):
    base = 200.0 + 80.0 * np.sin(2 * np.pi * point / 24.0 - 1.5)
    return base + 15.0 * np.sin(day) + rng.normal(0.0, 3.0)


@pytest.fixture(scope="module")
def raw_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("raw")
    rng = np.random.default_rng(99)
    load_rows = ["timestamp,load_mw"]
    temp_rows = ["timestamp,temp_c"]
    for d in range(DAYS):
        date = START + dt.timedelta(days=d)
        for p in range(24):
            stamp = f"{date.isoformat()}T{p:02d}:00"
            load_rows.append(f"{stamp},{synth_values(d, p, rng):.3f}")
            temp = 15.0 + 8.0 * np.sin(2 * np.pi * p / 24.0 - 2.0) + 0.1 * d % 5
            temp_rows.append(f"{stamp},{temp:.3f}")
    (root / "load.csv").write_text("\n".join(load_rows) + "\n")
    (root / "temps.csv").write_text("\n".join(temp_rows) + "\n")
    (root / "holidays.txt").write_text("2010-04-05\n")
    forecast_date = START + dt.timedelta(days=DAYS - 1)
    (root / "forecast.csv").write_text(
        "date,t0800,t1200,t1600,t2000\n"
        f"{forecast_date.isoformat()},18.0,22.0,21.0,17.0\n"
    )
    return root


@pytest.fixture(scope="module")
def history_file(raw_files, tmp_path_factory):
    out = tmp_path_factory.mktemp("hist") / "history.jsonl"
    code = main([
        "ingest",
        "--load", str(raw_files / "load.csv"),
        "--temps", str(raw_files / "temps.csv"),
        "--holidays", str(raw_files / "holidays.txt"),
        "--out", str(out),
        "--points-per-day", "24",
    ])
    assert code == 0
    return out


def pooled_text(history_text: str) -> str:
    """The history file with day i's temperatures, if it has any, those of day i % 2.

    Same-group candidates then tie at δ = min, so C* averages several shapes
    and the reference matches no history shape exactly.
    """
    header, *lines = history_text.splitlines()
    records = [json.loads(line) for line in lines]
    pool = [record["temp_c"] for record in records[:2]]
    for i, record in enumerate(records):
        if "temp_c" in record:
            record["temp_c"] = pool[i % 2]
    return "\n".join([header, *(json.dumps(r, sort_keys=True) for r in records)]) + "\n"


class TestIngest:
    def test_full_history_written(self, history_file):
        window = read_history_jsonl(history_file)
        assert len(window) == DAYS
        assert window.grid.labels == GRID.labels
        holiday = window.meta(window.row(dt.date(2010, 4, 5)))
        assert holiday.group.value == "HOLIDAY"

    def test_rerun_byte_identical(self, raw_files, history_file, tmp_path):
        out2 = tmp_path / "again.jsonl"
        code = main([
            "ingest",
            "--load", str(raw_files / "load.csv"),
            "--temps", str(raw_files / "temps.csv"),
            "--holidays", str(raw_files / "holidays.txt"),
            "--out", str(out2),
            "--points-per-day", "24",
        ])
        assert code == 0
        assert out2.read_bytes() == history_file.read_bytes()

    def test_max_gap_zero_rejects_incomplete_day(self, raw_files, tmp_path, capsys):
        incomplete = tmp_path / "load.csv"
        lines = (raw_files / "load.csv").read_text().splitlines()
        del lines[5]  # punch a hole in the first day
        incomplete.write_text("\n".join(lines) + "\n")
        out = tmp_path / "h.jsonl"
        code = main([
            "ingest", "--load", str(incomplete), "--out", str(out),
            "--points-per-day", "24", "--max-gap", "0",
        ])
        assert code == 0
        assert "rejected 1" in capsys.readouterr().out
        assert len(read_history_jsonl(out)) == DAYS - 1

    def test_max_rejected_threshold_fails(self, raw_files, tmp_path, capsys):
        incomplete = tmp_path / "load.csv"
        lines = (raw_files / "load.csv").read_text().splitlines()
        del lines[5]
        incomplete.write_text("\n".join(lines) + "\n")
        code = main([
            "ingest", "--load", str(incomplete), "--out", str(tmp_path / "h.jsonl"),
            "--points-per-day", "24", "--max-gap", "0", "--max-rejected", "0",
        ])
        assert code == 1
        assert "max-rejected" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, stamp, value", [
        ("load", "2010-03-01T05:00", "nan"),
        ("load", "2010-03-03T05:00", "1e400"),
        ("temps", "2010-03-01T05:30", "inf"),  # off the hourly grid
        ("temps", "2010-03-02T05:00", "-inf"),  # the day without load, rejected
    ])
    def test_non_finite_reading_names_its_line(self, tmp_path, kind, stamp, value,
                                                capsys):
        rows = {"load": ["timestamp,load_mw"], "temps": ["timestamp,temp_c"]}
        for day in (START, START + dt.timedelta(days=2)):
            for p in range(24):
                rows["load"].append(f"{day.isoformat()}T{p:02d}:00,{100 + p}")
                rows["temps"].append(f"{day.isoformat()}T{p:02d}:00,{10 + p}")
        rows[kind].append(f"{stamp},{value}")
        for name, lines in rows.items():
            (tmp_path / f"{name}.csv").write_text("\n".join(lines) + "\n")
        out = tmp_path / "h.jsonl"
        code = main([
            "ingest", "--load", str(tmp_path / "load.csv"),
            "--temps", str(tmp_path / "temps.csv"), "--out", str(out),
            "--points-per-day", "24",
        ])
        assert code == 1
        column = rows[kind][0].split(",")[1]
        assert f"line 50: non-finite {column} '{value}'" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_load_names_its_line(self, raw_files, tmp_path, capsys):
        lines = (raw_files / "load.csv").read_text().splitlines()
        lines[3] = lines[3].split(",")[0] + ",-3"
        (tmp_path / "load.csv").write_text("\n".join(lines) + "\n")
        out = tmp_path / "h.jsonl"
        code = main(["ingest", "--load", str(tmp_path / "load.csv"), "--out", str(out),
                     "--points-per-day", "24"])
        assert code == 1
        assert capsys.readouterr().err == "error: line 4: negative load_mw '-3'\n"
        assert not out.exists()

    def test_missing_input_file(self, tmp_path, capsys):
        code = main([
            "ingest", "--load", str(tmp_path / "nope.csv"),
            "--out", str(tmp_path / "h.jsonl"),
        ])
        assert code == 2
        assert "cannot read" in capsys.readouterr().err


# the whole message of a bad config value whose parser's own text would differ
BAD_INI_MESSAGES = {
    "n_l_g1 = 2.5": "error: config [reference] n_l_g1 = '2.5': must be a positive integer\n",
    "n_l_g1 = x": "error: config [reference] n_l_g1 = 'x': must be a positive integer\n",
}


class TestPredict:
    def test_prediction_json_to_stdout(self, raw_files, history_file, capsys):
        date = (START + dt.timedelta(days=DAYS - 1)).isoformat()
        code = main([
            "predict",
            "--history", str(history_file),
            "--date", date,
            "--temp-forecast", str(raw_files / "forecast.csv"),
            "--next-day-max", "290.0",
            "--bandwidth", "0.3",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["date"] == date
        assert len(doc["grid"]) == len(doc["shape"]) == 24
        # convex combination of shapes: near, but not above, the unit peak
        assert 0.9 < max(doc["shape"]) <= 1.0
        # the megawatt curve is the shape times the maximum, to the bit
        assert doc["scaled"] == [290.0 * v for v in doc["shape"]]
        assert doc["reference_dates"]

    def test_out_file_and_rerun_determinism(self, raw_files, history_file, tmp_path):
        date = (START + dt.timedelta(days=DAYS - 1)).isoformat()
        args = [
            "predict",
            "--history", str(history_file),
            "--date", date,
            "--temp-forecast", str(raw_files / "forecast.csv"),
            "--bandwidth", "auto",
        ]
        out1, out2 = tmp_path / "p1.json", tmp_path / "p2.json"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_missing_holidays_file_fails_before_bandwidth_cv(self, raw_files, history_file,
                                                             tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr("shapecast.cli.select_bandwidth",
                            lambda *args: calls.append(args) or (0.3, []))
        missing = tmp_path / "missing.txt"
        code = main([
            "predict", "--history", str(history_file),
            "--date", (START + dt.timedelta(days=DAYS - 1)).isoformat(),
            "--temp-forecast", str(raw_files / "forecast.csv"),
            "--holidays", str(missing), "--bandwidth", "auto",
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: cannot read {missing}: No such file or directory\n")
        assert calls == []

    def test_bad_holiday_line_fails_before_bandwidth_cv(self, raw_files, history_file,
                                                        tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr("shapecast.cli.select_bandwidth",
                            lambda *args: calls.append(args) or (0.3, []))
        holidays = tmp_path / "holidays.txt"
        holidays.write_text("2010-12-25\n2010-13-01\n")
        code = main([
            "predict", "--history", str(history_file),
            "--date", (START + dt.timedelta(days=DAYS - 1)).isoformat(),
            "--temp-forecast", str(raw_files / "forecast.csv"),
            "--holidays", str(holidays), "--bandwidth", "auto",
        ])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: holiday file line 2: bad date '2010-13-01'\n")
        assert calls == []

    def test_missing_holidays_file_wins_over_bad_ini(self, raw_files, history_file,
                                                     tmp_path, capsys):
        # the holidays file is read before the INI file is applied
        ini = tmp_path / "cfg.ini"
        ini.write_text("[kernel]\nbandwidth = abc\n")
        missing = tmp_path / "missing.txt"
        code = main([
            "predict", "--history", str(history_file),
            "--date", (START + dt.timedelta(days=DAYS - 1)).isoformat(),
            "--temp-forecast", str(raw_files / "forecast.csv"),
            "--holidays", str(missing), "--config", str(ini),
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: cannot read {missing}: No such file or directory\n")

    def test_ini_config_applies(self, raw_files, history_file, tmp_path, capsys):
        ini = tmp_path / "cfg.ini"
        ini.write_text("[kernel]\nbandwidth = 0.5\n"
                       "[distance]\nkind = mean-absolute\n"
                       "[reference]\nn_l_g1 = 5\nn_l_default = 7\n")
        date = (START + dt.timedelta(days=DAYS - 1)).isoformat()
        code = main([
            "predict", "--history", str(history_file), "--date", date,
            "--temp-forecast", str(raw_files / "forecast.csv"),
            "--config", str(ini),
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        # the config records each INI key's value and nothing else
        assert doc["config"] == {
            "reference": {"n_l_g1": 5, "n_l_default": 7},
            "kernel": {"bandwidth": 0.5},
            "distance": "mean-absolute",
        }
        # the target is a Wednesday: a 7-day lookback holds one Wednesday
        assert doc["reference_dates"] == [(START + dt.timedelta(days=DAYS - 8)).isoformat()]

    def test_date_without_forecast(self, raw_files, history_file, capsys):
        code = main([
            "predict", "--history", str(history_file), "--date", "2010-05-01",
            "--temp-forecast", str(raw_files / "forecast.csv"),
        ])
        assert code == 1
        assert "no temperature forecast" in capsys.readouterr().err

    def test_date_before_history(self, raw_files, history_file, capsys):
        code = main([
            "predict", "--history", str(history_file), "--date", "2009-01-01",
            "--temp-forecast", str(raw_files / "forecast.csv"),
        ])
        assert code == 1
        assert "not after the history start" in capsys.readouterr().err

    def test_missing_config_file(self, raw_files, history_file, capsys):
        date = (START + dt.timedelta(days=DAYS - 1)).isoformat()
        code = main([
            "predict", "--history", str(history_file), "--date", date,
            "--temp-forecast", str(raw_files / "forecast.csv"),
            "--config", "/does/not/exist.ini",
        ])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_unreadable_config_file(self, raw_files, history_file, tmp_path, capsys):
        # a path that exists but cannot be read as a file is no default config
        date = (START + dt.timedelta(days=DAYS - 1)).isoformat()
        code = main([
            "predict", "--history", str(history_file), "--date", date,
            "--temp-forecast", str(raw_files / "forecast.csv"),
            "--config", str(tmp_path),
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read {tmp_path}: ")


    @pytest.mark.parametrize("value", ["abc", "0", "-0.5", "nan", ""])
    def test_bad_bandwidth_flag_is_usage_error(self, raw_files, history_file,
                                               value, capsys):
        date = (START + dt.timedelta(days=DAYS - 1)).isoformat()
        with pytest.raises(SystemExit) as exc:
            main([
                "predict", "--history", str(history_file), "--date", date,
                "--temp-forecast", str(raw_files / "forecast.csv"),
                f"--bandwidth={value}",
            ])
        assert exc.value.code == 2
        assert "bandwidth must be 'auto' or a positive number" in capsys.readouterr().err

    @pytest.mark.parametrize("section, line", [
        ("kernel", "bandwidth = abc"),
        ("kernel", "bandwidth = -1"),
        ("kernel", "bandwidth = inf"),
        ("kernel", "kind = triangular"),
        ("reference", "n_l_g1 = two"),
        ("reference", "n_l_g1 = 2.5"),
        ("reference", "n_l_g1 = x"),
        ("reference", "n_l_default = 0"),
        ("reference", "n_l_default = 2.5"),
        ("reference", "n_l_g1 = -3"),
        ("reference", "n_l_default = "),
        ("reference", "mode = nearest"),
        ("distance", "kind = cosine"),
        ("kernel", "kind = 5%"),
        ("reference", "n_l_g1 = %(missing)s"),
        ("reference", "n_l_g2 = 14"),
        ("kernel", "n_l_g1 = 14"),
        ("DEFAULT", "bandwidth = 0.5"),
        ("weights", "kind = gaussian"),
    ])
    def test_bad_ini_value_is_usage_error(self, raw_files, history_file, tmp_path,
                                          section, line, capsys):
        ini = tmp_path / "cfg.ini"
        ini.write_text(f"[{section}]\n{line}\n")
        date = (START + dt.timedelta(days=DAYS - 1)).isoformat()
        code = main([
            "predict", "--history", str(history_file), "--date", date,
            "--temp-forecast", str(raw_files / "forecast.csv"),
            "--config", str(ini),
        ])
        assert code == 2
        key = line.split(" = ")[0]
        err = capsys.readouterr().err
        assert f"config [{section}] {key}" in err
        if line in BAD_INI_MESSAGES:
            assert err == BAD_INI_MESSAGES[line]

    @pytest.mark.parametrize("section, line, flag", [
        ("kernel", "bandwidth = abc", "--bandwidth=0.3"),
        ("distance", "kind = cosine", "--distance=euclidean"),
    ])
    def test_bad_ini_value_under_its_flag_is_usage_error(self, raw_files, history_file,
                                                         tmp_path, section, line, flag,
                                                         capsys):
        ini = tmp_path / "cfg.ini"
        ini.write_text(f"[{section}]\n{line}\n")
        date = (START + dt.timedelta(days=DAYS - 1)).isoformat()
        code = main([
            "predict", "--history", str(history_file), "--date", date,
            "--temp-forecast", str(raw_files / "forecast.csv"),
            "--config", str(ini), flag, "--out", str(tmp_path / "p.json"),
        ])
        assert code == 2
        key = line.split(" = ")[0]
        assert f"config [{section}] {key}" in capsys.readouterr().err

    def test_unknown_ini_section_is_usage_error(self, raw_files, history_file, tmp_path,
                                                capsys):
        ini = tmp_path / "cfg.ini"
        ini.write_text("[kernel]\nbandwidth = 0.5\n[weights]\n")
        date = (START + dt.timedelta(days=DAYS - 1)).isoformat()
        code = main([
            "predict", "--history", str(history_file), "--date", date,
            "--temp-forecast", str(raw_files / "forecast.csv"),
            "--config", str(ini),
        ])
        assert code == 2
        assert capsys.readouterr().err == "error: config [weights]: unknown section\n"

    # the δ rule has no setting: a file that names one is refused
    @pytest.mark.parametrize("line", ["delta_rule = quantile", "delta_value = 0.5"])
    def test_removed_delta_key_is_unknown(self, raw_files, history_file, tmp_path, line,
                                          capsys):
        ini = tmp_path / "cfg.ini"
        ini.write_text(f"[reference]\n{line}\n")
        date = (START + dt.timedelta(days=DAYS - 1)).isoformat()
        code = main([
            "predict", "--history", str(history_file), "--date", date,
            "--temp-forecast", str(raw_files / "forecast.csv"),
            "--config", str(ini),
        ])
        assert code == 2
        key = line.split(" = ")[0]
        assert capsys.readouterr().err == (
            f"error: config [reference] {key}: unknown key; "
            "[reference] takes n_l_g1, n_l_default\n")

    # a removed value is unknown to the flag and to the file alike, which
    # share the setting's name
    @pytest.mark.parametrize("setting, value, enum, choices", [
        ("distance", "max-absolute", "DistanceKind", "'euclidean', 'mean-absolute'"),
    ], ids=["max-absolute"])
    def test_removed_value_is_unknown(self, raw_files, history_file, tmp_path, capsys,
                                      setting, value, enum, choices):
        ini = tmp_path / "cfg.ini"
        ini.write_text(f"[{setting}]\nkind = {value}\n")
        date = (START + dt.timedelta(days=DAYS - 1)).isoformat()
        argv = ["predict", "--history", str(history_file), "--date", date,
                "--temp-forecast", str(raw_files / "forecast.csv")]
        with pytest.raises(SystemExit) as exc:
            main([*argv, f"--{setting}", value])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"argument --{setting}: invalid choice: '{value}' (choose from {choices})\n")
        assert main([*argv, "--config", str(ini)]) == 2
        assert capsys.readouterr().err == (
            f"error: config [{setting}] kind = '{value}': '{value}' is not a valid {enum}\n")

    # the predictor weighs with the Gaussian alone: the kernel has no flag and
    # no file key, whatever kind either names
    @pytest.mark.parametrize("kind", ["gaussian", "epanechnikov", "uniform"])
    def test_removed_kernel_kind_is_unknown(self, raw_files, history_file, tmp_path, capsys,
                                            kind):
        ini = tmp_path / "cfg.ini"
        ini.write_text(f"[kernel]\nkind = {kind}\n")
        date = (START + dt.timedelta(days=DAYS - 1)).isoformat()
        argv = ["predict", "--history", str(history_file), "--date", date,
                "--temp-forecast", str(raw_files / "forecast.csv")]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--kernel", kind])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"error: unrecognized arguments: --kernel {kind}\n")
        assert main([*argv, "--config", str(ini)]) == 2
        assert capsys.readouterr().err == (
            "error: config [kernel] kind: unknown key; [kernel] takes bandwidth\n")

    def test_tiny_bandwidth_predicts(self, raw_files, history_file, capsys):
        # u = d / h overflows to inf, where the kernel is 0: no RuntimeWarning
        date = (START + dt.timedelta(days=DAYS - 1)).isoformat()
        code = main([
            "predict", "--history", str(history_file), "--date", date,
            "--temp-forecast", str(raw_files / "forecast.csv"), "--bandwidth", "1e-300",
        ])
        assert code == 0
        assert len(json.loads(capsys.readouterr().out)["shape"]) == 24

    def test_underflowing_bandwidth_falls_back(self, raw_files, history_file, tmp_path,
                                               capsys):
        # on pooled temperatures the reference matches no history shape exactly,
        # so at h = 1e-300 every Gaussian mass underflows
        pooled = tmp_path / "pooled.jsonl"
        pooled.write_text(pooled_text(history_file.read_text()))
        date = (START + dt.timedelta(days=DAYS - 1)).isoformat()
        with pytest.warns(UserWarning, match="falling back to the nearest segment"):
            code = main([
                "predict", "--history", str(pooled), "--date", date,
                "--temp-forecast", str(raw_files / "forecast.csv"),
                "--bandwidth", "1e-300",
            ])
        assert code == 0
        assert max(json.loads(capsys.readouterr().out)["shape"]) == 1.0

    def test_malformed_ini_is_usage_error(self, raw_files, history_file, tmp_path,
                                          capsys):
        ini = tmp_path / "cfg.ini"
        ini.write_text("bandwidth = 0.5\n")
        date = (START + dt.timedelta(days=DAYS - 1)).isoformat()
        code = main([
            "predict", "--history", str(history_file), "--date", date,
            "--temp-forecast", str(raw_files / "forecast.csv"),
            "--config", str(ini),
        ])
        assert code == 2
        assert "section header" in capsys.readouterr().err

    def test_unsplittable_csv_is_domain_error(self, history_file, tmp_path, capsys):
        # a field beyond the csv module's size limit makes it raise csv.Error
        forecast = tmp_path / "forecast.csv"
        forecast.write_text(
            'date,t0800,t1200,t1600,t2000\n"' + "x" * 200_000 + '",1,2,3,4\n'
        )
        date = (START + dt.timedelta(days=DAYS - 1)).isoformat()
        code = main([
            "predict", "--history", str(history_file), "--date", date,
            "--temp-forecast", str(forecast), "--bandwidth", "0.3",
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "error: line 2: field larger than field limit (")

    def test_bad_history_line_is_domain_error(self, raw_files, history_file, tmp_path,
                                              capsys):
        lines = history_file.read_text().splitlines()
        lines[3] = lines[3][:-5]
        broken = tmp_path / "broken.jsonl"
        broken.write_text("\n".join(lines) + "\n")
        date = (START + dt.timedelta(days=DAYS - 1)).isoformat()
        code = main([
            "predict", "--history", str(broken), "--date", date,
            "--temp-forecast", str(raw_files / "forecast.csv"), "--bandwidth", "0.3",
        ])
        assert code == 1
        assert f"{broken}:4: " in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["predict", "backtest"])
    def test_overflowing_history_number_is_domain_error(self, raw_files, history_file,
                                                        tmp_path, command, capsys):
        lines = history_file.read_text().splitlines()
        record = json.loads(lines[3])
        record["temp_c"][5] = 10**400  # valid JSON, too large for a float
        lines[3] = json.dumps(record)
        broken = tmp_path / "broken.jsonl"
        broken.write_text("\n".join(lines) + "\n")
        if command == "predict":
            argv = ["--date", (START + dt.timedelta(days=DAYS - 1)).isoformat(),
                    "--temp-forecast", str(raw_files / "forecast.csv")]
        else:
            argv = ["--out-dir", str(tmp_path / "bt")]
        code = main([command, "--history", str(broken), "--bandwidth", "0.3"] + argv)
        assert code == 1
        assert f"{broken}:4: int too large" in capsys.readouterr().err

    def test_zero_load_day_is_named(self, raw_files, tmp_path, capsys):
        zero_day = (START + dt.timedelta(days=9)).isoformat()
        lines = [
            ln.split(",")[0] + ",0" if ln.startswith(zero_day) else ln
            for ln in (raw_files / "load.csv").read_text().splitlines()
        ]
        (tmp_path / "load.csv").write_text("\n".join(lines) + "\n")
        history = tmp_path / "h.jsonl"
        assert main([
            "ingest", "--load", str(tmp_path / "load.csv"),
            "--temps", str(raw_files / "temps.csv"), "--out", str(history),
            "--points-per-day", "24",
        ]) == 0
        assert f"kept {DAYS} days, rejected 0" in capsys.readouterr().out
        code = main([
            "predict", "--history", str(history),
            "--date", (START + dt.timedelta(days=DAYS - 1)).isoformat(),
            "--temp-forecast", str(raw_files / "forecast.csv"),
        ])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {zero_day}: cannot rescale a segment with nonpositive maximum\n"
        )

    @pytest.mark.parametrize("points, days, message", [
        (24, 0, "history file contains no usable days"),  # a header line alone
        # ingest accepts a 4-point grid, but the forecast's 08:00 is not on it
        (4, 10, "label '08:00' not on grid"),
    ])
    def test_unusable_history_is_domain_error(self, raw_files, tmp_path, points, days,
                                              message, capsys):
        history = tmp_path / "h.jsonl"
        history.write_text(history_jsonl_text(HistoryWindow(
            TimeGrid.equidistant(points), [START + dt.timedelta(days=d) for d in range(days)],
            np.ones((days, points)), np.full((days, points), np.nan))))
        code = main([
            "predict", "--history", str(history),
            "--date", (START + dt.timedelta(days=DAYS - 1)).isoformat(),
            "--temp-forecast", str(raw_files / "forecast.csv"),
        ])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"


class TestBacktest:
    def test_sampled_run_writes_reports(self, history_file, tmp_path, capsys):
        out_dir = tmp_path / "bt"
        code = main([
            "backtest", "--history", str(history_file),
            "--sample", "5", "--seed", "1", "--min-history", "40",
            "--out-dir", str(out_dir), "--bandwidth", "0.3",
        ])
        assert code == 0
        assert (out_dir / "report.csv").exists()
        report = json.loads((out_dir / "report.json").read_text())
        assert set(report["summary"]) == {"ssp", "persistence", "conditional-kernel"}
        day_files = list((out_dir / "days").glob("*.csv"))
        assert len(day_files) == 5
        out = capsys.readouterr().out
        assert "ssp: mean RMAE" in out

    def test_dates_file_and_determinism(self, history_file, tmp_path):
        dates = tmp_path / "dates.txt"
        picked = [START + dt.timedelta(days=d) for d in (70, 72, 75)]
        dates.write_text("# chosen days\n" + "\n".join(d.isoformat() for d in picked) + "\n")
        d1, d2 = tmp_path / "b1", tmp_path / "b2"
        args = [
            "backtest", "--history", str(history_file),
            "--dates-file", str(dates), "--bandwidth", "0.3",
        ]
        assert main(args + ["--out-dir", str(d1)]) == 0
        assert main(args + ["--out-dir", str(d2)]) == 0
        assert (d1 / "report.csv").read_bytes() == (d2 / "report.csv").read_bytes()
        assert (d1 / "report.json").read_bytes() == (d2 / "report.json").read_bytes()

    def test_bad_dates_file(self, history_file, tmp_path, capsys):
        dates = tmp_path / "dates.txt"
        dates.write_text("2010-05-01\nnot-a-date\n")
        code = main([
            "backtest", "--history", str(history_file),
            "--dates-file", str(dates), "--out-dir", str(tmp_path / "bt"),
        ])
        assert code == 1
        assert "line 2" in capsys.readouterr().err

    def test_duplicate_date_refused(self, history_file, tmp_path, capsys):
        day = (START + dt.timedelta(days=70)).isoformat()
        dates = tmp_path / "dates.txt"
        dates.write_text(f"{day}\n# the same day again\n{day}\n")
        out_dir = tmp_path / "bt"
        code = main([
            "backtest", "--history", str(history_file), "--dates-file", str(dates),
            "--out-dir", str(out_dir), "--bandwidth", "0.3",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: dates file line 3: duplicate date {day}\n"
        assert not out_dir.exists()

    def test_persistence_run_selects_no_bandwidth(self, history_file, tmp_path):
        # one prior day is too few for bandwidth CV, and persistence needs no more
        dates = tmp_path / "dates.txt"
        dates.write_text(f"{(START + dt.timedelta(days=1)).isoformat()}\n")
        out_dir = tmp_path / "bt"
        code = main([
            "backtest", "--history", str(history_file), "--dates-file", str(dates),
            "--out-dir", str(out_dir), "--methods", "persistence",
        ])
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["config"]["kernel"]["bandwidth"] == 1.0

    def test_unknown_method_refused_before_bandwidth_cv(self, history_file, tmp_path,
                                                        capsys, monkeypatch):
        def no_cv(*args):
            pytest.fail("bandwidth CV ran")

        monkeypatch.setattr("shapecast.cli.select_bandwidth", no_cv)
        code = main([
            "backtest", "--history", str(history_file), "--sample", "2",
            "--out-dir", str(tmp_path / "bt"), "--methods", "ssp,bogus",
        ])
        assert code == 1
        assert "unknown methods: ['bogus']" in capsys.readouterr().err

    def test_empty_method_list_refused_before_anything_runs(self, history_file, tmp_path,
                                                             capsys, monkeypatch):
        def no_cv(*args):
            pytest.fail("bandwidth CV ran")

        monkeypatch.setattr("shapecast.cli.select_bandwidth", no_cv)
        out_dir = tmp_path / "bt"
        code = main([
            "backtest", "--history", str(history_file), "--sample", "2",
            "--out-dir", str(out_dir), "--methods", ",",
        ])
        assert code == 1
        assert "no methods given" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_repeated_method_refused_before_anything_runs(self, history_file, tmp_path,
                                                          capsys, monkeypatch):
        def no_cv(*args):
            pytest.fail("bandwidth CV ran")

        monkeypatch.setattr("shapecast.cli.select_bandwidth", no_cv)
        out_dir = tmp_path / "bt"
        code = main([
            "backtest", "--history", str(history_file), "--sample", "2",
            "--out-dir", str(out_dir), "--methods", "ssp,ssp,persistence",
        ])
        assert code == 1
        assert capsys.readouterr().err == "error: methods listed more than once: ['ssp']\n"
        assert not out_dir.exists()

    def test_empty_dates_file(self, history_file, tmp_path, capsys):
        dates = tmp_path / "dates.txt"
        dates.write_text("# nothing chosen\n")
        code = main([
            "backtest", "--history", str(history_file),
            "--dates-file", str(dates), "--out-dir", str(tmp_path / "bt"),
        ])
        assert code == 1
        assert "lists no dates" in capsys.readouterr().err

    def test_sample_larger_than_eligible(self, history_file, tmp_path, capsys):
        code = main([
            "backtest", "--history", str(history_file),
            "--sample", "1000", "--out-dir", str(tmp_path / "bt"),
        ])
        assert code == 1
        assert "eligible" in capsys.readouterr().err

    def test_out_dir_that_is_a_file(self, history_file, tmp_path, capsys):
        out_dir = tmp_path / "bt"
        out_dir.write_text("")
        code = main([
            "backtest", "--history", str(history_file), "--sample", "2",
            "--methods", "persistence", "--out-dir", str(out_dir),
        ])
        assert code == 2
        assert capsys.readouterr().err == f"error: cannot write {out_dir}: File exists\n"


# each INI_KEYS row that a flag overrides: a valid file value other than the
# default, a different valid flag value, and the config the flag's value gives
# under --bandwidth 0.3
FLAG_OVERRIDES = {
    ("distance", "kind"): ("mean-absolute", "euclidean",
                           PredictorConfig(kernel=KernelSpec(bandwidth=0.3))),
    ("kernel", "bandwidth"): ("0.5", "0.3", PredictorConfig(kernel=KernelSpec(bandwidth=0.3))),
}


# days without temperature, before the trailing 30 validation days of every CV
# below, and inside a 60-day lookback of each day predicted
NO_TEMPERATURE = [START + dt.timedelta(days=d) for d in (12, 15, 19, 22, 26)]
FALLBACK = "UserWarning: no segment within bandwidth; falling back to the nearest segment"


class TestWarningsOnStderr:
    """What the console script prints to stderr, under Python's default filter."""

    @pytest.fixture(scope="class")
    def gappy(self, history_file, tmp_path_factory):
        root = tmp_path_factory.mktemp("gappy")
        dropped = {day.isoformat() for day in NO_TEMPERATURE}
        lines = []
        for line in history_file.read_text().splitlines():
            record = json.loads(line)
            if record.get("date") in dropped:
                del record["temp_c"]
            lines.append(json.dumps(record, sort_keys=True))
        (root / "history.jsonl").write_text("\n".join(lines) + "\n")
        # on pooled temperatures the reference matches no history shape exactly
        (root / "pooled.jsonl").write_text(pooled_text("\n".join(lines)))
        (root / "wide.ini").write_text("[reference]\nn_l_g1 = 60\nn_l_default = 60\n")
        (root / "tiny.ini").write_text(
            "[reference]\nn_l_g1 = 60\nn_l_default = 60\n[kernel]\nbandwidth = 1e-300\n"
        )
        (root / "dates.txt").write_text(
            "".join(f"{START + dt.timedelta(days=d)}\n" for d in range(70, 80))
        )
        return root

    @staticmethod
    def console(argv):
        """Exit code and stderr of the console script in a fresh interpreter."""
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(shapecast.__file__))
        done = subprocess.run(
            [sys.executable, "-c", "import sys; from shapecast.cli import main; sys.exit(main())",
             *argv],
            env=env, capture_output=True, text=True, check=False,
        )
        return done.returncode, done.stderr

    def run(self, gappy, raw_files, tmp_path, command, history, ini, flags):
        """`console` on the gappy `history` under `ini`."""
        if command == "predict":
            where = ["--date", (START + dt.timedelta(days=DAYS - 1)).isoformat(),
                     "--temp-forecast", str(raw_files / "forecast.csv"),
                     "--out", str(tmp_path / "prediction.json")]
        else:
            where = ["--dates-file", str(gappy / "dates.txt"),
                     "--out-dir", str(tmp_path / "bt")]
        return self.console([command, "--history", str(gappy / history),
                             "--config", str(gappy / ini), *where, *flags])

    @pytest.mark.parametrize("command, history, ini, flags, dropped, fallbacks", [
        ("predict", "history.jsonl", "wide.ini", ["--bandwidth", "auto"], NO_TEMPERATURE, 0),
        ("backtest", "history.jsonl", "wide.ini", ["--bandwidth", "auto"], NO_TEMPERATURE, 0),
        # the target, a Wednesday, is the one G2 day predicted
        ("predict", "pooled.jsonl", "tiny.ini", [], [], 1),
        # without CV, 2010-03-13 is older than each prediction's lookback; one
        # fallback line comes from the `ssp` method, one from `conditional-kernel`
        ("backtest", "pooled.jsonl", "tiny.ini", ["--methods", "ssp,conditional-kernel"],
         NO_TEMPERATURE[1:], 2),
    ])
    def test_each_warning_once_per_place(self, gappy, raw_files, tmp_path, command, history,
                                         ini, flags, dropped, fallbacks):
        code, err = self.run(gappy, raw_files, tmp_path, command, history, ini, flags)
        assert code == 0, err
        lines = err.splitlines()
        for day in dropped:
            message = (f"UserWarning: dropping candidate {day.isoformat()}: "
                       "no temperature data on the comparison mask")
            assert sum(line.endswith(message) for line in lines) == 1, err
        assert sum(line.endswith(FALLBACK) for line in lines) == fallbacks, err
        warned = [line for line in lines if "Warning: " in line]
        assert len(warned) == len(dropped) + fallbacks, err

    def test_lab_fallback_once_naming_the_lab(self, tmp_path):
        # without jitter, replication 1's target ties three past days in temperature;
        # their mean is no past day, so at h ~ 1e-300 both of its lengths fall back,
        # and the default filter prints the line in the lab once
        code, err = self.console(["simulate", "--lengths", "20,40", "--replications", "2",
                                  "--h-coef", "1e-300", "--jitter", "0",
                                  "--out", str(tmp_path / "rows.csv")])
        assert code == 0, err
        warned = [line for line in err.splitlines() if "Warning: " in line]
        assert len(warned) == 1 and warned[0].endswith(FALLBACK), err
        assert os.path.basename(warned[0].split(":")[0]) == "synthetic.py", err


class TestConfig:
    @pytest.mark.parametrize("row", [row for row, (_, _, flag) in INI_KEYS.items() if flag])
    def test_flag_overrides_a_valid_file_value(self, raw_files, history_file, tmp_path,
                                               row, capsys):
        section, key = row
        file_value, flag_value, expected = FLAG_OVERRIDES[row]
        ini = tmp_path / "cfg.ini"
        ini.write_text(f"[{section}]\n{key} = {file_value}\n")
        flags = {"--config": str(ini), "--bandwidth": "0.3"}
        flags[f"--{INI_KEYS[row][2]}"] = flag_value
        flag_args = [arg for pair in flags.items() for arg in pair]

        date = (START + dt.timedelta(days=DAYS - 1)).isoformat()
        code = main([
            "predict", "--history", str(history_file), "--date", date,
            "--temp-forecast", str(raw_files / "forecast.csv"), *flag_args,
        ])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["config"] == config_snapshot(expected)

        dates = tmp_path / "dates.txt"
        dates.write_text(f"{(START + dt.timedelta(days=70)).isoformat()}\n")
        out_dir = tmp_path / "bt"
        code = main([
            "backtest", "--history", str(history_file), "--dates-file", str(dates),
            "--methods", "ssp", "--out-dir", str(out_dir), *flag_args,
        ])
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["config"] == config_snapshot(expected)

    def test_config_leaves_are_the_ini_keys(self):
        leaves = {}  # a top-level value is its section's `kind`
        for section, value in config_snapshot(PredictorConfig()).items():
            for key, leaf in value.items() if isinstance(value, dict) else [("kind", value)]:
                leaves[section, key] = leaf
        assert sorted(leaves) == sorted(INI_KEYS)
        # each default is the library's, but for the bandwidth, whose 'auto' CV selects
        defaults = {row: config_snapshot(default) for row, (_, default, _) in INI_KEYS.items()}
        assert defaults == {**leaves, ("kernel", "bandwidth"): "auto"}

    def test_defaults_are_the_librarys(self, raw_files, history_file, capsys):
        date = (START + dt.timedelta(days=DAYS - 1)).isoformat()
        code = main([
            "predict", "--history", str(history_file), "--date", date,
            "--temp-forecast", str(raw_files / "forecast.csv"), "--bandwidth", "0.3",
        ])
        assert code == 0
        expected = config_snapshot(PredictorConfig(kernel=KernelSpec(bandwidth=0.3)))
        assert json.loads(capsys.readouterr().out)["config"] == expected

    def test_file_with_two_faults_names_the_first_in_table_order(self, raw_files, history_file,
                                                                 tmp_path, capsys):
        # the values are parsed in the key table's order, not the file's: the
        # bad [reference] lookback is named before the bad [kernel] bandwidth
        ini = tmp_path / "cfg.ini"
        ini.write_text("[kernel]\nbandwidth = bogus\n[reference]\nn_l_g1 = 0\n")
        date = (START + dt.timedelta(days=DAYS - 1)).isoformat()
        code = main([
            "predict", "--history", str(history_file), "--date", date,
            "--temp-forecast", str(raw_files / "forecast.csv"), "--config", str(ini),
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: config [reference] n_l_g1 = '0': must be a positive integer\n")


class TestSimulate:
    def test_csv_to_stdout(self, capsys):
        code = main([
            "simulate", "--lengths", "32,64", "--replications", "2",
            "--points-per-day", "12",
        ])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("L,replication,err_pred")
        assert len(lines) == 1 + 4

    def test_sigma_zero_recovers_exactly(self, tmp_path):
        out = tmp_path / "rows.csv"
        code = main([
            "simulate", "--lengths", "40", "--replications", "3",
            "--sigma", "0", "--out", str(out),
        ])
        assert code == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 3
        for row in rows:
            err_pred = float(row.split(",")[2])
            assert err_pred <= 1e-12

    def test_sigma_zero_is_the_labs_exact_recovery_setup(self, tmp_path):
        out = tmp_path / "rows.csv"
        code = main([
            "simulate", "--lengths", "20,40", "--replications", "3",
            "--sigma", "0", "--jitter", "2", "--out", str(out),
        ])
        assert code == 0
        template = synthetic.SyntheticSpec(GRID, 1, noise_sigma=0.0, seed=0)
        run = synthetic.consistency_experiment(template, [20, 40], 3)
        assert out.read_text() == synthetic.experiment_csv(run)

    @pytest.mark.parametrize("h_coef", ["1e-300", "1e-320"])
    def test_tiny_h_coef_runs(self, h_coef, capsys):
        code = main([
            "simulate", "--lengths", "20,40", "--replications", "1", "--h-coef", h_coef,
        ])
        assert code == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 2

    def test_underflowing_bandwidth_is_a_domain_error(self, capsys):
        # the lab checks each length's bandwidth: 5e-324 * 64 ** -0.2 rounds to 0
        code = main(["simulate", "--h-coef", "5e-324", "--lengths", "64",
                     "--replications", "1"])
        assert code == 1
        assert capsys.readouterr().err == "error: bandwidth must be positive and finite\n"

    @pytest.mark.parametrize("flag", ["--sigma", "--jitter"])
    def test_huge_sigma_is_refused_by_the_window(self, flag, capsys):
        code = main([
            "simulate", "--lengths", "20,40", "--replications", "1", flag, "1e308",
        ])
        assert code == 1
        assert capsys.readouterr().err == "error: load values must be finite\n"

    def test_empty_lookback_fails_at_once(self, capsys, drawn_seeds):
        code = main(["simulate", "--lengths", "1"])
        assert code == 1
        assert capsys.readouterr().err == "error: L=1: no usable candidate for group G1\n"
        assert drawn_seeds == []

    def test_empty_lookback_fails_before_a_bad_path(self, capsys):
        # the calendar alone refuses the length; no path is drawn to overflow
        code = main(["simulate", "--lengths", "1", "--sigma", "1e308"])
        assert code == 1
        assert capsys.readouterr().err == "error: L=1: no usable candidate for group G1\n"

    def test_defaults_draw_one_path_per_replication(self, capsys, drawn_seeds):
        assert main(["simulate"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 4 * 50
        assert drawn_seeds == [(0, rep) for rep in range(50)]

    def test_path_past_the_last_date_is_a_domain_error(self, capsys, drawn_seeds):
        code = main([
            "simulate", "--lengths", "3000000", "--replications", "1",
            "--points-per-day", "2",
        ])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: length 3000001 from 2007-01-01 runs past 9999-12-31\n"
        )
        assert drawn_seeds == []

    @pytest.mark.parametrize("out, reason", [
        ("outdir", "Is a directory"),  # the rename onto a directory fails
        ("nodir/x.csv", "No such file or directory"),
        ("taken", "Is a directory"),  # the temp file's name is a directory's
    ])
    def test_failed_write_leaves_no_temp_file(self, tmp_path, out, reason, capsys):
        (tmp_path / "outdir").mkdir()
        (tmp_path / "taken.tmp").mkdir()
        path = tmp_path / out
        code = main(["simulate", "--lengths", "8,16", "--replications", "1",
                     "--out", str(path)])
        assert code == 2
        assert capsys.readouterr().err == f"error: cannot write {path}: {reason}\n"
        # neither a temp file is left nor a directory removed
        assert sorted(p.name for p in tmp_path.iterdir()) == ["outdir", "taken.tmp"]

    def test_rerun_byte_identical(self, tmp_path):
        args = [
            "simulate", "--lengths", "32,64", "--replications", "2",
            "--points-per-day", "12", "--seed", "5",
        ]
        o1, o2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(o1)]) == 0
        assert main(args + ["--out", str(o2)]) == 0
        assert o1.read_bytes() == o2.read_bytes()


class TestParser:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["simulate", "--warp-speed", "9"],
        # the kernel weighs every past shape: there is no group restriction to ask for
        ["predict", "--history", "h.jsonl", "--date", "2010-01-04", "--temp-forecast", "f.csv",
         "--same-group-only"],
        ["backtest", "--history", "h.jsonl", "--out-dir", "bt", "--same-group-only"],
    ])
    def test_unknown_flag(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "ingest" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["predict", "--history", "{history}", "--temp-forecast", "{forecast}",
         "--date", "garbage"],
        ["predict", "--history", "{history}", "--temp-forecast", "{forecast}",
         "--date", "2010-02-30"],
        ["simulate", "--lengths", "abc"],
        ["simulate", "--lengths", ""],
        ["simulate", "--lengths", " , "],
        ["simulate", "--lengths", "64,-128"],
        ["simulate", "--lengths", "0,32"],
        ["backtest", "--history", "{history}", "--out-dir", "{out}", "--sample", "-1"],
        ["backtest", "--history", "{history}", "--out-dir", "{out}", "--sample", "0"],
        ["backtest", "--history", "{history}", "--out-dir", "{out}", "--seed", "-1"],
        ["simulate", "--seed", "-1"],
        ["simulate", "--sigma", "nan"],
        ["simulate", "--sigma", "-0.1"],
        ["simulate", "--jitter", "nan"],
        ["simulate", "--jitter", "-1"],
        ["simulate", "--sigma", "inf"],
        ["simulate", "--jitter", "inf"],
        ["predict", "--history", "{history}", "--temp-forecast", "{forecast}",
         "--date", "2010-05-19", "--next-day-max", "nan"],
        ["predict", "--history", "{history}", "--temp-forecast", "{forecast}",
         "--date", "2010-05-19", "--next-day-max", "inf"],
        ["predict", "--history", "{history}", "--temp-forecast", "{forecast}",
         "--date", "2010-05-19", "--next-day-max", "0"],
        ["predict", "--history", "{history}", "--temp-forecast", "{forecast}",
         "--date", "2010-05-19", "--next-day-max", "-1"],
        ["ingest", "--load", "{load}", "--out", "{out}", "--max-gap", "-1"],
        ["ingest", "--load", "{load}", "--out", "{out}", "--max-rejected", "-1"],
        ["backtest", "--history", "{history}", "--out-dir", "{out}",
         "--min-history", "-1"],
        ["backtest", "--history", "{history}", "--out-dir", "{out}",
         "--min-history", "0"],
        ["simulate", "--replications", "0"],
        ["predict", "--history", "{history}", "--temp-forecast", "{forecast}",
         "--date", "2010-05-19", "--bandwidth", "inf"],
        ["simulate", "--h-coef", "inf"],
        ["simulate", "--h-coef", "nan"],
        ["simulate", "--h-coef", "0"],
        ["simulate", "--h-coef", "-1"],
    ])
    def test_bad_flag_value_is_usage_error(self, raw_files, history_file, tmp_path,
                                           argv, capsys):
        paths = dict(history=history_file, forecast=raw_files / "forecast.csv",
                     load=raw_files / "load.csv", out=tmp_path / "out")
        with pytest.raises(SystemExit) as exc:
            main([arg.format(**paths) for arg in argv])
        assert exc.value.code == 2
        assert f"argument {argv[-2]}: " in capsys.readouterr().err

    # a value a flag's parser refuses is worded by the parser, never by its name
    @pytest.mark.parametrize("argv, message", [
        (["backtest", "--history", "{history}", "--out-dir", "{out}", "--sample", "2.5"],
         "must be a positive integer"),
        (["ingest", "--load", "{load}", "--out", "{out}", "--max-gap", "-1"],
         "must be a nonnegative integer"),
        (["simulate", "--sigma", "-1"], "must be a nonnegative finite number"),
        (["predict", "--history", "{history}", "--temp-forecast", "{forecast}",
          "--date", "2010-05-19", "--next-day-max", "x"], "must be a positive finite number"),
        (["simulate", "--lengths", "2.5"], "must be a positive integer"),
        (["predict", "--history", "{history}", "--temp-forecast", "{forecast}",
          "--date", "2007-13-02"], "must be an ISO date, YYYY-MM-DD"),
        (["simulate", "--points-per-day", "x"], "must be an integer"),
    ])
    def test_bad_flag_value_names_its_range(self, raw_files, history_file, tmp_path,
                                            argv, message, capsys):
        paths = dict(history=history_file, forecast=raw_files / "forecast.csv",
                     load=raw_files / "load.csv", out=tmp_path / "out")
        with pytest.raises(SystemExit) as exc:
            main([arg.format(**paths) for arg in argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith(f"argument {argv[-2]}: {message}\n")
        assert "invalid _" not in err

    @pytest.mark.parametrize("command", [
        ["ingest", "--load", "{load}", "--out", "{out}"],
        ["simulate", "--out", "{out}"],
    ])
    @pytest.mark.parametrize("points", ["0", "-4", "7", "1441"])
    def test_points_per_day_that_does_not_divide_the_day(self, raw_files, tmp_path,
                                                         command, points, capsys):
        paths = dict(load=raw_files / "load.csv", out=tmp_path / "out")
        with pytest.raises(SystemExit) as exc:
            main([arg.format(**paths) for arg in command] + ["--points-per-day", points])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"argument --points-per-day: points_per_day={points} must divide "
            "the 1440-minute day\n")
        assert not (tmp_path / "out").exists()


class TestNonUtf8Input:
    @pytest.mark.parametrize(
        "kind", ["history", "load", "temps", "forecast", "holidays", "config", "dates"]
    )
    def test_names_the_file_and_exits_2(self, raw_files, history_file, tmp_path,
                                        kind, capsys):
        config = tmp_path / "good.ini"
        config.write_text("[kernel]\nbandwidth = 0.3\n")
        files = dict(
            history=history_file, load=raw_files / "load.csv",
            temps=raw_files / "temps.csv", forecast=raw_files / "forecast.csv",
            holidays=raw_files / "holidays.txt", config=config,
        )
        bad = tmp_path / f"{kind}.bin"
        bad.write_bytes(b"2010-01-01\n\xff\xfe\x00\n")
        files[kind] = bad
        if kind in ("load", "temps"):
            argv = ["ingest", "--load", files["load"], "--temps", files["temps"],
                    "--holidays", files["holidays"], "--out", tmp_path / "h.jsonl"]
        elif kind == "dates":
            argv = ["backtest", "--history", files["history"], "--dates-file", bad,
                    "--out-dir", tmp_path / "bt"]
        else:
            argv = ["predict", "--history", files["history"],
                    "--date", (START + dt.timedelta(days=DAYS - 1)).isoformat(),
                    "--temp-forecast", files["forecast"], "--holidays", files["holidays"],
                    "--config", files["config"], "--bandwidth", "0.3"]
        assert main([str(arg) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert f"{bad} is not UTF-8 text" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["predict", "backtest"])
    def test_history_fails_as_non_utf8_first_at_its_file_offset(self, raw_files, tmp_path,
                                                                command, capsys):
        # line 3 is truncated JSON, and a stray byte lies past byte 8,192, where a
        # text file's first chunk ends: the file is refused as non-UTF-8, at the byte
        window, _ = synthetic.generate(synthetic.SyntheticSpec(TimeGrid.equidistant(96), 20))
        lines = history_jsonl_text(window).encode().split(b"\n")
        lines[2] = lines[2][:len(lines[2]) // 2]
        data = b"\n".join(lines)
        at = len(b"\n".join(lines[:4])) + 100
        data = data[:at] + b"\xff" + data[at:]
        assert at > 8192 and at > len(b"\n".join(lines[:3]))
        bad = tmp_path / "history.jsonl"
        bad.write_bytes(data)
        if command == "predict":
            argv = ["predict", "--history", bad, "--date", "2007-01-15",
                    "--temp-forecast", raw_files / "forecast.csv", "--bandwidth", "0.3"]
        else:
            argv = ["backtest", "--history", bad, "--out-dir", tmp_path / "bt"]
        assert main([str(arg) for arg in argv]) == 2
        assert capsys.readouterr().err == (
            f"error: {bad} is not UTF-8 text (invalid start byte at byte {at})\n")
