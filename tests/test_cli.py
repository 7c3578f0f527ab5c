import datetime as dt
import json

import numpy as np
import pytest

from shapecast.cli import main
from shapecast.history import HistoryWindow, read_history_jsonl
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


class TestIngest:
    def test_full_history_written(self, history_file):
        window = read_history_jsonl(history_file)
        assert len(window) == DAYS
        assert window.grid.labels == GRID.labels
        holiday = window.by_date(dt.date(2010, 4, 5))
        assert holiday.meta.group.value == "HOLIDAY"

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

    def test_missing_input_file(self, tmp_path, capsys):
        code = main([
            "ingest", "--load", str(tmp_path / "nope.csv"),
            "--out", str(tmp_path / "h.jsonl"),
        ])
        assert code == 2
        assert "cannot read" in capsys.readouterr().err


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
        assert len(doc["shape"]) == 24
        # convex combination of shapes: near, but not above, the unit peak
        assert 0.9 < max(doc["shape"]) <= 1.0
        assert max(doc["scaled"]) == pytest.approx(290.0 * max(doc["shape"]))

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

    def test_ini_config_applies(self, raw_files, history_file, tmp_path, capsys):
        ini = tmp_path / "cfg.ini"
        ini.write_text("[kernel]\nkind = epanechnikov\nbandwidth = 0.5\n")
        date = (START + dt.timedelta(days=DAYS - 1)).isoformat()
        code = main([
            "predict", "--history", str(history_file), "--date", date,
            "--temp-forecast", str(raw_files / "forecast.csv"),
            "--config", str(ini),
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["kernel"]["kind"] == "epanechnikov"
        assert doc["config"]["kernel"]["bandwidth"] == 0.5

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
        ("kernel", "kind = triangular"),
        ("reference", "n_l_g1 = two"),
        ("reference", "n_l_default = 0"),
        ("reference", "n_l_default = 2.5"),
        ("reference", "mode = nearest"),
        ("reference", "delta_value = high"),
        ("distance", "kind = cosine"),
        ("kernel", "kind = 5%"),
        ("reference", "mode = %(missing)s"),
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
        assert f"config [{section}] {key}" in capsys.readouterr().err

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
        assert "field larger than field limit" in capsys.readouterr().err

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

    def test_persistence_run_never_builds_shapes(self, history_file, tmp_path,
                                                 monkeypatch):
        def never_built(window):
            pytest.fail("the shapes matrix was built")

        monkeypatch.setattr(HistoryWindow, "shapes", property(never_built))
        dates = tmp_path / "dates.txt"
        dates.write_text(f"{(START + dt.timedelta(days=70)).isoformat()}\n")
        code = main([
            "backtest", "--history", str(history_file), "--dates-file", str(dates),
            "--out-dir", str(tmp_path / "bt"), "--bandwidth", "0.3",
            "--methods", "persistence",
        ])
        assert code == 0

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

    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--warp-speed", "9"])
        assert exc.value.code == 2

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
        ["backtest", "--history", "{history}", "--out-dir", "{out}", "--sample", "-1"],
        ["backtest", "--history", "{history}", "--out-dir", "{out}", "--sample", "0"],
        ["backtest", "--history", "{history}", "--out-dir", "{out}", "--seed", "-1"],
        ["simulate", "--seed", "-1"],
        ["simulate", "--sigma", "nan"],
        ["simulate", "--sigma", "-0.1"],
        ["simulate", "--jitter", "nan"],
        ["simulate", "--jitter", "-1"],
        ["ingest", "--load", "{load}", "--out", "{out}", "--max-gap", "-1"],
        ["ingest", "--load", "{load}", "--out", "{out}", "--max-rejected", "-1"],
        ["backtest", "--history", "{history}", "--out-dir", "{out}",
         "--min-history", "-1"],
        ["simulate", "--replications", "0"],
    ])
    def test_bad_flag_value_is_usage_error(self, raw_files, history_file, tmp_path,
                                           argv, capsys):
        paths = dict(history=history_file, forecast=raw_files / "forecast.csv",
                     load=raw_files / "load.csv", out=tmp_path / "out")
        with pytest.raises(SystemExit) as exc:
            main([arg.format(**paths) for arg in argv])
        assert exc.value.code == 2
        assert f"argument {argv[-2]}: " in capsys.readouterr().err


class TestNonUtf8Input:
    @pytest.mark.parametrize(
        "kind", ["history", "load", "temps", "forecast", "holidays", "config", "dates"]
    )
    def test_names_the_file_and_exits_2(self, raw_files, history_file, tmp_path,
                                        kind, capsys):
        config = tmp_path / "good.ini"
        config.write_text("[kernel]\nkind = gaussian\n")
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
