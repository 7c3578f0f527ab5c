"""Fuzzed input files through `cli.main`: every run ends in exit code 0, 1 or 2.

Each example starts from a small valid set of inputs for `predict` (history,
temperature forecast, holiday file, INI config), for `backtest` (history,
dates file, INI config) or for `ingest` (load, temperature and holiday files)
and damages one of them: a field of a JSON record set to an arbitrary JSON
value, one load or temperature value of a record set to a JSON leaf (null,
NaN, an infinity, a huge integer, ...), an INI key set to arbitrary text, a
clock hour of a load or temperature file repeated (as on a fall-back day,
naive or with UTC offsets) or missing (as on a spring-forward day), a field
past the csv module's size limit, a line replaced, dropped or truncated, a
character swapped, a stray non-UTF-8 byte, or the whole file replaced by
noise. Whatever the damage, `main` must return an exit code and let no
exception escape. The `simulate` flags are fuzzed the same way, with lengths
kept small so that every example stays cheap.
"""

import contextlib
import csv
import datetime as dt
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import make_history
from shapecast.cli import INI_KEYS, main
from shapecast.history import history_jsonl_text
from shapecast.segments import TimeGrid

GRID = TimeGrid.equidistant(24)
START = dt.date(2010, 3, 1)
DAYS = 40
TARGET = START + dt.timedelta(days=DAYS)
BACKTEST_DATES = [START + dt.timedelta(days=d) for d in (34, 36, 39)]
# the raw files `ingest` reads span a few days from START, a holiday
INGEST_DAYS = 3


INI = {
    "reference": {"n_l_g1": "10", "n_l_default": "21"},
    "kernel": {"bandwidth": "auto"},
    "distance": {"kind": "euclidean"},
}


def _ini_text(sections) -> str:
    return "".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in values.items())
        for name, values in sections.items()
    )


def _series_text(column: str, values: np.ndarray) -> str:
    """A `timestamp,<column>` CSV of hourly readings from START, one day a row of `values`."""
    start = dt.datetime.combine(START, dt.time())
    return f"timestamp,{column}\n" + "".join(
        f"{(start + dt.timedelta(hours=h)).isoformat(timespec='minutes')},{v:.3f}\n"
        for h, v in enumerate(values.ravel().tolist()))


def _valid_inputs() -> dict[str, str]:
    rng = np.random.default_rng(3)
    loads = 100.0 + 400.0 * rng.random((DAYS, 24))
    temps = 5.0 + 25.0 * rng.random((DAYS, 24))
    # two temperature rows, so candidates tie, the reference is no history
    # shape, and bandwidth CV's smallest h falls back to the nearest shape
    history = make_history(GRID, START, loads, temps[np.arange(DAYS) % 2])
    return {
        "history.jsonl": history_jsonl_text(history),
        "forecast.csv": "date,t0800,t1200,t1600,t2000\n"
        f"{TARGET.isoformat()},18.0,22.0,21.0,17.0\n",
        "holidays.txt": f"# holidays\n{START.isoformat()}\n",
        "config.ini": _ini_text(INI),
        "dates.txt": "# backtest days\n"
        + "".join(f"{d.isoformat()}\n" for d in BACKTEST_DATES),
        "load.csv": _series_text("load_mw", loads[:INGEST_DAYS]),
        "temps.csv": _series_text("temp_c", temps[:INGEST_DAYS]),
    }


VALID = _valid_inputs()
PREDICT_FILES = ["config.ini", "forecast.csv", "history.jsonl", "holidays.txt"]
BACKTEST_FILES = ["config.ini", "dates.txt", "history.jsonl"]
INGEST_FILES = ["holidays.txt", "load.csv", "temps.csv"]
SERIES_DAMAGE = ["repeat", "skip", "huge"]

text = st.text(st.characters(exclude_categories=("Cs",)), max_size=40)
# floats include NaN and the infinities, which json.dumps writes as literals
leaves = (st.none() | st.booleans() | st.floats() | text
          | st.integers(-10**400, 10**400))
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | text,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(text, inner, max_size=3),
    max_leaves=8,
)
RECORD_KEYS = ["grid", "date", "is_holiday", "group", "quality", "load_mw", "temp_c"]


def _line_replaced(content: str, i: int, replacement: list[str]) -> str:
    lines = content.splitlines()
    i %= len(lines)
    return "\n".join(lines[:i] + replacement + lines[i + 1:]) + "\n"


def _repeated_hour(content: str, i: int, value: str | None, offsets: bool) -> str:
    """Reading i % rows repeated with `value` (its own if None): a fall-back hour.

    With `offsets` the two readings carry the summer and the winter UTC offset.
    """
    lines = content.splitlines()
    i = 1 + i % (len(lines) - 1)
    stamp, own = lines[i].split(",")
    first, second = (f"{stamp}+03:00", f"{stamp}+02:00") if offsets else (stamp, stamp)
    return _line_replaced(content, i, [f"{first},{own}", f"{second},{value or own}"])


def _huge_field(content: str, i: int) -> str:
    """The last field of line i % lines, the header included, past csv's size limit."""
    lines = content.splitlines()
    head = lines[i % len(lines)].rsplit(",", 1)[0]
    return _line_replaced(content, i, [f"{head},{'1' * (csv.field_size_limit() + 1)}"])


@st.composite
def damaged(draw, name: str, kind: str | None = None) -> bytes:
    """The valid `name` file with one kind of damage (drawn if not given)."""
    content = VALID[name]
    kinds = ["line", "drop", "truncate", "char", "byte", "noise"]
    kinds += {"history.jsonl": ["json", "element"], "config.ini": ["ini"],
              "load.csv": SERIES_DAMAGE, "temps.csv": SERIES_DAMAGE}.get(name, [])
    kind = kind or draw(st.sampled_from(kinds))
    i = draw(st.integers(0, 10_000))
    if kind == "noise":
        return draw(st.binary(max_size=80))
    if kind == "json":
        lines = content.splitlines()
        record = json.loads(lines[i % len(lines)])
        record[draw(st.sampled_from(RECORD_KEYS) | text)] = draw(json_values)
        content = _line_replaced(content, i, [json.dumps(record)])
    elif kind == "element":
        lines = content.splitlines()
        i = 1 + i % (len(lines) - 1)  # a record, not the grid header
        record = json.loads(lines[i])
        values = record[draw(st.sampled_from(["load_mw", "temp_c"]))]
        values[draw(st.integers(0, len(values) - 1))] = draw(leaves)
        content = _line_replaced(content, i, [json.dumps(record)])
    elif kind == "ini":
        sections = {s: dict(values) for s, values in INI.items()}
        section = draw(st.sampled_from(sorted(sections)))
        # every key the table holds, and one it does not
        key = draw(st.sampled_from(["mode", *sorted({k for _, k in INI_KEYS})]))
        sections[section][key] = draw(text.map(lambda s: " ".join(s.splitlines())))
        content = _ini_text(sections)
    elif kind == "repeat":
        value = draw(st.none() | st.floats(0.0, 1e3).map(repr))
        content = _repeated_hour(content, i, value, draw(st.booleans()))
    elif kind == "skip":  # a reading, never the header, missing: a spring-forward hour
        content = _line_replaced(content, 1 + i % (len(content.splitlines()) - 1), [])
    elif kind == "huge":
        content = _huge_field(content, i)
    elif kind == "line":
        content = _line_replaced(content, i, [draw(text)])
    elif kind == "drop":
        content = _line_replaced(content, i, [])
    elif kind == "truncate":
        content = content[: i % (len(content) + 1)]
    elif kind == "char":
        j = i % len(content)
        char = draw(st.characters(exclude_categories=("Cs",)))
        content = content[:j] + char + content[j + 1:]
    data = content.encode("utf-8")
    if kind == "byte":
        j = i % (len(data) + 1)
        data = data[:j] + draw(st.sampled_from([b"\xff", b"\x80", b"\xc3"])) + data[j:]
    return data


def _predict(root: Path) -> int:
    return main([
        "predict", "--history", str(root / "history.jsonl"),
        "--date", TARGET.isoformat(),
        "--temp-forecast", str(root / "forecast.csv"),
        "--holidays", str(root / "holidays.txt"),
        "--config", str(root / "config.ini"),
        "--out", str(root / "prediction.json"),
    ])


def _backtest(root: Path) -> int:
    return main([
        "backtest", "--history", str(root / "history.jsonl"),
        "--dates-file", str(root / "dates.txt"),
        "--config", str(root / "config.ini"),
        "--out-dir", str(root / "bt"),
    ])


def _ingest(root: Path) -> int:
    with contextlib.redirect_stdout(io.StringIO()):  # the gap report
        return main([
            "ingest", "--load", str(root / "load.csv"), "--temps", str(root / "temps.csv"),
            "--holidays", str(root / "holidays.txt"), "--points-per-day", "24",
            "--out", str(root / "ingested.jsonl"),
        ])


def _run(files: dict[str, bytes], command=_predict) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, data in files.items():
            (root / name).write_bytes(data)
        return command(root)


def _damaged_case(names):
    """(file name, damaged bytes) for one of `names`."""
    return st.sampled_from(names).flatmap(
        lambda name: st.tuples(st.just(name), damaged(name))
    )


def _files_with(case) -> dict[str, bytes]:
    """The valid files, with the damaged one in place."""
    name, data = case
    files = {n: content.encode() for n, content in VALID.items()}
    files[name] = data
    return files


def test_valid_inputs_predict():
    assert _run({name: content.encode() for name, content in VALID.items()}) == 0


def test_valid_inputs_backtest():
    files = {name: content.encode() for name, content in VALID.items()}
    assert _run(files, _backtest) == 0


def test_valid_inputs_ingest():
    files = {name: content.encode() for name, content in VALID.items()}
    assert _run(files, _ingest) == 0


@pytest.mark.parametrize("name", ["load.csv", "temps.csv"])
@pytest.mark.parametrize("line", [1, 2])
def test_field_past_the_csv_limit_names_its_line(name, line, capsys):
    # on the header line too, which is read before any row
    files = _files_with((name, _huge_field(VALID[name], line - 1).encode()))
    assert _run(files, _ingest) == 1
    limit = csv.field_size_limit()
    assert capsys.readouterr().err == (
        f"error: line {line}: field larger than field limit ({limit})\n")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_damaged_case(INGEST_FILES))
# whatever the draws: a non-UTF-8 holiday file, a fall-back hour repeated with
# its own value, naive, and with another, under two UTC offsets, and a
# spring-forward hour missing
@example(("holidays.txt", b"\xff" + VALID["holidays.txt"].encode()))
@example(("load.csv", _repeated_hour(VALID["load.csv"], 3, None, False).encode()))
@example(("temps.csv", _repeated_hour(VALID["temps.csv"], 3, "7.5", True).encode()))
@example(("load.csv", _line_replaced(VALID["load.csv"], 4, []).encode()))
def test_damaged_ingest_input_exits_cleanly(case):
    """The raw files span `INGEST_DAYS` days only, to keep the suite fast: what
    ingest costs per day of span is not what this checks."""
    assert _run(_files_with(case), _ingest) in (0, 1, 2)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_damaged_case(PREDICT_FILES))
def test_damaged_input_exits_cleanly(case):
    assert _run(_files_with(case)) in (0, 1, 2)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_damaged_case(BACKTEST_FILES))
def test_damaged_backtest_input_exits_cleanly(case):
    assert _run(_files_with(case), _backtest) in (0, 1, 2)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(damaged("history.jsonl", "element"), st.sampled_from([_predict, _backtest]))
def test_damaged_history_value_exits_cleanly(data, command):
    assert _run(_files_with(("history.jsonl", data)), command) in (0, 1, 2)


# small lengths only: a path past the last representable date has its own test
small_lengths = st.integers(1, 128)
length_lists = (
    st.lists(small_lengths, min_size=1, max_size=4, unique=True).map(sorted)
    | st.lists(small_lengths | st.sampled_from(["", "0", "-3", "1e3", "abc"]),
               min_size=1, max_size=4)
).map(lambda items: ",".join(map(str, items)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(length_lists, st.sampled_from(["1", "2"]), st.sampled_from([2, 7, 12, 24]))
def test_simulate_flags_exit_cleanly(lengths, replications, points_per_day):
    argv = ["simulate", "--lengths", lengths, "--replications", replications,
            "--points-per-day", str(points_per_day)]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    except SystemExit as exc:  # argparse refuses a bad flag value this way
        code = exc.code
    assert code in (0, 1, 2)
