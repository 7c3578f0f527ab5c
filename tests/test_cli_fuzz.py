"""Fuzzed input files through `cli.main`: every run ends in exit code 0, 1 or 2.

Each example starts from a small valid set of inputs for `predict` (history,
temperature forecast, holiday file, INI config) or for `backtest` (history,
dates file, INI config) and damages one of them: a field of a JSON record set
to an arbitrary JSON value, one load or temperature value of a record set to
a JSON leaf (null, NaN, an infinity, a huge integer, ...), an INI key set to
arbitrary text, a line replaced, dropped or truncated, a character swapped, a
stray non-UTF-8 byte, or the whole file replaced by noise. Whatever the
damage, `main` must return an exit code and let no exception escape. The
`simulate` flags are fuzzed the same way, with lengths kept small so that
every example stays cheap.
"""

import contextlib
import datetime as dt
import io
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from conftest import make_history
from shapecast.cli import INI_KEYS, main
from shapecast.history import history_jsonl_text
from shapecast.segments import TimeGrid

GRID = TimeGrid.equidistant(24)
START = dt.date(2010, 3, 1)
DAYS = 40
TARGET = START + dt.timedelta(days=DAYS)
BACKTEST_DATES = [START + dt.timedelta(days=d) for d in (34, 36, 39)]


INI = {
    "reference": {"n_l_g1": "10", "n_l_default": "21"},
    "kernel": {"kind": "gaussian", "bandwidth": "auto"},
    "distance": {"kind": "euclidean"},
}


def _ini_text(sections) -> str:
    return "".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in values.items())
        for name, values in sections.items()
    )


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
    }


VALID = _valid_inputs()
PREDICT_FILES = ["config.ini", "forecast.csv", "history.jsonl", "holidays.txt"]
BACKTEST_FILES = ["config.ini", "dates.txt", "history.jsonl"]

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


@st.composite
def damaged(draw, name: str, kind: str | None = None) -> bytes:
    """The valid `name` file with one kind of damage (drawn if not given)."""
    content = VALID[name]
    kinds = ["line", "drop", "truncate", "char", "byte", "noise"]
    kinds += {"history.jsonl": ["json", "element"], "config.ini": ["ini"]}.get(name, [])
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
