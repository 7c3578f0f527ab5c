import datetime as dt
import json
from dataclasses import replace

import numpy as np
import orjson
import pytest

from shapecast import synthetic
from shapecast.calendars import GROUPS
from shapecast.errors import IngestError, ShapecastError
from shapecast.history import (
    _NUMBER_OR_NULL, _ORJSON_DEPTH, _REPORTED, HistoryWindow, Quality, _located, _numbers,
    _refuse_bad_day, _refuse_constant,
)
from shapecast.predictor import _kernel_weights, predict_shape
from shapecast.reference import candidate_set, select_reference
from shapecast.segments import DistanceKind, TimeGrid, distances, read_only


# where orjson's float text leaves `repr`'s: the edges of its plain notation,
# each with its neighbours, and the smallest doubles
FLOAT_EDGES = [
    sign * float(x)
    for edge in (1e-4, 1e16)
    for x in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf))
    for sign in (1.0, -1.0)
] + [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 9999999999999998.0]


@pytest.fixture
def grid4():
    return TimeGrid.equidistant(4)


@pytest.fixture
def grid24():
    return TimeGrid.equidistant(24)


@pytest.fixture
def drawn_seeds(monkeypatch):
    """The seed of each sample path the lab draws, recorded as the path is drawn."""
    seeds, paths = [], synthetic._paths
    monkeypatch.setattr(synthetic, "_paths",
                        lambda spec, wanted: paths(spec, (seeds.append(s) or s for s in wanted)))
    return seeds


def out_of_place(diff, kind):
    """The metric of each difference vector along the last axis, on fresh arrays."""
    if kind is DistanceKind.EUCLIDEAN:
        return np.sqrt(np.sum(diff * diff, axis=-1))
    if kind is DistanceKind.MEAN_ABSOLUTE:
        return np.mean(np.abs(diff), axis=-1)
    return np.max(np.abs(diff), axis=-1)


def distance(a, b, kind=DistanceKind.EUCLIDEAN) -> float:
    """One pair's distance: `segments.distances` must equal it row by row, bit for bit."""
    diff = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    return float(out_of_place(diff, DistanceKind(kind)))


def raw_stage(history, group, forecast, cfg, bandwidth):
    """The predictor's pipeline on the raw loads, the Monte Carlo lab's oracle.

    Candidates -> reference -> distance row -> weights -> combined curve, all
    of them over `history.loads` where `predict_day` takes the shapes: the
    reference is the mean of the loads over the rows of C*, which keeps the
    candidates' order. Returns (the `ReferenceResult` holding that mean,
    weights, combined loads, `_kernel_weights`'s (dead, empty)).
    """
    candidates = candidate_set(history, group, cfg.reference)
    result = select_reference(history, candidates, forecast, cfg.reference)
    rows = [history.dates.index(date) for date in result.c_star]
    reference = replace(result, reference=read_only(history.loads[rows].mean(axis=0)))
    dists = distances(history.loads, reference.reference, cfg.shape_distance)
    weights, *fallbacks = _kernel_weights(dists, cfg.kernel.kind, bandwidth)
    return reference, weights, read_only(predict_shape(history.loads, weights)), fallbacks


def make_history(grid: TimeGrid, start: dt.date, loads, temps=None) -> HistoryWindow:
    """Consecutive days from `start`; no temperature where `temps` is None."""
    loads = np.asarray(loads, dtype=float)
    dates = tuple(start + dt.timedelta(days=i) for i in range(len(loads)))
    temps = np.full(loads.shape, np.nan) if temps is None else temps
    return HistoryWindow(grid, dates, loads, temps)


def random_history(grid: TimeGrid, rng: np.random.Generator, length: int,
                   start=dt.date(2010, 3, 1)) -> HistoryWindow:
    P = grid.points_per_day
    loads = 50.0 + 450.0 * rng.random((length, P))
    temps = 5.0 + 30.0 * rng.random((length, P))
    return make_history(grid, start, loads, temps)


def history_jsonl_oracle(window: HistoryWindow) -> str:
    """The history file `history_jsonl_text` must write: one `json.dumps` per line."""
    lines = [json.dumps({"grid": list(window.grid.labels)}, sort_keys=True)]
    observed = ~np.isnan(window.temps).all(axis=1)
    for i, date in enumerate(window.dates):
        d = {
            "date": date.isoformat(),
            "is_holiday": bool(window.is_holiday[i]),
            "group": GROUPS[window.group[i]].value,
            "quality": window.quality[i].value,
            "load_mw": window.loads[i].tolist(),
        }
        if observed[i]:
            # NaN, the one value unequal to itself, marks an unobserved point
            d["temp_c"] = [None if v != v else v for v in window.temps[i].tolist()]
        lines.append(json.dumps(d, sort_keys=True))
    return "\n".join(lines) + "\n"


# The history reader as it was before its one-loop rewrite, kept as the reference:
# every line goes through `_oracle_record`, first with orjson, then with the
# stdlib decoder where orjson refuses it or it fails a check.

_STDLIB_DECODER = json.JSONDecoder(parse_constant=_refuse_constant)


def _oracle_decoder(text: str):
    if len(text) > 2 * _ORJSON_DEPTH and text.count("[") + text.count("{") > _ORJSON_DEPTH:
        return _STDLIB_DECODER.decode
    return orjson.loads


def _oracle_record(text: str, decode, P: int, load: np.ndarray, temp: np.ndarray) -> tuple:
    if text.startswith("\ufeff"):
        raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
    d = decode(text)
    date = dt.date.fromisoformat(d["date"])
    holiday = bool(d.get("is_holiday"))
    load[:] = _numbers(d["load_mw"], "load_mw", P)
    temps = d.get("temp_c")
    if temps is not None:
        temp[:] = _numbers(temps, "temp_c", P, _NUMBER_OR_NULL)
        if temps.count(None) == P:
            raise ShapecastError("temperature mask must be nonempty")
    return date, holiday, Quality(d["quality"])


def read_history_jsonl_oracle(path) -> HistoryWindow:
    """The window `read_history_jsonl` must read from `path`, or its error."""
    with open(path, encoding="utf-8") as fh:
        lines = [(n, ln) for n, ln in enumerate(fh.read().split("\n"), 1) if ln.strip()]
    if not lines:
        raise ShapecastError(f"{path}: empty history file")
    lineno, text = lines[0]
    with _located(path, lineno):
        header = json.loads(text)
        if not isinstance(header, dict) or "grid" not in header:
            raise ShapecastError("missing grid header line")
        grid = TimeGrid(tuple(header["grid"]))
    records = lines[1:]
    P = grid.points_per_day
    dates, holidays, quality = [], [], []
    loads, temps = np.zeros((len(records), P)), np.full((len(records), P), np.nan)
    failure = None
    for k, (lineno, text) in enumerate(records):
        try:
            with _located(path, lineno):
                try:
                    day = _oracle_record(text, _oracle_decoder(text), P, loads[k], temps[k])
                except _REPORTED:
                    day = _oracle_record(text, _STDLIB_DECODER.decode, P, loads[k], temps[k])
        except IngestError as exc:
            failure = exc
            break
        dates.append(day[0])
        holidays.append(day[1])
        quality.append(day[2])
    try:
        if failure is None:
            return HistoryWindow(grid, tuple(dates), loads, temps, holidays, tuple(quality))
        _refuse_bad_day(loads, temps)
    except ShapecastError as exc:
        if not hasattr(exc, "row"):
            raise
        raise IngestError(f"{path}:{records[exc.row][0]}: {exc}") from None
    raise failure
