"""Deterministic workload inputs, built from ``SyntheticSpec(..., seed=<seed>)``.

Every file the program reads is written here, before anything is timed, so
that building inputs counts toward no metric. The same seed and size give
byte-identical files; each file's sha256 is recorded with the result.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

import numpy as np

from shapecast.history import history_jsonl_text
from shapecast.ingest import FORECAST_LABELS
from shapecast.segments import TimeGrid
from shapecast.synthetic import SyntheticSpec, generate


@dataclass(frozen=True)
class Size:
    daily_days: int  # raw history length; day daily_days + 1 is held out
    daily_points: int
    backtest_days: int
    backtest_points: int
    backtest_sample: int
    backtest_min_history: int
    # extra `simulate` flags; empty means the CLI defaults
    simulate_args: tuple[str, ...]
    simulate_rows: int  # rows the simulate CSV must have
    simulate_lengths: tuple[int, int]  # (shortest, longest) L in the CSV


FULL = Size(
    daily_days=1095, daily_points=96,
    backtest_days=3650, backtest_points=96,
    backtest_sample=60, backtest_min_history=60,
    simulate_args=(),
    simulate_rows=4 * 50, simulate_lengths=(64, 512),
)

# Small enough for a smoke test, large enough that CV still runs 25 x 30
# pipelines and the consistency decay still shows.
TOY = Size(
    daily_days=120, daily_points=24,
    backtest_days=150, backtest_points=24,
    backtest_sample=8, backtest_min_history=60,
    simulate_args=("--lengths", "32,256", "--replications", "8", "--points-per-day", "12"),
    simulate_rows=2 * 8, simulate_lengths=(32, 256),
)

SIZES = {"full": FULL, "toy": TOY}

BACKTEST_METHODS = ("ssp", "persistence", "conditional-kernel")
FIXED_BANDWIDTH = "0.3"


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _daily_inputs(seed: int, size: Size, out_dir: str) -> dict:
    grid = TimeGrid.equidistant(size.daily_points)
    window, _ = generate(SyntheticSpec(grid, size.daily_days + 1, seed=seed))
    *past, held_out = window.records
    load_rows = ["timestamp,load_mw"]
    temp_rows = ["timestamp,temp_c"]
    for rec in past:
        day = rec.meta.date.isoformat()
        for label, load, temp in zip(grid.labels, rec.load.values, rec.temperature.values):
            load_rows.append(f"{day}T{label},{float(load)!r}")
            temp_rows.append(f"{day}T{label},{float(temp)!r}")
    forecast = [float(held_out.temperature.values[grid.index_of(lb)]) for lb in FORECAST_LABELS]
    target = held_out.meta.date.isoformat()
    files = {
        "load.csv": "\n".join(load_rows) + "\n",
        "temps.csv": "\n".join(temp_rows) + "\n",
        "forecast.csv": "date,t0800,t1200,t1600,t2000\n"
        + ",".join([target] + [repr(t) for t in forecast]) + "\n",
    }
    digests = {name: _write(os.path.join(out_dir, name), text) for name, text in files.items()}
    return {
        "digests": digests,
        "points_per_day": size.daily_points,
        "target_date": target,
        "next_day_max": float(max(held_out.load.values)),
        "raw_rows": len(load_rows) - 1,
    }


def _backtest_inputs(seed: int, size: Size, out_dir: str) -> dict:
    grid = TimeGrid.equidistant(size.backtest_points)
    window, _ = generate(SyntheticSpec(grid, size.backtest_days, seed=seed))
    # One target date per equal stratum of the eligible days. A plain random
    # sample would change the summed prefix length, and so the work, by about
    # +-10% from seed to seed; strata keep the work fixed and still cover
    # every prefix length from min_history to the full history.
    rng = np.random.default_rng(seed)
    edges = np.linspace(size.backtest_min_history, size.backtest_days,
                        size.backtest_sample + 1).astype(int)
    picks = [int(rng.integers(lo, hi)) for lo, hi in zip(edges[:-1], edges[1:])]
    files = {
        "history.jsonl": history_jsonl_text(window),
        "dates.txt": "".join(window.records[i].meta.date.isoformat() + "\n" for i in picks),
    }
    digests = {name: _write(os.path.join(out_dir, name), text) for name, text in files.items()}
    return {"digests": digests, "target_dates": len(picks)}


def build(workload: str, seed: int, size: Size, out_dir: str) -> dict:
    """Write the workload's input files into `out_dir`; return their description."""
    os.makedirs(out_dir, exist_ok=True)
    if workload == "daily":
        return _daily_inputs(seed, size, out_dir)
    if workload == "backtest":
        return _backtest_inputs(seed, size, out_dir)
    # simulate builds its histories from --seed itself
    return {"digests": {}, "replications": size.simulate_rows}
