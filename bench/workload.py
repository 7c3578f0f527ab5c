"""Run one workload's passes in this process and print its result as JSON.

Started by run.py in a fresh interpreter, so that the peak RSS it reports is
that of the process that ran the workload. Commands go through
``shapecast.cli.main`` in-process, back to back: one caller, closed loop.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback

import numpy as np
import shapecast.cli as cli

import speed
from inputs import BACKTEST_METHODS, FIXED_BANDWIDTH, SIZES
from tracing import Tracer

# predict --bandwidth 0.3 takes about a quarter second, so it is repeated
# after the passes until this many samples exist; its median then holds.
FIXED_SAMPLES = 7


class CheckFailed(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _digests(root: str, paths) -> dict[str, str]:
    out = {}
    for path in sorted(paths):
        with open(path, "rb") as fh:
            out[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _tree(path: str) -> list[str]:
    return [os.path.join(d, f) for d, _, files in os.walk(path) for f in files]


# -- output checks ------------------------------------------------------------

def check_history(path: str, days: int) -> None:
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh if ln.strip()]
    _require(len(lines) == days + 1, f"history has {len(lines) - 1} days, expected {days}")


def check_prediction(path: str, spec: dict) -> None:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    shape, scaled = doc["shape"], doc["scaled"]
    p = spec["points_per_day"]
    _require(doc["date"] == spec["target_date"], f"prediction is for {doc['date']}")
    _require(len(shape) == p, f"shape has {len(shape)} values, expected {p}")
    _require(all(math.isfinite(v) for v in shape), "shape has non-finite values")
    _require(scaled is not None and len(scaled) == p, "scaled curve missing")
    m = spec["next_day_max"]
    _require(all(math.isclose(s, v * m, rel_tol=1e-9) for s, v in zip(scaled, shape)),
             "scaled != shape x next-day-max")
    _require(len(doc["reference_dates"]) > 0, "reference_dates is empty")


def check_backtest(out_dir: str, sample: int) -> None:
    with open(os.path.join(out_dir, "report.csv"), encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    _require(len(rows) == sample * len(BACKTEST_METHODS),
             f"report.csv has {len(rows)} rows, expected {sample * len(BACKTEST_METHODS)}")
    rmae: dict[str, list[float]] = {}
    for row in rows:
        value = float(row["rmae"])
        _require(math.isfinite(value), f"non-finite RMAE on {row['date']} {row['method']}")
        rmae.setdefault(row["method"], []).append(value)
    ssp, persistence = statistics.mean(rmae["ssp"]), statistics.mean(rmae["persistence"])
    _require(ssp < persistence,
             f"ssp mean RMAE {ssp:.5f} not below persistence {persistence:.5f}")


def check_simulate(path: str, n_rows: int, lengths: tuple[int, int]) -> None:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    _require(len(rows) == n_rows, f"simulate CSV has {len(rows)} rows, expected {n_rows}")
    short, long_ = (
        statistics.mean(float(r["err_pred"]) for r in rows if int(r["L"]) == L)
        for L in lengths
    )
    _require(long_ < short,
             f"mean err_pred at L={lengths[1]} ({long_:.5f}) not below L={lengths[0]} ({short:.5f})")


# -- commands -----------------------------------------------------------------

class Runner:
    """Runs commands, times them, checks them and counts failures."""

    def __init__(self, tracer: Tracer | None = None, first_digests=None) -> None:
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.times: dict[str, list[float]] = {}  # scaled seconds per command label
        self.wall_times: dict[str, list[float]] = {}
        # outputs of each command's first run, which every later run must match
        self.first_digests: dict[str, dict[str, str]] = (
            {} if first_digests is None else first_digests
        )
        self.pass_scaled = self.pass_wall = 0.0  # running sums for the current pass

    def run(self, label: str, argv: list[str], out_root: str, outputs, check) -> None:
        """One CLI invocation, timed, then checked against its outputs."""
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()

        def invoke():
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    if self.tracer is None:
                        return cli.main(argv)
                    return self.tracer.command(label, cli.main, argv)
            except (Exception, SystemExit):
                err.write(traceback.format_exc())
                return None

        gc.collect()
        rc, timing = speed.measure(invoke)
        self.pass_scaled += timing.scaled_s
        self.pass_wall += timing.wall_s
        problem = None
        if rc != 0:
            problem = f"exit {rc}: {err.getvalue().strip()[-500:]}"
        else:
            try:
                check()
                digests = _digests(out_root, outputs())
                digests["<stdout>"] = hashlib.sha256(out.getvalue().encode()).hexdigest()
                first = self.first_digests.setdefault(label, digests)
                _require(digests == first, "output differs from the first pass")
            except (CheckFailed, OSError, ValueError, KeyError, TypeError) as exc:
                problem = f"{type(exc).__name__}: {exc}"
        if problem:
            self.failures.append(f"{label}: {problem}")
        self.times.setdefault(label, []).append(timing.scaled_s)
        self.wall_times.setdefault(label, []).append(timing.wall_s)

    def run_pass(self, one_pass, *args) -> tuple[float, float]:
        """(scaled, wall) seconds the pass's commands took, checks excluded."""
        self.pass_scaled = self.pass_wall = 0.0
        one_pass(self, *args)
        return self.pass_scaled, self.pass_wall


def _daily_pass(runner: Runner, spec: dict, work: str, pass_dir: str) -> None:
    inp = os.path.join(work, "inputs")
    hist = os.path.join(pass_dir, "history.jsonl")
    days = spec["raw_rows"] // spec["points_per_day"]
    runner.run("ingest", [
        "ingest", "--load", os.path.join(inp, "load.csv"),
        "--temps", os.path.join(inp, "temps.csv"),
        "--points-per-day", str(spec["points_per_day"]), "--out", hist,
    ], pass_dir, lambda: [hist], lambda: check_history(hist, days))
    for label, bandwidth in (("predict-auto", "auto"), ("predict-fixed", FIXED_BANDWIDTH)):
        _daily_predict(runner, spec, work, hist, pass_dir, label, bandwidth)


def _daily_predict(runner, spec, work, hist, out_dir, label, bandwidth) -> None:
    pred = os.path.join(out_dir, f"{label}.json")
    runner.run(label, [
        "predict", "--history", hist, "--date", spec["target_date"],
        "--temp-forecast", os.path.join(work, "inputs", "forecast.csv"),
        "--next-day-max", repr(spec["next_day_max"]), "--bandwidth", bandwidth,
        "--out", pred,
    ], out_dir, lambda: [pred], lambda: check_prediction(pred, spec))


def _backtest_pass(runner, spec, work, pass_dir) -> None:
    size = SIZES[spec["size"]]
    out = os.path.join(pass_dir, "backtest")
    inp = os.path.join(work, "inputs")
    runner.run("backtest", [
        "backtest", "--history", os.path.join(inp, "history.jsonl"),
        "--dates-file", os.path.join(inp, "dates.txt"),
        "--bandwidth", FIXED_BANDWIDTH, "--methods", ",".join(BACKTEST_METHODS),
        "--out-dir", out,
    ], pass_dir, lambda: _tree(out), lambda: check_backtest(out, size.backtest_sample))


def _montecarlo_pass(runner, spec, work, pass_dir) -> None:
    size = SIZES[spec["size"]]
    rows = os.path.join(pass_dir, "rows.csv")
    runner.run("simulate", [
        "simulate", "--seed", str(spec["seed"]), *size.simulate_args, "--out", rows,
    ], pass_dir, lambda: [rows],
        lambda: check_simulate(rows, size.simulate_rows, size.simulate_lengths))


PASSES = {"daily": _daily_pass, "backtest": _backtest_pass, "montecarlo": _montecarlo_pass}


def _blas_threads() -> dict[str, str]:
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {n: os.environ.get(n, "unset") for n in names}


def _traced_pass(runner, spec, work, one_pass, pass_times) -> dict:
    """One more pass with every wrapper installed; outputs must not change."""
    tracer = Tracer()
    traced = Runner(tracer, runner.first_digests)
    pass_dir = os.path.join(work, "traced")
    os.makedirs(pass_dir)
    tracer.install()
    try:
        traced_s, _ = traced.run_pass(one_pass, spec, work, pass_dir)
    finally:
        tracer.uninstall()
    runner.attempted += traced.attempted
    runner.failures += traced.failures
    untraced_s = statistics.median(pass_times)
    tracer.write_spans(os.path.join(work, "spans.jsonl"))
    layers = tracer.metrics(traced_s - untraced_s, traced_s / untraced_s - 1.0)
    return {
        "layers": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
        "missing": tracer.missing,
        "command_traced_s": {
            label: tracer.command_time(label) for label in dict.fromkeys(tracer.commands)
        },
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(PASSES))
    ap.add_argument("--work", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--budget", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    with open(os.path.join(args.work, "inputs.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    one_pass = PASSES[args.workload]
    runner = Runner()

    # untraced passes: at least two (determinism), more while --seconds allows
    min_passes = 1 if args.trace else 2
    pass_times: list[float] = []
    pass_walls: list[float] = []
    t_start = time.monotonic()
    while True:
        pass_dir = os.path.join(args.work, f"pass{len(pass_times) + 1}")
        os.makedirs(pass_dir)
        scaled, wall = runner.run_pass(one_pass, spec, args.work, pass_dir)
        pass_times.append(scaled)
        pass_walls.append(wall)
        elapsed = time.monotonic() - t_start
        if len(pass_times) >= min_passes and (
            elapsed >= args.seconds or elapsed + wall > args.budget
        ):
            break
    if args.workload == "daily":
        repeat_dir = os.path.join(args.work, "repeats")
        os.makedirs(repeat_dir)
        hist = os.path.join(args.work, "pass1", "history.jsonl")
        while len(runner.times.get("predict-fixed", ())) < FIXED_SAMPLES:
            _daily_predict(runner, spec, args.work, hist, repeat_dir, "predict-fixed",
                           FIXED_BANDWIDTH)
    # measured before tracing, so the wrappers' spans never count
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {}
    if args.trace:
        result.update(_traced_pass(runner, spec, args.work, one_pass, pass_times))
    result.update({
        "attempted": runner.attempted,
        "failures": runner.failures,
        "pass_s": pass_times,
        "pass_wall_s": pass_walls,
        "command_s": runner.times,
        "command_wall_s": runner.wall_times,
        "peak_rss_mb": peak_rss_mb,
        "digests": runner.first_digests,
        "env": {
            "nproc": os.cpu_count(),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "blas_threads": _blas_threads(),
        },
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
