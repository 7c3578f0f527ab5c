"""Smoke test of the benchmark harness at toy size (about a minute).

    python3 bench/smoke.py

Runs every workload named in BENCHMARK.json through run.py with
``--size toy``, untraced and traced, and checks that:

- every run is correct and prints exactly the metrics BENCHMARK.json lists
  for its mode, each with the listed unit;
- the daily trace runs 25 bandwidths x 30 validation days = 750 pipelines
  under one bandwidth CV, and attributes most of ``predict --bandwidth auto``
  to ``predictor.select_bandwidth``;
- a wrapped name that does not exist is reported missing, not fatal.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--size", "toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(result: dict, expected: list[dict], what: str) -> None:
    assert result["correct"] and result["failed"] == 0, f"{what}: not correct: {result}"
    assert result["attempted"] >= 1, what
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in expected}
    assert set(got) == set(want), (
        f"{what}: missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}"
    )
    for name, unit in want.items():
        assert got[name]["unit"] == unit, f"{what}: {name} unit {got[name]['unit']} != {unit}"
        assert isinstance(got[name]["value"], (int, float)), f"{what}: {name} not a number"


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for wl in bench["workloads"]:
        name = wl["name"]
        check_metrics(run(name, 0), bench["end_to_end"], f"{name} untraced")
        traced = run(name, 1)
        check_metrics(traced, bench["per_layer"], f"{name} traced")
        print(f"ok {name}")
        if name != "daily":
            continue
        layers = traced["metrics"]
        pipelines = layers["predictor.select_bandwidth.pipelines"]["value"]
        assert pipelines == 750, f"pipelines per CV = {pipelines}, expected 750"
        detail = json.loads((ROOT / ".bench_build" / "shapecast" / "daily" / "result.json")
                            .read_text())
        auto_s = detail["command_traced_s"]["predict-auto"]
        cv_s = layers["predictor.select_bandwidth.total_s"]["value"]
        assert cv_s > 0.5 * auto_s, f"select_bandwidth {cv_s:.3f} s of predict-auto {auto_s:.3f} s"
        print(f"ok daily trace: 750 pipelines, select_bandwidth {cv_s / auto_s:.0%} of predict-auto")

    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import shapecast.cli  # noqa: F401  (loads every module the tracer wraps)
    import tracing

    tracer = tracing.Tracer(spanned=tracing.SPANNED + ("predictor.no_such_function",))
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert tracer.missing == ["predictor.no_such_function"], tracer.missing
    print("ok missing names are reported")
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
