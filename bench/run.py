"""shapecast benchmark: one command that runs a workload and reports its metrics.

    python3 bench/run.py --workload daily|backtest|montecarlo|all \
        [--seed N] [--seconds S] [--trace 0|1] [--size full|toy]

Run it from anywhere inside a source checkout; it builds nothing but imports
the program from ``src/``. Inputs are generated from ``--seed`` before
anything is timed, then a fresh interpreter runs the workload's commands
through ``shapecast.cli.main`` (see workload.py). Work files go under
``.bench_build/shapecast/`` in the checkout.

With ``--trace 0`` the last stdout line carries the end-to-end metrics,
measured with no wrappers installed; with ``--trace 1`` it carries the
per-layer metrics of an extra, traced pass. The lines before it print every
metric by name and unit, the environment, input and output digests, and any
failed check.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("daily", "backtest", "montecarlo")
SETUP_SAMPLES = 9
RUN_LIMIT_S = 170.0  # every run must end within 180 s

_IMPORT_PROBE = (
    "import speed\n"
    "_, t = speed.measure(__import__, 'shapecast.cli')\n"
    "import shapecast.cli\n"
    "print(repr(t.scaled_s), repr(t.wall_s), shapecast.cli.__file__)\n"
)


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), str(BENCH), env.get("PYTHONPATH")])
    )
    return env


def measure_setup(env) -> tuple[list[float], list[float]]:
    """Cold `import shapecast.cli` times (scaled, wall), one fresh interpreter each.

    The first import is discarded: it may compile the bytecode cache, which
    an installed program pays once, not on every invocation.
    """
    scaled, wall = [], []
    for _ in range(SETUP_SAMPLES + 1):
        out = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=60, check=True,
        ).stdout.split()
        if not Path(out[2]).resolve().is_relative_to(SRC):
            raise RuntimeError(f"imported shapecast from {out[2]}, not {SRC}")
        scaled.append(float(out[0]))
        wall.append(float(out[1]))
    return scaled[1:], wall[1:]


def _blas_name() -> str:
    import numpy as np

    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return "unknown"


def run_workload(name: str, seed: int, seconds: float, trace: int, size: str,
                 deadline: float) -> dict:
    import inputs

    work = ROOT / ".bench_build" / "shapecast" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spec = inputs.build(name, seed, inputs.SIZES[size], str(work / "inputs"))
    spec.update(workload=name, seed=seed, size=size)
    (work / "inputs.json").write_text(json.dumps(spec, indent=2) + "\n")

    env = _child_env()
    setup, setup_wall = measure_setup(env)
    remaining = deadline - time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "workload.py"), "--workload", name,
         "--work", str(work), "--seconds", str(seconds),
         "--budget", str(remaining - 10.0), "--trace", str(trace)],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=remaining,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{name} workload process failed:\n{proc.stderr[-4000:]}")
    child = json.loads(proc.stdout.strip().splitlines()[-1])
    child["setup_s"] = setup
    child["setup_wall_s"] = setup_wall
    child["inputs"] = spec
    child["env"]["blas"] = _blas_name()
    (work / "result.json").write_text(json.dumps(child, indent=2) + "\n")
    return child


def end_to_end(child: dict) -> dict[str, tuple[float, str]]:
    """The metrics BENCHMARK.json gates on; every workload reports all of them."""
    return {
        "setup_s": (statistics.median(child["setup_s"]), "s"),
        "pass_s": (statistics.median(child["pass_s"]), "s"),
        "peak_rss_mb": (child["peak_rss_mb"], "MB"),
    }


def named(name: str, child: dict) -> dict[str, tuple[float, str]]:
    """Each workload's own end-to-end figures, printed but not gated."""
    med = {label: statistics.median(ts) for label, ts in child["command_s"].items()}
    spec = child["inputs"]
    out: dict[str, tuple[float, str]] = {}
    if name == "daily":
        out["ingest_s"] = (med["ingest"], "s")
        out["predict_auto_s"] = (med["predict-auto"], "s")
        out["predict_fixed_s"] = (med["predict-fixed"], "s")
    elif name == "backtest":
        out["backtest_days_per_s"] = (spec["target_dates"] / med["backtest"], "dates/s")
    else:
        out["simulate_reps_per_s"] = (spec["replications"] / med["simulate"], "reps/s")
    failed = len(child["failures"])
    out["error_rate"] = (failed / child["attempted"], "failed/attempted")
    return out


def report(name: str, seed: int, trace: int, child: dict) -> dict[str, tuple[float, str]]:
    """Print the human-readable lines; return the metrics for the JSON line."""
    env = child["env"]
    print(f"workload {name} seed {seed} trace {trace} passes {len(child['pass_s'])} "
          f"commands {child['attempted']}")
    blas = " ".join(f"{k}={v}" for k, v in env["blas_threads"].items())
    print(f"env nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"blas={env['blas']} {blas}")
    for fname, digest in sorted(child["inputs"]["digests"].items()):
        print(f"input {fname} sha256 {digest}")
    for label, files in sorted(child["digests"].items()):
        for fname, digest in sorted(files.items()):
            print(f"output {label} {fname} sha256 {digest}")
    for failure in child["failures"]:
        print(f"FAILED {failure}")
    if trace:
        for missing in child["missing"]:
            print(f"missing wrapped name {missing}")
        layers = {k: (v["value"], v["unit"]) for k, v in child["layers"].items()}
        for key, (value, unit) in layers.items():
            print(f"layer {key} {value!r} {unit}")
        return layers
    gated = end_to_end(child)
    print(f"metric setup_s {gated['setup_s'][0]!r} s (median of {len(child['setup_s'])} "
          f"cold imports; wall {statistics.median(child['setup_wall_s']):.4f} s)")
    print(f"metric pass_s {gated['pass_s'][0]!r} s (median of {len(child['pass_s'])} "
          f"passes; wall {statistics.median(child['pass_wall_s']):.4f} s)")
    print(f"metric peak_rss_mb {gated['peak_rss_mb'][0]!r} MB")
    for key, (value, unit) in named(name, child).items():
        print(f"metric {key} {value!r} {unit}")
    return gated


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "toy"), default="full")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S * (3 if args.workload == "all" else 1)

    if not (SRC / "shapecast" / "cli.py").is_file():
        print(f"error: no shapecast sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics: dict[str, dict] = {}
    attempted = failed = 0
    for name in names:
        try:
            child = run_workload(name, args.seed, args.seconds, args.trace, args.size,
                                 deadline)
        except (RuntimeError, OSError, subprocess.SubprocessError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        prefix = f"{name}." if len(names) > 1 else ""
        for key, (value, unit) in report(name, args.seed, args.trace, child).items():
            metrics[prefix + key] = {"value": value, "unit": unit}
        attempted += child["attempted"]
        failed += len(child["failures"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
