"""Synthetic data generator and the Monte Carlo consistency experiment.

Days are drawn from a group-dependent shape model: each day's load is a fixed
pointwise function of its temperature curve, chosen by the day's calendar
group, plus i.i.d. Gaussian noise. Temperatures come from a small pool of
profiles with optional per-day jitter, which makes noiseless exact-recovery
constructions possible. The experiment predicts day L+1 from length-L
histories at growing L and records how far the prediction (and the reference
segment) land from the clean shape.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import math
from dataclasses import astuple, dataclass, fields, replace

import numpy as np

from .calendars import GROUPS, DayGroup, group_codes
from .errors import EmptyCandidateError, MissingTemperatureError, ShapecastError
from .history import HistoryWindow
from .predictor import KernelKind, KernelSpec, PredictorConfig, predict_day
from .reference import ReferenceConfig
from .segments import DistanceSpec, TemperatureSegment, TimeGrid, distance

_VALUE_FLOOR = 1e-9
_RETRIES = 5  # fresh seeds tried per replication after a degenerate candidate set


def _f1(u: np.ndarray) -> np.ndarray:
    return 0.5 + 0.4 * np.sin(np.pi * u / 40.0) + 0.1 * u / 40.0


def _f2(u: np.ndarray) -> np.ndarray:
    return 0.6 + 0.3 * np.cos(np.pi * u / 40.0)


# each group's pointwise temperature-to-load map, which `generate` clips to
# [1e-9, 1]: weekdays and holidays share one, Saturdays and Sundays the other
SHAPE_FUNCTIONS = {
    DayGroup.G1: _f1, DayGroup.G2: _f1, DayGroup.HOLIDAY: _f1,
    DayGroup.G3: _f2, DayGroup.G4: _f2,
}


def default_temperature_pool(grid: TimeGrid, size: int = 5) -> tuple[np.ndarray, ...]:
    """Smooth, clearly distinct daily temperature profiles in roughly 8-36 C."""
    x = np.linspace(0.0, 1.0, grid.points_per_day, endpoint=False)
    pool = []
    for k in range(size):
        mean = 12.0 + 5.0 * k
        amp = 4.0 + 0.8 * k
        phase = 0.15 * k
        pool.append(mean + amp * np.sin(2.0 * np.pi * (x - 0.3 - phase)))
    return tuple(pool)


@dataclass(frozen=True)
class SyntheticSpec:
    grid: TimeGrid
    length: int
    noise_sigma: float = 0.05
    jitter_sigma: float = 0.5
    seed: object = 0  # int or tuple of ints feeding the master seed sequence
    start: dt.date = dt.date(2007, 1, 1)  # a Monday
    profile_mode: str = "random"  # "random" | "cycle"

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ShapecastError("length must be >= 1")
        if not (self.noise_sigma >= 0 and self.jitter_sigma >= 0):  # NaN fails too
            raise ShapecastError("sigmas must be nonnegative")
        if self.profile_mode not in ("random", "cycle"):
            raise ShapecastError("profile_mode must be 'random' or 'cycle'")


def _day_rng(seed, day_index: int) -> np.random.Generator:
    entropy = seed if isinstance(seed, (tuple, list)) else (seed,)
    ss = np.random.SeedSequence(entropy=list(entropy), spawn_key=(day_index,))
    return np.random.default_rng(ss)


def generate(spec: SyntheticSpec) -> tuple[HistoryWindow, np.ndarray]:
    """Deterministic sample path plus its L x P noiseless loads.

    Each day's generator draws, in order, the profile index (random mode),
    the temperature jitter and the load noise, each only when it is used;
    the model then runs on whole arrays.
    """
    L, P = spec.length, spec.grid.points_per_day
    dates = tuple(spec.start + dt.timedelta(days=n) for n in range(L))
    pool = np.array(default_temperature_pool(spec.grid))
    profile = np.arange(L) % len(pool)
    jitter, noise = np.zeros((L, P)), np.zeros((L, P))
    for n in range(L):
        rng = _day_rng(spec.seed, n)
        if spec.profile_mode == "random":
            profile[n] = rng.integers(len(pool))
        if spec.jitter_sigma > 0:
            jitter[n] = rng.standard_normal(P)
        if spec.noise_sigma > 0:
            noise[n] = rng.standard_normal(P)
    temps = pool[profile] + spec.jitter_sigma * jitter
    codes = group_codes(dates, False)
    clean = np.empty((L, P))
    for code, group in enumerate(GROUPS):
        rows = codes == code
        clean[rows] = np.clip(SHAPE_FUNCTIONS[group](temps[rows]), _VALUE_FLOOR, 1.0)
    loads = np.maximum(clean + spec.noise_sigma * noise, _VALUE_FLOOR)
    return HistoryWindow(spec.grid, dates, loads, temps), clean


@dataclass(frozen=True)
class ExperimentRow:
    L: int
    replication: int
    err_pred: float
    err_ref: float
    err_pred_ref: float
    h: float
    n_L: int
    c_star_size: int


def default_h_schedule(L: int, coef: float = 0.6) -> float:
    return coef * L ** (-1.0 / 5.0)


def default_n_L_schedule(L: int) -> int:
    return math.ceil(L ** (2.0 / 3.0))


def consistency_experiment(
    template: SyntheticSpec,
    lengths,
    replications: int,
    *,
    h_of_L=None,
    n_L_of_L=None,
    kernel_kind: KernelKind = KernelKind.GAUSSIAN,
) -> list[ExperimentRow]:
    """Predict day L+1 over growing L and record prediction/reference errors.

    Smoothing parameters shrink and widen with L through the supplied
    schedules. The start date is shifted per length so the predicted day
    always falls on the same weekday; otherwise the candidate pool size would
    jump with the target's group rather than with L. Replications with
    degenerate candidate sets are retried with a fresh seed a bounded number
    of times.
    """
    lengths = [int(L) for L in lengths]
    if any(b <= a for a, b in zip(lengths, lengths[1:])):
        raise ShapecastError("lengths must be strictly increasing")
    if replications < 1:
        raise ShapecastError("need at least one replication")
    h_of_L = h_of_L or default_h_schedule
    n_L_of_L = n_L_of_L or default_n_L_schedule
    dist = DistanceSpec()
    base_seed = template.seed if isinstance(template.seed, (tuple, list)) else (template.seed,)
    rows = []
    for L in lengths:
        h = float(h_of_L(L))
        n_L = int(n_L_of_L(L))
        # the model lives on the raw scale, so the lab skips daily-max rescaling
        cfg = PredictorConfig(
            reference=ReferenceConfig(n_L_by_group={g: n_L for g in DayGroup}),
            kernel=KernelSpec(kernel_kind, h),
            rescale=False,
        )
        # keep the predicted day on the template's starting weekday
        offset = (-L) % 7
        start = template.start + dt.timedelta(days=offset)
        for rep in range(replications):
            for attempt in range(_RETRIES + 1):
                seed = tuple(base_seed) + (L, rep, attempt)
                spec = replace(template, length=L + 1, seed=seed, start=start)
                window, clean = generate(spec)
                forecast = TemperatureSegment(spec.grid, window.temps[L])
                try:
                    pred = predict_day(window.prefix(L), window.meta(L), forecast, cfg=cfg)
                except (EmptyCandidateError, MissingTemperatureError):
                    continue
                predicted = pred.shape.values
                ref_values = pred.reference.reference.values
                rows.append(
                    ExperimentRow(
                        L=L,
                        replication=rep,
                        err_pred=distance(predicted, clean[L], dist),
                        err_ref=distance(ref_values, clean[L], dist),
                        err_pred_ref=distance(predicted, ref_values, dist),
                        h=h,
                        n_L=n_L,
                        c_star_size=len(pred.reference.c_star),
                    )
                )
                break
            else:
                raise ShapecastError(
                    f"L={L} rep={rep}: degenerate candidate sets after "
                    f"{_RETRIES} retries"
                )
    return rows


def experiment_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([f.name for f in fields(ExperimentRow)])
    writer.writerows(astuple(r) for r in rows)
    return buf.getvalue()
