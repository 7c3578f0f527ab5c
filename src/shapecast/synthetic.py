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
from dataclasses import astuple, dataclass, field, fields, replace

import numpy as np

from .calendars import DayGroup, annotate_calendar
from .errors import EmptyCandidateError, MissingTemperatureError, ShapecastError
from .history import DailyRecord, HistoryWindow, Quality
from .predictor import KernelKind, KernelSpec, PredictorConfig, predict_day
from .reference import ReferenceConfig
from .segments import DistanceSpec, LoadSegment, TemperatureSegment, TimeGrid, distance

_VALUE_FLOOR = 1e-9


@dataclass(frozen=True)
class ShapeFunction:
    """Pointwise temperature-to-load map used by one set of day groups."""

    ident: str
    fn: object  # callable: np.ndarray of Celsius -> np.ndarray of load
    groups: frozenset

    def __call__(self, temps: np.ndarray) -> np.ndarray:
        return np.clip(self.fn(np.asarray(temps, dtype=float)), _VALUE_FLOOR, 1.0)


def default_shape_functions() -> tuple[ShapeFunction, ...]:
    f1 = ShapeFunction(
        "f1",
        lambda u: 0.5 + 0.4 * np.sin(np.pi * u / 40.0) + 0.1 * u / 40.0,
        frozenset({DayGroup.G1, DayGroup.G2, DayGroup.HOLIDAY}),
    )
    f2 = ShapeFunction(
        "f2",
        lambda u: 0.6 + 0.3 * np.cos(np.pi * u / 40.0),
        frozenset({DayGroup.G3, DayGroup.G4}),
    )
    return (f1, f2)


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
    shape_functions: tuple = field(default_factory=default_shape_functions)
    temperature_pool: tuple | None = None
    profile_mode: str = "random"  # "random" | "cycle"

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ShapecastError("length must be >= 1")
        if self.noise_sigma < 0 or self.jitter_sigma < 0:
            raise ShapecastError("sigmas must be nonnegative")
        if self.profile_mode not in ("random", "cycle"):
            raise ShapecastError("profile_mode must be 'random' or 'cycle'")
        if self.temperature_pool is None:
            object.__setattr__(
                self, "temperature_pool", default_temperature_pool(self.grid)
            )

    def shape_for(self, group: DayGroup) -> ShapeFunction:
        for sf in self.shape_functions:
            if group in sf.groups:
                return sf
        raise ShapecastError(f"no shape function covers group {group.value}")


@dataclass(frozen=True)
class DayTruth:
    date: dt.date
    shape_ident: str
    profile_index: int
    clean: np.ndarray  # noiseless load values
    temperature: TemperatureSegment


def _day_rng(seed, day_index: int) -> np.random.Generator:
    entropy = seed if isinstance(seed, (tuple, list)) else (seed,)
    ss = np.random.SeedSequence(entropy=list(entropy), spawn_key=(day_index,))
    return np.random.default_rng(ss)


def generate(spec: SyntheticSpec) -> tuple[HistoryWindow, list[DayTruth]]:
    """Deterministic sample path plus the per-day ground truth."""
    P = spec.grid.points_per_day
    full_mask = tuple(range(P))
    records, truths = [], []
    pool = spec.temperature_pool
    for n in range(spec.length):
        rng = _day_rng(spec.seed, n)
        date = spec.start + dt.timedelta(days=n)
        meta = annotate_calendar(date)
        if spec.profile_mode == "cycle":
            profile_index = n % len(pool)
        else:
            profile_index = int(rng.integers(len(pool)))
        temps = pool[profile_index].copy()
        if spec.jitter_sigma > 0:
            temps = temps + spec.jitter_sigma * rng.standard_normal(P)
        sf = spec.shape_for(meta.group)
        clean = sf(temps)
        values = clean
        if spec.noise_sigma > 0:
            values = clean + spec.noise_sigma * rng.standard_normal(P)
        values = np.maximum(values, _VALUE_FLOOR)
        temperature = TemperatureSegment(spec.grid, temps, full_mask)
        records.append(
            DailyRecord(meta, LoadSegment(spec.grid, values), temperature, Quality.COMPLETE)
        )
        truths.append(DayTruth(date, sf.ident, profile_index, clean, temperature))
    return HistoryWindow(tuple(records)), truths


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
    mode: str = "argmin",
    max_retries: int = 5,
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
            reference=ReferenceConfig(
                n_L_by_group={g: n_L for g in DayGroup}, mode=mode
            ),
            kernel=KernelSpec(kernel_kind, h),
            rescale=False,
        )
        # keep the predicted day on the template's starting weekday
        offset = (-L) % 7
        start = template.start + dt.timedelta(days=offset)
        for rep in range(replications):
            for attempt in range(max_retries + 1):
                seed = tuple(base_seed) + (L, rep, attempt)
                spec = replace(template, length=L + 1, seed=seed, start=start)
                window, truths = generate(spec)
                history = window.prefix(L)
                target_rec = window.records[L]
                truth = truths[L]
                try:
                    pred = predict_day(
                        history, target_rec.meta, truth.temperature, cfg=cfg
                    )
                except (EmptyCandidateError, MissingTemperatureError):
                    continue
                predicted = pred.shape.values
                ref_values = pred.reference.reference.values
                rows.append(
                    ExperimentRow(
                        L=L,
                        replication=rep,
                        err_pred=distance(predicted, truth.clean, dist),
                        err_ref=distance(ref_values, truth.clean, dist),
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
                    f"{max_retries} retries"
                )
    return rows


def experiment_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([f.name for f in fields(ExperimentRow)])
    writer.writerows(astuple(r) for r in rows)
    return buf.getvalue()
