"""Synthetic data generator and the Monte Carlo consistency experiment.

Days are drawn from a group-dependent shape model: each day's load is a fixed
pointwise function of its temperature curve, chosen by the day's calendar
group, plus i.i.d. Gaussian noise. Temperatures come from a small pool of
profiles with optional per-day jitter, which makes noiseless exact-recovery
constructions possible. The experiment predicts the last day of each sample
path from the L days before it at growing L and tables, per (L, replication),
how far the prediction (and the reference segment) land from the clean shape.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from .calendars import _CODE_BY_WEEKDAY, GROUPS, DayGroup
from .errors import EmptyCandidateError, ShapecastError
from .history import HistoryWindow
from .predictor import KernelKind, KernelSpec, PredictorConfig, predict_day
from .reference import ReferenceConfig
from .segments import TemperatureSegment, TimeGrid, distances

_VALUE_FLOOR = 1e-9


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


def default_temperature_pool(grid: TimeGrid) -> np.ndarray:
    """Five smooth, clearly distinct daily temperature profiles (rows) in roughly 8-36 C."""
    x = np.linspace(0.0, 1.0, grid.points_per_day, endpoint=False)
    k = np.arange(5.0)[:, None]
    return (12.0 + 5.0 * k) + (4.0 + 0.8 * k) * np.sin(2.0 * np.pi * (x - 0.3 - 0.15 * k))


@dataclass(frozen=True)
class SyntheticSpec:
    grid: TimeGrid
    length: int
    noise_sigma: float = 0.05
    jitter_sigma: float = 0.5
    seed: object = 0  # int or tuple of ints, held as the seed sequence's entropy tuple
    start: dt.date = dt.date(2007, 1, 1)  # a Monday
    profile_mode: str = "random"  # "random" | "cycle"

    def __post_init__(self) -> None:
        seed = tuple(self.seed) if isinstance(self.seed, (tuple, list)) else (self.seed,)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "length", _count(self.length, "length"))
        if self.length > (dt.date.max - self.start).days + 1:
            raise ShapecastError(f"length {self.length} from {self.start} runs past {dt.date.max}")
        if not (self.noise_sigma >= 0 and self.jitter_sigma >= 0):  # NaN fails too
            raise ShapecastError("sigmas must be nonnegative")
        if self.profile_mode not in ("random", "cycle"):
            raise ShapecastError("profile_mode must be 'random' or 'cycle'")


def generate(spec: SyntheticSpec) -> tuple[HistoryWindow, np.ndarray]:
    """Deterministic sample path plus its L x P noiseless loads.

    The seed spawns one stream per random quantity: the profile indices
    (random mode), the temperature jitter and the load noise, each drawn as
    one array and only when it is used. Day n's draws therefore depend neither
    on the length nor on the other sigma: a longer path extends a shorter one.
    """
    L, P = spec.length, spec.grid.points_per_day
    dates = tuple((np.datetime64(spec.start, "D") + np.arange(L)).tolist())
    pool = default_temperature_pool(spec.grid)
    streams = np.random.SeedSequence(spec.seed).spawn(3)
    profile_rng, jitter_rng, noise_rng = map(np.random.default_rng, streams)
    if spec.profile_mode == "random":
        profile = profile_rng.integers(len(pool), size=L)
    else:
        profile = np.arange(L) % len(pool)
    jitter = jitter_rng.standard_normal((L, P)) if spec.jitter_sigma > 0 else 0.0
    noise = noise_rng.standard_normal((L, P)) if spec.noise_sigma > 0 else 0.0
    codes = _CODE_BY_WEEKDAY[(spec.start.weekday() + np.arange(L)) % 7]
    clean = np.empty((L, P))
    # a huge sigma overflows to inf or nan here; the window below refuses it
    with np.errstate(over="ignore", invalid="ignore"):
        temps = pool[profile] + spec.jitter_sigma * jitter
        for code, group in enumerate(GROUPS):
            rows = codes == code
            clean[rows] = np.clip(SHAPE_FUNCTIONS[group](temps[rows]), _VALUE_FLOOR, 1.0)
        loads = np.maximum(clean + spec.noise_sigma * noise, _VALUE_FLOOR)
    return HistoryWindow(spec.grid, dates, loads, temps), clean


ERROR_NAMES = ("err_pred", "err_ref", "err_pred_ref")


@dataclass(frozen=True)
class Experiment:
    """The lab's lengths x replications table; a replication is one path at every L."""

    lengths: tuple[int, ...]  # K of them
    h: tuple[float, ...]  # each length's bandwidth
    n_L: tuple[int, ...]  # and candidate window
    errors: np.ndarray  # K x R x 3, in `ERROR_NAMES` order
    c_star_size: np.ndarray  # K x R


def default_h_schedule(L: int, coef: float = 0.6) -> float:
    return coef * L ** (-1.0 / 5.0)


def default_n_L_schedule(L: int) -> int:
    return math.ceil(L ** (2.0 / 3.0))


def _count(value, name: str) -> int:
    """`value` as an int of at least 1; a bool, or what `operator.index` refuses, is not."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise ShapecastError(f"{name} {value!r} is not a whole number")
    if value < 1:
        raise ShapecastError(f"{name} {value} is below 1")
    return operator.index(value)


def consistency_experiment(
    template: SyntheticSpec, lengths, replications: int, *, h_coef: float = 0.6
) -> Experiment:
    """Predict one target day from the L days before it, over growing L.

    Replication r draws one path of max(L) + 1 days with seed (*seed, r), and
    every L predicts its last day, on the template's starting weekday, from
    the L days before it: the lengths share target and noise (common random
    numbers), so the decay over L is measured on paired samples. A Gaussian
    kernel at `default_h_schedule(L, h_coef)` weighs `default_n_L_schedule(L)`
    candidates. A noiseless template is the exact-recovery setup instead:
    zero jitter and cycling profiles, and an Epanechnikov kernel at h = 1e-6
    with every past day a candidate, which keeps weight on exact shape
    matches only. A length whose lookback holds no day of the target's group
    fails the run, whatever the seed. A bool, non-integer or count below 1 fails first.
    """
    lengths = [_count(L, "length") for L in lengths]
    replications = _count(replications, "replications")
    if not lengths:
        raise ShapecastError("need at least one length")
    if any(b <= a for a, b in zip(lengths, lengths[1:])):
        raise ShapecastError("lengths must be strictly increasing")
    noiseless = template.noise_sigma == 0
    if noiseless:
        template = replace(template, jitter_sigma=0.0, profile_mode="cycle")
    T = lengths[-1]
    path = replace(template, length=T + 1, start=template.start + dt.timedelta(days=(-T) % 7))
    n_Ls, configs = [], []
    for L in lengths:
        if noiseless:
            n_L, kernel = L, KernelSpec(KernelKind.EPANECHNIKOV, 1e-6)
        else:
            n_L = default_n_L_schedule(L)
            kernel = KernelSpec(KernelKind.GAUSSIAN, default_h_schedule(L, h_coef))
        n_Ls.append(n_L)
        # the model lives on the raw scale, so the lab skips daily-max rescaling
        configs.append(PredictorConfig(
            reference=ReferenceConfig(n_L_by_group={g: n_L for g in DayGroup}),
            kernel=kernel,
            rescale=False,
        ))
    errors = np.empty((len(lengths), replications, len(ERROR_NAMES)))
    c_star_size = np.empty((len(lengths), replications), dtype=int)
    for rep in range(replications):
        window, clean = generate(replace(path, seed=(*template.seed, rep)))
        forecast = TemperatureSegment(path.grid, window.temps[T])
        for k, (L, cfg) in enumerate(zip(lengths, configs)):
            try:
                pred = predict_day(window.span(T - L, T), window.meta(T), forecast, cfg=cfg)
            except EmptyCandidateError as exc:
                raise ShapecastError(f"L={L}: {exc}") from None
            predicted, ref = pred.shape, pred.reference.reference
            errors[k, rep] = distances([predicted, ref, predicted], [clean[T], clean[T], ref])
            c_star_size[k, rep] = len(pred.reference.c_star)
    h = tuple(cfg.kernel.bandwidth for cfg in configs)
    return Experiment(tuple(lengths), h, tuple(n_Ls), errors, c_star_size)


def experiment_csv(run: Experiment) -> str:
    """One row per (L, replication), in that order, each number as its `repr`."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("L", "replication", *ERROR_NAMES, "h", "n_L", "c_star_size"))
    by_length = zip(run.lengths, run.h, run.n_L, run.errors.tolist(), run.c_star_size.tolist())
    for L, h, n_L, errors, sizes in by_length:
        for rep, (errs, size) in enumerate(zip(errors, sizes)):
            writer.writerow((L, rep, *errs, h, n_L, size))
    return buf.getvalue()
