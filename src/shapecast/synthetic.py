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

from .calendars import GROUPS, DayGroup, group_codes
from .errors import ShapecastError
from .history import HistoryWindow, _refuse_bad_day
from .predictor import KernelKind, KernelSpec, _kernel_weights, _report, predict_shape
from .reference import DeltaRule
from .segments import TimeGrid, distances

_VALUE_FLOOR = 1e-9


def _f1(u: np.ndarray) -> np.ndarray:
    return 0.5 + 0.4 * np.sin(np.pi * u / 40.0) + 0.1 * u / 40.0


def _f2(u: np.ndarray) -> np.ndarray:
    return 0.6 + 0.3 * np.cos(np.pi * u / 40.0)


# each group's pointwise temperature-to-load map, which `_paths` clips to
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
    seed: object = 0  # nonnegative int or ints, held as the seed sequence's entropy tuple
    start: dt.date = dt.date(2007, 1, 1)  # a Monday
    profile_mode: str = "random"  # "random" | "cycle"

    def __post_init__(self) -> None:
        seed = tuple(self.seed) if isinstance(self.seed, (tuple, list)) else (self.seed,)
        object.__setattr__(self, "seed", tuple(_count(s, "seed", least=0) for s in seed))
        object.__setattr__(self, "length", _count(self.length, "length"))
        if self.length > (dt.date.max - self.start).days + 1:
            raise ShapecastError(f"length {self.length} from {self.start} runs past {dt.date.max}")
        if not (0 <= self.noise_sigma < math.inf and 0 <= self.jitter_sigma < math.inf):  # NaN too
            raise ShapecastError("sigmas must be nonnegative and finite")
        if self.profile_mode not in ("random", "cycle"):
            raise ShapecastError("profile_mode must be 'random' or 'cycle'")


def _paths(spec: SyntheticSpec, seeds):
    """The calendar's dates and group codes, and `generate`'s (loads, temps, clean) per seed.

    The dates, group codes, temperature pool and a day mask per distinct shape
    function are laid out once; the paths are drawn lazily, each shape function
    once per path. A path's streams are `generate`'s, so a longer path extends a shorter one.
    """
    L, P = spec.length, spec.grid.points_per_day
    dates = tuple((np.datetime64(spec.start, "D") + np.arange(L)).tolist())
    pool = default_temperature_pool(spec.grid)
    codes, days = group_codes(dates, False), {}
    for code, group in enumerate(GROUPS):  # groups that share a function share its mask
        fn = SHAPE_FUNCTIONS[group]
        days[fn] = days.get(fn, False) | (codes == code)

    def draw():
        for seed in seeds:
            streams = np.random.SeedSequence(seed).spawn(3)
            profile_rng, jitter_rng, noise_rng = map(np.random.default_rng, streams)
            profile = (profile_rng.integers(len(pool), size=L) if spec.profile_mode == "random"
                       else np.arange(L) % len(pool))
            jitter = jitter_rng.standard_normal((L, P)) if spec.jitter_sigma > 0 else 0.0
            noise = noise_rng.standard_normal((L, P)) if spec.noise_sigma > 0 else 0.0
            clean = np.empty((L, P))
            # a huge sigma overflows to inf or nan here; `_refuse_bad_day` refuses it
            with np.errstate(over="ignore", invalid="ignore"):
                temps = pool[profile] + spec.jitter_sigma * jitter
                for fn, rows in days.items():
                    clean[rows] = np.clip(fn(temps[rows]), _VALUE_FLOOR, 1.0)
                loads = np.maximum(clean + spec.noise_sigma * noise, _VALUE_FLOOR)
            yield loads, temps, clean

    return dates, codes, draw()


def generate(spec: SyntheticSpec) -> tuple[HistoryWindow, np.ndarray]:
    """Deterministic sample path plus its L x P noiseless loads.

    The seed spawns one stream per random quantity: the profile indices
    (random mode), the temperature jitter and the load noise, each drawn as
    one array and only when it is used. Day n's draws therefore depend neither
    on the length nor on the other sigma: a longer path extends a shorter one.
    """
    dates, _, draws = _paths(spec, [spec.seed])
    loads, temps, clean = next(draws)
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


def _count(value, name: str, least: int = 1) -> int:
    """`value` as an int of at least `least`; a bool, or what `operator.index` refuses, is not."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise ShapecastError(f"{name} {value!r} is not a whole number")
    if value < least:
        raise ShapecastError(f"{name} {value} is below {least}")
    return operator.index(value)


def consistency_experiment(
    template: SyntheticSpec, lengths, replications: int, *, h_coef: float = 0.6
) -> Experiment:
    """Predict one target day from the L days before it, over growing L.

    Replication r draws one path of max(L) + 1 days with seed (*seed, r), and
    every L predicts its last day, on the template's starting weekday, from
    the L days before it: the lengths share target and noise (common random
    numbers), so the decay over L is measured on paired samples. Each L's
    reference averages the raw loads of the target-group days among the last
    `default_n_L_schedule(L)` nearest the target's temperature (`DeltaRule()`,
    δ = min); a Gaussian kernel at `default_h_schedule(L, h_coef)` weighs the L
    days against it. A noiseless template is the exact-recovery setup instead:
    zero jitter and cycling profiles, and an Epanechnikov kernel at h = 1e-6
    with every past day a candidate, which keeps weight on exact shape matches
    only. A length whose lookback holds no day of the target's group fails the
    run before any path is drawn. A bool, non-integer or count below 1 fails first.
    """
    lengths = [_count(L, "length") for L in lengths]
    replications = _count(replications, "replications")
    if not lengths:
        raise ShapecastError("need at least one length")
    if any(b <= a for a, b in zip(lengths, lengths[1:])):
        raise ShapecastError("lengths must be strictly increasing")
    if template.noise_sigma == 0:
        template = replace(template, jitter_sigma=0.0, profile_mode="cycle")
        n_Ls, kernels = lengths, [KernelSpec(KernelKind.EPANECHNIKOV, 1e-6)] * len(lengths)
    else:  # a bad h_coef fails here, before any candidate is looked for
        n_Ls = [default_n_L_schedule(L) for L in lengths]
        kernels = [KernelSpec(KernelKind.GAUSSIAN, default_h_schedule(L, h_coef)) for L in lengths]
    T = lengths[-1]
    path = replace(template, length=T + 1, start=template.start + dt.timedelta(days=(-T) % 7))
    _, codes, draws = _paths(path, [(*template.seed, rep) for rep in range(replications)])
    # the calendar alone sets each length's candidates, before any path is drawn:
    # the target-group days among the last n_L <= L (the calendar has no holidays)
    candidates = [T - n + np.flatnonzero(codes[T - n:T] == codes[T]) for n in n_Ls]
    for L, rows in zip(lengths, candidates):
        if not len(rows):
            raise ShapecastError(f"L={L}: no usable candidate for group {GROUPS[codes[T]].value}")
    rule = DeltaRule()  # the predictor's default, δ = min
    errors = np.empty((len(lengths), replications, len(ERROR_NAMES)))
    c_star_size = np.empty((len(lengths), replications), dtype=int)
    for rep, (loads, temps, clean) in enumerate(draws):
        _refuse_bad_day(loads, temps)
        temp_dists = distances(temps[:T], temps[T])  # to the target's realized temperature
        for k, (L, kernel, rows) in enumerate(zip(lengths, kernels, candidates)):
            # the reference averages the candidates nearest in temperature
            near = temp_dists[rows]
            chosen = rows[near <= rule.threshold(near)]
            ref, prior = loads[chosen].mean(axis=0), loads[T - L:T]
            # the model lives on the raw scale, so the lab weighs raw loads
            weights, *fallbacks = _kernel_weights(
                distances(prior, ref), kernel.kind, kernel.bandwidth)
            _report((), *fallbacks, stacklevel=2)
            predicted = predict_shape(prior, weights)
            errors[k, rep] = distances([predicted, ref, predicted], [clean[T], clean[T], ref])
            c_star_size[k, rep] = len(chosen)
    h = tuple(kernel.bandwidth for kernel in kernels)
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
