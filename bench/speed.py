"""Elapsed time rescaled to a fixed machine speed.

On a shared host the same work can take 1.6x longer from one second to the
next, as another tenant comes and goes on the same physical core; the
program's time and that of any fixed piece of code slow down together.
``measure`` therefore times a call twice over: plain wall-clock seconds, and
"scaled" seconds, where every stretch of the call is weighted by how fast a
fixed pure-Python reference loop ran at its two ends. A timer signal runs the
reference every ``INTERVAL_S`` in the measured thread itself (no extra thread
or process); the time spent in the reference is excluded from both figures.

Scaled seconds are seconds at the speed where one reference loop takes
``REF_NOMINAL_S``. They move with the program's own work and hardly with the
host's load, which is what a regression gate needs. The module imports
only ``signal`` and ``time``, so it can time a cold ``import shapecast.cli``
without loading anything that import would load.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.05
# One reference loop, run between stretches of program code, at the speed
# scaled seconds refer to: about the fastest the 2-vCPU Xeon of baseline.json
# ran it. Only the unit depends on it.
REF_NOMINAL_S = 1.3e-4


def _reference_loop() -> float:
    # interpreter-bound like the program: arithmetic, dict and list traffic, calls
    table: dict[int, float] = {}
    acc = 0.0
    items = []
    for i in range(300):
        key = i & 31
        table[key] = table.get(key, 0.0) + i * 0.5
        items.append(abs(i - 150))
        acc += max(items[-1], 3) * 0.25
    return acc + len(table) + sum(items)


def _time_reference() -> float:
    t0 = time.perf_counter()
    _reference_loop()
    return time.perf_counter() - t0


class Timing:
    """wall_s: elapsed seconds outside the reference loops; scaled_s: the same
    stretches rescaled to the nominal speed; samples: reference loops run
    while the call was going."""

    __slots__ = ("wall_s", "scaled_s", "samples")

    def __init__(self, wall_s: float, scaled_s: float, samples: int) -> None:
        self.wall_s, self.scaled_s, self.samples = wall_s, scaled_s, samples


def measure(fn, *args):
    """Call fn(*args); return (its result, Timing). Not reentrant."""
    marks: list[tuple[float, float, float]] = []  # (work end, reference time, work resume)

    def on_timer(signum, frame):
        stop = time.perf_counter()
        ref = _time_reference()
        marks.append((stop, ref, time.perf_counter()))

    ref_before = _time_reference()
    previous = signal.signal(signal.SIGALRM, on_timer)
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    try:
        result = fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        end = time.perf_counter()
        signal.signal(signal.SIGALRM, previous)
    ref_after = _time_reference()

    wall = scaled = 0.0
    resume, ref_prev = start, ref_before
    for stop, ref, next_resume in marks + [(end, ref_after, end)]:
        work = stop - resume
        wall += work
        scaled += work * REF_NOMINAL_S / (0.5 * (ref_prev + ref))
        resume, ref_prev = next_resume, ref
    return result, Timing(wall, scaled, len(marks))
