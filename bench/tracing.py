"""Tracing for shapecast from outside the program: wrap its public functions.

The tracer replaces each listed function with a wrapper in *every*
``shapecast.*`` module that binds it, because many modules import functions
by name (``from .predictor import predict_day``) and would otherwise call the
unwrapped original. Spans are kept in memory and written out at the end.
Hot leaf functions are only counted, since a span per call would cost more
than the call itself.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import dataclass

import numpy as np

# Public functions that get a span, as "<module>.<qualname>" under shapecast.
SPANNED = (
    "ingest.parse_load_file",
    "ingest.parse_temperature_history",
    "ingest.segmentize",
    "ingest.attach_temperature_history",
    "ingest.parse_temperature_forecast",
    "history.read_history_jsonl",
    "history.history_jsonl_text",
    "history.shape_matrix",
    "history.HistoryWindow.before",
    "reference.candidate_set",
    "reference.select_reference",
    "predictor.predict_day",
    "predictor.compute_weights",
    "predictor.predict_shape",
    "predictor.default_bandwidth_grid",
    "predictor.select_bandwidth",
    "predictor.prediction_to_json",
    "baselines.predict_persistence",
    "baselines.predict_conditional_kernel",
    "metrics.score_day",
    "backtest.backtest",
    "backtest.emit_report",
    "backtest.emit_day_curves",
    "synthetic.generate",
    "synthetic.consistency_experiment",
)

# Hot leaves: counted, no span.
COUNTED = (
    "segments.distance",
    "segments.rescale_day",
    "calendars.annotate_calendar",
)

# The benchmark opens this span itself around every cli.main call.
ROOT = "cli.main"

_INGEST_PARSERS = ("ingest.parse_load_file", "ingest.parse_temperature_history")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    command: int  # index into Tracer.commands


def _resolve(dotted: str):
    """(owner object, attribute name, original) or None when the name is gone."""
    parts = dotted.split(".")
    module = sys.modules.get(f"shapecast.{parts[0]}")
    if module is None:
        return None
    owner = module
    for part in parts[1:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = getattr(owner, parts[-1], None)
    if not callable(original):
        return None
    return owner, parts[-1], original


class Tracer:
    """Spans and counters for one traced pass of a workload."""

    def __init__(self, spanned=SPANNED, counted=COUNTED) -> None:
        self.spanned, self.counted = spanned, counted
        self.spans: list[Span] = []
        self.commands: list[str] = []
        self.counts: dict[str, int] = {name: 0 for name in counted}
        self.missing: list[str] = []
        self.rows_parsed = 0
        self.shape_rows = 0
        self._shape_days: set[bytes] = set()  # row contents, one per distinct day
        self._shape_days_total = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent,
                               len(self.commands) - 1))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def _innermost(self) -> str | None:
        return self.spans[self._stack[-1]].name if self._stack else None

    def command(self, label: str, fn, *args):
        """Run one CLI invocation under a root span labelled `label`."""
        self._end_command_days()
        self.commands.append(label)
        idx = self._open(ROOT)
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def _end_command_days(self) -> None:
        # distinct days are counted per command: each reads its own history
        self._shape_days_total += len(self._shape_days)
        self._shape_days.clear()

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        tracer = self
        if name in _INGEST_PARSERS:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = tracer._open(name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    tracer._close(idx)
                tracer.rows_parsed += len(out)
                return out
            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)
        return wrapper

    def _count_wrapper(self, name: str, fn):
        tracer = self
        counts = self.counts
        if name == "segments.rescale_day":
            @functools.wraps(fn)
            def wrapper(seg, *args, **kwargs):
                counts[name] += 1
                if tracer._innermost() == "history.shape_matrix":
                    tracer.shape_rows += 1
                    values = getattr(seg, "values", seg)
                    tracer._shape_days.add(np.asarray(values).tobytes())
                return fn(seg, *args, **kwargs)
            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        """Wrap every listed name; a name that no longer exists is recorded."""
        for names, make in ((self.spanned, self._span_wrapper),
                            (self.counted, self._count_wrapper)):
            for name in names:
                found = _resolve(name)
                if found is None:
                    self.missing.append(name)
                    continue
                owner, attr, original = found
                wrapper = make(name, original)
                if isinstance(owner, type):
                    self._patch(owner, attr, wrapper)
                    continue
                for mod_name, module in list(sys.modules.items()):
                    if mod_name != "shapecast" and not mod_name.startswith("shapecast."):
                        continue
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "parent": s.parent,
                    "command": self.commands[s.command],
                }) + "\n")

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s (outermost spans only) and self_s."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child_time[s.parent] += s.end - s.start
        stats = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
                 for name in (ROOT, *self.spanned)}
        for i, s in enumerate(self.spans):
            st = stats[s.name]
            dur = s.end - s.start
            st["calls"] += 1
            st["self_s"] += dur - child_time[i]
            if not self._has_ancestor(i, s.name):
                st["total_s"] += dur
        return stats

    def _has_ancestor(self, i: int, name: str) -> bool:
        p = self.spans[i].parent
        while p >= 0:
            if self.spans[p].name == name:
                return True
            p = self.spans[p].parent
        return False

    def pipelines_per_cv(self) -> float:
        """predict_day calls under one select_bandwidth call, averaged."""
        cv = [i for i, s in enumerate(self.spans) if s.name == "predictor.select_bandwidth"]
        if not cv:
            return 0.0
        under = sum(
            1 for i, s in enumerate(self.spans)
            if s.name == "predictor.predict_day"
            and self._has_ancestor(i, "predictor.select_bandwidth")
        )
        return under / len(cv)

    def command_time(self, label: str) -> float:
        return sum(s.end - s.start for s in self.spans
                   if s.parent < 0 and self.commands[s.command] == label)

    def metrics(self, overhead_s: float, overhead_ratio: float) -> dict[str, tuple[float, str]]:
        """Flat per-layer metrics, name -> (value, unit)."""
        self._end_command_days()
        out: dict[str, tuple[float, str]] = {}
        stats = self.layer_stats()
        for name, st in stats.items():
            out[f"{name}.calls"] = (st["calls"], "count")
            out[f"{name}.total_s"] = (st["total_s"], "s")
            out[f"{name}.self_s"] = (st["self_s"], "s")
        for name in self.counted:
            out[f"{name}.calls"] = (self.counts[name], "count")
        out["history.shape_matrix.rows_rescaled"] = (self.shape_rows, "count")
        # 1.0 when shape_matrix rescaled nothing: no row was rebuilt twice
        ratio = self._shape_days_total / self.shape_rows if self.shape_rows else 1.0
        out["history.shape_rows_unique_ratio"] = (ratio, "ratio")
        out["predictor.select_bandwidth.pipelines"] = (self.pipelines_per_cv(), "count")
        ingest_s = self.command_time("ingest")
        out["ingest.rows_per_s"] = (self.rows_parsed / ingest_s if ingest_s else 0.0, "1/s")
        out["trace.overhead_s"] = (overhead_s, "s")
        out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
        out["trace.missing_names"] = (len(self.missing), "count")
        return out
