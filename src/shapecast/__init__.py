"""Short-term load forecasting via similar-shape kernel prediction."""

from .calendars import CalendarMeta, DayGroup, annotate_calendar
from .errors import ShapecastError
from .history import DailyRecord, HistoryWindow, Quality
from .predictor import (
    KernelKind,
    KernelSpec,
    Prediction,
    PredictorConfig,
    predict_day,
    predict_shape,
    select_bandwidth,
)
from .reference import ReferenceConfig, ReferenceResult, candidate_set, select_reference
from .segments import (
    DistanceKind,
    LoadSegment,
    TemperatureSegment,
    TimeGrid,
)

__all__ = [
    "CalendarMeta",
    "DayGroup",
    "annotate_calendar",
    "ShapecastError",
    "DailyRecord",
    "HistoryWindow",
    "Quality",
    "KernelKind",
    "KernelSpec",
    "Prediction",
    "PredictorConfig",
    "predict_day",
    "predict_shape",
    "select_bandwidth",
    "ReferenceConfig",
    "ReferenceResult",
    "candidate_set",
    "select_reference",
    "DistanceKind",
    "LoadSegment",
    "TemperatureSegment",
    "TimeGrid",
]
