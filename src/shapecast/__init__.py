"""Short-term load forecasting via similar-shape kernel prediction."""

from .calendars import CalendarMeta, DayGroup, annotate_calendar
from .errors import ShapecastError
from .history import DailyRecord, HistoryWindow, Quality
from .predictor import (
    KernelKind,
    KernelSpec,
    Prediction,
    PredictorConfig,
    compute_weights,
    predict_day,
    predict_shape,
    select_bandwidth,
)
from .reference import ReferenceConfig, ReferenceResult, candidate_set, select_reference
from .segments import (
    DistanceKind,
    DistanceSpec,
    LoadSegment,
    TemperatureSegment,
    TimeGrid,
    distance,
    rescale_day,
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
    "compute_weights",
    "predict_day",
    "predict_shape",
    "select_bandwidth",
    "ReferenceConfig",
    "ReferenceResult",
    "candidate_set",
    "select_reference",
    "DistanceKind",
    "DistanceSpec",
    "LoadSegment",
    "TemperatureSegment",
    "TimeGrid",
    "distance",
    "rescale_day",
]
