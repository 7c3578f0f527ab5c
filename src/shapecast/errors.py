"""Exception hierarchy shared across the package, and its whole- and real-number checks."""

import math
import numbers
import operator


class ShapecastError(Exception):
    """Base class for all domain errors raised by this package."""


class GridMismatchError(ShapecastError):
    """Vectors or segments do not live on the same grid / length."""


class IngestError(ShapecastError):
    """Raw input file could not be parsed or violates its schema."""


class EmptyCandidateError(ShapecastError):
    """No candidate day matched the target group within the lookback window."""


class MissingTemperatureError(ShapecastError):
    """A candidate lacks temperature data on the comparison mask."""


class InsufficientHistoryError(ShapecastError):
    """Not enough history for the requested operation."""


def whole(value, name: str, least: int | None = None) -> int:
    """`value` as an int of at least `least`; a bool, or what `operator.index` refuses, is not."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise ShapecastError(f"{name} {value!r} is not a whole number")
    if least is not None and value < least:
        raise ShapecastError(f"{name} {value} is below {least}")
    return operator.index(value)


def finite(value, name: str, positive: bool = True) -> float:
    """`value` as a float, finite and above 0 (or, if not `positive`, at least 0); a bool,
    a non-real or a number beyond the floats raises "`name` must be positive and finite"."""
    try:
        x = float(value) if isinstance(value, numbers.Real) else math.nan
    except OverflowError:
        x = math.nan
    if isinstance(value, bool) or not (0 < x < math.inf or x == 0 and not positive):
        sign = "positive" if positive else "nonnegative"
        raise ShapecastError(f"{name} must be {sign} and finite")
    return x
