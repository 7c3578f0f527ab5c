"""Calendar metadata: weekday groups and holiday handling.

Days are grouped by shape-alike behaviour: Mon/Tue/Thu/Fri together, Wednesday
on its own, Saturday on its own, Sunday on its own, and holidays in a separate
group. Weekday is always computed from the date itself.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import IngestError


class DayGroup(str, Enum):
    G1 = "G1"  # Mon, Tue, Thu, Fri
    G2 = "G2"  # Wed
    G3 = "G3"  # Sat
    G4 = "G4"  # Sun
    HOLIDAY = "HOLIDAY"


GROUPS = tuple(DayGroup)  # a day's group code is its group's index here
_CODE_BY_WEEKDAY = np.array([GROUPS.index(g) for g in (
    DayGroup.G1, DayGroup.G1, DayGroup.G2, DayGroup.G1,  # Mon-Thu
    DayGroup.G1, DayGroup.G3, DayGroup.G4,  # Fri-Sun
)])


@dataclass(frozen=True)
class CalendarMeta:
    date: dt.date
    is_holiday: bool
    group: DayGroup


def group_codes(dates, is_holiday) -> np.ndarray:
    """Group code of every date: its weekday's group, HOLIDAY where `is_holiday`."""
    weekdays = np.array([d.weekday() for d in dates], dtype=int)
    return np.where(is_holiday, GROUPS.index(DayGroup.HOLIDAY), _CODE_BY_WEEKDAY[weekdays])


def annotate_calendar(date: dt.date, holiday_set=frozenset()) -> CalendarMeta:
    """Resolve the day group of a date from its weekday; holidays override it."""
    is_holiday = date in holiday_set
    return CalendarMeta(date, is_holiday, GROUPS[group_codes([date], is_holiday)[0]])


def parse_date_lines(text: str, source: str, unique: bool = False) -> list[dt.date]:
    """One ISO date per line, in file order; blank lines and '#' comments allowed.

    With `unique`, a date listed twice is an error naming its second line.
    """
    dates, seen = [], set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            date = dt.date.fromisoformat(line)
        except ValueError as exc:
            raise IngestError(f"{source} line {lineno}: bad date {line!r}") from exc
        if unique and date in seen:
            raise IngestError(f"{source} line {lineno}: duplicate date {date.isoformat()}")
        seen.add(date)
        dates.append(date)
    return dates


def parse_holiday_file(text: str) -> frozenset[dt.date]:
    """One ISO date per line; blank lines and '#' comments allowed."""
    return frozenset(parse_date_lines(text, "holiday file"))
