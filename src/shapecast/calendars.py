"""Calendar metadata: weekday groups and holiday handling.

Days are grouped by shape-alike behaviour: Mon/Tue/Thu/Fri together, Wednesday
on its own, Saturday on its own, Sunday on its own, and holidays in a separate
group. Weekday is always computed from the date itself.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from enum import Enum

from .errors import IngestError


class DayGroup(str, Enum):
    G1 = "G1"  # Mon, Tue, Thu, Fri
    G2 = "G2"  # Wed
    G3 = "G3"  # Sat
    G4 = "G4"  # Sun
    HOLIDAY = "HOLIDAY"


_GROUP_BY_WEEKDAY = {
    0: DayGroup.G1,
    1: DayGroup.G1,
    2: DayGroup.G2,
    3: DayGroup.G1,
    4: DayGroup.G1,
    5: DayGroup.G3,
    6: DayGroup.G4,
}


@dataclass(frozen=True)
class CalendarMeta:
    date: dt.date
    is_holiday: bool
    group: DayGroup


def annotate_calendar(date: dt.date, holiday_set=frozenset()) -> CalendarMeta:
    """Resolve the day group of a date from its weekday; holidays override it."""
    is_holiday = date in holiday_set
    group = DayGroup.HOLIDAY if is_holiday else _GROUP_BY_WEEKDAY[date.weekday()]
    return CalendarMeta(date, is_holiday, group)


def parse_date_lines(text: str, source: str) -> list[dt.date]:
    """One ISO date per line, in file order; blank lines and '#' comments allowed."""
    dates = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            dates.append(dt.date.fromisoformat(line))
        except ValueError as exc:
            raise IngestError(f"{source} line {lineno}: bad date {line!r}") from exc
    return dates


def parse_holiday_file(text: str) -> frozenset[dt.date]:
    """One ISO date per line; blank lines and '#' comments allowed."""
    return frozenset(parse_date_lines(text, "holiday file"))
