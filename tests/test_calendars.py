import datetime as dt

import pytest

from shapecast.calendars import DayGroup, annotate_calendar, parse_holiday_file
from shapecast.errors import IngestError
from shapecast.history import record_from_dict
from shapecast.segments import TimeGrid

# one week starting Monday 2010-06-07
WEEK = {
    dt.date(2010, 6, 7): ("Mon", DayGroup.G1),
    dt.date(2010, 6, 8): ("Tue", DayGroup.G1),
    dt.date(2010, 6, 9): ("Wed", DayGroup.G2),
    dt.date(2010, 6, 10): ("Thu", DayGroup.G1),
    dt.date(2010, 6, 11): ("Fri", DayGroup.G1),
    dt.date(2010, 6, 12): ("Sat", DayGroup.G3),
    dt.date(2010, 6, 13): ("Sun", DayGroup.G4),
}


@pytest.mark.parametrize("date,expected", WEEK.items())
def test_weekday_groups(date, expected):
    weekday, group = expected
    assert date.strftime("%a") == weekday  # the table is labelled right
    meta = annotate_calendar(date)
    assert meta.group is group
    assert not meta.is_holiday


@pytest.mark.parametrize("date", WEEK)
def test_holiday_overrides_every_weekday(date):
    meta = annotate_calendar(date, {date})
    assert meta.is_holiday
    assert meta.group is DayGroup.HOLIDAY


def test_saturday_not_holiday_is_g3():
    assert annotate_calendar(dt.date(2010, 6, 12)).group is DayGroup.G3


def test_weekday_computed_not_trusted():
    # 12 Jan 2010 was a Tuesday, so a G1 day whatever a history file says
    record = record_from_dict(
        {"date": "2010-01-12", "group": "G4", "quality": "complete",
         "load_mw": [1.0, 2.0, 3.0, 4.0]},
        TimeGrid.equidistant(4),
    )
    assert record.meta.group is DayGroup.G1


class TestHolidayFile:
    def test_parse_with_comments(self):
        text = "# new year\n2010-01-01\n\n2010-04-02  # good friday\n"
        holidays = parse_holiday_file(text)
        assert holidays == {dt.date(2010, 1, 1), dt.date(2010, 4, 2)}

    def test_bad_date_names_line(self):
        with pytest.raises(IngestError, match="line 2"):
            parse_holiday_file("2010-01-01\nnot-a-date\n")

    def test_empty_file(self):
        assert parse_holiday_file("") == frozenset()
