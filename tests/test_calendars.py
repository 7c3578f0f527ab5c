import datetime as dt

import numpy as np
import pytest

from shapecast.calendars import (
    GROUPS,
    DayGroup,
    annotate_calendar,
    group_codes,
    parse_date_lines,
    parse_holiday_file,
)
from shapecast.errors import IngestError
from shapecast.history import read_history_jsonl

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


def test_weekday_computed_not_trusted(tmp_path):
    # 12 Jan 2010 was a Tuesday, so a G1 day whatever a history file says
    path = tmp_path / "h.jsonl"
    path.write_text(
        '{"grid": ["00:00", "06:00", "12:00", "18:00"]}\n'
        '{"date": "2010-01-12", "group": "G4", "quality": "complete", '
        '"load_mw": [1.0, 2.0, 3.0, 4.0]}\n'
    )
    record = read_history_jsonl(path).records[0]
    assert record.meta.group is DayGroup.G1


@pytest.mark.parametrize("start", [
    dt.date(1, 1, 1), dt.date(1969, 12, 25), dt.date(2010, 6, 7), dt.date(9999, 12, 1),
])
def test_group_codes_match_annotate_calendar(start):
    dates = [start + dt.timedelta(days=n) for n in range(30)]
    holidays = {dates[3], dates[10], dates[29]}
    by_weekday = "G1 G1 G2 G1 G1 G3 G4".split()  # Monday first
    expected = [DayGroup.HOLIDAY if d in holidays else DayGroup(by_weekday[d.weekday()])
                for d in dates]
    codes = group_codes(dates, [d in holidays for d in dates])
    assert [GROUPS[c] for c in codes] == expected
    assert [annotate_calendar(d, holidays).group for d in dates] == expected


def test_group_codes_of_no_dates():
    assert group_codes((), np.zeros(0, dtype=bool)).shape == (0,)


class TestDateLines:
    def test_duplicates_allowed_by_default(self):
        assert parse_date_lines("2010-01-01\n2010-01-01\n", "f") == [
            dt.date(2010, 1, 1)
        ] * 2

    def test_unique_names_the_second_line(self):
        with pytest.raises(IngestError, match="^f line 4: duplicate date 2010-01-01$"):
            parse_date_lines("2010-01-01\n2010-01-02\n# again\n2010-01-01\n", "f",
                             unique=True)


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
