"""Golden bytes of `shapecast ingest` on a small fixture that exercises every day kind.

The fixture holds a complete day, a gap-filled day, a rejected day, a day
without readings, a resampled (off-grid) day and a holiday, with full,
partial, off-grid and stray temperature readings. The digests pin the history
JSONL and the printed gap report, so any change to the day walk that moves a
single byte fails here. They were recorded from the earlier two-pass ingest
(load days first, temperatures attached in a second pass), which the one-walk
`segmentize` must reproduce byte for byte.
"""

import datetime as dt
import hashlib

from shapecast.cli import main

START = dt.date(2011, 2, 14)  # a Monday

HISTORY_SHA256 = "256d1b2d91d8fe3af6d428c7d1032b45b10ad8cf9dd2e91198b1c656c771bc19"
REPORT_SHA256 = "82e5ef95adb0ede25566c28706f920ee734c4d94ad37e4bfac8b4c50c8bc8e0b"


def _stamp(day: int, minute: int) -> str:
    date = START + dt.timedelta(days=day)
    return f"{date.isoformat()}T{minute // 60:02d}:{minute % 60:02d}"


def _fixture_files() -> dict[str, str]:
    """load.csv, temps.csv and holidays.txt on an hourly grid."""
    hourly = range(0, 24 * 60, 60)
    load = {0: hourly, 1: [m for m in hourly if m not in (300, 360, 720)],
            2: list(hourly)[:5], 4: range(30, 24 * 60, 60), 5: hourly}
    temps = {0: hourly, 1: list(hourly)[:6] + [455], 2: hourly,
             4: list(hourly)[8:20], 7: hourly}
    load_rows = ["timestamp,load_mw"] + [
        f"{_stamp(d, m)},{100.0 + 3.25 * (m // 60) + 7.5 * d + 0.125 * (m % 60)}"
        for d, minutes in load.items() for m in minutes
    ]
    temp_rows = ["timestamp,temp_c"] + [
        f"{_stamp(d, m)},{-2.5 + 0.75 * (m // 60) + 1.5 * d}"
        for d, minutes in temps.items() for m in minutes
    ]
    holiday = (START + dt.timedelta(days=5)).isoformat()
    return {
        "load.csv": "\n".join(load_rows) + "\n",
        "temps.csv": "\n".join(temp_rows) + "\n",
        "holidays.txt": f"# fixture holiday\n{holiday}\n",
    }


def test_ingest_output_is_pinned(tmp_path, capsys):
    for name, text in _fixture_files().items():
        (tmp_path / name).write_text(text)
    out = tmp_path / "history.jsonl"
    code = main([
        "ingest", "--load", str(tmp_path / "load.csv"),
        "--temps", str(tmp_path / "temps.csv"),
        "--holidays", str(tmp_path / "holidays.txt"),
        "--out", str(out), "--points-per-day", "24",
    ])
    assert code == 0
    report = capsys.readouterr().out
    assert hashlib.sha256(out.read_bytes()).hexdigest() == HISTORY_SHA256
    assert hashlib.sha256(report.encode()).hexdigest() == REPORT_SHA256
