"""Golden bytes of `shapecast simulate`: a small noisy run and an exact-recovery run.

The digests pin the experiment CSV, so any change to the sample path, the
prior each length predicts from or the row writer that moves a single byte
fails here. They were recorded from the lab that rebuilt one validated
`HistoryWindow` per (replication, L); the lab that weighs each replication on
its path's arrays, with no window and no `predictor._stage`, must reproduce
them byte for byte.
"""

import hashlib

import pytest

from shapecast.cli import main

NOISY_SHA256 = "ece6042e3e973c164a16663c7d61ee04949a928b8036a12c8e2323fad2f522bd"
EXACT_SHA256 = "91c0f655681f0479e21457262e49010bf35ef4d7a53adeaa594c8feed50154fa"


@pytest.mark.parametrize("extra, digest", [
    ([], NOISY_SHA256),
    (["--sigma", "0"], EXACT_SHA256),
])
def test_simulate_output_is_pinned(tmp_path, extra, digest):
    out = tmp_path / "rows.csv"
    code = main([
        "simulate", "--lengths", "32,64", "--replications", "3", "--seed", "1",
        *extra, "--out", str(out),
    ])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
