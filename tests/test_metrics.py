import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shapecast.errors import ShapecastError
from shapecast.metrics import score_day


def seg(values):
    return np.asarray(values, dtype=float)


class TestScoreDay:
    def test_perfect_prediction(self):
        s = seg([0.5, 1.0, 0.75, 0.25])
        rmae, maxdiff, mindiff = score_day(s, s)
        assert rmae == 0.0
        assert maxdiff == 0.0
        assert mindiff == 0.0

    def test_hand_computed_case(self):
        pred = seg([0.6, 1.0, 0.5, 0.5])
        actual = seg([0.5, 1.0, 1.0, 0.25])
        rmae, maxdiff, mindiff = score_day(pred, actual)
        # per-point relative errors: 0.1/0.5, 0, 0.5/1.0, 0.25/0.25
        assert rmae == pytest.approx((0.2 + 0.0 + 0.5 + 1.0) / 4)
        assert maxdiff == pytest.approx(0.25)   # largest signed overshoot
        assert mindiff == pytest.approx(-0.5)   # largest signed undershoot

    def test_uniform_overestimate(self):
        actual = seg([0.5, 1.0, 0.5, 0.5])
        pred = seg([0.6, 1.1, 0.6, 0.6])
        rmae, maxdiff, mindiff = score_day(pred, actual)
        assert maxdiff == pytest.approx(0.1)
        assert mindiff == pytest.approx(0.1)  # even the smallest error is positive
        assert rmae == pytest.approx((0.2 + 0.1 + 0.2 + 0.2) / 4)

    def test_zero_actual_rejected(self):
        with pytest.raises(ShapecastError):
            score_day(seg([0.5] * 4), seg([0.5, 0.0, 0.5, 0.5]))

    def test_actual_near_zero_scores_infinite(self):
        rmae, _, _ = score_day(seg([0.5] * 4), seg([0.5, 5e-324, 0.5, 0.5]))
        assert rmae == np.inf

    def test_scale_invariance_of_rmae(self):
        rng = np.random.default_rng(11)
        a = 0.1 + rng.random(4)
        p = 0.1 + rng.random(4)
        r1, _, _ = score_day(seg(p), seg(a))
        r2, _, _ = score_day(seg(10 * p), seg(10 * a))
        assert r1 == pytest.approx(r2, rel=1e-12)

    @pytest.mark.parametrize("P", [4, 24, 96])
    def test_matrix_rows_equal_vector_calls(self, P):
        rng = np.random.default_rng(P)
        actual = 0.05 + rng.random(P)
        actual[2] = 5e-324
        predicted = 0.05 + rng.random((7, P))
        predicted[:, 2] = actual[2]  # no error where the actual is near zero ...
        predicted[3, 2] = 0.5  # ... except in row 3, whose rmae is inf
        scores = score_day(predicted, actual)
        assert scores[0][3] == np.inf
        assert np.isfinite(np.delete(scores[0], 3)).all()
        for r, row in enumerate(predicted):
            for got, want in zip(scores, score_day(row, actual)):
                assert got[r].tobytes() == np.float64(want).tobytes()


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000))
def test_score_invariants(seed):
    rng = np.random.default_rng(seed)
    actual = 0.05 + rng.random(4)
    pred = 0.05 + rng.random(4)
    rmae, maxdiff, mindiff = score_day(seg(pred), seg(actual))
    assert rmae >= 0.0
    assert maxdiff >= mindiff
    diffs = pred - actual
    assert maxdiff == pytest.approx(diffs.max())
    assert mindiff == pytest.approx(diffs.min())

