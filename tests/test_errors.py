import numpy as np
import pytest

from shapecast.errors import ShapecastError, whole


@pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3)], ids=repr)
def test_whole_returns_a_plain_int(value):
    got = whole(value, "count")
    assert got == 3 and type(got) is int


def test_whole_takes_its_least():
    assert whole(1, "count", least=1) == 1


def test_whole_below_its_least_refused():
    with pytest.raises(ShapecastError, match="^count 0 is below 1$"):
        whole(0, "count", least=1)


def test_whole_without_a_least_takes_negatives():
    assert whole(-2, "offset") == -2
