"""lift/unlift round trips."""

import numpy as np
import pytest

from pasf.errors import InvalidArgumentError
from pasf.lifting import lift, unlift


def test_lift_interleaves():
    subs = lift([0.0, 1.0, 2.0, 3.0, 4.0, 5.0], 2)
    assert np.array_equal(subs[0], [0.0, 2.0, 4.0])
    assert np.array_equal(subs[1], [1.0, 3.0, 5.0])


def test_lift_short_input():
    subs = lift([7.0], 3)
    assert [len(s) for s in subs] == [1, 0, 0]


def test_lift_empty_input():
    subs = lift([], 4)
    assert [len(s) for s in subs] == [0, 0, 0, 0]


def test_unlift_basic():
    out = unlift([[1.0, 3.0], [2.0, 4.0]], 2)
    assert np.array_equal(out, [1.0, 2.0, 3.0, 4.0])


def test_unlift_ragged():
    out = unlift([[1.0], []], 2)
    assert np.array_equal(out, [1.0])


def test_unlift_rejects_inconsistent_lengths():
    with pytest.raises(InvalidArgumentError):
        unlift([[1.0], [2.0, 3.0]], 2)  # longer tail sub-sequence
    with pytest.raises(InvalidArgumentError):
        unlift([[1.0, 2.0], [3.0], [4.0, 5.0]], 3)


def test_round_trip_identity():
    rng = np.random.default_rng(7)
    x = rng.standard_normal(1000)
    for period in (1, 2, 7, 13):
        assert np.array_equal(unlift(lift(x, period), period), x)


def test_unlift_lift_round_trip():
    rng = np.random.default_rng(9)
    subs = [rng.standard_normal(5) for _ in range(3)]
    x = unlift(subs, 3)
    back = lift(x, 3)
    for s, b in zip(subs, back):
        assert np.array_equal(s, b)
