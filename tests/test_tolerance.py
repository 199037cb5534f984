"""The tolerance helpers decide the same on Python floats, which take a
scalar path, as on numpy arrays of the same values; and lasso.four_point,
which shares one margin between its two comparisons, decides as the two
definitely_less calls it stands for."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from treelasso.lasso import four_point
from treelasso.tolerance import approx_equal, definitely_less

VALUES = [0.0, -0.0, 5e-324, 1e-300, 1e-9, 0.5, 1.0, 1.0 + 1e-9, 1.0 + 2e-9, 3.0, 1e12, 1e12 + 1e3,
          1e308, 1.7976931348623157e308, float("inf"), float("nan"), -1.0, -1e-9]
PAIRS = list(itertools.product(VALUES, repeat=2))


@pytest.mark.parametrize("eps", [1e-9, 1e-6, 0.0])
@pytest.mark.parametrize("helper", [definitely_less, approx_equal])
def test_scalars_decide_as_arrays(helper, eps):
    xs, ys = (np.array(side) for side in zip(*PAIRS))
    with np.errstate(invalid="ignore", over="ignore"):
        expected = helper(xs, ys, eps)
    assert [bool(helper(x, y, eps)) for x, y in PAIRS] == expected.tolist()


@pytest.mark.parametrize("eps", [1e-9, 1e-6, 0.0])
def test_four_point_is_two_definitely_less_tests(eps):
    xs, ys = (np.array(side) for side in zip(*PAIRS))
    with np.errstate(invalid="ignore", over="ignore"):
        strict, lt = four_point(xs, ys, eps)
        assert lt.tolist() == definitely_less(xs, ys, eps).tolist()
        assert strict.tolist() == (definitely_less(xs, ys, eps) | definitely_less(ys, xs, eps)).tolist()
    for x, y in PAIRS:
        assert four_point(x, y, eps) == (
            definitely_less(x, y, eps) or definitely_less(y, x, eps),
            definitely_less(x, y, eps),
        )
    exact = [Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10**30), Fraction(10**400)]
    for x, y in itertools.product(exact, repeat=2):  # exact types stay exact at eps=0
        assert four_point(x, y, 0.0) == (x != y, x < y)
