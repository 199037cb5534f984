"""Floating-point comparison policy shared across the package.

Distances are 64-bit floats.  All equality/inequality decisions on them go
through the two helpers below, which use a tolerance relative to the
magnitudes involved (never smaller than the absolute epsilon).  The default
epsilon can be overridden per call; the CLI additionally honours the
LASSO_EPSILON environment variable.

Reconstruction decides by one margin, eps on the two sums of lasso's
four_point, which the closure engine and the metric placer both apply to
the same values; insertion into a complete map declines within eps,
relative to the largest value, of a vertex or of a zero pendant.  The tree
built is then checked against the input at the looser, absolute
reconstruct.VERIFY_EPSILON: the inserted tree's lengths are differences of
root-path sums, NJ's fallback lengths are fitted and round more as n
grows, and that check is there to catch values that fit no tree.
"""

from __future__ import annotations

import numpy as np

DEFAULT_EPSILON = 1e-9


def _scale(x, y):
    if isinstance(x, float) and isinstance(y, float):  # the same value, without numpy's per-call cost
        return max(abs(x), abs(y), 1.0)
    return np.maximum(np.maximum(np.abs(x), np.abs(y)), 1.0)


def approx_equal(x, y, eps: float = DEFAULT_EPSILON):
    """True when x and y differ by at most eps relative to their magnitude
    (elementwise on numpy arrays; eps=0 compares exactly)."""
    if eps == 0:
        return x == y
    return np.abs(x - y) <= eps * _scale(x, y)


def margin(x, y, eps: float = DEFAULT_EPSILON):
    """How far x or y must lie below the other to be definitely less: eps
    relative to their magnitude, elementwise; 0 for eps=0 (exact types)."""
    return eps * _scale(x, y) if eps else 0


def definitely_less(x, y, eps: float = DEFAULT_EPSILON):
    """True when x < y with a margin exceeding the tolerance.

    Used for strict-inequality triggers that must not fire on float noise;
    elementwise on numpy arrays.  For exact types (e.g. Fraction) pass eps=0.
    """
    return x < y - margin(x, y, eps)
