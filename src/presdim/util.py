"""Small numeric helpers shared across modules."""

from __future__ import annotations

import math

import numpy as np

__all__ = ["int_ceil", "sorted_distinct"]

_TOL = 1e-9


def int_ceil(x: float) -> int:
    """Ceiling with a guard against float noise just above an integer.

    Formulas here take ceilings of ratios like 1/(alpha-1) whose exact value
    is an integer for round parameter choices; plain ``math.ceil`` would bump
    those to the next integer when the quotient lands a few ulps high. The
    guard is relative (and at least ``_TOL`` in absolute terms) because the
    rounding noise of a quotient grows with its magnitude.
    """
    return math.ceil(x - max(_TOL, abs(x) * _TOL))


def sorted_distinct(a: np.ndarray, most: int | None = None) -> np.ndarray | None:
    """The distinct entries of ``a`` in ascending order, or None when there
    are more than ``most``.

    By sort and diff: ``np.unique`` and ``np.isin`` on floats import
    ``numpy.ma`` (about 1.1 MB resident).
    """
    ordered = np.sort(a, axis=None)
    fresh = np.ones(ordered.size, dtype=bool)
    fresh[1:] = ordered[1:] != ordered[:-1]
    if most is not None and np.count_nonzero(fresh) > most:
        return None
    return ordered[fresh]
