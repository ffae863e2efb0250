"""Small numeric helpers shared across modules."""

from __future__ import annotations

import math

__all__ = ["int_ceil"]

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
