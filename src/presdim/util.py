"""Small numeric helpers shared across modules."""

from __future__ import annotations

import json
import math

import numpy as np

__all__ = ["dump_json", "int_ceil", "sorted_distinct"]

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


def dump_json(doc: object) -> str:
    """``doc`` as ``indent=2`` RFC 8259 JSON, which has no infinity: an
    infinite float is written as the string "inf" or "-inf", and a NaN raises
    ``ValueError`` rather than write what strict parsers reject."""
    return json.dumps(_inf_as_text(doc), indent=2, allow_nan=False)


def _inf_as_text(doc: object) -> object:
    if isinstance(doc, float) and math.isinf(doc):
        return "-inf" if doc < 0 else "inf"
    if isinstance(doc, dict):
        return {key: _inf_as_text(value) for key, value in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_inf_as_text(value) for value in doc]
    return doc


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
