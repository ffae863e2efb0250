"""Small numeric helpers shared across modules, and the JSON document
boundary: ``dump_json`` writes every document, ``load_json`` parses every
document and ``read_members`` reads every keyed one."""

from __future__ import annotations

import json
import math
from itertools import chain
from typing import Any, Callable, Mapping

import numpy as np

__all__ = [
    "dump_json", "load_json", "read_members", "json_float", "json_int", "json_bool", "json_str",
    "json_float_pair", "json_index_list", "json_array", "int_ceil", "sorted_distinct",
]

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


def load_json(text: str, what: str) -> object:
    """``text`` parsed as JSON; a document nested too deeply for the parser
    raises ``ValueError`` naming ``what`` rather than ``RecursionError``."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"malformed {what}: nested too deeply") from None


def read_members(
    doc: object, readers: Mapping[str, Callable[[Any], Any]], what: str, defaults: Mapping[str, Any] = {}
) -> dict[str, Any]:
    """The members of the keyed document ``doc``, each passed through its
    reader in ``readers``; a member left out takes its value in ``defaults``
    as it stands. Raises ``ValueError`` naming ``what`` and the member when
    ``doc`` is no object, a member is unknown, a member without a default is
    missing, or a reader refuses a value by raising ``ValueError``,
    ``TypeError`` or ``OverflowError``."""
    if not isinstance(doc, dict):
        raise ValueError(f"malformed {what}: an object expected, got {type(doc).__name__}")
    if not doc.keys() <= readers.keys():
        unknown = next(key for key in doc if key not in readers)
        raise ValueError(f"unknown {what} key {unknown!r}; the keys are {', '.join(readers)}")
    if len(doc) < len(readers):  # members are left out
        missing = [key for key in readers if key not in doc and key not in defaults]
        if missing:
            raise ValueError(f"malformed {what}: missing {', '.join(map(repr, missing))}")
    members = dict(defaults)
    for key, value in doc.items():
        try:
            members[key] = readers[key](value)
        except (ValueError, TypeError, OverflowError) as exc:
            raise ValueError(f"malformed {what}: key {key!r}: {exc}") from exc
    return members


# -- JSON value readers: each takes a member as ``dump_json`` writes it -------------


def json_float(v: Any) -> float:
    """A JSON number, or the "inf"/"-inf" that ``dump_json`` writes for an
    infinite float."""
    if type(v) in (int, float) and v == v or v in ("inf", "-inf"):
        return float(v)
    raise ValueError(f'a number or "inf" expected, got {type(v).__name__}')


def _json_exactly(kind: type, expected: str) -> Callable[[Any], Any]:
    def read(v: Any) -> Any:
        if type(v) is kind:  # a bool is no JSON integer
            return v
        raise ValueError(f"{expected} expected, got {type(v).__name__}")
    return read


json_int = _json_exactly(int, "an integer")
json_bool = _json_exactly(bool, "true or false")
json_str = _json_exactly(str, "a string")


def json_float_pair(v: Any) -> tuple[float, float]:
    if type(v) is list and len(v) == 2:
        return json_float(v[0]), json_float(v[1])
    raise ValueError(f"a list of two numbers expected, got {type(v).__name__}")


def json_index_list(v: Any) -> tuple[int, ...]:
    """A list of JSON integers, typed in one pass over the item types."""
    if type(v) is list and set(map(type, v)) <= {int}:
        return tuple(v)
    raise ValueError("a list of integers expected")


def json_array(v: Any) -> np.ndarray:
    """A 2-d array of JSON numbers, typed in one pass over the item types
    (numpy would read a boolean among numbers as 0 or 1); whether its values
    are finite is ``metric.checked``'s to say."""
    a = np.array(v, dtype=np.float64)
    if a.ndim != 2 or not set(map(type, chain.from_iterable(v))) <= {int, float}:
        raise ValueError("a 2-d array of numbers expected")
    return a


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
