"""Small numeric helpers shared across modules, the two boundaries of
outside data, and the one foreign call: ``dump_json``, ``load_json`` and
``read_members`` write, parse and read every JSON document; ``write_rows``,
``read_header`` and ``read_rows`` write and read every text table; and
``one_blas_thread`` sets the thread count of the BLAS numpy loaded."""

from __future__ import annotations

import ctypes
import json
import math
import re
import warnings
from contextlib import contextmanager
from functools import cache
from itertools import chain
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

__all__ = [
    "dump_json", "load_json", "read_members", "json_float", "json_int", "json_bool", "json_str", "json_float_pair",
    "json_index_list", "json_array", "read_header", "read_rows", "write_rows", "int_ceil", "sorted_distinct",
    "one_blas_thread",
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


# -- the text table boundary ------------------------------------------------------
# A table file is a header line, then rows of whitespace-separated numbers. A
# line whose first non-blank character is '#' is a comment; a '#' anywhere
# else is an error. Blank lines, and the whitespace around a line, are
# ignored. Every error raised reads "<path>: ...".

# The comment and blank lines before the header, then the header line.
_HEADER = re.compile(r"(?:\s*#[^\n]*)*\s*([^\n]*)")


def read_header(path: str, shape: str, *kinds: Callable[[str], Any]) -> tuple[list, str]:
    """The header tokens of the table file at ``path``, each read by its kind
    in ``kinds``, and the text after the header line; ``ValueError`` names the
    file and the line, which must be ``shape``, when a kind refuses a token, a
    token holds a ``_`` or a value is negative (a header holds counts and
    norms)."""
    with open(path) as fh:
        text = fh.read()
    head = _HEADER.match(text)
    line = head.group(1).strip()
    if not line:
        raise ValueError(f"{path}: empty file")
    try:
        values = [kind(tok) for kind, tok in zip(kinds, line.split(), strict=True)]
        # int and float read "1_0" as 10; np.loadtxt, the row parser, refuses it
        if "_" not in line and min(values, default=0) >= 0:
            return values, text[head.end() :]
    except ValueError:
        pass
    raise ValueError(f"{path}: header {line!r} must be {shape}")


def read_rows(
    path: str, text: str, dtype: type, width: int, rows: int | None = None, tag: str | None = None
) -> tuple[np.ndarray, list[str]]:
    """The rows of ``text``, the rest of a table file after its header, as
    one (rows, width) array of ``dtype``, and the rest of each line opening
    with ``tag``. One regex split cuts out the comment and ``tag`` lines, and
    one ``np.loadtxt`` call parses the remaining text; ``ValueError`` names
    the file and, by its place among the rows, a row that does not parse."""
    tagged = re.escape(tag) if tag else "(?!)"  # (?!) matches nothing
    parts = re.split(rf"\n\s*(?:#[^\n]*|{tagged}([^\n]*))", text)
    body = "".join(parts[0::2])
    # comments=None: a '#' inside a row must fail to parse, not end it.
    # numpy releases still in their deprecation period parse an integer
    # token such as "1.5" or "2.0" via a float, truncate it and only issue a
    # DeprecationWarning; the filter turns that into their ValueError.
    # Without rows the parser is skipped; it warns on empty input.
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            table = (np.loadtxt(body.split("\n"), dtype=dtype, ndmin=2, comments=None)
                     if body.strip() else np.empty((0, width), dtype))
    except ValueError as exc:
        # A row of the wrong length is named by its place counted from 0, as
        # numpy's token errors count; numpy's own message for a ragged row
        # counts from 1 and advises options of its own.
        held = [len(line.split()) for line in body.split("\n") if line.strip()]
        row = next((row for row, count in enumerate(held) if count != width), None)
        if row is None:
            raise ValueError(f"{path}: {exc}") from None
        raise ValueError(f"{path}: {width} values per row expected, got {held[row]} at row {row}") from None
    if table.shape[1] != width or rows not in (None, len(table)):
        want = f"{width} values per row" if rows is None else f"{rows} rows of {width} values"
        raise ValueError(f"{path}: {want} expected, got {len(table)} rows of {table.shape[1]}")
    return table, [line for line in parts[1::2] if line is not None]


def write_rows(path: str, header: str, rows: Iterable[Sequence[int | float]], *tail: str) -> None:
    """Write the table file at ``path``: the ``header`` line, one line per
    row of Python numbers (each written as its ``repr``, which a float reads
    back from bit for bit), then the ``tail`` lines."""
    lines = [header, *(" ".join(map(repr, row)) for row in rows), *tail]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


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


# -- BLAS threads ------------------------------------------------------------------


@contextmanager
def one_blas_thread() -> Iterator[None]:
    """Run the body on one OpenBLAS thread and restore the caller's thread
    count after it, also when the body raises. Where numpy loaded no
    OpenBLAS that this finds (MKL, Accelerate, a system without
    ``/proc/self/maps``) the body runs as it stands."""
    threads = _openblas_threads()
    if threads is None:
        yield
        return
    get, put = threads
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


@cache
def _openblas_threads() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """The thread count getter and setter of the OpenBLAS mapped into this
    process, found on first use, or None. numpy's wheels bundle it with the
    symbols prefixed ``scipy_`` and, for 64-bit integers, suffixed ``64_``."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split(maxsplit=5)[5].strip() for line in fh if "openblas" in line})
        libs = [ctypes.CDLL(path) for path in paths]
    except OSError:
        return None
    for lib in libs:
        for prefix in ("scipy_", ""):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
                put = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.restype, get.argtypes = ctypes.c_int, []
                    put.restype, put.argtypes = None, [ctypes.c_int]
                    return get, put
    return None
