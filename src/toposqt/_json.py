"""JSON for reports and problem files: complex vectors and matrices as
[re, im] pairs, rounded in one numpy pass as ``round`` rounds (entries near a
tie, large or not finite by ``round`` itself), and one writer for indented,
key-sorted documents."""

from __future__ import annotations

import functools
import numbers
import reprlib
import sys
from json.encoder import encode_basestring_ascii as _str

import numpy as np

from .errors import ParseError


def vector_to_json(v: np.ndarray, ndigits: int | None = None) -> list:
    return matrix_to_json(np.asarray(v, dtype=complex).reshape(-1), ndigits)


def matrix_to_json(A: np.ndarray, ndigits: int | None = None) -> list:
    """A matrix, or a stack of them on any leading axes, as nested lists of
    [re, im] pairs, each part ``round(x, ndigits) + 0.0`` unless ndigits is
    None.  rint(x * 10**n) / 10**n is that while the product is below 2**40
    (its error under 2**-14) and not within 2**-12 of a tie; other entries,
    and all when 10**n is no double, are rounded by ``round``."""
    A = np.ascontiguousarray(A, dtype=complex)
    x = A.view(float).reshape(A.shape + (2,))  # the (re, im) pairs in place
    if ndigits is None:
        return x.tolist()
    scale = 10.0 ** min(max(ndigits, 0), 22)
    with np.errstate(all="ignore"):
        frac = x * scale
        out = np.rint(frac)
        frac -= out
        redo = ~(np.abs(out) < 2.0**40) | (np.abs(frac, out=frac) >= 0.5 - 2.0**-12) | (not 0 <= ndigits <= 22)
        out /= scale
        out += 0.0
    out[redo] = [round(v, ndigits) + 0.0 for v in x[redo].tolist()]
    return out.tolist()


_INF = float("inf")


def _float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


_SCALARS = {
    str: _str,
    float: _float,
    int: int.__repr__,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}

_EXACT = {*_SCALARS, list, tuple, dict}

#: The order in which ``json`` tries the types of a value whose type is none
#: of these exactly (``np.float64`` is a float, ``IntEnum`` an int).
_KINDS = (str, int, float, list, tuple, dict)


def _key(k) -> str:
    if not isinstance(k, str):
        raise TypeError(f"keys must be str, not {type(k).__name__}")
    return _str(k) + ": "


def _is_matrix(obj: list) -> bool:
    # A nonempty list of rows of [re, im] float pairs, judged by its first
    # entry.  This only decides which lists ``dumps`` tries the template on
    # and keeps the text of for reuse.
    row = obj[0]
    if type(row) is not list or not row:
        return False
    pair = row[0]
    return type(pair) is list and len(pair) == 2 and type(pair[0]) is float


@functools.lru_cache(maxsize=64)
def _template(rows: int, cols: int, pad: str) -> str:
    # The text of a rows x cols matrix of [re, im] pairs at indent ``pad``,
    # with a ``%r`` slot per float.
    p2, p4, p6 = pad + "  ", pad + "    ", pad + "      "
    pair = "[\n" + p6 + "%r,\n" + p6 + "%r\n" + p4 + "]"
    row = "[\n" + p4 + (",\n" + p4).join([pair] * cols) + "\n" + p2 + "]"
    return "[\n" + p2 + (",\n" + p2).join([row] * rows) + "\n" + pad + "]"


_FLOAT = {float}


def _matrix_text(obj: list, pad: str) -> str | None:
    # A matrix's text in one ``%`` format, or None unless every row is a list
    # of the first row's length, every entry a list of two floats of exact
    # type float, and every float finite (``%r`` is ``float.__repr__``, which
    # JSON writes as such only for finite floats).  A sum that overflows to
    # infinity also takes the general path, which is still correct.
    cols = len(obj[0])
    flat: list = []
    for row in obj:
        if type(row) is not list or len(row) != cols:
            return None
        for pair in row:
            if type(pair) is not list or len(pair) != 2:
                return None
            flat += pair
    if set(map(type, flat)) != _FLOAT or 0.0 * sum(flat) != 0.0:
        return None
    return _template(len(obj), cols, pad) % tuple(flat)


def dumps(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``, byte for byte, in
    one pass that builds a string per value; dict keys must be str.

    A matrix (see ``_is_matrix``) of finite floats, in rows of one length,
    is written in one ``%`` format from a template kept per shape and
    indent (``_matrix_text``); any other matrix, and every other value,
    takes the general path, one string per value.  The text of a matrix is
    kept by the matrix's id and indent and reused wherever the same list
    object recurs at that indent.  Every value stays reachable from ``obj``
    for the whole call, so an id names one object throughout."""
    written: dict[tuple[int, str], str] = {}

    def encode(obj, pad: str) -> str:
        kind = type(obj)
        if kind not in _EXACT:
            kind = next((k for k in _KINDS if isinstance(obj, k)), None)
            if kind is None:
                raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
        if kind in _SCALARS:
            return _SCALARS[kind](obj)
        if not obj:
            return "{}" if kind is dict else "[]"
        # Each level is one join, with the brackets on the first and last
        # parts: no copy of the body, and one allocation per level.
        inner = pad + "  "
        sep = ",\n" + inner
        if kind is dict:
            parts = ["{\n" + inner]
            for k, v in sorted(obj.items()):
                parts += (_key(k), encode(v, inner), sep)
            parts[-1] = "\n" + pad + "}"
            return "".join(parts)
        key = None
        if kind is list and _is_matrix(obj):
            key = (id(obj), pad)
            text = written.get(key)
            if text is not None:
                return text
            text = _matrix_text(obj, pad)
            if text is not None:
                written[key] = text
                return text
        # Most leaves of a report are the floats of [re, im] pairs.
        children = [_float(x) if type(x) is float else encode(x, inner) for x in obj]
        children[0] = "[\n" + inner + children[0]
        children[-1] += "\n" + pad + "]"
        text = sep.join(children)
        if key is not None:
            written[key] = text
        return text

    text = encode(obj, "")
    text += "\n"  # CPython resizes the sole reference in place
    return text


def finite_number(x) -> bool:
    """A real number, not a boolean, that is a finite float: NaN, infinities
    and integers beyond the float range fail the comparison.  (float and int
    come first: they match without the slower ``numbers.Real`` check.  A
    numpy float is compared as a float: the float maximum overflows a float32.)"""
    if isinstance(x, np.floating):
        x = float(x)
    return isinstance(x, (float, int, numbers.Real)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def integer(x) -> bool:
    """An integer (a numpy one included), not a boolean."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def brief_repr(obj) -> str:
    """The repr of a value for a one-line error message: reprlib elides deep
    and long containers, and the text is cut at 60 characters."""
    text = reprlib.repr(obj)
    return text if len(text) <= 60 else text[:57] + "..."


def _complex_from_pair(obj, where: str) -> complex:
    if not isinstance(obj, (list, tuple)) or len(obj) != 2 or not all(map(finite_number, obj)):
        raise ParseError(f"{where}: expected a [re, im] pair of finite numbers, got {brief_repr(obj)}")
    return complex(obj[0], obj[1])


def vector_from_json(obj, where: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise ParseError(f"{where}: expected a nonempty list of [re, im] pairs")
    return np.array([_complex_from_pair(x, where) for x in obj], dtype=complex)


def matrix_from_json(obj, where: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise ParseError(f"{where}: expected a nonempty list of rows")
    rows = []
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != len(obj):
            raise ParseError(f"{where}: row {i} does not make the matrix square")
        rows.append([_complex_from_pair(x, f"{where}[{i}]") for x in row])
    return np.array(rows, dtype=complex)


def round_real(x: float, ndigits: int = 12) -> float:
    """Round for report output, normalising negative zero."""
    return round(float(x), ndigits) + 0.0
