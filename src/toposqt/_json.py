"""JSON encoding of complex vectors and matrices as [re, im] pairs."""

from __future__ import annotations

import reprlib
import sys

import numpy as np

from .errors import ParseError


def _pair(z: complex, ndigits: int | None) -> list[float]:
    re, im = float(z.real), float(z.imag)
    if ndigits is not None:
        re = round(re, ndigits) + 0.0
        im = round(im, ndigits) + 0.0
    return [re, im]


def vector_to_json(v: np.ndarray, ndigits: int | None = None) -> list:
    return [_pair(z, ndigits) for z in np.asarray(v, dtype=complex).reshape(-1)]


def matrix_to_json(A: np.ndarray, ndigits: int | None = None) -> list:
    A = np.asarray(A, dtype=complex)
    return [[_pair(z, ndigits) for z in row] for row in A]


def finite_number(x) -> bool:
    """A JSON number, not a boolean, that is a finite float: NaN, infinities
    and integers beyond the float range fail the comparison."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


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
