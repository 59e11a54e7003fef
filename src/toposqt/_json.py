"""JSON for reports and problem files: complex vectors and matrices as
[re, im] pairs, rounded in one numpy pass as ``round`` rounds (entries near a
tie, large or not finite by ``round`` itself), and one writer for indented,
key-sorted documents."""

from __future__ import annotations

import functools
import numbers
import reprlib
import sys
from collections import OrderedDict
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


@functools.lru_cache(maxsize=16)
def _pair_template(count: int, pad: str) -> str:
    # The text of ``count`` entries of a list, each a [str, str] pair at
    # indent ``pad``, with a ``%s`` slot per string.
    pair = "[\n" + pad + "  %s,\n" + pad + "  %s\n" + pad + "]"
    return (",\n" + pad).join([pair] * count)


_LIST, _TWO, _STR = {list}, {2}, {str}


def _pair_strings(obj: list) -> list | None:
    # The strings of a list of pairs, in order, or None unless every entry is
    # a list of two strings of exact type str.
    pair = obj[0]
    if type(pair) is not list or len(pair) != 2 or type(pair[0]) is not str:
        return None
    if set(map(type, obj)) != _LIST or set(map(len, obj)) != _TWO:
        return None
    strings = [s for p in obj for s in p]
    return strings if set(map(type, strings)) == _STR else None


def dump(obj, write) -> None:
    """Pass ``dumps(obj)`` to ``write`` in chunks, in order; dict keys must be str.

    The text is made in one pass that appends each value's parts to the
    current chunk, which goes to ``write`` once it holds about a thousand
    parts, and at the end.  So no value's text is copied into its parent's,
    and a chunk is a bounded part of the document.  A matrix (see
    ``_is_matrix``) of finite floats, in rows of one length, is one part
    made in one ``%`` format from a template kept per shape and indent
    (``_matrix_text``).  The texts of the 256 matrices met last are kept by
    the matrix's id and indent, and reused where the same list object recurs
    at that indent.  (The ``contexts`` report of one basis of C^12 holds 4094
    distinct atoms; all but the 12 rays occur once, and their texts would take
    48 MB.)  A list of [str, str] pairs is written from one pair template, a
    thousand pairs a part.  Every other value takes the general path, one
    part per scalar.  Every value stays reachable from ``obj`` for the whole
    call, so an id names one object throughout.  A value that JSON cannot
    write is a TypeError, raised after the chunks before it were passed on."""
    written: OrderedDict[tuple[int, str], str] = OrderedDict()
    out: list[str] = []

    def flush() -> None:
        write("".join(out))
        out.clear()

    def encode(obj, pad: str) -> None:
        kind = type(obj)
        if kind not in _EXACT:
            kind = next((k for k in _KINDS if isinstance(obj, k)), None)
            if kind is None:
                raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
        if kind in _SCALARS:
            out.append(_SCALARS[kind](obj))
            return
        if not obj:
            out.append("{}" if kind is dict else "[]")
            return
        inner = pad + "  "
        sep = ",\n" + inner
        if kind is dict:
            head = "{\n" + inner
            for k, v in sorted(obj.items()):
                out.append(head + _key(k))
                encode(v, inner)
                head = sep
                if len(out) > 1000:
                    flush()
            out.append("\n" + pad + "}")
            return
        if kind is list and _is_matrix(obj):
            key = (id(obj), pad)
            text = written.get(key)
            if text is not None:
                written.move_to_end(key)
            else:
                text = _matrix_text(obj, pad)
                if text is not None:
                    written[key] = text
                    if len(written) > 256:
                        written.popitem(last=False)
            if text is not None:
                out.append(text)
                return
        head = "[\n" + inner
        strings = _pair_strings(obj)
        if strings is not None:
            for lo in range(0, len(strings), 2000):
                piece = strings[lo : lo + 2000]
                out.extend((head, _pair_template(len(piece) // 2, inner) % tuple(map(_str, piece))))
                head = sep
            out.append("\n" + pad + "]")
            return
        # Most leaves of a report are the floats of [re, im] pairs.
        for x in obj:
            out.append(head)
            if type(x) is float:
                out.append(_float(x))
            else:
                encode(x, inner)
            head = sep
            if len(out) > 1000:
                flush()
        out.append("\n" + pad + "]")

    encode(obj, "")
    out.append("\n")
    flush()


def dumps(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``, byte for byte: the
    chunks of ``dump`` joined once."""
    chunks: list[str] = []
    dump(obj, chunks.append)
    return "".join(chunks)


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
