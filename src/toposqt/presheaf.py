"""The spectral presheaf: Gelfand spectra, restriction maps, clopen subobjects.

Per context the Gelfand spectrum is finite and discrete: each multiplicative
unital functional sends exactly one atom to 1, so a character is stored as an
atom index.  Evaluation is coefficient lookup, restriction follows atom
domination, and a clopen subobject is a per-context subset of atom indices
that is compatible with every restriction map.

The clopen subobjects are the down-sets of the characters ordered by
restriction.  One rule decides down-sets: x lies in S => T iff its down-set
meets S only inside T.  Both orders are read off down-set ints: the context
order (sieves, truth values, global elements) off the poset's, one bit per
context, and the character order off the rows of ``ContextPoset._characters``,
one int per atom row over one bit per character, where x lies in S => T iff
its down-set int misses the mask of S - T.  A selection is clopen iff it is
its own largest down-set: no selected character's down-set int meets the
complement of its mask.
A subobject that the library makes is that mask itself, one int over the
character bits, as a global element of Ω is its down-set of contexts: both
are a ``_Held`` element of a down-set lattice, with one rule of trust and
one Heyting rule on the ints.  Any other operand is checked as README's
boundary contract says, and packed.
"""

from __future__ import annotations

import numbers
import operator
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cache
from itertools import chain, compress

import numpy as np

from ._json import brief_repr, integer
from .contexts import Context, ContextPoset, _bits, restriction_table
from .errors import IncompleteAssignment, NotASubcontext, NotInAlgebra, UnknownCharacter, ValidationError
from .operators import TAU, _tau, as_operator, close, require_same_dim


@dataclass(frozen=True)
class Character:
    """A point of a context's Gelfand spectrum: the atom sent to 1."""

    context_id: str
    atom_index: int


def gelfand_spectrum(context: Context) -> tuple[Character, ...]:
    """One character per atom, in canonical atom order."""
    return tuple(Character(context.id, i) for i in range(context.n_atoms))


def coefficients_in(context: Context, A, tau: float = TAU) -> np.ndarray:
    """Atom coefficients of an algebra member, c_a = tr(A a) / tr(a).

    Raises ``NotInAlgebra`` when the residual of the atom expansion exceeds
    ``tau``.
    """
    A = as_operator(A)
    require_same_dim(A, context.atoms[0])
    coeffs = np.array(
        [np.trace(A @ a) / np.trace(a) for a in context.atoms], dtype=complex
    )
    if not close(A, sum(c * a for c, a in zip(coeffs, context.atoms)), _tau(tau)):
        raise NotInAlgebra("operator is not a combination of the context's atoms")
    return coeffs


def evaluate_character(context: Context, character: Character, A, tau: float = TAU) -> float:
    """Gelfand transform: the value of the character on an algebra member."""
    _require_member(context, character)
    coeffs = coefficients_in(context, A, tau)
    return float(coeffs[character.atom_index].real)


def restrict_character(
    context: Context, character: Character, sub: Context, tau: float = TAU
) -> Character:
    """Restriction along an inclusion: the unique coarse atom touching ours."""
    _require_member(context, character)
    table = restriction_table(context, sub, tau)
    if table is None:
        raise NotASubcontext(f"{sub.id!r} is not a subcontext of {context.id!r}")
    return Character(sub.id, table[character.atom_index])


def _require_member(context: Context, character: Character) -> None:
    # The one check of a character: its context's, with an integer atom index in range.
    index, n = character.atom_index, context.n_atoms
    if character.context_id != context.id or not (integer(index) and 0 <= index < n):
        raise UnknownCharacter(f"no character of {context.id!r} (atoms 0..{n - 1}): {brief_repr(character)}")


#: Swaps the flag bytes 0 and 1 with the digits "0" and "1", either way.
_SWAP = bytes.maketrans(b"\0\1" b"01", b"01" b"\0\1")


def _pack(flags: bytes) -> int:
    # The int of one flag byte 0 or 1 per member of a down-set lattice, in
    # either layout: member p of L at bit L - 1 - p.
    return int(flags.translate(_SWAP), 2)


def _flags(bits: int, count: int) -> bytes:
    # The flags of an int over ``count`` members, one byte each: _pack's inverse.
    return format(bits, f"0{count}b").encode().translate(_SWAP)


class _Held:
    """An element of a down-set lattice of a poset, which the library holds
    as one int: a clopen subobject over the character bits, a global element
    of Ω over the context bits.

    A library-made element (``_of``) builds its public mapping on its first
    read (``_read``, through the class's ``_decode``).  From then on that
    dict is the element: an edit to it counts, as in one built from a
    mapping.  The element keeps the int and the tuple of the values it
    built, and stands for its int on its poset while the dict is unread or
    holds those very values under the poset's ids, in poset order
    (``_trusted``); otherwise ``_down_on`` reads the dict back through the
    class's ``_encode``.  ``_connective`` is the one Heyting rule on the ints.
    """

    # _poset is None for an element built from a mapping.  Otherwise _down is
    # its int, and _built, once the mapping is read, the tuple of the values built.
    __slots__ = ("_values", "_poset", "_down", "_built")

    @classmethod
    def _of(cls, poset: ContextPoset, down: int):
        # The element the library makes of an int over the poset's members.
        held = object.__new__(cls)
        held._poset, held._values, held._down = poset, None, down
        return held

    def _read(self) -> dict:
        if self._values is None:
            self._values = self._decode(self._poset, self._down)
            self._built = tuple(self._values.values())
        return self._values

    def _trusted(self, poset: ContextPoset) -> bool:
        # The one rule by which an element stands for the int it holds: the
        # library made it on this poset, and its mapping is unread or holds,
        # in poset order, the very values built from the int.
        values = self._values
        return self._poset is poset and (
            values is None or (tuple(values) == poset._ids and all(map(operator.is_, values.values(), self._built))))

    def _down_on(self, poset: ContextPoset, name: str) -> int | None:
        # The element's int on the poset: its own while _trusted, else its
        # mapping read back, or None when that is no element of the lattice.
        return self._down if self._trusted(poset) else self._encode(poset, self._read(), name)

    @classmethod
    def _connective(cls, poset: ContextPoset, kind: str, x: int, y: int):
        # The one Heyting rule: x & y, x | y, or for x => y (y = 0 for "not")
        # the members whose down-set int misses x & ~y, the one kind that reads the rows.
        if kind == "and":
            return cls._of(poset, x & y)
        if kind == "or":
            return cls._of(poset, x | y)
        return cls._missing(poset, x & ~y)

    @classmethod
    def _missing(cls, poset: ContextPoset, outside: int):
        # The element of the members whose down-set int misses ``outside``.
        return cls._of(poset, _pack(bytes([not below & outside for below in cls._rows(poset)])))

    def at(self, context_id: str):
        return self._read()[context_id]

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        poset = self._poset
        if poset is not None and self._trusted(poset) and other._trusted(poset):
            return self._down == other._down
        return self._read() == other._read()

    def __reduce__(self):
        # A copy or a pickle is built from the mapping, and holds no poset.
        return type(self), (self._read(),)


class ClopenSubobject(_Held):
    """Per-context subsets of the spectrum (all subsets are clopen here).

    ``selection`` maps context id to the chosen atom indices.  Functoriality
    (restrictions stay inside the selection) is checked by
    :func:`is_clopen_subobject`, not enforced on construction.

    A subobject that the library makes holds one int over the character bits
    of its poset, the character of atom row r of T at bit T - 1 - r, and
    builds ``selection`` on its first read, as ``_Held`` says.  Assigning
    ``selection`` drops the int.
    """

    __slots__ = ()

    def __init__(self, selection: Mapping[str, frozenset[int]]) -> None:
        self._poset, self._values = None, {}
        for cid, indices in _mapping(selection, "selection").items():
            try:
                self._values[cid] = frozenset(indices)
            except TypeError:
                raise ValidationError(f"selection at {cid!r} is no set of indices: {brief_repr(indices)}") from None

    @property
    def selection(self) -> dict[str, frozenset[int]]:
        return self._read()

    @selection.setter
    def selection(self, selection: dict[str, frozenset[int]]) -> None:
        self._values, self._poset = selection, None

    @staticmethod
    def _decode(poset: ContextPoset, bits: int) -> dict[str, frozenset[int]]:
        # The selection of a character int: each context's set bits as one int
        # of its atoms, atom i at bit i, and that int's frozenset, made once.
        first, count = poset._row_starts[:-1], poset._row_starts[-1]
        index = np.arange(count) - np.repeat(first, np.diff(poset._row_starts))
        codes = np.add.reduceat(np.frombuffer(_flags(bits, count), np.uint8).astype(np.int64) << index, first).tolist()
        kept = {code: frozenset(_bits(code)) for code in set(codes)}
        return dict(zip(poset.ids, map(kept.get, codes)))

    @staticmethod
    def _encode(poset: ContextPoset, selection: Mapping, name: str) -> int | None:
        # A selection checked under the coverage rule and packed, or None when
        # it selects an index that is no character.
        selection = _selects_characters(poset, selection, name)
        if selection is None:
            return None
        rows = np.zeros(poset._row_starts[-1], dtype=bool)
        chosen = map(selection.__getitem__, poset.ids)
        rows[[first + int(i) for first, indices in zip(poset._row_starts.tolist(), chosen) for i in indices]] = True
        return _pack(rows.tobytes())

    @staticmethod
    def _rows(poset: ContextPoset) -> tuple[int, ...]:
        return poset._characters[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(f"{cid}:{sorted(v)}" for cid, v in sorted(self.selection.items()))
        return f"ClopenSubobject({parts})"


def full_subobject(poset: ContextPoset) -> ClopenSubobject:
    """The maximal subobject: the whole spectrum at every context."""
    return ClopenSubobject._of(poset, (1 << int(poset._row_starts[-1])) - 1)


def empty_subobject(poset: ContextPoset) -> ClopenSubobject:
    """The minimal subobject: empty at every context."""
    return ClopenSubobject._of(poset, 0)


def _mapping(value, name: str) -> Mapping:
    # A per-context mapping as given, or ValidationError naming it.
    if not isinstance(value, Mapping):
        raise ValidationError(f"{name} is not a mapping of context ids: {brief_repr(value)}")
    return value


def _require_contexts(poset: ContextPoset, assignment: Mapping, name: str) -> None:
    # A subobject, global element or section holds one value per poset
    # context and at no other context.
    if _mapping(assignment, name).keys() != poset._down.keys():
        raise IncompleteAssignment(f"{name} must be defined on every context of the poset and on no other")


def _selects_characters(poset: ContextPoset, selection: Mapping, name: str) -> Mapping[str, frozenset] | None:
    # The selection, once its contexts pass, each value read as the constructor
    # reads it (or refused as there); None unless each index is an atom of its
    # context: an integer in range (a bool or a float equal to one passes the subset test).
    _require_contexts(poset, selection, name)
    if not {frozenset}.issuperset(map(type, selection.values())):
        selection = ClopenSubobject(selection).selection
    kinds = set(map(type, chain.from_iterable(selection.values())))
    ok = all(issubclass(k, numbers.Integral) and k is not bool for k in kinds) and all(
        map(operator.le, map(selection.__getitem__, poset.ids), map(_atom_set, [c.n_atoms for c in poset._contexts])))
    return selection if ok else None


@cache
def _atom_set(n: int) -> frozenset[int]:
    # The atom indices of a context of n atoms.
    return frozenset(range(n))


def is_clopen_subobject(poset: ContextPoset, subobject: ClopenSubobject) -> bool:
    """True iff the selected characters form a down-set under restriction:
    every restriction of a selected character is selected.  An index outside
    a context's atoms, or one that is not an integer, is no character, so it
    makes the selection not clopen."""
    bits = subobject._down_on(poset, "subobject")
    if bits is None:
        return False
    # No selected character's down-set int meets the complement.
    below = poset._characters[0]
    outside = ((1 << len(below)) - 1) ^ bits
    return not any(map(outside.__and__, compress(below, _flags(bits, len(below)))))


def _require_characters(
    poset: ContextPoset, s1: ClopenSubobject, s2: ClopenSubobject | None = None
) -> tuple[int, int]:
    # The character ints of the operands, each selecting characters of the
    # poset, or UnknownCharacter; a missing second operand is the empty subobject.
    ints = []
    for name, s in zip(("first", "second"), (s1,) if s2 is None else (s1, s2)):
        ints.append(s._down_on(poset, f"{name} subobject"))
        if ints[-1] is None:
            raise UnknownCharacter(f"{name} subobject selects an index outside its context's atoms")
    return (*ints, 0)[:2]


def subobject_leq(poset: ContextPoset, s1: ClopenSubobject, s2: ClopenSubobject) -> bool:
    """Contextwise inclusion of subobjects, each defined on exactly the
    poset's contexts.  An operand that selects an index outside its
    context's atoms, or one that is not an integer, which is no character,
    raises ``UnknownCharacter``."""
    x1, x2 = _require_characters(poset, s1, s2)
    return not x1 & ~x2
