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
context, and the character order off ``ContextPoset._characters``, one bit
per character, where x lies in S => T iff its down-set int misses the mask
of S - T.  A selection is clopen iff it is its own largest down-set: no
selected character's down-set int meets the complement of its mask.
A subobject that the library makes is that mask itself, one int over the
character bits, so conjunction, disjunction and inclusion are int
operations on it; it builds its ``selection`` on first read, and its int is
trusted while that dict holds the very frozensets built from it
(``_trusted``).  Any other operand is checked as README's boundary
contract says, and packed.
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


class ClopenSubobject:
    """Per-context subsets of the spectrum (all subsets are clopen here).

    ``selection`` maps context id to the chosen atom indices.  Functoriality
    (restrictions stay inside the selection) is checked by
    :func:`is_clopen_subobject`, not enforced on construction.

    A subobject that the library makes holds one int over the character bits
    of its poset, the character of atom row r of T at bit T - 1 - r, and
    builds ``selection`` on its first read.  From then on that dict is the
    subobject: an edit to it counts, as in a subobject built from a mapping.
    The subobject keeps the int and the tuple of the frozensets it built, and
    the connectives and checks reuse the int while the dict holds those very
    frozensets under the poset's ids, in poset order; any edit makes them
    read the dict back.  Assigning ``selection`` drops the int.
    """

    # _poset is None for a subobject built from a mapping.  Otherwise _bits is
    # its int, and _built, once the selection is read, the tuple of the frozensets built.
    __slots__ = ("_selection", "_poset", "_bits", "_built")

    def __init__(self, selection: Mapping[str, frozenset[int]]) -> None:
        # A selection of frozensets is copied whole.
        selection = _mapping(selection, "selection")
        self._poset = None
        if {frozenset}.issuperset(map(type, selection.values())):
            self._selection: dict[str, frozenset[int]] | None = dict(selection)
            return
        self._selection = {}
        for cid, indices in selection.items():
            try:
                self._selection[cid] = frozenset(indices)
            except TypeError:
                raise ValidationError(f"selection at {cid!r} is no set of indices: {brief_repr(indices)}") from None

    @property
    def selection(self) -> dict[str, frozenset[int]]:
        if self._selection is None:
            self._selection = _read_selection(self._poset, self._bits)
            self._built = tuple(self._selection.values())
        return self._selection

    @selection.setter
    def selection(self, selection: dict[str, frozenset[int]]) -> None:
        self._selection, self._poset = selection, None

    def at(self, context_id: str) -> frozenset[int]:
        return self.selection[context_id]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ClopenSubobject):
            return NotImplemented
        poset = self._poset
        if poset is not None and _trusted(poset, self, self._selection) and _trusted(poset, other, other._selection):
            return self._bits == other._bits
        return self.selection == other.selection

    def __reduce__(self):
        # A copy or a pickle is built from the selection, and holds no poset.
        return ClopenSubobject, (self.selection,)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(f"{cid}:{sorted(v)}" for cid, v in sorted(self.selection.items()))
        return f"ClopenSubobject({parts})"


#: The digits of a character int in base 2, each as a flag byte 0 or 1.
_FLAGS = bytes.maketrans(b"01", b"\0\1")


def _subobject(poset: ContextPoset, bits: int) -> ClopenSubobject:
    # The subobject the library makes of a character int of the poset.
    subobject = object.__new__(ClopenSubobject)
    subobject._poset, subobject._selection, subobject._bits = poset, None, bits
    return subobject


def _row_count(poset: ContextPoset) -> int:
    # T, the number of atom rows, which is the number of characters.
    return int(poset._first_rows[-1]) + poset._contexts[-1].n_atoms


def _pack(flags) -> int:
    # The character int of a buffer of one flag byte 0 or 1 per atom row:
    # row r is bit T - 1 - r.
    return int.from_bytes(np.packbits(np.frombuffer(flags, bool)).tobytes(), "big") >> (-len(flags) % 8)


def _flags(bits: int, count: int) -> bytes:
    # The flags of a character int over ``count`` atom rows, one byte each: _pack's inverse.
    return format(bits, f"0{count}b").encode().translate(_FLAGS)


def _read_selection(poset: ContextPoset, bits: int) -> dict[str, frozenset[int]]:
    # The selection of a character int: each context's set bits as one int
    # of its atoms, atom i at bit i, and that int's frozenset, made once.
    first, count = poset._first_rows, _row_count(poset)
    index = np.arange(count) - np.repeat(first, np.diff(first, append=count))
    codes = np.add.reduceat(np.frombuffer(_flags(bits, count), np.uint8).astype(np.int64) << index, first).tolist()
    kept = {code: frozenset(_bits(code)) for code in set(codes)}
    return dict(zip(poset.ids, map(kept.get, codes)))


def full_subobject(poset: ContextPoset) -> ClopenSubobject:
    """The maximal subobject: the whole spectrum at every context."""
    return _subobject(poset, (1 << _row_count(poset)) - 1)


def empty_subobject(poset: ContextPoset) -> ClopenSubobject:
    """The minimal subobject: empty at every context."""
    return _subobject(poset, 0)


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


def _selects_characters(poset: ContextPoset, selection: Mapping[str, frozenset], name: str) -> bool:
    # Under the coverage rule, whether each index is an atom of its context:
    # an integer in range (a bool or a float equal to one passes the subset test).
    _require_contexts(poset, selection, name)
    kinds = set(map(type, chain.from_iterable(selection.values())))
    return all(issubclass(k, numbers.Integral) and k is not bool for k in kinds) and all(
        map(operator.le, map(selection.__getitem__, poset.ids), map(_atom_set, [c.n_atoms for c in poset._contexts])))


@cache
def _atom_set(n: int) -> frozenset[int]:
    # The atom indices of a context of n atoms.
    return frozenset(range(n))


def _trusted(poset: ContextPoset, made, values: dict | None) -> bool:
    # The one rule by which a subobject or global element stands for the int
    # it holds: the library made it on this poset, and its mapping ``values``
    # is unread (None) or holds, in poset order, the very values built from the int.
    return made._poset is poset and (
        values is None or (tuple(values) == poset._ids and all(map(operator.is_, values.values(), made._built))))


def _character_bits(poset: ContextPoset, subobject: ClopenSubobject, name: str) -> int | None:
    # The character int of an operand: its own while _trusted, else its
    # selection checked under the coverage rule and packed, or None when
    # that selects an index that is no character.
    if _trusted(poset, subobject, subobject._selection):
        return subobject._bits
    selection = subobject.selection
    if not _selects_characters(poset, selection, name):
        return None
    rows = np.zeros(_row_count(poset), dtype=bool)
    chosen = map(selection.__getitem__, poset.ids)
    rows[[first + int(i) for first, indices in zip(poset._first_rows.tolist(), chosen) for i in indices]] = True
    return _pack(rows)


def is_clopen_subobject(poset: ContextPoset, subobject: ClopenSubobject) -> bool:
    """True iff the selected characters form a down-set under restriction:
    every restriction of a selected character is selected.  An index outside
    a context's atoms, or one that is not an integer, is no character, so it
    makes the selection not clopen."""
    bits = _character_bits(poset, subobject, "subobject")
    if bits is None:
        return False
    # No selected character's down-set int meets the complement.
    below = poset._character_rows
    outside = ((1 << len(below)) - 1) ^ bits
    return not any(map(outside.__and__, compress(below, _flags(bits, len(below)))))


def _require_characters(
    poset: ContextPoset, s1: ClopenSubobject, s2: ClopenSubobject | None = None
) -> tuple[int, int]:
    # The character ints of the operands, each selecting characters of the
    # poset, or UnknownCharacter; a missing second operand is the empty subobject.
    ints = []
    for name, s in zip(("first", "second"), (s1,) if s2 is None else (s1, s2)):
        ints.append(_character_bits(poset, s, f"{name} subobject"))
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
