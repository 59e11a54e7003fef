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
Operands are checked as README's boundary contract says.
"""

from __future__ import annotations

import numbers
import operator
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import chain

import numpy as np

from ._json import brief_repr, integer
from .contexts import Context, ContextPoset, restriction_table
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
    """

    __slots__ = ("selection",)

    def __init__(self, selection: Mapping[str, frozenset[int]]) -> None:
        # A selection of frozensets, such as the library makes, is copied whole.
        selection = _mapping(selection, "selection")
        if {frozenset}.issuperset(map(type, selection.values())):
            self.selection: dict[str, frozenset[int]] = dict(selection)
            return
        self.selection = {}
        for cid, indices in selection.items():
            try:
                self.selection[cid] = frozenset(indices)
            except TypeError:
                raise ValidationError(f"selection at {cid!r} is no set of indices: {brief_repr(indices)}") from None

    def at(self, context_id: str) -> frozenset[int]:
        return self.selection[context_id]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ClopenSubobject):
            return NotImplemented
        return self.selection == other.selection

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(f"{cid}:{sorted(v)}" for cid, v in sorted(self.selection.items()))
        return f"ClopenSubobject({parts})"


def full_subobject(poset: ContextPoset) -> ClopenSubobject:
    """The maximal subobject: the whole spectrum at every context."""
    return ClopenSubobject(poset._atom_indices)


def empty_subobject(poset: ContextPoset) -> ClopenSubobject:
    """The minimal subobject: empty at every context."""
    return ClopenSubobject({c.id: frozenset() for c in poset})


def _mapping(value, name: str) -> Mapping:
    # A per-context mapping as given, or ValidationError naming it.
    if not isinstance(value, Mapping):
        raise ValidationError(f"{name} is not a mapping of context ids: {brief_repr(value)}")
    return value


def _require_contexts(poset: ContextPoset, assignment: Mapping, name: str) -> None:
    # A subobject, global element or section holds one value per poset
    # context and at no other context.
    if _mapping(assignment, name).keys() != poset._atom_indices.keys():
        raise IncompleteAssignment(f"{name} must be defined on every context of the poset and on no other")


def _selects_characters(poset: ContextPoset, selection: Mapping[str, frozenset], name: str) -> bool:
    # Under the coverage rule, whether each index is an atom of its context:
    # an integer in range (a bool or a float equal to one passes the subset test).
    _require_contexts(poset, selection, name)
    kinds = set(map(type, chain.from_iterable(selection.values())))
    return all(issubclass(k, numbers.Integral) and k is not bool for k in kinds) and all(
        map(operator.le, map(selection.__getitem__, poset.ids), poset._atom_indices.values()))


def is_clopen_subobject(poset: ContextPoset, subobject: ClopenSubobject) -> bool:
    """True iff the selected characters form a down-set under restriction:
    every restriction of a selected character is selected.  An index outside
    a context's atoms, or one that is not an integer, is no character, so it
    makes the selection not clopen."""
    if not _selects_characters(poset, subobject.selection, "subobject"):
        return False
    top, below, _ = poset._characters
    outside = ~sum(1 << (top[cid] - int(i)) for cid, indices in subobject.selection.items() for i in indices)
    return not any(below[cid][i] & outside for cid, indices in subobject.selection.items() for i in indices)


def _require_characters(poset: ContextPoset, *subobjects: ClopenSubobject) -> None:
    # Each operand selects characters of the poset, or UnknownCharacter.
    for name, s in zip(("first", "second"), subobjects):
        if not _selects_characters(poset, s.selection, f"{name} subobject"):
            raise UnknownCharacter(f"{name} subobject selects an index outside its context's atoms")


def subobject_leq(poset: ContextPoset, s1: ClopenSubobject, s2: ClopenSubobject) -> bool:
    """Contextwise inclusion of subobjects, each defined on exactly the
    poset's contexts.  An operand that selects an index outside its
    context's atoms, or one that is not an integer, which is no character,
    raises ``UnknownCharacter``."""
    _require_characters(poset, s1, s2)
    return all(s1.at(cid) <= s2.at(cid) for cid in poset.ids)
