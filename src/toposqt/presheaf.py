"""The spectral presheaf: Gelfand spectra, restriction maps, clopen subobjects.

Per context the Gelfand spectrum is finite and discrete: each multiplicative
unital functional sends exactly one atom to 1, so a character is stored as an
atom index.  Evaluation is coefficient lookup, restriction follows atom
domination, and a clopen subobject is a per-context subset of atom indices
that is compatible with every restriction map.

The clopen subobjects are the down-sets of the characters ordered by
restriction.  One rule decides down-sets: x lies in S => T iff its down-set
meets S only inside T.  ``_implication`` applies it to the character order,
each character's down-set a frozenset; the context order (sieves, truth
values, global elements) is read off the poset's down-set ints instead.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass
from itertools import chain
from typing import AbstractSet, Iterable, Mapping

import numpy as np

from ._json import brief_repr
from .contexts import Context, ContextPoset, restriction_table
from .errors import IncompleteAssignment, NotASubcontext, NotInAlgebra, UnknownCharacter, ValidationError
from .operators import TAU, _two_valued, as_operator, require_projector, require_same_dim, spectral_bounds


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
    residual = A - sum(c * a for c, a in zip(coeffs, context.atoms))
    if float(np.linalg.norm(residual)) > tau:
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
    if character.context_id != context.id:
        raise UnknownCharacter(
            f"character belongs to {character.context_id!r}, not {context.id!r}"
        )
    index = character.atom_index
    if isinstance(index, bool) or not isinstance(index, numbers.Integral):
        raise UnknownCharacter(f"atom index must be an integer, got {brief_repr(index)}")
    if not 0 <= index < context.n_atoms:
        raise UnknownCharacter(f"atom index {index} out of range")


class ClopenSubobject:
    """Per-context subsets of the spectrum (all subsets are clopen here).

    ``selection`` maps context id to the chosen atom indices.  Functoriality
    (restrictions stay inside the selection) is checked by
    :func:`is_clopen_subobject`, not enforced on construction.
    """

    __slots__ = ("selection",)

    def __init__(self, selection: Mapping[str, frozenset[int]]) -> None:
        try:
            self.selection: dict[str, frozenset[int]] = {
                cid: frozenset(indices) for cid, indices in selection.items()
            }
        except TypeError:
            # Name the first context whose value is no iterable of hashables.
            for cid, indices in selection.items():
                try:
                    frozenset(indices)
                except TypeError:
                    raise ValidationError(
                        f"selection at {cid!r} is not a set of atom indices: {brief_repr(indices)}"
                    ) from None
            raise

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
    return ClopenSubobject(
        {c.id: frozenset(range(c.n_atoms)) for c in poset}
    )


def empty_subobject(poset: ContextPoset) -> ClopenSubobject:
    """The minimal subobject: empty at every context."""
    return ClopenSubobject({c.id: frozenset() for c in poset})


def _require_contexts(poset: ContextPoset, assignment: Mapping, name: str) -> None:
    # A subobject, global element or section holds one value per poset
    # context and at no other context.
    if assignment.keys() != poset._atom_indices.keys():
        raise IncompleteAssignment(f"{name} must be defined on every context of the poset and on no other")


def _implication(poset: ContextPoset, characters: Iterable[tuple[str, int]], outside: AbstractSet) -> list:
    # The characters x whose down-set under restriction misses ``outside =
    # S - T``, i.e. meets S only inside T: the implication S => T of clopen
    # subobjects, restricted to ``characters``.  With ``outside`` the complement
    # of T it is the largest down-set inside T, so T is clopen iff it keeps T.
    return [x for x in characters if outside.isdisjoint(poset._character_down[x])]


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
    chosen = [(cid, i) for cid, indices in subobject.selection.items() for i in indices]
    outside = {(cid, j) for cid, indices in poset._atom_indices.items() for j in indices - subobject.at(cid)}
    return len(_implication(poset, chosen, outside)) == len(chosen)


def subobject_leq(poset: ContextPoset, s1: ClopenSubobject, s2: ClopenSubobject) -> bool:
    """Contextwise inclusion of subobjects, each defined on exactly the
    poset's contexts."""
    for name, s in (("first", s1), ("second", s2)):
        _require_contexts(poset, s.selection, f"{name} subobject")
    return all(s1.at(cid) <= s2.at(cid) for cid in poset.ids)


def subobject_of_projector(context: Context, projector, tau: float = TAU) -> frozenset[int]:
    """Atom indices where a projection member of the context evaluates to 1:
    the atoms whose least bound in the two-valued quantity P is 1, i.e. that
    touch P but not its complement."""
    P = require_projector(projector, tau)
    bounds = spectral_bounds(_two_valued(P), context.atoms, tau)
    return frozenset(i for i, (lo, _) in enumerate(bounds) if lo == 1.0)
