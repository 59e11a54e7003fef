"""The spectral presheaf: Gelfand spectra, restriction maps, clopen subobjects.

Per context the Gelfand spectrum is finite and discrete: each multiplicative
unital functional sends exactly one atom to 1, so a character is stored as an
atom index.  Evaluation is coefficient lookup, restriction follows atom
domination, and a clopen subobject is a per-context subset of atom indices
that is compatible with every restriction map.

The clopen subobjects are the down-sets of the characters ordered by
restriction; ``_implication`` is the one rule for down-sets that this module,
the logic layer and the truth values share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Callable, Iterable, Mapping

import numpy as np

from .contexts import Context, ContextPoset, restriction_table
from .errors import IncompleteAssignment, NotASubcontext, NotInAlgebra, UnknownCharacter
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
    if not 0 <= character.atom_index < context.n_atoms:
        raise UnknownCharacter(f"atom index {character.atom_index} out of range")


class ClopenSubobject:
    """Per-context subsets of the spectrum (all subsets are clopen here).

    ``selection`` maps context id to the chosen atom indices.  Functoriality
    (restrictions stay inside the selection) is checked by
    :func:`is_clopen_subobject`, not enforced on construction.
    """

    __slots__ = ("selection",)

    def __init__(self, selection: Mapping[str, frozenset[int]]) -> None:
        self.selection: dict[str, frozenset[int]] = {
            cid: frozenset(indices) for cid, indices in selection.items()
        }

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


def _implication(down: Callable[..., Iterable], elements: Iterable, outside: AbstractSet) -> list:
    # The elements x whose down-set ``down(x)`` misses ``outside = S - T``,
    # i.e. meets S only inside T: the Heyting implication S => T of down-sets,
    # restricted to ``elements``.  With ``outside`` the complement of T it is
    # the largest down-set inside T, so T is a down-set iff it keeps all of T.
    return [x for x in elements if outside.isdisjoint(down(x))]


def is_clopen_subobject(poset: ContextPoset, subobject: ClopenSubobject) -> bool:
    """True iff the selected characters form a down-set under restriction:
    every restriction of a selected character is selected.  An index outside
    a context's atoms is no character, so it makes the selection not clopen."""
    if set(subobject.selection.keys()) != set(poset.ids):
        raise IncompleteAssignment("subobject must assign a subset to every poset context")
    atoms = {c.id: frozenset(range(c.n_atoms)) for c in poset}
    if not all(subobject.at(cid) <= indices for cid, indices in atoms.items()):
        return False
    chosen = [(cid, i) for cid, indices in atoms.items() for i in indices if i in subobject.at(cid)]
    outside = {(cid, j) for cid, indices in atoms.items() for j in indices - subobject.at(cid)}
    return len(_implication(poset._character_down, chosen, outside)) == len(chosen)


def subobject_leq(poset: ContextPoset, s1: ClopenSubobject, s2: ClopenSubobject) -> bool:
    """Contextwise inclusion of subobjects."""
    return all(s1.at(cid) <= s2.at(cid) for cid in poset.ids)


def subobject_of_projector(context: Context, projector, tau: float = TAU) -> frozenset[int]:
    """Atom indices where a projection member of the context evaluates to 1:
    the atoms whose least bound in the two-valued quantity P is 1, i.e. that
    touch P but not its complement."""
    P = require_projector(projector, tau)
    bounds = spectral_bounds(_two_valued(P), context.atoms, tau)
    return frozenset(i for i, (lo, _) in enumerate(bounds) if lo == 1.0)
