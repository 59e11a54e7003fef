"""Outer and inner approximation of operators into a context.

Every approximation is read off one touch test: whether an atom a of the
context touches a projection Q (||aQ||_F > tau).  For a projection P, the
outer approximation (smallest projection of the context above P) is the sum
of the atoms touching P, and the inner one (largest projection below P) is
the sum of the atoms that do not touch 1 - P, where P's characters evaluate
to 1.  For a self-adjoint A and its spectral projections, the
spectral-order outer approximation takes on each atom the greatest
eigenvalue whose spectral projection the atom touches, and the inner one the
least: sum_a lambda_max(a) a and sum_a lambda_min(a) a.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .contexts import Context, ContextPoset
from .errors import ValidationError
from .operators import (
    TAU,
    TAU_EIG,
    SpectralDecomposition,
    identity,
    require_projector,
    spectral_decomposition,
    touch_masks,
    zero,
)
from .presheaf import ClopenSubobject, subobject_of_projector


def _touch_range(
    atoms: Sequence[np.ndarray], family: Sequence[np.ndarray], tau: float
) -> list[tuple[int, int]]:
    # For each atom, the indices of the first and the last projection of the
    # orthogonal family ``family`` that it touches.
    ranges = []
    for mask in touch_masks(atoms, family, tau):
        if not mask:
            raise ValidationError(f"an atom touches no projection of the family at tau={tau}")
        ranges.append(((mask & -mask).bit_length() - 1, mask.bit_length() - 1))
    return ranges


def _touches(P: np.ndarray, atoms: Sequence[np.ndarray], tau: float) -> list[bool]:
    # Whether each atom touches P, read off (1 - P, P) to reject huge tau.
    return [last == 1 for _, last in _touch_range(atoms, (identity(P.shape[0]) - P, P), tau)]


def spectral_bounds(decomp: SpectralDecomposition, atoms, tau: float) -> list[tuple[float, float]]:
    """For each atom, the least and the greatest eigenvalue whose spectral
    projection the atom touches."""
    ranges = _touch_range(atoms, decomp.projectors, tau)
    return [(decomp.eigenvalues[first], decomp.eigenvalues[last]) for first, last in ranges]


def _atom_sum(context: Context, indices) -> np.ndarray:
    out = zero(context.dim)
    for i in indices:
        out += context.atoms[i]
    return out


def outer_daseinise_projection(P, context: Context, tau: float = TAU) -> np.ndarray:
    """Smallest projection of the context dominating P.

    Equals the sum of the atoms that P touches (a P != 0); the identity when
    every atom is touched, zero only for P = 0.
    """
    touched = _touches(require_projector(P, tau), context.atoms, tau)
    return _atom_sum(context, (i for i, hit in enumerate(touched) if hit))


def inner_daseinise_projection(P, context: Context, tau: float = TAU) -> np.ndarray:
    """Largest projection of the context dominated by P: the sum of the
    atoms that do not touch 1 - P."""
    return _atom_sum(context, subobject_of_projector(context, P, tau))


@dataclass(frozen=True)
class DaseinisedProposition:
    """A projection together with its per-context approximations and their
    character sets (one clopen subobject of the spectral presheaf)."""

    source: np.ndarray
    per_context_projector: dict[str, np.ndarray]
    subobject: ClopenSubobject


def daseinise_proposition(poset: ContextPoset, P, tau: float = TAU) -> DaseinisedProposition:
    """Outer-daseinise a projection over every context of the poset."""
    P = require_projector(P, tau)
    hits = iter(_touches(P, [a for c in poset for a in c.atoms], tau))
    projectors: dict[str, np.ndarray] = {}
    selection: dict[str, frozenset[int]] = {}
    for context in poset:
        touched = [i for i in range(context.n_atoms) if next(hits)]
        projectors[context.id] = _atom_sum(context, touched)
        selection[context.id] = frozenset(touched)
    return DaseinisedProposition(P, projectors, ClopenSubobject(selection))


def _spectral_bound(A, context: Context, end: int, tau: float, tau_eig: float) -> np.ndarray:
    # Each atom times the eigenvalue at the first (end 0) or last (end 1)
    # spectral projection of A that it touches.
    bounds = spectral_bounds(spectral_decomposition(A, tau, tau_eig), context.atoms, tau)
    return sum((b[end] * a for a, b in zip(context.atoms, bounds)), zero(context.dim))


def outer_daseinise_selfadjoint(
    A, context: Context, tau: float = TAU, tau_eig: float = TAU_EIG
) -> np.ndarray:
    """Smallest member of the context spectrally above A: sum_a lambda_max(a) a.

    lambda_max(a) is the greatest eigenvalue of A whose spectral projection
    the atom a touches.  The result is spectrally above A and its spectrum
    is contained in A's.
    """
    return _spectral_bound(A, context, 1, tau, tau_eig)


def inner_daseinise_selfadjoint(
    A, context: Context, tau: float = TAU, tau_eig: float = TAU_EIG
) -> np.ndarray:
    """Largest member of the context spectrally below A: sum_a lambda_min(a) a,
    with lambda_min(a) the least eigenvalue whose spectral projection a touches."""
    return _spectral_bound(A, context, 0, tau, tau_eig)
