"""Outer and inner approximation of operators into a context.

A projection is approximated from above by the smallest projection of the
context dominating it (outer) and from below by the largest projection it
dominates (inner).  A self-adjoint operator is approximated in the spectral
order by daseinising its cumulative spectral family pointwise and rebuilding
the operator from the jumps; because the spectrum is finite the integral over
the family collapses to an exact finite sum over the eigenvalue grid, and the
daseinised family is constant between grid points, hence right-continuous
as it stands.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contexts import Context, ContextPoset
from .operators import (
    TAU,
    TAU_EIG,
    SpectralDecomposition,
    projector_leq,
    require_projector,
    spectral_decomposition,
    spectral_family_at,
    zero,
)
from .presheaf import ClopenSubobject


def _touched_atoms(P: np.ndarray, context: Context, tau: float) -> tuple[int, ...]:
    # Indices of the atoms a with aP != 0 (norm above tau).
    return tuple(i for i, a in enumerate(context.atoms) if float(np.linalg.norm(a @ P)) > tau)


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
    P = require_projector(P, tau)
    return _atom_sum(context, _touched_atoms(P, context, tau))


def inner_daseinise_projection(P, context: Context, tau: float = TAU) -> np.ndarray:
    """Largest projection of the context dominated by P: the sum of atoms <= P."""
    P = require_projector(P, tau)
    return _atom_sum(context, (i for i, a in enumerate(context.atoms) if projector_leq(a, P, tau)))


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
    projectors: dict[str, np.ndarray] = {}
    selection: dict[str, frozenset[int]] = {}
    for context in poset:
        touched = _touched_atoms(P, context, tau)
        projectors[context.id] = _atom_sum(context, touched)
        selection[context.id] = frozenset(touched)
    return DaseinisedProposition(P, projectors, ClopenSubobject(selection))


def _daseinise_decomposition(
    decomp: SpectralDecomposition, context: Context, approximate, tau: float, tau_eig: float
) -> np.ndarray:
    # Approximate each cumulative spectral projection with ``approximate`` and
    # rebuild the operator from the jumps of the family on the eigenvalue grid.
    out = zero(context.dim)
    previous = zero(context.dim)
    for r in decomp.eigenvalues:
        proj = approximate(spectral_family_at(decomp, r, tau_eig), context, tau)
        out += r * (proj - previous)
        previous = proj
    return out


def outer_daseinise_selfadjoint(
    A, context: Context, tau: float = TAU, tau_eig: float = TAU_EIG
) -> np.ndarray:
    """Smallest member of the context spectrally above A.

    Inner-daseinises each cumulative spectral projection of A and rebuilds
    the operator from the jumps of the resulting family on A's eigenvalue
    grid.  The result lies in the context, is spectrally above A, and its
    spectrum is contained in A's.
    """
    decomp = spectral_decomposition(A, tau, tau_eig)
    return _daseinise_decomposition(decomp, context, inner_daseinise_projection, tau, tau_eig)


def inner_daseinise_selfadjoint(
    A, context: Context, tau: float = TAU, tau_eig: float = TAU_EIG
) -> np.ndarray:
    """Largest member of the context spectrally below A.

    Outer-daseinises each cumulative spectral projection of A.  On a finite
    grid the resulting family is constant on the half-open intervals between
    consecutive eigenvalues, so it is already right-continuous and the meet
    over strictly larger parameters equals the pointwise value.
    """
    decomp = spectral_decomposition(A, tau, tau_eig)
    return _daseinise_decomposition(decomp, context, outer_daseinise_projection, tau, tau_eig)
