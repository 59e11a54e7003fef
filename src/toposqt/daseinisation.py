"""Outer and inner approximation of operators into a context.

Every approximation is read off one rule: each atom a of the context gets
the least and the greatest eigenvalue of a self-adjoint A whose spectral
projection it touches (||aQ||_F^2 > tau^2, an entry of ``touch_table``).
The outer approximation (smallest member of the context spectrally above A)
is sum_a lambda_max(a) a, and the inner one (largest below A) is
sum_a lambda_min(a) a.  A projection P is the two-valued quantity with value
0 on 1 - P and 1 on P, on which the spectral order is the projection order:
its outer approximation is the sum of the atoms touching P, and its inner
one the sum of the atoms touching P but not 1 - P, where P's characters
evaluate to 1.  An atom touching neither (only possible at a large tau) has
no bound, and both approximations reject it.  In one context the table's
rows are the context's atoms.  Over a whole poset they are the seed atoms:
an atom touches Q iff the entries of the seed atoms it sums add up to more
than tau^2 (||aQ||_F^2 = sum_b ||bQ||_F^2 for orthogonal b).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .contexts import Context, ContextPoset
from .operators import (
    TAU,
    TAU_EIG,
    _two_valued,
    require_projector,
    spectral_bounds,
    spectral_decomposition,
    table_bounds,
    touch_table,
    zero,
)
from .presheaf import ClopenSubobject


def _approximation(context: Context, bounds, end: int) -> np.ndarray:
    # sum_a bound(a) a, with each atom's least (end 0) or greatest (end 1)
    # bound.  Only nonzero bounds are added, in place and in atom order, and
    # a bound of 1 adds the atom itself.
    out = zero(context.dim)
    for a, bound in zip(context.atoms, bounds):
        value = bound[end]
        if value == 1.0:
            out += a
        elif value:
            out += value * a
    return out


def outer_daseinise_projection(P, context: Context, tau: float = TAU) -> np.ndarray:
    """Smallest projection of the context dominating P.

    Equals the sum of the atoms that P touches (a P != 0); the identity when
    every atom is touched, zero only for P = 0.
    """
    bounds = spectral_bounds(_two_valued(require_projector(P, tau)), context.atoms, tau)
    return _approximation(context, bounds, 1)


def inner_daseinise_projection(P, context: Context, tau: float = TAU) -> np.ndarray:
    """Largest projection of the context dominated by P: the sum of the
    atoms that touch P but not 1 - P."""
    bounds = spectral_bounds(_two_valued(require_projector(P, tau)), context.atoms, tau)
    return _approximation(context, bounds, 0)


@dataclass(frozen=True)
class DaseinisedProposition:
    """A projection with its per-context approximations and the characters
    where each is 1.  Those of the outer approximations form a clopen
    subobject of the spectral presheaf.  Those of the inner ones, where
    delta^i(P)_V is 1, need not: a character can be selected while its
    restriction to a subcontext is not, so that ``subobject`` is not clopen
    in general."""

    source: np.ndarray
    per_context_projector: dict[str, np.ndarray]
    subobject: ClopenSubobject


def daseinise_proposition(poset: ContextPoset, P, tau: float | None = None) -> DaseinisedProposition:
    """Outer-daseinise a projection over every context of the poset, at the
    poset's tau."""
    return _daseinise(poset, require_projector(P, poset._tolerance(tau).tau), 1)


def inner_daseinise_proposition(poset: ContextPoset, P) -> DaseinisedProposition:
    """Inner-daseinise a projection over every context of the poset, at the
    poset's tau: ``inner_daseinise_projection`` at each context, read off
    the seed-atom table of ``daseinise_proposition``.  The ``subobject``
    holds the characters where delta^i(P)_V is 1; it is not a clopen
    subobject in general, and it is not checked as one."""
    return _daseinise(poset, require_projector(P, poset.tolerances.tau), 0)


def _daseinise(poset: ContextPoset, P: np.ndarray, end: int) -> DaseinisedProposition:
    # The inner (end 0) or outer (end 1) daseinisation of a checked projection:
    # each context's atom bounds, read off one touch_table of the seed atoms
    # against (1 - P, P) at the poset's tau, give its approximation and the
    # atoms where that is 1.
    family = _two_valued(P)
    seeds, sums, _ = poset._seed_sums
    bounds = iter(table_bounds(sums @ touch_table(seeds, family.projectors), family.eigenvalues, poset.tolerances.tau))
    projectors, selection = {}, {}
    for c in poset:
        own = list(islice(bounds, c.n_atoms))
        projectors[c.id] = _approximation(c, own, end)
        selection[c.id] = frozenset(i for i, b in enumerate(own) if b[end])
    return DaseinisedProposition(P, projectors, ClopenSubobject(selection))


def outer_daseinise_selfadjoint(
    A, context: Context, tau: float = TAU, tau_eig: float = TAU_EIG
) -> np.ndarray:
    """Smallest member of the context spectrally above A: sum_a lambda_max(a) a.

    lambda_max(a) is the greatest eigenvalue of A whose spectral projection
    the atom a touches.  The result is spectrally above A and its spectrum
    is contained in A's.
    """
    bounds = spectral_bounds(spectral_decomposition(A, tau, tau_eig), context.atoms, tau)
    return _approximation(context, bounds, 1)


def inner_daseinise_selfadjoint(
    A, context: Context, tau: float = TAU, tau_eig: float = TAU_EIG
) -> np.ndarray:
    """Largest member of the context spectrally below A: sum_a lambda_min(a) a,
    with lambda_min(a) the least eigenvalue whose spectral projection a touches."""
    bounds = spectral_bounds(spectral_decomposition(A, tau, tau_eig), context.atoms, tau)
    return _approximation(context, bounds, 0)
