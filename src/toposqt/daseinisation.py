"""Outer and inner approximation of operators into a context.

Every approximation is read off one rule: each atom a of the context gets the
least and the greatest eigenvalue of a self-adjoint A whose spectral
projection it touches (||aQ||_F^2 > tau^2, an entry of ``touch_table``, or of
``cluster_table`` against A's eigenvector clusters, as interval values read
it).  The outer approximation (smallest member of the context spectrally above
A) is sum_a lambda_max(a) a, and the inner one (largest below A) is
sum_a lambda_min(a) a.  A projection P is the two-valued quantity with value
0 on 1 - P and 1 on P, on which the spectral order is the projection order:
its outer approximation is the sum of the atoms touching P, and its inner one
the sum of the atoms touching P but not 1 - P, where P's characters evaluate
to 1: each atom weighs 0 or 1 (``_weights``).  An atom touching neither (only
possible at a large tau) has no weight, and both approximations reject it.
In one context the table's rows are the context's atoms.  Over a whole poset
they are the seed atoms: an atom touches Q iff the entries of the seed atoms
it sums add up to more than tau^2 (||aQ||_F^2 = sum_b ||bQ||_F^2 for
orthogonal b).  There the weights, packed, are the subobject's int over the
character bits, and the approximations of all contexts of n atoms are one
masked sum over the poset's stack of their atoms.  That sum adds the atoms
in atom order, as the per-context one does, so it has its bits;
``np.add.reduceat`` does not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contexts import Context, ContextPoset
from .errors import ValidationError
from .operators import (
    TAU,
    TAU_EIG,
    Tolerances,
    _checked_projector,
    _clusters,
    _column_table,
    _tau,
    as_operator,
    cluster_table,
    identity,
    require_projector,
    table_bounds,
    touch_table,
    zero,
)
from .presheaf import ClopenSubobject, _pack


def _approximation(context: Context, values) -> np.ndarray:
    # sum_a value(a) a over the atoms.  Only nonzero values are added, in
    # place and in atom order, and a value of 1 adds the atom itself.
    out = zero(context.dim)
    for a, value in zip(context.atoms, values):
        if value == 1.0:
            out += a
        elif value:
            out += value * a
    return out


def _weights(rows: np.ndarray, end: int, tau: float) -> np.ndarray:
    # Each atom's weight in P's inner (end 0) or outer (end 1) approximation, from its touch_table
    # row against (1 - P, P): outer, it touches P; inner, it misses 1 - P; touching neither, none.
    hits = rows > tau * tau
    if not (hits[:, 0] | hits[:, 1]).all():
        raise ValidationError(f"an atom touches no projection of the family at tau={tau}")
    return hits[:, 1] if end else ~hits[:, 0]


def _projection(P, context: Context, tau: float, end: int) -> np.ndarray:
    # The inner (end 0) or outer (end 1) approximation of P in one context,
    # off the touch_table against the columns (1 - P | P) kept with P's check.
    rows = _column_table(np.asarray(context.atoms), _checked_projector(P, tau, columns=True)[1])
    return _approximation(context, _weights(rows, end, _tau(tau)).tolist())


def outer_daseinise_projection(P, context: Context, tau: float = TAU) -> np.ndarray:
    """Smallest projection of the context dominating P.

    Equals the sum of the atoms that P touches (a P != 0); the identity when
    every atom is touched, zero only for P = 0.
    """
    return _projection(P, context, tau, 1)


def inner_daseinise_projection(P, context: Context, tau: float = TAU) -> np.ndarray:
    """Largest projection of the context dominated by P: the sum of the
    atoms that touch P but not 1 - P."""
    return _projection(P, context, tau, 0)


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
    # The inner (end 0) or outer (end 1) daseinisation of a checked projection
    # from every poset atom's weight, read off one touch_table of the seed
    # atoms.  The weights are the subobject's int over the character bits.
    # Adding 0.0 clears a negative zero that a reduction starting from its
    # first term keeps.
    seeds, sums = poset._seed_sums
    w = _weights(sums @ touch_table(seeds, (identity(P.shape[0]) - P, P)), end, poset.tolerances.tau)
    projectors, first, starts = {}, 0, poset._row_starts
    for stack in poset._atom_stacks:
        k, n = stack.shape[:2]
        out = (stack * w[starts[first] : starts[first + k]].reshape(k, n, 1, 1)).sum(axis=1)
        out += 0.0
        projectors.update(zip(poset.ids[first : first + k], out))
        first += k
    return DaseinisedProposition(P, projectors, ClopenSubobject._of(poset, _pack(w.tobytes())))


def _selfadjoint(A, context: Context, tau: float, tau_eig: float, end: int) -> np.ndarray:
    # The inner (end 0) or outer (end 1) approximation of A in one context.
    tolerances = Tolerances(tau, tau_eig)
    eigenvalues, vecs, starts = _clusters(as_operator(A), tolerances)
    bounds = table_bounds(cluster_table(np.asarray(context.atoms), vecs, starts), eigenvalues, tolerances.tau)
    return _approximation(context, [bound[end] for bound in bounds])


def outer_daseinise_selfadjoint(
    A, context: Context, tau: float = TAU, tau_eig: float = TAU_EIG
) -> np.ndarray:
    """Smallest member of the context spectrally above A: sum_a lambda_max(a) a.

    lambda_max(a) is the greatest eigenvalue of A whose spectral projection
    the atom a touches.  The result is spectrally above A and its spectrum
    is contained in A's.
    """
    return _selfadjoint(A, context, tau, tau_eig, 1)


def inner_daseinise_selfadjoint(
    A, context: Context, tau: float = TAU, tau_eig: float = TAU_EIG
) -> np.ndarray:
    """Largest member of the context spectrally below A: sum_a lambda_min(a) a,
    with lambda_min(a) the least eigenvalue whose spectral projection a touches."""
    return _selfadjoint(A, context, tau, tau_eig, 0)
