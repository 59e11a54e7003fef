"""Independent brute-force oracles the implementation is checked against.

Everything here is deliberately naive: subset enumeration, full filters over
power sets, monotone-family scans.  None of it shares code paths with the
library functions it validates.
"""

from __future__ import annotations

from itertools import combinations, product

import numpy as np

from toposqt.contexts import Context, ContextPoset
from toposqt.operators import projector_leq, spectral_decomposition, spectral_order_leq, touch_masks, zero


def all_projections(context: Context) -> list[np.ndarray]:
    """The full Boolean lattice of the context: all 2^k subset sums of atoms."""
    n = len(context.atoms)
    out = []
    for r in range(n + 1):
        for subset in combinations(range(n), r):
            total = zero(context.dim)
            for i in subset:
                total = total + context.atoms[i]
            out.append(total)
    return out


def brute_outer_projection(P: np.ndarray, context: Context) -> np.ndarray:
    """Minimum of the projections of the context dominating P."""
    candidates = [R for R in all_projections(context) if projector_leq(P, R)]
    best = candidates[0]
    for R in candidates[1:]:
        if projector_leq(R, best):
            best = R
    assert all(projector_leq(best, R) for R in candidates)
    return best


def brute_inner_projection(P: np.ndarray, context: Context) -> np.ndarray:
    """Maximum of the projections of the context dominated by P."""
    candidates = [R for R in all_projections(context) if projector_leq(R, P)]
    best = candidates[0]
    for R in candidates[1:]:
        if projector_leq(best, R):
            best = R
    assert all(projector_leq(R, best) for R in candidates)
    return best


def is_sum_of_atoms(context: Context, R: np.ndarray, tau: float = 1e-9) -> bool:
    """Membership of a projection in the context, by exhaustive subset sums."""
    return any(np.linalg.norm(R - S) <= tau for S in all_projections(context))


def brute_meet(v1: Context, v2: Context, tau: float = 1e-9) -> list[np.ndarray] | None:
    """Atoms of the intersection algebra: the minimal nonzero subset sums of
    v1 that are also subset sums of v2, or ``None`` when only 0 and 1 are."""
    common = [S for S in all_projections(v1)[1:] if is_sum_of_atoms(v2, S, tau)]
    minimal = [
        S
        for S in common
        if not any(np.linalg.norm(T - S) > tau and projector_leq(T, S, tau) for T in common)
    ]
    return minimal if len(minimal) >= 2 else None


def downsets_brute(elements, is_leq) -> set[frozenset]:
    """All downward-closed subsets, by filtering the whole power set."""
    elements = list(elements)
    out = set()
    for r in range(len(elements) + 1):
        for subset in combinations(elements, r):
            chosen = set(subset)
            if all(
                all((other in chosen) or not is_leq(other, member) for other in elements)
                for member in chosen
            ):
                out.add(frozenset(chosen))
    return out


def members_with_spectrum_in(context: Context, grid) -> list[np.ndarray]:
    """All self-adjoint members of the context with spectrum inside the grid.

    Candidates are rebuilt from every monotone projector family over the
    context's lattice that ends at the identity.
    """
    projections = all_projections(context)
    dim = context.dim
    identity_idx = [
        i for i, R in enumerate(projections) if np.linalg.norm(R - np.eye(dim)) <= 1e-9
    ]
    out = []
    seen = set()
    for family in product(range(len(projections)), repeat=len(grid)):
        if family[-1] not in identity_idx:
            continue
        mats = [projections[i] for i in family]
        monotone = all(
            projector_leq(mats[i], mats[i + 1]) for i in range(len(mats) - 1)
        )
        if not monotone:
            continue
        op = zero(dim)
        prev = zero(dim)
        for r, E in zip(grid, mats):
            op = op + r * (E - prev)
            prev = E
        key = tuple(np.round(op.reshape(-1), 9).tolist())
        if key not in seen:
            seen.add(key)
            out.append(op)
    return out


def brute_outer_selfadjoint(A: np.ndarray, context: Context, grid) -> np.ndarray:
    """Spectral-order minimum over the context members above A (grid-supported)."""
    candidates = [B for B in members_with_spectrum_in(context, grid) if spectral_order_leq(A, B)]
    best = candidates[0]
    for B in candidates[1:]:
        if spectral_order_leq(B, best):
            best = B
    assert all(spectral_order_leq(best, B) for B in candidates)
    return best


def brute_inner_selfadjoint(A: np.ndarray, context: Context, grid) -> np.ndarray:
    """Spectral-order maximum over the context members below A (grid-supported)."""
    candidates = [B for B in members_with_spectrum_in(context, grid) if spectral_order_leq(B, A)]
    best = candidates[0]
    for B in candidates[1:]:
        if spectral_order_leq(best, B):
            best = B
    assert all(spectral_order_leq(B, best) for B in candidates)
    return best


def touch_selection(poset: ContextPoset, P: np.ndarray, tau: float = 1e-9) -> dict[str, frozenset[int]]:
    """Per context, the atoms whose own matrices touch P (||aP||_F > tau)."""
    return {c.id: frozenset(i for i, m in enumerate(touch_masks(c.atoms, [P], tau)) if m) for c in poset}


def touch_truth(poset: ContextPoset, P: np.ndarray, psi: np.ndarray, tau: float = 1e-9) -> dict[str, frozenset[str]]:
    """Per context V, the subcontexts W of V at and below which every atom
    matrix touching the ray of psi also touches P."""
    outer = touch_selection(poset, P, tau)
    state = touch_selection(poset, np.outer(psi, psi.conj()), tau)
    fails = {cid for cid in poset.ids if not state[cid] <= outer[cid]}
    certain = {cid for cid in poset.ids if fails.isdisjoint(poset.down_ids(cid))}
    return {cid: frozenset(certain.intersection(poset.down_ids(cid))) for cid in poset.ids}


def touch_interval(poset: ContextPoset, A: np.ndarray, context: Context, atom: int, tau: float = 1e-9):
    """(mu, nu) of a character, from the matrix of the atom it restricts to at
    each subcontext: the least and greatest eigenvalue it touches."""
    decomp = spectral_decomposition(A, tau)
    lam = decomp.eigenvalues
    mu, nu = {}, {}
    for sub_id in poset.down_ids(context.id):
        restricted = poset.get(sub_id).atoms[poset.restriction_indices(context.id, sub_id)[atom]]
        mask = touch_masks([restricted], decomp.projectors, tau)[0]
        touched = [k for k in range(len(lam)) if mask >> k & 1]
        mu[sub_id], nu[sub_id] = lam[touched[0]], lam[touched[-1]]
    return mu, nu


def random_unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_projector(rng: np.random.Generator, dim: int, rank: int) -> np.ndarray:
    gauss = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(gauss)
    block = q[:, :rank]
    return block @ block.conj().T


def random_self_adjoint(rng: np.random.Generator, dim: int) -> np.ndarray:
    gauss = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (gauss + gauss.conj().T) / 2.0
