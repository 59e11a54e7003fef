"""Independent brute-force oracles the implementation is checked against.

Everything here is deliberately naive: subset enumeration, full filters over
power sets, monotone-family scans.  None of it shares code paths with the
library functions it validates.
"""

from __future__ import annotations

from itertools import combinations, islice, product
from types import SimpleNamespace
from unittest import mock

import numpy as np

from toposqt import contexts
from toposqt.contexts import Context, ContextPoset, build_poset
from toposqt.errors import UnknownContext
from toposqt.operators import (
    TAU,
    SpectralDecomposition,
    identity,
    projector_leq,
    require_projector,
    spectral_decomposition,
    spectral_order_leq,
    table_bounds,
    touch_table,
    zero,
)


def restriction_maps(poset: ContextPoset) -> dict[tuple[str, str], tuple[int, ...]]:
    """The atom map of every inclusion W <= V, V itself included, keyed by
    (V, W): ``restriction_indices`` asked of every ordered pair of contexts,
    those it refuses being no inclusion."""
    maps = {}
    for sup, sub in product(poset.ids, repeat=2):
        try:
            maps[sup, sub] = poset.restriction_indices(sup, sub)
        except UnknownContext:
            pass
    return maps


def brute_is_clopen(poset: ContextPoset, selection: dict[str, frozenset[int]]) -> bool:
    """Every restriction of a selected character is selected."""
    return all(table[i] in selection[sub] for (sup, sub), table in restriction_maps(poset).items()
               for i in selection[sup])


def brute_implies(poset: ContextPoset, s1: dict, s2: dict) -> dict[str, frozenset[int]]:
    """Per context V, the atoms i such that, for every W <= V, the restriction
    of i to W lies in s1 only if it lies in s2."""
    maps = restriction_maps(poset)
    return {
        v: frozenset(
            i for i in range(len(maps[v, v]))
            if all(t[i] not in s1[w] or t[i] in s2[w] for (sup, w), t in maps.items() if sup == v)
        )
        for v in poset.ids
    }


def brute_connective(poset: ContextPoset, kind: str, s1: dict, s2: dict | None = None) -> dict[str, frozenset[int]]:
    """The subobject connective ``kind`` by the frozenset rules: ``and`` and
    ``or`` intersect and join per context, ``implies`` is ``brute_implies``,
    and ``not s1`` is s1 implies the empty selection."""
    if kind == "and":
        return {v: frozenset(s1[v] & s2[v]) for v in poset.ids}
    if kind == "or":
        return {v: frozenset(s1[v] | s2[v]) for v in poset.ids}
    return brute_implies(poset, s1, {v: frozenset() for v in poset.ids} if kind == "not" else s2)


def brute_sections(poset: ContextPoset) -> list[dict[str, int]]:
    """Every choice of one character per context whose restrictions agree.
    The product over the contexts, in sorted id order, is taken one factor at
    a time, and a partial choice is dropped at the first inclusion between
    two chosen contexts whose restriction map sends one choice elsewhere
    than the other (the full product of 19 contexts has 10^8 members)."""
    maps = restriction_maps(poset)
    partial: list[dict[str, int]] = [{}]
    for v in sorted(poset.ids):
        partial = [
            {**choice, v: i}
            for choice in partial
            for i in range(len(maps[v, v]))
            if all(maps[v, w][i] == j for w, j in choice.items() if (v, w) in maps)
            and all(maps[w, v][j] == i for w, j in choice.items() if (w, v) in maps)
        ]
    return partial


def brute_sieve_implies(elements, is_leq):
    """S => T on a down-set, read from ``is_leq`` alone: the function of two
    sets that keeps each element all of whose lower elements in S lie in T."""
    elements = list(elements)
    below = {x: frozenset(y for y in elements if is_leq(y, x)) for x in elements}
    return lambda s, t: frozenset(x for x in elements if below[x] & s <= t)


def brute_element_connective(poset: ContextPoset, kind: str, U1: frozenset, U2: frozenset) -> dict[str, frozenset]:
    """Per context V, the sieve connective ``kind`` of the traces of the
    down-sets U1 and U2 on the down-set of V, read from ``is_leq`` alone:
    their intersection or union, or, for ``implies``, the W <= V all of whose
    subcontexts in U1 lie in U2; ``not`` ignores U2 and implies the empty set."""
    out = {}
    for v in poset.ids:
        below = {w for w in poset.ids if poset.is_leq(w, v)}
        a, b = U1 & below, (frozenset() if kind == "not" else U2) & below
        if kind == "and":
            out[v] = frozenset(a & b)
        elif kind == "or":
            out[v] = frozenset(a | b)
        else:
            out[v] = frozenset(w for w in below if all(x in b for x in a if poset.is_leq(x, w)))
    return out


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


def same_context(v1, v2, tau: float = 1e-9) -> bool:
    """Equal atom sets, each atom matched by one within tau in norm."""
    return len(v1.atoms) == len(v2.atoms) and all(
        sum(np.linalg.norm(a - b) <= tau for b in v2.atoms) == 1 for a in v1.atoms
    )


def brute_poset_size(seeds, tau: float = 1e-9) -> int:
    """Number of distinct contexts spanned by the seeds: every algebra
    generated by a subset of one seed's atoms (other than the scalars), and
    the seeds closed under brute_meet, compared by their atom matrices."""
    found: list = []
    closure = list(seeds)
    for seed in seeds:
        n = len(seed.atoms)
        for r in range(1, n - 1):
            for subset in combinations(range(n), r):
                chosen = [seed.atoms[i] for i in subset]
                found.append(SimpleNamespace(atoms=chosen + [np.eye(seed.dim) - sum(chosen)], dim=seed.dim))
    grown = True
    while grown:
        grown = False
        for v1, v2 in product(list(closure), repeat=2):
            atoms = brute_meet(v1, v2, tau)
            meet = SimpleNamespace(atoms=atoms, dim=v1.dim)
            if atoms is not None and not any(same_context(meet, c, tau) for c in closure):
                closure.append(meet)
                grown = True
    distinct: list = []
    for context in found + closure:
        if not any(same_context(context, d, tau) for d in distinct):
            distinct.append(context)
    return len(distinct)


def admission_ids_of_all_pairs(seeds, tau: float = 1e-9) -> list[str]:
    """The ids of ``build_poset``'s registry in admission order when its meet
    closure visits every ordered pair of the contexts met so far, itself and
    two-atom contexts included, which the library skips.  The meets are the
    library's (components of the seed-atom masks, admitted by ``_add``), so
    this checks which pairs may be skipped, not how a meet is made."""

    def every_pair(registry, met, memo):
        start = 0
        while start < len(met):
            current = list(met.values())
            for new in current[start:]:
                for old in current:
                    groups = contexts._components([contexts._hits(t, old.own) for t in new.touch])
                    if len(groups) >= 2:
                        atoms = new.context.atoms
                        meet = contexts._add(registry, new, groups, lambda: contexts._key_atoms(
                            [sum(atoms[i] for i in g) for g in groups], memo))
                        met.setdefault(meet.context.id, meet)
            start = len(current)

    keep = staticmethod(lambda registry, atoms, tolerances: registry)
    with mock.patch.object(contexts, "_close_under_meets", every_pair), \
            mock.patch.object(ContextPoset, "_from_build", keep):
        return list(build_poset(seeds, tau).nodes)


def order_rows_by_product(nodes, width: int):
    """The rows of ``contexts._order_rows`` from a product of 0/1 matrices.

    For each node V (nodes sorted by falling atom count): its position, the
    positions of the nodes W with no more atoms than V that lie inside it,
    an array whose row k is the restriction table to the k-th of them, as
    atom indices (``_order_rows`` gives atom rows, each sub's first more), and
    those positions as an int, position p at bit len(nodes) - 1 - p.  Atom i
    of V hits atom k of W iff the seed atoms that i sums meet those that k
    touches; W <= V iff each atom of V hits exactly one atom of W, its
    restriction.  A hit of W's k-th atom weighs 1 + base * k, and the
    weighted hits are summed per node: each sum is 1 modulo base iff the
    atom hits one atom of W, whose index is the sum over base.
    """
    def bits(masks):
        return np.array([[m >> s & 1 for s in range(width)] for m in masks], dtype=np.int64)

    counts = [len(node.own) for node in nodes]
    starts = np.cumsum([0] + counts[:-1])
    own = bits([m for node in nodes for m in node.own])
    touch = bits([m for node in nodes for m in node.touch])
    base = max(counts) + 1
    weight = np.concatenate([np.arange(c) for c in counts]) * base + 1
    for v, m in enumerate(counts):
        first = counts.index(m)
        hits = np.minimum(touch[starts[first]:] @ own[starts[v] : starts[v] + m].T, 1) * weight[starts[first]:, None]
        sums = np.add.reduceat(hits, starts[first:] - starts[first]).T  # sup atom x sub node
        below = np.flatnonzero((sums % base == 1).all(axis=0))
        down = sum(1 << (len(nodes) - 1 - (first + b)) for b in below.tolist())
        yield v, first + below, (sums[:, below] // base).T, down


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


def projector_rank(P: np.ndarray) -> int:
    """Rank of a projection, read off its trace."""
    return int(round(float(np.trace(P).real)))


def spectral_bounds(decomp: SpectralDecomposition, atoms, tau: float) -> list[tuple[float, float]]:
    """For each atom, the least and the greatest eigenvalue whose spectral
    projection the atom touches: the touch_table of the atoms against the
    formed projections P_c, the reference for ``cluster_table``'s route."""
    return table_bounds(touch_table(atoms, decomp.projectors), decomp.eigenvalues, tau)


def two_valued(P: np.ndarray) -> SpectralDecomposition:
    """A projection read as the quantity with value 0 on 1 - P and 1 on P."""
    return SpectralDecomposition((0.0, 1.0), (identity(P.shape[0]) - P, P))


def subobject_of_projector(context: Context, projector, tau: float = TAU) -> frozenset[int]:
    """Atom indices where a projection member of the context evaluates to 1:
    the atoms whose least bound in the two-valued quantity P is 1, i.e. that
    touch P but not its complement."""
    P = require_projector(projector, tau)
    bounds = spectral_bounds(two_valued(P), context.atoms, tau)
    return frozenset(i for i, (lo, _) in enumerate(bounds) if lo == 1.0)


def loop_daseinise(poset: ContextPoset, P: np.ndarray, end: int) -> tuple[dict, dict]:
    """The inner (end 0) or outer (end 1) daseinisation of a projection by
    the per-context loop: every poset atom's bounds in the two-valued
    quantity P, read off one touch_table of the seed atoms, then per context
    sum_a bound(a) a, each atom of bound 1 added in place in atom order, and
    the atoms of nonzero bound.  Returns the approximations and selections."""
    family = two_valued(P)
    seeds, sums = poset._seed_sums
    bounds = iter(table_bounds(sums @ touch_table(seeds, family.projectors), family.eigenvalues, poset.tolerances.tau))
    projectors, selection = {}, {}
    for c in poset:
        own = list(islice(bounds, c.n_atoms))
        out = zero(c.dim)
        for a, bound in zip(c.atoms, own):
            if bound[end] == 1.0:
                out += a
        projectors[c.id] = out
        selection[c.id] = frozenset(i for i, b in enumerate(own) if b[end])
    return projectors, selection


def table_projection(P: np.ndarray, context: Context, end: int, tau: float = TAU) -> np.ndarray:
    """The inner (end 0) or outer (end 1) approximation of a projection in one
    context through ``touch_table``, with (1 - P, P) built anew on each call:
    the sum of the atoms whose row touches P (outer) or misses 1 - P (inner),
    each added in place in atom order."""
    P = np.asarray(P, dtype=complex)
    hits = touch_table(context.atoms, (identity(P.shape[0]) - P, P)) > tau * tau
    out = zero(context.dim)
    for a, (low, high) in zip(context.atoms, hits.tolist()):
        if high if end else not low:
            out += a
    return out


def pair_touch_masks(left, right, tau: float = 1e-9) -> list[int]:
    """For each left projection a, the bitmask of the right projections b
    with ||ab||_F > tau, one product at a time."""
    return [sum(1 << j for j, b in enumerate(right) if np.linalg.norm(a @ b) > tau) for a in left]


def touch_selection(poset: ContextPoset, P: np.ndarray, tau: float = 1e-9) -> dict[str, frozenset[int]]:
    """Per context, the atoms whose own matrices touch P (||aP||_F > tau)."""
    return {c.id: frozenset(i for i, m in enumerate(pair_touch_masks(c.atoms, [P], tau)) if m) for c in poset}


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
        mask = pair_touch_masks([restricted], decomp.projectors, tau)[0]
        touched = [k for k in range(len(lam)) if mask >> k & 1]
        mu[sub_id], nu[sub_id] = lam[touched[0]], lam[touched[-1]]
    return mu, nu


def reference_decompose(A: np.ndarray, tau_eig: float = 1e-8) -> tuple[tuple[float, ...], tuple[np.ndarray, ...]]:
    """Eigenvalues and projectors of a self-adjoint A by the plain
    per-cluster loop: each cluster's mean by np.add.reduce over its slice,
    even for one eigenvalue, and each projector from its own conjugated block."""
    raw, vecs = np.linalg.eigh(A)
    values = raw.tolist()
    starts = [0] + [i for i in range(1, len(values)) if values[i] - values[i - 1] > 2.0 * tau_eig]
    eigenvalues, projectors = [], []
    for i, j in zip(starts, starts[1:] + [len(values)]):
        eigenvalues.append(float(np.add.reduce(raw[i:j]) / (j - i)))
        block = vecs[:, i:j]
        projectors.append(block @ block.conj().T)
    return tuple(eigenvalues), tuple(projectors)


def random_unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    # Haar-random unitary: QR of a complex Gaussian matrix, phases fixed.
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_projector(rng: np.random.Generator, dim: int, rank: int) -> np.ndarray:
    gauss = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(gauss)
    block = q[:, :rank]
    return block @ block.conj().T


def random_self_adjoint(rng: np.random.Generator, dim: int) -> np.ndarray:
    gauss = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (gauss + gauss.conj().T) / 2.0
