"""Finite posets of abelian operator algebras ("contexts").

A context is a finite abelian von Neumann algebra on C^n, stored through its
atoms: a pairwise-orthogonal family of projections summing to the identity.
The scalar algebra (a single atom) is excluded throughout.  A context poset
is a finite, inclusion-ordered family of contexts generated from user seeds:
it contains every subalgebra of a seed generated by a subset of its atoms,
plus the pairwise intersections of the seeds.

Atom order, context identifiers and poset order are all canonical so that
repeated runs over the same input produce byte-identical output.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptySeed,
    NonCommutingGenerators,
    TrivialAlgebra,
    UnknownContext,
    ValidationError,
)
from .operators import (
    TAU,
    as_operator,
    close,
    identity,
    projector_leq,
    projector_rank,
    require_projector,
    zero,
)

#: Tolerance used when deciding that two independently built contexts coincide.
DEDUP_TAU = 1e-8


def _reference_matrix(dim: int) -> np.ndarray:
    # Fixed weight matrix whose trace pairing separates the standard atoms;
    # only used to impose a deterministic atom order.
    idx = np.arange(dim)
    return (idx[:, None] * dim + idx[None, :] + 1.0).astype(complex)


def _rounded_entries(A: np.ndarray) -> tuple:
    flat = A.reshape(-1)
    return tuple((round(z.real, 12) + 0.0, round(z.imag, 12) + 0.0) for z in flat)


def _atom_sort_key(A: np.ndarray, ref: np.ndarray) -> tuple:
    rank = projector_rank(A)
    weight = round(float(np.trace(A @ ref).real), 12) + 0.0
    return (rank, weight, _rounded_entries(A))


def canonical_atoms(atoms: Iterable[np.ndarray]) -> tuple[np.ndarray, ...]:
    """Sort atoms by (rank, reference-trace weight, rounded entries)."""
    atoms = [as_operator(a) for a in atoms]
    ref = _reference_matrix(atoms[0].shape[0])
    ordered = sorted(atoms, key=lambda a: _atom_sort_key(a, ref))
    out = []
    for a in ordered:
        a = a.copy()
        a.setflags(write=False)
        out.append(a)
    return tuple(out)


def _context_id(atoms: Sequence[np.ndarray]) -> str:
    digest = hashlib.sha1()
    for a in atoms:
        # +0.0 collapses negative zeros so the hash is phase-insensitive
        digest.update((np.round(a.real, 10) + 0.0).tobytes())
        digest.update((np.round(a.imag, 10) + 0.0).tobytes())
    return "ctx-" + digest.hexdigest()[:10]


@dataclass(frozen=True, eq=False)
class Context:
    """An abelian algebra given by its atoms, in canonical order.

    Identity, equality and hashing all go through the canonical id, which is
    derived from the rounded atom matrices.
    """

    id: str
    atoms: tuple[np.ndarray, ...]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Context):
            return NotImplemented
        return self.id == other.id

    def __hash__(self) -> int:
        return hash(self.id)

    @property
    def dim(self) -> int:
        return self.atoms[0].shape[0]

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        ranks = ",".join(str(projector_rank(a)) for a in self.atoms)
        return f"Context({self.id}, ranks=[{ranks}])"


def context_from_atoms(atoms: Iterable[np.ndarray], tau: float = TAU) -> Context:
    """Build a context from an explicit resolution of the identity.

    Raises ``NotProjector`` / ``ValidationError`` when the atoms are not a
    pairwise-orthogonal projective partition of the identity, and
    ``TrivialAlgebra`` when only one atom is supplied.
    """
    atoms = [require_projector(a, tau) for a in atoms]
    if len(atoms) < 2:
        raise TrivialAlgebra("a context needs at least two atoms; the scalar algebra is excluded")
    dim = atoms[0].shape[0]
    total = zero(dim)
    for i, a in enumerate(atoms):
        if a.shape[0] != dim:
            raise DimensionMismatch("atoms live on different Hilbert spaces")
        for b in atoms[i + 1 :]:
            if not close(a @ b, zero(dim), tau):
                raise ValidationError("atoms are not pairwise orthogonal")
        total += a
    if not close(total, identity(dim), tau):
        raise ValidationError("atoms do not sum to the identity")
    ordered = canonical_atoms(atoms)
    return Context(_context_id(ordered), ordered)


def context_from_projectors(generators: Iterable[np.ndarray], tau: float = TAU) -> Context:
    """Context generated by commuting projections (their common refinement).

    The atoms are the minimal nonzero products over all choices of P or 1-P
    per generator, which is the algebra the generators generate in finite
    dimension.
    """
    gens = [require_projector(g, tau) for g in generators]
    if not gens:
        raise TrivialAlgebra("no generators supplied")
    dim = gens[0].shape[0]
    for g in gens:
        if g.shape[0] != dim:
            raise DimensionMismatch("generators live on different Hilbert spaces")
    for i, g in enumerate(gens):
        for h in gens[i + 1 :]:
            if not close(g @ h, h @ g, tau):
                raise NonCommutingGenerators("generators do not pairwise commute")
    one = identity(dim)
    products = [one]
    for g in gens:
        nxt = []
        for q in (g, one - g):
            for p in products:
                prod = p @ q
                if float(np.linalg.norm(prod)) > tau:
                    nxt.append(prod)
        products = nxt
    if len(products) < 2:
        raise TrivialAlgebra("generators only produce the scalar algebra")
    return context_from_atoms(products, tau)


def context_from_basis(vectors: Iterable[np.ndarray], tau: float = TAU) -> Context:
    """Maximal context of an orthonormal basis (rank-one atoms)."""
    vecs = [np.asarray(v, dtype=complex).reshape(-1) for v in vectors]
    dim = vecs[0].shape[0]
    if len(vecs) != dim:
        raise ValidationError(f"basis needs {dim} vectors, got {len(vecs)}")
    for i, v in enumerate(vecs):
        for j, w in enumerate(vecs):
            expected = 1.0 if i == j else 0.0
            if abs(np.vdot(v, w) - expected) > max(tau, 1e-9):
                raise ValidationError("basis not orthonormal")
    atoms = [np.outer(v, v.conj()) for v in vecs]
    return context_from_atoms(atoms, tau)


def is_subcontext(v1: Context, v2: Context, tau: float = TAU) -> bool:
    """True iff v1 is a subalgebra of v2 (each v1 atom is a sum of v2 atoms)."""
    if v1.dim != v2.dim:
        raise DimensionMismatch("contexts live on different Hilbert spaces")
    return all(_sum_of_atoms(v2, a, tau) for a in v1.atoms)


def _sum_of_atoms(context: Context, projector: np.ndarray, tau: float) -> bool:
    # Membership of an arbitrary projection in the context's Boolean lattice.
    dominated = [b for b in context.atoms if projector_leq(b, projector, tau)]
    total = zero(context.dim)
    for b in dominated:
        total += b
    return close(total, projector, tau)


def intersect_contexts(v1: Context, v2: Context, tau: float = TAU) -> Context | None:
    """Intersection algebra, or ``None`` when it is the scalars.

    The common projections of two contexts form a Boolean lattice; its atoms
    (the minimal nonzero common projections) are found by enumerating the
    subset sums of one side and testing membership in the other.
    """
    if v1.dim != v2.dim:
        raise DimensionMismatch("contexts live on different Hilbert spaces")
    dim = v1.dim
    common: list[np.ndarray] = []
    for r in range(1, len(v1.atoms) + 1):
        for subset in combinations(range(len(v1.atoms)), r):
            candidate = zero(dim)
            for i in subset:
                candidate += v1.atoms[i]
            if _sum_of_atoms(v2, candidate, tau):
                common.append(candidate)
    minimal: list[np.ndarray] = []
    for c in common:
        strictly_below = [
            d for d in common if projector_leq(d, c, tau) and not close(d, c, tau)
        ]
        if not strictly_below:
            minimal.append(c)
    if len(minimal) < 2:
        return None
    return context_from_atoms(minimal, tau)


def coarsenings(context: Context, tau: float = TAU) -> list[Context]:
    """Subalgebras generated by nonempty subsets of the atoms, incl. the context."""
    out: list[Context] = []
    n = len(context.atoms)
    dim = context.dim
    for r in range(1, n + 1):
        for subset in combinations(range(n), r):
            atoms = [context.atoms[i] for i in subset]
            remainder = identity(dim)
            for a in atoms:
                remainder = remainder - a
            if float(np.linalg.norm(remainder)) > tau:
                atoms.append(remainder)
            if len(atoms) >= 2:
                out.append(context_from_atoms(atoms, tau))
    return out


class _Registry:
    """Deduplicating store of contexts (exact rounded key, then tolerance)."""

    def __init__(self) -> None:
        self._by_id: dict[str, Context] = {}

    def add(self, context: Context) -> Context:
        found = self.lookup(context)
        if found is not None:
            return found
        self._by_id[context.id] = context
        return context

    def lookup(self, context: Context) -> Context | None:
        hit = self._by_id.get(context.id)
        if hit is not None:
            return hit
        signature = tuple(projector_rank(a) for a in context.atoms)
        for other in self._by_id.values():
            if len(other.atoms) != len(context.atoms):
                continue
            if tuple(projector_rank(a) for a in other.atoms) != signature:
                continue
            if _atoms_match(context.atoms, other.atoms):
                return other
        return None

    def contexts(self) -> list[Context]:
        return list(self._by_id.values())


def _atoms_match(left: Sequence[np.ndarray], right: Sequence[np.ndarray], tau: float = DEDUP_TAU) -> bool:
    # Greedy matching: every atom on one side pairs with exactly one on the other.
    unused = list(range(len(right)))
    for a in left:
        for k in list(unused):
            if close(a, right[k], tau):
                unused.remove(k)
                break
        else:
            return False
    return not unused


class ContextPoset:
    """Immutable inclusion-ordered family of contexts.

    Instances are produced by :func:`build_poset`; the inclusion relation and
    the per-inclusion atom restriction tables are precomputed so that presheaf
    operations are table lookups.
    """

    def __init__(self, contexts: Sequence[Context], tau: float = TAU) -> None:
        ordered = sorted(contexts, key=lambda c: (-c.n_atoms, c.id))
        self._contexts: tuple[Context, ...] = tuple(ordered)
        self._by_id: dict[str, Context] = {c.id: c for c in ordered}
        if len(self._by_id) != len(ordered):
            raise ValidationError("duplicate context ids in poset")
        self._ids: tuple[str, ...] = tuple(c.id for c in ordered)
        self._down: dict[str, tuple[str, ...]] = {
            sup.id: tuple(sub.id for sub in ordered if is_subcontext(sub, sup, tau))
            for sup in ordered
        }
        self._below: dict[str, frozenset[str]] = {k: frozenset(v) for k, v in self._down.items()}
        self._inclusions: tuple[tuple[str, str], ...] = tuple(
            (sup_id, sub_id)
            for sup_id in self._ids
            for sub_id in self._down[sup_id]
            if sub_id != sup_id
        )
        self._restriction: dict[tuple[str, str], tuple[int, ...]] = {}
        for sup in ordered:
            for sub_id in self._down[sup.id]:
                sub = self._by_id[sub_id]
                table = []
                for a in sup.atoms:
                    hits = [j for j, b in enumerate(sub.atoms) if projector_leq(a, b, tau)]
                    if len(hits) != 1:
                        raise ValidationError("atom of a finer context not dominated by a unique coarser atom")
                    table.append(hits[0])
                self._restriction[(sup.id, sub_id)] = tuple(table)

    # -- basic container protocol ------------------------------------------

    def __iter__(self) -> Iterator[Context]:
        return iter(self._contexts)

    def __len__(self) -> int:
        return len(self._contexts)

    def __contains__(self, item) -> bool:
        if isinstance(item, Context):
            return item.id in self._by_id
        return item in self._by_id

    @property
    def ids(self) -> tuple[str, ...]:
        return self._ids

    @property
    def inclusions(self) -> tuple[tuple[str, str], ...]:
        """Every strict inclusion as a ``(sup_id, sub_id)`` pair, in canonical
        poset order of the sup and then of the sub."""
        return self._inclusions

    @property
    def dim(self) -> int:
        return self._contexts[0].dim

    def get(self, context_id: str) -> Context:
        try:
            return self._by_id[context_id]
        except KeyError:
            raise UnknownContext(f"no context with id {context_id!r} in this poset") from None

    # -- order structure ----------------------------------------------------

    def is_leq(self, sub_id: str, sup_id: str) -> bool:
        """True iff the context ``sub_id`` is included in ``sup_id``."""
        if sup_id not in self._by_id or sub_id not in self._by_id:
            raise UnknownContext("both contexts must belong to the poset")
        return sub_id in self._below[sup_id]

    def down_ids(self, context_id: str) -> tuple[str, ...]:
        """Ids of all subcontexts (the down-set), in canonical poset order."""
        try:
            return self._down[context_id]
        except KeyError:
            raise UnknownContext(f"no context with id {context_id!r} in this poset") from None

    def restriction_indices(self, sup_id: str, sub_id: str) -> tuple[int, ...]:
        """Atom index map along an inclusion: fine atom -> dominating coarse atom."""
        try:
            return self._restriction[(sup_id, sub_id)]
        except KeyError:
            raise UnknownContext(f"{sub_id!r} is not a subcontext of {sup_id!r}") from None

    def find(self, atoms: Iterable[np.ndarray], tau: float = DEDUP_TAU) -> Context | None:
        """Locate the poset context with the given atom set, if present."""
        wanted = canonical_atoms(atoms)
        for c in self._contexts:
            if len(c.atoms) == len(wanted) and _atoms_match(wanted, c.atoms, tau):
                return c
        return None


def build_poset(seed_contexts: Sequence[Context], tau: float = TAU) -> ContextPoset:
    """Generate the finite poset spanned by the seeds.

    The poset contains every subalgebra of a seed generated by a subset of
    its atoms, together with the intersection closure of the seeds (so any
    two seeds sharing structure are connected through their meet).  The
    scalar algebra is excluded, near-identical contexts are merged, and the
    inclusion order is computed for all pairs.
    """
    seeds = list(seed_contexts)
    if not seeds:
        raise EmptySeed("at least one seed context is required")
    dim = seeds[0].dim
    for s in seeds:
        if s.dim != dim:
            raise DimensionMismatch("seed contexts live on different Hilbert spaces")

    closure = _Registry()
    frontier = [closure.add(s) for s in seeds]
    # Intersection closure of the seeds (meets of meets included).
    while frontier:
        fresh: list[Context] = []
        current = closure.contexts()
        for new in frontier:
            for old in current:
                if new.id == old.id:
                    continue
                meet = intersect_contexts(new, old, tau)
                if meet is None:
                    continue
                if closure.lookup(meet) is None:
                    fresh.append(closure.add(meet))
        frontier = fresh

    registry = _Registry()
    for s in seeds:
        seed = registry.add(s)
        for sub in coarsenings(seed, tau):
            registry.add(sub)
    # Meets join as bare contexts: coarsening them further would pull in
    # subalgebras that none of the seed families contain.
    for c in closure.contexts():
        registry.add(c)
    return ContextPoset(registry.contexts(), tau)


def down_set(poset: ContextPoset, context: Context) -> tuple[Context, ...]:
    """All subcontexts of ``context`` within the poset, including itself."""
    if context.id not in poset:
        raise UnknownContext(f"context {context.id!r} is not in the poset")
    return tuple(poset.get(cid) for cid in poset.down_ids(context.id))
