"""Finite posets of abelian operator algebras ("contexts").

A context is a finite abelian von Neumann algebra on C^n, stored through its
atoms: a pairwise-orthogonal family of projections summing to the identity.
The scalar algebra (a single atom) is excluded throughout.  A context poset
is a finite, inclusion-ordered family of contexts generated from user seeds:
it contains every subalgebra of a seed generated by a subset of its atoms,
plus the intersection closure of the seeds.

Every poset context is a partition of one seed's atoms, so the poset is
combinatorics over the seed atoms.  One tolerance rule decides it: two atoms
a, b touch iff ||ab||_F^2 > tau^2, an entry of ``operators.touch_table``.
V <= W iff every atom of W touches exactly one atom of V (the restriction of
that atom); two contexts coincide iff each lies inside the other; and the
atoms of the meet of V and W are the connected components of the graph of
touching V and W atoms.  Generators are refined into atoms by the same rule.

Atom order, context identifiers and poset order are all canonical so that
repeated runs over the same input produce byte-identical output.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from typing import Iterable, Iterator, NamedTuple, Sequence

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
    close,
    identity,
    is_orthonormal,
    projector_rank,
    require_projector,
    touch_masks,
)


#: Decimal digits of each atom entry (and of its reference weight) kept for
#: the canonical atom order and the context id.  Independent of tau: a
#: perturbation of about 1e-10 can move an entry across a rounding boundary
#: and change the id, as it would for any hash of the content.
ID_DIGITS = 10


def _reference_matrix(dim: int) -> np.ndarray:
    # Fixed weight matrix whose trace pairing separates the standard atoms;
    # only used to impose a deterministic atom order.
    idx = np.arange(dim)
    return (idx[:, None] * dim + idx[None, :] + 1.0).astype(complex)


def _context_id(rounded: Sequence[np.ndarray]) -> str:
    # Hash of the atoms rounded to ID_DIGITS digits, in canonical order.
    digest = hashlib.sha1()
    for a in rounded:
        digest.update(a.real.tobytes())
        digest.update(a.imag.tobytes())
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


def _canonical_context(atoms: Sequence[np.ndarray], *companions: Sequence) -> tuple:
    # The context of valid atoms, sorted by (rank, reference-trace weight,
    # entries), followed by each companion sequence permuted alike.  The
    # weight and the entries are rounded to ID_DIGITS digits, as in the id;
    # +0.0 collapses negative zeros so the id is phase-insensitive.
    ref = _reference_matrix(atoms[0].shape[0])
    rounded = [np.round(a, ID_DIGITS) + 0.0 for a in atoms]
    keys = [
        (projector_rank(a), round(float(np.trace(a @ ref).real), ID_DIGITS) + 0.0,
         r.view(float).ravel().tolist())
        for a, r in zip(atoms, rounded)
    ]
    order = sorted(range(len(atoms)), key=keys.__getitem__)
    ordered = tuple(np.array(atoms[i], dtype=complex) for i in order)
    for a in ordered:
        a.setflags(write=False)
    context = Context(_context_id([rounded[i] for i in order]), ordered)
    return (context, *(tuple(c[i] for i in order) for c in companions))


def context_from_atoms(atoms: Iterable[np.ndarray], tau: float = TAU) -> Context:
    """Build a context from an explicit resolution of the identity.

    Raises ``NotProjector`` / ``ValidationError`` when the atoms are not a
    projective partition of the identity (each atom touches itself and no
    other), and ``TrivialAlgebra`` when only one atom is supplied.
    """
    atoms = [require_projector(a, tau) for a in atoms]
    if len(atoms) < 2:
        raise TrivialAlgebra("a context needs at least two atoms; the scalar algebra is excluded")
    if touch_masks(atoms, atoms, tau) != [1 << i for i in range(len(atoms))]:
        raise ValidationError("atoms are not nonzero and pairwise orthogonal")
    if not close(sum(atoms), identity(atoms[0].shape[0]), tau):
        raise ValidationError("atoms do not sum to the identity")
    return _canonical_context(atoms)[0]


def context_from_projectors(generators: Iterable[np.ndarray], tau: float = TAU) -> Context:
    """Context generated by commuting projections (their common refinement).

    The atoms are the minimal nonzero products over all choices of P or 1-P
    per generator, which is the algebra the generators generate in finite
    dimension.  A product p q is kept iff p touches q.
    """
    gens = [require_projector(g, tau) for g in generators]
    if not gens:
        raise TrivialAlgebra("no generators supplied")
    if len({g.shape for g in gens}) > 1:
        raise DimensionMismatch("generators live on different Hilbert spaces")
    for i, g in enumerate(gens):
        for h in gens[i + 1 :]:
            if not close(g @ h, h @ g, tau):
                raise NonCommutingGenerators("generators do not pairwise commute")
    one = identity(gens[0].shape[0])
    products = [one]
    for g in gens:
        family = (g, one - g)
        masks = touch_masks(products, family, tau)
        products = [p @ q for k, q in enumerate(family) for p, m in zip(products, masks) if m >> k & 1]
    if len(products) < 2:
        raise TrivialAlgebra("generators only produce the scalar algebra")
    return context_from_atoms(products, tau)


def context_from_basis(vectors: Iterable[np.ndarray], tau: float = TAU) -> Context:
    """Maximal context of an orthonormal basis (rank-one atoms)."""
    vecs = [np.asarray(v, dtype=complex).reshape(-1) for v in vectors]
    if not vecs:
        raise ValidationError("basis needs at least one vector")
    dim = vecs[0].shape[0]
    if len(vecs) != dim:
        raise ValidationError(f"basis needs {dim} vectors, got {len(vecs)}")
    if not is_orthonormal(vecs, tau):
        raise ValidationError("basis not orthonormal")
    atoms = [np.outer(v, v.conj()) for v in vecs]
    return context_from_atoms(atoms, tau)


def _hits(mask: int, masks: Sequence[int]) -> int:
    # Bitmask of the entries of ``masks`` that share a bit with ``mask``.
    return sum(1 << j for j, m in enumerate(masks) if m & mask)


def _join(masks: Sequence[int], block: Iterable[int]) -> int:
    out = 0
    for i in block:
        out |= masks[i]
    return out


def _bits(mask: int) -> list[int]:
    # Positions of the set bits of ``mask``, in increasing order.
    return [b for b in range(mask.bit_length()) if mask >> b & 1]


def _table(touch: Sequence[int], own: Sequence[int]) -> tuple[int, ...] | None:
    # Coarse atom j touches the bits in ``touch[j]``; fine atom i sums the bits
    # in ``own[i]``.  The coarse context lies inside the fine one iff every fine
    # atom touches exactly one coarse atom (its restriction, listed in the
    # returned table) and every coarse atom touches some fine atom.
    table = []
    for mask in own:
        hits = [j for j, t in enumerate(touch) if t & mask]
        if len(hits) != 1:
            return None
        table += hits
    return tuple(table) if len(set(table)) == len(touch) else None


def _components(masks: Sequence[int]) -> list[list[int]]:
    # ``masks[i]`` holds the right atoms that left atom i touches; the left
    # atoms are grouped by the connected components of this touch graph.
    groups: list[tuple[list[int], int]] = []
    for i, mask in enumerate(masks):
        members, rest = [i], []
        for group, reach in groups:
            if reach & mask:
                members += group
                mask |= reach
            else:
                rest.append((group, reach))
        groups = rest + [(sorted(members), mask)]
    return [group for group, _ in groups]


def restriction_table(sup: Context, sub: Context, tau: float = TAU) -> tuple[int, ...] | None:
    """The index of the one ``sub`` atom that each ``sup`` atom touches, or
    ``None`` when ``sub`` is not a subcontext of ``sup``."""
    return _table(touch_masks(sub.atoms, sup.atoms, tau), [1 << i for i in range(sup.n_atoms)])


def is_subcontext(v1: Context, v2: Context, tau: float = TAU) -> bool:
    """True iff v1 is a subalgebra of v2: every v2 atom touches exactly one v1 atom."""
    return restriction_table(v2, v1, tau) is not None


def intersect_contexts(v1: Context, v2: Context, tau: float = TAU) -> Context | None:
    """Intersection algebra, or ``None`` when it is the scalars.

    Its atoms are the sums of v1 atoms over the connected components of the
    graph linking a v1 atom to every v2 atom it touches.
    """
    groups = _components(touch_masks(v1.atoms, v2.atoms, tau))
    if len(groups) < 2:
        return None
    return context_from_atoms([sum(v1.atoms[i] for i in g) for g in groups], tau)


class _Node(NamedTuple):
    """A poset context with two bitmasks over the seed atoms per atom."""

    context: Context
    own: tuple[int, ...]  # the seed atoms each atom sums
    touch: tuple[int, ...]  # the seed atoms each atom touches


def _admit(nodes: dict[str, _Node], touch: Sequence[int], make) -> _Node:
    # First wins: a candidate is the first registered node with as many atoms
    # that includes it (equal counts make inclusion mutual), else the node
    # with its id; ``make()`` builds the candidate node only when it is new.
    for node in nodes.values():
        if len(node.own) == len(touch) and _table(touch, node.own) is not None:
            return node
    node = make()
    return nodes.setdefault(node.context.id, node)


def _add(nodes: dict[str, _Node], base: _Node, blocks: list[list[int]], matrices) -> None:
    # Admit the context whose atoms join ``blocks`` of ``base``'s atoms;
    # ``matrices()`` gives its atoms in block order.
    touch = [_join(base.touch, b) for b in blocks]
    own = [_join(base.own, b) for b in blocks]
    _admit(nodes, touch, lambda: _Node(*_canonical_context(matrices(), own, touch)))


class _SieveFrame(NamedTuple):
    """A context's down-set as bit positions, for sieves held as ints.

    Bit i stands for ``ids[i]``.  The ids run in reverse sorted order, so that
    among sieves of one size a larger int has the smaller sorted member tuple.
    """

    ids: tuple[str, ...]
    bit: dict[str, int]  # id -> 1 << its position, in position order
    below: tuple[int, ...]  # below[i]: the mask of down_ids(ids[i])
    down: frozenset[str]  # all of ids
    above: dict[str, frozenset[str]]  # id -> the ids at or above it


class _SieveFrames(dict):
    """Sieve frames by context id, each built from the down-sets on first use."""

    def __init__(self, down: dict[str, tuple[str, ...]]) -> None:
        super().__init__()
        self._down = down

    def __missing__(self, context_id: str) -> _SieveFrame:
        if context_id not in self._down:
            raise UnknownContext(f"no context with id {context_id!r} in this poset")
        ids = tuple(sorted(self._down[context_id], reverse=True))
        bit = {cid: 1 << i for i, cid in enumerate(ids)}
        below = tuple(sum(map(bit.__getitem__, self._down[cid])) for cid in ids)
        above = {cid: frozenset(x for x, mask in zip(ids, below) if mask & bit[cid]) for cid in ids}
        frame = self[context_id] = _SieveFrame(ids, bit, below, frozenset(ids), above)
        return frame


class ContextPoset:
    """Immutable inclusion-ordered family of contexts.

    Instances are produced only by :func:`build_poset`.  The order and the
    per-inclusion atom restriction tables are read off the seed-atom masks,
    without matrices: sub <= sup iff every sup atom (the seed atoms it sums)
    touches exactly one sub atom, and that atom is its restriction.  An order
    that the touch test cannot make transitive raises ``ValidationError``.
    The poset keeps the seed atoms and each atom's seed mask, so that a
    touch with a family of projections is read off one ``touch_table`` of
    the seed atoms, and keeps the tolerance it was built with for ``find``.
    """

    def __init__(self, nodes: Sequence[_Node], seed_atoms: Sequence[np.ndarray], tau: float) -> None:
        ordered = sorted(nodes, key=lambda n: (-n.context.n_atoms, n.context.id))
        self._seed_atoms = seed_atoms
        self._tau = tau
        self._own: dict[str, tuple[int, ...]] = {n.context.id: n.own for n in ordered}
        self._contexts: tuple[Context, ...] = tuple(n.context for n in ordered)
        self._by_id: dict[str, Context] = {c.id: c for c in self._contexts}
        self._ids: tuple[str, ...] = tuple(c.id for c in self._contexts)
        self._down: dict[str, tuple[str, ...]] = {}
        self._restriction: dict[tuple[str, str], tuple[int, ...]] = {}
        for sup in ordered:
            down = []
            for sub in ordered:
                table = _table(sub.touch, sup.own) if len(sub.own) <= len(sup.own) else None
                if table is not None:
                    down.append(sub.context.id)
                    self._restriction[(sup.context.id, sub.context.id)] = table
            self._down[sup.context.id] = tuple(down)
        for sup, down in self._down.items():
            if any((sup, low) not in self._restriction for sub in down for low in self._down[sub]):
                raise ValidationError(
                    f"the touch test cannot order the contexts below {sup} transitively:"
                    " some products of seed atoms lie close to tau"
                )
        self._inclusions: tuple[tuple[str, str], ...] = tuple(
            pair for pair in self._restriction if pair[0] != pair[1]
        )
        self._character_downs: dict[tuple[str, int], frozenset[tuple[str, int]]] = {}
        self._sieve_frames = _SieveFrames(self._down)
        self._atom_seeds: tuple[np.ndarray, np.ndarray] | None = None
        self._restricted_seeds: dict[str, tuple[np.ndarray, np.ndarray]] = {}

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
        return (sup_id, sub_id) in self._restriction

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

    def _character_down(self, character: tuple[str, int]) -> frozenset[tuple[str, int]]:
        # The down-set of the character (sup, i) under restriction: the pairs
        # (sub, restriction_indices(sup, sub)[i]) over down_ids(sup), itself
        # included.  Built on first use.
        below = self._character_downs.get(character)
        if below is None:
            sup, i = character
            below = self._character_downs[character] = frozenset(
                (sub, self._restriction[(sup, sub)][i]) for sub in self._down[sup]
            )
        return below

    def _seed_sums(self) -> tuple[np.ndarray, np.ndarray]:
        # The stacked seed atoms, and a 0/1 matrix whose row k marks the seed
        # atoms that the k-th poset atom sums (contexts in poset order, atoms
        # in atom order): its product with a touch_table of the seed atoms is
        # the table of every poset atom.  Built on first use.
        if self._atom_seeds is None:
            masks = [mask for c in self._contexts for mask in self._own[c.id]]
            sums = np.zeros((len(masks), len(self._seed_atoms)))
            for k, mask in enumerate(masks):
                sums[k, _bits(mask)] = 1.0
            self._atom_seeds = np.asarray(self._seed_atoms), sums
        return self._atom_seeds

    def _restricted_sums(self, context_id: str) -> tuple[np.ndarray, np.ndarray]:
        # The seed atoms that the context's atoms sum, stacked, and a 0/1
        # array whose entry [i, d, b] marks seed atom b in the atom that atom
        # i restricts to at the d-th context of down_ids(context_id): the sum
        # of the context atoms in i's restriction class.  Built on first use.
        found = self._restricted_seeds.get(context_id)
        if found is None:
            own = self._own[context_id]
            bits = _bits(_join(own, range(len(own))))
            seeds_of = np.array([[mask >> b & 1 for b in bits] for mask in own], dtype=float)
            tables = np.array([self._restriction[(context_id, sub)] for sub in self._down[context_id]])
            same_class = tables[None, :, :] == tables.T[:, :, None]
            found = np.asarray([self._seed_atoms[b] for b in bits]), same_class @ seeds_of
            self._restricted_seeds[context_id] = found
        return found

    def find(self, atoms: Iterable[np.ndarray]) -> Context | None:
        """Locate the poset context with the given atom set, if present."""
        wanted = context_from_atoms(atoms, self._tau)
        for c in self._contexts:
            if c.n_atoms == wanted.n_atoms and is_subcontext(wanted, c, self._tau):
                return c
        return None


def build_poset(seed_contexts: Sequence[Context], tau: float = TAU) -> ContextPoset:
    """Generate the finite poset spanned by the seeds.

    The poset contains every subalgebra of a seed generated by a subset of
    its atoms, together with the intersection closure of the seeds (so any
    two seeds sharing structure are connected through their meet).  The
    scalar algebra is excluded.  The only geometry is one touch test between
    all seed atoms; every context is a partition of one seed's atoms, and
    identity, meets and the order follow from the seed-atom masks.  Of two
    contexts that include each other, or that share an id, the first one
    generated is kept: each seed, then the contexts it refines, then the meets.
    """
    seeds = list(seed_contexts)
    if not seeds:
        raise EmptySeed("at least one seed context is required")
    seed_atoms = [a for s in seeds for a in s.atoms]
    rows = touch_masks(seed_atoms, seed_atoms, tau)
    nodes, offset = [], 0
    for s in seeds:
        bits = range(offset, offset + s.n_atoms)
        nodes.append(_Node(s, tuple(1 << i for i in bits), tuple(rows[i] for i in bits)))
        offset += s.n_atoms

    closure: dict[str, _Node] = {}
    for node in nodes:
        _admit(closure, node.touch, lambda: node)
    # Intersection closure of the seeds (meets of meets included): each round
    # meets the contexts found in the previous one with everything known.
    start = 0
    while start < len(closure):
        current = list(closure.values())
        for new in current[start:]:
            for old in current:
                groups = _components([_hits(t, old.own) for t in new.touch])
                if len(groups) >= 2:
                    atoms = new.context.atoms
                    _add(closure, new, groups, lambda: [sum(atoms[i] for i in g) for g in groups])
        start = len(current)

    registry: dict[str, _Node] = {}
    for s in nodes:
        seed = _admit(registry, s.touch, lambda: s)
        atoms = seed.context.atoms
        n = len(atoms)
        # Subsets of all atoms, or of all but one, give the seed itself.
        for r in range(1, n - 1):
            for subset in combinations(range(n), r):
                chosen = [atoms[i] for i in subset]
                rest = [i for i in range(n) if i not in subset]
                _add(registry, seed, [[i] for i in subset] + [rest],
                     lambda: chosen + [reduce(np.subtract, chosen, identity(seed.context.dim))])
    # Meets join as bare contexts: coarsening them further would pull in
    # subalgebras that none of the seed families contain.
    for node in closure.values():
        _admit(registry, node.touch, lambda: node)
    return ContextPoset(list(registry.values()), seed_atoms, tau)


def down_set(poset: ContextPoset, context: Context) -> tuple[Context, ...]:
    """All subcontexts of ``context`` within the poset, including itself."""
    return tuple(poset.get(cid) for cid in poset.down_ids(context.id))
