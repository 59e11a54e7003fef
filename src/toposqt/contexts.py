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
that atom).  In a poset this is a rule on labels: the label of a seed atom at
V is the one atom of V that touches it, and V <= W iff V's labels are defined
and equal on the seed atoms of each atom of W.  Two contexts coincide iff
each lies inside the other, and the atoms of the meet of V and W are the
connected components of the graph of touching V and W atoms.  Generators are
refined into atoms by the same rule.

Atom order, context identifiers and poset order are all canonical so that
repeated runs over the same input produce byte-identical output.  A poset
holds its order and the tables its own methods read; the modules that read
it keep their own per-poset state in plain dicts on it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cache, cached_property, reduce
from itertools import accumulate, combinations, groupby
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from ._json import brief_repr, finite_number
from .errors import (
    DimensionMismatch,
    EmptySeed,
    EnumerationLimitExceeded,
    NonCommutingGenerators,
    TrivialAlgebra,
    UnknownContext,
    ValidationError,
)
from .operators import (
    TAU,
    TAU_EIG,
    Tolerances,
    _complex,
    _listed,
    close,
    identity,
    is_orthonormal,
    require_projector,
    touch_masks,
)


#: Decimal digits of each atom entry (and of its reference weight) kept for
#: the canonical atom order and the context id.  Independent of tau: a
#: perturbation of about 1e-10 can move an entry across a rounding boundary
#: and change the id, as it would for any hash of the content.
ID_DIGITS = 10

#: The most contexts that ``build_poset`` lets its seeds span on their own,
#: counted before it builds any: a seed of n atoms spans 2^n - n - 1 (itself
#: and the contexts its atom subsets generate), summed over the seeds.  Meets
#: of several seeds are not counted, so such a poset can hold more.
CONTEXT_CAP = 4096


@cache
def _reference_matrix(dim: int) -> np.ndarray:
    # Fixed weight matrix whose trace pairing separates the standard atoms;
    # only used to impose a deterministic atom order.  Built once per
    # dimension and read-only, as every caller shares it.
    idx = np.arange(dim)
    ref = (idx[:, None] * dim + idx[None, :] + 1.0).astype(complex)
    ref.setflags(write=False)
    return ref


def _context_id(rounded: Sequence[bytes]) -> str:
    # Hash of the atoms rounded to ID_DIGITS digits, in canonical order: for
    # each atom, the bytes of its real parts and then of its imaginary parts.
    return "ctx-" + hashlib.sha1(b"".join(rounded)).hexdigest()[:10]


@dataclass(frozen=True, eq=False)
class Context:
    """An abelian algebra given by its atoms, in canonical order.

    Identity, equality and hashing all go through the canonical id, which is
    derived from the rounded atom matrices.  ``presheaf.gelfand_spectrum``
    keeps the context's characters in its instance dict once read, so a copy
    or a pickle of a read Context carries them; they take no part in
    equality or hashing.
    """

    id: str
    atoms: tuple[np.ndarray, ...]
    ranks: tuple[int, ...]  # each atom's rank, in atom order

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
        return f"Context({self.id}, ranks=[{','.join(map(str, self.ranks))}])"


def _key_atoms(atoms: Sequence[np.ndarray], memo: dict) -> list[tuple]:
    # Each atom's entry in ``memo``, which keeps by the atom's bytes its sort
    # key (rank, reference-trace weight, entries), the rounded bytes of its id
    # and a read-only array (the atom itself if nothing writable lies under
    # it), for atoms of one dimension and dtype.  The missing atoms are keyed
    # in one stacked pass.
    # The weight and the entries are rounded to ID_DIGITS digits, as in the
    # id; +0.0 collapses negative zeros so the id is phase-insensitive.
    raws = [a.tobytes() for a in atoms]
    missing = [i for i, raw in enumerate(raws) if raw not in memo]
    if missing:
        stack = np.asarray(atoms, dtype=complex)
        if len(missing) < len(stack):
            stack = stack[missing]
        stack.setflags(write=False)
        count, dim = len(missing), stack.shape[-1]
        rounded = np.round(stack, ID_DIGITS) + 0.0
        ranks = np.trace(stack, axis1=1, axis2=2).real.tolist()
        weights = np.trace(stack @ _reference_matrix(dim), axis1=1, axis2=2).real.tolist()
        entries = rounded.view(float).reshape(count, -1).tolist()
        # Row k: the real parts of atom k, then its imaginary parts.
        ids = np.concatenate((rounded.real, rounded.imag), axis=1).tobytes()
        size = len(ids) // count
        for k, i in enumerate(missing):
            a = atoms[i]
            frozen = a if a.dtype == complex and _read_only_throughout(a) else stack[k]
            key = (int(round(ranks[k])), round(weights[k], ID_DIGITS) + 0.0, entries[k])
            memo.setdefault(raws[i], (key, ids[k * size : (k + 1) * size], frozen))
    return [memo[raw] for raw in raws]


def _read_only_throughout(a: np.ndarray) -> bool:
    # True when the array and every array under it, down to the one that owns
    # the data, are read-only: a read-only view of a writable array changes
    # when its base does.
    while not a.flags.writeable:
        if a.base is None:
            return True
        if not isinstance(a.base, np.ndarray):
            return False
        a = a.base
    return False


def _canonical_context(keyed: Sequence[tuple], *companions: Sequence) -> tuple:
    # The context of atoms given by their ``_key_atoms`` entries, sorted by
    # key with the ranks kept, followed by each companion sequence permuted
    # alike.
    order = sorted(range(len(keyed)), key=lambda i: keyed[i][0])
    context = Context(_context_id([keyed[i][1] for i in order]), tuple(keyed[i][2] for i in order),
                      tuple(keyed[i][0][0] for i in order))
    return (context, *(tuple(c[i] for i in order) for c in companions))


def context_from_atoms(atoms: Iterable[np.ndarray], tau: float = TAU) -> Context:
    """Build a context from an explicit resolution of the identity.

    Raises ``NotProjector`` / ``ValidationError`` when the atoms are not a
    projective partition of the identity (each atom touches itself and no
    other), and ``TrivialAlgebra`` when only one atom is supplied.
    """
    atoms = [require_projector(a, tau) for a in _listed(atoms, "atoms")]
    if len(atoms) < 2:
        raise TrivialAlgebra("a context needs at least two atoms; the scalar algebra is excluded")
    if touch_masks(atoms, atoms, tau) != [1 << i for i in range(len(atoms))]:
        raise ValidationError("atoms are not nonzero and pairwise orthogonal")
    if not close(sum(atoms), identity(atoms[0].shape[0]), tau):
        raise ValidationError("atoms do not sum to the identity")
    return _canonical_context(_key_atoms(atoms, {}))[0]


def context_from_projectors(generators: Iterable[np.ndarray], tau: float = TAU) -> Context:
    """Context generated by commuting projections (their common refinement).

    The atoms are the minimal nonzero products over all choices of P or 1-P
    per generator, which is the algebra the generators generate in finite
    dimension.  A product p q is kept iff p touches q.
    """
    gens = [require_projector(g, tau) for g in _listed(generators, "generators")]
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
    vecs = [_complex(v).reshape(-1) for v in _listed(vectors, "basis")]
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


def _table(touch: Sequence[int], count: int) -> tuple[int, ...] | None:
    # Coarse atom j touches the fine atoms in ``touch[j]``, of ``count``.  A
    # fine atom's label is the one coarse atom that touches it.  The coarse
    # context lies inside the fine one iff every fine atom has a label (its
    # restriction, listed in the returned table) and every coarse atom is one.
    labels = [[j for j, t in enumerate(touch) if t >> i & 1] for i in range(count)]
    table = tuple(hits[0] for hits in labels if len(hits) == 1)
    return table if len(table) == count and len(set(table)) == len(touch) else None


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
    return _table(touch_masks(sub.atoms, sup.atoms, tau), sup.n_atoms)


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


class _Registry:
    """Poset nodes by id, in the order admitted.  First wins: of two nodes
    that include each other, or that share an id, the first one admitted is
    kept and the other is never built.  Each seed atom touches an atom of
    every seed (checked by ``build_poset``), so lookups go by seed partition."""

    def __init__(self, seed_masks: Sequence[int]) -> None:
        self.nodes: dict[str, _Node] = {}
        self._seed_masks = seed_masks  # the bits of each seed's atoms
        self._by_own: dict[frozenset[int], tuple[int, _Node]] = {}  # own -> (position, first node)

    def admit(self, touch: Sequence[int], make) -> _Node:
        # ``find``'s node for the candidate atoms of ``touch``, else the node
        # with its id; ``make()`` builds the candidate node only when it is new.
        found = self.find(touch)
        if found is not None:
            return found
        node = make()
        kept = self.nodes.setdefault(node.context.id, node)
        if kept is node:
            self._by_own.setdefault(frozenset(node.own), (len(self.nodes), node))
        return kept

    def find(self, touch: Sequence[int]) -> _Node | None:
        # The earliest node with as many atoms as ``touch`` that includes them
        # (so each includes the other).  A node of seed s does iff their
        # touches cut s's atoms into disjoint parts that are the node's atoms:
        # that partition is looked up for each seed.
        hits = []
        for seed in self._seed_masks:
            parts = [t & seed for t in touch]
            if sum(parts) == seed:  # the parts are disjoint
                found = self._by_own.get(frozenset(parts))
                if found is not None:
                    hits.append(found)
        return min(hits, key=lambda hit: hit[0])[1] if hits else None


def _add(nodes: _Registry, base: _Node, blocks: list[list[int]], keyed) -> _Node:
    # Admit the context whose atoms join ``blocks`` of ``base``'s atoms;
    # ``keyed()`` gives the ``_key_atoms`` entries of its atoms in block order.
    touch = [_join(base.touch, b) for b in blocks]
    own = [_join(base.own, b) for b in blocks]
    return nodes.admit(touch, lambda: _Node(*_canonical_context(keyed(), own, touch)))


def _complements(atoms: np.ndarray) -> tuple[list[tuple[int, ...]], np.ndarray]:
    # Every subset of 1 to n - 2 of the n stacked atoms, by size and then in
    # ``combinations`` order, and the stacked complements of their sums: the
    # identity less the subset's atoms, subtracted in subset order, the same
    # elementwise arithmetic as reduce(np.subtract, chosen, identity(dim)).
    n, dim = atoms.shape[:2]
    subsets: list[tuple[int, ...]] = []
    blocks = [np.empty((0, dim, dim), dtype=complex)]
    for r in range(1, n - 1):
        chosen = list(combinations(range(n), r))
        columns = np.array(chosen).T
        block = identity(dim) - atoms[columns[0]]
        for column in columns[1:]:
            block -= atoms[column]
        subsets += chosen
        blocks.append(block)
    return subsets, np.concatenate(blocks)


def _bit_rows(masks: Sequence[int], width: int) -> np.ndarray:
    # A 0/1 uint8 matrix whose row k holds the low ``width`` bits of masks[k].
    size = (width + 7) // 8
    raw = np.frombuffer(b"".join(m.to_bytes(size, "little") for m in masks), dtype=np.uint8)
    return np.unpackbits(raw.reshape(len(masks), size), axis=1, count=width, bitorder="little")


def _order_rows(nodes: Sequence[_Node], width: int) -> Iterator[tuple[int, np.ndarray, np.ndarray, int]]:
    # For each of ``nodes`` (sorted by falling atom count), in turn: its
    # position, the positions of the nodes it includes, an int32 array whose
    # row k is the restriction table to the k-th of them, as atom rows (the
    # atoms of all nodes in turn), and those positions as an int, position p
    # at bit len(nodes) - 1 - p (so no wider than the nodes from its group
    # on).  W <= V iff W's labels are defined and equal on the seed atoms of
    # each atom of V, and that label is the atom's restriction: the one atom
    # of W whose touch mask holds the seed atom.  A label is undefined only
    # where several do, as each seed atom touches some atom of every node
    # (``build_poset`` checks it).  So V's down-set int is the AND, over the
    # seed atoms t of each atom of V, of the int of the nodes whose labels at
    # t and at the atom's lowest seed atom are defined and equal.
    n = len(nodes)
    counts = np.array([len(node.own) for node in nodes])
    starts = (np.cumsum(counts) - counts).astype(np.int32)
    touch = _bit_rows([m for node in nodes for m in node.touch], width)
    index = (np.arange(len(touch)) - np.repeat(starts, counts)).astype(np.int16)[:, None]  # atom in its node
    labels = np.where(np.add.reduceat(touch, starts) == 1, np.add.reduceat(touch * index, starts, dtype=np.int16), -1)
    # Each pair (s, t) of an atom's lowest seed atom s and a seed atom t of it
    # has one int: the nodes whose labels at s and t are defined and equal.
    own = _bit_rows([m for node in nodes for m in node.own], width)
    low = own.argmax(axis=1)
    atom, seed = np.nonzero(own)
    pairs: dict[int, int] = {}  # s * width + t -> column; np.unique would page in numpy's sort code
    column = [pairs.setdefault(code, len(pairs)) for code in (low[atom] * width + seed).tolist()]
    s, t = np.divmod(np.array(list(pairs)), width)
    same = np.packbits(((labels[:, s] == labels[:, t]) & (labels[:, s] >= 0))[::-1].T, axis=1, bitorder="little")
    ints = [int.from_bytes(row.tobytes(), "little") for row in same]
    bounds = np.searchsorted(atom, [*starts, len(own)]).tolist()  # where each node's columns start
    for m in dict.fromkeys(counts.tolist()):
        first, end = np.searchsorted(-counts, [-m, -m + 1]).tolist()
        mask = (1 << (n - first)) - 1
        downs = [reduce(int.__and__, map(ints.__getitem__, column[bounds[v] : bounds[v + 1]]), mask)
                 for v in range(first, end)]
        rows, below = np.nonzero(_bit_rows(downs, n - first)[:, ::-1])
        subs = first + below
        tables = starts[subs, None] + labels[subs[:, None], low[starts[first:end, None] + np.arange(m)][rows]]
        cuts = np.searchsorted(rows, np.arange(1, end - first))
        yield from zip(range(first, end), np.split(subs, cuts), np.split(tables, cuts), downs)


class ContextPoset:
    """Immutable inclusion-ordered family of contexts.

    Instances are produced only by :func:`build_poset`.  The order and the
    per-inclusion atom restriction tables are read off seed-atom labels, without
    matrices: a seed atom's label at a context is the one atom that touches it,
    and sub <= sup iff sub's labels are defined and equal on the seed atoms of
    each sup atom, whose restriction is that label (a table holds its atom row:
    the atoms in poset and then atom order, numbered once by ``_row_starts``,
    each context's first row and then T).  The poset holds each down-set as
    an int over poset positions (``_below``), and refuses one that misses part
    of a member's with ``ValidationError``.  On first use it orders the characters
    by restriction, one bit each: ``_characters`` is ``(rows, reach)``, the
    down-set int of each atom row's character and the OR of each context's
    rows.  Each seed atom touches an atom of every seed (checked by
    ``build_poset``).  The poset keeps the seed atoms and each atom's seed
    mask, so that a touch with a family of projections is read off one
    ``touch_table`` of the seed atoms; its first poset-wide daseinisation,
    not the build, stacks its atoms again, read-only, one stack per atom
    count.  It keeps the ``Tolerances`` it was built with, for every call
    over the whole poset.  It holds two plain dicts that other modules fill
    and that hold no poset: logic.py's frame of each context, and
    valuation.py's atom bounds of the last eight quantities it valued.
    """

    def __init__(self, *args, **kwargs) -> None:
        raise TypeError("a ContextPoset is built only by build_poset")

    @classmethod
    def _from_build(
        cls, registry: _Registry, seed_atoms: Sequence[np.ndarray], tolerances: Tolerances
    ) -> ContextPoset:
        # build_poset's way in: the order and its tables, read off the registry.
        self = object.__new__(cls)
        ordered = sorted(registry.nodes.values(), key=lambda n: (-n.context.n_atoms, n.context.id))
        self._registry = registry
        self._seed_atoms = seed_atoms
        self._tolerances = tolerances
        self._contexts: tuple[Context, ...] = tuple(n.context for n in ordered)
        self._ids: tuple[str, ...] = tuple(c.id for c in self._contexts)
        self._down: dict[str, tuple[str, ...]] = {}
        self._tables: dict[str, np.ndarray] = {}  # row k: the table to the k-th id of _down, as atom rows
        # The one atom-row index: context p owns rows starts[p]:starts[p + 1] of T = starts[-1].
        self._row_starts = np.cumsum([0] + [c.n_atoms for c in self._contexts])
        ids = np.array(self._ids, dtype=object)
        order = list(_order_rows(ordered, len(seed_atoms)))
        self._bit: dict[str, int] = {cid: 1 << (len(self._ids) - 1 - p) for p, cid in enumerate(self._ids)}
        self._below: dict[str, int] = {self._ids[row]: down for row, *_, down in order}  # each id's down-set int
        for row, below, tables, down in order:
            sup = self._ids[row]
            self._down[sup] = tuple(ids[below].tolist())
            self._tables[sup] = tables
            # X <= Y <= Z must give X <= Z: each down-set holds those of its members.
            if reduce(int.__or__, map(self._below.__getitem__, self._down[sup]), down) != down:
                raise ValidationError(f"the touch test cannot order the contexts below {sup} transitively:"
                                      " some products of seed atoms lie close to tau")
        self._sieve_frames: dict = {}  # logic.py's frame of each context id, filled on first use
        self._quantity_bounds: dict[tuple, tuple] = {}  # A's key -> a (low, high) pair per atom row
        return self

    # -- basic container protocol ------------------------------------------

    def __iter__(self) -> Iterator[Context]:
        return iter(self._contexts)

    def __len__(self) -> int:
        return len(self._contexts)

    def __contains__(self, item) -> bool:
        if isinstance(item, Context):
            item = item.id
        return isinstance(item, str) and item in self._down

    @property
    def ids(self) -> tuple[str, ...]:
        return self._ids

    @property
    def tolerances(self) -> Tolerances:
        return self._tolerances

    @property
    def inclusions(self) -> tuple[tuple[str, str], ...]:
        """Every strict inclusion as a ``(sup_id, sub_id)`` pair, in canonical
        poset order of the sup and then of the sub."""
        return tuple((sup, sub) for sup, down in self._down.items() for sub in down if sub != sup)

    @property
    def dim(self) -> int:
        return self._contexts[0].dim

    def get(self, context_id: str) -> Context:
        self.down_ids(context_id)  # the id check
        return self._registry.nodes[context_id].context

    # -- order structure ----------------------------------------------------

    def is_leq(self, sub_id: str, sup_id: str) -> bool:
        """True iff the context ``sub_id`` is included in ``sup_id``."""
        self.down_ids(sub_id)  # the id check of sub_id
        return sub_id in self.down_ids(sup_id)

    def down_ids(self, context_id: str) -> tuple[str, ...]:
        """Ids of all subcontexts (the down-set), in canonical poset order.
        The poset's one id check: any other value raises ``UnknownContext``."""
        try:
            return self._down[context_id]
        except (KeyError, TypeError):
            raise UnknownContext(f"no context with id {brief_repr(context_id)} in this poset") from None

    def restriction_indices(self, sup_id: str, sub_id: str) -> tuple[int, ...]:
        """Atom index map along an inclusion: fine atom -> dominating coarse atom."""
        try:
            k = self.down_ids(sup_id).index(sub_id)
        except ValueError:
            raise UnknownContext(f"{brief_repr(sub_id)} is not a subcontext of {sup_id!r}") from None
        first = self._row_starts[len(self._ids) - self._bit[sub_id].bit_length()]
        return tuple((self._tables[sup_id][k] - first).tolist())

    @cached_property
    def _characters(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The characters ordered by restriction, one bit each: ``(rows, reach)``.

        The character of atom row r of T has bit T - 1 - r, so the bits run
        in poset order from the top down and a character's down-set int is
        no wider than the characters from its context on.  ``rows[r]`` is
        the down-set of that character as an int over these bits: for (V, i),
        (W, the restriction of atom i to W) for each W of V's down-set.  x
        lies in S => T iff ``rows[x]`` misses the mask of S - T.  ``reach[p]``
        holds every character of the down-set of contexts of the context at
        position p, the OR of its rows, as every character there is the
        restriction of one of its own.
        """
        # Row k of V's table restricts V's atoms to the k-th context W of its down-set:
        # entry i is the atom row r, of T, of that character of W, bit T - 1 - r of (V, i)'s int.
        # The contexts of n atoms follow each other in poset order and their
        # tables stack into n columns.  Each such group writes the ints of its
        # characters into one buffer, as many little-endian bytes for each as
        # the group's first needs: bit e of its c-th is bit 8 * size * c + e.
        last, rows = int(self._row_starts[-1]) - 1, []
        for n, group in groupby(self._contexts, lambda c: c.n_atoms):
            downs, tables = zip(*((self._down[c.id], self._tables[c.id]) for c in group))
            size = (last - len(rows)) // 8 + 1  # bytes per int
            start = np.repeat(np.arange(len(downs) * n).reshape(-1, n) * 8 * size, list(map(len, downs)), axis=0)
            at = (start + last - np.concatenate(tables)).ravel()
            data = bytearray(len(downs) * n * size)
            np.add.at(np.frombuffer(data, dtype=np.uint8), at >> 3, (1 << (at & 7)).astype(np.uint8))
            rows += [int.from_bytes(data[a : a + size], "little") for a in range(0, len(data), size)]
        starts = self._row_starts.tolist()
        return tuple(rows), tuple(reduce(int.__or__, rows[a:b]) for a, b in zip(starts, starts[1:]))

    @cached_property
    def _seed_sums(self) -> tuple[np.ndarray, np.ndarray]:
        # The stacked seed atoms and a 0/1 matrix whose row k marks the seed
        # atoms that atom row k sums, whose product with a touch_table of the
        # seed atoms is the table of every poset atom.
        masks = [mask for c in self._contexts for mask in self._registry.nodes[c.id].own]
        return np.asarray(self._seed_atoms), _bit_rows(masks, len(self._seed_atoms)).astype(float)

    @cached_property
    def _atom_stacks(self) -> tuple[np.ndarray, ...]:
        # A read-only (contexts, n, dim, dim) stack of the atoms of the contexts
        # of n atoms, which follow each other in poset order, for each n.
        stacks = tuple(np.array([c.atoms for c in group]) for _, group in groupby(self._contexts, lambda c: c.n_atoms))
        for stack in stacks:
            stack.setflags(write=False)
        return stacks

    def _tolerance(self, tau: float | None = None, tau_eig: float | None = None) -> Tolerances:
        # The poset's tolerances, for a poset-wide call given each as None or
        # as the poset's value: another tau would decide touches the poset was
        # not built with, another tau_eig cluster eigenvalues unlike its calls.
        # A value that is exactly a float is decided by one comparison first.
        kept = self._tolerances
        if (tau is None or type(tau) is float and tau == kept.tau) and (
            tau_eig is None or type(tau_eig) is float and tau_eig == kept.tau_eig
        ):
            return kept
        for name, value in (("tau", tau), ("tau_eig", tau_eig)):
            own = getattr(kept, name)
            if value is not None and not (finite_number(value) and value == own):
                raise ValidationError(f"{name}={brief_repr(value)} differs from the {name}={own}"
                                      " the poset was built with")
        return kept

    def find(self, atoms: Iterable[np.ndarray]) -> Context | None:
        """Locate the poset context with the given atom set, if present, by
        its partition of a seed's atoms, as the build matches a new context."""
        wanted = context_from_atoms(atoms, self._tolerances.tau)
        found = self._registry.find(touch_masks(wanted.atoms, self._seed_atoms, self._tolerances.tau))
        return None if found is None else found.context


def _close_under_meets(registry: _Registry, met: dict[str, _Node], memo: dict) -> None:
    # Intersection closure of the seeds in ``met`` (meets of meets included),
    # each meet added to ``met`` by id: each round meets the contexts found in
    # the previous one with everything known.  Meets are not coarsened: that
    # would pull in subalgebras that none of the seed families contain.  A
    # pair is skipped when its meet cannot be new: a context met with itself,
    # and a two-atom context, whose only proper subalgebra is the scalars,
    # give back a context of the pair, which the registry finds by its
    # seed-atom masks.
    start = 0
    while start < len(met):
        current = list(met.values())
        for new in current[start:]:
            if new.context.n_atoms == 2:
                continue
            for old in current:
                if old is new or old.context.n_atoms == 2:
                    continue
                groups = _components([_hits(t, old.own) for t in new.touch])
                if len(groups) >= 2:
                    atoms = new.context.atoms
                    meet = _add(registry, new, groups,
                                lambda: _key_atoms([sum(atoms[i] for i in g) for g in groups], memo))
                    met.setdefault(meet.context.id, meet)
        start = len(current)


def build_poset(seed_contexts: Sequence[Context], tau: float = TAU, tau_eig: float = TAU_EIG) -> ContextPoset:
    """Generate the finite poset spanned by the seeds.

    The poset contains every subalgebra of a seed generated by a subset of
    its atoms, together with the intersection closure of the seeds (so any
    two seeds sharing structure are connected through their meet).  The
    scalar algebra is excluded.  The only geometry is one touch test between
    all seed atoms; every context is a partition of one seed's atoms, and
    identity, meets and the order follow from the seed-atom masks.  Of two
    contexts that include each other, or that share an id, the first one
    generated is kept: each seed, then the contexts it refines, then the meets.
    Atoms are keyed for the canonical order and the id in stacked passes: one
    for all seeds' atoms, one per seed for the complements of its coarsenings
    (built by subset size), and one per new meet; the contexts are still
    offered one at a time, in the order above.
    Seeds that span more than ``CONTEXT_CAP`` contexts on their own (2^n -
    n - 1 for a seed of n atoms, meets not counted) raise
    ``EnumerationLimitExceeded`` before any context is built, and so do
    seeds with an atom that touches no atom of some seed (``ValidationError``
    naming tau).  Exact seeds of C^n pass for tau < 1/sqrt(n), the loader's
    bound: a seed atom's ||bc||_F^2 over a seed's atoms c sum to its rank.
    The poset keeps ``Tolerances(tau, tau_eig)``, checked before anything else.
    """
    tolerances = Tolerances(tau, tau_eig)
    seeds = _listed(seed_contexts, "seed contexts")
    if not seeds:
        raise EmptySeed("at least one seed context is required")
    count = sum(2**s.n_atoms - s.n_atoms - 1 for s in seeds)
    if count > CONTEXT_CAP:
        raise EnumerationLimitExceeded(
            f"the seeds span {count:,} contexts on their own (2^n - n - 1 for a seed of n atoms,"
            f" meets not counted), more than the cap of {CONTEXT_CAP:,}"
        )
    seed_atoms = [a for s in seeds for a in s.atoms]
    rows = touch_masks(seed_atoms, seed_atoms, tau)
    ends = [0, *accumulate(s.n_atoms for s in seeds)]
    seed_masks = [(1 << hi) - (1 << lo) for lo, hi in zip(ends, ends[1:])]
    # Each row meets every seed and each seed's rows cover every seed atom:
    # both ways round, as the float table need not be symmetric.
    if any(not row & seed for row in rows for seed in seed_masks) or any(
        _join(rows, _bits(seed)) != (1 << len(rows)) - 1 for seed in seed_masks
    ):
        raise ValidationError(f"at tau={tau} a seed atom touches no atom of some seed;"
                              " exact seeds of C^n touch for every tau < 1/sqrt(n)")
    memo: dict = {}
    seed_keys = _key_atoms(seed_atoms, memo)
    registry = _Registry(seed_masks)
    met: dict[str, _Node] = {}  # the seeds and their meets, each once
    for lo, hi in zip(ends, ends[1:]):
        own, touch = [1 << i for i in range(lo, hi)], rows[lo:hi]
        seed = registry.admit(touch, lambda: _Node(*_canonical_context(seed_keys[lo:hi], own, touch)))
        met.setdefault(seed.context.id, seed)
        # Subsets of all atoms, or of all but one, give the seed itself.  The
        # other coarsenings' new atoms are keyed in one pass, and each
        # coarsening is offered in turn.
        atoms = seed.context.atoms
        n = len(atoms)
        subsets, complements = _complements(np.asarray(atoms))
        keys = _key_atoms(atoms, memo)
        for subset, rest in zip(subsets, _key_atoms(complements, memo)):
            _add(registry, seed, [[i] for i in subset] + [[i for i in range(n) if i not in subset]],
                 lambda: [keys[i] for i in subset] + [rest])
    _close_under_meets(registry, met, memo)
    return ContextPoset._from_build(registry, seed_atoms, tolerances)


def down_set(poset: ContextPoset, context: Context) -> tuple[Context, ...]:
    """All subcontexts of ``context`` within the poset, including itself."""
    return tuple(poset.get(cid) for cid in poset.down_ids(context.id))
