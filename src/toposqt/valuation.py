"""Pseudo-states, sieve-valued truth, interval-valued quantities, sections.

A pure state enters the presheaf picture as the outer daseinisation of its
rank-one projector (the pseudo-state).  The truth value of a proposition at a
context is the sieve of subcontexts where the pseudo-state lies below the
daseinised proposition; these sieves always assemble into a global element
of the classifier.  Physical quantities read off interval endpoints from the
spectral projections that a character's restricted atoms touch, and the
search for global sections of the spectral presheaf decides contextuality
for the finite poset at hand.  Touches and clusters run at the poset's one
``Tolerances``; operands are checked as README's boundary contract says.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._json import brief_repr, integer
from .contexts import Context, ContextPoset
from .daseinisation import DaseinisedProposition, _daseinise, _weights
from .errors import NotUnitVector, SearchBudgetExceeded, UnknownContext, ValidationError
from .logic import GlobalElementOfOmega, _element
from .operators import (
    TAU,
    TAU_EIG,
    Tolerances,
    _array,
    _clusters,
    _complex,
    _decompose,
    _operator,
    _spectral_projection,
    cluster_table,
    identity,
    require_projector,
    table_bounds,
    touch_table,
)
from .presheaf import (
    Character,
    ClopenSubobject,
    _flags,
    _pack,
    _require_contexts,
    _require_member,
    gelfand_spectrum,
    is_clopen_subobject,
)

#: Default node budget for the global-section search.
DEFAULT_SEARCH_BUDGET = 1_000_000


def _ray(psi, tau: float) -> np.ndarray:
    # The projector |psi><psi| onto a unit vector's ray.
    psi = _complex(psi).reshape(-1)
    if not abs(psi.conj() @ psi - 1) <= tau:  # is_orthonormal's Gram entry, of the array already checked
        raise NotUnitVector("state vector must have norm one")
    return np.outer(psi, psi.conj())


def pseudo_state(poset: ContextPoset, psi, tau: float | None = None) -> DaseinisedProposition:
    """Outer-daseinise the state's rank-one projector |psi><psi| over the poset:
    per context, the smallest projection certain in the state."""
    return _daseinise(poset, _ray(psi, poset._tolerance(tau).tau), 1)


def proposition_projector(A, interval, tau: float = TAU, tau_eig: float = TAU_EIG) -> np.ndarray:
    """Spectral projection of A onto a closed interval (lo, hi) of
    eigenvalues, lo <= hi, each end widened by ``tau_eig``; an infinite end
    leaves that side open.  ``Tolerances`` checks tau and tau_eig first."""
    tolerances = Tolerances(tau, tau_eig)
    return _spectral_projection(_decompose(A, tolerances), interval, tolerances.tau_eig)


def truth_value(poset: ContextPoset, P, psi, tau: float | None = None) -> GlobalElementOfOmega:
    """Sieve-valued truth of a projection in a state, one sieve per context.

    The sieve collects the subcontexts V where, at V and at every subcontext
    of V, the pseudo-state lies below the outer daseinisation of P: every
    atom touching the state's ray also touches P.  (Touches add up in
    quadrature as atoms merge, so the test at V alone is not monotone.)  The
    result always satisfies the global-element matching condition: it is
    the down-set of those V, whose sieves are built on first read.  Both
    outer daseinisations are read off one touch_table of the seed atoms
    against 1 - P, P, 1 - |psi><psi| and |psi><psi|; an atom that touches
    neither projection of P's family or of the state's raises ``ValidationError``.
    """
    tau = poset._tolerance(tau).tau
    P, ray = require_projector(P, tau), _ray(psi, tau)
    seeds, sums = poset._seed_sums
    rows = sums @ touch_table(seeds, (identity(len(P)) - P, P, identity(len(ray)) - ray, ray))
    failing = _weights(rows[:, 2:], 1, tau) & ~_weights(rows[:, :2], 1, tau)  # the atoms touching the ray, not P
    # The int of the contexts where an atom fails; keep those whose down-set misses it.
    return _element(poset, _pack(np.logical_or.reduceat(failing, poset._row_starts[:-1]).tobytes()))


@dataclass(frozen=True)
class IntervalPair:
    """Interval endpoints of a quantity along a character's down-set.

    ``mu`` grows and ``nu`` shrinks with the context, with mu <= nu
    everywhere: the interval can only widen as the context coarsens.
    """

    base: str
    mu: dict[str, float]
    nu: dict[str, float]


def quantity_value_arrow(
    poset: ContextPoset,
    A,
    context: Context,
    character: Character,
    tau: float | None = None,
    tau_eig: float | None = None,
) -> IntervalPair:
    """Evaluate a quantity at a character: per subcontext, the least (mu) and
    greatest (nu) eigenvalue of A whose spectral projection the restricted
    character's atom touches, i.e. the values of the inner and outer
    daseinisations of A there.  An atom a touches the eigenspace of a cluster
    c iff ||aV_c||_F^2 > tau^2, read off A's orthonormal eigenvectors V_c;
    this equals ||aP_c||_F^2 for the spectral projection P_c = V_c V_c^*,
    which is never formed.  The poset keeps the bounds of every poset atom
    for each of the last eight A it valued (``_atom_bounds``), keyed by A's
    shape and bytes, so a sweep with A checks and clusters it once and a
    character's pair is a gather of its restricted atoms' bounds.  A is
    checked only when its bytes are not kept; the tolerances, the context
    and the character are checked on every call."""
    poset._tolerance(tau, tau_eig)
    keyed = _keyed(poset, A)
    context = _own_context(poset, context)
    _require_member(context, character)
    return _value_arrows(poset, _atom_bounds(poset, keyed), context, [character])[0]


def quantity_value_arrows(poset: ContextPoset, A, context: Context | None = None) -> dict[Character, IntervalPair]:
    """The arrow delta(A) from the spectral presheaf to the quantity-value
    object: ``quantity_value_arrow`` at every character of one context, or
    of every context when ``context`` is None, keyed by character in poset
    and atom order.  A is checked and clustered at the poset's tolerances
    unless the poset keeps atom bounds for its bytes."""
    keyed = _keyed(poset, A)
    contexts = poset if context is None else (_own_context(poset, context),)
    bounds = _atom_bounds(poset, keyed)
    arrows: dict[Character, IntervalPair] = {}
    for c in contexts:
        characters = gelfand_spectrum(c)
        arrows.update(zip(characters, _value_arrows(poset, bounds, c, characters)))
    return arrows


def _own_context(poset: ContextPoset, context: Context) -> Context:
    # The poset's own context of the given one's id, whose atom count and
    # characters the value calls read: a Context with a poset id and another
    # atom count is no context of the poset.
    own = poset.get(context.id)
    if context.n_atoms != own.n_atoms:
        raise UnknownContext(f"{context.id!r} has {own.n_atoms} atoms in this poset, not {context.n_atoms}")
    return own


def _keyed(poset: ContextPoset, A) -> tuple[tuple, np.ndarray, dict]:
    # A's key in the poset's map of atom bounds, the shape and bytes of A
    # converted once, with A and the map, read once.  A kept key's bytes
    # passed every check at the poset's fixed tolerances, so a hit runs none
    # of them; a miss runs as_operator's checks here, before the context and
    # character checks, and the self-adjoint one when A is clustered.
    data, A = A, _array(A)
    key, kept = (A.shape, A.tobytes()), poset._quantity_bounds
    if key not in kept:
        _operator(A, data)
    return key, A, kept


#: The quantities whose atom bounds a poset keeps.  The benchmark's query
#: traffic rotates eight observables per poset, two for each of its inputs.
_KEPT_QUANTITIES = 8


def _atom_bounds(poset: ContextPoset, keyed: tuple) -> tuple[tuple[float, float], ...]:
    # The least and the greatest eigenvalue of A that each poset atom
    # touches, one pair per atom row: the entry for A's key in the map that
    # _keyed read, or A clustered, which checks it self-adjoint, and one
    # table_bounds of the sums of the seed atoms' cluster_table.  Equal bytes
    # at the poset's fixed tolerances give the same bounds.  A miss stores a
    # new map, without its oldest entry when it is full, so no thread sees it
    # half updated (two misses at once may keep only one entry, which costs a
    # clustering again); an A that fails stores nothing.  The map holds no
    # reference to the poset or to the caller's array.
    key, A, kept = keyed
    bounds = kept.get(key)
    if bounds is None:
        eigenvalues, vecs, starts = _clusters(A, poset.tolerances)
        seeds, sums = poset._seed_sums
        bounds = tuple(table_bounds(sums @ cluster_table(seeds, vecs, starts), eigenvalues, poset.tolerances.tau))
        poset._quantity_bounds = dict([*kept.items()][1 - _KEPT_QUANTITIES :] + [(key, bounds)])
    return bounds


def _value_arrows(
    poset: ContextPoset, bounds: tuple, context: Context, characters: Sequence[Character]
) -> list[IntervalPair]:
    # The one interval-value kernel, of quantity_value_arrow and
    # quantity_value_arrows: the pairs of several characters of one of the
    # poset's contexts, checked, for A's bounds from _atom_bounds.  mu and nu
    # of (V, i) at W are the bounds of the atom of W that atom i restricts to,
    # whose atom row is in column i of V's restriction tables, at W's position.
    down, table = poset.down_ids(context.id), poset._tables[context.id]
    pairs = []
    for character in characters:
        lows, highs = zip(*[bounds[r] for r in table[:, character.atom_index].tolist()])
        pairs.append(IntervalPair(context.id, dict(zip(down, lows)), dict(zip(down, highs))))
    return pairs


@dataclass(frozen=True)
class GlobalSection:
    """A choice of one character per context, consistent under restriction."""

    assignment: dict[str, int]


def is_global_section(poset: ContextPoset, section: GlobalSection) -> bool:
    """Check the restriction-consistency of a candidate section: one
    character per context, the restrictions of each chosen."""
    _require_contexts(poset, section.assignment, "section")
    singletons = {cid: (value,) for cid, value in section.assignment.items()}
    return is_clopen_subobject(poset, ClopenSubobject(singletons))


def global_sections(
    poset: ContextPoset, budget: int = DEFAULT_SEARCH_BUDGET
) -> tuple[GlobalSection, ...]:
    """Exhaustively enumerate the global sections of the spectral presheaf.

    Backtracking over atom choices, most-constrained (largest) contexts
    first; every assignment is propagated through the whole down-set at once
    so inconsistencies between overlapping contexts prune immediately.  A
    search node holds two ints over the character bits of
    ``ContextPoset._characters``, ``(rows, reach)``: ``forced``, the
    characters chosen so far, and ``blocked``, the other characters of the
    contexts they force.  A character is allowed iff its down-set int, its
    atom row's entry of ``rows``, misses ``blocked``; choosing it ORs that
    int into ``forced`` and the rest of its context's ``reach`` into
    ``blocked``.
    Raises ``SearchBudgetExceeded`` after ``budget`` assignment attempts.
    Absence of sections certifies contextuality for this finite poset only.
    """
    if not (integer(budget) and budget >= 0):
        raise ValidationError(f"budget must be an integer >= 0, got {brief_repr(budget)}")
    order = poset.ids  # already sorted by descending atom count
    rows, reach = poset._characters
    starts, ranked = poset._row_starts.tolist(), None
    # Per context, the shift that brings its first two character bits down, and its rows.
    shifts, groups = [starts[-1] - 2 - s for s in starts[:-1]], [rows[a:b] for a, b in zip(starts, starts[1:])]
    sections: list[GlobalSection] = []
    nodes = 0
    # Each entry is a position in ``order``, ``forced`` and ``blocked``; the
    # children of an entry are pushed in reverse so that they pop in order.
    stack: list[tuple[int, int, int]] = [(0, 0, 0)]
    while stack:
        k, forced, blocked = stack.pop()
        # A forced context has its other characters blocked, so (V, 0) or (V, 1) is.
        while k < len(order) and blocked >> shifts[k] & 3:
            k += 1
        if k == len(order):
            # forced holds one row of each context: its character.
            flags, ranked = _flags(forced, starts[-1]), ranked or sorted(zip(order, starts))  # the contexts by id
            sections.append(GlobalSection({v: flags.index(1, s) - s for v, s in ranked}))
            continue
        downs, whole = groups[k], reach[k]
        nodes += len(downs)
        if nodes > budget:
            raise SearchBudgetExceeded(f"section search exceeded the budget of {budget} nodes")
        stack += reversed([(k + 1, forced | down, blocked | (whole ^ down)) for down in downs if not down & blocked])
    return tuple(sections)
