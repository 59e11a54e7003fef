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
from .daseinisation import DaseinisedProposition, _daseinise
from .errors import NotUnitVector, SearchBudgetExceeded, UnknownContext, ValidationError
from .logic import GlobalElementOfOmega, _element
from .operators import (
    TAU,
    TAU_EIG,
    Tolerances,
    _clusters,
    _complex,
    _decompose,
    _spectral_projection,
    _two_valued,
    as_operator,
    cluster_table,
    require_projector,
    table_bounds,
    touch_table,
)
from .presheaf import (
    Character,
    ClopenSubobject,
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
    seeds, sums, starts = poset._seed_sums
    hits = sums @ touch_table(seeds, _two_valued(P).projectors + _two_valued(ray).projectors) > tau * tau
    if not (hits[:, :2].any(axis=1) & hits[:, 2:].any(axis=1)).all():
        raise ValidationError(f"an atom touches no projection of the family at tau={tau}")
    # The bits of the contexts where an atom touches the ray but not P; keep those whose down-set misses them.
    fails = np.logical_or.reduceat(hits[:, 3] & ~hits[:, 1], starts).tolist()
    failing = sum(bit for bit, fail in zip(poset._bit.values(), fails) if fail)
    return _element(poset, failing)


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
    which is never formed.  The poset keeps the clusters of the last A it
    valued, and each context its table and character bounds for the last A
    valued there, so a sweep with one A clusters it once and a character
    valued again for that A is read back; A's array data, the tolerances,
    the context and the character are checked on every call."""
    poset._tolerance(tau, tau_eig)
    return _value_arrows(poset, _keyed(A), _own_context(poset, context), [character])[0]


def quantity_value_arrows(poset: ContextPoset, A, context: Context | None = None) -> dict[Character, IntervalPair]:
    """The arrow delta(A) from the spectral presheaf to the quantity-value
    object: ``quantity_value_arrow`` at every character of one context, or
    of every context when ``context`` is None, keyed by character in poset
    and atom order.  A is checked, and clustered at the poset's tolerances
    unless it was the last A the poset valued; a context whose last A it was
    reads its characters' bounds back."""
    keyed = _keyed(A)
    contexts = poset if context is None else (_own_context(poset, context),)
    arrows: dict[Character, IntervalPair] = {}
    for c in contexts:
        characters = gelfand_spectrum(c)
        arrows.update(zip(characters, _value_arrows(poset, keyed, c, characters)))
    return arrows


def _own_context(poset: ContextPoset, context: Context) -> Context:
    # The poset's own context of the given one's id, whose atom count and
    # characters the value calls read: a Context with a poset id and another
    # atom count is no context of the poset.
    own = poset.get(context.id)
    if context.n_atoms != own.n_atoms:
        raise UnknownContext(f"{context.id!r} has {own.n_atoms} atoms in this poset, not {context.n_atoms}")
    return own


def _keyed(A) -> tuple[tuple, np.ndarray]:
    # A's array data, checked on every call, and its slot key: its shape and
    # bytes as as_operator returns it.
    A = as_operator(A)
    return (A.shape, A.tobytes()), A


def _quantity(poset: ContextPoset, keyed: tuple) -> tuple:
    # The poset's slot for the last quantity it valued, (key, eigenvalues,
    # vecs, starts), if its key is A's; else A clustered, which checks it
    # self-adjoint, in a new slot that _value_arrows stores once a context's
    # table is built from it.  Equal bytes at the poset's fixed tolerances
    # give the same verdict and clusters.
    key, A = keyed
    slot = poset._last_quantity
    if slot is None or slot[0] != key:
        slot = (key, *_clusters(A, poset.tolerances))
    return slot


def _value_arrows(
    poset: ContextPoset, keyed: tuple, context: Context, characters: Sequence[Character]
) -> list[IntervalPair]:
    # The one interval-value kernel, of quantity_value_arrow and
    # quantity_value_arrows: the pairs of several characters of one of the
    # poset's contexts, for A and its key from _keyed.  Each context keeps one
    # slot, (key, eigenvalues, table, rows), for the last A valued there.  The
    # table is the cluster_table of the seed atoms that the context's atoms
    # sum, whose entries ||bV_c||_F^2 = ||bP_c||_F^2 are the touch_table's
    # against A's spectral projections, read at each restricted atom as the
    # sum of the rows of the context atoms in its restriction class.  rows[i]
    # holds character i's (lows, highs) over down_ids, filled on its first
    # call.  A miss reads the poset's slot, or clusters A, and builds the
    # table; both slots are stored only then, so an A that fails at its
    # clusters or at the table (another dimension) leaves every slot as it
    # was.  A context slot shares the poset slot's key object and
    # eigenvalues and holds no reference to the poset or to the caller's array.
    for character in characters:
        _require_member(context, character)
    down = poset.down_ids(context.id)
    seeds, sums = poset._restricted_sums[context.id]
    slot = poset._context_quantities.get(context.id)
    if slot is None or slot[0] != keyed[0]:
        key, eigenvalues, vecs, starts = quantity = _quantity(poset, keyed)
        slot = (key, eigenvalues, cluster_table(seeds, vecs, starts), [None] * context.n_atoms)
        poset._last_quantity, poset._context_quantities[context.id] = quantity, slot
    _, eigenvalues, table, rows = slot
    pairs = []
    for character in characters:
        i = character.atom_index
        if rows[i] is None:
            rows[i] = tuple(zip(*table_bounds(sums[i] @ table, eigenvalues, poset.tolerances.tau)))
        lows, highs = rows[i]
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
    ``ContextPoset._characters``: ``forced``, the characters chosen so far,
    and ``blocked``, the other characters of the contexts they force.  A
    character is allowed iff its down-set int misses ``blocked``; choosing it
    ORs that int into ``forced`` and the rest of its context's down-set of
    characters into ``blocked``.
    Raises ``SearchBudgetExceeded`` after ``budget`` assignment attempts.
    Absence of sections certifies contextuality for this finite poset only.
    """
    if not (integer(budget) and budget >= 0):
        raise ValidationError(f"budget must be an integer >= 0, got {brief_repr(budget)}")
    order = poset.ids  # already sorted by descending atom count
    top, below, reach = poset._characters
    sections: list[GlobalSection] = []
    nodes = 0
    # Each entry is a position in ``order``, ``forced`` and ``blocked``; the
    # children of an entry are pushed in reverse so that they pop in order.
    stack: list[tuple[int, int, int]] = [(0, 0, 0)]
    while stack:
        k, forced, blocked = stack.pop()
        # A forced context has its other characters blocked, so (V, 0) or (V, 1) is.
        while k < len(order) and blocked >> (top[order[k]] - 1) & 3:
            k += 1
        if k == len(order):
            # Digit b is bit b of forced; the highest set bit up to top[V] is V's character.
            digits = format(forced, "b")[::-1]
            sections.append(GlobalSection({v: top[v] - digits.rindex("1", 0, top[v] + 1) for v in sorted(order)}))
            continue
        downs, whole = below[order[k]], reach[order[k]]
        nodes += len(downs)
        if nodes > budget:
            raise SearchBudgetExceeded(f"section search exceeded the budget of {budget} nodes")
        stack += reversed([(k + 1, forced | down, blocked | (whole ^ down)) for down in downs if not down & blocked])
    return tuple(sections)
