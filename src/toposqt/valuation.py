"""Pseudo-states, sieve-valued truth, interval-valued quantities, sections.

A pure state enters the presheaf picture as the outer daseinisation of its
rank-one projector (the pseudo-state).  The truth value of a proposition at a
context is the sieve of subcontexts where the pseudo-state lies below the
daseinised proposition; these sieves always assemble into a global element
of the classifier.  Physical quantities read off interval endpoints from the
spectral projections that a character's restricted atoms touch, and the
search for global sections of the spectral presheaf decides contextuality
for the finite poset at hand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contexts import Context, ContextPoset
from .daseinisation import daseinise_proposition, spectral_bounds
from .errors import NotUnitVector, SearchBudgetExceeded
from .logic import GlobalElementOfOmega, Sieve
from .operators import TAU, TAU_EIG, require_self_adjoint, spectral_decomposition, zero
from .presheaf import Character, ClopenSubobject, _require_member, is_clopen_subobject

#: Default node budget for the global-section search.
DEFAULT_SEARCH_BUDGET = 1_000_000


def _require_unit(psi, tau: float) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if abs(np.linalg.norm(psi) - 1.0) > max(tau, 1e-9):
        raise NotUnitVector("state vector must have norm one")
    return psi


@dataclass(frozen=True)
class PseudoState:
    """Per-context smallest projections certain in the state, with their
    character sets: the daseinised rank-one projector of the state."""

    state: np.ndarray
    per_context_projector: dict[str, np.ndarray]
    subobject: ClopenSubobject


def pseudo_state(poset: ContextPoset, psi, tau: float = TAU) -> PseudoState:
    """Outer-daseinise the state's rank-one projector over the poset."""
    psi = _require_unit(psi, tau)
    d = daseinise_proposition(poset, np.outer(psi, psi.conj()), tau)
    return PseudoState(d.source, d.per_context_projector, d.subobject)


def proposition_projector(A, interval, tau: float = TAU, tau_eig: float = TAU_EIG) -> np.ndarray:
    """Spectral projection of A onto a closed interval of eigenvalues.

    Endpoint membership is decided within ``tau_eig``.
    """
    A = require_self_adjoint(A, tau)
    lo, hi = float(interval[0]), float(interval[1])
    decomp = spectral_decomposition(A, tau, tau_eig)
    out = zero(decomp.dim)
    for lam, proj in zip(decomp.eigenvalues, decomp.projectors):
        if lo - tau_eig <= lam <= hi + tau_eig:
            out += proj
    return out


def truth_value(poset: ContextPoset, P, psi, tau: float = TAU) -> GlobalElementOfOmega:
    """Sieve-valued truth of a projection in a state, one sieve per context.

    The sieve collects the subcontexts V where, at V and at every subcontext
    of V, the pseudo-state lies below the outer daseinisation of P: every
    atom touching the state's ray also touches P.  (Touches add up in
    quadrature as atoms merge, so the test at V alone is not monotone.)  The
    result always satisfies the global-element matching condition.
    """
    outer = daseinise_proposition(poset, P, tau).subobject
    state = pseudo_state(poset, psi, tau).subobject
    below = {cid for cid in poset.ids if state.at(cid) <= outer.at(cid)}
    certain = {cid for cid in below if below.issuperset(poset.down_ids(cid))}
    sieves = {
        cid: Sieve(cid, frozenset(certain.intersection(poset.down_ids(cid))))
        for cid in poset.ids
    }
    return GlobalElementOfOmega(sieves)


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
    tau: float = TAU,
    tau_eig: float = TAU_EIG,
) -> IntervalPair:
    """Evaluate a quantity at a character: per subcontext, the least (mu) and
    greatest (nu) eigenvalue of A whose spectral projection the restricted
    character's atom touches, i.e. the values of the inner and outer
    daseinisations of A there."""
    decomp = spectral_decomposition(A, tau, tau_eig)
    _require_member(context, character)
    down, fine = poset.down_ids(context.id), character.atom_index
    atoms = [poset.get(s).atoms[poset.restriction_indices(context.id, s)[fine]] for s in down]
    bounds = spectral_bounds(decomp, atoms, tau)
    mu = {sub_id: lo for sub_id, (lo, _) in zip(down, bounds)}
    nu = {sub_id: hi for sub_id, (_, hi) in zip(down, bounds)}
    return IntervalPair(context.id, mu, nu)


@dataclass(frozen=True)
class GlobalSection:
    """A choice of one character per context, consistent under restriction."""

    assignment: dict[str, int]

    def character_at(self, context_id: str) -> Character:
        return Character(context_id, self.assignment[context_id])


def is_global_section(poset: ContextPoset, section: GlobalSection) -> bool:
    """Check the restriction-consistency of a candidate section."""
    if set(section.assignment.keys()) != set(poset.ids):
        return False
    singletons = {cid: {value} for cid, value in section.assignment.items()}
    return is_clopen_subobject(poset, ClopenSubobject(singletons))


def global_sections(
    poset: ContextPoset, budget: int = DEFAULT_SEARCH_BUDGET
) -> tuple[GlobalSection, ...]:
    """Exhaustively enumerate the global sections of the spectral presheaf.

    Backtracking over atom choices, most-constrained (largest) contexts
    first; every assignment is propagated through the whole down-set at once
    so inconsistencies between overlapping contexts prune immediately.
    Raises ``SearchBudgetExceeded`` after ``budget`` assignment attempts.
    Absence of sections certifies contextuality for this finite poset only.
    """
    order = list(poset.ids)  # already sorted by descending atom count
    strict_subs: dict[str, list[str]] = {cid: [] for cid in order}
    for sup_id, sub_id in poset.inclusions:
        strict_subs[sup_id].append(sub_id)
    forced: dict[str, int] = {}
    sections: list[GlobalSection] = []
    nodes = 0

    def propagate(cid: str, value: int, trail: list[str]) -> bool:
        for sub_id in strict_subs[cid]:
            pushed = poset.restriction_indices(cid, sub_id)[value]
            known = forced.get(sub_id)
            if known is None:
                forced[sub_id] = pushed
                trail.append(sub_id)
            elif known != pushed:
                return False
        return True

    def search(k: int) -> None:
        nonlocal nodes
        if k == len(order):
            sections.append(GlobalSection(dict(sorted(forced.items()))))
            return
        cid = order[k]
        if cid in forced:
            search(k + 1)
            return
        context = poset.get(cid)
        for value in range(context.n_atoms):
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded(
                    f"section search exceeded the budget of {budget} nodes"
                )
            trail = [cid]
            forced[cid] = value
            if propagate(cid, value, trail):
                search(k + 1)
            for t in trail:
                del forced[t]

    search(0)
    return tuple(sections)
