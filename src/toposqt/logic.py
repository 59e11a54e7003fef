"""Sieves, the subobject classifier, and Heyting operations.

A sieve on a context is a downward-closed set of its subcontexts; the set of
sieves on each context carries a Heyting algebra whose implication is
``S1 -> S2 = {V' | every subcontext of V' in S1 is in S2}``.  The same
implication pattern, stated on characters and their restrictions, turns the
clopen subobjects of the spectral presheaf into a Heyting algebra.  Truth
values are global elements: one sieve per context, compatible with all
restrictions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .contexts import Context, ContextPoset
from .errors import (
    BaseMismatch,
    EnumerationLimitExceeded,
    IncompleteAssignment,
    NotASubcontext,
    PosetMismatch,
    UnknownContext,
)
from .presheaf import ClopenSubobject

#: Largest down-set size for which sieves are enumerated exhaustively.
ENUMERATION_CAP = 20

_BINARY_KINDS = ("and", "or", "implies")
_ALL_KINDS = _BINARY_KINDS + ("not",)


@dataclass(frozen=True)
class Sieve:
    """A downward-closed set of subcontexts of the base context."""

    base: str
    members: frozenset[str]


def principal_sieve(poset: ContextPoset, context_id: str) -> Sieve:
    """The maximal sieve on a context: its whole down-set ("totally true")."""
    return Sieve(context_id, frozenset(poset.down_ids(context_id)))


def empty_sieve(context_id: str) -> Sieve:
    return Sieve(context_id, frozenset())


def is_sieve(poset: ContextPoset, sieve: Sieve) -> bool:
    """Membership in the base's down-set plus downward closure."""
    down = set(poset.down_ids(sieve.base))
    if not sieve.members <= down:
        return False
    for member in sieve.members:
        if not set(poset.down_ids(member)) <= sieve.members:
            return False
    return True


def enumerate_sieves(poset: ContextPoset, context: Context) -> tuple[Sieve, ...]:
    """All sieves on the context, deterministically ordered.

    Enumerates the downward-closed subsets of the down-set by deciding
    elements bottom-up; an element may join only when everything below it
    already has.  Raises ``EnumerationLimitExceeded`` when the down-set has
    more than ``ENUMERATION_CAP`` elements.
    """
    elements = list(poset.down_ids(context.id))
    if len(elements) > ENUMERATION_CAP:
        raise EnumerationLimitExceeded(
            f"down-set has {len(elements)} contexts; exhaustive sieve enumeration "
            f"is capped at {ENUMERATION_CAP}"
        )
    # Bottom-up order: every context comes after all of its subcontexts.
    elements.sort(key=lambda cid: (len(poset.down_ids(cid)), cid))
    strict_down = {
        cid: frozenset(d for d in poset.down_ids(cid) if d != cid) for cid in elements
    }
    found: list[frozenset[str]] = []

    def extend(k: int, current: set[str]) -> None:
        if k == len(elements):
            found.append(frozenset(current))
            return
        cid = elements[k]
        extend(k + 1, current)
        if strict_down[cid] <= current:
            current.add(cid)
            extend(k + 1, current)
            current.remove(cid)

    extend(0, set())
    sieves = [Sieve(context.id, members) for members in found]
    sieves.sort(key=lambda s: (len(s.members), tuple(sorted(s.members))))
    return tuple(sieves)


def omega_restriction(poset: ContextPoset, sieve: Sieve, sub: Context) -> Sieve:
    """Pull a sieve back along an inclusion: members below the subcontext."""
    if sub.id not in poset or sieve.base not in poset:
        raise UnknownContext("sieve base and target must belong to the poset")
    if not poset.is_leq(sub.id, sieve.base):
        raise NotASubcontext(f"{sub.id!r} is not a subcontext of {sieve.base!r}")
    down = frozenset(poset.down_ids(sub.id))
    return Sieve(sub.id, sieve.members & down)


def sieve_connective(
    poset: ContextPoset, kind: str, s1: Sieve, s2: Sieve | None = None
) -> Sieve:
    """Heyting operations on sieves over a common base.

    ``and``/``or`` are intersection/union; ``implies`` keeps the subcontexts
    all of whose subcontexts inside s1 also lie in s2; ``not s`` is
    ``s implies empty``.
    """
    if kind not in _ALL_KINDS:
        raise ValueError(f"unknown connective {kind!r}")
    if kind == "not":
        if s2 is not None:
            raise ValueError("'not' is unary")
        s2 = empty_sieve(s1.base)
        kind = "implies"
    elif s2 is None:
        raise ValueError(f"{kind!r} needs two sieves")
    if s1.base != s2.base:
        raise BaseMismatch(f"sieve bases differ: {s1.base!r} vs {s2.base!r}")
    if kind == "and":
        return Sieve(s1.base, s1.members & s2.members)
    if kind == "or":
        return Sieve(s1.base, s1.members | s2.members)
    members = frozenset(
        cid
        for cid in poset.down_ids(s1.base)
        if (set(poset.down_ids(cid)) & s1.members) <= s2.members
    )
    return Sieve(s1.base, members)


class GlobalElementOfOmega:
    """One sieve per context; a truth value when the sieves match up."""

    __slots__ = ("sieves",)

    def __init__(self, sieves: Mapping[str, Sieve]) -> None:
        self.sieves: dict[str, Sieve] = dict(sieves)

    def at(self, context_id: str) -> Sieve:
        return self.sieves[context_id]

    def __eq__(self, other) -> bool:
        if not isinstance(other, GlobalElementOfOmega):
            return NotImplemented
        return self.sieves == other.sieves

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(
            f"{cid}:{sorted(s.members)}" for cid, s in sorted(self.sieves.items())
        )
        return f"GlobalElementOfOmega({parts})"


def totally_true(poset: ContextPoset) -> GlobalElementOfOmega:
    return GlobalElementOfOmega({cid: principal_sieve(poset, cid) for cid in poset.ids})


def totally_false(poset: ContextPoset) -> GlobalElementOfOmega:
    return GlobalElementOfOmega({cid: empty_sieve(cid) for cid in poset.ids})


def check_global_element(poset: ContextPoset, element: GlobalElementOfOmega) -> bool:
    """True iff the per-context sieves agree under every restriction."""
    if set(element.sieves.keys()) != set(poset.ids):
        raise IncompleteAssignment("global element must assign a sieve to every context")
    for cid, sieve in element.sieves.items():
        if sieve.base != cid:
            raise BaseMismatch(f"sieve stored at {cid!r} is based at {sieve.base!r}")
    for sup_id, sub_id in poset.inclusions:
        restricted = omega_restriction(poset, element.at(sup_id), poset.get(sub_id))
        if restricted != element.at(sub_id):
            return False
    return True


def global_element_connective(
    poset: ContextPoset,
    kind: str,
    g1: GlobalElementOfOmega,
    g2: GlobalElementOfOmega | None = None,
) -> GlobalElementOfOmega:
    """Pointwise Heyting operation on global elements of the classifier."""
    sieves = {}
    for cid in poset.ids:
        other = None if g2 is None else g2.at(cid)
        sieves[cid] = sieve_connective(poset, kind, g1.at(cid), other)
    return GlobalElementOfOmega(sieves)


def subobject_connective(
    poset: ContextPoset,
    kind: str,
    s1: ClopenSubobject,
    s2: ClopenSubobject | None = None,
) -> ClopenSubobject:
    """Heyting operations on clopen subobjects of the spectral presheaf.

    ``and``/``or`` act contextwise; ``implies`` keeps a character when all
    its restrictions that land in s1 also land in s2; ``not s`` is
    ``s implies bottom``.
    """
    if kind not in _ALL_KINDS:
        raise ValueError(f"unknown connective {kind!r}")
    ids = set(poset.ids)
    if set(s1.selection.keys()) != ids:
        raise PosetMismatch("first subobject is not defined over this poset")
    if kind == "not":
        if s2 is not None:
            raise ValueError("'not' is unary")
        s2 = ClopenSubobject({cid: frozenset() for cid in poset.ids})
        kind = "implies"
    elif s2 is None:
        raise ValueError(f"{kind!r} needs two subobjects")
    if set(s2.selection.keys()) != ids:
        raise PosetMismatch("second subobject is not defined over this poset")
    if kind == "and":
        return ClopenSubobject({cid: s1.at(cid) & s2.at(cid) for cid in poset.ids})
    if kind == "or":
        return ClopenSubobject({cid: s1.at(cid) | s2.at(cid) for cid in poset.ids})
    selection: dict[str, frozenset[int]] = {}
    for sup in poset:
        kept = []
        for i in range(sup.n_atoms):
            ok = True
            for sub_id in poset.down_ids(sup.id):
                j = i if sub_id == sup.id else poset.restriction_indices(sup.id, sub_id)[i]
                if j in s1.at(sub_id) and j not in s2.at(sub_id):
                    ok = False
                    break
            if ok:
                kept.append(i)
        selection[sup.id] = frozenset(kept)
    return ClopenSubobject(selection)
