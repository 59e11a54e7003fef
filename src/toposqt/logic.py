"""Sieves, the subobject classifier, and Heyting operations.

A sieve on a context V is a down-set of the contexts below V, and a clopen
subobject of the spectral presheaf is a down-set of its characters ordered
by restriction.  One rule gives both Heyting algebras their implication: x
lies in S1 -> S2 iff the down-set of x meets S1 only inside S2.  With S1
everything it gives the largest down-set inside S2, so the same rule decides
whether a set is a sieve, whether a selection is clopen, and which contexts
a truth value keeps.  Truth values are global elements: one sieve per
context, compatible with all restrictions.  Compatible sieves are exactly
the traces on each context's down-set of one down-set, their union, so a
sieve that is not downward closed, or that holds a member outside its
base's down-set, is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Mapping

import numpy as np

from ._json import brief_repr
from .contexts import Context, ContextPoset
from .errors import (
    BaseMismatch,
    EnumerationLimitExceeded,
    NotASubcontext,
    UnknownCharacter,
    ValidationError,
)
from .presheaf import ClopenSubobject, _implication, _require_contexts, _selects_characters, empty_subobject

#: Largest down-set size for which sieves are enumerated exhaustively.
ENUMERATION_CAP = 20

#: Most triples whose laws are gathered at once (whole values of a).
_TRIPLE_BLOCK = 1 << 18

_BINARY_KINDS = ("and", "or", "implies")
_ALL_KINDS = _BINARY_KINDS + ("not",)


@dataclass(frozen=True, slots=True)
class Sieve:
    """A downward-closed set of subcontexts of the base context."""

    base: str
    members: frozenset[str]

    def __post_init__(self) -> None:
        # A plain set is frozen, so results of connectives on it can be hashed.
        if isinstance(self.members, set):
            object.__setattr__(self, "members", frozenset(self.members))


_set_base = Sieve.base.__set__
_set_members = Sieve.members.__set__


def _new_sieve(base: str, members: frozenset[str]) -> Sieve:
    # A Sieve the library has just computed, filled through its slot
    # descriptors at about 0.6 of the cost of the frozen dataclass __init__,
    # which stores each field through object.__setattr__.  The result is the
    # public Sieve in every respect, frozen included.
    sieve = object.__new__(Sieve)
    _set_base(sieve, base)
    _set_members(sieve, members)
    return sieve


def principal_sieve(poset: ContextPoset, context_id: str) -> Sieve:
    """The maximal sieve on a context: its whole down-set ("totally true")."""
    return _new_sieve(context_id, frozenset(poset.down_ids(context_id)))


def empty_sieve(context_id: str) -> Sieve:
    return _new_sieve(context_id, frozenset())


def _members(sieve: Sieve) -> frozenset[str] | set[str]:
    # The sieve's members, or ValidationError when its base is not an id or
    # its members are not a set of ids (naming the base).
    if not isinstance(sieve.base, str):
        raise ValidationError(f"the base of a sieve is not a context id: {brief_repr(sieve.base)}")
    members = sieve.members
    if not (isinstance(members, (set, frozenset)) and all(isinstance(m, str) for m in members)):
        raise ValidationError(f"the members of a sieve on {sieve.base!r} are not a set of context ids")
    return members


def is_sieve(poset: ContextPoset, sieve: Sieve) -> bool:
    """Membership in the base's down-set plus downward closure: the largest
    down-set inside the members is all of them.  A base that is not an id,
    or members that are not a set of ids, raise ``ValidationError``."""
    members = _members(sieve)
    frame = poset._sieve_frames[sieve.base]
    # S => T with S - T the non-members: no member may lie at or above one.
    outside = sum(map(poset._bit.__getitem__, frame.down - members))
    return members <= frame.down and members.isdisjoint(compress(frame.ids, map(outside.__and__, frame.below)))


def _sieves(poset: ContextPoset, context_id: str) -> list[tuple[int, frozenset[str]]]:
    # Every sieve on the context as (int over its local bits, members), in
    # enumerate_sieves' order; the cap is checked before the frame is built.
    size = len(poset.down_ids(context_id))
    if size > ENUMERATION_CAP:
        raise EnumerationLimitExceeded(
            f"down-set has {size} contexts; exhaustive sieve enumeration is capped at {ENUMERATION_CAP}"
        )
    frame = poset._sieve_frames[context_id]
    bits = list(map(poset._bit.__getitem__, frame.ids))
    # A smaller down-set comes first, so an element comes after all of its
    # subcontexts, which are decided by then.  Each sieve is built as its set of
    # members and as an int over local bits, bit i for frame.ids[i], as int64 tables need.
    found = [(0, frozenset())]
    elements = sorted(zip(frame.ids, (1 << i for i in range(size)), frame.below), key=lambda e: e[2].bit_count())
    for cid, b, below in elements:
        strict = sum(1 << i for i, bit in enumerate(bits) if below & bit) ^ b
        found += [(s | b, members | {cid}) for s, members in found if s & strict == strict]
    # The bit order makes (size, -int) the order of (size, sorted members).
    found.sort(key=lambda pair: (pair[0].bit_count(), -pair[0]))
    return found


def enumerate_sieves(poset: ContextPoset, context: Context) -> tuple[Sieve, ...]:
    """All sieves on the context, ordered by size and then by sorted members.

    Enumerates the downward-closed subsets of the down-set as ints over its
    frame, deciding elements bottom-up; an element may join a subset only
    when everything strictly below it is in that subset.  Raises
    ``EnumerationLimitExceeded`` when the down-set has more than
    ``ENUMERATION_CAP`` elements.
    """
    base = context.id
    return tuple([_new_sieve(base, members) for _, members in _sieves(poset, base)])


def _sieve_tables(masks: list[int]) -> tuple[np.ndarray, ...]:
    # For every pair (a, b) of positions in ``masks``, all sieves on one base as
    # ints over local bits: the positions of (a and b), (a or b) and (a implies b),
    # and whether a lies inside b.  The down-set of bit x is the least sieve with x.
    masks = np.array(masks, dtype=np.int64)
    below = [np.bitwise_and.reduce(masks[masks >> x & 1 == 1]) for x in range(int(masks.max()).bit_length())]
    order = np.argsort(masks)

    def position(values: np.ndarray) -> np.ndarray:
        return order[np.searchsorted(masks, values, sorter=order)]

    a, b = masks[:, None], masks[None, :]
    outside = a & ~b
    # S => T keeps x iff below[x] & S & ~T == 0.
    implies = sum(np.where(outside & mask, 0, 1 << i) for i, mask in enumerate(below))
    return position(a & b), position(a | b), position(implies), outside == 0


def _check_sieve_laws(poset: ContextPoset, base: str, limit: int | str) -> dict:
    # The laws are gathers on the connective tables: non-contradiction per
    # sieve, then distributivity and residuation on the first ``limit`` (or
    # "all") triples (a, b, c) of positions in lexicographic order, a block
    # of values of a at a time.  The sieves run by size: the empty one is
    # at 0 and the principal one at m - 1.
    sieves = _sieves(poset, base)
    meet, join, implies, leq = _sieve_tables([mask for mask, _ in sieves])
    m = len(sieves)
    negation = implies[:, 0]
    violations = int(np.count_nonzero(meet[np.arange(m), negation] != 0))
    failures = np.flatnonzero(join[np.arange(m), negation] != m - 1)
    witness = sorted(sieves[failures[0]][1]) if failures.size else None
    total = m**3 if limit == "all" else min(m**3, limit)
    rows = max(1, _TRIPLE_BLOCK // (m * m))
    for first in range(0, -(-total // (m * m)), rows):
        a = np.arange(first, min(first + rows, m))
        count = min(total - first * m * m, a.size * m * m)
        conj = meet[a]  # a and b, indexed [a, b]
        triple = a[:, None, None]
        for broken in (
            meet[triple, join] != join[conj[:, :, None], conj[:, None, :]],
            leq[conj] != leq[triple, implies],
        ):
            violations += int(np.count_nonzero(broken.reshape(-1)[:count]))
    return {
        "sieve_count": m,
        "triples_checked": total,
        "violations": violations,
        "excluded_middle_witness": witness,
    }


def omega_restriction(poset: ContextPoset, sieve: Sieve, sub: Context) -> Sieve:
    """Pull a sieve back along an inclusion: members below the subcontext.
    A sieve with a member outside its base's down-set raises
    ``NotASubcontext``, and a base that is not an id or members that are not
    a set of ids ``ValidationError``."""
    members = _members(sieve)
    if not poset.is_leq(sub.id, sieve.base):
        raise NotASubcontext(f"{sub.id!r} is not a subcontext of {sieve.base!r}")
    if not members.issubset(poset.down_ids(sieve.base)):
        raise NotASubcontext(f"a sieve on {sieve.base!r} holds a member outside its down-set")
    return _new_sieve(sub.id, frozenset(members).intersection(poset.down_ids(sub.id)))


def sieve_connective(
    poset: ContextPoset, kind: str, s1: Sieve, s2: Sieve | None = None
) -> Sieve:
    """Heyting operations on sieves over a common base.

    ``and``/``or`` are intersection/union; ``implies`` keeps the subcontexts
    all of whose subcontexts inside s1 also lie in s2; ``not s`` is
    ``s implies empty``.  A sieve with a member outside its base's down-set
    raises ``NotASubcontext``; one whose base is not hashable or whose
    members are no set, ``ValidationError`` naming the base.
    """
    if s2 is None:
        if kind != "not":
            raise ValidationError(f"{kind!r} needs two sieves" if kind in _BINARY_KINDS else f"unknown connective {kind!r}")
        b = frozenset()
    else:
        if kind not in _BINARY_KINDS:
            raise ValidationError("'not' is unary" if kind == "not" else f"unknown connective {kind!r}")
        if s1.base != s2.base:
            raise BaseMismatch(f"sieve bases differ: {s1.base!r} vs {s2.base!r}")
        b = s2.members
    base = s1.base
    a = s1.members
    try:
        frame = poset._sieve_frames[base]
        inside = a <= frame.down and b <= frame.down
    except TypeError:
        # An unhashable base, or members that are no set: name the base.
        for sieve in (s1, s2):
            if sieve is not None:
                _members(sieve)
        raise
    if not inside:
        raise NotASubcontext(f"a sieve on {base!r} holds a member outside its down-set")
    if kind == "and":
        return _new_sieve(base, a & b)
    if kind == "or":
        return _new_sieve(base, a | b)
    # S => T keeps x iff below[x] & S & ~T == 0: all of the down-set but what
    # lies at or above a member of S - T.
    m = sum(map(poset._bit.__getitem__, a - b))
    return _new_sieve(base, frame.down.difference(compress(frame.ids, map(m.__and__, frame.below))))


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


def _require_assignment(poset: ContextPoset, element: GlobalElementOfOmega, name: str) -> None:
    # One Sieve per poset context and no other, each based where it is stored.
    _require_contexts(poset, element.sieves, name)
    for cid, sieve in element.sieves.items():
        if not isinstance(sieve, Sieve):
            raise ValidationError(f"{name}: the value stored at {cid!r} is not a Sieve: {brief_repr(sieve)}")
        if sieve.base != cid:
            raise BaseMismatch(f"{name}: sieve stored at {cid!r} is based at {sieve.base!r}")


def check_global_element(poset: ContextPoset, element: GlobalElementOfOmega) -> bool:
    """True iff the per-context sieves are sieves and agree under every
    restriction: each is the trace on its base's down-set of one down-set."""
    _require_assignment(poset, element, "global element")
    # Matching sieves are the traces of one down-set, their union: no member lies above a non-member.
    union = frozenset().union(*map(_members, element.sieves.values()))
    if any(element.at(cid).members != union.intersection(poset.down_ids(cid)) for cid in poset.ids):
        return False
    outside = sum(map(poset._bit.__getitem__, poset._bit.keys() - union))
    return not any(map(outside.__and__, map(poset._below.__getitem__, union)))


def global_element_connective(
    poset: ContextPoset,
    kind: str,
    g1: GlobalElementOfOmega,
    g2: GlobalElementOfOmega | None = None,
) -> GlobalElementOfOmega:
    """Pointwise Heyting operation on global elements of the classifier."""
    for name, g in (("first", g1), ("second", g2)):
        if g is not None:
            _require_assignment(poset, g, f"{name} global element")
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
    ``s implies bottom``.  An operand that selects an index outside its
    context's atoms, or one that is not an integer, which is no character,
    raises ``UnknownCharacter``.
    """
    if kind not in _ALL_KINDS:
        raise ValidationError(f"unknown connective {kind!r}")
    if (kind == "not") != (s2 is None):
        raise ValidationError("'not' is unary" if kind == "not" else f"{kind!r} needs two subobjects")
    if kind == "not":
        s2, kind = empty_subobject(poset), "implies"
    for name, s in (("first", s1), ("second", s2)):
        if not _selects_characters(poset, s.selection, f"{name} subobject"):
            raise UnknownCharacter(f"{name} subobject selects an index outside its context's atoms")
    if kind == "and":
        return ClopenSubobject({cid: s1.at(cid) & s2.at(cid) for cid in poset.ids})
    if kind == "or":
        return ClopenSubobject({cid: s1.at(cid) | s2.at(cid) for cid in poset.ids})
    outside = {(cid, j) for cid in poset.ids for j in s1.at(cid) - s2.at(cid)}
    characters = [(c.id, i) for c in poset for i in range(c.n_atoms)]
    selection: dict[str, set[int]] = {cid: set() for cid in poset.ids}
    for cid, i in _implication(poset, characters, outside):
        selection[cid].add(i)
    return ClopenSubobject(selection)
