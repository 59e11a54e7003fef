"""Sieves, the subobject classifier, and Heyting operations.

A sieve on a context V is a down-set of the contexts below V, and a clopen
subobject of the spectral presheaf is a down-set of its characters ordered
by restriction.  One rule gives both Heyting algebras their implication: x
lies in S1 -> S2 iff the down-set of x meets S1 only inside S2.  With S1
everything it gives the largest down-set inside S2, so the same rule decides
whether a set is a sieve, whether a selection is clopen, and which contexts
a truth value keeps.  Each order is encoded once, as down-set ints: a
context's over one bit per context (``ContextPoset._bit``), a character's
over one bit per character (``ContextPoset._characters``), so x lies in
S1 -> S2 iff its down-set int misses the mask of S1 - S2.  Conjunction and
disjunction stay set operations, per sieve and per context of a subobject.
Truth values are global elements: one sieve per context, compatible with
all restrictions.  Compatible sieves are exactly the traces U ∩ ↓V of one
down-set U, their union, so a global element the library makes holds U as
an int over the context bits and builds its sieves on first read; its
connectives are int rules on U1 and U2, and ``_down_set`` reads a family of
sieves back to its U, or to None when the sieves are no such traces.
Operands are checked as README's boundary contract says, a sieve by ``_members``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat
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
from .presheaf import ClopenSubobject, _mapping, _require_contexts, _selects_characters, empty_subobject

#: Largest down-set size for which sieves are enumerated exhaustively.
ENUMERATION_CAP = 20

#: Most triples whose laws are gathered at once (whole values of a).
_TRIPLE_BLOCK = 1 << 18

_BINARY_KINDS = ("and", "or", "implies")
_ALL_KINDS = _BINARY_KINDS + ("not",)
#: The one refusal of a connective kind: unknown, or given the wrong number of operands.
_KIND_ERROR = "no connective {!r} of this many operands: 'not' takes one, the others two"


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


def _members(sieve: Sieve, poset: ContextPoset | None = None) -> frozenset[str] | set[str]:
    # The one check of a sieve operand, returning its members: ValidationError
    # naming the base unless its base is an id and its members a set of ids;
    # given the poset, UnknownContext or NotASubcontext unless they lie in it.
    if not isinstance(sieve.base, str):
        raise ValidationError(f"the base of a sieve is not a context id: {brief_repr(sieve.base)}")
    members = sieve.members
    if not (isinstance(members, (set, frozenset)) and all(map(isinstance, members, repeat(str)))):
        raise ValidationError(f"the members of a sieve on {sieve.base!r} are not a set of context ids")
    if poset is not None and not members <= poset._sieve_frames[sieve.base].down:
        raise NotASubcontext(f"a sieve on {sieve.base!r} holds a member outside its down-set")
    return members


def is_sieve(poset: ContextPoset, sieve: Sieve) -> bool:
    """Whether the members are a down-set of the base's down-set: the
    largest down-set inside them is all of them, so a member outside the
    base's down-set makes them no sieve."""
    members = _members(sieve)
    frame = poset._sieve_frames[sieve.base]
    # S => T with S - T the non-members: no member may lie at or above one.
    outside = sum(map(poset._bit.__getitem__, frame.down - members))
    return members == frame.down.difference(compress(frame.ids, map(outside.__and__, frame.below)))


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
    """Pull a sieve back along an inclusion: members below the subcontext."""
    members = _members(sieve, poset)
    if not poset.is_leq(sub.id, sieve.base):
        raise NotASubcontext(f"{sub.id!r} is not a subcontext of {sieve.base!r}")
    return _new_sieve(sub.id, frozenset(members).intersection(poset.down_ids(sub.id)))


def sieve_connective(
    poset: ContextPoset, kind: str, s1: Sieve, s2: Sieve | None = None
) -> Sieve:
    """Heyting operations on sieves over a common base.

    ``and``/``or`` are intersection/union; ``implies`` keeps the subcontexts
    all of whose subcontexts inside s1 also lie in s2; ``not s`` is
    ``s implies empty``.
    """
    if s2 is None and kind == "not":
        b = frozenset()
    elif kind not in _BINARY_KINDS or s2 is None:
        raise ValidationError(_KIND_ERROR.format(kind))
    elif s1.base != s2.base:
        raise BaseMismatch(f"sieve bases differ: {s1.base!r} vs {s2.base!r}")
    else:
        b = s2.members
    base = s1.base
    a = s1.members
    try:
        frame = poset._sieve_frames[base]
        inside = a <= frame.down and b <= frame.down
    except TypeError:
        inside = False
    if not inside:
        # Some operand fails the one operand check, which names its fault.
        for sieve in (s1,) if s2 is None else (s1, s2):
            _members(sieve, poset)
    if kind == "and":
        return _new_sieve(base, a & b)
    if kind == "or":
        return _new_sieve(base, a | b)
    # S => T keeps x iff below[x] & S & ~T == 0: all of the down-set but what
    # lies at or above a member of S - T.
    m = sum(map(poset._bit.__getitem__, a - b))
    return _new_sieve(base, frame.down.difference(compress(frame.ids, map(m.__and__, frame.below))))


class GlobalElementOfOmega:
    """One sieve per context; a truth value when the sieves match up.

    A global element that the library makes holds one down-set U of the
    poset, as an int over poset positions, and builds its sieves, the traces
    U ∩ ↓V, on the first read of ``sieves``.  From then on that dict is the
    element: an edit to it counts, as in an element built from sieves.
    """

    # _poset and _down, the down-set's int, are set and read only while _sieves is None.
    __slots__ = ("_sieves", "_poset", "_down")

    def __init__(self, sieves: Mapping[str, Sieve]) -> None:
        self._sieves: dict[str, Sieve] | None = dict(_mapping(sieves, "global element"))

    @property
    def sieves(self) -> dict[str, Sieve]:
        if self._sieves is None:
            down = frozenset(compress(self._poset.ids, map(self._down.__and__, self._poset._bit.values())))
            self._sieves = {cid: _new_sieve(cid, down.intersection(ids)) for cid, ids in self._poset._down.items()}
        return self._sieves

    def at(self, context_id: str) -> Sieve:
        return self.sieves[context_id]

    def __eq__(self, other) -> bool:
        if not isinstance(other, GlobalElementOfOmega):
            return NotImplemented
        return self.sieves == other.sieves

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(f"{cid}:{sorted(s.members)}" for cid, s in sorted(self.sieves.items()))
        return f"GlobalElementOfOmega({parts})"


def _element(poset: ContextPoset, outside: int) -> GlobalElementOfOmega:
    # The global element whose down-set keeps each context whose down-set int misses ``outside``.
    element = object.__new__(GlobalElementOfOmega)
    element._poset, element._sieves = poset, None
    element._down = sum(compress(poset._bit.values(), [not below & outside for below in poset._below.values()]))
    return element


def totally_true(poset: ContextPoset) -> GlobalElementOfOmega:
    return _element(poset, 0)


def totally_false(poset: ContextPoset) -> GlobalElementOfOmega:
    return _element(poset, -1)


def _down_set(poset: ContextPoset, element: GlobalElementOfOmega, name: str) -> int | None:
    # The down-set int of a global element: its own U when it is an unread
    # element of this poset.  Otherwise its stored sieves must be one Sieve
    # per poset context, based where stored; U = {V : V in S_V}, and the
    # sieves match iff U is a down-set and each S_V lies inside U and ↓V with
    # as many members as U ∩ ↓V.  None when they do not.
    if element._sieves is None and element._poset is poset:
        return element._down
    sieves = element.sieves
    _require_contexts(poset, sieves, name)
    for cid, sieve in sieves.items():
        if not isinstance(sieve, Sieve):
            raise ValidationError(f"{name}: the value stored at {cid!r} is not a Sieve: {brief_repr(sieve)}")
        if sieve.base != cid:
            raise BaseMismatch(f"{name}: sieve stored at {cid!r} is based at {sieve.base!r}")
        if not isinstance(sieve.members, (set, frozenset)):
            _members(sieve)  # raises, naming the base
    union = frozenset(cid for cid, sieve in sieves.items() if cid in sieve.members)
    down = sum(map(poset._bit.__getitem__, union))
    for cid, m in zip(sieves, [sieve.members for sieve in sieves.values()]):
        # S_V is all of ↓V when V lies in it, else U ∩ ↓V; inside U either way.
        size = (poset._below[cid] & (-1 if cid in m else down)).bit_count()
        if not (len(m) == size and m <= union and m.issubset(poset._down[cid])):
            # A member that is no id lies outside U; the one sieve check names it.
            list(map(_members, sieves.values()))
            return None
    return down


def check_global_element(poset: ContextPoset, element: GlobalElementOfOmega) -> bool:
    """True iff the per-context sieves are sieves and agree under every
    restriction: each is the trace on its base's down-set of one down-set.
    The check reads the sieves, so it never trusts the down-set it checks."""
    element.sieves  # built now if the library made the element
    return _down_set(poset, element, "global element") is not None


def global_element_connective(
    poset: ContextPoset, kind: str, g1: GlobalElementOfOmega, g2: GlobalElementOfOmega | None = None
) -> GlobalElementOfOmega:
    """Heyting operations on global elements of the classifier, pointwise
    the sieve connectives, on their down-sets U1 and U2: ``and``/``or`` are
    U1 ∩ U2 and U1 ∪ U2, ``implies`` keeps the contexts whose down-set
    misses U1 - U2, and ``not g`` is ``g implies`` the empty down-set.  An
    operand whose sieves are not the traces of one down-set raises
    ``ValidationError``."""
    downs = [0, 0]  # "not g" is "g implies" the empty down-set
    for i, (name, g) in enumerate(zip(("first", "second"), (g1,) if g2 is None else (g1, g2))):
        downs[i] = _down_set(poset, g, f"{name} global element")
        if downs[i] is None:
            raise ValidationError(f"{name} global element: its sieves are not the traces of one down-set")
    if kind not in _ALL_KINDS or (kind == "not") != (g2 is None):
        raise ValidationError(_KIND_ERROR.format(kind))
    a, b = downs
    # A down-set U keeps each context whose down-set int misses the complement of U.
    return _element(poset, {"and": ~(a & b), "or": ~(a | b)}.get(kind, a & ~b))


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
    if kind not in _ALL_KINDS or (kind == "not") != (s2 is None):
        raise ValidationError(_KIND_ERROR.format(kind))
    if kind == "not":
        s2, kind = empty_subobject(poset), "implies"
    for name, s in (("first", s1), ("second", s2)):
        if not _selects_characters(poset, s.selection, f"{name} subobject"):
            raise UnknownCharacter(f"{name} subobject selects an index outside its context's atoms")
    if kind == "and":
        return ClopenSubobject({cid: s1.at(cid) & s2.at(cid) for cid in poset.ids})
    if kind == "or":
        return ClopenSubobject({cid: s1.at(cid) | s2.at(cid) for cid in poset.ids})
    # S1 => S2 keeps x iff below[x] misses the mask of S1 - S2.
    top, below, _ = poset._characters
    mask = sum(1 << (top[cid] - int(j)) for cid in poset.ids for j in s1.at(cid) - s2.at(cid))
    return ClopenSubobject({cid: frozenset(i for i, x in enumerate(below[cid]) if not x & mask) for cid in poset.ids})
