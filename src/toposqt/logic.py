"""Sieves, the subobject classifier, and Heyting operations.

A sieve on a context V is a down-set of the contexts below V, and a clopen
subobject of the spectral presheaf is a down-set of its characters ordered
by restriction.  One rule gives both Heyting algebras their implication: x
lies in S1 -> S2 iff the down-set of x meets S1 only inside S2.  With S1
everything it gives the largest down-set inside S2, so the same rule decides
whether a set is a sieve, whether a selection is clopen, and which contexts
a truth value keeps.  Each order is encoded once, as down-set ints: a
context's over one bit per context (``ContextPoset._bit``), a character's
over one bit per character (the rows of ``ContextPoset._characters``, one
per atom row), so x lies in S1 -> S2 iff its down-set int misses the mask of
S1 - S2.  A subobject the library makes holds its mask, so its conjunction
and disjunction are an AND and an OR; on sieves they stay set operations.
Each context V has one frame here (``_Frame``), built on first use and
kept in the poset's plain dict ``_sieve_frames``.  Once the sieves on V are
enumerated, the frame keeps them, Ω(V), as ints over one bit per member of
V's down-set, with each member's down-set and up-set there, so the
connectives of enumerated sieves are int operations whose result Ω(V)
holds: S => T drops the up-set of each member of S - T.
Truth values are global elements: one sieve per context, compatible with
all restrictions.  Compatible sieves are exactly the traces U ∩ ↓V of one
down-set U, their union, so a global element the library makes holds U as
an int over the context bits, a ``presheaf._Held`` as a subobject is, and
its connectives are that class's int rule on U1 and U2.  Any other element
is read back by ``_read_down_set`` to its U, or to None when its sieves
are no such traces.
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
    ValidationError,
)
from .presheaf import ClopenSubobject, _Held, _flags, _mapping, _require_characters, _require_contexts

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
    if poset is not None and not members <= _frame(poset, sieve.base).down:
        raise NotASubcontext(f"a sieve on {sieve.base!r} holds a member outside its down-set")
    return members


def _implication(poset: ContextPoset, frame, outside: frozenset[str] | set[str]) -> frozenset[str]:
    # S => T on a frame, given S - T: all of the down-set but what lies at or
    # above a member of S - T, the x whose down-set int misses its mask.
    mask = sum(map(poset._bit.__getitem__, outside))
    return frame.down.difference(compress(frame.ids, map(mask.__and__, frame.below)))


def is_sieve(poset: ContextPoset, sieve: Sieve) -> bool:
    """Whether the members are a down-set of the base's down-set: the
    largest down-set inside them is all of them, so a member outside the
    base's down-set makes them no sieve."""
    members = _members(sieve)
    frame = _frame(poset, sieve.base)
    # S => T with S - T the non-members: no member may lie at or above one.
    return members == _implication(poset, frame, frame.down - members)


class _Frame:
    """Ω(V), the sieves on a context V, over V's down-set.

    ``ids`` is the down-set in reverse sorted order, the bit order in which
    sieves are enumerated: bit i of a local int stands for ``ids[i]``, as
    int64 tables need.  ``below[i]`` is the down-set of ``ids[i]`` as an int
    over poset positions (the bits of ``ContextPoset._bit``), so x lies in
    S => T iff ``below[x]`` misses the mask of S - T.  ``_enumerated`` fills
    the rest: ``enumeration``, every sieve on V in ``enumerate_sieves``'
    order; ``sieves``, the one Sieve of each local int, in that order;
    ``local`` and ``up``, the members at or below and at or above each
    ``ids[i]`` as local ints; ``full``, every member; and last ``codes``,
    the local int of each sieve by its members.  Until then ``enumeration``
    is None and ``codes`` empty, and the frame keeps no sieve.
    """

    __slots__ = ("ids", "below", "down", "codes", "enumeration", "sieves", "local", "up", "full")

    def __init__(self, poset: ContextPoset, context_id: str) -> None:
        self.ids = tuple(sorted(poset.down_ids(context_id), reverse=True))
        self.below = tuple(map(poset._below.__getitem__, self.ids))
        self.down = frozenset(self.ids)
        self.codes: dict[frozenset[str], int] = {}
        self.enumeration: tuple[Sieve, ...] | None = None


def _frame(poset: ContextPoset, context_id: str) -> _Frame:
    # V's frame, built on first use and kept in the poset's dict; an id
    # outside the poset raises UnknownContext.
    frame = poset._sieve_frames.get(context_id)
    if frame is None:
        frame = poset._sieve_frames[context_id] = _Frame(poset, context_id)
    return frame


def _enumerated(poset: ContextPoset, context_id: str) -> _Frame:
    # V's frame with every sieve on V; the cap is checked before the frame
    # is built or read.
    size = len(poset.down_ids(context_id))
    if size > ENUMERATION_CAP:
        raise EnumerationLimitExceeded(
            f"down-set has {size} contexts; exhaustive sieve enumeration is capped at {ENUMERATION_CAP}"
        )
    frame = _frame(poset, context_id)
    if frame.enumeration is None:
        bits = list(map(poset._bit.__getitem__, frame.ids))
        single = [1 << i for i in range(size)]
        local = tuple([sum(compress(single, map(down.__and__, bits))) for down in frame.below])
        # A smaller down-set comes first, so an element comes after all of its
        # subcontexts, which are decided by then.
        found = [0]
        for i, down in sorted(enumerate(local), key=lambda e: e[1].bit_count()):
            strict = down ^ 1 << i
            found += [s | 1 << i for s in found if s & strict == strict]
        # The bit order makes (size, -int) the order of (size, sorted members).
        found.sort(key=lambda s: (s.bit_count(), -s))
        enumeration = tuple([_new_sieve(context_id, frozenset(compress(frame.ids, map(s.__and__, single))))
                             for s in found])
        up = tuple([sum(compress(single, [down >> i & 1 for down in local])) for i in range(size)])
        frame.sieves, frame.local, frame.up, frame.full = dict(zip(found, enumeration)), local, up, found[-1]
        frame.enumeration = enumeration
        # Last: sieve_connective reads the other fields once it finds a code.
        frame.codes = {sieve.members: s for s, sieve in zip(found, enumeration)}
    return frame


def enumerate_sieves(poset: ContextPoset, context: Context) -> tuple[Sieve, ...]:
    """All sieves on the context, ordered by size and then by sorted members.

    Enumerates the downward-closed subsets of the down-set as ints over its
    frame, deciding elements bottom-up; an element may join a subset only
    when everything strictly below it is in that subset.  The context's
    sieve frame keeps the result, so a second call returns the same tuple.
    Raises ``EnumerationLimitExceeded`` when the down-set has more than
    ``ENUMERATION_CAP`` elements.
    """
    return _enumerated(poset, context.id).enumeration


def _sieve_tables(masks: list[int], below: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    # For every pair (a, b) of positions in ``masks``, all sieves on one base as
    # ints over local bits, whose down-sets are ``below``: the positions of
    # (a and b), (a or b) and (a implies b), and whether a lies inside b.
    masks = np.array(masks, dtype=np.int64)
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
    frame = _enumerated(poset, base)
    sieves = frame.enumeration
    meet, join, implies, leq = _sieve_tables(list(frame.sieves), frame.local)
    m = len(sieves)
    negation = implies[:, 0]
    violations = int(np.count_nonzero(meet[np.arange(m), negation] != 0))
    failures = np.flatnonzero(join[np.arange(m), negation] != m - 1)
    witness = sorted(sieves[failures[0]].members) if failures.size else None
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
    ``s implies empty``.  On sieves that the base's frame has enumerated,
    each is an int operation on their local ints, and the result is the
    frame's own ``Sieve``.
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
        frame = poset._sieve_frames.get(base) or _frame(poset, base)
        x, y = frame.codes.get(a), frame.codes.get(b)
        if x is not None and y is not None:
            # Two sieves of an enumerated Ω(V), which holds the result too.
            if kind == "and":
                return frame.sieves[x & y]
            if kind == "or":
                return frame.sieves[x | y]
            # S => T drops every member at or above a member of S - T; a
            # member of S - T above one met already adds nothing.
            d, out, up = x & ~y, 0, frame.up
            while d:
                out |= up[(d & -d).bit_length() - 1]
                d &= ~out
            return frame.sieves[frame.full ^ out]
        inside = a <= frame.down and b <= frame.down
    except TypeError:
        inside = False
    if not inside:
        # Some operand fails the one operand check, which names its fault.
        for sieve in (s1,) if s2 is None else (s1, s2):
            _members(sieve, poset)
    # A result is frozen also when an operand's members are a set.
    if kind == "and":
        return _new_sieve(base, frozenset(a & b))
    if kind == "or":
        return _new_sieve(base, frozenset(a | b))
    return _new_sieve(base, _implication(poset, frame, a - b))


class GlobalElementOfOmega(_Held):
    """One sieve per context; a truth value when the sieves match up.

    A global element that the library makes holds one down-set U of the
    poset, as an int over poset positions, and builds its sieves, the traces
    U ∩ ↓V, on the first read of ``sieves``, as ``_Held`` says.
    """

    __slots__ = ()

    def __init__(self, sieves: Mapping[str, Sieve]) -> None:
        self._values: dict[str, Sieve] | None = dict(_mapping(sieves, "global element"))
        self._poset = None

    @property
    def sieves(self) -> dict[str, Sieve]:
        return self._read()

    @staticmethod
    def _decode(poset: ContextPoset, down: int) -> dict[str, Sieve]:
        # The traces U ∩ ↓V of the down-set int U.
        members = frozenset(compress(poset.ids, _flags(down, len(poset))))
        return {cid: _new_sieve(cid, members.intersection(ids)) for cid, ids in poset._down.items()}

    @staticmethod
    def _encode(poset: ContextPoset, sieves: dict[str, Sieve], name: str) -> int | None:
        return _read_down_set(poset, sieves, name)

    @staticmethod
    def _rows(poset: ContextPoset):
        return poset._below.values()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(f"{cid}:{sorted(s.members)}" for cid, s in sorted(self.sieves.items()))
        return f"GlobalElementOfOmega({parts})"


#: The global element of the contexts whose down-set int misses an int.
_element = GlobalElementOfOmega._missing


def totally_true(poset: ContextPoset) -> GlobalElementOfOmega:
    return GlobalElementOfOmega._of(poset, (1 << len(poset)) - 1)


def totally_false(poset: ContextPoset) -> GlobalElementOfOmega:
    return GlobalElementOfOmega._of(poset, 0)


def _read_down_set(poset: ContextPoset, sieves: dict[str, Sieve], name: str) -> int | None:
    # The down-set int that a family of sieves are the traces of.  They must
    # be one Sieve per poset context, based where stored; U = {V : V in S_V},
    # and the sieves match iff U is a down-set and each S_V lies inside U and
    # ↓V with as many members as U ∩ ↓V.  None when they do not.
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
    return _read_down_set(poset, element.sieves, "global element") is not None


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
        downs[i] = g._down_on(poset, f"{name} global element")
        if downs[i] is None:
            raise ValidationError(f"{name} global element: its sieves are not the traces of one down-set")
    if kind not in _ALL_KINDS or (kind == "not") != (g2 is None):
        raise ValidationError(_KIND_ERROR.format(kind))
    # U1 ∩ U2 and U1 ∪ U2 are down-sets already.
    return GlobalElementOfOmega._connective(poset, kind, *downs)


def subobject_connective(
    poset: ContextPoset,
    kind: str,
    s1: ClopenSubobject,
    s2: ClopenSubobject | None = None,
) -> ClopenSubobject:
    """Heyting operations on clopen subobjects of the spectral presheaf.

    ``and``/``or`` act contextwise; ``implies`` keeps a character when all
    its restrictions that land in s1 also land in s2; ``not s`` is
    ``s implies bottom``.  Each is an int operation on the operands'
    character ints, and the result is a subobject that holds its int.  An
    operand that selects an index outside its context's atoms, or one that
    is not an integer, which is no character, raises ``UnknownCharacter``.
    """
    if kind not in _ALL_KINDS or (kind == "not") != (s2 is None):
        raise ValidationError(_KIND_ERROR.format(kind))
    # S1 => S2 keeps x iff below[x] misses S1 - S2, which is S1 for "not".
    return ClopenSubobject._connective(poset, kind, *_require_characters(poset, s1, s2))
