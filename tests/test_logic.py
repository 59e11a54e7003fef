"""Sieves, the classifier, Heyting connectives, global elements."""

from __future__ import annotations

import dataclasses
from importlib import resources
from itertools import compress, islice, product

import numpy as np
import pytest

import toposqt.logic
from conftest import locate, random_small_poset
from oracles import brute_sieve_implies, downsets_brute
from toposqt.contexts import build_poset, context_from_basis
from toposqt.daseinisation import daseinise_proposition
from toposqt.errors import (
    BaseMismatch,
    EnumerationLimitExceeded,
    IncompleteAssignment,
    NotASubcontext,
    UnknownCharacter,
    UnknownContext,
    ValidationError,
)
from toposqt.logic import (
    GlobalElementOfOmega,
    Sieve,
    _check_sieve_laws,
    _enumerated,
    _sieve_tables,
    check_global_element,
    empty_sieve,
    enumerate_sieves,
    global_element_connective,
    is_sieve,
    omega_restriction,
    principal_sieve,
    sieve_connective,
    subobject_connective,
    totally_false,
    totally_true,
)
from toposqt.presheaf import ClopenSubobject, empty_subobject, full_subobject, is_clopen_subobject, subobject_leq
from toposqt.problems import load_problem, problem_poset
from toposqt.valuation import GlobalSection, global_sections, is_global_section, pseudo_state, truth_value

with resources.as_file(resources.files("toposqt.data") / "spin2.json") as _p:
    SPIN2_PATH = str(_p)
with resources.as_file(resources.files("toposqt.data") / "ks18.json") as _p:
    KS18_PATH = str(_p)


@pytest.fixture(scope="module")
def named(poset11, std_projectors):
    p = std_projectors
    return {
        "V": locate(poset11, [p[0], p[1], p[2], p[3]]),
        "V1": locate(poset11, [p[0], p[1] + p[2] + p[3]]),
        "V2": locate(poset11, [p[1], p[0] + p[2] + p[3]]),
        "V3": locate(poset11, [p[2], p[0] + p[1] + p[3]]),
        "V12": locate(poset11, [p[0], p[1], p[2] + p[3]]),
        "V13": locate(poset11, [p[0], p[2], p[1] + p[3]]),
        "V34": locate(poset11, [p[2], p[3], p[0] + p[1]]),
    }


def test_sieve_counts_match_brute_force(poset11, named):
    for key, expected in (("V1", 2), ("V12", 5)):
        context = named[key]
        sieves = enumerate_sieves(poset11, context)
        oracle = downsets_brute(poset11.down_ids(context.id), poset11.is_leq)
        assert {s.members for s in sieves} == oracle
        assert len(sieves) == len(oracle) == expected
    big = enumerate_sieves(poset11, named["V"])
    oracle = downsets_brute(poset11.down_ids(named["V"].id), poset11.is_leq)
    assert {s.members for s in big} == oracle
    assert len(big) == 114


@pytest.mark.parametrize("seed", range(6))
def test_enumeration_and_is_sieve_match_brute_force_on_random_posets(seed):
    poset = random_small_poset(seed)
    rng = np.random.default_rng(seed)
    for context in poset:
        down = poset.down_ids(context.id)
        oracle = downsets_brute(down, poset.is_leq)
        sieves = enumerate_sieves(poset, context)
        assert all(s.base == context.id for s in sieves)
        assert [s.members for s in sieves] == sorted(oracle, key=lambda d: (len(d), sorted(d)))
        for chosen in rng.random((64, len(down))) < 0.5:
            members = frozenset(cid for cid, keep in zip(down, chosen) if keep)
            assert is_sieve(poset, Sieve(context.id, members)) == (members in oracle)


@pytest.fixture(scope="module", params=[(6, 57), (7, 120)], ids=["C6", "C7"])
def dim6_top(request):
    # The top context of the C^6 or C^7 single-basis poset (57 or 120
    # contexts): a down-set too large to enumerate, so only the connectives'
    # int path reads it.  At C^7 the down-set ints over poset positions are
    # wider than an int64.
    dim, count = request.param
    poset = build_poset([context_from_basis(list(np.eye(dim)))])
    top = poset.ids[0]
    assert len(poset.down_ids(top)) == len(poset) == count > toposqt.logic.ENUMERATION_CAP
    return poset, top


def _closure(poset, down, rng) -> frozenset[str]:
    # The down-set of up to five random generators, by brute force over is_leq.
    generators = [down[i] for i in rng.choice(len(down), size=rng.integers(6), replace=False)]
    return frozenset(x for x in down if any(poset.is_leq(x, g) for g in generators))


def _subsets(down, rng) -> list[frozenset[str]]:
    # Random subsets of each density.
    return [frozenset(compress(down, rng.random(len(down)) < p)) for p in (0.1, 0.5, 0.9, 1.0)]


def _downward(poset, down, members) -> bool:
    return all(y in members for x in members for y in down if poset.is_leq(y, x))


def _check_connectives(poset, top, a, b):
    # x lies in a => b iff everything below x in a lies in b.
    down = poset.down_ids(top)
    implies = {x for x in down if all(y in b for y in a if poset.is_leq(y, x))}
    negation = {x for x in down if not any(poset.is_leq(y, x) for y in a)}
    s1, s2 = Sieve(top, a), Sieve(top, b)
    assert sieve_connective(poset, "and", s1, s2).members == a & b
    assert sieve_connective(poset, "or", s1, s2).members == a | b
    assert sieve_connective(poset, "implies", s1, s2).members == implies
    assert sieve_connective(poset, "not", s1).members == negation


@pytest.mark.parametrize("seed", range(4))
def test_connectives_match_brute_force_past_the_enumeration_cap(dim6_top, seed):
    # Sieve operands, then subsets that are no sieve.  The frame of a base
    # past the cap is never enumerated, so no call leaves a sieve in it.
    poset, top = dim6_top
    down = poset.down_ids(top)
    rng = np.random.default_rng(seed)
    for _ in range(12):
        _check_connectives(poset, top, _closure(poset, down, rng), _closure(poset, down, rng))
    loose = [m for m in _subsets(down, rng) if not _downward(poset, down, m)]
    assert len(loose) >= 2
    for a, b in product(loose, repeat=2):
        _check_connectives(poset, top, a, b)
    frame = poset._sieve_frames[top]
    assert frame.codes == {} and frame.enumeration is None


@pytest.mark.parametrize("seed", range(4))
def test_is_sieve_matches_brute_force_past_the_enumeration_cap(dim6_top, seed):
    # Random subsets of each density, and down-sets with one member added or
    # taken away, against downward closure decided by is_leq.
    poset, top = dim6_top
    down = poset.down_ids(top)
    rng = np.random.default_rng(seed)
    candidates = _subsets(down, rng)
    for _ in range(8):
        closed = _closure(poset, down, rng)
        candidates += [closed, closed | {down[rng.integers(len(down))]}, closed - {down[rng.integers(len(down))]}]
    outcomes = set()
    for members in candidates:
        downward = _downward(poset, down, members)
        assert is_sieve(poset, Sieve(top, members)) == downward
        outcomes.add(downward)
    assert outcomes == {True, False}


def test_all_enumerated_sieves_are_sieves(poset11, named):
    for s in enumerate_sieves(poset11, named["V"]):
        assert is_sieve(poset11, s)


def test_the_frame_keeps_the_enumeration_and_returns_its_sieves(poset11, named):
    # A second call returns the same tuple; the frame then holds exactly the
    # enumerated sieves, one Sieve per member set, which the connectives
    # return.  Operands that are no sieve leave it as it was.
    context = named["V"]
    sieves = enumerate_sieves(poset11, context)
    assert enumerate_sieves(poset11, context) is sieves
    frame = poset11._sieve_frames[context.id]
    assert frame.enumeration is sieves
    assert list(frame.sieves.values()) == list(sieves)
    assert frame.codes == {s.members: code for code, s in frame.sieves.items()}
    for a in sieves:
        assert sieve_connective(poset11, "and", a, a) is a
        assert sieve_connective(poset11, "or", Sieve(context.id, set(a.members)), a) is a
    down = poset11.down_ids(context.id)
    loose = [Sieve(context.id, {x}) for x in down if not is_sieve(poset11, Sieve(context.id, {x}))]
    assert loose
    codes, enumeration, kept = dict(frame.codes), frame.enumeration, frame.sieves
    for a, b in product(loose, sieves):
        _check_connectives(poset11, context.id, a.members, b.members)
    assert frame.codes == codes and frame.enumeration is enumeration and frame.sieves is kept and len(kept) == len(sieves)


def test_enumeration_cap(monkeypatch, poset11, named):
    import toposqt.logic as logic

    monkeypatch.setattr(logic, "ENUMERATION_CAP", 3)
    with pytest.raises(EnumerationLimitExceeded):
        enumerate_sieves(poset11, named["V"])


def test_restriction_of_principal_is_principal(poset11, named):
    top = principal_sieve(poset11, named["V"].id)
    restricted = omega_restriction(poset11, top, named["V12"])
    assert restricted == principal_sieve(poset11, named["V12"].id)


def test_restriction_overlapping_and_disjoint(poset11, named):
    s13 = Sieve(named["V"].id, frozenset({named["V13"].id, named["V1"].id, named["V3"].id}))
    restricted = omega_restriction(poset11, s13, named["V12"])
    assert restricted.members == frozenset({named["V1"].id})
    s34 = Sieve(named["V"].id, frozenset({named["V34"].id, named["V3"].id, named["V2"].id}))
    # members below V34 only: restrict the part disjoint from V12's down-set
    s34_only = Sieve(named["V"].id, frozenset({named["V34"].id, named["V3"].id}))
    assert omega_restriction(poset11, s34_only, named["V12"]).members == frozenset()


def test_sieve_unit_law(poset11, named):
    top = principal_sieve(poset11, named["V12"].id)
    for s in enumerate_sieves(poset11, named["V12"]):
        assert sieve_connective(poset11, "and", s, top) == s
        assert sieve_connective(poset11, "or", s, empty_sieve(named["V12"].id)) == s


def test_negated_union_of_minimal_sieves_is_empty(poset11, named):
    base = named["V12"].id
    s1 = Sieve(base, frozenset({named["V1"].id}))
    s2 = Sieve(base, frozenset({named["V2"].id}))
    union = sieve_connective(poset11, "or", s1, s2)
    assert union.members == frozenset({named["V1"].id, named["V2"].id})
    negation = sieve_connective(poset11, "not", union)
    assert negation.members == frozenset()


def test_excluded_middle_fails(poset11, named):
    base = named["V12"].id
    s1 = Sieve(base, frozenset({named["V1"].id}))
    negation = sieve_connective(poset11, "not", s1)
    assert negation.members == frozenset({named["V2"].id})
    lem = sieve_connective(poset11, "or", s1, negation)
    assert lem.members == frozenset({named["V1"].id, named["V2"].id})
    assert lem != principal_sieve(poset11, base)


@pytest.mark.parametrize("kind", ["and", "or", "implies", "not"])
def test_connective_rejects_a_member_outside_the_down_set(poset11, named, kind):
    # V3 is not below V12: a set holding it is no sieve on V12, whichever
    # operand holds it.
    base = named["V12"].id
    valid = Sieve(base, frozenset({named["V1"].id}))
    for members in ({named["V3"].id}, {named["V3"].id, named["V1"].id}):
        foreign = Sieve(base, frozenset(members))
        assert not is_sieve(poset11, foreign)
        operands = [(foreign,)] if kind == "not" else [(foreign, valid), (valid, foreign), (foreign, foreign)]
        for sieves in operands:
            with pytest.raises(NotASubcontext):
                sieve_connective(poset11, kind, *sieves)


def test_sieve_base_mismatch(poset11, named):
    with pytest.raises(BaseMismatch):
        sieve_connective(
            poset11,
            "and",
            principal_sieve(poset11, named["V1"].id),
            principal_sieve(poset11, named["V2"].id),
        )


def test_sieve_lattice_laws_exhaustive_small(poset11, named):
    context = named["V12"]
    sieves = enumerate_sieves(poset11, context)
    for a, b, c in product(sieves, repeat=3):
        con = sieve_connective(poset11, "and", a, b)
        dis = sieve_connective(poset11, "or", a, b)
        assert con == sieve_connective(poset11, "and", b, a)
        assert dis == sieve_connective(poset11, "or", b, a)
        assert sieve_connective(poset11, "or", a, con) == a  # absorption
        assert sieve_connective(poset11, "and", a, dis) == a
        left = sieve_connective(poset11, "and", a, sieve_connective(poset11, "or", b, c))
        right = sieve_connective(
            poset11,
            "or",
            sieve_connective(poset11, "and", a, b),
            sieve_connective(poset11, "and", a, c),
        )
        assert left == right  # distributivity
        imp = sieve_connective(poset11, "implies", b, c)
        assert (con.members <= c.members) == (a.members <= imp.members) or True
        # residuation, stated both ways
        assert (
            sieve_connective(poset11, "and", a, b).members <= c.members
        ) == (a.members <= imp.members)


def test_connective_outputs_are_sieves(poset11, named):
    sieves = enumerate_sieves(poset11, named["V12"])
    for a, b in product(sieves, repeat=2):
        for kind in ("and", "or", "implies"):
            assert is_sieve(poset11, sieve_connective(poset11, kind, a, b))
        assert is_sieve(poset11, sieve_connective(poset11, "not", a))


def test_noncontradiction_for_all_sieves(poset11, named):
    for context_key in ("V12", "V"):
        context = named[context_key]
        for s in enumerate_sieves(poset11, context):
            negation = sieve_connective(poset11, "not", s)
            assert sieve_connective(poset11, "and", s, negation).members == frozenset()


def test_subobject_unit_laws(poset11, std_projectors):
    s = daseinise_proposition(poset11, std_projectors[0]).subobject
    top = full_subobject(poset11)
    bottom = empty_subobject(poset11)
    assert subobject_connective(poset11, "and", s, top) == s
    assert subobject_connective(poset11, "or", s, bottom) == s


def test_subobject_conjunction_of_orthogonal_rays(poset11, named, std_projectors):
    s1 = daseinise_proposition(poset11, std_projectors[0]).subobject
    s2 = daseinise_proposition(poset11, std_projectors[1]).subobject
    meet = subobject_connective(poset11, "and", s1, s2)
    assert meet.at(named["V"].id) == frozenset()


def test_subobject_negation_at_two_atom_context(poset11, named, std_projectors):
    s1 = daseinise_proposition(poset11, std_projectors[0]).subobject
    negation = subobject_connective(poset11, "not", s1)
    # the complement atom's character is the only one never restricting into s1
    assert negation.at(named["V1"].id) == frozenset({1})
    assert is_clopen_subobject(poset11, negation)


def test_subobject_connectives_stay_clopen(poset11, std_projectors):
    s1 = daseinise_proposition(poset11, std_projectors[0] + std_projectors[2]).subobject
    s2 = daseinise_proposition(poset11, std_projectors[1]).subobject
    for kind in ("and", "or", "implies"):
        assert is_clopen_subobject(poset11, subobject_connective(poset11, kind, s1, s2))


def test_global_element_checks(poset11, named, poset_two_bases):
    assert check_global_element(poset11, totally_true(poset11))
    assert check_global_element(poset11, totally_false(poset11))
    broken = totally_true(poset11)
    broken.sieves[named["V1"].id] = empty_sieve(named["V1"].id)
    assert not check_global_element(poset11, broken)
    # Every restriction of {V} to a smaller context is empty, as it should be,
    # but {V} is not downward closed.
    top = named["V"].id
    lonely = totally_false(poset11)
    lonely.sieves[top] = Sieve(top, frozenset({top}))
    assert not check_global_element(poset11, lonely)
    # A member outside the maximal context's down-set survives no restriction.
    foreign = totally_true(poset11)
    foreign.sieves[top] = Sieve(top, principal_sieve(poset11, top).members | {"ctx-foreign"})
    assert not check_global_element(poset11, foreign)
    first, second = (c.id for c in poset_two_bases if c.n_atoms == 4)
    crossed = totally_true(poset_two_bases)
    crossed.sieves[first] = Sieve(first, crossed.at(first).members | {second})
    assert not check_global_element(poset_two_bases, crossed)


@pytest.mark.parametrize("kind", ["and", "or", "implies", "not"])
def test_connectives_refuse_sieves_that_are_no_global_element(poset11, named, poset_two_bases, kind):
    # The families that check_global_element reads as no global element are
    # refused in either operand position, where they were combined pointwise.
    top = named["V"].id
    broken = totally_true(poset11)
    broken.sieves[named["V1"].id] = empty_sieve(named["V1"].id)
    lonely = totally_false(poset11)
    lonely.sieves[top] = Sieve(top, frozenset({top}))
    foreign = totally_true(poset11)
    foreign.sieves[top] = Sieve(top, principal_sieve(poset11, top).members | {"ctx-foreign"})
    first, second = (c.id for c in poset_two_bases if c.n_atoms == 4)
    crossed = totally_true(poset_two_bases)
    crossed.sieves[first] = Sieve(first, crossed.at(first).members | {second})
    for poset, odd in ((poset11, broken), (poset11, lonely), (poset11, foreign), (poset_two_bases, crossed)):
        whole = totally_true(poset)
        for operands in [(odd,)] if kind == "not" else [(odd, whole), (whole, odd)]:
            name = "first" if operands[0] is odd else "second"
            with pytest.raises(ValidationError, match=f"^{name} global element: its sieves are not the traces"):
                global_element_connective(poset, kind, *operands)


def test_global_element_requires_every_context(poset11, named):
    with pytest.raises(IncompleteAssignment):
        check_global_element(
            poset11, GlobalElementOfOmega({named["V"].id: principal_sieve(poset11, named["V"].id)})
        )


def test_global_element_connective_requires_every_context_of_each_operand(poset11, named, second_basis):
    # Each operand must hold one sieve at every context of the poset, at no
    # other context, and each based where it is stored.
    whole = totally_true(poset11)
    partial = GlobalElementOfOmega({named["V"].id: principal_sieve(poset11, named["V"].id)})
    extra = GlobalElementOfOmega({**whole.sieves, second_basis.id: empty_sieve(second_basis.id)})
    crossed = GlobalElementOfOmega({**whole.sieves, named["V1"].id: empty_sieve(named["V2"].id)})
    for odd, error in ((partial, IncompleteAssignment), (extra, IncompleteAssignment), (crossed, BaseMismatch)):
        for args in (("and", odd, whole), ("and", whole, odd), ("not", odd)):
            name = "first" if args[1] is odd else "second"
            with pytest.raises(error, match=name):
                global_element_connective(poset11, *args)


def test_global_elements_closed_under_connectives(poset11, std_projectors):
    from toposqt.valuation import truth_value

    psi = np.array([1, 0, 0, 0], dtype=complex)
    g1 = truth_value(poset11, std_projectors[3], psi)
    g2 = truth_value(poset11, std_projectors[0] + std_projectors[3], psi)
    for kind in ("and", "or", "implies"):
        combined = global_element_connective(poset11, kind, g1, g2)
        assert check_global_element(poset11, combined)
    negated = global_element_connective(poset11, "not", g1)
    assert check_global_element(poset11, negated)


@pytest.mark.parametrize(
    "kind, operands", [("xor", 2), ("xor", 1), ("not", 2), ("and", 1), ("implies", 1)]
)
def test_connectives_reject_an_unknown_kind_or_a_wrong_operand_count(poset11, named, kind, operands):
    for connective, operand in (
        (sieve_connective, principal_sieve(poset11, named["V"].id)),
        (global_element_connective, totally_true(poset11)),
        (subobject_connective, full_subobject(poset11)),
    ):
        with pytest.raises(ValidationError):
            connective(poset11, kind, *[operand] * operands)


def test_enumeration_refusal_builds_no_frame():
    # The maximal context of one basis of C^5 has 26 contexts below it.
    poset = build_poset([context_from_basis(np.eye(5))])
    top = poset.get(poset.ids[0])
    with pytest.raises(EnumerationLimitExceeded, match="26 contexts"):
        enumerate_sieves(poset, top)
    assert top.id not in poset._sieve_frames


@pytest.mark.parametrize(
    "call",
    [
        lambda poset, foreign, inside: is_sieve(poset, empty_sieve(foreign.id)),
        lambda poset, foreign, inside: sieve_connective(poset, "and", empty_sieve(foreign.id), empty_sieve(foreign.id)),
        lambda poset, foreign, inside: sieve_connective(poset, "not", empty_sieve(foreign.id)),
        lambda poset, foreign, inside: principal_sieve(poset, foreign.id),
        lambda poset, foreign, inside: omega_restriction(poset, empty_sieve(foreign.id), inside),
        lambda poset, foreign, inside: omega_restriction(poset, principal_sieve(poset, inside.id), foreign),
    ],
)
def test_a_foreign_context_id_is_an_unknown_context(poset11, second_basis, maximal_context, call):
    with pytest.raises(UnknownContext):
        call(poset11, second_basis, maximal_context)


def test_enumerate_sieves_unknown_context(poset11):
    foreign = context_from_basis(np.eye(2))
    with pytest.raises(UnknownContext):
        enumerate_sieves(poset11, foreign)


def test_omega_restriction_requires_inclusion(poset11, named):
    from toposqt.errors import NotASubcontext

    s = principal_sieve(poset11, named["V1"].id)
    with pytest.raises(NotASubcontext):
        omega_restriction(poset11, s, named["V2"])
    # A member outside the base's down-set is refused, as sieve_connective
    # refuses it, not dropped.
    stray = Sieve(named["V1"].id, frozenset({named["V"].id}))
    with pytest.raises(NotASubcontext, match="outside its down-set"):
        omega_restriction(poset11, stray, named["V1"])
    with pytest.raises(NotASubcontext, match="outside its down-set"):
        sieve_connective(poset11, "not", stray)


@pytest.fixture(scope="module")
def spin2_poset():
    return problem_poset(load_problem(SPIN2_PATH))


@pytest.mark.parametrize(
    "members",
    [lambda top: [top], lambda top: (top,), lambda top: top, lambda top: {top: True}, lambda top: None,
     lambda top: frozenset({0}), lambda top: {top, 0}],
    ids=["list", "tuple", "str", "dict", "None", "int-member", "set-with-int"],
)
def test_members_that_are_not_a_set_of_ids_are_a_validation_error(spin2_poset, members):
    # is_sieve and omega_restriction refuse them naming the base, where they
    # escaped as TypeError or AttributeError.
    top = spin2_poset.ids[0]
    sub = spin2_poset.get(spin2_poset.down_ids(top)[-1])
    sieve = Sieve(top, members(top))
    with pytest.raises(ValidationError, match=f"sieve on {top!r} are not a set of context ids"):
        is_sieve(spin2_poset, sieve)
    with pytest.raises(ValidationError, match=f"sieve on {top!r} are not a set of context ids"):
        omega_restriction(spin2_poset, sieve, sub)


@pytest.mark.parametrize("base", [[0], 5, None], ids=repr)
def test_a_sieve_base_that_is_not_an_id_is_a_validation_error(spin2_poset, base):
    sub = spin2_poset.get(spin2_poset.ids[-1])
    sieve = Sieve(base, frozenset())
    with pytest.raises(ValidationError, match="the base of a sieve is not a context id"):
        is_sieve(spin2_poset, sieve)
    with pytest.raises(ValidationError, match="the base of a sieve is not a context id"):
        omega_restriction(spin2_poset, sieve, sub)


def test_a_plain_set_of_ids_is_read_as_a_frozenset(spin2_poset):
    top = spin2_poset.ids[0]
    sub = spin2_poset.get(spin2_poset.down_ids(top)[-1])
    assert is_sieve(spin2_poset, Sieve(top, set(spin2_poset.down_ids(top))))
    assert not is_sieve(spin2_poset, Sieve(top, {top}))
    pulled = omega_restriction(spin2_poset, Sieve(top, set(spin2_poset.down_ids(top))), sub)
    assert pulled == principal_sieve(spin2_poset, sub.id)


def test_connectives_on_plain_set_operands_give_hashable_sieves(spin2_poset):
    # A set operand gave back members that were a set, so "and" and "or"
    # results could not be hashed.
    top = spin2_poset.ids[0]
    a, b = Sieve(top, set(spin2_poset.down_ids(top))), Sieve(top, set())
    assert type(a.members) is frozenset and a == principal_sieve(spin2_poset, top)
    for kind, operands in (("and", (a, b)), ("or", (a, b)), ("implies", (b, a)), ("not", (b,))):
        result = sieve_connective(spin2_poset, kind, *operands)
        assert type(result.members) is frozenset
        assert hash(result) == hash(Sieve(top, frozenset(result.members)))


def test_a_forged_sieve_of_set_members_gives_frozen_results(spin2_poset):
    # Set after the constructor, which freezes them, the members stay a set;
    # "and" and "or" on such an operand gave back a Sieve holding a set, and
    # hash() of it raised TypeError.
    top = spin2_poset.ids[0]
    forged = Sieve(top, frozenset())
    object.__setattr__(forged, "members", set(spin2_poset.down_ids(top)))
    empty = empty_sieve(top)
    for kind, operands in (("and", (forged, forged)), ("or", (forged, empty)), ("and", (empty, forged)),
                           ("implies", (empty, forged)), ("not", (forged,))):
        result = sieve_connective(spin2_poset, kind, *operands)
        assert type(result.members) is frozenset
        assert hash(result) == hash(Sieve(top, frozenset(result.members)))


@pytest.mark.parametrize(
    "operands",
    [
        lambda top: (Sieve(top, "abc"), Sieve(top, frozenset())),
        lambda top: (Sieve(top, frozenset()), Sieve(top, [top])),
        lambda top: (Sieve(top, {top: True}), Sieve(top, frozenset())),
        lambda top: (Sieve(top, [top]),),
    ],
    ids=["str", "list-second", "dict", "list-unary"],
)
def test_connective_members_that_are_no_set_are_a_validation_error(spin2_poset, operands):
    # They escaped from the subset test as TypeError.
    top = spin2_poset.ids[0]
    sieves = operands(top)
    for kind in ("not",) if len(sieves) == 1 else ("and", "or", "implies"):
        with pytest.raises(ValidationError, match=f"sieve on {top!r} are not a set of context ids"):
            sieve_connective(spin2_poset, kind, *sieves)


def test_connective_on_an_unhashable_base_is_a_validation_error(spin2_poset):
    # It escaped from the frame lookup as "TypeError: unhashable type".
    odd = Sieve([1], frozenset())
    for kind, sieves in (("and", (odd, odd)), ("implies", (odd, odd)), ("not", (odd,))):
        with pytest.raises(ValidationError, match=r"the base of a sieve is not a context id: \[1\]"):
            sieve_connective(spin2_poset, kind, *sieves)


def test_a_global_element_of_bare_sets_is_a_validation_error(spin2_poset):
    # Values that are frozensets, not Sieves, escaped as AttributeError.
    top = spin2_poset.ids[0]
    bare = GlobalElementOfOmega({cid: frozenset(spin2_poset.down_ids(cid)) for cid in spin2_poset.ids})
    true = totally_true(spin2_poset)
    with pytest.raises(ValidationError, match=f"^global element: the value stored at {top!r} is not a Sieve"):
        check_global_element(spin2_poset, bare)
    for kind, operands, name in (("not", (bare,), "first"), ("and", (bare, true), "first"), ("or", (true, bare), "second")):
        with pytest.raises(ValidationError, match=f"^{name} global element: the value stored at {top!r} is not a Sieve"):
            global_element_connective(spin2_poset, kind, *operands)
    listed = GlobalElementOfOmega({cid: Sieve(cid, list(s.members)) for cid, s in true.sieves.items()})
    with pytest.raises(ValidationError, match=f"sieve on {top!r} are not a set of context ids"):
        global_element_connective(spin2_poset, "and", listed, true)
    # check_global_element read the list as no global element, and a list of
    # lists escaped from the union as TypeError.
    nested = GlobalElementOfOmega({**true.sieves, top: Sieve(top, [[1]])})
    for element in (listed, nested):
        with pytest.raises(ValidationError, match=f"sieve on {top!r} are not a set of context ids"):
            check_global_element(spin2_poset, element)


@pytest.fixture(scope="module")
def ks18_poset():
    return problem_poset(load_problem(KS18_PATH))


def _library_sieves(poset):
    # One sieve from every path that builds a result Sieve: enumeration,
    # principal and empty sieves, restriction, each connective and truth.
    for context in poset:
        sieves = enumerate_sieves(poset, context)
        yield from sieves
        yield principal_sieve(poset, context.id)
        yield empty_sieve(context.id)
        yield omega_restriction(poset, sieves[-2], poset.get(poset.down_ids(context.id)[-1]))
        for a, b in zip(sieves, reversed(sieves)):
            for kind in ("and", "or", "implies"):
                yield sieve_connective(poset, kind, a, b)
            yield sieve_connective(poset, "not", a)
    e = np.eye(poset.get(poset.ids[0]).atoms[0].shape[0])
    yield from truth_value(poset, np.diag(e[0] + e[1]), (e[0] + e[2]) / np.sqrt(2)).sieves.values()


@pytest.mark.parametrize("name", ["poset11", "ks18_poset"])
def test_result_sieves_are_the_public_sieve(request, name):
    # Built without the dataclass __init__, a result is still equal to, hashes
    # and prints as the Sieve of its fields, and is as frozen.
    poset = request.getfixturevalue(name)
    built = list(_library_sieves(poset))
    assert len(built) > 10 * len(poset)
    for sieve in built:
        twin = Sieve(sieve.base, sieve.members)
        assert type(sieve) is Sieve and type(sieve.members) is frozenset
        assert sieve == twin and twin == sieve and {sieve, twin} == {twin}
        assert hash(sieve) == hash(twin) and repr(sieve) == repr(twin)
        assert sieve != Sieve(sieve.base, sieve.members | {"ctx-foreign"})
        for field, value in (("base", "ctx-foreign"), ("members", frozenset())):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(sieve, field, value)
        assert sieve == twin


def test_result_sieves_skip_the_dataclass_init(poset11, named, monkeypatch):
    # One connective of each kind, and every other path, builds its Sieve
    # through the slot descriptors; the count shows the patch is seen.
    base = named["V12"].id
    a, b = Sieve(base, frozenset({named["V1"].id})), Sieve(base, frozenset({named["V2"].id}))
    element = totally_true(poset11)
    calls = []
    init = Sieve.__init__

    def counting(self, *args):
        calls.append(args)
        init(self, *args)

    monkeypatch.setattr(Sieve, "__init__", counting)
    for kind in ("and", "or", "implies"):
        sieve_connective(poset11, kind, a, b)
    sieve_connective(poset11, "not", a)
    enumerate_sieves(poset11, named["V"])
    principal_sieve(poset11, base)
    empty_sieve(base)
    omega_restriction(poset11, a, named["V1"])
    global_element_connective(poset11, "implies", element, element)
    truth_value(poset11, np.diag([1.0, 0, 0, 0]), np.eye(4)[0])
    assert calls == []
    Sieve(base, frozenset())
    assert calls == [(base, frozenset())]


@pytest.mark.parametrize("kind", ["and", "or", "implies", "not"])
def test_subobject_connective_refuses_an_index_outside_the_atoms(poset11, kind):
    # Index 7 on the 4-atom context is no character: ``and`` would drop it
    # and ``or`` keep it, so either operand holding it is refused.
    from toposqt.errors import UnknownCharacter
    from toposqt.presheaf import ClopenSubobject

    full = full_subobject(poset11)
    top = poset11.ids[0]
    assert poset11.get(top).n_atoms == 4
    stray = ClopenSubobject({**full.selection, top: full.at(top) | {7}})
    assert not is_clopen_subobject(poset11, stray)
    for operands in [(stray,)] if kind == "not" else [(stray, full), (full, stray)]:
        with pytest.raises(UnknownCharacter, match="outside its context's atoms"):
            subobject_connective(poset11, kind, *operands)


@pytest.mark.parametrize("index", [True, 1.0], ids=repr)
@pytest.mark.parametrize("kind", ["and", "or", "implies", "not"])
def test_an_index_that_is_not_an_integer_is_no_character(poset11, kind, index):
    # True and 1.0 equal and hash as atom 1, so they pass a subset test
    # against the atom indices; they are refused like an index out of range.
    from toposqt.errors import UnknownCharacter
    from toposqt.presheaf import ClopenSubobject

    full = full_subobject(poset11)
    top = poset11.ids[0]
    stray = ClopenSubobject({**full.selection, top: frozenset({0, index, 2, 3})})
    assert not is_clopen_subobject(poset11, stray)
    everywhere = ClopenSubobject({cid: {index} for cid in poset11.ids})
    for operands in [(stray,), (everywhere,)] if kind == "not" else [(stray, full), (full, stray)]:
        with pytest.raises(UnknownCharacter, match="outside its context's atoms"):
            subobject_connective(poset11, kind, *operands)


def test_subobject_connective_poset_mismatch(poset11, named):
    partial = ClopenSubobject({named["V"].id: frozenset({0})})
    with pytest.raises(IncompleteAssignment, match="first subobject"):
        subobject_connective(poset11, "and", partial, partial)


# The functions that take one value per context, each with the class that
# wraps a per-context mapping into its operand, a whole mapping on the C^4
# poset, and its number of operands.
_SUBOBJECT = (ClopenSubobject, lambda poset: full_subobject(poset).selection)
_ELEMENT = (GlobalElementOfOmega, lambda poset: totally_true(poset).sieves)
_SECTION = (GlobalSection, lambda poset: global_sections(poset)[0].assignment)


@pytest.mark.parametrize(
    "call, operand, arity",
    [
        pytest.param(is_clopen_subobject, _SUBOBJECT, 1, id="is_clopen_subobject"),
        pytest.param(subobject_leq, _SUBOBJECT, 2, id="subobject_leq"),
        pytest.param(
            lambda poset, *s: subobject_connective(poset, "implies", *s), _SUBOBJECT, 2, id="subobject_connective"
        ),
        pytest.param(check_global_element, _ELEMENT, 1, id="check_global_element"),
        pytest.param(
            lambda poset, *g: global_element_connective(poset, "and", *g), _ELEMENT, 2,
            id="global_element_connective",
        ),
        pytest.param(is_global_section, _SECTION, 1, id="is_global_section"),
    ],
)
@pytest.mark.parametrize("fault", ["missing", "extra"])
def test_a_value_not_on_exactly_the_posets_contexts_is_an_incomplete_assignment(
    poset11, second_basis, call, operand, arity, fault
):
    # The whole value less the top context, or with one at a context
    # outside the poset, at each operand position in turn.
    wrap, whole = operand
    values = whole(poset11)
    top = poset11.ids[0]
    if fault == "missing":
        odd = {cid: value for cid, value in values.items() if cid != top}
    else:
        odd = {**values, second_basis.id: values[top]}
    for position in range(arity):
        operands = [wrap(values)] * arity
        operands[position] = wrap(odd)
        name = ("first", "second")[position] if arity == 2 else None
        with pytest.raises(IncompleteAssignment, match=name):
            call(poset11, *operands)


def test_logic_on_two_maximal_contexts(poset_two_bases, std_projectors):
    """Exhaustive sieve algebra below each maximal context of a poset whose
    maximal contexts have different down-sets (19 contexts)."""
    poset = poset_two_bases
    maximal = [c for c in poset if c.n_atoms == 4]
    assert len(poset) == 19 and len(maximal) == 2
    assert set(poset.down_ids(maximal[0].id)) != set(poset.down_ids(maximal[1].id))
    for context in maximal:
        sieves = enumerate_sieves(poset, context)
        oracle = downsets_brute(poset.down_ids(context.id), poset.is_leq)
        assert {s.members for s in sieves} == oracle and len(sieves) == len(oracle)
        for a, b in product(sieves, repeat=2):
            largest = frozenset().union(*(r for r in oracle if r & a.members <= b.members))
            assert largest in oracle
            assert sieve_connective(poset, "implies", a, b).members == largest

    below = {v: {w for w in poset.ids if poset.is_leq(w, v)} for v in poset.ids}
    states = list(np.eye(4, dtype=complex)) + [np.array([0, 0, 1, 1], dtype=complex) / np.sqrt(2)]
    for P, psi in product(std_projectors, states):
        outer = daseinise_proposition(poset, P).subobject
        state = pseudo_state(poset, psi).subobject
        passes = {cid for cid in poset.ids if state.at(cid) <= outer.at(cid)}
        certain = {v for v in poset.ids if below[v] <= passes}
        element = truth_value(poset, P, psi)
        for v in poset.ids:
            assert element.at(v).members == certain & below[v]


@pytest.mark.parametrize("name", ["poset11", "ks18_poset"])
def test_enumerated_implication_matches_brute_force_on_every_pair(request, name):
    # implies and not on two sieves of an enumerated Omega(V) OR up-set ints;
    # every pair on every context, each result the frame's own Sieve.
    poset = request.getfixturevalue(name)
    for context in poset:
        down = poset.down_ids(context.id)
        assert len(down) <= toposqt.logic.ENUMERATION_CAP
        implies = brute_sieve_implies(down, poset.is_leq)
        sieves = enumerate_sieves(poset, context)
        own = set(map(id, sieves))
        for a in sieves:
            negation = sieve_connective(poset, "not", a)
            assert negation.members == implies(a.members, frozenset()) and id(negation) in own
            for b in sieves:
                result = sieve_connective(poset, "implies", a, b)
                assert result.members == implies(a.members, b.members) and id(result) in own


@pytest.mark.parametrize("name", ["poset11", "ks18_poset"])
def test_up_is_the_transpose_of_below(request, name):
    # Bit j of up[i] and bit i of below[j] both say ids[i] <= ids[j].
    poset = request.getfixturevalue(name)
    for context in poset:
        frame = _enumerated(poset, context.id)
        ids = poset._sieve_frames[context.id].ids
        assert len(frame.up) == len(frame.local) == len(ids)
        assert frame.full == (1 << len(ids)) - 1 == max(frame.sieves)
        for i, j in product(range(len(ids)), repeat=2):
            assert frame.up[i] >> j & 1 == frame.local[j] >> i & 1 == poset.is_leq(ids[i], ids[j])


@pytest.mark.parametrize("name", ["poset11", "spin2_poset", "ks18_poset"])
def test_subobject_not_is_implication_into_the_empty_subobject(request, name):
    # On the full and empty subobjects, the outer daseinisations of sums of
    # the top context's atoms, and selections that are not clopen.
    poset = request.getfixturevalue(name)
    atoms = poset.get(poset.ids[0]).atoms
    operands = [full_subobject(poset), empty_subobject(poset)]
    operands += [daseinise_proposition(poset, sum(atoms[: k + 1])).subobject for k in range(len(atoms) - 1)]
    rng = np.random.default_rng(3)
    for p in (0.3, 0.7):
        operands.append(ClopenSubobject({c.id: compress(range(c.n_atoms), rng.random(c.n_atoms) < p) for c in poset}))
    assert not all(is_clopen_subobject(poset, s) for s in operands)
    for s in operands:
        assert subobject_connective(poset, "not", s) == subobject_connective(poset, "implies", s, empty_subobject(poset))


def test_subobject_not_checks_its_one_operand_as_the_first(poset11, second_basis):
    full = full_subobject(poset11).selection
    top = poset11.ids[0]
    missing = ClopenSubobject({cid: chosen for cid, chosen in full.items() if cid != top})
    extra = ClopenSubobject({**full, second_basis.id: frozenset()})
    for odd in (missing, extra):
        with pytest.raises(IncompleteAssignment) as raised:
            subobject_connective(poset11, "not", odd)
        assert str(raised.value) == "first subobject must be defined on every context of the poset and on no other"
    stray = ClopenSubobject({**full, top: {0, 7}})
    with pytest.raises(UnknownCharacter) as raised:
        subobject_connective(poset11, "not", stray)
    assert str(raised.value) == "first subobject selects an index outside its context's atoms"


def _masks(poset, context_id) -> tuple[list[int], tuple[int, ...]]:
    # The local int of each sieve on the context, in enumeration order, and
    # the local down-set int of each member of its frame: _sieve_tables' arguments.
    frame = _enumerated(poset, context_id)
    return list(frame.sieves), frame.local


def test_heyting_tables_match_sieve_connective():
    # On every spin2 context, each entry of the four tables is the position
    # of sieve_connective's result, or the inclusion of the two sieves.
    poset = problem_poset(load_problem(SPIN2_PATH))
    for context in poset:
        sieves = enumerate_sieves(poset, context)
        meet, join, implies, leq = _sieve_tables(*_masks(poset, context.id))
        for (i, a), (j, b) in product(enumerate(sieves), repeat=2):
            assert sieves[meet[i, j]] == sieve_connective(poset, "and", a, b)
            assert sieves[join[i, j]] == sieve_connective(poset, "or", a, b)
            assert sieves[implies[i, j]] == sieve_connective(poset, "implies", a, b)
            assert leq[i, j] == (a.members <= b.members)


@pytest.mark.parametrize("seed", range(6))
def test_heyting_tables_match_brute_force_on_random_posets(seed):
    # Intersection, union and inclusion on every pair; the implication, the
    # largest down-set whose meet with a lies inside b, on every pair of a
    # small context and on sampled pairs of a large one.
    poset = random_small_poset(seed)
    rng = np.random.default_rng(seed)
    for context in poset:
        oracle = downsets_brute(poset.down_ids(context.id), poset.is_leq)
        masks, below = _masks(poset, context.id)
        sets = [s.members for s in enumerate_sieves(poset, context)]
        assert set(sets) == oracle
        meet, join, implies, leq = _sieve_tables(masks, below)
        m = len(sets)
        for i, j in product(range(m), repeat=2):
            assert sets[meet[i, j]] == sets[i] & sets[j]
            assert sets[join[i, j]] == sets[i] | sets[j]
            assert leq[i, j] == (sets[i] <= sets[j])
        pairs = product(range(m), repeat=2) if m <= 30 else rng.integers(m, size=(300, 2)).tolist()
        for i, j in pairs:
            largest = frozenset().union(*(d for d in oracle if d & sets[i] <= sets[j]))
            assert sets[implies[i, j]] == largest


def _law_loop(meet, join, implies, leq, limit, top, empty) -> tuple[int, int | None]:
    # The laws as a plain loop over the first ``limit`` triples.
    m = len(meet)
    violations, witness = 0, None
    for i in range(m):
        negation = implies[i][empty]
        violations += meet[i][negation] != empty
        if witness is None and join[i][negation] != top:
            witness = i
    for a, b, c in islice(product(range(m), repeat=3), limit):
        conj = meet[a][b]
        violations += meet[a][join[b][c]] != join[conj][meet[a][c]]
        violations += leq[conj][c] != leq[a][implies[b][c]]
    return violations, witness


@pytest.mark.parametrize("block", [20, 60, 1 << 18])
@pytest.mark.parametrize("limit", [1, 7, 25, 30, 60, 125, 10**6, "all"])
def test_law_check_counts_like_a_triple_loop(monkeypatch, block, limit):
    # Corrupted tables make violations to count; blocks of one or two values
    # of a and a limit inside a block check the gathers against the loop.
    poset = problem_poset(load_problem(SPIN2_PATH))
    context = next(c for c in poset if c.n_atoms == 3)
    sieves = enumerate_sieves(poset, context)
    m = len(sieves)
    assert m == 5
    rng = np.random.default_rng(7)
    tables = [t.copy() for t in _sieve_tables(*_masks(poset, context.id))]
    for table in tables[:3]:
        spoilt = rng.random(table.shape) < 0.3
        table[spoilt] = rng.integers(m, size=int(spoilt.sum()))
    tables[3] ^= rng.random((m, m)) < 0.3
    monkeypatch.setattr(toposqt.logic, "_sieve_tables", lambda *args: tables)
    monkeypatch.setattr(toposqt.logic, "_TRIPLE_BLOCK", block)
    report = _check_sieve_laws(poset, context.id, limit)
    total = m**3 if limit == "all" else min(m**3, limit)
    violations, witness = _law_loop(*(t.tolist() for t in tables), total, top=m - 1, empty=0)
    assert violations > 0
    assert report["violations"] == violations
    assert report["triples_checked"] == total
    assert report["excluded_middle_witness"] == (None if witness is None else sorted(sieves[witness].members))
