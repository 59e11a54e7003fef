"""Clopen subobjects that the library makes, which hold one int over the
character bits: the connectives, the clopen test, ``subobject_leq`` and
``==`` on them against the frozenset rules of ``tests/oracles.py``; the rule
that trusts the int only while the selection is unread or holds the very
frozensets built from it; and copies and pickles, which hold no poset."""

from __future__ import annotations

import copy
import pickle
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import haar_basis
from oracles import brute_connective, brute_implies, brute_is_clopen
from toposqt import presheaf
from toposqt.contexts import build_poset, context_from_basis
from toposqt.daseinisation import daseinise_proposition, inner_daseinise_proposition
from toposqt.errors import IncompleteAssignment, UnknownCharacter, ValidationError
from toposqt.logic import subobject_connective
from toposqt.presheaf import ClopenSubobject, empty_subobject, full_subobject, is_clopen_subobject, subobject_leq
from toposqt.problems import load_problem, problem_poset

KINDS = ("and", "or", "implies", "not")


def _library(poset, selection: dict) -> ClopenSubobject:
    # A library-made subobject with the given selection: its join with the empty one.
    return subobject_connective(poset, "or", ClopenSubobject(selection), empty_subobject(poset))


def _drawn(poset, seed: int) -> list[dict[str, frozenset[int]]]:
    # Random selections, each context's atoms kept with one of a few
    # probabilities, and the largest clopen subobject inside each.
    rng = np.random.default_rng(seed)
    drawn = [{c.id: frozenset(np.flatnonzero(rng.random(c.n_atoms) < p).tolist()) for c in poset}
             for p in (0.3, 0.6, 0.9)]
    full = {c.id: frozenset(range(c.n_atoms)) for c in poset}
    return drawn + [brute_implies(poset, full, s) for s in drawn]


def _check_against_the_rules(poset, selections: list[dict]) -> None:
    # Every operation on library-made operands, unread and read, against the
    # frozenset rules and against the same operation on user-made operands.
    for s1 in selections:
        a, read = _library(poset, s1), _library(poset, s1)
        assert read.selection == s1
        assert is_clopen_subobject(poset, a) == is_clopen_subobject(poset, read) == brute_is_clopen(poset, s1)
        assert a == read == ClopenSubobject(s1)
        for s2 in selections:
            b = _library(poset, s2)
            assert subobject_leq(poset, a, b) == subobject_leq(poset, read, b) == all(s1[v] <= s2[v] for v in s1)
            assert (a == b) == (s1 == s2) == (ClopenSubobject(s1) == b)
            for kind in KINDS:
                second, user = (None, None) if kind == "not" else (b, ClopenSubobject(s2))
                expected = brute_connective(poset, kind, s1, s2)
                result = subobject_connective(poset, kind, a, second)
                assert result == subobject_connective(poset, kind, ClopenSubobject(s1), user)
                assert subobject_connective(poset, kind, read, second) == result
                assert result.selection == expected
                assert is_clopen_subobject(poset, result) == brute_is_clopen(poset, expected)


def _shipped(name: str):
    with resources.as_file(resources.files("toposqt.data") / f"{name}.json") as path:
        return problem_poset(load_problem(path))


@pytest.mark.parametrize("name", ["poset11", "spin2_poset", "ks18_poset"])
def test_int_operations_match_the_frozenset_rules(request, name):
    poset = request.getfixturevalue(name)
    _check_against_the_rules(poset, _drawn(poset, len(poset)))


@settings(derandomize=True, database=None, deadline=None, max_examples=12)
@given(dim=st.integers(3, 5), seeds=st.lists(st.integers(0, 10**6), min_size=1, max_size=2))
def test_int_operations_match_the_frozenset_rules_on_haar_posets(dim, seeds):
    # One Haar basis, or two, which share no ray and meet in the trivial context.
    poset = build_poset([context_from_basis(haar_basis(dim, seed)) for seed in seeds[: 2 if dim < 5 else 1]])
    _check_against_the_rules(poset, _drawn(poset, seeds[0]))


def test_daseinised_subobjects_hold_their_characters(poset11, std_projectors):
    # Outer daseinisations are clopen, inner ones need not be; both selections
    # read off the int as the oracle's frozensets.
    P = std_projectors[0] + std_projectors[1]
    outer, inner = daseinise_proposition(poset11, P).subobject, inner_daseinise_proposition(poset11, P).subobject
    assert is_clopen_subobject(poset11, outer) and not is_clopen_subobject(poset11, inner)
    assert subobject_leq(poset11, inner, outer) and not subobject_leq(poset11, outer, inner)
    for s in (outer, inner):
        selection = dict(s.selection)
        assert all(type(v) is frozenset for v in selection.values()) and list(selection) == list(poset11.ids)
        assert brute_is_clopen(poset11, selection) == is_clopen_subobject(poset11, ClopenSubobject(selection))


@pytest.fixture
def counted(monkeypatch):
    # The calls of the coverage rule's check, which a trusted operand skips.
    calls = []
    check = presheaf._selects_characters

    def counting(*args):
        calls.append(args[2])
        return check(*args)

    monkeypatch.setattr(presheaf, "_selects_characters", counting)
    return calls


def _every_operation(poset, s1, s2) -> list:
    # The result of each connective, the clopen test, subobject_leq and ==.
    results = [subobject_connective(poset, kind, s1, *(() if kind == "not" else (s2,))).selection for kind in KINDS]
    return results + [is_clopen_subobject(poset, s1), subobject_leq(poset, s1, s2), s1 == s2]


def test_trusted_operands_skip_the_coverage_check(ks18_poset, counted):
    top = ks18_poset.get(ks18_poset.ids[0])
    unread = [daseinise_proposition(ks18_poset, top.atoms[0] + top.atoms[k]).subobject for k in (1, 2)]
    read = [daseinise_proposition(ks18_poset, top.atoms[0] + top.atoms[k]).subobject for k in (1, 2)]
    for s in read:
        s.selection
    made = [full_subobject(ks18_poset), empty_subobject(ks18_poset)]
    expected = _every_operation(ks18_poset, *unread)
    assert _every_operation(ks18_poset, *read) == expected
    _every_operation(ks18_poset, *made)
    assert counted == []
    user = [ClopenSubobject(s.selection) for s in read]
    assert _every_operation(ks18_poset, *user) == expected
    assert counted


def test_an_edited_selection_is_checked_again(poset11, counted):
    top = poset11.ids[0]
    P = poset11.get(top).atoms[0]
    s2 = daseinise_proposition(poset11, P).subobject

    def edited(edit):
        s = full_subobject(poset11)
        edit(s.selection)
        return s

    # A value swapped for an equal frozenset, or a key taken out and put back
    # at the end of the dict, gives the same results through the full check.
    expected = _every_operation(poset11, full_subobject(poset11), s2)
    assert counted == []
    for edit in (lambda sel: sel.update({top: frozenset(set(sel[top]))}), lambda sel: sel.update({top: sel.pop(top)})):
        assert _every_operation(poset11, edited(edit), s2) == expected
        assert "first subobject" in counted
        counted.clear()
    # An index out of range is no character; a dropped key leaves a context out.
    stray = edited(lambda sel: sel.update({top: frozenset({99})}))
    assert not is_clopen_subobject(poset11, stray)
    for call in (lambda: subobject_connective(poset11, "and", stray, s2), lambda: subobject_leq(poset11, s2, stray)):
        with pytest.raises(UnknownCharacter):
            call()
    dropped = edited(lambda sel: sel.pop(top))
    for call in (lambda: is_clopen_subobject(poset11, dropped), lambda: subobject_connective(poset11, "not", dropped),
                 lambda: subobject_leq(poset11, dropped, s2)):
        with pytest.raises(IncompleteAssignment):
            call()


def test_an_assigned_selection_drops_the_int(poset11, counted):
    s = full_subobject(poset11)
    s.selection = {cid: frozenset() for cid in poset11.ids}
    assert s == empty_subobject(poset11)
    assert subobject_leq(poset11, s, empty_subobject(poset11)) and counted == ["first subobject"]


def test_a_subobject_of_a_second_build_of_the_problem(ks18_poset, counted):
    # Another poset object with the same ids: the operand is read and checked
    # as a user-made one, and every result is the same.
    again = _shipped("ks18")
    assert again is not ks18_poset and again.ids == ks18_poset.ids
    top = ks18_poset.get(ks18_poset.ids[0])
    P, Q = top.atoms[0] + top.atoms[1], top.atoms[0] + top.atoms[2]
    mine = [daseinise_proposition(ks18_poset, R).subobject for R in (P, Q)]
    theirs = [daseinise_proposition(again, R).subobject for R in (P, Q)]
    expected = _every_operation(ks18_poset, *mine)
    assert counted == []
    assert _every_operation(again, *mine) == _every_operation(ks18_poset, *theirs) == expected
    assert _every_operation(again, mine[0], theirs[1]) == expected
    assert counted
    assert mine == theirs and mine[0] != theirs[1]


def test_library_and_user_made_subobjects_compare_by_selection(spin2_poset):
    P = spin2_poset.get(spin2_poset.ids[0]).atoms[0]
    made = daseinise_proposition(spin2_poset, P).subobject
    user = ClopenSubobject({cid: set(v) for cid, v in _library(spin2_poset, made.selection).selection.items()})
    assert made == user and user == made
    assert full_subobject(spin2_poset) != user != empty_subobject(spin2_poset)
    assert ClopenSubobject({}) != made and made != ClopenSubobject({})


@pytest.mark.parametrize("read", [False, True], ids=["unread", "read"])
@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))],
                         ids=["copy", "deepcopy", "pickle"])
def test_a_copy_or_pickle_of_a_subobject_holds_no_poset(spin2_poset, read, clone):
    P = spin2_poset.get(spin2_poset.ids[0]).atoms[0]
    original = daseinise_proposition(spin2_poset, P).subobject
    if read:
        original.selection
    twin = clone(original)
    assert twin == original and twin._poset is None
    assert twin.selection == original.selection and twin.selection is not original.selection
    assert subobject_connective(spin2_poset, "not", twin) == subobject_connective(spin2_poset, "not", original)


def _ending(call):
    # How a call ends: its answer (a subobject's as its selection), or its error's class.
    try:
        result = call()
    except Exception as error:  # noqa: BLE001 - the class is the answer
        return type(error)
    return result.selection if isinstance(result, ClopenSubobject) else result


def _calls(poset, s, other) -> list:
    # The clopen test, subobject_leq at each operand position and each connective.
    calls = [lambda: is_clopen_subobject(poset, s), lambda: subobject_leq(poset, s, other),
             lambda: subobject_leq(poset, other, s)]
    return calls + [lambda kind=kind: subobject_connective(poset, kind, s, *(() if kind == "not" else (other,)))
                    for kind in KINDS]


@pytest.mark.parametrize("value", [[0, 1], (0, 1), {0: "a", 1: "b"}, 5, None, "01", [7]],
                         ids=["list", "tuple", "dict", "int", "None", "str", "stray-list"])
@pytest.mark.parametrize("made", ["library", "user"])
@pytest.mark.parametrize("read", [False, True], ids=["other-unread", "other-read"])
def test_an_edited_selection_value_is_read_as_the_constructor_reads_it(poset11, value, made, read):
    # A value written into the selection at one context ends each call as
    # a subobject built from the edited mapping does: the same answer, or
    # the same error class (the constructor's ValidationError included).
    top = poset11.ids[0]
    P = poset11.get(top).atoms[0] + poset11.get(top).atoms[1]
    other = daseinise_proposition(poset11, P).subobject
    if read:
        other.selection
    s = daseinise_proposition(poset11, P).subobject if made == "library" else ClopenSubobject(full_subobject(
        poset11).selection)
    s.selection[top] = value
    try:
        ends = [_ending(call) for call in _calls(poset11, ClopenSubobject(dict(s.selection)), other)]
    except ValidationError:
        ends = [ValidationError] * 7
    assert [_ending(call) for call in _calls(poset11, s, other)] == ends
