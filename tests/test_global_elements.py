"""Connectives of global elements of Ω against a brute-force oracle that
reads only ``is_leq``: on the single basis of C^4, spin2 and two bases of
C^4 that share two rays, with Hypothesis-drawn down-sets, each given to the
connective as a down-set the library holds, as the same element after its
sieves were read, and as a copy built from those sieves."""

from __future__ import annotations

import copy
import pickle
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toposqt.logic

from oracles import brute_element_connective
from toposqt.contexts import build_poset
from toposqt.errors import IncompleteAssignment, ValidationError
from toposqt.logic import (
    GlobalElementOfOmega,
    Sieve,
    _element,
    check_global_element,
    global_element_connective,
    totally_false,
    totally_true,
)
from toposqt.problems import load_problem, problem_poset
from toposqt.valuation import truth_value

POSETS = ("poset11", "spin2", "poset_two_bases")
KINDS = ("and", "or", "implies", "not")


@pytest.fixture(scope="module")
def spin2():
    with resources.as_file(resources.files("toposqt.data") / "spin2.json") as path:
        return problem_poset(load_problem(path))


def _down_set(data, poset) -> frozenset[str]:
    # The down-closure of a drawn set of contexts.
    drawn = data.draw(st.frozensets(st.sampled_from(poset.ids)))
    return frozenset(w for w in poset.ids if any(poset.is_leq(w, v) for v in drawn))


def _unread(poset, down: frozenset[str]) -> GlobalElementOfOmega:
    # The element that holds the down-set: it keeps each context whose down-set int misses the complement.
    return _element(poset, ~sum(poset._bit[cid] for cid in down))


def _read(poset, down):
    element = _unread(poset, down)
    element.sieves
    return element


def _copied(poset, down):
    return GlobalElementOfOmega(dict(_unread(poset, down).sieves))


@pytest.mark.parametrize("name", POSETS)
@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(data=st.data())
def test_connectives_match_the_oracle(request, name, data):
    poset = request.getfixturevalue(name)
    U1, U2 = _down_set(data, poset), _down_set(data, poset)
    for kind in KINDS:
        want = brute_element_connective(poset, kind, U1, U2)
        for make in (_unread, _read, _copied):
            operands = [make(poset, U1)] + ([] if kind == "not" else [make(poset, U2)])
            result = global_element_connective(poset, kind, *operands)
            assert {cid: sieve.members for cid, sieve in result.sieves.items()} == want
            assert list(result.sieves) == list(poset.ids)
            assert check_global_element(poset, result)


@pytest.mark.parametrize("name", ("poset11", "spin2", "ks18_poset"))
@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(data=st.data())
def test_and_or_hold_the_down_set_the_per_context_rule_gives(request, name, data):
    # U1 ∩ U2 and U1 ∪ U2 are down-sets already: the result holds the int
    # that keeping each context whose down-set misses their complement gives.
    poset = request.getfixturevalue(name)
    U1, U2 = _down_set(data, poset), _down_set(data, poset)
    for make in (_unread, _read):
        g1, g2 = make(poset, U1), make(poset, U2)
        a, b = g1._down, g2._down
        for kind, outside in (("and", ~(a & b)), ("or", ~(a | b))):
            result, want = global_element_connective(poset, kind, g1, g2), _element(poset, outside)
            assert result._down == want._down
            assert result.sieves == want.sieves


def test_a_connective_honours_an_edit_after_a_read(poset11):
    # Once its sieves are read, the dict is the element, not the down-set it was built from.
    element = totally_true(poset11)
    element.sieves.update(totally_false(poset11).sieves)
    assert global_element_connective(poset11, "or", element, totally_false(poset11)) == totally_false(poset11)
    assert global_element_connective(poset11, "not", element) == totally_true(poset11)
    bottom = frozenset({poset11.ids[-1]})  # a least context
    element.sieves.update(_copied(poset11, bottom).sieves)
    assert global_element_connective(poset11, "and", element, totally_true(poset11)) == _copied(poset11, bottom)


def test_a_sieve_with_one_member_swapped_is_no_global_element(poset_two_bases):
    # Each swap keeps the sieve's size, so only the member tests see it: a
    # member outside the base's down-set, or one outside the union of the sieves.
    poset = poset_two_bases
    first, second = (c.id for c in poset if c.n_atoms == 4)
    below = frozenset(poset.down_ids(first))
    outside_down = totally_true(poset)
    stranger = next(cid for cid in poset.down_ids(second) if cid not in below)
    outside_down.sieves[first] = Sieve(first, below - {poset.down_ids(first)[-1]} | {stranger})
    least, other = [cid for cid in below if len(poset.down_ids(cid)) == 1][:2]
    outside_union = _copied(poset, frozenset({least}))
    outside_union.sieves[first] = Sieve(first, frozenset({other}))
    for odd in (outside_down, outside_union):
        assert not check_global_element(poset, odd)
        for kind in KINDS:
            with pytest.raises(ValidationError, match="not the traces of one down-set"):
                global_element_connective(poset, kind, *[odd] * (1 if kind == "not" else 2))


def test_a_member_that_is_no_context_id_is_named(spin2):
    # A set holding a non-id fails the match first; the sieve check then names the base.
    top = spin2.ids[0]
    odd = GlobalElementOfOmega({**totally_true(spin2).sieves, top: Sieve(top, frozenset(spin2.down_ids(top)) | {0})})
    calls = [lambda: check_global_element(spin2, odd)]
    calls += [lambda kind=kind: global_element_connective(spin2, kind, *[odd] * (1 if kind == "not" else 2))
              for kind in KINDS]
    for call in calls:
        with pytest.raises(ValidationError, match=f"members of a sieve on {top!r} are not a set of context ids"):
            call()


def test_the_check_reads_the_sieves_of_an_unread_element(poset11):
    # A held int that is no down-set (the top context alone) builds sieves
    # that do not match; the check reads them rather than trusting the int.
    top = poset11.ids[0]
    element = _unread(poset11, frozenset())
    element._down = poset11._bit[top]
    assert not check_global_element(poset11, element)
    assert element.at(top).members == {top}



def _outcome(call):
    # A call's answer, an element's as the members of each of its sieves, or its error's type and message.
    try:
        result = call()
    except (ValidationError, IncompleteAssignment) as error:
        return type(error), str(error)
    if isinstance(result, GlobalElementOfOmega):
        return {cid: sieve.members for cid, sieve in result.sieves.items()}
    return result


def _edits(poset):
    # Edits of a read element's dict, for an element whose U is one least
    # context: the first and fourth leave the same sieves.
    top = poset.ids[0]
    least, other = [cid for cid in poset.ids if len(poset.down_ids(cid)) == 1][:2]

    def equal_sieve(sieves):
        sieves[top] = Sieve(top, sieves[top].members)

    def no_global_element(sieves):
        sieves[top] = Sieve(top, frozenset({other}))

    def deleted(sieves):
        del sieves[top]

    def re_added(sieves):
        sieves[top] = sieves.pop(top)

    def foreign_key(sieves):
        sieves["ctx-foreign"] = Sieve("ctx-foreign", frozenset())

    def renamed(sieves):
        # The values keep their order, and the last key is a foreign one.
        sieves["ctx-foreign"] = sieves.pop(poset.ids[-1])

    return frozenset({least}), (equal_sieve, no_global_element, deleted, re_added, foreign_key, renamed)


def _agree(poset, element, copy, other):
    # Each connective, with the element at each operand position, gives what
    # it gives on the copy; returns the kinds of outcome seen.
    seen = set()
    for kind in KINDS:
        positions = [((element,), (copy,))] if kind == "not" else [
            ((element, other), (copy, other)), ((other, element), (other, copy))]
        for given, copied in positions:
            got = _outcome(lambda: global_element_connective(poset, kind, *given))
            assert got == _outcome(lambda: global_element_connective(poset, kind, *copied))
            seen.add(got[0] if isinstance(got, tuple) else dict)
    return seen


@pytest.mark.parametrize("name", POSETS)
def test_an_edit_after_a_read_gives_what_the_edited_sieves_give(request, name):
    # Each edited element against a copy of its dict, which is always read
    # back.  The element's kept U is spoilt (the top context alone, no
    # down-set), so a connective that reused it would answer otherwise.
    poset = request.getfixturevalue(name)
    down, edits = _edits(poset)
    other = _read(poset, frozenset(poset.down_ids(poset.ids[-1])))
    seen = set()
    for edit in edits:
        element = _read(poset, down)
        edit(element.sieves)
        element._down = poset._bit[poset.ids[0]]
        copy = GlobalElementOfOmega(dict(element.sieves))
        assert _outcome(lambda: check_global_element(poset, element)) == _outcome(
            lambda: check_global_element(poset, copy))
        seen |= _agree(poset, element, copy, other)
    assert seen == {dict, ValidationError, IncompleteAssignment}


def test_a_read_element_of_another_poset_is_read_back(poset11, maximal_context):
    # A twin poset has the same ids; an element read there is read back
    # here, so its spoilt U is not used.
    twin = build_poset([maximal_context])
    assert twin.ids == poset11.ids and twin is not poset11
    down, _ = _edits(poset11)
    element = _read(twin, down)
    element._down = poset11._bit[poset11.ids[0]]
    copy = GlobalElementOfOmega(dict(element.sieves))
    assert _agree(poset11, element, copy, _read(poset11, down)) == {dict}


def test_an_unedited_read_element_reuses_its_down_set(poset11, monkeypatch):
    # No read-back: the connectives answer from the kept U alone.
    down, _ = _edits(poset11)
    elements = [_read(poset11, down), _read(poset11, frozenset(poset11.down_ids(poset11.ids[1])))]
    wants = {kind: global_element_connective(poset11, kind, *elements[: 1 if kind == "not" else 2]) for kind in KINDS}

    def refused(*args):
        raise AssertionError("read back")

    monkeypatch.setattr(toposqt.logic, "_read_down_set", refused)
    for kind, want in wants.items():
        assert global_element_connective(poset11, kind, *elements[: 1 if kind == "not" else 2]) == want


@pytest.mark.parametrize("name", POSETS)
def test_the_check_reads_the_sieves_of_a_read_element(request, name):
    # A spoilt kept U changes no answer: the sound sieves pass, and an edit
    # that makes them no global element fails, whatever U says.
    poset = request.getfixturevalue(name)
    down, (_, no_global_element, *_) = _edits(poset)
    sound, odd = _read(poset, down), _read(poset, down)
    no_global_element(odd.sieves)
    sound._down, odd._down = poset._bit[poset.ids[0]], sound._down
    assert check_global_element(poset, sound)
    assert not check_global_element(poset, odd)


@pytest.mark.parametrize("read", [False, True], ids=["unread", "read"])
@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda g: pickle.loads(pickle.dumps(g))],
                         ids=["copy", "deepcopy", "pickle"])
def test_a_copy_or_pickle_of_an_element_holds_no_poset(spin2, read, clone):
    # A copy is built from the sieves, as an element built from sieves is.
    top = spin2.get(spin2.ids[0])
    original = truth_value(spin2, top.atoms[0], np.linalg.eigh(top.atoms[0] + top.atoms[1])[1][:, -1])
    if read:
        original.sieves
    twin = clone(original)
    assert twin == original and twin._poset is None
    assert twin.sieves == original.sieves and twin.sieves is not original.sieves
    assert global_element_connective(spin2, "not", twin) == global_element_connective(spin2, "not", original)
