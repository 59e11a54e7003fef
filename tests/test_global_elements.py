"""Connectives of global elements of Ω against a brute-force oracle that
reads only ``is_leq``: on the single basis of C^4, spin2 and two bases of
C^4 that share two rays, with Hypothesis-drawn down-sets, each given to the
connective as a down-set the library holds, as the same element after its
sieves were read, and as a copy built from those sieves."""

from __future__ import annotations

from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_element_connective
from toposqt.errors import ValidationError
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
