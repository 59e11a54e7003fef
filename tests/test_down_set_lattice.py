"""The one down-set lattice behind clopen subobjects and global elements of
Ω (``presheaf._Held``): ``==`` answers as the public mappings compare,
whatever state each operand is in, and ``and``, ``or`` and
``subobject_leq`` on library-made subobjects build no character order."""

from __future__ import annotations

from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toposqt.contexts import build_poset
from toposqt.daseinisation import daseinise_proposition
from toposqt.logic import GlobalElementOfOmega, Sieve, _element, subobject_connective, totally_false, totally_true
from toposqt.presheaf import ClopenSubobject, empty_subobject, full_subobject, subobject_leq
from toposqt.problems import load_problem, problem_poset

POSETS = ("poset11", "spin2_poset", "ks18_poset")


def _shipped(name: str):
    with resources.as_file(resources.files("toposqt.data") / f"{name}.json") as path:
        return problem_poset(load_problem(path))


@pytest.fixture(scope="module")
def twins(maximal_context):
    # A second build of each poset: another object with the same ids.
    return {"poset11": build_poset([maximal_context]), "spin2_poset": _shipped("spin2"),
            "ks18_poset": _shipped("ks18")}


def _down_set(data, poset) -> frozenset[str]:
    # The down-closure of a drawn set of contexts.
    drawn = data.draw(st.frozensets(st.sampled_from(poset.ids), max_size=4))
    return frozenset(w for w in poset.ids if any(poset.is_leq(w, v) for v in drawn))


def _held(poset, down: frozenset[str]) -> GlobalElementOfOmega:
    return _element(poset, ~sum(poset._bit[cid] for cid in down))


def _mapping(element) -> dict:
    return element.sieves if isinstance(element, GlobalElementOfOmega) else element.selection


def _read(element):
    _mapping(element)
    return element


def _edited(element, equal: bool):
    # An edit of the top value after the read: to an equal value, which
    # leaves the mapping as it was but holds a value not built from the int,
    # or to another one, the empty one unless it was empty.
    values = _mapping(element)
    top = next(iter(values))
    if isinstance(element, GlobalElementOfOmega):
        members = values[top].members
        values[top] = Sieve(top, members if equal else frozenset() if members else frozenset({top}))
    else:
        indices = values[top]
        values[top] = frozenset(set(indices)) if equal else frozenset() if indices else frozenset({0})
    return element


def _elements(poset, twin, down):
    # Fresh global elements of one down-set, one in each state.
    return [_held(poset, down), _read(_held(poset, down)), _edited(_held(poset, down), True),
            _edited(_held(poset, down), False), GlobalElementOfOmega(dict(_held(poset, down).sieves)),
            _held(twin, down)]


def _library(poset, selection):
    # A library-made subobject with the given selection: its join with the empty one.
    return subobject_connective(poset, "or", ClopenSubobject(selection), empty_subobject(poset))


def _subobjects(poset, twin, down):
    # Fresh subobjects, each the whole spectrum on a down-set of contexts, one in each state.
    selection = {c.id: frozenset(range(c.n_atoms)) if c.id in down else frozenset() for c in poset}
    return [_library(poset, selection), _read(_library(poset, selection)), _edited(_library(poset, selection), True),
            _edited(_library(poset, selection), False), ClopenSubobject(selection), _library(twin, selection)]


@pytest.mark.parametrize("name", POSETS)
@settings(derandomize=True, database=None, deadline=None, max_examples=10)
@given(data=st.data())
def test_equality_is_equality_of_the_mappings(request, twins, name, data):
    poset, twin = request.getfixturevalue(name), twins[name]
    U1, U2 = _down_set(data, poset), _down_set(data, poset)
    # Each pair is made afresh, so that no comparison reads an operand of the
    # next, of one down-set and of two.
    for make in (_elements, _subobjects):
        for second in (U1, U2):
            for i in range(6):
                for j in range(6):
                    g1, g2 = make(poset, twin, U1)[i], make(poset, twin, second)[j]
                    equal = g1 == g2
                    assert equal == (_mapping(g1) == _mapping(g2))


@pytest.mark.parametrize("name", POSETS)
def test_the_extreme_global_elements_hold_the_extreme_ints(request, name):
    poset = request.getfixturevalue(name)
    assert totally_true(poset)._down == _element(poset, 0)._down == (1 << len(poset)) - 1
    assert totally_false(poset)._down == _element(poset, -1)._down == 0


def test_and_or_and_inclusion_build_no_character_order(maximal_context):
    # The character order (every character's down-set int) is built on the
    # first implication, not by the int operations that do not need it.
    poset = build_poset([maximal_context])
    P = poset.get(poset.ids[0]).atoms[0]
    operands = [full_subobject(poset), empty_subobject(poset), daseinise_proposition(poset, P).subobject]
    for s1 in operands:
        for s2 in operands:
            subobject_connective(poset, "and", s1, s2)
            subobject_connective(poset, "or", s1, s2)
            subobject_leq(poset, s1, s2)
    assert "_characters" not in vars(poset)
    subobject_connective(poset, "implies", *operands[:2])
    assert "_characters" in vars(poset)
