"""The character order against brute-force oracles that read only
``restriction_indices``: the clopen test, the implication of clopen
subobjects and the section search, on the single basis of C^4, spin2 and
two bases of C^4 that share two rays, with Hypothesis-drawn selections that
need not be clopen."""

from __future__ import annotations

from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_implies, brute_is_clopen, brute_sections
from toposqt.errors import SearchBudgetExceeded
from toposqt.logic import subobject_connective
from toposqt.presheaf import ClopenSubobject, empty_subobject, full_subobject, is_clopen_subobject
from toposqt.problems import load_problem, problem_poset
from toposqt.valuation import global_sections

POSETS = ("poset11", "spin2", "poset_two_bases")


def _shipped(name: str):
    with resources.as_file(resources.files("toposqt.data") / f"{name}.json") as path:
        return problem_poset(load_problem(path))


@pytest.fixture(scope="module")
def spin2():
    return _shipped("spin2")


@pytest.fixture(scope="module")
def ks18():
    return _shipped("ks18")


def _selection(data, poset) -> dict[str, frozenset[int]]:
    # Any subset of each context's atoms.
    return {c.id: data.draw(st.frozensets(st.integers(0, c.n_atoms - 1)), label=c.id) for c in poset}


@pytest.mark.parametrize("name", POSETS)
@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(data=st.data())
def test_clopen_test_matches_the_oracle(request, name, data):
    poset = request.getfixturevalue(name)
    drawn = _selection(data, poset)
    # The largest down-set inside the drawn selection is clopen, so both answers occur.
    kept = brute_implies(poset, full_subobject(poset).selection, drawn)
    for selection in (drawn, kept):
        assert is_clopen_subobject(poset, ClopenSubobject(selection)) == brute_is_clopen(poset, selection)
    assert brute_is_clopen(poset, kept)


@pytest.mark.parametrize("name", POSETS)
@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(data=st.data())
def test_implication_and_negation_match_the_oracle(request, name, data):
    poset = request.getfixturevalue(name)
    s1, s2 = _selection(data, poset), _selection(data, poset)
    implied = subobject_connective(poset, "implies", ClopenSubobject(s1), ClopenSubobject(s2))
    assert implied.selection == brute_implies(poset, s1, s2)
    negated = subobject_connective(poset, "not", ClopenSubobject(s1))
    assert negated.selection == brute_implies(poset, s1, empty_subobject(poset).selection)


@pytest.mark.parametrize("name", POSETS)
def test_sections_match_the_oracle_in_search_order(request, name):
    # The search decides the contexts in poset order and tries each one's
    # atoms in turn, so its sections run in the order of their values
    # listed in poset order.
    poset = request.getfixturevalue(name)
    found = [s.assignment for s in global_sections(poset)]
    assert found == sorted(brute_sections(poset), key=lambda a: [a[cid] for cid in poset.ids])
    assert all(list(a) == sorted(a) for a in found)


@pytest.mark.parametrize("name, nodes, count", [("spin2", 4, 4), ("ks18", 1148, 0)])
def test_the_section_search_expands_a_pinned_number_of_nodes(request, name, nodes, count):
    poset = request.getfixturevalue(name)
    assert len(global_sections(poset, nodes)) == count
    with pytest.raises(SearchBudgetExceeded):
        global_sections(poset, nodes - 1)


def test_numpy_integer_indices_read_as_ints(ks18):
    # ks18 has hundreds of characters, so a bit shifted as a numpy int64 would overflow.
    full = full_subobject(ks18).selection
    as_numpy = {cid: frozenset(map(np.int64, indices)) for cid, indices in full.items()}
    assert is_clopen_subobject(ks18, ClopenSubobject(as_numpy))
    half = {cid: frozenset(i for i in indices if i % 2) for cid, indices in full.items()}
    implied = subobject_connective(ks18, "implies", ClopenSubobject(as_numpy), ClopenSubobject(half))
    assert implied == subobject_connective(ks18, "implies", full_subobject(ks18), ClopenSubobject(half))
    assert implied.selection == brute_implies(ks18, full, half)
