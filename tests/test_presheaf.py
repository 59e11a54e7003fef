"""Gelfand spectra, character evaluation and restriction, clopen subobjects."""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from conftest import haar_basis, locate
from toposqt.contexts import Context, build_poset, context_from_basis
from toposqt.daseinisation import daseinise_proposition
from toposqt.errors import DimensionMismatch, NotASubcontext, NotInAlgebra, UnknownCharacter, ValidationError
from toposqt.presheaf import (
    Character,
    ClopenSubobject,
    coefficients_in,
    empty_subobject,
    evaluate_character,
    full_subobject,
    gelfand_spectrum,
    is_clopen_subobject,
    restrict_character,
    subobject_leq,
)
from toposqt.operators import close
from toposqt.valuation import quantity_value_arrow


def test_spectrum_sizes(poset11, std_projectors, maximal_context):
    p1, p2, p3, p4 = std_projectors
    assert len(gelfand_spectrum(maximal_context)) == 4
    v12 = locate(poset11, [p1, p2, p3 + p4])
    assert len(gelfand_spectrum(v12)) == 3
    v1 = locate(poset11, [p1, p2 + p3 + p4])
    assert len(gelfand_spectrum(v1)) == 2
    for context in poset11:
        assert len(gelfand_spectrum(context)) == context.n_atoms >= 2


def test_characters_are_kronecker_deltas_on_atoms(maximal_context, std_projectors):
    for i, ch in enumerate(gelfand_spectrum(maximal_context)):
        for j, p in enumerate(std_projectors):
            expected = 1.0 if i == j else 0.0
            assert evaluate_character(maximal_context, ch, p) == pytest.approx(expected)


def test_characters_are_unital(poset11):
    for context in poset11:
        for ch in gelfand_spectrum(context):
            assert evaluate_character(context, ch, np.eye(4)) == pytest.approx(1.0)


def test_character_reads_observable_coefficient(maximal_context, sz, std_projectors):
    lam1 = gelfand_spectrum(maximal_context)[0]
    value = evaluate_character(maximal_context, lam1, sz)
    assert value == pytest.approx(2.0)
    # oracle: the coefficient is tr(Sz P1) / tr(P1)
    p1 = std_projectors[0]
    assert value == pytest.approx(float(np.trace(sz @ p1).real / np.trace(p1).real))


def test_spectrum_image_is_coefficient_spectrum(maximal_context, sz):
    values = sorted(
        evaluate_character(maximal_context, ch, sz)
        for ch in gelfand_spectrum(maximal_context)
    )
    assert np.allclose(values, [-2.0, 0.0, 0.0, 2.0])


def test_evaluation_rejects_non_members(poset11, std_projectors):
    p1, p2, p3, p4 = std_projectors
    v2 = locate(poset11, [p2, p1 + p3 + p4])
    ch = gelfand_spectrum(v2)[0]
    with pytest.raises(NotInAlgebra):
        evaluate_character(v2, ch, p1)


def test_membership_is_closeness_to_the_atom_expansion(poset11, std_projectors, sz):
    # coefficients_in accepts A iff close(A, its atom expansion, tau); NaN
    # entries are refused as array data, where they once evaluated to nan.
    p1, p2, p3, p4 = std_projectors
    v2 = locate(poset11, [p2, p1 + p3 + p4])
    ch = gelfand_spectrum(v2)[0]
    member = 3.0 * p2 - (p1 + p3 + p4)
    for offset, accepted in ((0.4e-9, True), (2e-9, False)):
        A = member + offset * (p1 - p3)  # distance offset * sqrt(2) from the algebra
        assert close(A, 3.0 * p2 - (p1 + p3 + p4), 1e-9) == accepted
        if accepted:
            assert evaluate_character(v2, ch, A) == pytest.approx(3.0)
        else:
            with pytest.raises(NotInAlgebra):
                evaluate_character(v2, ch, A)
    broken = member.copy()
    broken[0, 0] = np.nan
    with pytest.raises(ValidationError, match="expected numeric array data"):
        evaluate_character(v2, ch, broken)


@pytest.mark.parametrize("dim", [3, 5])
def test_evaluation_checks_the_dimension(maximal_context, dim):
    ch = gelfand_spectrum(maximal_context)[0]
    with pytest.raises(DimensionMismatch):
        coefficients_in(maximal_context, np.eye(dim))
    with pytest.raises(DimensionMismatch):
        evaluate_character(maximal_context, ch, np.eye(dim))


def test_restriction_table_of_the_worked_example(poset11, maximal_context, std_projectors):
    p1, p2, p3, p4 = std_projectors
    v12 = locate(poset11, [p1, p2, p3 + p4])
    lam = gelfand_spectrum(maximal_context)
    restricted = [restrict_character(maximal_context, ch, v12) for ch in lam]
    assert [r.atom_index for r in restricted] == [0, 1, 2, 2]


def test_restriction_to_own_context_is_identity(maximal_context):
    for ch in gelfand_spectrum(maximal_context):
        assert restrict_character(maximal_context, ch, maximal_context) == ch


def test_restriction_follows_projector_domination(poset11, maximal_context, std_projectors):
    p1, p2, p3, p4 = std_projectors
    v1 = locate(poset11, [p1, p2 + p3 + p4])
    lam2 = gelfand_spectrum(maximal_context)[1]
    restricted = restrict_character(maximal_context, lam2, v1)
    assert np.allclose(v1.atoms[restricted.atom_index], p2 + p3 + p4)


def test_restriction_rejects_non_inclusions(poset11, std_projectors):
    p1, p2, p3, p4 = std_projectors
    v1 = locate(poset11, [p1, p2 + p3 + p4])
    v2 = locate(poset11, [p2, p1 + p3 + p4])
    with pytest.raises(NotASubcontext):
        restrict_character(v1, gelfand_spectrum(v1)[0], v2)


def test_character_context_mismatch(maximal_context, poset11, std_projectors):
    p1, p2, p3, p4 = std_projectors
    v1 = locate(poset11, [p1, p2 + p3 + p4])
    stray = Character(v1.id, 0)
    with pytest.raises(UnknownCharacter):
        evaluate_character(maximal_context, stray, p1)


@pytest.mark.parametrize("index", ["0", 1.0, True, 4, -1], ids=repr)
def test_an_atom_index_that_is_no_atom_is_an_unknown_character(poset11, maximal_context, std_projectors, sz, index):
    # A str, a float or a bool is no atom index, and neither is an int
    # outside the context's four atoms: -1 would read as the last atom.
    v12 = locate(poset11, [std_projectors[0], std_projectors[1], std_projectors[2] + std_projectors[3]])
    character = Character(maximal_context.id, index)
    for call in (
        lambda: evaluate_character(maximal_context, character, sz),
        lambda: restrict_character(maximal_context, character, v12),
        lambda: quantity_value_arrow(poset11, sz, maximal_context, character),
    ):
        with pytest.raises(UnknownCharacter):
            call()


def test_a_numpy_integer_atom_index_reads_as_an_int(poset11, maximal_context, std_projectors, sz):
    v12 = locate(poset11, [std_projectors[0], std_projectors[1], std_projectors[2] + std_projectors[3]])
    as_numpy, as_int = Character(maximal_context.id, np.int64(1)), Character(maximal_context.id, 1)
    assert evaluate_character(maximal_context, as_numpy, sz) == evaluate_character(maximal_context, as_int, sz)
    assert restrict_character(maximal_context, as_numpy, v12) == restrict_character(maximal_context, as_int, v12)
    assert quantity_value_arrow(poset11, sz, maximal_context, as_numpy) == quantity_value_arrow(
        poset11, sz, maximal_context, as_int
    )


def test_restriction_composition_law(poset_two_bases):
    for sup in poset_two_bases:
        for mid_id in poset_two_bases.down_ids(sup.id):
            mid = poset_two_bases.get(mid_id)
            for sub_id in poset_two_bases.down_ids(mid_id):
                sub = poset_two_bases.get(sub_id)
                for ch in gelfand_spectrum(sup):
                    two_steps = restrict_character(
                        mid, restrict_character(sup, ch, mid), sub
                    )
                    one_step = restrict_character(sup, ch, sub)
                    assert two_steps == one_step


def test_restrictions_are_surjective(poset_two_bases):
    for sup in poset_two_bases:
        for sub_id in poset_two_bases.down_ids(sup.id):
            sub = poset_two_bases.get(sub_id)
            images = {
                restrict_character(sup, ch, sub).atom_index
                for ch in gelfand_spectrum(sup)
            }
            assert images == set(range(sub.n_atoms))


def test_full_subobject_is_clopen(poset11):
    assert is_clopen_subobject(poset11, full_subobject(poset11))
    assert is_clopen_subobject(poset11, empty_subobject(poset11))


def test_daseinised_proposition_is_clopen(poset11, std_projectors):
    result = daseinise_proposition(poset11, std_projectors[0])
    assert is_clopen_subobject(poset11, result.subobject)


def test_incompatible_selection_is_not_clopen(poset11, maximal_context, std_projectors):
    p1, p2, p3, p4 = std_projectors
    v1 = locate(poset11, [p1, p2 + p3 + p4])
    selection = {c.id: frozenset(range(c.n_atoms)) for c in poset11}
    selection[maximal_context.id] = frozenset({0})  # the ray of p1
    selection[v1.id] = frozenset({1})  # only the complement atom
    assert not is_clopen_subobject(poset11, ClopenSubobject(selection))
    # An index outside a context's atoms is no character, below or above.
    for context in (v1, maximal_context):
        selection = {c.id: frozenset(range(c.n_atoms)) for c in poset11}
        selection[context.id] |= {99}
        assert not is_clopen_subobject(poset11, ClopenSubobject(selection))


@pytest.mark.parametrize("value", [5, None, 1.5, [[0]], [{0}]], ids=["int", "none", "float", "list-of-lists", "list-of-sets"])
def test_a_selection_value_that_is_no_set_of_indices_is_a_validation_error(poset11, value):
    # The error names the first context whose value cannot be a set.
    first, *rest = poset11.ids
    selection = {first: frozenset({0}), **{cid: value for cid in rest}}
    with pytest.raises(ValidationError, match=f"selection at {rest[0]!r}"):
        ClopenSubobject(selection)


def test_a_selection_holds_frozensets_in_a_dict_of_its_own(poset11):
    # Frozensets are kept as they are; any other set of indices, a frozenset
    # subclass included, becomes a frozenset; the caller's mapping is copied.
    class Indices(frozenset):
        pass

    ids = poset11.ids
    values = [frozenset({0}), {1}, [0, 1], iter([2]), Indices({0}), range(2)]
    selection = {cid: values[i % len(values)] for i, cid in enumerate(ids)}
    subobject = ClopenSubobject(selection)
    assert subobject.selection is not selection
    assert all(type(v) is frozenset for v in subobject.selection.values())
    assert [subobject.at(cid) for cid in ids[:6]] == [{0}, {1}, {0, 1}, {2}, {0}, {0, 1}]
    frozen = {cid: frozenset({i % 3}) for i, cid in enumerate(ids)}
    kept = ClopenSubobject(frozen)
    assert kept.selection == frozen and kept.selection is not frozen
    assert all(kept.at(cid) is frozen[cid] for cid in ids)


@pytest.mark.parametrize("value", [None, 5, "abc", [("ctx", {0})]], ids=repr)
def test_a_per_context_value_that_is_no_mapping_is_a_validation_error(poset11, value):
    # It escaped as AttributeError or TypeError from the constructors, and
    # from is_global_section for a section's assignment.
    from toposqt.logic import GlobalElementOfOmega
    from toposqt.valuation import GlobalSection, is_global_section

    for call in (lambda: ClopenSubobject(value), lambda: GlobalElementOfOmega(value),
                 lambda: is_global_section(poset11, GlobalSection(value))):
        with pytest.raises(ValidationError, match="is not a mapping of context ids"):
            call()


def test_clopen_check_requires_full_assignment(poset11, maximal_context):
    from toposqt.errors import IncompleteAssignment

    partial = ClopenSubobject({maximal_context.id: frozenset({0})})
    with pytest.raises(IncompleteAssignment):
        is_clopen_subobject(poset11, partial)


def test_subobject_leq_requires_exactly_the_posets_contexts(poset11, second_basis):
    from toposqt.errors import IncompleteAssignment

    full = full_subobject(poset11)
    top = poset11.ids[0]
    missing = ClopenSubobject({cid: s for cid, s in full.selection.items() if cid != top})
    extra = ClopenSubobject({**full.selection, second_basis.id: frozenset({0})})
    for odd in (missing, extra):
        for operands in ((odd, full), (full, odd)):
            with pytest.raises(IncompleteAssignment):
                subobject_leq(poset11, *operands)
    assert subobject_leq(poset11, empty_subobject(poset11), full)


@pytest.mark.parametrize("index", [99, 0.0], ids=repr)
def test_subobject_leq_refuses_a_selection_that_is_no_character(poset11, index):
    # Index 99 is outside every context's atoms and 0.0 is no integer; either
    # operand holding one is refused, as in subobject_connective.
    from toposqt.errors import UnknownCharacter

    full = full_subobject(poset11)
    top = poset11.ids[0]
    stray = ClopenSubobject({**full.selection, top: frozenset({index})})
    for operands in ((stray, stray), (stray, full), (full, stray)):
        with pytest.raises(UnknownCharacter, match="outside its context's atoms"):
            subobject_leq(poset11, *operands)


@pytest.mark.parametrize(
    "indices, selects",
    [(frozenset(), True), ({0, 3}, True), ({np.int64(1)}, True), ({np.int64(0), 2}, True),
     ({True}, False), ({False, 2}, False), ({1.0}, False), ({np.float64(2.0)}, False), ({-1}, False),
     ({4}, False), ({0, 4}, False), ({np.int64(4)}, False), ({np.int64(-1)}, False)],
    ids=repr,
)
def test_the_coverage_rule_takes_integers_in_range_only(poset11, indices, selects):
    # A subset of the top context's atoms, with every other context full, is
    # clopen; a bool, a float equal to an index, or an integer outside 0..3
    # is no character, even where it equals one under ==.
    full = full_subobject(poset11)
    top = poset11.ids[0]
    odd = ClopenSubobject({**full.selection, top: frozenset(indices)})
    assert is_clopen_subobject(poset11, odd) == selects
    if selects:
        assert subobject_leq(poset11, odd, full) and not subobject_leq(poset11, full, odd)
    else:
        with pytest.raises(UnknownCharacter, match="outside its context's atoms"):
            subobject_leq(poset11, odd, full)


def test_every_per_context_mapping_needs_exactly_the_posets_contexts(poset11, second_basis):
    # One check of the keys, shared by subobjects, global elements and sections.
    from toposqt.errors import IncompleteAssignment
    from toposqt.logic import GlobalElementOfOmega, check_global_element, totally_true
    from toposqt.valuation import GlobalSection, is_global_section

    top = poset11.ids[0]
    checks = ((full_subobject(poset11).selection, lambda odd: is_clopen_subobject(poset11, ClopenSubobject(odd))),
              (totally_true(poset11).sieves, lambda odd: check_global_element(poset11, GlobalElementOfOmega(odd))),
              (dict.fromkeys(poset11.ids, 0), lambda odd: is_global_section(poset11, GlobalSection(odd))))
    for values, check in checks:
        for odd in ({cid: v for cid, v in values.items() if cid != top}, {**values, second_basis.id: values[top]}):
            with pytest.raises(IncompleteAssignment):
                check(odd)


def _fresh_spectrum(context) -> tuple:
    return tuple(Character(context.id, i) for i in range(context.n_atoms))


def test_a_context_keeps_the_spectrum_of_its_own_atoms(spin2_poset, ks18_poset):
    # Every context of both shipped posets, a context made from a basis, and
    # the contract's forged contexts: a poset id with another context's
    # atoms has the characters of its own atoms, whichever was read first.
    poset = build_poset([context_from_basis(np.eye(3))])
    top = poset.get(poset.ids[0])
    sub = next(c for c in poset if c.n_atoms == 2)
    forged = (Context(sub.id, top.atoms, top.ranks), Context(top.id, sub.atoms, sub.ranks))
    contexts = [*spin2_poset, *ks18_poset, context_from_basis(haar_basis(5)), sub, top, *forged]
    for context in contexts:
        spectrum = gelfand_spectrum(context)
        assert spectrum == _fresh_spectrum(context) and gelfand_spectrum(context) is spectrum
    assert [len(gelfand_spectrum(c)) for c in (sub, top, *forged)] == [2, 3, 3, 2]


@pytest.mark.parametrize("clone", [copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))], ids=["deepcopy", "pickle"])
def test_a_copied_poset_whose_spectra_were_read_gives_equal_spectra(clone):
    poset = build_poset([context_from_basis(np.eye(4)), context_from_basis(haar_basis(4))])
    read = {c.id: gelfand_spectrum(c) for c in poset}
    copied = clone(poset)
    assert [c.id for c in copied] == list(read)
    for context in copied:
        assert gelfand_spectrum(context) == read[context.id] == _fresh_spectrum(context)


def test_reading_a_spectrum_leaves_context_equality_and_hash_unchanged():
    context, twin = context_from_basis(haar_basis(4, 2)), context_from_basis(haar_basis(4, 2))
    before = hash(context)
    gelfand_spectrum(context)
    assert context == twin and twin == context and hash(context) == before == hash(twin)
    assert context != context_from_basis(np.eye(4))
