"""Gelfand spectra, character evaluation and restriction, clopen subobjects."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import locate
from toposqt.daseinisation import daseinise_proposition
from toposqt.errors import DimensionMismatch, NotASubcontext, NotInAlgebra, UnknownCharacter
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
)


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


def test_clopen_check_requires_full_assignment(poset11, maximal_context):
    from toposqt.errors import IncompleteAssignment

    partial = ClopenSubobject({maximal_context.id: frozenset({0})})
    with pytest.raises(IncompleteAssignment):
        is_clopen_subobject(poset11, partial)
