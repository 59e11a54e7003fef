"""Inner/outer approximation of projections and self-adjoint operators."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import locate
from oracles import (
    brute_inner_projection,
    brute_inner_selfadjoint,
    brute_outer_projection,
    brute_outer_selfadjoint,
    random_projector,
)
from toposqt.contexts import context_from_basis
from toposqt.daseinisation import (
    daseinise_proposition,
    inner_daseinise_projection,
    inner_daseinise_selfadjoint,
    outer_daseinise_projection,
    outer_daseinise_selfadjoint,
)
from toposqt.errors import NotProjector
from toposqt.operators import projector_leq, spectral_decomposition, spectral_order_leq
from toposqt.presheaf import is_clopen_subobject


@pytest.fixture(scope="module")
def slanted_pair_context():
    """Maximal context containing p1+p2 but neither standard ray of it."""
    e = np.eye(4, dtype=complex)
    up = (e[0] + e[1]) / np.sqrt(2)
    um = (e[0] - e[1]) / np.sqrt(2)
    return context_from_basis([up, um, e[2], e[3]])


@pytest.fixture(scope="module")
def unrelated_context():
    """Maximal context every atom of which overlaps the first standard ray."""
    h = np.array(
        [[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]], dtype=complex
    ).T / 2.0
    return context_from_basis([h[:, i] for i in range(4)])


def test_outer_projection_table(poset11, maximal_context, std_projectors):
    p = std_projectors
    # contexts containing the projection leave it untouched
    for atoms in ([p[0], p[1], p[2] + p[3]], [p[0], p[3], p[1] + p[2]], [p[0], p[1] + p[2] + p[3]]):
        context = locate(poset11, atoms)
        assert np.allclose(outer_daseinise_projection(p[0], context), p[0])
    assert np.allclose(outer_daseinise_projection(p[0], maximal_context), p[0])
    # contexts separating the other rays force the smallest cover p1 + pk
    for i, j, k in ((1, 2, 3), (1, 3, 2), (2, 3, 1)):
        context = locate(poset11, [p[i], p[j], p[0] + p[k]])
        assert np.allclose(outer_daseinise_projection(p[0], context), p[0] + p[k])
    # two-atom contexts only offer the complement of their ray
    for i in (1, 2, 3):
        context = locate(poset11, [p[i], np.eye(4) - p[i]])
        assert np.allclose(outer_daseinise_projection(p[0], context), np.eye(4) - p[i])


def test_outer_projection_dominating_member(slanted_pair_context, std_projectors):
    p1, p2 = std_projectors[0], std_projectors[1]
    approx = outer_daseinise_projection(p1, slanted_pair_context)
    assert np.allclose(approx, p1 + p2)


def test_outer_projection_unrelated_context_gives_identity(unrelated_context, std_projectors):
    approx = outer_daseinise_projection(std_projectors[0], unrelated_context)
    assert np.allclose(approx, np.eye(4))


def test_inner_projection_examples(poset11, std_projectors):
    p = std_projectors
    v12 = locate(poset11, [p[0], p[1], p[2] + p[3]])
    assert np.allclose(inner_daseinise_projection(p[0], v12), p[0])
    v2 = locate(poset11, [p[1], p[0] + p[2] + p[3]])
    assert np.allclose(inner_daseinise_projection(p[0], v2), np.zeros((4, 4)))
    assert np.allclose(inner_daseinise_projection(p[0], v2), brute_inner_projection(p[0], v2))
    v1 = locate(poset11, [p[0], p[1] + p[2] + p[3]])
    assert np.allclose(inner_daseinise_projection(p[0] + p[1], v1), p[0])
    assert np.allclose(
        inner_daseinise_projection(p[0] + p[1], v1), brute_inner_projection(p[0] + p[1], v1)
    )


def test_daseinise_rejects_non_projector(maximal_context):
    with pytest.raises(NotProjector):
        outer_daseinise_projection(np.diag([0.5, 0, 0, 0]), maximal_context)
    with pytest.raises(NotProjector):
        inner_daseinise_projection(np.diag([2.0, 0, 0, 0]), maximal_context)


def test_daseinised_proposition_character_sets(poset11, maximal_context, std_projectors):
    p = std_projectors
    result = daseinise_proposition(poset11, p[0])
    assert is_clopen_subobject(poset11, result.subobject)
    # at the maximal context only the first ray's character survives
    assert result.subobject.at(maximal_context.id) == frozenset({0})
    # at a context separating rays 2 and 3 the cover is p1 + p4: one character
    v23 = locate(poset11, [p[1], p[2], p[0] + p[3]])
    assert result.subobject.at(v23.id) == frozenset({2})
    assert np.allclose(result.per_context_projector[v23.id], p[0] + p[3])


def test_daseinise_top_and_bottom(poset11):
    top = daseinise_proposition(poset11, np.eye(4))
    for context in poset11:
        assert top.subobject.at(context.id) == frozenset(range(context.n_atoms))
    bottom = daseinise_proposition(poset11, np.zeros((4, 4)))
    for context in poset11:
        assert bottom.subobject.at(context.id) == frozenset()
        assert np.allclose(bottom.per_context_projector[context.id], np.zeros((4, 4)))


def test_sandwich_and_monotonicity(poset11, std_projectors):
    rng = np.random.default_rng(7)
    for _ in range(10):
        P = random_projector(rng, 4, int(rng.integers(1, 3)))
        for context in poset11:
            inner = inner_daseinise_projection(P, context)
            outer = outer_daseinise_projection(P, context)
            assert projector_leq(inner, P)
            assert projector_leq(P, outer)
        # coarser contexts bound the approximations on both sides
        for sup in poset11:
            for sub_id in poset11.down_ids(sup.id):
                sub = poset11.get(sub_id)
                assert projector_leq(
                    outer_daseinise_projection(P, sup), outer_daseinise_projection(P, sub)
                )
                assert projector_leq(
                    inner_daseinise_projection(P, sub), inner_daseinise_projection(P, sup)
                )


def test_operator_monotonicity(poset11, std_projectors):
    p = std_projectors
    smaller, bigger = p[0], p[0] + p[2]
    for context in poset11:
        assert projector_leq(
            outer_daseinise_projection(smaller, context),
            outer_daseinise_projection(bigger, context),
        )


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_projection_daseinisation_matches_brute_force(poset11, seed):
    rng = np.random.default_rng(seed)
    P = random_projector(rng, 4, int(rng.integers(1, 3)))
    context = list(poset11)[int(rng.integers(0, len(poset11)))]
    assert np.allclose(
        outer_daseinise_projection(P, context), brute_outer_projection(P, context), atol=1e-9
    )
    assert np.allclose(
        inner_daseinise_projection(P, context), brute_inner_projection(P, context), atol=1e-9
    )


def test_inner_projection_is_complement_of_outer_complement(poset11):
    rng = np.random.default_rng(11)
    eye = np.eye(4, dtype=complex)
    for _ in range(10):
        P = random_projector(rng, 4, int(rng.integers(1, 4)))
        for context in poset11:
            via_complement = eye - outer_daseinise_projection(eye - P, context)
            assert np.allclose(inner_daseinise_projection(P, context), via_complement)


def test_selfadjoint_daseinisation_fixes_members(poset11, maximal_context, sz):
    assert np.allclose(outer_daseinise_selfadjoint(sz, maximal_context), sz)
    assert np.allclose(inner_daseinise_selfadjoint(sz, maximal_context), sz)
    member = 3.0 * np.eye(4, dtype=complex)
    for context in poset11:
        assert np.allclose(outer_daseinise_selfadjoint(member, context), member)
        assert np.allclose(inner_daseinise_selfadjoint(member, context), member)


def test_selfadjoint_outer_worked_values(poset11, sz, std_projectors):
    p = std_projectors
    eye = np.eye(4)
    v1 = locate(poset11, [p[0], p[1] + p[2] + p[3]])
    outer = outer_daseinise_selfadjoint(sz, v1)
    assert np.allclose(outer, 2.0 * p[0])
    assert np.allclose(outer, brute_outer_selfadjoint(sz, v1, (-2.0, 0.0, 2.0)), atol=1e-9)
    v4 = locate(poset11, [p[3], p[0] + p[1] + p[2]])
    assert np.allclose(
        outer_daseinise_selfadjoint(sz, v4), 2.0 * (eye - p[3]) - 2.0 * p[3]
    )


def test_selfadjoint_inner_worked_values(poset11, sz, std_projectors):
    p = std_projectors
    eye = np.eye(4)
    v1 = locate(poset11, [p[0], p[1] + p[2] + p[3]])
    inner = inner_daseinise_selfadjoint(sz, v1)
    assert np.allclose(inner, 2.0 * p[0] - 2.0 * (eye - p[0]))
    assert np.allclose(inner, brute_inner_selfadjoint(sz, v1, (-2.0, 0.0, 2.0)), atol=1e-9)


def test_selfadjoint_daseinisation_order_and_spectrum(poset11, sz):
    rng = np.random.default_rng(23)
    candidates = [sz]
    for _ in range(5):
        vals = rng.integers(-3, 4, size=4).astype(float)
        gauss = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        q, _ = np.linalg.qr(gauss)
        candidates.append(q @ np.diag(vals).astype(complex) @ q.conj().T)
    for A in candidates:
        spectrum = spectral_decomposition(A).eigenvalues
        for context in poset11:
            outer = outer_daseinise_selfadjoint(A, context)
            inner = inner_daseinise_selfadjoint(A, context)
            assert spectral_order_leq(A, outer)
            assert spectral_order_leq(inner, A)
            for approx in (outer, inner):
                for lam in spectral_decomposition(approx).eigenvalues:
                    assert min(abs(lam - mu) for mu in spectrum) <= 1e-8


def test_character_map_preserves_projection_order(poset11):
    from itertools import combinations

    from toposqt.presheaf import subobject_of_projector

    for context in poset11:
        sums = []
        for r in range(len(context.atoms) + 1):
            for subset in combinations(range(len(context.atoms)), r):
                total = np.zeros((4, 4), dtype=complex)
                for i in subset:
                    total += context.atoms[i]
                sums.append(total)
        for P in sums:
            for Q in sums:
                sp = subobject_of_projector(context, P)
                sq = subobject_of_projector(context, Q)
                assert projector_leq(P, Q) == (sp <= sq)


def test_selfadjoint_route_agrees_on_projections(poset11):
    rng = np.random.default_rng(17)
    for _ in range(6):
        P = random_projector(rng, 4, int(rng.integers(1, 4)))
        for context in poset11:
            assert np.allclose(
                outer_daseinise_selfadjoint(P, context),
                outer_daseinise_projection(P, context),
                atol=1e-9,
            )
            assert np.allclose(
                inner_daseinise_selfadjoint(P, context),
                inner_daseinise_projection(P, context),
                atol=1e-9,
            )


@settings(max_examples=10, deadline=None)
@given(
    values=st.lists(st.integers(-2, 2), min_size=4, max_size=4).filter(lambda v: len(set(v)) < 4),
    frame=st.sampled_from(["first", "second", "random"]),
    seed=st.integers(0, 10**9),
)
def test_selfadjoint_daseinisation_matches_brute_force(poset_two_bases, values, frame, seed):
    from toposqt.presheaf import gelfand_spectrum
    from toposqt.valuation import quantity_value_arrow

    first, second = (poset_two_bases.get(cid) for cid in poset_two_bases.ids[:2])
    if frame == "random":
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        rays = [q[:, i] for i in range(4)]
    else:
        # eigenvectors: the rays of one maximal context of the poset
        atoms = (first if frame == "first" else second).atoms
        rays = [np.linalg.eigh(a)[1][:, -1] for a in atoms]
    A = sum(v * np.outer(r, r.conj()) for v, r in zip(values, rays))
    grid = tuple(float(v) for v in sorted(set(values)))
    brute = {}
    for context in poset_two_bases:
        outer = brute_outer_selfadjoint(A, context, grid)
        inner = brute_inner_selfadjoint(A, context, grid)
        assert np.allclose(outer_daseinise_selfadjoint(A, context), outer, atol=1e-9)
        assert np.allclose(inner_daseinise_selfadjoint(A, context), inner, atol=1e-9)
        brute[context.id] = (inner, outer)
    for context in poset_two_bases:
        for ch in gelfand_spectrum(context):
            pair = quantity_value_arrow(poset_two_bases, A, context, ch)
            for sub_id in poset_two_bases.down_ids(context.id):
                sub = poset_two_bases.get(sub_id)
                atom = sub.atoms[poset_two_bases.restriction_indices(context.id, sub_id)[ch.atom_index]]
                inner, outer = brute[sub_id]
                weight = np.trace(atom).real
                assert pair.mu[sub_id] == pytest.approx(np.trace(inner @ atom).real / weight, abs=1e-9)
                assert pair.nu[sub_id] == pytest.approx(np.trace(outer @ atom).real / weight, abs=1e-9)
