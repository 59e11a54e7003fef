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
    loop_daseinise,
    random_projector,
    random_unit_vector,
    random_unitary,
    spectral_bounds,
    subobject_of_projector,
    table_projection,
)
from toposqt.contexts import build_poset, context_from_basis
from toposqt.daseinisation import (
    daseinise_proposition,
    inner_daseinise_projection,
    inner_daseinise_proposition,
    inner_daseinise_selfadjoint,
    outer_daseinise_projection,
    outer_daseinise_selfadjoint,
)
from toposqt.errors import DimensionMismatch, NotProjector, ValidationError
from toposqt.operators import projector_leq, spectral_decomposition, spectral_order_leq
from toposqt.presheaf import is_clopen_subobject
from toposqt.valuation import pseudo_state, truth_value


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


_APPROXIMATIONS = (inner_daseinise_projection, outer_daseinise_projection)  # end 0, end 1


def _assert_is_the_table_path(P, context, tau=1e-9):
    # Both per-context approximations, byte for byte those of touch_table
    # against (1 - P, P) built anew.
    for end, approximate in enumerate(_APPROXIMATIONS):
        assert approximate(P, context, tau).tobytes() == table_projection(P, context, end, tau).tobytes()


def test_a_projector_changed_in_place_after_a_per_context_call_is_a_new_operand(maximal_context):
    P = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
    _assert_is_the_table_path(P, maximal_context)
    P[2, 2] = 0.5
    for approximate in _APPROXIMATIONS:
        with pytest.raises(NotProjector):
            approximate(P, maximal_context)
    # A projection again, of rank 3: read off its own columns, not the old ones.
    P[2, 2] = 1.0
    _assert_is_the_table_path(P, maximal_context)
    assert np.array_equal(inner_daseinise_projection(P, maximal_context), np.diag([1, 1, 1, 0]))


def test_a_failing_matrix_fails_on_every_per_context_call(maximal_context):
    A = np.diag([0.5, 0.0, 0.0, 0.0])
    for _ in range(2):
        for approximate in _APPROXIMATIONS:
            with pytest.raises(NotProjector):
                approximate(A, maximal_context)


def test_the_same_bytes_pass_at_a_loose_tau_and_fail_at_a_strict_one(maximal_context):
    # ||P^2 - P||_F is about 2e-6: a projection at tau 1e-3, none at 1e-9.
    P = np.diag([1.0 + 1e-6, 0.0, 0.0, 0.0]).astype(complex)
    for tau, passes in ((1e-3, True), (1e-9, False), (1e-3, True), (1e-9, False)):
        for approximate in _APPROXIMATIONS:
            if passes:
                approximate(P, maximal_context, tau)
            else:
                with pytest.raises(NotProjector):
                    approximate(P, maximal_context, tau)


def test_alternating_two_projections_gives_the_table_path_bits_on_every_call(ks18_poset):
    top = ks18_poset.get(ks18_poset.ids[0])
    P, Q = top.atoms[0] + top.atoms[1], random_projector(np.random.default_rng(7), ks18_poset.dim, 2)
    for context in ks18_poset:
        for R in (P, Q, P, Q):
            _assert_is_the_table_path(R, context)


def test_a_projection_of_another_dimension_fails_on_every_per_context_call(maximal_context):
    big = np.zeros((5, 5), dtype=complex)
    big[0, 0] = 1.0
    for _ in range(2):
        for approximate in _APPROXIMATIONS:
            with pytest.raises(DimensionMismatch):
                approximate(big, maximal_context)


def test_per_context_calls_from_more_threads_than_cores_keep_each_projection_its_own(ks18_poset):
    # Each thread sweeps the poset with its own projection, at a short switch
    # interval; every approximation is its own P's, so no thread read another
    # P's columns under its key.
    import os
    import sys
    from concurrent.futures import ThreadPoolExecutor

    top = ks18_poset.get(ks18_poset.ids[0])
    workers = (os.cpu_count() or 1) + 1
    projections = [top.atoms[i % top.n_atoms] + top.atoms[(i + 1) % top.n_atoms] * (i // top.n_atoms % 2)
                   for i in range(workers)]
    contexts = list(ks18_poset) * 3
    expected = [[table_projection(R, c, 0).tobytes() for c in contexts] for R in projections]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(workers) as pool:
            futures = [pool.submit(lambda R: [inner_daseinise_projection(R, c).tobytes() for c in contexts], R)
                       for R in projections]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert results == expected


def test_every_ks18_context_approximates_as_the_table_path(ks18_poset):
    top = ks18_poset.get(ks18_poset.ids[0])
    rng = np.random.default_rng(5)
    dim = ks18_poset.dim
    for P in (np.zeros((dim, dim)), np.eye(dim), top.atoms[0], top.atoms[0] + top.atoms[2],
              *(random_projector(rng, dim, k) for k in range(1, dim))):
        for context in ks18_poset:
            _assert_is_the_table_path(P, context)


def test_approximations_reject_an_atom_touching_neither_p_nor_its_complement():
    # At tau = 0.75, |a P|_F = |a (1 - P)|_F = 1/sqrt(2) for a = e0, e1 and
    # P = |+><+|: the atom has no bound in the two-valued quantity P, so
    # neither approximation can place it.
    tau = 0.75
    context = context_from_basis(np.eye(4), tau)
    plus = np.zeros((4, 4), dtype=complex)
    plus[:2, :2] = 0.5
    for approximate in (outer_daseinise_projection, inner_daseinise_projection):
        with pytest.raises(ValidationError):
            approximate(plus, context, tau)
    with pytest.raises(ValidationError):
        subobject_of_projector(context, plus, tau)
    # No atom touches the zero member of (1 - P, P) for P = 0 or P = 1.
    zero, one = np.zeros((4, 4), dtype=complex), np.eye(4, dtype=complex)
    for approximate in (outer_daseinise_projection, inner_daseinise_projection):
        assert np.allclose(approximate(zero, context, tau), zero)
        assert np.allclose(approximate(one, context, tau), one)
    assert subobject_of_projector(context, zero, tau) == frozenset()
    assert subobject_of_projector(context, one, tau) == frozenset(range(4))


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


@pytest.mark.parametrize("case", ["spin2_poset", "ks18_poset", "poset_two_bases"])
def test_inner_daseinise_proposition_is_the_inner_projection_at_every_context(case, request):
    # Sums of two atoms of a top context, the complement of one atom, and
    # random projections (inner zero almost everywhere), against
    # inner_daseinise_projection at each context, bit for bit; the
    # characters are where each approximation, a member, is 1.
    poset = request.getfixturevalue(case)
    top = poset.get(poset.ids[0])
    rng = np.random.default_rng(5)
    eye = np.eye(poset.dim, dtype=complex)
    for P in (top.atoms[0] + top.atoms[1], eye - top.atoms[-1], *(random_projector(rng, poset.dim, k) for k in (1, 2))):
        inner = inner_daseinise_proposition(poset, P)
        assert list(inner.per_context_projector) == list(poset.ids)
        for context in poset:
            projector = inner.per_context_projector[context.id]
            assert np.array_equal(projector, inner_daseinise_projection(P, context, poset.tolerances.tau))
            assert inner.subobject.at(context.id) == subobject_of_projector(context, projector)


def _assert_is_the_loop(poset, result, P, end):
    # Every approximation, byte for byte, and every selection of a poset-wide
    # daseinisation equal the per-context loop's.
    projectors, selection = loop_daseinise(poset, P, end)
    assert list(result.per_context_projector) == list(projectors)
    for cid, expected in projectors.items():
        got = result.per_context_projector[cid]
        assert (got.dtype, got.shape) == (expected.dtype, expected.shape)
        assert got.tobytes() == expected.tobytes(), cid
        assert result.subobject.at(cid) == selection[cid]


def _check_against_the_loop(poset, P, psi):
    _assert_is_the_loop(poset, daseinise_proposition(poset, P), P, 1)
    _assert_is_the_loop(poset, inner_daseinise_proposition(poset, P), P, 0)
    _assert_is_the_loop(poset, pseudo_state(poset, psi), np.outer(psi, psi.conj()), 1)


@pytest.mark.parametrize("case", ["poset11", "spin2_poset", "ks18_poset", "poset_two_bases"])
def test_poset_daseinisation_is_the_per_context_loop_bit_for_bit(case, request):
    # P = 0, P = 1, sums of the top context's first k atoms, and random
    # projections of every rank; the states are random and a top atom's ray.
    poset = request.getfixturevalue(case)
    top = poset.get(poset.ids[0])
    rng = np.random.default_rng(3)
    dim = poset.dim
    sums = [sum(top.atoms[:k], np.zeros((dim, dim), dtype=complex)) for k in range(1, top.n_atoms + 1)]
    ray = np.linalg.eigh(top.atoms[0])[1][:, -1]
    for P in (np.zeros((dim, dim)), np.eye(dim), *sums, *(random_projector(rng, dim, k) for k in range(1, dim))):
        for psi in (random_unit_vector(rng, dim), ray):
            _check_against_the_loop(poset, P, psi)


@st.composite
def _haar_bases(draw):
    # A Haar basis of C^5 to C^8 (as columns) and, for a multi-basis poset,
    # a second basis that keeps some of its rays and turns the rest.
    dim = draw(st.integers(5, 8), label="dim")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    first = random_unitary(rng, dim)
    if not draw(st.booleans(), label="two bases"):
        return [first], rng
    kept = draw(st.integers(1, dim - 2), label="shared rays")
    return [first, np.concatenate([first[:, :kept], first[:, kept:] @ random_unitary(rng, dim - kept)], axis=1)], rng


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(drawn=_haar_bases(), data=st.data())
def test_haar_poset_daseinisation_is_the_per_context_loop_bit_for_bit(drawn, data):
    # Entries are inexact here, unlike those of the shipped problems, so a sum
    # in another order than the loop's would show in the low bits.  P is a sum
    # of rays of a basis (so contexts select several atoms on both ends) or a
    # random projection, of any rank from 0 to dim.
    bases, rng = drawn
    poset = build_poset([context_from_basis(list(b.T)) for b in bases])
    dim = poset.dim
    basis = bases[data.draw(st.integers(0, len(bases) - 1), label="basis")]
    rank = data.draw(st.integers(0, dim), label="rank")
    if data.draw(st.booleans(), label="rays"):
        rays = basis[:, data.draw(st.permutations(range(dim)), label="order")[:rank]]
        P = rays @ rays.conj().T
    else:
        P = random_projector(rng, dim, rank)
    _check_against_the_loop(poset, P, random_unit_vector(rng, dim))
    _check_against_the_loop(poset, P, basis[:, 0])


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(drawn=_haar_bases(), data=st.data())
def test_every_haar_context_approximates_as_the_table_path(drawn, data):
    # Inexact entries, so another sum or product order would show in the low bits.
    bases, rng = drawn
    poset = build_poset([context_from_basis(list(b.T)) for b in bases])
    dim = poset.dim
    rank = data.draw(st.integers(0, dim), label="rank")
    if data.draw(st.booleans(), label="rays"):
        rays = bases[0][:, data.draw(st.permutations(range(dim)), label="order")[:rank]]
        P = rays @ rays.conj().T
    else:
        P = random_projector(rng, dim, rank)
    for context in poset:
        _assert_is_the_table_path(P, context)


def test_an_atom_touching_neither_fails_alike_in_one_context_and_over_the_poset():
    # The atom e0 touches neither |+><+| nor its complement at tau = 0.75.
    tau = 0.75
    context = context_from_basis(np.eye(4), tau)
    poset = build_poset([context], tau)
    plus = np.zeros((4, 4), dtype=complex)
    plus[:2, :2] = 0.5
    calls = [lambda: outer_daseinise_projection(plus, context, tau),
             lambda: inner_daseinise_projection(plus, context, tau),
             lambda: daseinise_proposition(poset, plus),
             lambda: inner_daseinise_proposition(poset, plus),
             lambda: pseudo_state(poset, np.array([1, 1, 0, 0]) / np.sqrt(2))]
    errors = []
    for call in calls:
        with pytest.raises(ValidationError) as caught:
            call()
        errors.append((type(caught.value), str(caught.value)))
    assert errors == [(ValidationError, "an atom touches no projection of the family at tau=0.75")] * len(calls)


def test_the_poset_stacks_its_atoms_on_the_first_poset_wide_daseinisation(ks18_poset):
    # build_poset and truth_value stack nothing; the first daseinisation stacks
    # the atoms of the contexts of each atom count once, read-only, and later
    # calls reuse those stacks.
    poset = build_poset([ks18_poset.get(cid) for cid in ks18_poset.ids if ks18_poset.get(cid).n_atoms == 4])
    top = poset.get(poset.ids[0])
    P, psi = top.atoms[0], np.linalg.eigh(top.atoms[1])[1][:, -1]
    truth_value(poset, P, psi)
    assert "_atom_stacks" not in vars(poset)
    daseinise_proposition(poset, P)
    stacks = poset._atom_stacks
    inner_daseinise_proposition(poset, P)
    pseudo_state(poset, psi)
    assert poset._atom_stacks is stacks
    assert [len(s) for s in stacks] == [sum(1 for c in poset if c.n_atoms == s.shape[1]) for s in stacks]
    assert np.array_equal(np.concatenate([s.reshape(-1, *s.shape[2:]) for s in stacks]),
                          np.array([a for c in poset for a in c.atoms]))
    for stack in stacks:
        assert not stack.flags.writeable
        with pytest.raises(ValueError):
            stack[0, 0, 0, 0] = 1.0


def test_inner_selection_is_not_clopen(poset11, std_projectors):
    # P = e0 + e1 holds the atom e0 of the basis but not the atom e0 + e2 it
    # restricts to: the selection is no down-set, though the outer one is.
    p = std_projectors
    P = p[0] + p[1]
    inner = inner_daseinise_proposition(poset11, P)
    assert not is_clopen_subobject(poset11, inner.subobject)
    assert is_clopen_subobject(poset11, daseinise_proposition(poset11, P).subobject)
    for atoms, kept in (([p[0], p[1], p[2], p[3]], 2), ([p[0] + p[2], p[1], p[3]], 1)):
        context = locate(poset11, atoms)
        below_P = {i for i, a in enumerate(context.atoms) if any(np.allclose(a, p[j]) for j in (0, 1))}
        assert inner.subobject.at(context.id) == below_P and len(below_P) == kept


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


def test_selfadjoint_approximations_equal_the_formed_projection_route_bit_for_bit(ks18_poset):
    # The reference forms each spectral projection P_c and reads the bounds
    # off touch_table (oracles.spectral_bounds); the library reads them off
    # A's eigenvector clusters.  Random A, and A with a repeated eigenvalue
    # on the atoms of each maximal context, at both ends in every context.
    rng = np.random.default_rng(31)
    observables = [(g + g.conj().T) / 2 for g in rng.normal(size=(12, 4, 4)) + 1j * rng.normal(size=(12, 4, 4))]
    observables += [sum(k // 2 * a for k, a in enumerate(c.atoms)) for c in ks18_poset if c.n_atoms == 4]
    for A in observables:
        decomp = spectral_decomposition(A)
        for context in ks18_poset:
            bounds = spectral_bounds(decomp, context.atoms, 1e-9)
            for end, approximate in ((0, inner_daseinise_selfadjoint), (1, outer_daseinise_selfadjoint)):
                expected = np.zeros((4, 4), dtype=complex)
                for a, bound in zip(context.atoms, bounds):  # in atom order, as the library adds
                    if bound[end] == 1.0:
                        expected += a
                    elif bound[end]:
                        expected += bound[end] * a
                assert np.array_equal(approximate(A, context), expected)


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
