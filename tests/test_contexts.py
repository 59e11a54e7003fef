"""Context construction, inclusion order, intersections, poset generation."""

from __future__ import annotations

import copy
import gc
import pickle
import weakref
from functools import reduce
from importlib import resources
from itertools import combinations, product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fourier_rays, locate, projector_set_problem
from oracles import (
    admission_ids_of_all_pairs,
    all_projections,
    brute_meet,
    brute_poset_size,
    is_sum_of_atoms,
    order_rows_by_product,
    projector_rank,
    random_projector,
    random_self_adjoint,
    random_unitary,
    same_context,
    touch_interval,
)
from toposqt import contexts, presheaf
from toposqt.contexts import (
    CONTEXT_CAP,
    _order_rows,
    build_poset,
    context_from_atoms,
    context_from_basis,
    context_from_projectors,
    down_set,
    intersect_contexts,
    is_subcontext,
    restriction_table,
)
from toposqt.errors import (
    DimensionMismatch,
    EmptySeed,
    EnumerationLimitExceeded,
    NonCommutingGenerators,
    TrivialAlgebra,
    UnknownContext,
    ValidationError,
)
from toposqt.daseinisation import daseinise_proposition
from toposqt.logic import Sieve, enumerate_sieves, sieve_connective
from toposqt.operators import Tolerances
from toposqt.presheaf import gelfand_spectrum, is_clopen_subobject
from toposqt.problems import load_problem, problem_from_dict, problem_seed_contexts
from toposqt.valuation import (
    global_sections,
    pseudo_state,
    quantity_value_arrow,
    quantity_value_arrows,
    truth_value,
)


def test_context_from_full_projector_family(std_projectors, maximal_context):
    context = context_from_projectors(std_projectors)
    assert context.id == maximal_context.id
    assert context.n_atoms == 4
    for atom, p in zip(context.atoms, std_projectors):
        assert np.allclose(atom, p)


def test_context_from_single_projector(std_projectors):
    p1 = std_projectors[0]
    context = context_from_projectors([p1])
    assert context.n_atoms == 2
    assert np.allclose(context.atoms[0], p1)
    assert np.allclose(context.atoms[1], np.eye(4) - p1)


def test_context_from_two_projectors(std_projectors):
    p1, p2, p3, p4 = std_projectors
    context = context_from_projectors([p1, p2])
    assert context.n_atoms == 3
    assert np.allclose(context.atoms[0], p1)
    assert np.allclose(context.atoms[1], p2)
    assert np.allclose(context.atoms[2], p3 + p4)


def test_noncommuting_generators_rejected(std_projectors):
    u = np.array([1.0, 1.0, 0.0, 0.0], dtype=complex) / np.sqrt(2)
    slanted = np.outer(u, u.conj())
    with pytest.raises(NonCommutingGenerators):
        context_from_projectors([std_projectors[0], slanted])


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: context_from_projectors([np.eye(4, dtype=complex)]), id="identity-generator"),
        pytest.param(lambda: context_from_projectors([]), id="no-generators"),
        pytest.param(lambda: context_from_atoms([np.eye(4, dtype=complex)]), id="one-atom"),
    ],
)
def test_trivial_algebra_rejected(build):
    with pytest.raises(TrivialAlgebra):
        build()


def test_malformed_atoms_generators_and_bases_are_refused(std_projectors):
    p1, p2, p3, p4 = std_projectors
    with pytest.raises(ValidationError, match="pairwise orthogonal"):
        context_from_atoms([p1 + p2, p2 + p3, p4])
    with pytest.raises(ValidationError, match="sum to the identity"):
        context_from_atoms([p1, p2, p3])
    with pytest.raises(DimensionMismatch):
        context_from_projectors([p1, np.diag([1.0, 0.0]).astype(complex)])
    with pytest.raises(ValidationError, match="needs 4 vectors, got 3"):
        context_from_basis(np.eye(4)[:3])


def test_empty_basis_rejected():
    with pytest.raises(ValidationError, match="at least one vector"):
        context_from_basis([])


def test_basis_must_be_orthonormal():
    with pytest.raises(ValidationError):
        context_from_basis([np.array([1, 0]), np.array([1, 1]) / np.sqrt(2)])


def test_is_subcontext_examples(poset11, std_projectors, maximal_context):
    p1, p2, p3, p4 = std_projectors
    v12 = locate(poset11, [p1, p2, p3 + p4])
    v1 = locate(poset11, [p1, p2 + p3 + p4])
    v2 = locate(poset11, [p2, p1 + p3 + p4])
    assert is_subcontext(v12, maximal_context)
    assert is_subcontext(maximal_context, maximal_context)
    assert not is_subcontext(v1, v2)
    # oracle: each atom of the smaller algebra must be a subset-sum of the larger's
    assert not all(is_sum_of_atoms(v2, a) for a in v1.atoms)
    assert all(is_sum_of_atoms(maximal_context, a) for a in v12.atoms)


def test_is_subcontext_agrees_with_subset_sum_oracle(poset11):
    for v1 in poset11:
        for v2 in poset11:
            expected = all(is_sum_of_atoms(v2, a) for a in v1.atoms)
            assert is_subcontext(v1, v2) == expected


def test_a_coarse_atom_that_is_no_fine_atoms_label_is_not_included():
    # At tau 0.7 the rank-2 atom of the coarse context touches every standard
    # atom (overlap 2/3) and the ray (1, 1, 1)/sqrt(3) touches none (overlap
    # 1/3): each fine atom has one label, but the ray is no atom's label.
    fine = context_from_basis(np.eye(3))
    ray = np.full((3, 3), 1 / 3)
    coarse = context_from_atoms([np.eye(3) - ray, ray])
    assert restriction_table(fine, coarse, 0.7) is None
    assert not is_subcontext(coarse, fine, 0.7)


def test_intersection_of_two_maximal_contexts(maximal_context, second_basis, std_projectors):
    p1, p2, p3, p4 = std_projectors
    meet = intersect_contexts(maximal_context, second_basis)
    assert meet is not None
    assert meet.n_atoms == 3
    assert np.allclose(meet.atoms[0], p1)
    assert np.allclose(meet.atoms[1], p2)
    assert np.allclose(meet.atoms[2], p3 + p4)


def test_intersection_idempotent(maximal_context):
    meet = intersect_contexts(maximal_context, maximal_context)
    assert meet is not None
    assert meet.id == maximal_context.id


def test_intersection_of_unbiased_bases_is_trivial():
    computational = context_from_basis(np.eye(2))
    plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
    minus = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2)
    hadamard = context_from_basis([plus, minus])
    assert intersect_contexts(computational, hadamard) is None
    # oracle: the only common subset-sum projections are 0 and the identity
    common = [
        S
        for S in all_projections(computational)
        if any(np.linalg.norm(S - T) <= 1e-9 for T in all_projections(hadamard))
    ]
    assert len(common) == 2


def _atom_subset_partitions(n: int) -> set[frozenset]:
    """Partitions of {0..n-1} induced by a subset of singleton blocks."""
    out = set()
    for r in range(1, n + 1):
        for subset in combinations(range(n), r):
            blocks = [frozenset([i]) for i in subset]
            rest = frozenset(i for i in range(n) if i not in subset)
            if rest:
                blocks.append(rest)
            if len(blocks) >= 2:
                out.add(frozenset(blocks))
    return out


def test_single_basis_poset_has_eleven_contexts(poset11, std_projectors):
    # partition-enumeration oracle for the expected count
    assert len(_atom_subset_partitions(4)) == 11
    assert len(poset11) == 11
    signatures = sorted(tuple(int(round(np.trace(a).real)) for a in c.atoms) for c in poset11)
    assert signatures.count((1, 1, 1, 1)) == 1
    assert signatures.count((1, 1, 2)) == 6
    assert signatures.count((1, 3)) == 4


def test_two_atom_seed_gives_singleton_poset(std_projectors):
    v1 = context_from_projectors([std_projectors[0]])
    poset = build_poset([v1])
    assert len(poset) == 1


def test_two_basis_poset_shares_three_contexts(maximal_context, second_basis, poset_two_bases):
    family_a = {c.id for c in build_poset([maximal_context])}
    family_b = {c.id for c in build_poset([second_basis])}
    shared = family_a & family_b
    assert len(shared) == 3
    assert len(poset_two_bases) == len(family_a | family_b) == 19
    assert {c.id for c in poset_two_bases} == family_a | family_b


def test_poset_closed_under_seed_intersections(maximal_context, second_basis, poset_two_bases):
    meet = intersect_contexts(maximal_context, second_basis)
    assert meet is not None
    assert meet.id in poset_two_bases


def test_empty_seed_rejected():
    with pytest.raises(EmptySeed):
        build_poset([])


def test_down_sets(poset11, maximal_context, std_projectors):
    p1, p2, p3, p4 = std_projectors
    assert len(down_set(poset11, maximal_context)) == 11
    v1 = locate(poset11, [p1, p2 + p3 + p4])
    assert down_set(poset11, v1) == (v1,)
    v12 = locate(poset11, [p1, p2, p3 + p4])
    v2 = locate(poset11, [p2, p1 + p3 + p4])
    assert set(down_set(poset11, v12)) == {v12, v1, v2}


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(down_set, id="down_set"),
        pytest.param(lambda poset, other: poset.get(other.id), id="get"),
    ],
)
def test_down_set_unknown_context(poset11, call):
    other = context_from_basis(np.eye(2))
    with pytest.raises(UnknownContext):
        call(poset11, other)


def test_context_invariants_hold_everywhere(poset_two_bases):
    for context in poset_two_bases:
        assert context.n_atoms >= 2
        total = np.zeros((4, 4), dtype=complex)
        for i, a in enumerate(context.atoms):
            total += a
            for b in context.atoms[i + 1 :]:
                assert np.linalg.norm(a @ b) <= 1e-9
        assert np.allclose(total, np.eye(4))


def test_dedup_under_permutation_and_phases(maximal_context):
    e = np.eye(4, dtype=complex)
    phases = np.exp(1j * np.array([0.3, 1.1, -0.7, 2.4]))
    shuffled = [phases[i] * e[[2, 0, 3, 1][i]] for i in range(4)]
    context = context_from_basis(shuffled)
    assert context.id == maximal_context.id
    # The same atoms in another order are one context, equal and hashed
    # alike; a context equals no object of another type, not even its id.
    reordered = context_from_atoms(maximal_context.atoms[::-1])
    assert reordered == maximal_context and hash(reordered) == hash(maximal_context)
    assert maximal_context != maximal_context.id
    assert maximal_context.__eq__(maximal_context.id) is NotImplemented


def test_restriction_tables_match_projector_order(poset11):
    for sup in poset11:
        for sub_id in poset11.down_ids(sup.id):
            if sub_id == sup.id:
                continue
            sub = poset11.get(sub_id)
            table = poset11.restriction_indices(sup.id, sub_id)
            for i, atom in enumerate(sup.atoms):
                coarse = sub.atoms[table[i]]
                assert np.allclose(coarse @ atom @ coarse, atom)


def test_restriction_indices_and_is_leq_refuse_a_pair_outside_the_order(poset11, second_basis):
    # Two 3-atom contexts, neither below the other, and a context that is
    # not in the poset.
    a, b = [c.id for c in poset11 if c.n_atoms == 3][:2]
    top, foreign = poset11.ids[0], second_basis.id
    assert foreign not in poset11
    assert not poset11.is_leq(a, b) and not poset11.is_leq(b, a)
    for sup, sub in ((a, b), (b, top), (foreign, a), (top, foreign)):
        with pytest.raises(UnknownContext):
            poset11.restriction_indices(sup, sub)
    for sub, sup in ((foreign, top), (top, foreign)):
        with pytest.raises(UnknownContext):
            poset11.is_leq(sub, sup)


def test_is_subcontext_dimension_mismatch(maximal_context):
    from toposqt.errors import DimensionMismatch

    small = context_from_basis(np.eye(2))
    with pytest.raises(DimensionMismatch):
        is_subcontext(small, maximal_context)
    with pytest.raises(DimensionMismatch):
        intersect_contexts(small, maximal_context)


def _assert_partial_order(poset):
    ids = poset.ids
    for a in ids:
        assert poset.is_leq(a, a)
    for a in ids:
        for b in ids:
            if poset.is_leq(a, b) and poset.is_leq(b, a):
                assert a == b
            for c in ids:
                if poset.is_leq(a, b) and poset.is_leq(b, c):
                    assert poset.is_leq(a, c)


def test_poset_order_is_a_partial_order(poset_two_bases):
    _assert_partial_order(poset_two_bases)


def _assert_meet_matches_oracle(v1, v2):
    expected = brute_meet(v1, v2)
    meet = intersect_contexts(v1, v2)
    if expected is None:
        assert meet is None
        return
    assert meet is not None and meet.n_atoms == len(expected)
    for atom in meet.atoms:
        assert sum(np.linalg.norm(atom - S) <= 1e-9 for S in expected) == 1


def test_intersection_agrees_with_subset_sum_oracle(poset_two_bases):
    for v1 in poset_two_bases:
        for v2 in poset_two_bases:
            _assert_meet_matches_oracle(v1, v2)


def test_ks18_seed_intersections_agree_with_subset_sum_oracle():
    with resources.as_file(resources.files("toposqt.data") / "ks18.json") as path:
        seeds = problem_seed_contexts(load_problem(path))
    assert len(seeds) == 9
    for v1 in seeds:
        for v2 in seeds:
            _assert_meet_matches_oracle(v1, v2)


@pytest.mark.parametrize("theta", [0.0, 1e-12, 3e-9, 1e-6])
def test_one_tolerance_decides_identity_and_order(maximal_context, theta):
    # The second basis shares e1 with the standard one; its copy of e0 is
    # rotated towards q3 by theta.  Whatever theta, identity and inclusion
    # must be decided alike: no context may be merged and then lose its
    # inclusions.
    e = np.eye(4, dtype=complex)
    q3 = (e[2] + e[3]) / np.sqrt(2)
    q4 = (e[2] - e[3]) / np.sqrt(2)
    c, s = np.cos(theta), np.sin(theta)
    rotated = context_from_basis([c * e[0] + s * q3, e[1], c * q3 - s * e[0], q4])
    poset = build_poset([maximal_context, rotated])
    maximal = [v for v in poset if v.n_atoms == 4]
    assert len(maximal) == 2
    assert all(len(poset.down_ids(v.id)) == 11 for v in maximal)
    expected = {
        (sup.id, sub.id)
        for sup in poset
        for sub in poset
        if sub.id != sup.id and all(is_sum_of_atoms(sup, a) for a in sub.atoms)
    }
    assert set(poset.inclusions) == expected
    assert len(poset.inclusions) == len(expected)
    assert (len(poset), len(expected)) == ((19, 42) if theta <= 1e-12 else (21, 44))


def _rotated_basis(theta: float) -> np.ndarray:
    # The standard basis of C^4 rotated by theta in the (e0, e2) plane.
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, 0, s, 0], [0, 1, 0, 0], [-s, 0, c, 0], [0, 0, 0, 1]], dtype=complex)


def test_seeds_touching_only_through_a_middle_seed_give_a_partial_order():
    # |<a0|b2>| = |<b0|c2>| = 0.8e-9 lie below tau = 1e-9, but |<a0|c2>| =
    # 1.6e-9 does not: touching is not transitive.  The middle seed is the
    # first seed under the partition test, the third is not, and the order
    # built from the three must still be a partial order.
    a, b, c = (context_from_basis(_rotated_basis(t)) for t in (0.8e-9, 0.0, -0.8e-9))
    poset = build_poset([a, b, c])
    _assert_partial_order(poset)
    assert b.id not in poset and {a.id, c.id} <= set(poset.ids)
    assert not poset.is_leq(a.id, c.id) and not poset.is_leq(c.id, a.id)


def test_contexts_with_equal_ids_are_one_context():
    # At tau = 1e-12 the two bases are distinct contexts under the touch
    # test, but their atoms agree to 10 decimals and so do their ids.
    a, b = (context_from_basis(_rotated_basis(t)) for t in (0.0, 1e-11))
    assert a.id == b.id and not is_subcontext(a, b, tau=1e-12)
    poset = build_poset([a, b], tau=1e-12)
    assert len(poset) == 11 and len(set(poset.ids)) == 11
    _assert_partial_order(poset)


def _givens(i: int, j: int, theta: float) -> np.ndarray:
    rotation = np.eye(4, dtype=complex)
    c, s = np.cos(theta), np.sin(theta)
    rotation[i, i] = rotation[j, j] = c
    rotation[i, j], rotation[j, i] = s, -s
    return rotation


@pytest.mark.parametrize("name", ["poset11", "poset_two_bases"])
def test_order_rows_give_each_down_set_as_an_int_over_positions(request, name):
    # The poset keeps these ints; the reference is one bit per included
    # position p, at bit N - 1 - p, and the positions are those of down_ids.
    poset = request.getfixturevalue(name)
    ordered = [poset._registry.nodes[cid] for cid in poset.ids]
    rows = list(_order_rows(ordered, len(poset._seed_atoms)))
    assert [row for row, *_ in rows] == list(range(len(poset)))
    for row, below, _, down in rows:
        assert down == sum(1 << (len(poset) - 1 - p) for p in below.tolist()) == poset._below[poset.ids[row]]
        assert [poset.ids[p] for p in below] == list(poset.down_ids(poset.ids[row]))


def _twice_turned_seeds() -> list:
    # Each seed is the standard basis turned by two rotations below tau.
    turns = [
        [(0, 3, 6e-10), (1, 3, -6e-10)],
        [(2, 3, -6e-10), (0, 3, -6e-10)],
        [(2, 3, 9e-10), (1, 3, 9e-10)],
    ]
    return [context_from_basis(_givens(*second) @ _givens(*first)) for first, second in turns]


def test_order_the_tolerance_cannot_make_transitive_is_an_error():
    # Some atom products of the twice-turned seeds lie so close to tau that
    # the touch test orders X <= Y <= Z without X <= Z; that order is refused.
    seeds = _twice_turned_seeds()
    with pytest.raises(ValidationError, match="transitively"):
        build_poset(seeds)
    for pair in combinations(seeds, 2):
        _assert_partial_order(build_poset(list(pair)))


def test_find_uses_the_tolerance_the_poset_was_built_with():
    # The basis vectors carry 1e-8 noise: they are orthonormal within tau =
    # 1e-6 but not within the default 1e-9, and neither are their atoms.
    rng = np.random.default_rng(7)
    noisy = np.eye(4, dtype=complex) + 1e-8 * rng.standard_normal((4, 4))
    poset = build_poset([context_from_basis(noisy, tau=1e-6)], tau=1e-6)
    for context in poset:
        assert poset.find(context.atoms) is context


def test_poset_wide_calls_use_the_tolerance_the_poset_was_built_with():
    # The noisy basis above.  Without tau, each call runs at the poset's 1e-6
    # (at the default 1e-9 every noisy atom would touch every projection, and
    # all four results would differ), and a call at another tau is refused;
    # so is a tau_eig other than the poset's.
    rng = np.random.default_rng(7)
    noisy = np.eye(4, dtype=complex) + 1e-8 * rng.standard_normal((4, 4))
    poset = build_poset([context_from_basis(noisy, tau=1e-6)], tau=1e-6, tau_eig=1e-6)
    P, A = np.diag([1.0, 1.0, 0.0, 0.0]), np.diag([2.0, 1.0, -1.0, -2.0])
    psi = np.array([1.0, 0.0, 1.0, 0.0]) / np.sqrt(2)
    maximal = poset.get(poset.ids[0])
    character = gelfand_spectrum(maximal)[0]
    calls = {
        "daseinise_proposition": lambda *tau: daseinise_proposition(poset, P, *tau).subobject,
        "pseudo_state": lambda *tau: pseudo_state(poset, psi, *tau).subobject,
        "truth_value": lambda *tau: truth_value(poset, P, psi, *tau),
        "quantity_value_arrow": lambda *tau: quantity_value_arrow(poset, A, maximal, character, *tau),
        "quantity_value_arrow tau_eig": lambda *tau_eig: quantity_value_arrow(
            poset, A, maximal, character, None, *tau_eig
        ),
    }
    for name, call in calls.items():
        field = name.partition(" ")[2] or "tau"
        assert call() == call(1e-6), name
        with pytest.raises(ValidationError, match=rf"{field}=1e-09 differs from the {field}=1e-06"):
            call(1e-9)


@pytest.mark.parametrize("value", [0.0, float("nan"), float("inf"), True, "x", None], ids=repr)
def test_build_poset_refuses_a_tolerance_that_tolerances_refuses(value):
    # Checked before the seeds: an empty seed list would be an EmptySeed.
    seeds = [context_from_basis(np.eye(4))]
    for name in ("tau", "tau_eig"):
        for call in (lambda: Tolerances(**{name: value}), lambda: build_poset(seeds, **{name: value}),
                     lambda: build_poset([], **{name: value})):
            with pytest.raises(ValidationError, match=f"^tolerances.{name}: must be a finite positive number"):
                call()


def _order_case(name: str) -> tuple[list, float]:
    if name == "spin2":
        with resources.as_file(resources.files("toposqt.data") / "spin2.json") as path:
            problem = load_problem(path)
        return problem_seed_contexts(problem), problem.tolerances.tau
    rng = np.random.default_rng(12)
    if name == "haar-d6":
        return [context_from_basis(random_unitary(rng, 6).T)], 1e-9
    # Two bases of C^5 sharing two rays (each with a new phase); the other
    # three rays of the second are a Haar rotation of the complement.
    first = random_unitary(rng, 5).T
    kept = first[:2] * np.exp(2j * np.pi * rng.random(2))[:, None]
    q, _ = np.linalg.qr(np.column_stack([*kept, *np.eye(5)]))
    second = np.vstack([kept, (q[:, 2:5] @ random_unitary(rng, 3)).T])
    return [context_from_basis(first), context_from_basis(second)], 1e-9


@pytest.mark.parametrize("name", ["spin2", "haar-d6", "d5-2b-2s"])
def test_order_and_tables_match_the_dense_test_on_every_pair(name):
    seeds, tau = _order_case(name)
    poset = build_poset(seeds, tau)
    every = list(poset)
    for sup in every:
        tables = {sub.id: restriction_table(sup, sub, tau) for sub in every}
        assert poset.down_ids(sup.id) == tuple(sub.id for sub in every if tables[sub.id] is not None)
        for sub_id in poset.down_ids(sup.id):
            assert poset.restriction_indices(sup.id, sub_id) == tables[sub_id]


def _turned(basis: np.ndarray, i: int, j: int, theta: float) -> np.ndarray:
    # The rows of ``basis`` turned by theta in the (e_i, e_j) plane.
    return basis @ _givens(i, j, theta).T


def _turned_shared_ray_seeds() -> list:
    # Three bases of C^4 that share rays, the later two turned by 2e-10.
    e = np.eye(4, dtype=complex)
    plus, minus = (e[2] + e[3]) / np.sqrt(2), (e[2] - e[3]) / np.sqrt(2)
    mid, low = (e[1] + e[2]) / np.sqrt(2), (e[1] - e[2]) / np.sqrt(2)
    return [
        context_from_basis(e),
        context_from_basis(_turned(np.array([e[0], e[1], plus, minus]), 0, 2, 2e-10)),
        context_from_basis(_turned(np.array([e[0], mid, low, e[3]]), 0, 3, 2e-10)),
    ]


def test_first_generated_context_is_kept_under_the_touch_test(monkeypatch):
    # Three bases of C^4 share rays, so coarsenings of the later ones equal
    # earlier coarsenings.  The later two are turned by 2e-10: the touch test
    # merges their shared coarsenings with the earlier ones, but the ids
    # differ, so only the inclusion test can merge them.  The poset must hold
    # the first of each, in the order seeds, coarsenings, meets.
    seeds = _turned_shared_ray_seeds()
    ray = [context_from_projectors([s.atoms[np.argmax([a[0, 0].real for a in s.atoms])]]) for s in seeds]
    assert len({r.id for r in ray}) == 3 and all(same_context(ray[0], r) for r in ray)

    # Every candidate is built and recorded as it is offered to the registry.
    offered = []

    class Recording(contexts._Registry):
        def admit(self, touch, make):
            node = make()
            offered.append(node.context)
            return super().admit(touch, lambda: node)

    monkeypatch.setattr(contexts, "_Registry", Recording)
    poset = build_poset(seeds)
    # Each seed offers itself and then its 2^n - n - 2 coarsenings; the meets
    # come after them all.
    cut = sum(2**s.n_atoms - s.n_atoms - 1 for s in seeds)
    seeds_offered = [c for c in offered[:cut] if c.id in {s.id for s in seeds}]
    assert [c.id for c in seeds_offered] == [s.id for s in seeds]
    coarsenings = [c for c in offered[:cut] if not any(c is s for s in seeds_offered)]
    offered = seeds_offered + coarsenings + offered[cut:]
    first = []
    for context in offered:
        if not any(same_context(context, kept) for kept in first):
            first.append(context)
    assert len(poset) == len(first) == brute_poset_size(seeds)
    assert all(any(context is kept for kept in first) for context in poset)


def _near_tau_seeds() -> list[tuple[list, float]]:
    # The near-tau seeds above, each list with its tau: bases turned by
    # 0.8e-9 either way, two whose ids are equal at tau 1e-12, each pair of
    # the twice-turned seeds, and the turned bases that share rays.
    return [
        ([context_from_basis(_rotated_basis(t)) for t in (0.8e-9, 0.0, -0.8e-9)], 1e-9),
        ([context_from_basis(_rotated_basis(t)) for t in (0.0, 1e-11)], 1e-12),
        *[(list(pair), 1e-9) for pair in combinations(_twice_turned_seeds(), 2)],
        (_turned_shared_ray_seeds(), 1e-9),
    ]


def _assert_values_read_the_restricted_atoms(seeds: list, tau: float, observables: list) -> None:
    # Every pair of quantity_value_arrows, and of quantity_value_arrow called
    # per character on another fresh poset, is the oracle's, read off the
    # matrix of the atom that the character restricts to at each subcontext.
    for A in observables:
        arrows = quantity_value_arrows(build_poset(seeds, tau), A)
        poset = build_poset(seeds, tau)
        for context in poset:
            for ch in gelfand_spectrum(context):
                expected = touch_interval(poset, A, context, ch.atom_index, tau)
                assert (arrows[ch].mu, arrows[ch].nu) == expected
                pair = quantity_value_arrow(poset, A, context, ch)
                assert (pair.mu, pair.nu) == expected


@pytest.mark.parametrize("case", range(6))
def test_values_on_near_tau_seeds_read_each_subcontexts_own_atom(case):
    # The observables' eigenvectors are the standard basis, which the turned
    # atoms touch within a few tau^2, and a random one.
    seeds, tau = _near_tau_seeds()[case]
    observables = [np.diag([0.0, 1.0, 2.0, 3.0]), np.diag([0.0, 0.0, 1.0, 2.0]),
                   random_self_adjoint(np.random.default_rng(case), 4)]
    _assert_values_read_the_restricted_atoms(seeds, tau, observables)


@st.composite
def _bases_sharing_rays(draw) -> list[np.ndarray]:
    # Two or three bases of C^3 to C^5, as rows: a Haar-random one, then
    # bases that each turn two rays of an earlier one and keep the others.
    dim = draw(st.integers(3, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bases = [random_unitary(rng, dim).T]
    for _ in range(draw(st.integers(1, 2))):
        basis = bases[draw(st.integers(0, len(bases) - 1))].copy()
        i, j = draw(st.lists(st.integers(0, dim - 1), min_size=2, max_size=2, unique=True))
        c, s = np.cos(angle := draw(st.floats(0.2, 1.3))), np.sin(angle)
        basis[[i, j]] = c * basis[i] + s * basis[j], -s * basis[i] + c * basis[j]
        bases.append(basis)
    return bases


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(bases=_bases_sharing_rays())
def test_values_on_bases_sharing_rays_read_each_subcontexts_own_atom(bases):
    # A random observable, and one diagonal in the first basis with a
    # two-fold eigenvalue.
    rng = np.random.default_rng(len(bases[0]))
    diagonal = sum(k // 2 * np.outer(v, v.conj()) for k, v in enumerate(bases[0]))
    seeds = [context_from_basis(b) for b in bases]
    _assert_values_read_the_restricted_atoms(seeds, 1e-9, [random_self_adjoint(rng, len(bases[0])), diagonal])


def _assert_order_rows_equal_the_product(nodes: list, width: int) -> None:
    # Each row's position, down-set positions, restriction tables and down-set
    # int, from the seed-atom labels and from the product of 0/1 matrices.  A
    # table holds atom rows, so less each sub's first row it is the product's.
    rows = list(_order_rows(nodes, width))
    assert len(rows) == len(nodes)
    first = np.cumsum([0] + [len(node.own) for node in nodes[:-1]])
    for (row, below, tables, down), expected in zip(rows, order_rows_by_product(nodes, width)):
        assert (row, down) == (expected[0], expected[3])
        assert tables.dtype == np.int32 and np.array_equal(below, expected[1])
        assert np.array_equal(tables - first[below, None], expected[2])


def _built_nodes(seeds: list, tau: float) -> tuple[list, int]:
    # build_poset's nodes in poset order and its seed atom count, taken before
    # the poset reads its order, so an order it refuses is compared too.
    keep = staticmethod(lambda registry, atoms, _: (registry, atoms))
    with mock.patch.object(contexts.ContextPoset, "_from_build", keep):
        registry, atoms = build_poset(seeds, tau)
    return sorted(registry.nodes.values(), key=lambda n: (-n.context.n_atoms, n.context.id)), len(atoms)


@pytest.mark.parametrize("name", ["poset11", "poset_two_bases", "spin2_poset", "ks18_poset"])
def test_order_rows_equal_the_product_on_the_fixture_posets(request, name):
    poset = request.getfixturevalue(name)
    _assert_order_rows_equal_the_product([poset._registry.nodes[cid] for cid in poset.ids], len(poset._seed_atoms))


@pytest.mark.parametrize("case", ["spin2", "haar-d6", "d5-2b-2s", *range(7)])
def test_order_rows_equal_the_product_on_order_cases_and_near_tau_seeds(case):
    # The near-tau seeds, and last the three twice-turned seeds, whose order
    # build_poset refuses as not transitive: the labels give it as the
    # product does.
    near_tau = [*_near_tau_seeds(), (_twice_turned_seeds(), 1e-9)]
    seeds, tau = _order_case(case) if isinstance(case, str) else near_tau[case]
    _assert_order_rows_equal_the_product(*_built_nodes(seeds, tau))


@settings(derandomize=True, database=None, deadline=None, max_examples=50)
@given(bases=_bases_sharing_rays())
def test_order_rows_equal_the_product_on_bases_sharing_rays(bases):
    _assert_order_rows_equal_the_product(*_built_nodes([context_from_basis(b) for b in bases], 1e-9))


def _assert_tables_hold_atom_rows(poset) -> None:
    # Entry i of row k of V's tables is the atom row r of the restriction of
    # atom i of V to the k-th context W of its down-set: one of W's rows, in
    # the _seed_sums row order.  That atom lies above atom i, so its seed mask
    # (the seed atoms it touches) holds atom i's.
    touch = [m for cid in poset.ids for m in poset._registry.nodes[cid].touch]
    first = dict(zip(poset.ids, poset._row_starts[:-1].tolist()))
    for v in poset.ids:
        masks = poset._registry.nodes[v].touch
        for w, table in zip(poset.down_ids(v), poset._tables[v].tolist()):
            for i, r in enumerate(table):
                assert first[w] <= r < first[w] + poset.get(w).n_atoms
                assert touch[r] & masks[i] == masks[i]


@pytest.mark.parametrize("name", ["poset11", "poset_two_bases", "spin2_poset", "ks18_poset"])
def test_restriction_tables_hold_atom_rows_on_the_fixture_posets(request, name):
    _assert_tables_hold_atom_rows(request.getfixturevalue(name))


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(bases=_bases_sharing_rays())
def test_restriction_tables_hold_atom_rows_on_bases_sharing_rays(bases):
    _assert_tables_hold_atom_rows(build_poset([context_from_basis(b) for b in bases]))


def _admission_ids(seeds: list, tau: float) -> list[str]:
    # build_poset's registry ids in admission order, taken before the poset
    # reads its order, so an order it refuses is compared too.
    keep = staticmethod(lambda registry, atoms, tolerances: registry)
    with mock.patch.object(contexts.ContextPoset, "_from_build", keep):
        return list(build_poset(seeds, tau).nodes)


@pytest.mark.parametrize("case", ["ks18", *range(7)])
def test_skipped_meets_admit_what_every_pair_admits_on_ks18_and_near_tau_seeds(case):
    # The meet closure skips a context met with itself and every two-atom
    # context; visiting every pair admits the same nodes in the same order.
    if case == "ks18":
        problem = _ks18()
        seeds, tau = problem_seed_contexts(problem), problem.tolerances.tau
    else:
        seeds, tau = [*_near_tau_seeds(), (_twice_turned_seeds(), 1e-9)][case]
    assert _admission_ids(seeds, tau) == admission_ids_of_all_pairs(seeds, tau)


@settings(derandomize=True, database=None, deadline=None, max_examples=50)
@given(bases=_bases_sharing_rays())
def test_skipped_meets_admit_what_every_pair_admits_on_bases_sharing_rays(bases):
    seeds = [context_from_basis(b) for b in bases]
    assert _admission_ids(seeds, 1e-9) == admission_ids_of_all_pairs(seeds, 1e-9)


def _atom_key(a: np.ndarray) -> tuple:
    # One atom's sort key, id bytes and unrounded reference weight, one numpy
    # call at a time: the reference that the stacked pass must match.
    rounded = np.round(a, contexts.ID_DIGITS) + 0.0
    weight = np.trace(a @ contexts._reference_matrix(a.shape[0])).real
    key = (projector_rank(a), round(float(weight), contexts.ID_DIGITS) + 0.0, rounded.view(float).ravel().tolist())
    return key, rounded.real.tobytes() + rounded.imag.tobytes(), weight


def _partition(rng: np.random.Generator, dim: int, cuts) -> list[np.ndarray]:
    # The atoms of a Haar-random basis of C^dim, cut into blocks at ``cuts``.
    u = random_unitary(rng, dim)
    ends = [0, *cuts, dim]
    return [u[:, lo:hi] @ u[:, lo:hi].conj().T for lo, hi in zip(ends, ends[1:])]


def _cuts(rng: np.random.Generator, dim: int) -> list[int]:
    # Random cut points that split C^dim into at least two blocks.
    return sorted(rng.choice(np.arange(1, dim), size=max(1, (dim - 1) // 2), replace=False).tolist())


@pytest.mark.parametrize("dim", range(2, 13))
def test_stacked_keys_match_the_per_atom_formula_bit_for_bit(dim):
    rng = np.random.default_rng([23, dim])
    atoms = [random_projector(rng, dim, rank) for rank in range(1, dim) for _ in range(3)]
    weights = np.trace(np.asarray(atoms) @ contexts._reference_matrix(dim), axis1=1, axis2=2).real
    for a, (key, rounded, frozen), weight in zip(atoms, contexts._key_atoms(atoms, {}), weights, strict=True):
        expected_key, expected_rounded, expected_weight = _atom_key(a)
        assert weight.tobytes() == expected_weight.tobytes()
        assert key[0] == expected_key[0]
        assert np.float64(key[1]).tobytes() == np.float64(expected_key[1]).tobytes()
        assert np.array(key[2]).tobytes() == np.array(expected_key[2]).tobytes()
        assert rounded == expected_rounded
        assert frozen.tobytes() == a.tobytes() and not frozen.flags.writeable
    # The id of a context: the per-atom bytes in per-atom key order.
    for cuts in (range(1, dim), _cuts(rng, dim)):
        parts = _partition(rng, dim, cuts)
        per_atom = sorted(map(_atom_key, parts), key=lambda k: k[0])
        assert context_from_atoms(parts).id == contexts._context_id([k[1] for k in per_atom])


@pytest.mark.parametrize("dim", range(2, 13))
def test_stacked_complements_match_a_reduce_bit_for_bit(dim):
    rng = np.random.default_rng([24, dim])
    for atoms in (_partition(rng, dim, range(1, dim)), _partition(rng, dim, _cuts(rng, dim))):
        n = len(atoms)
        subsets, complements = contexts._complements(np.asarray(atoms))
        assert subsets == [s for r in range(1, n - 1) for s in combinations(range(n), r)]
        assert complements.shape == (len(subsets), dim, dim)
        for subset, complement in zip(subsets, complements):
            chosen = [atoms[i] for i in subset]
            assert complement.tobytes() == reduce(np.subtract, chosen, np.eye(dim, dtype=complex)).tobytes()


@pytest.mark.parametrize("case", ["one seed", "two seeds"])
def test_of_two_candidates_with_one_id_the_first_generated_is_kept(monkeypatch, maximal_context, case):
    # _context_id is patched so that a later coarsening gets the id of an
    # earlier one: of the first seed's first and last coarsenings, or of the
    # first seed's first and the second seed's last.  The later one is never
    # kept, and nothing else changes.
    seeds = [maximal_context]
    if case == "two seeds":
        seeds.append(context_from_basis(random_unitary(np.random.default_rng(23), 4).T))
    plain = build_poset(seeds)
    nodes = list(plain._registry.nodes.values())
    assert len(nodes) == 11 * len(seeds)  # no meets: a Haar basis meets C^4's standard one in the scalars
    earlier = nodes[1].context
    later = [n.context for n in nodes if min(n.own) >= 1 << 4 * (len(seeds) - 1)][-1]
    assert later.id not in {s.id for s in seeds} and later.id != earlier.id
    real = contexts._context_id

    def collide(rounded):
        return earlier.id if real(rounded) == later.id else real(rounded)

    monkeypatch.setattr(contexts, "_context_id", collide)
    poset = build_poset(seeds)
    assert set(poset.ids) == set(plain.ids) - {later.id}
    kept = poset.get(earlier.id)
    assert kept.ranks == earlier.ranks and all(map(np.array_equal, kept.atoms, earlier.atoms))
    assert poset.find(earlier.atoms) is kept and poset.find(later.atoms) is None


def test_seeds_with_an_atom_touching_no_atom_of_another_seed_are_refused(monkeypatch):
    # At tau >= 1/sqrt(dim), open to API callers only, a seed atom can touch
    # no atom of another seed: each Hadamard ray has weight 1/4 on every
    # standard ray, below tau^2.  Such seeds are refused before any context
    # is built; each basis alone still passes.
    tau = 0.75
    hadamard = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]) / 2
    seeds = [context_from_basis(basis, tau) for basis in (np.eye(4), hadamard)]

    def no_context(*args, **kwargs):
        raise AssertionError("a context was built")

    monkeypatch.setattr(contexts, "_canonical_context", no_context)
    with pytest.raises(ValidationError, match="at tau=0.75 a seed atom touches no atom of some seed"):
        build_poset(seeds, tau)
    monkeypatch.undo()
    assert [len(build_poset([seed], tau)) for seed in seeds] == [11, 11]


def test_seeds_over_the_context_cap_are_refused_before_any_coarsening(monkeypatch):
    # A single basis of C^12 spans 4,083 contexts, one of C^13 spans 8,178.
    assert 2**12 - 13 <= CONTEXT_CAP < 2**13 - 14
    seed = context_from_basis(np.eye(13))

    def no_coarsening(*args, **kwargs):
        raise AssertionError("a context was built")

    monkeypatch.setattr(contexts, "_canonical_context", no_coarsening)
    with pytest.raises(EnumerationLimitExceeded, match="8,178 contexts"):
        build_poset([seed])


def test_context_cap_counts_every_seed(monkeypatch, maximal_context, second_basis):
    monkeypatch.setattr(contexts, "CONTEXT_CAP", 11)
    assert len(build_poset([maximal_context])) == 11
    with pytest.raises(EnumerationLimitExceeded, match="22 contexts"):
        build_poset([maximal_context, second_basis])


def _ks18():
    with resources.as_file(resources.files("toposqt.data") / "ks18.json") as path:
        return load_problem(path)


def test_projector_sets_meet_outside_every_coarsening():
    problem = problem_from_dict(projector_set_problem())
    poset = build_poset(problem_seed_contexts(problem))
    rays = fourier_rays()
    for blocks in (((0, 1, 4), (2, 3, 5)), ((0, 1, 2), (3, 4, 5))):
        assert poset.find([sum(rays[i] for i in b) for b in blocks]) is not None
    assert len(poset) == brute_poset_size(problem_seed_contexts(problem))


@pytest.mark.parametrize("name", ["ks18", "projector-sets"])
def test_built_poset_holds_one_array_per_distinct_atom(name):
    problem = _ks18() if name == "ks18" else problem_from_dict(projector_set_problem())
    poset = build_poset(problem_seed_contexts(problem), problem.tolerances.tau)
    arrays = [a for c in poset for a in c.atoms]
    assert len({id(a) for a in arrays}) == len({a.tobytes() for a in arrays}) < len(arrays)
    assert not any(a.flags.writeable for a in arrays)


def test_a_read_only_view_of_a_writable_array_is_copied():
    # The view changes when its base does, so the context keeps its own copy
    # and its atoms stay what its id was taken from; a read-only atom of a
    # built context has nothing writable under it and is kept as it is.
    base = np.diag([1, 0, 0, 0]).astype(complex)
    view = base[:]
    view.setflags(write=False)
    c = context_from_atoms([view, np.diag([0, 1, 1, 1]).astype(complex)])
    kept = next(a for a in c.atoms if a[0, 0] == 1)
    assert kept is not view and not kept.flags.writeable
    base[0, 0] = 7
    assert kept[0, 0] == 1 and c.id == context_from_atoms(c.atoms).id
    assert all(a is b for a, b in zip(context_from_atoms(c.atoms).atoms, c.atoms))


@pytest.mark.parametrize("name", ["ks18", "projector-sets"])
def test_context_ranks_are_the_ranks_of_its_atoms(name):
    problem = _ks18() if name == "ks18" else problem_from_dict(projector_set_problem())
    poset = build_poset(problem_seed_contexts(problem), problem.tolerances.tau)
    for c in poset:
        assert c.ranks == tuple(projector_rank(a) for a in c.atoms)
    assert max(r for c in poset for r in c.ranks) > 1


def test_find_returns_every_context_of_ks18_and_of_a_perturbed_copy():
    problem = _ks18()
    tau = problem.tolerances.tau
    rng = np.random.default_rng(16)
    noisy = [np.array(b) + 1e-12 * rng.standard_normal((len(b), problem.dim)) for b in problem.bases]
    poset, moved = (build_poset([context_from_basis(b, tau) for b in bases], tau) for bases in (problem.bases, noisy))
    for p in (poset, moved):
        assert all(p.find(c.atoms) is c for c in p)
    image = [poset.find(c.atoms) for c in moved]
    assert len(moved) == len(poset) == len({c.id for c in image if c is not None})


def test_find_is_none_for_a_partition_the_poset_lacks(poset11, std_projectors):
    # One basis of C^4 spans the partitions that keep all but one block a
    # single ray; two blocks of two rays are not among them.
    p = std_projectors
    assert poset11.find([p[0] + p[1], p[2] + p[3]]) is None
    assert poset11.find([p[0] + p[1], p[2], p[3]]) is not None
    hadamard = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]) / 2
    assert poset11.find(context_from_basis(hadamard).atoms) is None


def test_a_dropped_poset_is_freed_without_the_cyclic_collector(std_projectors):
    # The frames dict holds no poset, and the cached builds, the sieves a
    # frame keeps and the map of atom bounds hold no reference to it, so a
    # poset whose tables were all read is freed when its last reference goes.
    gc.disable()
    try:
        poset = build_poset([context_from_basis(np.eye(4))])
        top = poset.get(poset.ids[0])
        assert global_sections(poset)  # _characters
        sieves = enumerate_sieves(poset, top)  # _sieve_frames, with every sieve on top kept
        assert sieve_connective(poset, "implies", Sieve(top.id, set(sieves[1].members)), sieves[-2]) in sieves
        del sieves
        quantity_value_arrow(poset, np.diag([1.0, 2.0, 3.0, 4.0]), top, gelfand_spectrum(top)[0])  # atom bounds
        daseinise_proposition(poset, std_projectors[0])  # _seed_sums
        assert poset._sieve_frames
        assert "_seed_sums" in vars(poset) and "_characters" in vars(poset)  # the cached builds
        assert len(poset._quantity_bounds) == 1  # the map of atom bounds, with the quantity's entry
        dropped = weakref.ref(poset)
        del poset
        assert dropped() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("copy_of", [copy.copy, copy.deepcopy, lambda poset: pickle.loads(pickle.dumps(poset))],
                         ids=["copy", "deepcopy", "pickle"])
def test_a_poset_copies_deep_copies_and_pickles(std_projectors, monkeypatch, copy_of):
    # Every table it has built goes along: an enumerated frame, the character
    # order, the seed sums and an entry of atom bounds.  The copy gives the
    # original's results, and trusts no subobject that the library made on
    # the original: that one is checked under the coverage rule.
    poset = build_poset([context_from_basis(np.eye(4))])
    top = poset.get(poset.ids[0])
    A = np.diag([1.0, 2.0, 3.0, 4.0])
    sieves = enumerate_sieves(poset, top)
    sections = global_sections(poset)  # _characters
    made = daseinise_proposition(poset, std_projectors[0]).subobject  # _seed_sums
    arrows = quantity_value_arrows(poset, A)  # the map of atom bounds
    assert poset._sieve_frames[top.id].codes and "_seed_sums" in vars(poset) and "_characters" in vars(poset)
    assert len(poset._quantity_bounds) == 1
    twin = copy_of(poset)
    assert (twin.ids, twin.inclusions) == (poset.ids, poset.inclusions)
    assert all(twin.down_ids(cid) == poset.down_ids(cid) for cid in poset.ids)
    assert enumerate_sieves(twin, twin.get(top.id)) == sieves
    for a, b in product(sieves, repeat=2):
        for kind in ("and", "or", "implies"):
            assert sieve_connective(twin, kind, a, b) == sieve_connective(poset, kind, a, b)
        assert sieve_connective(twin, "not", a) == sieve_connective(poset, "not", a)
    assert global_sections(twin) == sections
    assert quantity_value_arrows(twin, A) == arrows
    calls = []
    check = presheaf._selects_characters
    monkeypatch.setattr(presheaf, "_selects_characters", lambda *args: calls.append(args[2]) or check(*args))
    assert is_clopen_subobject(poset, made) and calls == []
    assert is_clopen_subobject(twin, made) and calls == ["subobject"]


@pytest.mark.parametrize("bad", [[1], {}, (1, [2]), 5, None, "ctx-foreign"], ids=repr)
def test_any_value_that_is_no_poset_id_is_an_unknown_context(poset11, bad):
    # An unhashable value escaped from the dict lookups as TypeError.
    top = poset11.ids[0]
    for call in (lambda: poset11.get(bad), lambda: poset11.down_ids(bad), lambda: poset11.is_leq(bad, top),
                 lambda: poset11.is_leq(top, bad), lambda: poset11.restriction_indices(bad, top),
                 lambda: poset11.restriction_indices(top, bad)):
        with pytest.raises(UnknownContext):
            call()
    assert bad not in poset11
    assert top in poset11 and poset11.get(top) in poset11


@pytest.mark.parametrize("seeds", [None, 5, 1.5], ids=repr)
def test_an_argument_that_is_no_iterable_is_a_validation_error(seeds):
    for call in (build_poset, context_from_atoms, context_from_basis, context_from_projectors):
        with pytest.raises(ValidationError, match="expected an iterable"):
            call(seeds)
