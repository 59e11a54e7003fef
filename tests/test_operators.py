"""Spectral decompositions, spectral families, projector and spectral orders."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    pair_touch_masks,
    projector_rank,
    random_projector,
    random_self_adjoint,
    random_unit_vector,
    random_unitary,
    reference_decompose,
)
from toposqt.errors import DimensionMismatch, NotProjector, NotSelfAdjoint, ValidationError
from toposqt.operators import (
    TAU,
    Tolerances,
    _clusters,
    _decompose,
    as_operator,
    close,
    cluster_table,
    is_projector,
    is_self_adjoint,
    projector_leq,
    require_projector,
    spectral_decomposition,
    spectral_family_at,
    spectral_order_leq,
    touch_masks,
    touch_table,
)
from toposqt.valuation import proposition_projector


def test_predicates():
    assert is_self_adjoint(np.diag([1.0, 2.0]))
    assert not is_self_adjoint(np.array([[0, 1], [0, 0]], dtype=complex))
    assert is_projector(np.diag([1.0, 0.0]))
    assert not is_projector(np.diag([1.0, 0.5]))


def test_decomposition_identity_is_single_cluster():
    decomp = spectral_decomposition(np.eye(4, dtype=complex))
    assert decomp.eigenvalues == (1.0,)
    assert np.allclose(decomp.projectors[0], np.eye(4))


def test_decomposition_sz(sz, std_projectors):
    p1, p2, p3, p4 = std_projectors
    decomp = spectral_decomposition(sz)
    assert np.allclose(decomp.eigenvalues, [-2.0, 0.0, 2.0])
    assert np.allclose(decomp.projectors[0], p4)
    assert np.allclose(decomp.projectors[1], p2 + p3)
    assert np.allclose(decomp.projectors[2], p1)


def test_decomposition_degenerate_ranks_and_reconstruction():
    A = np.diag([1.0, 1.0, 2.0, 3.0]).astype(complex)
    decomp = spectral_decomposition(A)
    assert np.allclose(decomp.eigenvalues, [1.0, 2.0, 3.0])
    ranks = [int(round(np.trace(p).real)) for p in decomp.projectors]
    assert ranks == [2, 1, 1]
    assert np.allclose(decomp.reconstruct(), A)


def test_decomposition_rejects_non_self_adjoint():
    with pytest.raises(NotSelfAdjoint):
        spectral_decomposition(np.array([[0, 1], [0, 0]], dtype=complex))


BAD_TAU_EIGS = [float("nan"), float("inf"), -float("inf"), 0, 0.0, -1e-8, True, False, "1e-8", None]


@pytest.mark.parametrize("tau_eig", BAD_TAU_EIGS, ids=repr)
def test_a_tau_eig_that_is_not_a_finite_positive_number_is_refused(tau_eig):
    # NaN or inf would merge the whole spectrum into one cluster, and a
    # negative tau_eig would drop the eigenvalue at r.
    A = np.diag([1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValidationError, match="tau_eig"):
        spectral_decomposition(A, tau_eig=tau_eig)
    with pytest.raises(ValidationError, match="tau_eig"):
        spectral_family_at(spectral_decomposition(A), 2.0, tau_eig)


@pytest.mark.parametrize("value", BAD_TAU_EIGS, ids=repr)
@pytest.mark.parametrize("name", ["tau", "tau_eig"])
def test_each_function_taking_tau_eig_checks_both_tolerances_first(name, value):
    # The operand is not self-adjoint and the interval is no pair, so any
    # other check made first would raise something else.
    A = np.array([[0, 1], [0, 0]], dtype=complex)
    for call in (
        lambda: spectral_decomposition(A, **{name: value}),
        lambda: spectral_order_leq(A, A, **{name: value}),
        lambda: proposition_projector(A, "x", **{name: value}),
    ):
        with pytest.raises(ValidationError, match=f"^tolerances.{name}: must be a finite positive number"):
            call()


def test_spectral_family_at_sz(sz):
    decomp = spectral_decomposition(sz)
    assert np.allclose(spectral_family_at(decomp, -3.0), np.zeros((4, 4)))
    assert np.allclose(spectral_family_at(decomp, 0.0), np.diag([0.0, 1.0, 1.0, 1.0]))
    assert np.allclose(spectral_family_at(decomp, 2.0), np.eye(4))


def test_spectral_family_monotone_and_tops_out(sz):
    decomp = spectral_decomposition(sz)
    grid = [-5.0, -2.0, -1.0, 0.0, 1.0, 2.0, 7.0]
    previous = np.zeros((4, 4), dtype=complex)
    for r in grid:
        current = spectral_family_at(decomp, r)
        assert projector_leq(previous, current)
        previous = current
    assert np.allclose(spectral_family_at(decomp, max(decomp.eigenvalues)), np.eye(4))


def test_projector_leq_examples(std_projectors):
    p1, p2, _, p4 = std_projectors
    zero = np.zeros((4, 4), dtype=complex)
    assert projector_leq(zero, p2)
    assert projector_leq(p1, p1 + p4)
    assert not projector_leq(p1, p2)
    # orthogonal rays: the excluded part has full norm
    assert abs(np.linalg.norm((np.eye(4) - p2) @ p1) - 1.0) < 1e-12


def test_projector_leq_rejects_non_projectors():
    with pytest.raises(NotProjector):
        projector_leq(np.diag([0.5, 0.0]), np.eye(2, dtype=complex))


def test_spectral_order_reflexive(sz):
    for A in (sz, np.eye(4, dtype=complex), np.diag([1.0, 1.0, 2.0, 3.0]).astype(complex)):
        assert spectral_order_leq(A, A)


def test_spectral_order_on_projectors_matches_projector_order(std_projectors):
    p1, p2, _, _ = std_projectors
    assert spectral_order_leq(p1, p1 + p2)
    assert not spectral_order_leq(p1 + p2, p1)


def test_spectral_order_dominated_by_scaled_identity(sz):
    two = 2.0 * np.eye(4, dtype=complex)
    assert spectral_order_leq(sz, two)
    assert not spectral_order_leq(two, sz)
    # brute-force oracle on a dense r grid, from scratch via eigh
    for r in np.linspace(-4.0, 4.0, 33):
        ea = _family_by_hand(sz, r)
        eb = _family_by_hand(two, r)
        assert projector_leq(eb, ea)


def _family_by_hand(A, r):
    vals, vecs = np.linalg.eigh(A)
    keep = vecs[:, vals <= r + 1e-8]
    return keep @ keep.conj().T


def test_spectral_order_agrees_with_projector_order_on_lattices(poset11):
    for context in poset11:
        projections = _lattice(context)
        for P in projections:
            for Q in projections:
                assert spectral_order_leq(P, Q) == projector_leq(P, Q)


def _lattice(context):
    from itertools import combinations

    out = []
    for r in range(len(context.atoms) + 1):
        for subset in combinations(range(len(context.atoms)), r):
            total = np.zeros((context.dim, context.dim), dtype=complex)
            for i in subset:
                total += context.atoms[i]
            out.append(total)
    return out


def test_spectral_order_partial_order_properties(sz):
    pool = [
        np.zeros((4, 4), dtype=complex),
        np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex),
        np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex),
        np.eye(4, dtype=complex),
        sz,
        2.0 * np.eye(4, dtype=complex),
        np.diag([1.0, 1.0, 2.0, 3.0]).astype(complex),
    ]
    for A in pool:
        assert spectral_order_leq(A, A)
    for A in pool:
        for B in pool:
            if spectral_order_leq(A, B) and spectral_order_leq(B, A):
                assert np.allclose(A, B, atol=1e-9)
            for C in pool:
                if spectral_order_leq(A, B) and spectral_order_leq(B, C):
                    assert spectral_order_leq(A, C)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9))
def test_spectral_order_implies_expectation_order(seed):
    rng = np.random.default_rng(seed)
    A = random_self_adjoint(rng, 4)
    shift = rng.uniform(0.1, 2.0)
    B = A + shift * np.eye(4)  # same eigenbasis, strictly larger spectrum
    assert spectral_order_leq(A, B)
    for _ in range(8):
        psi = random_unit_vector(rng, 4)
        ea = float(np.real(psi.conj() @ (A @ psi)))
        eb = float(np.real(psi.conj() @ (B @ psi)))
        assert ea <= eb + 1e-9


def test_dimension_mismatch_raises(sz):
    with pytest.raises(DimensionMismatch):
        spectral_order_leq(sz, np.eye(2, dtype=complex))
    with pytest.raises(DimensionMismatch):
        projector_leq(np.eye(2, dtype=complex), np.eye(4, dtype=complex))


def test_empty_matrix_raises_dimension_mismatch():
    from toposqt.valuation import proposition_projector

    with pytest.raises(DimensionMismatch):
        spectral_decomposition(np.zeros((0, 0)))
    with pytest.raises(DimensionMismatch):
        proposition_projector(np.zeros((0, 0)), (0.0, 1.0))


def test_decomposition_projectors_are_orthogonal_resolution():
    rng = np.random.default_rng(5)
    gauss = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    A = (gauss + gauss.conj().T) / 2.0
    decomp = spectral_decomposition(A)
    total = np.zeros((4, 4), dtype=complex)
    for i, p in enumerate(decomp.projectors):
        assert is_projector(p, 1e-9)
        total += p
        for q in decomp.projectors[i + 1 :]:
            assert np.linalg.norm(p @ q) <= 1e-9
    assert np.allclose(total, np.eye(4))
    assert all(a < b for a, b in zip(decomp.eigenvalues, decomp.eigenvalues[1:]))


@pytest.mark.parametrize("size", range(1, 12))
def test_cluster_eigenvalue_is_the_numpy_mean(size):
    # A cluster of ``size`` eigenvalues within 1e-9 of 0.1, between two
    # isolated ones.  Its eigenvalue is pinned to np.mean of the raw values,
    # to the last bit: Python's sum differs from it on some of these spectra
    # from size 8 on, and np.add.reduceat from size 3 on.
    rng = np.random.default_rng([size, 2024])
    for _ in range(5):
        dim = size + 2
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        A = q @ np.diag(np.r_[-1.0, 0.1 + rng.random(size) * 1e-9, 1.0]) @ q.conj().T
        A = (A + A.conj().T) / 2
        raw = np.linalg.eigh(A)[0]
        decomp = spectral_decomposition(A)
        assert decomp.eigenvalues == (float(raw[0]), float(np.mean(raw[1:-1])), float(raw[-1]))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    st.lists(st.integers(-2, 2), min_size=1, max_size=10),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
@example([0.5] * 8 + [-1, 2], 0, True)  # one cluster of 8: numpy's pairwise sum
@example([3] * 10, 1, True)
def test_decompose_equals_the_per_cluster_loop(values, seed, rotate):
    # A spectrum with repeats, diagonal or turned by a Haar-random unitary so
    # that equal eigenvalues come out of eigh a few ulps apart.
    A = np.diag(values).astype(complex)
    if rotate:
        U = random_unitary(np.random.default_rng(seed), len(values))
        A = U @ A @ U.conj().T
        A = (A + A.conj().T) / 2
    decomp = _decompose(A, Tolerances())
    eigenvalues, projectors = reference_decompose(A)
    assert decomp.eigenvalues == eigenvalues
    assert len(decomp.projectors) == len(projectors)
    assert all(np.array_equal(p, q) for p, q in zip(decomp.projectors, projectors))


@pytest.mark.parametrize("dtype", [complex, float, int])
def test_close_is_the_frobenius_norm_test(dtype):
    # The same norm to the last bit: close holds at tau = ||A - B||_F and
    # fails at the next float below it.
    rng = np.random.default_rng(3)
    for shape in [(1, 1), (4, 4), (3, 5)]:
        A, B = (rng.normal(size=shape) * 10 + 1j * rng.normal(size=shape) for _ in range(2))
        if dtype is not complex:
            A, B = A.real.astype(dtype), B.real.astype(dtype)
        norm = float(np.linalg.norm(A - B))
        for tau in (norm, np.nextafter(norm, 0.0), norm / 2, 2 * norm, 1e-9):
            assert close(A, B, tau) == (norm <= tau)
    assert close(np.eye(3, dtype=int), np.eye(3, dtype=int), 0.0)


@pytest.mark.parametrize("dim", range(2, 7))
def test_touch_masks_match_the_pairwise_norm(dim):
    # Rays of a random basis against each other (orthogonal up to rounding),
    # against a sum of them and against random projections.
    rng = np.random.default_rng(dim)
    for _ in range(5):
        basis, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        rays = [np.outer(v, v.conj()) for v in basis.T]
        left = rays + [random_projector(rng, dim, int(rng.integers(1, dim))) for _ in range(3)]
        right = rays[: dim // 2] + [sum(rays[dim // 2 :]), random_projector(rng, dim, 1)]
        assert touch_masks(left, right, TAU) == pair_touch_masks(left, right, TAU)


@pytest.mark.parametrize("dim", range(2, 7))
def test_touch_masks_of_the_standard_basis(dim):
    rays = [np.diag(row).astype(complex) for row in np.eye(dim)]
    assert np.array_equal(touch_table(rays, rays), np.eye(dim))
    assert touch_masks(rays, rays, TAU) == [1 << i for i in range(dim)] == pair_touch_masks(rays, rays, TAU)


@pytest.mark.parametrize("angle, touches", [(0.8e-9, False), (1.2e-9, True), (1.6e-9, True)])
def test_touch_masks_at_a_ray_turned_near_tau(angle, touches):
    # ||e0 v||_F = sin(angle) for the ray v of e1 turned by angle towards e0.
    e0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
    v = np.array([np.sin(angle), np.cos(angle), 0.0])
    turned = np.outer(v, v).astype(complex)
    assert touch_masks([e0], [turned], 1e-9) == [int(touches)] == pair_touch_masks([e0], [turned], 1e-9)


def _cluster_hits(left, A) -> np.ndarray:
    # The cluster table of the atoms against A's eigenvectors, and their
    # touch_table against A's spectral projections: entries within 1e-15 per
    # unit of the atom's rank (an entry is at most the rank, and its rounding
    # scales with it) and the same hits at tau (hits, not bits, are what the
    # two must share).
    _, vecs, starts = _clusters(A, Tolerances())
    table = cluster_table(np.asarray(left), vecs, starts)
    reference = touch_table(left, _decompose(A, Tolerances()).projectors)
    assert table.shape == reference.shape == (len(left), len(starts))
    ranks = np.array([projector_rank(a) for a in left])
    assert (np.abs(table - reference).max(axis=1) <= 1e-15 * ranks).all()
    assert np.array_equal(table > TAU * TAU, reference > TAU * TAU)
    return table > TAU * TAU


@pytest.mark.parametrize("rank", [1, 2])
@pytest.mark.parametrize(
    "values, cluster_of_ray",
    [([-1.0, 0.5, 2.0, 3.0], [0, 1, 2, 3]), ([1.0, 1.0 + 5e-9, 2.0, 3.0], [0, 0, 1, 2])],
    ids=["distinct", "merged"],
)
def test_cluster_table_touches_as_the_spectral_projections(rank, values, cluster_of_ray):
    # Atoms of rank 1 or 2 on the rays of a Haar-random basis, and one random
    # projection of that rank, against a quantity diagonal in that basis (many
    # pairs orthogonal up to rounding) and against a generic one; 1 and
    # 1 + 5e-9 merge at tau_eig.
    rng = np.random.default_rng([29, rank])
    basis = random_unitary(rng, 4)
    rays = [np.outer(v, v.conj()) for v in basis.T]
    left = [sum(rays[i : i + rank]) for i in range(0, 4, rank)] + [random_projector(rng, 4, rank)]
    expected = np.zeros((4 // rank, max(cluster_of_ray) + 1), dtype=bool)
    for ray, cluster in enumerate(cluster_of_ray):
        expected[ray // rank, cluster] = True
    for U in (basis, random_unitary(rng, 4)):
        A = U @ np.diag(values) @ U.conj().T
        hits = _cluster_hits(left, (A + A.conj().T) / 2)
        if U is basis:
            assert np.array_equal(hits[:-1], expected)


@pytest.mark.parametrize("angle, touches", [(0.8e-9, False), (1.2e-9, True), (1.6e-9, True)])
def test_cluster_table_at_a_ray_turned_near_tau(angle, touches):
    # The rays of test_touch_masks_at_a_ray_turned_near_tau: e0 against the
    # quantity with value 1 on the turned ray v and 0 on its complement.
    e0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
    v = np.array([np.sin(angle), np.cos(angle), 0.0])
    assert _cluster_hits([e0], np.outer(v, v).astype(complex)).tolist() == [[True, touches]]


def test_cluster_table_rejects_a_quantity_of_another_dimension():
    _, vecs, starts = _clusters(np.diag([1.0, 2.0, 3.0, 4.0, 5.0]), Tolerances())
    with pytest.raises(DimensionMismatch, match="different Hilbert spaces"):
        cluster_table(np.eye(4, dtype=complex)[None], vecs, starts)


def test_touch_masks_reject_mixed_dimensions_on_the_left():
    left = [np.eye(4, dtype=complex), np.eye(5, dtype=complex)]
    right = [np.eye(4, dtype=complex)]
    with pytest.raises(DimensionMismatch):
        touch_masks(left, right, TAU)
    with pytest.raises(DimensionMismatch):
        touch_table(left, right)


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, complex(0, np.inf), 1e300, 2e60], ids=repr)
def test_array_data_that_is_not_finite_or_too_large_is_a_validation_error(entry):
    # Such entries warned (overflow, invalid value) or passed as NaN; every
    # call that takes array data refuses them at operators._complex.
    A = np.diag([1.0, 2.0, 3.0]).astype(complex)
    A[0, 1] = A[1, 0] = entry
    for call in (is_self_adjoint, is_projector, spectral_decomposition, lambda M: projector_leq(M, M)):
        with pytest.raises(ValidationError, match="expected numeric array data"):
            call(A)
    A[0, 1] = A[1, 0] = 1e60  # the largest entry array data may hold
    assert is_self_adjoint(A)


@pytest.mark.parametrize("tau", [None, "1e-9", 0.0, -1e-9, float("nan"), True, [1e-9]], ids=repr)
def test_a_single_context_tau_follows_the_tolerance_rule(tau):
    # The rule of Tolerances: a str or None tau escaped as TypeError, a NaN
    # one refused every matrix, and close itself still takes tau = 0.
    for call in (lambda: is_self_adjoint(np.eye(2), tau), lambda: is_projector(np.eye(2), tau),
                 lambda: projector_leq(np.eye(2), np.eye(2), tau)):
        with pytest.raises(ValidationError, match="^tau: must be a finite positive number"):
            call()
    assert close(np.eye(2), np.eye(2), 0.0)


@pytest.mark.parametrize("r", [None, "1", float("nan"), True, 1j, 10**400], ids=repr)
def test_spectral_family_at_refuses_a_point_that_is_no_real_number(r):
    decomp = spectral_decomposition(np.diag([1.0, 2.0]))
    with pytest.raises(ValidationError, match="interval must be a pair of numbers"):
        spectral_family_at(decomp, r)
    assert not spectral_family_at(decomp, -np.inf).any()
    assert np.allclose(spectral_family_at(decomp, np.float32(1.5)), np.diag([1.0, 0.0]))


def test_as_operator_and_require_projector_return_a_complex_ndarray_itself():
    # The two functions that may alias caller data: a complex ndarray comes
    # back as it is, other data as a new complex array.
    P = np.diag([1.0, 0.0]).astype(complex)
    assert as_operator(P) is P
    assert require_projector(P) is P
    real = np.diag([1.0, 0.0])
    for R in (as_operator(real), require_projector(real), require_projector(real.tolist())):
        assert R is not real and R.dtype == complex and not np.shares_memory(R, real)


def test_a_projector_changed_in_place_after_passing_is_checked_again():
    P = np.diag([1.0, 0.0, 0.0]).astype(complex)
    assert require_projector(P) is P
    P[0, 0] = 2.0
    with pytest.raises(NotProjector):
        require_projector(P)
    P[0, 0] = 1.0
    assert require_projector(P) is P


def test_a_failing_matrix_fails_on_every_call():
    A = np.diag([2.0, 0.0])
    for _ in range(2):
        with pytest.raises(NotProjector):
            require_projector(A)


def test_the_same_bytes_pass_at_a_loose_tau_and_then_fail_at_a_strict_one():
    # ||P^2 - P||_F is about 2e-6.
    P = np.diag([1.0 + 1e-6, 0.0]).astype(complex)
    require_projector(P, 1e-3)
    with pytest.raises(NotProjector, match="tau=1e-09"):
        require_projector(P, 1e-9)
    require_projector(P, 1e-3)


@pytest.mark.parametrize("tau", [0.0, -1.0, float("nan"), True, "1e-9"])
def test_a_projector_that_passed_still_has_its_tau_checked(tau):
    P = np.diag([1.0, 0.0]).astype(complex)
    require_projector(P)
    with pytest.raises(ValidationError, match="tau"):
        require_projector(P, tau)
