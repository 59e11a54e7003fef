"""Poset-wide touches read off the seed-atom table agree with the atom matrices.

Daseinisation, pseudo-states, truth values and interval values over a whole
poset decide each touch from one table of ||bQ||_F^2 over the seed atoms b.
The oracles in ``oracles.py`` share no code with that table: they test
||aQ||_F > tau on every coarse atom's own matrix a, one pair at a time.
Inputs aligned with a basis put many atom-projection pairs at exact
orthogonality, where a table of tr(bQ) would read rounding noise as a touch.
"""

from __future__ import annotations

from importlib import resources

import numpy as np
import pytest

from oracles import random_projector, random_unit_vector, touch_interval, touch_selection, touch_truth
from toposqt.contexts import build_poset, context_from_basis
from toposqt.daseinisation import daseinise_proposition
from toposqt.errors import DimensionMismatch, ValidationError
from toposqt.presheaf import gelfand_spectrum
from toposqt.problems import load_problem, problem_poset
from toposqt.valuation import pseudo_state, quantity_value_arrow, truth_value


def _haar(rng: np.random.Generator, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _rotated_bases(dim: int, shared: int | None, seed: int) -> list[np.ndarray]:
    # One Haar-random basis (as columns), and with ``shared`` set a second
    # basis that keeps its first ``shared`` rays and rotates the rest.
    rng = np.random.default_rng([dim, seed])
    first = _haar(rng, dim)
    if shared is None:
        return [first]
    turn = np.eye(dim, dtype=complex)
    turn[shared:, shared:] = _haar(rng, dim - shared)
    return [first, first @ turn]


def _queries(rng: np.random.Generator, bases: list[np.ndarray]):
    # Per basis, a projection on 1-3 of its rays, one of its rays as a state
    # and an observable diagonal in it with a repeated eigenvalue; then one
    # generic projection, state and observable.
    dim = bases[0].shape[0]
    projectors, states, observables = [], [], []
    for basis in bases:
        rays = rng.permutation(dim)
        chosen = basis[:, rays[: rng.integers(1, 4)]]
        projectors.append(chosen @ chosen.conj().T)
        states.append(basis[:, rays[-1]])
        values = rng.integers(-2, 3, size=dim).astype(float)
        values[1] = values[0]
        observables.append(basis @ np.diag(values) @ basis.conj().T)
    projectors.append(random_projector(rng, dim, int(rng.integers(1, 4))))
    states.append(random_unit_vector(rng, dim))
    spread = _haar(rng, dim)
    observables.append(spread @ np.diag(np.r_[1.0, 1.0, np.arange(dim - 2.0)]) @ spread.conj().T)
    return projectors, states, observables


def _rotated_case(dim: int, shared: int | None, seed: int):
    bases = _rotated_bases(dim, shared, seed)
    poset = build_poset([context_from_basis(b.T) for b in bases])
    return poset, _queries(np.random.default_rng([dim, seed, 1]), bases)


def _ks18_case():
    with resources.as_file(resources.files("toposqt.data") / "ks18.json") as path:
        problem = load_problem(path)
    bases = [np.array(b).T for b in problem.bases[::4]]
    return problem_poset(problem), _queries(np.random.default_rng(18), bases)


CASES = {
    "dim4-one": (4, None),
    "dim4-two-sharing2": (4, 2),
    "dim5-one": (5, None),
    "dim5-two-sharing1": (5, 1),
    "dim6-one": (6, None),
    "dim6-two-sharing2": (6, 2),
    "ks18": None,
}


@pytest.fixture(scope="module", params=list(CASES))
def case(request):
    spec = CASES[request.param]
    return _ks18_case() if spec is None else _rotated_case(*spec, seed=7)


def test_selections_equal_the_atom_matrix_touches(case):
    poset, (projectors, states, _) = case
    for P in projectors:
        assert daseinise_proposition(poset, P).subobject.selection == touch_selection(poset, P)
    for psi in states:
        ray = np.outer(psi, psi.conj())
        assert pseudo_state(poset, psi).subobject.selection == touch_selection(poset, ray)


def test_truth_sieves_equal_the_atom_matrix_touches(case):
    poset, (projectors, states, _) = case
    for P in projectors:
        for psi in states:
            element = truth_value(poset, P, psi)
            assert {cid: element.at(cid).members for cid in poset.ids} == touch_truth(poset, P, psi)


def test_interval_values_equal_the_atom_matrix_touches(case):
    poset, (_, _, observables) = case
    for A in observables:
        for context in poset:
            for ch in gelfand_spectrum(context):
                pair = quantity_value_arrow(poset, A, context, ch)
                assert (pair.mu, pair.nu) == touch_interval(poset, A, context, ch.atom_index)


def test_poset_wide_paths_check_the_dimension(poset11, maximal_context):
    big = np.zeros((5, 5), dtype=complex)
    big[0, 0] = 1.0
    psi = np.eye(4)[0]
    character = gelfand_spectrum(maximal_context)[0]
    with pytest.raises(DimensionMismatch):
        daseinise_proposition(poset11, big)
    with pytest.raises(DimensionMismatch):
        pseudo_state(poset11, np.eye(5)[0])
    with pytest.raises(DimensionMismatch):
        truth_value(poset11, big, psi)
    with pytest.raises(DimensionMismatch):
        truth_value(poset11, np.outer(psi, psi), np.eye(5)[0])
    with pytest.raises(DimensionMismatch):
        quantity_value_arrow(poset11, np.diag([1.0, 0.0, 0.0, 0.0, -1.0]), maximal_context, character)


def test_poset_wide_paths_reject_an_atom_touching_no_projection():
    # At tau = 0.75 every standard ray has overlap 1/sqrt(2) with both |+>
    # and its complement, so e0 touches neither P nor 1 - P.
    tau = 0.75
    poset = build_poset([context_from_basis(np.eye(4), tau)], tau)
    plus = np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2)
    P = np.outer(plus, plus)
    with pytest.raises(ValidationError, match="touches no projection"):
        daseinise_proposition(poset, P, tau)
    with pytest.raises(ValidationError, match="touches no projection"):
        truth_value(poset, P, np.eye(4)[2], tau)
