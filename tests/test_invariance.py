"""The poset and what is read off it do not depend on the frame.

The shipped problems are rebuilt under a seeded Haar unitary U and under a
1e-12 perturbation of every basis vector.  Each context is mapped to its
counterpart by ``find``; under that bijection the order, the section count,
the truth sieves of one (P, psi) pair and the interval values (mu, nu) of one
quantity agree, with P, psi and the quantity moved by U.  Context ids need
not agree: under U every id changes.
"""

from __future__ import annotations

from importlib import resources

import numpy as np
import pytest

from oracles import random_unitary
from toposqt.contexts import build_poset, context_from_basis
from toposqt.presheaf import Character
from toposqt.problems import load_problem
from toposqt.valuation import global_sections, quantity_value_arrow, truth_value


def _problem(name: str):
    with resources.as_file(resources.files("toposqt.data") / f"{name}.json") as path:
        return load_problem(path)


def _moved(problem, change: str, rng: np.random.Generator):
    # The seed bases changed as named, and the unitary that moves the
    # operators along (the identity for a perturbation).
    dim, tau = problem.dim, problem.tolerances.tau
    if change == "unitary":
        u = random_unitary(rng, dim)
        bases = [[u @ v for v in basis] for basis in problem.bases]
    else:
        u = np.eye(dim)
        bases = [[v + 1e-12 * (rng.normal(size=dim) + 1j * rng.normal(size=dim)) for v in basis]
                 for basis in problem.bases]
    return build_poset([context_from_basis(b, tau) for b in bases], tau), u


@pytest.mark.parametrize("change", ["unitary", "perturbation"])
@pytest.mark.parametrize("name", ["spin2", "ks18"])
def test_poset_reads_agree_under_a_unitary_and_a_perturbation(name, change):
    problem = _problem(name)
    tau = problem.tolerances.tau
    poset = build_poset([context_from_basis(b, tau) for b in problem.bases], tau)
    rng = np.random.default_rng([20261018, len(poset)])
    moved, u = _moved(problem, change, rng)

    def move(a):
        return u @ a @ u.conj().T

    # The bijection, and each context's atom order against its counterpart's.
    image, atom_map = {}, {}
    for c in poset:
        found = moved.find([move(a) for a in c.atoms])
        assert found is not None
        image[c.id] = found.id
        atom_map[c.id] = [int(np.argmin([np.abs(move(a) - b).max() for b in found.atoms])) for a in c.atoms]
        assert sorted(atom_map[c.id]) == list(range(c.n_atoms))
    assert len(moved) == len(poset) == len(set(image.values()))
    if change == "unitary":
        assert not set(image) & set(image.values())

    for sub in poset.ids:
        for sup in poset.ids:
            assert moved.is_leq(image[sub], image[sup]) == poset.is_leq(sub, sup)
    assert len(global_sections(moved)) == len(global_sections(poset))

    # P is an atom of a seeded context and psi a seeded ray inside it, so
    # that some sieves are not empty.
    context = poset.get(poset.ids[int(rng.integers(len(poset)))])
    P = context.atoms[int(rng.integers(context.n_atoms))]
    psi = P @ (rng.normal(size=problem.dim) + 1j * rng.normal(size=problem.dim))
    psi /= np.linalg.norm(psi)
    truth, moved_truth = truth_value(poset, P, psi), truth_value(moved, move(P), u @ psi)
    assert any(truth.at(cid).members for cid in poset.ids)
    for cid in poset.ids:
        assert moved_truth.at(image[cid]).members == {image[m] for m in truth.at(cid).members}

    # A quantity with one eigenvalue per atom of the first seed.
    A = sum(k * a for k, a in enumerate(poset.get(poset.ids[0]).atoms))
    for c in poset:
        for i, j in enumerate(atom_map[c.id]):
            pair = quantity_value_arrow(poset, A, c, Character(c.id, i))
            found = moved.get(image[c.id])
            moved_pair = quantity_value_arrow(moved, move(A), found, Character(found.id, j))
            for sub in poset.down_ids(c.id):
                assert moved_pair.mu[image[sub]] == pytest.approx(pair.mu[sub], abs=1e-9)
                assert moved_pair.nu[image[sub]] == pytest.approx(pair.nu[sub], abs=1e-9)
