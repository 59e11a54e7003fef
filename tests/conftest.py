"""Shared fixtures: the standard-basis poset on C^4 and friends."""

from __future__ import annotations

from importlib import resources

import numpy as np
import pytest

from toposqt.contexts import build_poset, context_from_basis
from toposqt.problems import load_problem, problem_poset

_ACCEPTANCE_RESULTS: list[tuple[int, str, bool]] = []


def record_acceptance(number: int, description: str, passed: bool) -> None:
    _ACCEPTANCE_RESULTS.append((number, description, passed))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, description, passed in sorted(_ACCEPTANCE_RESULTS):
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {number:2d} {status}  {description}")


@pytest.fixture(scope="session")
def std_projectors():
    e = np.eye(4, dtype=complex)
    return tuple(np.outer(e[i], e[i]) for i in range(4))


@pytest.fixture(scope="session")
def maximal_context():
    return context_from_basis(np.eye(4))


@pytest.fixture(scope="session")
def poset11(maximal_context):
    """Poset generated by the standard basis of C^4: 11 contexts."""
    return build_poset([maximal_context])


@pytest.fixture(scope="session")
def second_basis():
    """A second maximal context sharing the first two standard rays."""
    e = np.eye(4, dtype=complex)
    q3 = (e[2] + e[3]) / np.sqrt(2)
    q4 = (e[2] - e[3]) / np.sqrt(2)
    return context_from_basis([e[0], e[1], q3, q4])


@pytest.fixture(scope="session")
def poset_two_bases(maximal_context, second_basis):
    return build_poset([maximal_context, second_basis])


@pytest.fixture(scope="session")
def sz():
    return np.diag([2.0, 0.0, 0.0, -2.0]).astype(complex)


@pytest.fixture(scope="session")
def spin2_poset():
    """The poset of the shipped spin2 problem (11 contexts)."""
    return problem_poset(load_problem(resources.files("toposqt.data") / "spin2.json"))


@pytest.fixture(scope="session")
def ks18_poset():
    """The poset of the shipped 18-ray problem (81 contexts)."""
    return problem_poset(load_problem(resources.files("toposqt.data") / "ks18.json"))


def haar_basis(dim: int, seed: int = 0) -> np.ndarray:
    """A Haar-random orthonormal basis of C^dim, as the rows of a unitary."""
    rng = np.random.default_rng([seed, dim])
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return (q * (np.diag(r) / np.abs(np.diag(r)))).T


def locate(poset, atoms):
    """Find the poset context with the given atoms, failing the test if absent."""
    context = poset.find(atoms)
    assert context is not None, "expected context missing from poset"
    return context


def random_small_poset(seed: int):
    """A poset on C^3 or C^4 from one to three orthonormal bases, each made
    from an earlier one by rotating a random pair of its vectors, so that
    the bases share rays and meet.  Every down-set has at most 14 contexts."""
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(3, 5))
    bases = [np.eye(dim, dtype=complex)]
    for _ in range(int(rng.integers(0, 3))):
        basis = bases[int(rng.integers(len(bases)))].copy()
        i, j = rng.choice(dim, size=2, replace=False)
        angle = rng.uniform(0.2, 1.3)
        c, s = np.cos(angle), np.sin(angle)
        basis[[i, j]] = c * basis[i] + s * basis[j], -s * basis[i] + c * basis[j]
        bases.append(basis)
    return build_poset([context_from_basis(b) for b in bases])


#: Four partitions of the rays of a Fourier basis of C^6, one projector set
#: each.  The meet {014}{235} of the first and the third has two blocks of
#: several atoms of either, so it is no seed's coarsening (a coarsening keeps
#: all but one block a single atom).  Neither is {012}{345}, the meet of the
#: fourth with the meet {01}{2}{345} of the second and the third; no two
#: seeds meet in it, and that middle meet is also a coarsening of the third.
FOURIER_PARTITIONS = (
    ((0, 4), (1,), (2, 5), (3,)),
    ((0,), (1,), (2,), (3,), (4, 5)),
    ((0, 1), (2,), (3, 5), (4,)),
    ((0, 2), (1,), (3, 5), (4,)),
)


def fourier_rays(dim: int = 6) -> np.ndarray:
    """The rank-one projections onto the Fourier basis vectors of C^dim."""
    k = np.arange(dim)
    vectors = np.exp(2j * np.pi * np.outer(k, k) / dim) / np.sqrt(dim)
    return np.array([np.outer(v, v.conj()) for v in vectors])


def projector_set_problem() -> dict:
    """A problem file body whose seeds are the FOURIER_PARTITIONS projector
    sets: each block of rays gives one generator."""
    rays = fourier_rays()

    def matrix(block) -> list:
        return [[[float(z.real), float(z.imag)] for z in row] for row in sum(rays[i] for i in block)]

    return {"dim": 6, "projector_sets": [[matrix(b) for b in part] for part in FOURIER_PARTITIONS]}
