"""Seeded inputs for the toposqt benchmark.

Everything the library receives is made here from the workload seed: problem
files written to disk for the ``build`` workload, and plain numpy arrays
(projectors, states, observables) for ``query`` and ``heyting``.  The *shape*
of every input list is fixed -- which dimensions, how many bases, which rays
are shared, how many propositions of each kind -- and only the numbers depend
on the seed, so op counts and exact counters repeat from seed to seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Single-basis dimension ladder of the ``build`` workload.  Rungs from
#: ``TRACED_ONLY_DIM`` up are built only by traced runs.  The dim-6 and dim-7
#: builds take about 1.7 and 6 s; with them a run has room for only one or two
#: passes.
LADDER_DIMS = (4, 5, 6, 7)
TRACED_ONLY_DIM = 6

#: Multi-basis problems of the ``build`` workload: (name, dim, shared rays).
#: With the timed ladder and the two shipped files they make 9 problems, an
#: odd count, so the median op is one problem (the dim-5 ladder rung) rather
#: than the mean of two problems of very different cost.
#: ``shared[k]`` lists, for basis k > 0, the (basis, ray) pairs it copies from
#: earlier bases (copied rays must be mutually orthogonal); every other ray of
#: basis k is a fresh Haar-random direction in the complement of the copied ones.
MULTI_SPECS = (
    ("multi-d4-2b-1s", 4, (((0, 0),),)),
    ("multi-d4-3b-1s", 4, (((0, 0),), ((1, 1),))),
    ("multi-d5-2b-1s", 5, (((0, 0),),)),
    ("multi-d5-2b-2s", 5, (((0, 0), (0, 1)),)),
    ("multi-d5-3b-2s", 5, (((0, 0), (0, 1)), ((0, 0), (1, 2)))),
)


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed unitary (QR of a complex Ginibre matrix, phase-fixed)."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_state(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _pairs(values) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(values).reshape(-1)]


def problem_dict(dim: int, bases) -> dict:
    """A problem file body with the given bases (lists of vectors)."""
    return {"dim": dim, "bases": [[_pairs(v) for v in basis] for basis in bases]}


def read_bases(path: Path) -> list[list[np.ndarray]]:
    """Basis vectors of a problem file, read with plain json (not the library)."""
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    return [
        [np.array([complex(re, im) for re, im in vec]) for vec in basis]
        for basis in raw.get("bases", [])
    ]


def multi_bases(rng: np.random.Generator, dim: int, shared) -> list[list[np.ndarray]]:
    """Bases where later bases copy some rays (with a random phase) of earlier ones."""
    bases = [list(haar_unitary(rng, dim).T)]
    for copies in shared:
        kept = [bases[b][r] * np.exp(2j * np.pi * rng.random()) for b, r in copies]
        k = len(kept)
        # Orthonormal completion of the copied rays, then a Haar rotation of
        # the complement so no further ray coincides with an earlier basis.
        q, _ = np.linalg.qr(np.column_stack(kept + list(np.eye(dim, dtype=complex))))
        complement = q[:, k:dim] @ haar_unitary(rng, dim - k)
        bases.append(kept + list(complement.T))
    return bases


@dataclass(frozen=True)
class BuildCase:
    """One problem file of the ``build`` workload."""

    name: str
    tag: str  # per-layer metric suffix: dim4..dim7, ks18, spin2, multi
    path: Path
    timed: bool = True  # False: built only by traced runs


def make_build_inputs(seed: int, out_dir: Path, data_dir: Path, small: bool = False) -> tuple[list[BuildCase], dict[Path, str]]:
    """The seeded problem files of the ``build`` workload: the cases, and the
    text to write to each generated file (``write_files``).

    ``small`` keeps only the dim-4 and dim-5 problems (benchmark self-test).
    """
    rng = np.random.default_rng([seed, 1])
    cases = []
    texts = {}
    for dim in LADDER_DIMS:
        U = haar_unitary(rng, dim)
        if small and dim > 5:
            continue
        path = out_dir / f"single-d{dim}.json"
        texts[path] = json.dumps(problem_dict(dim, [list(U.T)]))
        cases.append(BuildCase(f"single-d{dim}", f"dim{dim}", path, dim < TRACED_ONLY_DIM))
    for name in ("spin2", "ks18"):
        if small and name == "ks18":
            continue
        cases.append(BuildCase(name, name, data_dir / f"{name}.json"))
    for name, dim, shared in MULTI_SPECS:
        bases = multi_bases(rng, dim, shared)
        if small and dim > 4:
            continue
        path = out_dir / f"{name}.json"
        texts[path] = json.dumps(problem_dict(dim, bases))
        cases.append(BuildCase(name, "multi", path))
    return cases, texts


def write_files(texts: dict[Path, str]) -> None:
    for path, text in texts.items():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


# -- arrays for the query and heyting workloads -------------------------------


@dataclass(frozen=True)
class PosetInputs:
    """Seeded arrays aimed at one shipped poset.

    *Aligned* inputs are built from the problem's own rays: projectors are
    sums of one to three rays of a basis, states are rays, observables are
    members of a maximal context with a repeated eigenvalue.  *Generic*
    inputs are Haar-random.
    """

    aligned_projectors: tuple[np.ndarray, ...]
    generic_projectors: tuple[np.ndarray, ...]
    aligned_states: tuple[np.ndarray, ...]
    generic_states: tuple[np.ndarray, ...]
    observables: tuple[np.ndarray, ...]  # aligned, generic, aligned, generic, ...


def _degenerate_spectrum(rng: np.random.Generator, dim: int) -> np.ndarray:
    values = np.round(rng.uniform(-3.0, 3.0, size=dim), 3)
    values[1] = values[0]  # one repeated eigenvalue so tau_eig clustering matters
    return values


def poset_inputs(seed: int, name: str, bases, count: int) -> PosetInputs:
    """``count`` inputs of each kind for the poset of the given problem bases."""
    rng = np.random.default_rng([seed, 2, sum(map(ord, name))])
    dim = len(bases[0])
    aligned_p, generic_p, aligned_s, generic_s, observables = [], [], [], [], []
    for k in range(count):
        basis = bases[rng.integers(len(bases))]
        rank = 1 + k % 3
        picked = rng.choice(dim, size=rank, replace=False)
        aligned_p.append(sum(np.outer(basis[i], basis[i].conj()) for i in picked))
        W = haar_unitary(rng, dim)[:, :rank]
        generic_p.append(W @ W.conj().T)
        ray = basis[rng.integers(dim)]
        aligned_s.append(ray / np.linalg.norm(ray))
        generic_s.append(random_state(rng, dim))
        member = bases[rng.integers(len(bases))]
        values = _degenerate_spectrum(rng, dim)
        A = sum(lam * np.outer(v, v.conj()) for lam, v in zip(values, member))
        U = haar_unitary(rng, dim)
        G = U @ np.diag(_degenerate_spectrum(rng, dim)) @ U.conj().T
        observables += [(A + A.conj().T) / 2, (G + G.conj().T) / 2]
    return PosetInputs(
        tuple(aligned_p), tuple(generic_p), tuple(aligned_s), tuple(generic_s), tuple(observables)
    )
