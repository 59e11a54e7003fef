"""Dense complex operator algebra on small Hilbert spaces.

Everything downstream (contexts, spectra, daseinisation) reduces to a handful
of exact-mathematics predicates evaluated with explicit floating-point
tolerances: self-adjointness, projection checks, spectral decompositions,
cumulative spectral families, the projector and spectral orders, and the
touch test ||ab||_F > tau between families of projections.

Operators are plain complex ``numpy`` arrays; values returned by this module
are freshly allocated and never aliased to caller data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, NotProjector, NotSelfAdjoint

#: Default tolerance for operator identity checks (A == B entrywise, Frobenius).
TAU = 1e-9

#: Default tolerance for eigenvalue clustering and spectrum membership.
TAU_EIG = 1e-8


def as_operator(entries) -> np.ndarray:
    """Coerce to a square complex matrix."""
    A = np.asarray(entries, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {A.shape}")
    return A


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex)


def zero(dim: int) -> np.ndarray:
    return np.zeros((dim, dim), dtype=complex)


def close(A: np.ndarray, B: np.ndarray, tau: float = TAU) -> bool:
    """Frobenius-norm equality within ``tau``."""
    return float(np.linalg.norm(np.asarray(A) - np.asarray(B))) <= tau


def is_self_adjoint(A, tau: float = TAU) -> bool:
    A = as_operator(A)
    return close(A, A.conj().T, tau)


def is_projector(P, tau: float = TAU) -> bool:
    """Self-adjoint and idempotent within ``tau``."""
    P = as_operator(P)
    return is_self_adjoint(P, tau) and close(P @ P, P, tau)


def require_self_adjoint(A, tau: float = TAU) -> np.ndarray:
    A = as_operator(A)
    if not is_self_adjoint(A, tau):
        raise NotSelfAdjoint(f"matrix differs from its conjugate transpose beyond tau={tau}")
    return A


def require_projector(P, tau: float = TAU) -> np.ndarray:
    P = as_operator(P)
    if not is_projector(P, tau):
        raise NotProjector(f"matrix is not an orthogonal projection within tau={tau}")
    return P


def require_same_dim(A: np.ndarray, B: np.ndarray) -> None:
    if A.shape != B.shape:
        raise DimensionMismatch(f"operands have shapes {A.shape} and {B.shape}")


def projector_rank(P: np.ndarray) -> int:
    """Rank of a projection, read off its trace."""
    return int(round(float(np.trace(P).real)))


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (strictly increasing) with their spectral projectors.

    The projectors are pairwise orthogonal and sum to the identity; clustered
    eigenvalues share a single projector.
    """

    eigenvalues: tuple[float, ...]
    projectors: tuple[np.ndarray, ...]

    @property
    def dim(self) -> int:
        return self.projectors[0].shape[0]

    def reconstruct(self) -> np.ndarray:
        out = zero(self.dim)
        for lam, proj in zip(self.eigenvalues, self.projectors):
            out += lam * proj
        return out


def spectral_decomposition(A, tau: float = TAU, tau_eig: float = TAU_EIG) -> SpectralDecomposition:
    """Eigendecomposition with eigenvalues clustered within ``tau_eig``.

    Clusters are the connected components of the union of intervals of radius
    ``tau_eig`` around each raw eigenvalue, so nearly degenerate eigenvalues
    map to a single projector.
    """
    A = require_self_adjoint(A, tau)
    raw, vecs = np.linalg.eigh(A)
    clusters: list[list[int]] = [[0]]
    for i in range(1, len(raw)):
        if raw[i] - raw[clusters[-1][-1]] <= 2.0 * tau_eig:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    eigenvalues = []
    projectors = []
    for idx in clusters:
        eigenvalues.append(float(np.mean(raw[idx])))
        block = vecs[:, idx]
        projectors.append(block @ block.conj().T)
    return SpectralDecomposition(tuple(eigenvalues), tuple(projectors))


def spectral_family_at(decomp: SpectralDecomposition, r: float, tau_eig: float = TAU_EIG) -> np.ndarray:
    """Sum of spectral projectors with eigenvalue <= r (within ``tau_eig``)."""
    out = zero(decomp.dim)
    for lam, proj in zip(decomp.eigenvalues, decomp.projectors):
        if lam <= r + tau_eig:
            out += proj
    return out


def touch_masks(left: Sequence[np.ndarray], right: Sequence[np.ndarray], tau: float) -> list[int]:
    """For each left projection a, the bitmask of the right projections b it
    touches (||ab||_F > tau): the one place where a tolerance meets geometry."""
    if len({a.shape for a in (*left, *right)}) > 1:
        raise DimensionMismatch("atoms live on different Hilbert spaces")
    norms = np.linalg.norm(np.asarray(left)[:, None] @ np.asarray(right)[None, :], axis=(2, 3))
    return [sum(1 << j for j in np.flatnonzero(row > tau).tolist()) for row in norms]


def projector_leq(P, Q, tau: float = TAU) -> bool:
    """Projector order: P <= Q iff QPQ == P within ``tau``."""
    P = require_projector(P, tau)
    Q = require_projector(Q, tau)
    require_same_dim(P, Q)
    return close(Q @ P @ Q, P, tau)


def spectral_order_leq(A, B, tau: float = TAU, tau_eig: float = TAU_EIG) -> bool:
    """Spectral order: A <= B iff E^A_r >= E^B_r for all r.

    Both cumulative families are constant between consecutive points of the
    merged eigenvalue grid, so checking the grid points decides the order.
    """
    A = require_self_adjoint(A, tau)
    B = require_self_adjoint(B, tau)
    require_same_dim(A, B)
    da = spectral_decomposition(A, tau, tau_eig)
    db = spectral_decomposition(B, tau, tau_eig)
    grid = sorted(set(da.eigenvalues) | set(db.eigenvalues))
    for r in grid:
        ea = spectral_family_at(da, r, tau_eig)
        eb = spectral_family_at(db, r, tau_eig)
        if not projector_leq(eb, ea, tau):
            return False
    return True
