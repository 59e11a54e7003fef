"""Dense complex operator algebra on small Hilbert spaces.

Everything downstream (contexts, spectra, daseinisation) reduces to a handful
of exact-mathematics predicates evaluated with explicit floating-point
tolerances: self-adjointness, projection checks, spectral decompositions,
cumulative spectral families, the projector and spectral orders, the
touch test between families of projections, and the spectral bounds of an
atom read off it.  There is one touch rule: a touches b iff
||ab||_F^2 > tau^2, an entry of ``touch_table``, whose rows add up over
orthogonal atoms.

Operators are plain complex ``numpy`` arrays; values returned by this module
are freshly allocated and never aliased to caller data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, NotProjector, NotSelfAdjoint, ValidationError

#: Default tolerance for operator identity checks (A == B entrywise, Frobenius).
TAU = 1e-9

#: Default tolerance for eigenvalue clustering and spectrum membership.
TAU_EIG = 1e-8

#: Least tolerance of the orthonormality test: vectors written as decimals
#: (0.70710678...) are rounded, so a tau below this would reject them.
ORTHONORMAL_FLOOR = 1e-9


def as_operator(entries) -> np.ndarray:
    """Coerce to a square complex matrix."""
    A = np.asarray(entries, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or not A.size:
        raise DimensionMismatch(f"expected a nonempty square matrix, got shape {A.shape}")
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


def is_orthonormal(vectors, tau: float = TAU) -> bool:
    """Every entry of the Gram matrix within tau of the identity's; tau is
    floored at ORTHONORMAL_FLOOR, the rounding of vectors given as decimals.
    A unit vector is an orthonormal family of one."""
    vecs = np.asarray(vectors, dtype=complex)
    return bool(np.abs(vecs.conj() @ vecs.T - np.eye(len(vecs))).max() <= max(tau, ORTHONORMAL_FLOOR))


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
    values = raw.tolist()
    # Each cluster is the slice raw[i:j]; its mean np.add.reduce / count is
    # bit-identical to np.mean (the same pairwise sum), without its overhead.
    starts = [0] + [i for i in range(1, len(values)) if values[i] - values[i - 1] > 2.0 * tau_eig]
    eigenvalues = []
    projectors = []
    for i, j in zip(starts, starts[1:] + [len(values)]):
        eigenvalues.append(float(np.add.reduce(raw[i:j]) / (j - i)))
        block = vecs[:, i:j]
        projectors.append(block @ block.conj().T)
    return SpectralDecomposition(tuple(eigenvalues), tuple(projectors))


def spectral_family_at(decomp: SpectralDecomposition, r: float, tau_eig: float = TAU_EIG) -> np.ndarray:
    """Sum of spectral projectors with eigenvalue <= r (within ``tau_eig``)."""
    out = zero(decomp.dim)
    for lam, proj in zip(decomp.eigenvalues, decomp.projectors):
        if lam <= r + tau_eig:
            out += proj
    return out


def touch_table(left: Sequence[np.ndarray], right: Sequence[np.ndarray]) -> np.ndarray:
    """||ab||_F^2 for each left projection a (row) and each right projection
    b (column), summed from the entries of the product ab.  Every touch test
    of the library is an entry of this table compared with tau^2.

    For pairwise-orthogonal a_1, ..., a_k, ||(a_1 + ... + a_k) b||_F^2 is the
    sum of the rows' entries, so the table of a family's atoms decides the
    touch test for every sum of them.  tr(ab) would equal it in exact
    arithmetic, but its rounding (about 1e-16) lies far above tau^2.
    """
    if len({a.shape for a in (*left, *right)}) > 1:
        raise DimensionMismatch("atoms live on different Hilbert spaces")
    left = np.asarray(left)
    n, dim = len(left), left.shape[-1]
    # One matrix product: entry [a, i, b, j] is (ab)[i, j].
    products = (left.reshape(n * dim, dim) @ np.concatenate(right, axis=1)).reshape(n, dim, len(right), dim)
    return np.einsum("aibj,aibj->ab", products.conj(), products).real


def touch_masks(left: Sequence[np.ndarray], right: Sequence[np.ndarray], tau: float) -> list[int]:
    """For each left projection a, the bitmask of the right projections b it
    touches (touch_table entry > tau^2)."""
    hits = touch_table(left, right) > tau * tau
    return [sum(1 << j for j, hit in enumerate(row) if hit) for row in hits.tolist()]


def _two_valued(P: np.ndarray) -> SpectralDecomposition:
    # A projection read as the quantity with value 0 on 1 - P and 1 on P.
    return SpectralDecomposition((0.0, 1.0), (identity(P.shape[0]) - P, P))


def table_bounds(rows: np.ndarray, eigenvalues: Sequence[float], tau: float) -> list[tuple[float, float]]:
    """For each row of a touch_table against the spectral projections of a
    quantity, or each sum of its rows, the least and the greatest eigenvalue
    whose projection the row touches (entry > tau^2)."""
    lam, last = eigenvalues, len(eigenvalues) - 1
    hits = rows > tau * tau
    try:
        return [(lam[row.index(True)], lam[last - row[::-1].index(True)]) for row in hits.tolist()]
    except ValueError:
        raise ValidationError(f"an atom touches no projection of the family at tau={tau}") from None


def spectral_bounds(decomp: SpectralDecomposition, atoms, tau: float) -> list[tuple[float, float]]:
    """For each atom, the least and the greatest eigenvalue whose spectral
    projection the atom touches."""
    return table_bounds(touch_table(atoms, decomp.projectors), decomp.eigenvalues, tau)


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
