"""Dense complex operator algebra on small Hilbert spaces.

Everything downstream (contexts, spectra, daseinisation) reduces to a handful
of exact-mathematics predicates evaluated with explicit floating-point
tolerances: self-adjointness, projection checks, spectral decompositions,
cumulative spectral families, the projector and spectral orders, the
touch test between families of projections, and the spectral bounds of an
atom read off it (``table_bounds``).  There is one touch rule: a touches b
iff ||ab||_F^2 > tau^2, an entry of ``touch_table``, whose rows add up over
orthogonal atoms.  Against a quantity's spectral projections P_c = V_c V_c^*
every bound reads it off the eigenvector clusters, by ``cluster_table``:
||aV_c||_F^2 = ||aP_c||_F^2, with the same test, and no P_c is formed.

Operators are plain complex ``numpy`` arrays.  ``as_operator`` and
``require_projector`` return the caller's array itself when it is a complex
ndarray already; every other array this module returns is freshly allocated.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Mapping, Set
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._json import brief_repr, finite_number
from .errors import DimensionMismatch, NotProjector, NotSelfAdjoint, ValidationError

#: Default tolerance for operator identity checks (A == B entrywise, Frobenius).
TAU = 1e-9

#: Default tolerance for eigenvalue clustering and spectrum membership.
TAU_EIG = 1e-8


@dataclass(frozen=True)
class Tolerances:
    """Both tolerances, kept as floats after the one tolerance rule: a NaN or
    infinite tau_eig would merge the whole spectrum, a zero one drop endpoints."""

    tau: float = TAU
    tau_eig: float = TAU_EIG

    def __post_init__(self) -> None:
        for name in ("tau", "tau_eig"):
            object.__setattr__(self, name, _tau(getattr(self, name), f"tolerances.{name}"))


def _tau(value, name: str = "tau") -> float:
    # The one tolerance rule, of Tolerances and of every single-context tau.
    if not (finite_number(value) and value > 0):
        raise ValidationError(f"{name}: must be a finite positive number, got {brief_repr(value)}")
    return float(value)


#: Largest real or imaginary part of an entry of array data: the squares of
#: products of two entries (||A @ A - A||_F) then stay finite in every check.
_MAX_ENTRY = 1e60


def _array(data) -> np.ndarray:
    # Array data converted once to a complex array, the caller's own array if
    # it is one; data that numpy cannot read as numbers raise ValidationError.
    try:
        return np.asarray(data, dtype=complex)
    except (TypeError, ValueError, OverflowError):
        raise _bad_data(data) from None


def _bad_data(data) -> ValidationError:
    return ValidationError(f"expected numeric array data, finite and at most {_MAX_ENTRY:g}, got {brief_repr(data)}")


def _bounded(A: np.ndarray, data) -> np.ndarray:
    # The entry-bound test of A, converted from data by _array: NaN, infinite
    # or larger entries raise ValidationError.
    if not np.abs(A.ravel().view(float)).max(initial=0.0) <= _MAX_ENTRY:
        raise _bad_data(data)
    return A


def _complex(data) -> np.ndarray:
    # The one check of array data, as a complex array.
    return _bounded(_array(data), data)


def _listed(items, name: str) -> list:
    # An iterable argument as a list; anything else raises ValidationError.
    try:
        return list(items)
    except TypeError:
        raise ValidationError(f"{name}: expected an iterable, got {brief_repr(items)}") from None


def as_operator(entries) -> np.ndarray:
    """Coerce to a square complex matrix (``ValidationError`` for data that are not numbers)."""
    return _operator(_array(entries), entries)


def _operator(A: np.ndarray, data) -> np.ndarray:
    # as_operator's checks of A, converted from data by _array.  A caller that
    # keys an operand by its converted bytes runs them only on a miss.
    _bounded(A, data)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or not A.size:
        raise DimensionMismatch(f"expected a nonempty square matrix, got shape {A.shape}")
    return A


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex)


def zero(dim: int) -> np.ndarray:
    return np.zeros((dim, dim), dtype=complex)


def close(A: np.ndarray, B: np.ndarray, tau: float = TAU) -> bool:
    """Frobenius-norm equality within ``tau``: np.linalg.norm(A - B) <= tau,
    by norm's own formula (the same value, without its dispatch)."""
    d = np.asarray(A) - np.asarray(B)
    d = (d if d.dtype.kind in "fc" else d.astype(float)).ravel(order="K")
    re, im = d.real, d.imag
    return math.sqrt(re.dot(re) + im.dot(im)) <= tau


def _self_adjoint(A: np.ndarray, tau: float, idempotent: bool = False) -> bool:
    # The rule of both checks, on an array already coerced by as_operator.
    tau = _tau(tau)
    return close(A, A.conj().T, tau) and (not idempotent or close(A @ A, A, tau))


def is_self_adjoint(A, tau: float = TAU) -> bool:
    return _self_adjoint(as_operator(A), tau)


def is_projector(P, tau: float = TAU) -> bool:
    """Self-adjoint and idempotent within ``tau``."""
    return _self_adjoint(as_operator(P), tau, idempotent=True)


def is_orthonormal(vectors, tau: float = TAU) -> bool:
    """Every entry of the Gram matrix within tau of the identity's, the same
    tau as every other check: vectors written as decimals must be accurate to
    it.  A unit vector is an orthonormal family of one."""
    vecs = _complex(vectors)
    return bool(np.abs(vecs.conj() @ vecs.T - np.eye(len(vecs))).max() <= _tau(tau))


#: The last projection that passed require_projector, as one tuple (key,
#: columns): key is its shape and bytes, as _array converts it, and its tau;
#: columns is (1 - P | P) once a call has asked for it, else None.  Equal
#: bytes at an equal tau passed every check, so a call whose key is the
#: slot's runs none of them; any other call runs them all before it is kept.
_last_projector = None


def _checked_projector(P, tau: float, columns: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
    # P converted, checked a projection at tau, and its columns if asked for.
    # The key is compared with the slot, read once, before any check: a hit
    # needs tau exactly a float (a float equal to the slot's passes _tau), and
    # a miss checks P and tau in as_operator's order, then the projection.
    global _last_projector
    data, P = P, _array(P)
    key, slot = (P.shape, P.tobytes(), tau), _last_projector
    if slot is None or type(tau) is not float or slot[0] != key:
        _operator(P, data)
        key = (*key[:2], _tau(tau))
        if not _self_adjoint(P, key[2], idempotent=True):
            raise NotProjector(f"matrix is not an orthogonal projection within tau={tau}")
        slot = _last_projector = (key, None)
    if columns and slot[1] is None:
        slot = _last_projector = (key, np.concatenate((identity(P.shape[0]) - P, P), axis=1))
    return P, slot[1]


def require_projector(P, tau: float = TAU) -> np.ndarray:
    return _checked_projector(P, tau)[0]


def require_same_dim(A: np.ndarray, B: np.ndarray) -> None:
    if A.shape != B.shape:
        raise DimensionMismatch(f"operands have shapes {A.shape} and {B.shape}")


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
    return _decompose(A, Tolerances(tau, tau_eig))


def _clusters(A, tolerances: Tolerances) -> tuple[tuple[float, ...], np.ndarray, list[int]]:
    # The one clustering rule, of an operator already coerced by as_operator
    # at a pair already checked (such as a poset's): A checked self-adjoint
    # at tau, the cluster eigenvalues (increasing), eigh's eigenvectors as
    # columns and the first column of each cluster.
    # Each cluster is the slice raw[i:j]; its mean np.add.reduce / count is
    # bit-identical to np.mean (the same pairwise sum), without its overhead,
    # and a singleton's mean is its value.
    tau, tau_eig = tolerances.tau, tolerances.tau_eig
    if not _self_adjoint(A, tau):
        raise NotSelfAdjoint(f"matrix differs from its conjugate transpose beyond tau={tau}")
    raw, vecs = np.linalg.eigh(A)
    values = raw.tolist()
    starts = [0] + [i for i in range(1, len(values)) if values[i] - values[i - 1] > 2.0 * tau_eig]
    eigenvalues = tuple(values[i] if j - i == 1 else float(np.add.reduce(raw[i:j]) / (j - i))
                        for i, j in zip(starts, starts[1:] + [len(values)]))
    return eigenvalues, vecs, starts


def _decompose(A, tolerances: Tolerances) -> SpectralDecomposition:
    # spectral_decomposition at a pair already checked, such as a poset's.
    eigenvalues, vecs, starts = _clusters(as_operator(A), tolerances)
    vh = vecs.conj().T
    ends = starts[1:] + [len(vecs)]
    return SpectralDecomposition(eigenvalues, tuple(vecs[:, i:j] @ vh[i:j] for i, j in zip(starts, ends)))


def _spectral_projection(decomp: SpectralDecomposition, interval, tau_eig: float) -> np.ndarray:
    # Sum of the spectral projectors with eigenvalue in [lo - tau_eig, hi + tau_eig],
    # for the one interval rule: a pair of real numbers (not bools) lo <= hi,
    # an infinite end leaving its side open; any other interval raises ValidationError.
    try:
        lo, hi = (float(x) if isinstance(x, numbers.Real) and not isinstance(x, bool) else math.nan for x in interval)
    except (TypeError, ValueError, OverflowError):
        lo = hi = math.nan
    if isinstance(interval, (str, bytes, Set, Mapping)) or not lo <= hi:
        raise ValidationError(f"interval must be a pair of numbers lo <= hi, got {brief_repr(interval)}")
    lo, hi = lo - tau_eig, hi + tau_eig
    out = zero(decomp.dim)
    for lam, proj in zip(decomp.eigenvalues, decomp.projectors):
        if lo <= lam <= hi:
            out += proj
    return out


def spectral_family_at(decomp: SpectralDecomposition, r: float, tau_eig: float = TAU_EIG) -> np.ndarray:
    """Sum of spectral projectors with eigenvalue <= r (within ``tau_eig``):
    the projection on the interval (-inf, r)."""
    return _spectral_projection(decomp, (-math.inf, r), _tau(tau_eig, "tau_eig"))


def touch_table(left: Sequence[np.ndarray], right: Sequence[np.ndarray]) -> np.ndarray:
    """||ab||_F^2 for each left projection a (row) and each right projection
    b (column), summed from the entries of the product ab.  Every touch test
    of the library is an entry of this table compared with tau^2, or, against
    a quantity's spectral projections, the equal entry of ``cluster_table``.

    For pairwise-orthogonal a_1, ..., a_k, ||(a_1 + ... + a_k) b||_F^2 is the
    sum of the rows' entries, so the table of a family's atoms decides the
    touch test for every sum of them.  tr(ab) would equal it in exact
    arithmetic, but its rounding (about 1e-16) lies far above tau^2.
    """
    stacked = isinstance(left, np.ndarray)  # a stack's rows share its shape[1:]
    shapes = {left.shape[1:], *[b.shape for b in right]} if stacked else {a.shape for a in (*left, *right)}
    if len(shapes) > 1:
        raise DimensionMismatch("atoms live on different Hilbert spaces")
    return _column_table(np.asarray(left), np.concatenate(right, axis=1))


def _column_table(left: np.ndarray, columns: np.ndarray) -> np.ndarray:
    # touch_table of a stack against right projections side by side, (b_1 | ... | b_m).
    n, dim = len(left), left.shape[-1]
    if len(columns) != dim:
        raise DimensionMismatch("atoms live on different Hilbert spaces")
    # One matrix product: entry [a, i, b, j] is (ab)[i, j].
    products = (left.reshape(n * dim, dim) @ columns).reshape(n, dim, -1, dim)
    return np.einsum("aibj,aibj->ab", products.conj(), products).real


def cluster_table(left: np.ndarray, vecs: np.ndarray, starts: Sequence[int]) -> np.ndarray:
    """||aV_c||_F^2 for each projection a (row) of a stack and each eigenvalue
    cluster c (column) of a quantity, whose orthonormal eigenvectors are the
    columns of vecs from starts[c] up to the next start.  It equals
    ||aP_c||_F^2, the touch_table entry against the cluster's spectral
    projection P_c = V_c V_c^*, without forming P_c: the sum over k in c of
    ||av_k||^2, still a sum of squares (an orthogonal pair reads about 1e-32),
    compared with tau^2 by the same touch test.
    """
    if left.shape[1:] != vecs.shape:
        raise DimensionMismatch("atoms live on different Hilbert spaces")
    n, dim = len(left), len(vecs)
    # One matrix product: entry [a, i, k] is (a v_k)[i].
    products = (left.reshape(n * dim, dim) @ vecs).reshape(n, dim, dim)
    return np.add.reduceat(np.einsum("aij,aij->aj", products.conj(), products).real, starts, axis=1)


def touch_masks(left: Sequence[np.ndarray], right: Sequence[np.ndarray], tau: float) -> list[int]:
    """For each left projection a, the bitmask of the right projections b it
    touches (touch_table entry > tau^2)."""
    tau = _tau(tau)
    hits = touch_table(left, right) > tau * tau
    return [sum(1 << j for j, hit in enumerate(row) if hit) for row in hits.tolist()]


def table_bounds(rows: np.ndarray, eigenvalues: Sequence[float], tau: float) -> list[tuple[float, float]]:
    """For each row of a touch_table against the spectral projections of a
    quantity, or of its cluster_table, or each sum of its rows, the least and
    the greatest eigenvalue whose projection the row touches (entry > tau^2)."""
    lam, last = eigenvalues, len(eigenvalues) - 1
    hits = rows > tau * tau
    try:
        return [(lam[row.index(True)], lam[last - row[::-1].index(True)]) for row in hits.tolist()]
    except ValueError:
        raise ValidationError(f"an atom touches no projection of the family at tau={tau}") from None


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
    da, db = spectral_decomposition(A, tau, tau_eig), spectral_decomposition(B, tau, tau_eig)
    require_same_dim(da.projectors[0], db.projectors[0])
    for r in sorted(set(da.eigenvalues) | set(db.eigenvalues)):
        ea, eb = (_spectral_projection(d, (-math.inf, r), tau_eig) for d in (da, db))
        if not close(ea @ eb @ ea, eb, tau):  # eb <= ea in the projector order
            return False
    return True
