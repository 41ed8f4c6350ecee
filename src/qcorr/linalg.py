"""Dense complex linear algebra for Hilbert spaces of dimension 2 to 8.

All functions operate on plain numpy arrays and are pure: no argument is
mutated and no state is shared between calls.  Logarithms are base 2
throughout, so every derived entropy is reported in bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DimensionMismatch, NegativeEigenvalue, NotHermitian

#: Agreement up to rounding, shared by every module: Hermiticity, trace,
#: positivity, projector and insensitivity checks pass within it, and PSD
#: eigenvalues at or below it lie outside the support.
ROUNDING_TOL = 1e-10
#: Weights and probabilities at or below this count as zero.
ZERO_WEIGHT_TOL = 1e-12
#: Slack of identities exact by construction: ket norms, dual overlaps, probability sums.
EXACT_TOL = 1e-12
#: An eigenvector's first component above this magnitude fixes its phase.
_PHASE_PIVOT = 1e-8

#: The Pauli matrices sigma_x, sigma_y, sigma_z, stacked along the first axis.
PAULIS = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)
#: The two-qubit Pauli products sigma_mu (x) sigma_nu at index 4 mu + nu, with
#: sigma_0 = I, shape (16, 4, 4).
PAULI_PRODUCTS = np.array([np.kron(a, b) for a in (np.eye(2), *PAULIS) for b in (np.eye(2), *PAULIS)])


@dataclass(frozen=True)
class HermitianEigenSystem:
    """Spectral decomposition of a Hermitian matrix.

    ``eigenvalues`` is sorted ascending and ``eigenvectors`` holds the
    matching eigenvectors as columns of a unitary matrix, each with a
    deterministic phase (first significant component real and positive).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def _as_square(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    return m


def _square_operators(ops, noun: str) -> tuple:
    """``ops`` as a tuple of complex matrices of one square shape (d, d).

    An empty list, or any other shape, raises :class:`DimensionMismatch`;
    ``noun`` names one element in the message.
    """
    mats = tuple(np.asarray(m, dtype=complex) for m in ops)
    if not mats:
        raise DimensionMismatch(f"need at least one {noun}")
    d = mats[0].shape[0] if mats[0].ndim else 0
    for i, m in enumerate(mats):
        if m.shape != (d, d):
            raise DimensionMismatch(f"{noun} {i} has shape {m.shape}, expected {(d, d)}")
    return mats


def hermiticity_defect(m: np.ndarray) -> float:
    """Largest entrywise deviation between ``m`` and its adjoint."""
    m = np.asarray(m, dtype=complex)
    with np.errstate(invalid="ignore"):  # inf - inf on the diagonal gives a NaN defect
        return float(np.max(np.abs(m - m.conj().T), initial=0.0))


def require_hermitian(m: np.ndarray) -> np.ndarray:
    """``m`` as a complex square matrix; :class:`NotHermitian` beyond ``ROUNDING_TOL``."""
    m = _as_square(m)
    defect = hermiticity_defect(m)
    if not defect <= ROUNDING_TOL:  # also true for the NaN defect of a non-finite entry
        raise NotHermitian(f"matrix deviates from Hermiticity by {defect:.3e} (tol {ROUNDING_TOL:.1e})")
    return m


def bloch_states(r: np.ndarray) -> np.ndarray:
    """Qubit operators (I + r . sigma) / 2 for Bloch vectors ``r`` of shape (..., 3).

    The result has shape (..., 2, 2); it is a density matrix whenever |r| <= 1.
    """
    return 0.5 * (np.eye(2, dtype=complex) + np.einsum("...i,iab->...ab", r, PAULIS))


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with row-major composite indexing.

    Entry ``((i*db + k), (j*db + l))`` of the result is ``a[i, j] * b[k, l]``.
    """
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def hermitian_eig(m: np.ndarray) -> HermitianEigenSystem:
    """Eigendecomposition of a Hermitian matrix with deterministic output.

    Eigenvalues come back ascending; each eigenvector is rescaled by a unit
    phase so that its first component of significant magnitude is real and
    positive.  Raises :class:`NotHermitian` when the input deviates from its
    adjoint by more than ``ROUNDING_TOL``.
    """
    return _phase_fixed_eig(require_hermitian(m))


def _phase_fixed_eig(m: np.ndarray) -> HermitianEigenSystem:
    """:func:`hermitian_eig` of a complex square matrix already checked for Hermiticity."""
    vals, vecs = np.linalg.eigh(m)
    # each column is a unit vector, so its first entry above _PHASE_PIVOT exists
    pivots = vecs[np.argmax(np.abs(vecs) > _PHASE_PIVOT, axis=0), np.arange(vecs.shape[1])]
    return HermitianEigenSystem(eigenvalues=vals, eigenvectors=vecs * (pivots.conj() / np.abs(pivots)))


def matrix_log_on_support(m: np.ndarray) -> np.ndarray:
    """Base-2 logarithm of a PSD matrix, projected onto its support.

    Eigenvalues below ``-ROUNDING_TOL`` raise :class:`NegativeEigenvalue`;
    eigenvalues in ``[-ROUNDING_TOL, ROUNDING_TOL]`` are treated as zero and
    contribute nothing to the result.
    """
    eig = hermitian_eig(m)
    vals = eig.eigenvalues
    if np.any(vals < -ROUNDING_TOL):
        raise NegativeEigenvalue(
            f"eigenvalue {vals.min():.3e} below -{ROUNDING_TOL:.1e}; matrix is not PSD"
        )
    logs = np.where(vals > ROUNDING_TOL, np.log2(np.maximum(vals, ROUNDING_TOL)), 0.0)
    v = eig.eigenvectors
    return (v * logs) @ v.conj().T


def subsystem_dims(dims: Iterable[int]) -> tuple:
    """``dims`` as a tuple of ints; :class:`DimensionMismatch` unless it
    names at least one subsystem and every dimension is an integer (not a
    bool) of at least 1."""
    dims = tuple(dims)
    if not dims or not all(isinstance(d, (int, np.integer)) and not isinstance(d, bool) and d >= 1 for d in dims):
        raise DimensionMismatch(f"dims {dims} must name at least one subsystem, each an integer >= 1")
    return tuple(int(d) for d in dims)


def partial_trace(
    m: np.ndarray, dims: Iterable[int], keep: Iterable[int]
) -> np.ndarray:
    """Trace out every subsystem not listed in ``keep``.

    ``dims`` is the subsystem-dimension signature of ``m`` (row-major
    composite index); ``keep`` holds the indices of the subsystems that
    survive, in their original order.
    """
    m = _as_square(m)
    dims = subsystem_dims(dims)
    keep = sorted(set(int(k) for k in keep))
    n = len(dims)
    if math.prod(dims) != m.shape[0]:
        raise DimensionMismatch(
            f"dims {dims} imply total dimension {math.prod(dims)}, matrix has {m.shape[0]}"
        )
    if not keep:
        raise DimensionMismatch("keep must name at least one subsystem")
    if keep[0] < 0 or keep[-1] >= n:
        raise DimensionMismatch(f"keep {keep} out of range for {n} subsystems")
    if len(keep) == n:
        return m.copy()

    tensor = m.reshape(dims + dims)
    # Contract row axis i with its column twin at i + ndim/2; visiting the
    # traced subsystems in descending order keeps that pairing valid as axes
    # disappear.
    for i in sorted((i for i in range(n) if i not in keep), reverse=True):
        tensor = np.trace(tensor, axis1=i, axis2=i + tensor.ndim // 2)
    d_keep = math.prod(dims[i] for i in keep)
    return tensor.reshape(d_keep, d_keep)


def _partial_transpose(m: np.ndarray) -> np.ndarray:
    """The partial transpose on B of two-qubit matrices, shape (..., 4, 4)."""
    return m.reshape(*m.shape[:-2], 2, 2, 2, 2).swapaxes(-3, -1).reshape(m.shape)


def realign(t: np.ndarray) -> np.ndarray:
    """Swap the inner index pair of a d^2 x d^2 map matrix.

    With rows and columns read as flattened index pairs, the result R of
    ``realign(M)`` satisfies ``R[(i,k),(j,l)] = M[(i,j),(k,l)]``.  Applying
    the operation twice restores the input exactly, and it converts between
    the two standard matrix arrangements of a linear map on operators.
    """
    t = _as_square(t)
    d = int(round(np.sqrt(t.shape[0])))
    if d * d != t.shape[0]:
        raise DimensionMismatch(f"side {t.shape[0]} is not a perfect square")
    return t.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
