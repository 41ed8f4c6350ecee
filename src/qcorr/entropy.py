"""Shannon and von Neumann entropies, relative entropy, mutual information.

Everything is measured in bits.  Relative entropy returns ``math.inf``
instead of raising when the first argument has weight outside the support
of the second; optimizers treat that value as "worst possible".
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, NegativeEigenvalue, NotProbability
from .linalg import SUPPORT_CUTOFF, hermitian_eig, require_hermitian
from .states import DensityMatrix, _matrix_of

#: Weight of rho tolerated outside supp(sigma) before reporting infinity.
SUPPORT_LEAK_TOL = 1e-8


def _check_probability_vector(p: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    p = np.asarray(p, dtype=float).reshape(-1)
    if np.any(p < -tol):
        raise NotProbability(f"negative entry {p.min()}")
    if abs(p.sum() - 1.0) > tol:
        raise NotProbability(f"entries sum to {p.sum()}")
    return np.maximum(p, 0.0)


def shannon_entropy(p) -> float:
    """H(p) = -sum p log2 p with the 0 log 0 = 0 convention."""
    p = _check_probability_vector(p)
    nz = p[p > 0.0]
    return float(-np.sum(nz * np.log2(nz)))


def shannon_mutual_information(table) -> float:
    """H(A) + H(B) - H(A,B) of a joint probability table P(a, b)."""
    t = np.asarray(table, dtype=float)
    if t.ndim != 2:
        raise NotProbability(f"expected a 2-D table, got ndim {t.ndim}")
    flat = _check_probability_vector(t.reshape(-1))
    t = flat.reshape(t.shape)
    return shannon_entropy(t.sum(axis=1)) + shannon_entropy(t.sum(axis=0)) - shannon_entropy(flat)


def von_neumann_entropy(rho) -> float:
    """Shannon entropy of the spectrum; zero for pure states."""
    m = _matrix_of(rho)
    vals = hermitian_eig(m).eigenvalues
    vals = np.maximum(vals, 0.0)
    nz = vals[vals > 0.0]
    return float(-np.sum(nz * np.log2(nz)))


def relative_entropy(rho, sigma, support_tol: float = SUPPORT_LEAK_TOL) -> float:
    """S(rho || sigma) = Tr[rho log2 rho] - Tr[rho log2 sigma].

    Computed on the support of ``sigma``; if ``rho`` carries more than
    ``support_tol`` weight outside it the divergence is infinite.
    """
    r = _matrix_of(rho)
    s = _matrix_of(sigma)
    if r.shape != s.shape:
        raise DimensionMismatch(f"shape mismatch {r.shape} vs {s.shape}")
    require_hermitian(s)
    return _relative_entropy_kernel(r, von_neumann_entropy(r), s, support_tol)


def _relative_entropy_kernel(
    r: np.ndarray, s_r: float, s: np.ndarray, support_tol: float = SUPPORT_LEAK_TOL
) -> float:
    """S(r || s) given S(r), with one eigendecomposition of ``s`` and no input checks.

    Returns ``math.inf`` when ``r`` has more than ``support_tol`` weight
    outside the support of ``s``; raises :class:`NegativeEigenvalue` when
    ``s`` does not leak and is not PSD.
    """
    vals, vecs = np.linalg.eigh((s + s.conj().T) / 2)
    kernel = vals <= SUPPORT_CUTOFF
    if np.any(kernel):
        v_ker = vecs[:, kernel]
        if np.trace(v_ker.conj().T @ r @ v_ker).real > support_tol:
            return math.inf
        if vals[0] < -SUPPORT_CUTOFF:
            raise NegativeEigenvalue(
                f"eigenvalue {vals[0]:.3e} below -{SUPPORT_CUTOFF:.1e}; matrix is not PSD"
            )
    logs = np.where(kernel, 0.0, np.log2(np.maximum(vals, SUPPORT_CUTOFF)))
    log_s = (vecs * logs) @ vecs.conj().T
    return max(0.0, -s_r - float(np.trace(r @ log_s).real))


def mutual_information(rho: DensityMatrix) -> float:
    """S(rho_A) + S(rho_B) - S(rho_AB) for a bipartite state.

    Coincides with the relative entropy between the state and the product
    of its marginals.
    """
    if len(rho.dims) != 2:
        raise DimensionMismatch(f"expected a bipartite signature, got dims {rho.dims}")
    rho_a = rho.marginal([0])
    rho_b = rho.marginal([1])
    return (
        von_neumann_entropy(rho_a)
        + von_neumann_entropy(rho_b)
        - von_neumann_entropy(rho)
    )

