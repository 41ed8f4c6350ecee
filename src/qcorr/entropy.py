"""Shannon and von Neumann entropies, relative entropy, mutual information.

Everything is measured in bits.  Relative entropy returns ``math.inf``
instead of raising when the first argument has weight outside the support
of the second; optimizers treat that value as "worst possible".
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, NegativeEigenvalue, NotProbability
from .linalg import EXACT_TOL, ROUNDING_TOL, ZERO_WEIGHT_TOL, hermitian_eig, require_hermitian
from .states import DensityMatrix, _matrix_of

#: Weight of rho tolerated outside supp(sigma) before reporting infinity.
SUPPORT_LEAK_TOL = 1e-8


def _check_probability_vector(p: np.ndarray) -> np.ndarray:
    """``p`` flattened, with rounding negatives (down to ``-ZERO_WEIGHT_TOL``) set to 0."""
    p = np.asarray(p, dtype=float).reshape(-1)
    if not np.all(p >= -ZERO_WEIGHT_TOL):  # also true for a NaN entry
        raise NotProbability(f"negative or NaN entry {p.min()}")
    if not abs(p.sum() - 1.0) <= EXACT_TOL:
        raise NotProbability(f"entries sum to {p.sum()}")
    return np.maximum(p, 0.0)


def _entropy_bits(p: np.ndarray) -> float:
    """-sum x log2 x over the positive entries of ``p``; negative rounding counts as 0."""
    nz = p[p > 0.0]
    return float(-np.sum(nz * np.log2(nz)))


def shannon_entropy(p) -> float:
    """H(p) = -sum p log2 p with the 0 log 0 = 0 convention."""
    return _entropy_bits(_check_probability_vector(p))


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
    return _entropy_bits(hermitian_eig(_matrix_of(rho)).eigenvalues)


def relative_entropy(rho, sigma) -> float:
    """S(rho || sigma) = Tr[rho log2 rho] - Tr[rho log2 sigma].

    Eigenvalues of ``sigma`` at or below ``ROUNDING_TOL`` span its kernel.
    Returns ``math.inf`` when ``rho`` carries more than ``SUPPORT_LEAK_TOL``
    weight there, and raises :class:`NegativeEigenvalue` when ``rho`` does
    not leak and ``sigma`` has an eigenvalue below ``-ROUNDING_TOL``.
    Otherwise every positive eigenvalue of ``sigma`` enters the logarithm,
    so the weight ``rho`` puts on small ones counts in full.
    """
    r = _matrix_of(rho)
    s = _matrix_of(sigma)
    if r.shape != s.shape:
        raise DimensionMismatch(f"shape mismatch {r.shape} vs {s.shape}")
    require_hermitian(s)
    s_r = von_neumann_entropy(r)
    vals, vecs = np.linalg.eigh((s + s.conj().T) / 2)
    kernel = vals <= ROUNDING_TOL
    if np.any(kernel):
        v_ker = vecs[:, kernel]
        if np.trace(v_ker.conj().T @ r @ v_ker).real > SUPPORT_LEAK_TOL:
            return math.inf
        if vals[0] < -ROUNDING_TOL:
            raise NegativeEigenvalue(
                f"eigenvalue {vals[0]:.3e} below -{ROUNDING_TOL:.1e}; matrix is not PSD"
            )
    logs = np.log2(np.where(vals > 0.0, vals, 1.0))
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

