"""Density-matrix model, worked example states, and state builders."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, NotDensity, NotProbability, OutOfRange
from .linalg import EXACT_TOL, ROUNDING_TOL, ZERO_WEIGHT_TOL
from .linalg import hermitian_eig, hermiticity_defect, partial_trace, subsystem_dims, tensor_product


@dataclass(frozen=True)
class Ket:
    """Unit-norm state vector."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        norm = np.linalg.norm(amp)
        if not abs(norm - 1.0) <= EXACT_TOL:  # also true for a NaN norm
            raise NotDensity(f"ket norm {norm} deviates from 1 beyond {EXACT_TOL:g}")
        object.__setattr__(self, "amplitudes", amp)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def projector(self) -> np.ndarray:
        return np.outer(self.amplitudes, self.amplitudes.conj())


def ket(*amplitudes: complex) -> Ket:
    """Normalize the given amplitudes into a :class:`Ket`."""
    amp = np.asarray(amplitudes, dtype=complex)
    norm = np.linalg.norm(amp)
    if not 0.0 < norm < math.inf:  # also rejects NaN
        raise NotDensity(f"amplitudes of norm {norm} cannot be normalized")
    return Ket(amp / norm)


def basis_ket(dim: int, index: int) -> Ket:
    amp = np.zeros(dim, dtype=complex)
    amp[index] = 1.0
    return Ket(amp)


KET_0 = basis_ket(2, 0)
KET_1 = basis_ket(2, 1)
KET_PLUS = ket(1, 1)
KET_MINUS = ket(1, -1)


def kron_all(*factors: np.ndarray) -> np.ndarray:
    out = np.asarray(factors[0], dtype=complex)
    for f in factors[1:]:
        out = tensor_product(out, f)
    return out


@dataclass(frozen=True)
class SeparableEnsemble:
    """Convex mixture of product states, kept as its explicit terms."""

    weights: np.ndarray
    a_states: tuple
    b_states: tuple

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if not (np.all(w >= -ZERO_WEIGHT_TOL) and abs(w.sum() - 1.0) <= ROUNDING_TOL):
            raise NotProbability(f"ensemble weights sum to {w.sum()}")
        object.__setattr__(self, "weights", w)

    def assemble(self) -> np.ndarray:
        """Sum of weighted Kronecker products of the term factors."""
        terms = [
            w * tensor_product(_matrix_of(a), _matrix_of(b))
            for w, a, b in zip(self.weights, self.a_states, self.b_states)
        ]
        return np.sum(terms, axis=0)


def _matrix_of(state) -> np.ndarray:
    return state.matrix if isinstance(state, DensityMatrix) else np.asarray(state, dtype=complex)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, PSD, unit-trace matrix with a subsystem signature.

    ``witness`` optionally records an explicit separable decomposition for
    states that are separable by construction; downstream estimators can
    use it to certify a zero distance to the separable set without search.
    """

    dims: tuple
    matrix: np.ndarray
    witness: Optional[SeparableEnsemble] = field(default=None, compare=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def marginal(self, keep: Iterable[int]) -> "DensityMatrix":
        keep = sorted(set(keep))
        reduced = partial_trace(self.matrix, self.dims, keep)
        return DensityMatrix(tuple(self.dims[i] for i in keep), reduced)


def validate_density(
    m: np.ndarray, dims: Sequence[int], witness: Optional[SeparableEnsemble] = None
) -> DensityMatrix:
    """Check the density-matrix invariants and return a clean state.

    ``dims`` must name at least one subsystem, each of positive dimension,
    with product the matrix side; otherwise :class:`DimensionMismatch`.
    Hermiticity and unit trace must hold within ``ROUNDING_TOL``.
    Eigenvalues in ``(-ROUNDING_TOL, 0)`` are clipped to zero and the matrix is
    renormalized to unit trace; anything worse, or any NaN or infinite
    entry, raises :class:`NotDensity`.
    """
    m = np.asarray(m, dtype=complex)
    if not np.all(np.isfinite(m)):
        raise NotDensity("matrix has non-finite entries")
    dims = subsystem_dims(dims)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    if math.prod(dims) != m.shape[0]:
        raise DimensionMismatch(f"dims {dims} do not match matrix side {m.shape[0]}")

    defect = hermiticity_defect(m)
    if defect > ROUNDING_TOL:
        raise NotDensity(f"Hermiticity defect {defect:.3e} exceeds {ROUNDING_TOL:.1e}")
    trace = m.trace().real
    if abs(trace - 1.0) > ROUNDING_TOL:
        raise NotDensity(f"trace {trace} deviates from 1 beyond {ROUNDING_TOL:.1e}")

    eig = hermitian_eig(m)
    vals = eig.eigenvalues
    if vals.min() < -ROUNDING_TOL:
        raise NotDensity(f"eigenvalue {vals.min():.3e} below -{ROUNDING_TOL:.1e}")
    if vals.min() < 0.0:
        clipped = np.maximum(vals, 0.0)
        v = eig.eigenvectors
        m = (v * clipped) @ v.conj().T
        m = (m + m.conj().T) / 2
        m = m / m.trace().real
    return DensityMatrix(dims, m, witness=witness)


def pure_state(k: Ket, dims: Sequence[int]) -> DensityMatrix:
    return validate_density(k.projector(), dims)


def example_separable(p: float) -> DensityMatrix:
    """Two-qubit mixture of |00><00| and |++><++| with weight ``p`` on the first.

    Separable for every ``p`` yet known to carry non-classical correlations
    for intermediate mixing; its explicit product decomposition is attached
    as a witness.
    """
    if not 0.0 <= p <= 1.0:
        raise OutOfRange(f"mixing weight p={p} outside [0, 1]")
    zz = kron_all(KET_0.projector(), KET_0.projector())
    pp = kron_all(KET_PLUS.projector(), KET_PLUS.projector())
    matrix = p * zz + (1.0 - p) * pp

    weights, a_states, b_states = [], [], []
    if p > ZERO_WEIGHT_TOL:
        weights.append(p)
        a_states.append(KET_0.projector())
        b_states.append(KET_0.projector())
    if 1.0 - p > ZERO_WEIGHT_TOL:
        weights.append(1.0 - p)
        a_states.append(KET_PLUS.projector())
        b_states.append(KET_PLUS.projector())
    witness = SeparableEnsemble(np.array(weights), tuple(a_states), tuple(b_states))
    return validate_density(matrix, (2, 2), witness=witness)


def example_extension(p: float) -> DensityMatrix:
    """Three-qubit extension of :func:`example_separable` by one ancilla qubit.

    Ordering is ancilla x A x B; tracing out the ancilla recovers
    ``example_separable(p)`` exactly.
    """
    if not 0.0 <= p <= 1.0:
        raise OutOfRange(f"mixing weight p={p} outside [0, 1]")
    first = kron_all(KET_1.projector(), KET_0.projector(), KET_0.projector())
    second = kron_all(KET_0.projector(), KET_PLUS.projector(), KET_PLUS.projector())
    return validate_density(p * first + (1.0 - p) * second, (2, 2, 2))


def classical_correlated(weights, projectors, states) -> DensityMatrix:
    """Assemble ``sum_a q_a P_a (x) tau_a`` from orthogonal projectors on A.

    ``projectors`` is a :class:`~qcorr.measurement.ProjectiveMeasurement` on
    the A factor (or any sequence of projector matrices that passes its
    checks), ``states`` the matching B-side density matrices.  The term traces
    ``q_a Tr P_a`` must be non-negative and sum to one.  Zero-weight terms
    are skipped.  The built state carries its own ensemble as a separability
    witness.
    """
    from .measurement import ProjectiveMeasurement  # a local import: measurement imports this module

    proj_list = ProjectiveMeasurement(tuple(getattr(projectors, "projectors", projectors))).projectors
    state_list = [_matrix_of(s) for s in states]
    w = np.asarray(weights, dtype=float)
    if not (len(proj_list) == len(state_list) == w.size):
        raise DimensionMismatch(
            f"got {w.size} weights, {len(proj_list)} projectors, {len(state_list)} states"
        )
    ranks = np.array([pi.trace().real for pi in proj_list])
    traces = w * ranks
    if not (np.all(traces >= -ZERO_WEIGHT_TOL) and abs(traces.sum() - 1.0) <= ROUNDING_TOL):
        raise NotProbability(f"term traces q_a Tr P_a sum to {traces.sum()}")

    d_a = proj_list[0].shape[0]
    d_b = state_list[0].shape[0]
    matrix = np.zeros((d_a * d_b, d_a * d_b), dtype=complex)
    weights_out, a_out, b_out = [], [], []
    for q, rank, pi, tau in zip(w, ranks, proj_list, state_list):
        if q <= ZERO_WEIGHT_TOL:
            continue
        matrix += q * tensor_product(pi, tau)
        weights_out.append(q * rank)
        a_out.append(pi / rank)
        b_out.append(tau)
    witness = SeparableEnsemble(np.array(weights_out), tuple(a_out), tuple(b_out))
    return validate_density(matrix, (d_a, d_b), witness=witness)


def random_density(dims: Sequence[int], seed: int) -> DensityMatrix:
    """Seeded Wishart-style random state: G G^dag normalized to unit trace."""
    dims = tuple(int(d) for d in dims)
    n = math.prod(dims)
    if n > 8:
        raise DimensionMismatch(f"total dimension {n} exceeds the supported maximum of 8")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    w = g @ g.conj().T
    return validate_density(w / w.trace().real, dims)


def bell_state() -> DensityMatrix:
    """Maximally entangled two-qubit state (|00> + |11>)/sqrt(2)."""
    return pure_state(ket(1, 0, 0, 1), (2, 2))
