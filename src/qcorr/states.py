"""Density-matrix model, worked example states, and state builders."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, NotDensity, NotProbability, OutOfRange, UnsupportedDimension
from .linalg import EXACT_TOL, ROUNDING_TOL, ZERO_WEIGHT_TOL, partial_trace, tensor_product
from .linalg import _as_square, _phase_fixed_eig, _square_operators, hermiticity_defect, subsystem_dims


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
    """Convex mixture of product states, kept as its explicit terms.

    The factors may be given as matrices or as :class:`DensityMatrix`; they
    are stored as tuples of complex arrays, the A factors of one square shape
    and the B factors of another.  A NaN or infinite factor entry raises
    :class:`NotDensity`.
    """

    weights: np.ndarray
    a_states: tuple
    b_states: tuple

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if not (w.ndim == 1 and w.size == len(self.a_states) == len(self.b_states)):
            raise DimensionMismatch(
                f"got weights of shape {w.shape}, {len(self.a_states)} A factors, {len(self.b_states)} B factors"
            )
        if not (np.all(w >= -ZERO_WEIGHT_TOL) and abs(w.sum() - 1.0) <= ROUNDING_TOL):
            raise NotProbability(f"ensemble weights sum to {w.sum()}")
        a_states = _square_operators([_matrix_of(a) for a in self.a_states], "A factor")
        b_states = _square_operators([_matrix_of(b) for b in self.b_states], "B factor")
        if not (np.isfinite(a_states).all() and np.isfinite(b_states).all()):
            raise NotDensity("ensemble factor has non-finite entries")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "a_states", a_states)
        object.__setattr__(self, "b_states", b_states)

    def assemble(self) -> np.ndarray:
        """Sum of weighted Kronecker products of the term factors."""
        terms = [w * tensor_product(a, b) for w, a, b in zip(self.weights, self.a_states, self.b_states)]
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


def _require_density_spectrum(trace: float, lowest: float) -> None:
    """:class:`NotDensity` unless ``trace`` is 1 and ``lowest`` at least ``-ROUNDING_TOL``."""
    if abs(trace - 1.0) > ROUNDING_TOL:
        raise NotDensity(f"trace {trace} deviates from 1 beyond {ROUNDING_TOL:.1e}")
    if lowest < -ROUNDING_TOL:
        raise NotDensity(f"eigenvalue {lowest:.3e} below -{ROUNDING_TOL:.1e}")


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
    m = _as_square(m)
    if math.prod(dims) != m.shape[0]:
        raise DimensionMismatch(f"dims {dims} do not match matrix side {m.shape[0]}")

    defect = hermiticity_defect(m)
    if defect > ROUNDING_TOL:
        raise NotDensity(f"Hermiticity defect {defect:.3e} exceeds {ROUNDING_TOL:.1e}")
    eig = _phase_fixed_eig(m)
    vals = eig.eigenvalues
    _require_density_spectrum(m.trace().real, vals.min())
    if vals.min() < 0.0:
        clipped = np.maximum(vals, 0.0)
        v = eig.eigenvectors
        m = (v * clipped) @ v.conj().T
        m = (m + m.conj().T) / 2
        m = m / m.trace().real
    return DensityMatrix(dims, m, witness=witness)


def _require_two_qubits(rho: DensityMatrix, task: str) -> None:
    """:class:`UnsupportedDimension` unless ``rho`` has dims (2, 2), which ``task`` needs."""
    if tuple(rho.dims) != (2, 2):
        raise UnsupportedDimension(f"{task} requires dims (2, 2), got {tuple(rho.dims)}")


def pure_state(k: Ket, dims: Sequence[int]) -> DensityMatrix:
    return validate_density(k.projector(), dims)


def _example_terms(p: float) -> list:
    """The worked example's terms of positive weight as (weight, factor on A and on B, ancilla flag).

    ``p`` must be a number in [0, 1], not a bool: :class:`OutOfRange` otherwise.
    """
    if isinstance(p, (bool, np.bool_)) or not 0.0 <= p <= 1.0:
        raise OutOfRange(f"mixing weight p={p!r} outside [0, 1]")
    terms = [(p, KET_0.projector(), KET_1.projector()), (1.0 - p, KET_PLUS.projector(), KET_0.projector())]
    return [term for term in terms if term[0] > 0.0]


def example_separable(p: float) -> DensityMatrix:
    """Two-qubit mixture of |00><00| and |++><++| with weight ``p`` on the first.

    Separable for every ``p`` yet known to carry non-classical correlations
    for intermediate mixing.  The state is assembled from its product terms
    of positive weight, which it carries as its witness.
    """
    terms = _example_terms(p)
    factors = tuple(f for _, f, _ in terms)
    witness = SeparableEnsemble(np.array([w for w, _, _ in terms]), factors, factors)
    return validate_density(witness.assemble(), (2, 2), witness=witness)


def example_extension(p: float) -> DensityMatrix:
    """Three-qubit extension of :func:`example_separable` by one ancilla qubit.

    Ordering is ancilla x A x B; each product term of the example is flagged
    by its own ancilla state, and tracing the ancilla out recovers it.
    """
    terms = _example_terms(p)
    return validate_density(np.sum([w * kron_all(flag, f, f) for w, f, flag in terms], axis=0), (2, 2, 2))


def classical_correlated(weights, projectors, states) -> DensityMatrix:
    """Assemble ``sum_a q_a P_a (x) tau_a`` from orthogonal projectors on A.

    ``projectors`` is a :class:`~qcorr.measurement.ProjectiveMeasurement` on
    the A factor (or any sequence of projector matrices that passes its
    checks), ``states`` the matching B-side density matrices, each checked
    by :func:`validate_density`: one that is not a density matrix raises
    :class:`NotDensity`, whatever its weight.  The term traces
    ``q_a Tr P_a`` must be non-negative and sum to one.  The state is
    assembled from its witness: the ensemble of weights ``q_a Tr P_a`` and
    factors ``P_a / Tr P_a`` and ``tau_a``, skipping terms with ``q_a`` at
    most ``ZERO_WEIGHT_TOL``.
    """
    from .measurement import ProjectiveMeasurement  # a local import: measurement imports this module

    proj_list = ProjectiveMeasurement(tuple(getattr(projectors, "projectors", projectors))).projectors
    state_list = _square_operators([_matrix_of(s) for s in states], "B state")
    for tau in state_list:
        validate_density(tau, (tau.shape[0],))
    w = np.asarray(weights, dtype=float)
    if not (len(proj_list) == len(state_list) == w.size):
        raise DimensionMismatch(f"got {w.size} weights, {len(proj_list)} projectors, {len(state_list)} states")
    ranks = np.array([pi.trace().real for pi in proj_list])
    traces = w * ranks
    if not (np.all(traces >= -ZERO_WEIGHT_TOL) and abs(traces.sum() - 1.0) <= ROUNDING_TOL):
        raise NotProbability(f"term traces q_a Tr P_a sum to {traces.sum()}")
    kept = [a for a, q in enumerate(w) if q > ZERO_WEIGHT_TOL]
    a_out = tuple(proj_list[a] / ranks[a] for a in kept)
    witness = SeparableEnsemble(traces[kept], a_out, tuple(state_list[a] for a in kept))
    return validate_density(witness.assemble(), (proj_list[0].shape[0], state_list[0].shape[0]), witness=witness)


def random_density(dims: Sequence[int], seed: int) -> DensityMatrix:
    """Seeded Wishart-style random state: G G^dag normalized to unit trace.

    ``seed`` must be a non-negative integer, not a bool: :class:`OutOfRange`
    otherwise.  ``dims`` are checked by :func:`~qcorr.linalg.subsystem_dims`.
    """
    dims = subsystem_dims(dims)
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise OutOfRange(f"seed {seed!r} must be a non-negative integer")
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
