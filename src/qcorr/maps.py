"""Measurement-induced linear maps on density matrices.

A linear map on a d-dimensional system can be written as a d^2 x d^2 matrix
in two index arrangements.  The "A" arrangement acts directly on flattened
density matrices,

    rho'[i, j] = sum_{k, l} A[(i, j), (k, l)] rho[k, l],

while the "B" arrangement swaps the inner indices, B[(i,k),(j,l)] =
A[(i,j),(k,l)].  Hermiticity preservation of the map makes B Hermitian as a
matrix, so its spectrum is real and decides complete positivity: all
eigenvalues nonnegative means the map has an operator-sum (POVM-style)
form, a negative eigenvalue means it does not (NCP).

This module builds such maps for a projective measurement performed on an
ancilla-extended system.  The extension is described by an assignment map:
a basis {P_a} of system states that spans the Hermitian operators, and an
assigned ancilla state tau_a for each basis element.  The duals {Q_a}, with
Tr[P_a Q_b] = delta_ab and sum Q = I, follow from the basis.  The assigned
extension of rho is sum_a Tr[rho Q_a] tau_a (x) P_a; pinching it by the
measurement and tracing out the ancilla (one operation, shared with the
residual state of :mod:`qcorr.quantumness`) is the induced map, for
projectors of any rank.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Tuple

import numpy as np

from .errors import DimensionMismatch, DualsDoNotResolveIdentity, NotDensity, SingularBasis
from .linalg import EXACT_TOL, ROUNDING_TOL
from .linalg import _square_operators, bloch_states, hermitian_eig, partial_trace, realign, tensor_product
from .measurement import ProjectiveMeasurement, _measure_extension
from .states import KET_0, KET_1, validate_density

#: A basis whose Gram determinant is below this is linearly dependent.
_SINGULAR_GRAM_DET = 1e-12


@dataclass(frozen=True)
class _MapMatrix:
    """A complex d^2 x d^2 map matrix in one of the two arrangements."""

    d: int
    tensor: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.tensor, dtype=complex)
        if t.shape != (self.d**2, self.d**2):
            raise DimensionMismatch(f"expected shape {(self.d**2,) * 2}, got {t.shape}")
        object.__setattr__(self, "tensor", t)


class AMap(_MapMatrix):
    """Map matrix acting on row-major flattened density matrices."""


class BMap(_MapMatrix):
    """Realigned map matrix; Hermitian whenever the map preserves Hermiticity."""


@dataclass(frozen=True)
class KrausDecomposition:
    """Spectral form of a B matrix: weights and d x d operators."""

    weights: np.ndarray
    operators: Tuple[np.ndarray, ...]


@dataclass(frozen=True)
class MapClass:
    verdict: str  # "CP" or "NCP"
    min_eigenvalue: float


@dataclass(frozen=True)
class AmapConditions:
    hermiticity_residual: float
    trace_residual: float


@dataclass(frozen=True)
class AssignmentMap:
    """Basis states and the ancilla state assigned to each.

    The basis must span the Hermitian operators of its dimension; its duals
    are then unique and are derived by :func:`dual_Q`, which raises
    :class:`SingularBasis` for a basis that does not span.
    """

    basis: Tuple[np.ndarray, ...]
    assigned: Tuple[np.ndarray, ...]
    duals: Tuple[np.ndarray, ...] = field(init=False)

    def __post_init__(self):
        basis = _square_operators(self.basis, "basis element")
        duals = dual_Q(basis)
        assigned = _square_operators(self.assigned, "assigned state")
        if len(assigned) != len(basis):
            raise DimensionMismatch(f"got {len(basis)} basis elements, {len(assigned)} assigned states")
        for t in assigned:
            validate_density(t, (t.shape[0],))
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "duals", duals)
        object.__setattr__(self, "assigned", assigned)

    @property
    def system_dim(self) -> int:
        return self.basis[0].shape[0]

    @property
    def ancilla_dim(self) -> int:
        return self.assigned[0].shape[0]


@dataclass(frozen=True)
class MeasurementMaps:
    """Constructed maps plus the intermediate quantities of the derivation."""

    a: AMap
    b: BMap
    projector_marginals: Tuple[np.ndarray, ...]  # rho^A_i = Tr_ancilla[Pi_i]
    overlaps: np.ndarray  # q[i, a] = Tr[Pi_i (tau_a (x) P_a) Pi_i]
    eta: Tuple[np.ndarray, ...]  # eta_a = Tr_ancilla sum_i Pi_i (tau_a (x) P_a) Pi_i
    conditions: AmapConditions


def apply_amap(a: AMap, rho: np.ndarray) -> np.ndarray:
    """Act on a matrix: rho'[i,j] = sum_kl A[(i,j),(k,l)] rho[k,l]."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (a.d, a.d):
        raise DimensionMismatch(f"state shape {rho.shape} does not match map dimension {a.d}")
    if not np.all(np.isfinite(rho)):
        raise NotDensity("state has non-finite entries")
    return (a.tensor @ rho.reshape(-1)).reshape(a.d, a.d)


def check_amap_conditions(a: AMap) -> AmapConditions:
    """Residuals of the Hermiticity and trace-preservation conditions.

    Hermiticity: A[(i,j),(k,l)] = conj(A[(j,i),(l,k)]).
    Trace:       sum_i A[(i,i),(k,l)] = delta_kl.
    """
    d = a.d
    t = a.tensor.reshape(d, d, d, d)
    herm = float(np.max(np.abs(t - t.transpose(1, 0, 3, 2).conj())))
    col_sums = np.einsum("iikl->kl", t)
    trace = float(np.max(np.abs(col_sums - np.eye(d))))
    return AmapConditions(hermiticity_residual=herm, trace_residual=trace)


def realign_a_to_b(a: AMap) -> BMap:
    return BMap(a.d, realign(a.tensor))


def realign_b_to_a(b: BMap) -> AMap:
    return AMap(b.d, realign(b.tensor))


def spectral_decompose(b: BMap) -> KrausDecomposition:
    """Eigen-decompose B into weights and reshaped d x d operators.

    The map action is recovered as rho -> sum_a w_a M_a rho M_a^dag.  B must
    be Hermitian within ``ROUNDING_TOL``.
    """
    eig = hermitian_eig(b.tensor)
    ops = tuple(eig.eigenvectors[:, j].reshape(b.d, b.d) for j in range(b.d**2))
    return KrausDecomposition(weights=eig.eigenvalues, operators=ops)


def apply_kraus(k: KrausDecomposition, rho: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    return sum(w * m @ rho @ m.conj().T for w, m in zip(k.weights, k.operators))


def classify(b: BMap) -> MapClass:
    """CP iff the B spectrum is nonnegative within ``ROUNDING_TOL``."""
    min_eig = float(hermitian_eig(b.tensor).eigenvalues[0])
    return MapClass(verdict="CP" if min_eig >= -ROUNDING_TOL else "NCP", min_eigenvalue=min_eig)


def qubit_basis_P() -> Tuple[np.ndarray, ...]:
    """Four linearly independent qubit states spanning the Hermitian 2x2 space:
    the +1 eigenstates of sigma_1, sigma_2, sigma_3 and the -1 eigenstate of sigma_1."""
    return tuple(bloch_states(np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, 0, 0]])))


def dual_Q(basis: Sequence[np.ndarray]) -> Tuple[np.ndarray, ...]:
    """Hermitian duals of an operator basis: Tr[P_a Q_b] = delta_ab, sum Q = I.

    The basis must span the full Hermitian space of its dimension, so the
    duals are fixed by the Gram matrix alone; the resolution-of-identity
    property is then verified rather than imposed, and its failure (which
    happens whenever some basis state is not unit trace) is an error.
    """
    mats = _square_operators(basis, "basis element")
    d = mats[0].shape[0]
    if len(mats) != d * d:
        raise SingularBasis(f"need {d*d} basis elements to span, got {len(mats)}")
    if not all(np.all(np.isfinite(p)) for p in mats):
        raise SingularBasis("basis has non-finite entries")
    gram = np.array([[np.trace(p @ q).real for q in mats] for p in mats])
    if not abs(np.linalg.det(gram)) >= _SINGULAR_GRAM_DET:
        raise SingularBasis("basis Gram matrix is singular")
    inv = np.linalg.inv(gram)
    duals = tuple(
        sum(inv[b, g] * mats[g] for g in range(len(mats))) for b in range(len(mats))
    )
    if not np.max(np.abs(sum(duals) - np.eye(d))) <= EXACT_TOL:
        raise DualsDoNotResolveIdentity(
            "duals of this basis do not sum to the identity"
        )
    return duals


def example_assignment() -> AssignmentMap:
    """Assignment used by the worked NCP-map example: the standard qubit
    basis with ancilla states |0><0| for the two sigma_1 eigenstates and
    |1><1| for the remaining pair."""
    basis = qubit_basis_P()
    tau0 = KET_0.projector()
    tau1 = KET_1.projector()
    return AssignmentMap(basis=basis, assigned=(tau0, tau1, tau1, tau0))


def assignment_apply(am: AssignmentMap, rho: np.ndarray) -> np.ndarray:
    """Extend a system state to ancilla (x) system via the assignment.

    Expands rho over the basis using the duals, r_a = Tr[rho Q_a], and
    returns sum_a r_a tau_a (x) P_a.
    """
    rho = np.asarray(rho, dtype=complex)
    d = am.system_dim
    if rho.shape != (d, d):
        raise DimensionMismatch(f"state shape {rho.shape} does not match system dimension {d}")
    if not np.all(np.isfinite(rho)):
        raise NotDensity("state has non-finite entries")
    out = np.zeros((am.ancilla_dim * d,) * 2, dtype=complex)
    for q, tau, p in zip(am.duals, am.assigned, am.basis):
        r = np.trace(rho @ q)
        out += r * tensor_product(tau, p)
    return out


def build_measurement_maps(am: AssignmentMap, m: ProjectiveMeasurement) -> MeasurementMaps:
    """Construct the A/B maps induced by measuring the assigned extension.

    For each basis element, X_a = tau_a (x) P_a is pinched by the projectors
    Pi_i on ancilla (x) system, and

        q[i, a] = Tr[Pi_i X_a Pi_i]
        eta_a   = Tr_ancilla sum_i Pi_i X_a Pi_i
        B       = sum_a eta_a (x) Q_a^T,   A = realign(B)

    so that apply_amap(A, rho) = sum_a Tr[rho Q_a] eta_a is the pinched
    extension of rho traced over the ancilla, for projectors of any rank.
    When every Pi_i has rank 1, eta_a = sum_i q[i, a] rho^A_i with the
    projector marginals rho^A_i = Tr_ancilla[Pi_i].  The measurement must
    act on ancilla (x) system, or :class:`DimensionMismatch` is raised.
    """
    dims = (am.ancilla_dim, am.system_dim)
    overlaps = np.empty((len(m), len(am.basis)))
    eta = []
    for a, (tau, p) in enumerate(zip(am.assigned, am.basis)):
        reduced, overlaps[:, a], _ = _measure_extension(tensor_product(tau, p), dims, m)
        eta.append(reduced)
    marginals = tuple(partial_trace(pi, dims, [1]) for pi in m.projectors)
    b = BMap(am.system_dim, sum(tensor_product(eta_a, q.T) for eta_a, q in zip(eta, am.duals)))
    a = realign_b_to_a(b)
    return MeasurementMaps(
        a=a,
        b=b,
        projector_marginals=marginals,
        overlaps=overlaps,
        eta=tuple(eta),
        conditions=check_amap_conditions(a),
    )
