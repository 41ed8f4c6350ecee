"""Projective and generalized measurements on a leading subsystem block.

A measurement acts on the first ``k`` subsystems of a state's dimension
signature (k is inferred from the projector dimension); the remaining
subsystems are the undisturbed "B side".  Measurements on interior or
permuted blocks are intentionally unsupported to keep the index
arithmetic auditable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import DimensionMismatch, NotHermitian, NotProjector, NotResolutionOfIdentity
from .linalg import ROUNDING_TOL, ZERO_WEIGHT_TOL
from .linalg import bloch_states, hermiticity_defect, partial_trace, tensor_product
from .states import (
    DensityMatrix,
    KET_0,
    KET_1,
    KET_MINUS,
    KET_PLUS,
    kron_all,
    validate_density,
)


@dataclass(frozen=True)
class ProjectiveMeasurement:
    """Complete set of mutually orthogonal Hermitian projectors."""

    projectors: Tuple[np.ndarray, ...]

    def __post_init__(self):
        mats = tuple(np.asarray(pi, dtype=complex) for pi in self.projectors)
        if not mats:
            raise DimensionMismatch("measurement needs at least one projector")
        d = mats[0].shape[0]
        total = np.zeros((d, d), dtype=complex)
        for i, pi in enumerate(mats):
            if pi.shape != (d, d):
                raise DimensionMismatch(f"projector {i} has shape {pi.shape}, expected {(d, d)}")
            if not hermiticity_defect(pi) <= ROUNDING_TOL:
                raise NotHermitian(f"projector {i} is not Hermitian")
            if not np.max(np.abs(pi @ pi - pi)) <= ROUNDING_TOL:
                raise NotProjector(f"projector {i} is not idempotent")
            for j in range(i):
                if not np.max(np.abs(mats[j] @ pi)) <= ROUNDING_TOL:
                    raise NotProjector(f"projectors {j} and {i} are not orthogonal")
            total += pi
        if not np.max(np.abs(total - np.eye(d))) <= ROUNDING_TOL:
            raise NotResolutionOfIdentity("projectors do not sum to the identity")
        object.__setattr__(self, "projectors", mats)

    @property
    def block_dim(self) -> int:
        return self.projectors[0].shape[0]

    def __len__(self) -> int:
        return len(self.projectors)


@dataclass(frozen=True)
class MeasurementOutcome:
    """Probabilities, B-side conditional states, and the pinched state."""

    probabilities: np.ndarray
    conditional_states: Tuple[Optional[DensityMatrix], ...]
    pinched_state: DensityMatrix


def bloch_projectors(theta: float, phi: float) -> ProjectiveMeasurement:
    """Two-outcome qubit measurement along the Bloch direction (theta, phi)."""
    n = (math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta))
    up = bloch_states(np.array(n))
    return ProjectiveMeasurement((up, np.eye(2, dtype=complex) - up))


def _leading_block(dims: Sequence[int], block_dim: int) -> int:
    """Number of leading subsystems whose dimensions multiply to block_dim."""
    prod = 1
    for k, d in enumerate(dims):
        prod *= d
        if prod == block_dim:
            return k + 1
        if prod > block_dim:
            break
    raise DimensionMismatch(
        f"no leading block of dims {tuple(dims)} has total dimension {block_dim}"
    )


def _measurement_branches(rho: DensityMatrix, ops: Sequence[np.ndarray]):
    """Branches (V (x) I) rho (V (x) I)^dag of operators V on the leading block.

    Returns (branches, their traces as outcome probabilities, conditional
    states of the remaining subsystems).  A conditional state is ``None``
    when its probability is below ``ZERO_WEIGHT_TOL`` or no subsystem
    remains; the others are normalized but not validated.
    """
    block = _leading_block(rho.dims, ops[0].shape[0])
    rest = list(range(block, len(rho.dims)))
    eye_rest = np.eye(math.prod(rho.dims[block:]), dtype=complex)
    branches, probs, conditionals = [], [], []
    for v in ops:
        e = tensor_product(v, eye_rest)
        branch = e @ rho.matrix @ e.conj().T
        p = float(branch.trace().real)
        branches.append(branch)
        probs.append(p)
        vanishes = p < ZERO_WEIGHT_TOL or not rest
        conditionals.append(None if vanishes else partial_trace(branch, rho.dims, rest) / p)
    return branches, np.array(probs), conditionals


def _remaining_dims(dims: Sequence[int], block_dim: int) -> tuple:
    """Dimensions of the subsystems after the measured leading block."""
    block = _leading_block(dims, block_dim)
    if block == len(dims):
        raise DimensionMismatch("measurement block covers the whole system; nothing remains")
    return tuple(dims[block:])


def measure_subsystem(rho: DensityMatrix, m: ProjectiveMeasurement) -> MeasurementOutcome:
    """Apply ``m`` to the leading block of ``rho``.

    Returns outcome probabilities, the conditional states of the untouched
    remainder (``None`` when the outcome probability vanishes), and the
    pinched state built from all outcome branches.
    """
    rest_dims = _remaining_dims(rho.dims, m.block_dim)
    branches, probs, conditionals = _measurement_branches(rho, m.projectors)
    return MeasurementOutcome(
        probabilities=probs,
        conditional_states=tuple(None if c is None else validate_density(c, rest_dims) for c in conditionals),
        pinched_state=validate_density(sum(branches), rho.dims),
    )


def pinch(rho: DensityMatrix, m: ProjectiveMeasurement) -> DensityMatrix:
    """sum_a (P_a (x) I) rho (P_a (x) I); idempotent and trace exact."""
    branches, _, _ = _measurement_branches(rho, m.projectors)
    return validate_density(sum(branches), rho.dims)


def apply_povm_elements(rho: DensityMatrix, elements: Sequence[np.ndarray]):
    """Outcome ensemble of measurement operators V_i acting on the leading block.

    Requires sum V_i^dag V_i = I.  Returns (probabilities, conditional B
    states), with ``None`` conditionals for vanishing-probability outcomes.
    """
    ops = [np.asarray(v, dtype=complex) for v in elements]
    d = ops[0].shape[0]
    total = sum(v.conj().T @ v for v in ops)
    if not np.max(np.abs(total - np.eye(d))) <= ROUNDING_TOL:
        raise NotResolutionOfIdentity(
            f"sum V^dag V deviates from identity by {np.max(np.abs(total - np.eye(d))):.3e}"
        )
    rest_dims = _remaining_dims(rho.dims, d)
    _, probs, conditionals = _measurement_branches(rho, ops)
    return probs, tuple(None if c is None else validate_density(c, rest_dims) for c in conditionals)


def is_insensitive(rho: DensityMatrix, m: ProjectiveMeasurement):
    """Whether pinching by ``m`` leaves ``rho`` unchanged within ``ROUNDING_TOL``.

    Returns (flag, Frobenius residual).
    """
    residual = float(np.linalg.norm(pinch(rho, m).matrix - rho.matrix))
    return residual <= ROUNDING_TOL, residual


def example_extension_measurement() -> ProjectiveMeasurement:
    """Four-outcome rank-1 measurement on the ancilla+A block that leaves
    :func:`~qcorr.states.example_extension` unchanged for every mixing weight."""
    vectors = (
        kron_all(KET_0.amplitudes, KET_PLUS.amplitudes),
        kron_all(KET_0.amplitudes, KET_MINUS.amplitudes),
        kron_all(KET_1.amplitudes, KET_0.amplitudes),
        kron_all(KET_1.amplitudes, KET_1.amplitudes),
    )
    return ProjectiveMeasurement(tuple(np.outer(v, v.conj()) for v in vectors))
