"""Generalized quantumness: measurements on an extended system and the
distance to the separable states sharing the B marginal.

Pinching an ancilla-extended state with a rank-1 projective measurement on
the ancilla+A block and discarding the ancilla always produces a separable
state on A+B.  The quantumness of a state is the minimal relative entropy
to any state reachable this way, equivalently to any separable state with
the same B marginal.  For two qubits the separable states are the PPT
ones, so :func:`quantumness_upper_bound` solves that minimum as a convex
program and reports the divergence to an explicit separable witness: never
below the quantumness, and above it by at most the solver's gap.  Where the
solver ends with its KKT finish on the active PPT face, a weak-duality
certificate checks that gap on the call and is reported as a lower bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._ppt import _ppt_minimizer
from .entropy import relative_entropy, von_neumann_entropy
from .errors import DimensionMismatch, NegativeEigenvalue, NotRankOne
from .linalg import PAULI_PRODUCTS, ROUNDING_TOL, _partial_transpose, partial_trace
from .measurement import (
    ProjectiveMeasurement,
    _measure_extension,
    example_extension_measurement,
    is_insensitive,
)
from .states import (
    DensityMatrix,
    SeparableEnsemble,
    _require_two_qubits,
    example_extension,
    example_separable,
    validate_density,
)

#: A candidate whose bound is less than this above the coherent-information floor ends the search.
_ZERO_BOUND = 1e-12


def _is_rank_one(projector: np.ndarray) -> bool:
    return abs(projector.trace().real - 1.0) <= ROUNDING_TOL


def residual_state(rho_ext: DensityMatrix, m: ProjectiveMeasurement) -> DensityMatrix:
    """Pinch the leading block of an extended state and trace out the ancilla.

    The ancilla is the first subsystem; the measurement must cover the
    first two.  This is the operation behind the measurement-induced maps
    of :mod:`qcorr.maps`, applied to a state.  When every projector is
    rank-1 the output carries its own product decomposition as a
    separability witness.
    """
    if len(rho_ext.dims) < 3:
        raise DimensionMismatch(
            f"expected ancilla + system + remainder, got dims {rho_ext.dims}"
        )
    reduced, probs, conditionals = _measure_extension(rho_ext.matrix, rho_ext.dims, m)
    witness = None
    if all(_is_rank_one(pi) for pi in m.projectors):
        kept = [i for i, c in enumerate(conditionals) if c is not None]
        witness = SeparableEnsemble(
            probs[kept],
            tuple(partial_trace(m.projectors[i], rho_ext.dims[:2], [1]) for i in kept),
            tuple(conditionals[i] for i in kept),
        )
    return validate_density(reduced, rho_ext.dims[1:], witness=witness)


def separable_decomposition(rho_ext: DensityMatrix, m: ProjectiveMeasurement) -> SeparableEnsemble:
    """Explicit product terms of the residual state for rank-1 projectors.

    Outcome i contributes weight p_i, system factor Tr_ancilla[Pi_i], and
    the normalized remainder of the pinched branch.  Vanishing-probability
    outcomes are dropped.
    """
    for i, pi in enumerate(m.projectors):
        if not _is_rank_one(pi):
            raise NotRankOne(f"projector {i} has trace {pi.trace().real:.6f}, expected 1")
    return residual_state(rho_ext, m).witness


@dataclass(frozen=True)
class InsensitivityReport:
    residual_tripartite: float
    residual_bipartite: float
    relative_entropy_to_residual: float
    quantumness_zero: bool


def verify_example_insensitivity(p: float) -> InsensitivityReport:
    """Check that the worked extension is untouched by its four-projector
    measurement and that the residual state reproduces the separable example
    (``quantumness_zero``: their divergence is below ``ROUNDING_TOL``)."""
    rho_ext = example_extension(p)
    m = example_extension_measurement()
    res_tri = is_insensitive(rho_ext, m)[1]
    rho_ab = example_separable(p)
    residual = residual_state(rho_ext, m)
    res_bi = float(np.linalg.norm(residual.matrix - rho_ab.matrix))
    div = relative_entropy(rho_ab, residual)
    return InsensitivityReport(
        residual_tripartite=res_tri,
        residual_bipartite=res_bi,
        relative_entropy_to_residual=div,
        quantumness_zero=div < ROUNDING_TOL,
    )


@dataclass(frozen=True)
class QuantumnessEstimate:
    """The distance to the separable set, with a witness that attains it.

    ``upper_bound`` is D(rho || witness.assemble()) in bits: for two qubits
    the minimum, up to the solver's gap.  ``lower_bound``, in bits, is the
    larger of the coherent-information floor (0 when the search ended
    before computing it) and, when the solver's KKT finish was taken, its
    weak-duality certificate minus S(rho), capped at ``upper_bound``, which
    rounding alone can put it above; no separable state sharing rho_B is
    closer, up to rounding.  A finish is taken only when its certificate
    is within the last barrier stage's gap, about 4.1e-13 nats, of its own
    sigma (see :mod:`qcorr._ppt`).  ``marginal_residual`` is the Frobenius
    distance from the witness's B marginal to rho_B: rounding error only.
    ``restarts_used`` counts candidate witnesses, not
    restarts: the direct witness when there is one, the product of
    marginals, the closed form for a PPT or a pure rho and the solver's
    witness, up to the first bound within ``_ZERO_BOUND`` of the
    coherent-information floor.
    """

    upper_bound: float
    lower_bound: float
    witness: SeparableEnsemble
    marginal_residual: float
    restarts_used: int


def _closing_angle(a: float, b: float, c: float) -> float:
    """An angle g with |a + b e^{ig}| = c, or the nearest one when none exists."""
    if a * b == 0.0:
        return 0.0
    return math.acos(min(1.0, max(-1.0, (c * c - a * a - b * b) / (2.0 * a * b))))


def _product_decomposition(sigma: np.ndarray) -> SeparableEnsemble:
    """At most four product terms summing to a two-qubit sigma of zero concurrence.

    Wootters' construction (PRL 80, 2245 (1998)): with sigma = V V^H, the
    Takagi factorization V^T (sigma_y (x) sigma_y) V = W diag(c) W^T gives
    y = V conj(W) with y_j^T (sigma_y (x) sigma_y) y_k = c_j delta_jk.  Zero
    concurrence, c_0 <= c_1 + c_2 + c_3, admits phases with
    sum_j c_j e^{2i theta_j} = 0; then each of the four sign combinations
    (1/2) sum_j (+/-) e^{i theta_j} y_j is a product vector, split by SVD.
    """
    lam, u = np.linalg.eigh(sigma)
    v = u * np.sqrt(np.maximum(lam, 0.0))
    m = v.T @ PAULI_PRODUCTS[10] @ v
    # Takagi through the real embedding: an eigenvector (p, q) of
    # [[Re m, Im m], [Im m, -Re m]] with eigenvalue c >= 0 gives m conj(w) = c w, w = p + i q.
    # The complex eigh keeps a real input's eigenvectors real up to a phase per column.
    vals, vecs = np.linalg.eigh(np.block([[m.real, m.imag], [m.imag, -m.real]]) + 0j)
    vecs = (vecs * np.exp(-1j * np.angle(vecs[np.argmax(np.abs(vecs), axis=0), range(8)]))).real
    c = vals[:3:-1]
    y = v @ (vecs[:4, :3:-1] - 1j * vecs[4:, :3:-1])
    # Close the polygon sum_j c_j e^{i phi_j}: c_0 and c_1 leave a side r
    # that c_2 and c_3 can span, since c_0 - c_1 <= r <= c_2 + c_3.
    r = max(c[0] - c[1], c[2] - c[3])
    g1, g3 = _closing_angle(c[0], c[1], r), _closing_angle(c[2], c[3], r)
    turn = np.angle(-(c[0] + c[1] * np.exp(1j * g1))) - np.angle(c[2] + c[3] * np.exp(1j * g3))
    y = y * np.exp(0.5j * np.array([0.0, g1, turn, turn + g3]))
    signs = np.array([[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]])
    z = (y @ signs / 2.0).T.reshape(4, 2, 2)
    # Each z = a b^T: a is its longer column, normalized, and b = z^T conj(a).
    a = z[range(4), :, np.argmax(np.linalg.norm(z, axis=1), axis=1)]
    keep = np.flatnonzero(a.any(axis=1))
    a = a[keep] / np.linalg.norm(a[keep], axis=1, keepdims=True)
    b = np.einsum("kij,ki->kj", z[keep], a.conj())
    weights = np.sum(np.abs(b) ** 2, axis=1)
    return SeparableEnsemble(
        weights / weights.sum(),
        tuple(np.outer(v, v.conj()) for v in a),
        tuple(np.outer(v, v.conj()) / w for v, w in zip(b, weights)),
    )


def _measured_on_b(rho4: np.ndarray, rho_b: np.ndarray) -> SeparableEnsemble:
    """rho with B measured in the eigenbasis {b_j} of rho_B, as product terms.

    Term j has weight p_j = <b_j|rho_B|b_j>, A factor
    (I (x) <b_j|) rho (I (x) |b_j>) / p_j and B factor |b_j><b_j|, so the B
    marginal is rho_B.  For a pure rho the divergence is S(rho_B), the
    floor, degenerate rho_B included.  Every term with p_j > 0 is kept: a
    Schmidt weight of 1e-12 still carries 4e-11 bits.
    """
    v = np.linalg.eigh(rho_b)[1]
    blocks = np.einsum("aibj,ik,jk->kab", rho4.reshape(2, 2, 2, 2), v.conj(), v)
    p = np.trace(blocks, axis1=1, axis2=2).real
    keep = np.flatnonzero(p > 0.0)
    return SeparableEnsemble(
        p[keep],
        tuple(blocks[keep] / p[keep, None, None]),
        tuple(np.outer(v[:, k], v[:, k].conj()) for k in keep),
    )


def _candidates(rho: DensityMatrix, rho_b: np.ndarray):
    """Witnesses in the order they are tried; each is built only if every earlier one missed the floor.

    The attached witness; the product of marginals; for a PPT rho, rho
    itself split into product terms (it is its own closest separable
    state); for a pure rho, :func:`_measured_on_b`; the solver's witness.
    Each comes with the solver's certified minimum of -Tr rho ln sigma in
    nats, None but where the solver's KKT finish was taken.
    """
    if rho.witness is not None:
        yield rho.witness, None
    yield SeparableEnsemble(np.array([1.0]), (rho.marginal([0]).matrix,), (rho_b,)), None
    if np.linalg.eigh(_partial_transpose(rho.matrix))[0][0] >= -ROUNDING_TOL:
        yield _product_decomposition(rho.matrix), None
    elif np.linalg.eigh(rho.matrix)[0][-2] <= ROUNDING_TOL:
        yield _measured_on_b(rho.matrix, rho_b), None
    solved = _ppt_minimizer(rho.matrix, rho_b)
    if solved is not None:
        sigma, certified = solved
        yield _product_decomposition(sigma), certified


def _coherent_information_floor(rho: DensityMatrix, rho_b: np.ndarray, s_ab: float) -> float:
    """max(0, S(A) - S(AB), S(B) - S(AB)) in bits, given S(AB) = ``s_ab``.

    No separable state is closer to rho (Plenio, Virmani & Papadopoulos,
    J. Phys. A 33, L193 (2000)); on pure states the floor is S(rho_A), the
    quantumness itself (Vedral & Plenio, PRA 57, 1619 (1998)).
    """
    return max(0.0, von_neumann_entropy(rho.marginal([0])) - s_ab, von_neumann_entropy(rho_b) - s_ab)


def quantumness_upper_bound(rho: DensityMatrix) -> QuantumnessEstimate:
    """Divergence from rho to the closest separable state sharing rho_B, with its witness.

    Candidates, in order: the witness attached to ``rho`` by
    :func:`~qcorr.states.validate_density`, evaluated directly; the product
    of marginals (zero for a rank-1 rho_B, where rho is a product); for a
    PPT rho (least eigenvalue of rho^{T_B} at least ``-ROUNDING_TOL``), rho
    itself split into product terms; for a pure rho (second eigenvalue at
    most ``ROUNDING_TOL``), rho measured on B in the eigenbasis of rho_B;
    the PPT minimizer split into at most four product terms.  No separable
    state lies below the coherent-information floor
    max(0, S(A) - S(AB), S(B) - S(AB)), so a bound less than
    ``_ZERO_BOUND`` above it ends the call; the floor is computed only once
    a bound is not already below ``_ZERO_BOUND``.  The smallest divergence
    among the candidates tried is returned.  All but the attached witness
    meet rho_B by construction; an attached witness whose B marginal is off
    by more than ``ROUNDING_TOL`` (Frobenius), or with a factor that is not 2x2, raises
    :class:`DimensionMismatch`, and one with a factor of eigenvalue below
    ``-ROUNDING_TOL`` (not a separable decomposition) raises
    :class:`NegativeEigenvalue`.  ``lower_bound`` is the floor, when it was
    computed, or the solver's certificate minus S(rho), whichever is larger,
    and never above ``upper_bound``.
    """
    _require_two_qubits(rho, "quantumness")

    rho_b = rho.marginal([1]).matrix
    tried: list[tuple[float, float, SeparableEnsemble]] = []
    floor = None
    lower = 0.0
    for ensemble, certified in _candidates(rho, rho_b):
        sigma = ensemble.assemble()
        residual = float(np.linalg.norm(partial_trace(sigma, (2, 2), [1]) - rho_b))
        if ensemble is rho.witness:
            if not residual <= ROUNDING_TOL:  # also true for a NaN residual
                raise DimensionMismatch(f"witness B marginal is off by {residual:.3e} (tol {ROUNDING_TOL:.1e})")
            shapes = (ensemble.a_states[0].shape, ensemble.b_states[0].shape)
            if shapes != ((2, 2), (2, 2)):
                raise DimensionMismatch(f"witness A and B factor shapes {shapes}, expected (2, 2)")
            lowest = np.linalg.eigvalsh(np.stack((*ensemble.a_states, *ensemble.b_states))).min()
            if lowest < -ROUNDING_TOL:
                raise NegativeEigenvalue(f"witness factor eigenvalue {lowest:.3e} below -{ROUNDING_TOL:.1e}")
        bound = relative_entropy(rho.matrix, sigma)
        tried.append((bound, residual, ensemble))
        if floor is None and bound >= _ZERO_BOUND:
            s_ab = von_neumann_entropy(rho)
            floor = _coherent_information_floor(rho, rho_b, s_ab)
        if certified is not None:  # the solver runs only after a candidate missed the floor, so s_ab is set
            lower = certified / math.log(2.0) - s_ab
        if bound < (floor or 0.0) + _ZERO_BOUND:
            break

    best_bound, best_residual, best_ensemble = min(tried, key=lambda c: c[0])
    return QuantumnessEstimate(
        upper_bound=best_bound,
        lower_bound=min(best_bound, max(lower, floor or 0.0)),
        witness=best_ensemble,
        marginal_residual=best_residual,
        restarts_used=len(tried),
    )
