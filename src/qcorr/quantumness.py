"""Generalized quantumness: measurements on an extended system and the
distance to the separable states sharing the B marginal.

Pinching an ancilla-extended state with a rank-1 projective measurement on
the ancilla+A block and discarding the ancilla always produces a separable
state on A+B.  The quantumness of a state is the minimal relative entropy
to any state reachable this way, equivalently to any separable state with
the same B marginal.  For two qubits the separable states are the PPT
ones, so :func:`quantumness_upper_bound` solves that minimum as a convex
program and reports the divergence to an explicit separable witness: never
below the quantumness, and above it by at most the solver's gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropy import relative_entropy
from .errors import DimensionMismatch, NegativeEigenvalue, NotRankOne, OutOfRange, UnsupportedDimension
from .linalg import PAULI_PRODUCTS, PAULIS, ROUNDING_TOL, partial_trace
from .measurement import (
    ProjectiveMeasurement,
    _measurement_branches,
    example_extension_measurement,
    is_insensitive,
)
from .states import (
    DensityMatrix,
    SeparableEnsemble,
    _matrix_of,
    example_extension,
    example_separable,
    validate_density,
)

#: A candidate whose bound is below this settles the search at zero.
_ZERO_BOUND = 1e-12


def _is_rank_one(projector: np.ndarray) -> bool:
    return abs(projector.trace().real - 1.0) <= ROUNDING_TOL


def residual_state(rho_ext: DensityMatrix, m: ProjectiveMeasurement) -> DensityMatrix:
    """Pinch the leading block of an extended state and trace out the ancilla.

    The ancilla is the first subsystem; the measurement must cover the
    first two.  When every projector is rank-1 the output carries its own
    product decomposition as a separability witness.
    """
    if len(rho_ext.dims) < 3:
        raise DimensionMismatch(
            f"expected ancilla + system + remainder, got dims {rho_ext.dims}"
        )
    if m.block_dim != rho_ext.dims[0] * rho_ext.dims[1]:
        raise DimensionMismatch(
            f"measurement block dim {m.block_dim} != ancilla*system "
            f"{rho_ext.dims[0] * rho_ext.dims[1]}"
        )
    branches, probs, conditionals = _measurement_branches(rho_ext, m.projectors)
    keep = list(range(1, len(rho_ext.dims)))
    reduced = partial_trace(sum(branches), rho_ext.dims, keep)
    witness = None
    if all(_is_rank_one(pi) for pi in m.projectors):
        kept = [i for i, c in enumerate(conditionals) if c is not None]
        witness = SeparableEnsemble(
            probs[kept],
            tuple(partial_trace(m.projectors[i], rho_ext.dims[:2], [1]) for i in kept),
            tuple(conditionals[i] for i in kept),
        )
    return validate_density(reduced, tuple(rho_ext.dims[i] for i in keep), witness=witness)


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
    if not 0.0 <= p <= 1.0:
        raise OutOfRange(f"mixing weight p={p} outside [0, 1]")
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
    the minimum, up to the solver's gap.  ``marginal_residual`` is the
    Frobenius distance from the witness's B marginal to rho_B: rounding
    error only.  ``restarts_used`` counts candidate witnesses, not
    restarts: the direct witness when there is one, the product of marginals
    and the solver's witness, up to the first zero bound.
    """

    upper_bound: float
    witness: SeparableEnsemble
    marginal_residual: float
    restarts_used: int


# ---------------------------------------------------------------------------
# The two-qubit minimum.  Separable two-qubit states are the PPT ones (Peres,
# PRL 77, 1413 (1996)), so min D(rho || sigma) over sigma >= 0,
# sigma^{T_B} >= 0, Tr_A sigma = rho_B is convex.  In
# sigma(x) = (I/2) (x) rho_B + sum_k x_k E_k the 12 directions E_k
# (sigma_i (x) I / 4, sigma_i (x) sigma_j / 4) keep Tr_A sigma = rho_B, and
# x = 0 is strictly feasible when rho_B is full rank.
# ---------------------------------------------------------------------------

_E = PAULI_PRODUCTS[4:] / 4
#: The directions E_k and their partial transposes on B, shape (2, 12, 4, 4).
_DIRECTIONS = np.stack([_E, _E.reshape(12, 2, 2, 2, 2).swapaxes(2, 4).reshape(12, 4, 4)])
#: The solve stops once the barrier's duality gap 8/t (nats) is below this.
_GAP_TOL = 1e-11
#: Factor by which each centering stage raises the barrier weight t.
_T_FACTOR = 30.0
#: A centering stage ends once the squared Newton decrement is below this.
_CENTERING_TOL = 1e-9
#: A cap on each stage's Newton steps; converging stages take at most about 16.
_STAGE_STEPS = 50
#: The backtracking line search gives up once its step factor falls to this.
_MIN_STEP = 1e-9
#: :func:`_log_dd2` takes its Taylor series for triples spread by at most this times their mean.
_TAYLOR_SPREAD = 1e-3


def _log_dd1(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Divided differences (ln a - ln b) / (a - b) of positive arrays, 1/a at a = b."""
    z = (a - b) / (a + b)
    close = np.abs(z) < 0.5
    z = np.where(close, z, 0.0)  # far pairs can round to |z| = 1, where artanh is infinite
    ratio = np.ones_like(z)  # ln a - ln b = 2 artanh(z) keeps its digits for close a, b
    np.divide(np.arctanh(z), z, out=ratio, where=z != 0.0)
    out = 2.0 * ratio / (a + b)
    np.divide(np.log(a) - np.log(b), a - b, out=out, where=~close)
    return out


def _log_dd2(lam: np.ndarray) -> np.ndarray:
    """Second divided differences ln[l_i, l_m, l_j] of spectra (..., n), shape (..., n, n, n)."""
    a, b, c = np.broadcast_arrays(lam[..., :, None, None], lam[..., None, :, None], lam[..., None, None, :])
    lo, hi = np.minimum(np.minimum(a, b), c), np.maximum(np.maximum(a, b), c)
    mid = np.maximum(np.minimum(a, b), np.minimum(np.maximum(a, b), c))
    mean = (lo + mid + hi) / 3.0
    # Close triples: -(1/2 + p2/8 - p3/15) / mean^2 with p_k = sum ((l - mean) / mean)^k,
    # the Taylor series about the mean.
    d = (np.stack([lo, mid, hi]) - mean) / mean
    out = (-0.5 - np.sum(d**2, axis=0) / 8.0 + np.sum(d**3, axis=0) / 15.0) / mean**2
    np.divide(_log_dd1(hi, mid) - _log_dd1(lo, mid), hi - lo, out=out, where=hi - lo > _TAYLOR_SPREAD * mean)
    return out


def _barrier_point(x: np.ndarray, t: float, base: np.ndarray, weights: np.ndarray):
    """Value of -Tr[(t W + I) ln S] summed over S = sigma(x), sigma(x)^{T_B}.

    With W = rho for sigma and W = 0 for its partial transpose this is
    t * (-Tr rho ln sigma) - ln det sigma - ln det sigma^{T_B}.  Returns it
    with both spectra, eigenvectors and t W + I in each eigenbasis, or None
    when either matrix is not positive definite.
    """
    lam, u = np.linalg.eigh(base + (x @ _DIRECTIONS.reshape(2, 12, 16)).reshape(2, 4, 4))
    if lam[:, 0].min() <= 0.0:
        return None
    xt = u.conj().swapaxes(-1, -2) @ (t * weights) @ u + np.eye(4)
    return -float(np.sum(np.diagonal(xt, axis1=-2, axis2=-1).real * np.log(lam))), lam, u, xt


def _newton_step(lam: np.ndarray, u: np.ndarray, xt: np.ndarray):
    """Newton direction and squared decrement of the barrier at one point.

    In the eigenbasis of S, with L1 and L2 the divided differences of ln at
    its spectrum (Daleckii-Krein), -Tr[X ln S] has gradient -Re <E_k, L1 o X>
    along E_k and Hessian -2 Re sum_m P_m W_m P_m^H, where
    W_m[i, j] = L2[i, m, j] X[j, i] and P_m[k, i] = E_k[i, m].  The Hessian
    is scaled by its diagonal before the solve: near the boundary its
    entries span about 18 orders of magnitude.
    """
    et = u.conj().swapaxes(-1, -2)[:, None] @ _DIRECTIONS @ u[:, None]
    l1 = _log_dd1(lam[..., :, None], lam[..., None, :])
    grad = -np.sum((et.conj() * (l1 * xt)[:, None]).real, axis=(0, 2, 3))
    w = (_log_dd2(lam) * xt.swapaxes(-1, -2)[:, :, None, :]).swapaxes(1, 2)
    p = et.transpose(0, 3, 1, 2)
    hess = -2.0 * np.sum((p @ w @ p.conj().swapaxes(-1, -2)).real, axis=(0, 1))
    scale = 1.0 / np.sqrt(np.diag(hess))
    # A pseudo-inverse through the complex eigh that every other
    # decomposition here uses: a least-squares or real symmetric solver
    # would map about 0.5 MB more of LAPACK into memory.
    vals, vecs = np.linalg.eigh(hess * np.outer(scale, scale) + 0j)
    inverse = np.divide(1.0, vals, out=np.zeros_like(vals), where=vals > 12 * np.finfo(float).eps * vals[-1])
    step = ((vecs * inverse) @ (vecs.conj().T @ (-grad * scale))).real * scale
    return step, float(-grad @ step)


def _ppt_minimizer(rho4: np.ndarray, rho_b: np.ndarray) -> np.ndarray | None:
    """The PPT sigma with Tr_A sigma = rho_B closest to rho, within ``_GAP_TOL``.

    Log-barrier method: each stage takes Newton steps at fixed t, the full
    step when the decrement is below 1/2 and the step stays feasible, a
    backtracking line search otherwise.  A stage ends when the squared
    decrement is below ``_CENTERING_TOL`` or stops shrinking (rounding has
    taken over), when the line search finds no decrease, or at the cap.
    None when rho_B is singular: the feasible set then has no interior.
    """
    base = np.stack([np.kron(np.eye(2) / 2, m) for m in (rho_b, rho_b.T)])  # sigma(0) and its T_B
    weights = np.stack([rho4, np.zeros_like(rho4)])
    x, t = np.zeros(12), 1.0
    point = _barrier_point(x, t, base, weights)
    if point is None:
        return None
    while True:
        previous = math.inf
        for _ in range(_STAGE_STEPS):
            value, lam, u, xt = point
            step, decrement = _newton_step(lam, u, xt)
            if decrement <= _CENTERING_TOL or (previous < 0.25 and decrement >= previous):
                break
            previous, alpha = decrement, 1.0
            trial = _barrier_point(x + step, t, base, weights)
            if decrement >= 0.25 or trial is None:
                while alpha > _MIN_STEP and (trial is None or trial[0] > value - 0.25 * alpha * decrement):
                    alpha *= 0.5
                    trial = _barrier_point(x + alpha * step, t, base, weights)
                if trial is None or trial[0] > value - 0.25 * alpha * decrement:
                    break
            x, point = x + alpha * step, trial
        if 8.0 / t < _GAP_TOL:
            return base[0] + (x @ _DIRECTIONS[0].reshape(12, 16)).reshape(4, 4)
        t *= _T_FACTOR
        point = _barrier_point(x, t, base, weights)


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
    m = v.T @ np.kron(PAULIS[1], PAULIS[1]) @ v
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


def _candidates(rho: DensityMatrix, rho_b: np.ndarray):
    """Witnesses in the order they are tried; the solver runs only if the earlier ones are not zero."""
    if rho.witness is not None:
        yield rho.witness
    yield SeparableEnsemble(np.array([1.0]), (rho.marginal([0]).matrix,), (rho_b,))
    sigma = _ppt_minimizer(rho.matrix, rho_b)
    if sigma is not None:
        yield _product_decomposition(sigma)


def quantumness_upper_bound(rho: DensityMatrix) -> QuantumnessEstimate:
    """Divergence from rho to the closest separable state sharing rho_B, with its witness.

    Candidates, in order: the witness attached to ``rho`` by
    :func:`~qcorr.states.validate_density`, evaluated directly; the product
    of marginals (zero for a rank-1 rho_B, where rho is a product); the PPT
    minimizer split into at most four product terms.  A bound below
    ``_ZERO_BOUND`` ends the call; the smallest divergence among the
    candidates tried is returned.  The last two meet rho_B by construction;
    an attached witness whose B marginal is off by more than
    ``ROUNDING_TOL`` (Frobenius) raises :class:`DimensionMismatch`, and one
    with a factor of eigenvalue below ``-ROUNDING_TOL`` (not a separable
    decomposition) raises :class:`NegativeEigenvalue`.
    """
    if tuple(rho.dims) != (2, 2):
        raise UnsupportedDimension(f"estimator supports dims (2, 2); got {tuple(rho.dims)}")

    rho_b = rho.marginal([1]).matrix
    tried: list[tuple[float, float, SeparableEnsemble]] = []
    for ensemble in _candidates(rho, rho_b):
        sigma = ensemble.assemble()
        residual = float(np.linalg.norm(partial_trace(sigma, (2, 2), [1]) - rho_b))
        if ensemble is rho.witness:
            if not residual <= ROUNDING_TOL:  # also true for a NaN residual
                raise DimensionMismatch(f"witness B marginal is off by {residual:.3e} (tol {ROUNDING_TOL:.1e})")
            lowest = np.linalg.eigvalsh(np.stack([_matrix_of(f) for f in (*ensemble.a_states, *ensemble.b_states)])).min()
            if lowest < -ROUNDING_TOL:
                raise NegativeEigenvalue(f"witness factor eigenvalue {lowest:.3e} below -{ROUNDING_TOL:.1e}")
        bound = relative_entropy(rho.matrix, sigma)
        tried.append((bound, residual, ensemble))
        if bound < _ZERO_BOUND:
            break

    best_bound, best_residual, best_ensemble = min(tried, key=lambda c: c[0])
    return QuantumnessEstimate(
        upper_bound=best_bound,
        witness=best_ensemble,
        marginal_residual=best_residual,
        restarts_used=len(tried),
    )
