"""Independent brute-force oracles used to pin optimizer results.

Everything here is written against raw numpy with closed-form two-level
algebra (Bloch decomposition of the measurement statistics, quadratic
eigenvalue formula) so that it shares no code path with the package's
generic measurement machinery.
"""

import itertools
import math

import numpy as np

PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def xlog2(x):
    x = np.maximum(np.asarray(x, dtype=float), 0.0)
    return np.where(x > 0, x * np.log2(np.where(x > 0, x, 1.0)), 0.0)


def entropy_bits(matrix):
    """Spectrum entropy via numpy's eigvalsh; no package involvement."""
    vals = np.linalg.eigvalsh(matrix)
    return float(-xlog2(vals).sum())


def eig2x2_batch(mats):
    """Closed-form eigenvalues of a batch of Hermitian 2x2 matrices."""
    tr = np.real(mats[..., 0, 0] + mats[..., 1, 1])
    det = np.real(
        mats[..., 0, 0] * mats[..., 1, 1] - mats[..., 0, 1] * mats[..., 1, 0]
    )
    disc = np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0))
    return 0.5 * (tr - disc), 0.5 * (tr + disc)


def dense_grid_measures(rho4, n_theta=721, n_phi=1441, chunk=120000):
    """Brute-force (discord, classical correlation, mutual information).

    Scans measured mutual information over an inclusive (theta, phi) grid
    using the Bloch-affine form of the post-measurement statistics:
    the unnormalized B conditional for outcome +/- along direction n is
    (rho_B +/- sum_k n_k Tr_A[(sigma_k (x) I) rho]) / 2 with probability
    (1 +/- n . r) / 2.
    """
    rho4 = np.asarray(rho4, dtype=complex)
    rho_b = rho4.reshape(2, 2, 2, 2).trace(axis1=0, axis2=2)
    rho_a = rho4.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)
    corr = []  # R_k = Tr_A[(sigma_k (x) I) rho]
    bloch_a = []
    for pauli in PAULIS:
        big = np.kron(pauli, np.eye(2)) @ rho4
        corr.append(big.reshape(2, 2, 2, 2).trace(axis1=0, axis2=2))
        bloch_a.append(float(np.real(np.trace(big))))
    corr = np.stack(corr)
    bloch_a = np.asarray(bloch_a)

    s_b = entropy_bits(rho_b)
    mutual = entropy_bits(rho_a) + s_b - entropy_bits(rho4)

    thetas = np.linspace(0.0, np.pi, n_theta)
    phis = np.linspace(0.0, 2.0 * np.pi, n_phi)
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    tt, pp = tt.ravel(), pp.ravel()

    best = -np.inf
    for start in range(0, tt.size, chunk):
        t = tt[start : start + chunk]
        p = pp[start : start + chunk]
        n = np.stack([np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)], axis=1)
        drift = np.einsum("nk,kab->nab", n, corr)
        probs = 0.5 * np.stack([1.0 + n @ bloch_a, 1.0 - n @ bloch_a], axis=0)
        conds = 0.5 * np.stack([rho_b + drift, rho_b - drift], axis=0)
        avg = np.zeros(t.size)
        for branch in range(2):
            lo, hi = eig2x2_batch(conds[branch])
            avg += -xlog2(lo) - xlog2(hi) + xlog2(probs[branch])
        best = max(best, float(np.max(s_b - avg)))

    return mutual - best, best, mutual


def dephased_relative_entropy(rho4):
    """D(rho || sum_ij p_ij |a_i b_j><a_i b_j|) through the package's relative entropy.

    |a_i> and |b_j> are numpy's eigenvectors of the two qubit marginals and
    p_ij = <a_i b_j| rho |a_i b_j>: the quantum deficit as a divergence to
    the dephased state, the reference for its entropy-gap form.
    """
    from qcorr import relative_entropy

    rho4 = np.asarray(rho4, dtype=complex)
    blocks = rho4.reshape(2, 2, 2, 2)
    u = np.kron(np.linalg.eigh(np.trace(blocks, axis1=1, axis2=3))[1], np.linalg.eigh(np.trace(blocks, axis1=0, axis2=2))[1])
    joint = np.real(np.diag(u.conj().T @ rho4 @ u))
    return relative_entropy(rho4, (u * joint) @ u.conj().T)


# ---------------------------------------------------------------------------
# Bell-diagonal states rho = (I + sum_i c_i sigma_i (x) sigma_i) / 4, whose
# classical correlation, discord and one-way deficit are closed-form in
# c = max |c_i| (Luo, PRA 77, 042303 (2008)).
# ---------------------------------------------------------------------------

#: Vertices of the tetrahedron of valid c: the four Bell states.
BELL_TETRAHEDRON = np.array([[-1, -1, -1], [-1, 1, 1], [1, -1, 1], [1, 1, -1]], dtype=float)


def bell_diagonal_state(c):
    """The 4x4 matrix (I + sum_i c_i sigma_i (x) sigma_i) / 4."""
    return (np.eye(4) + sum(ci * np.kron(p, p) for ci, p in zip(c, PAULIS))) / 4.0


def binary_entropy(p):
    return float(-xlog2(p) - xlog2(1.0 - p))


def bell_diagonal_measures(c):
    """Closed-form (mutual information, classical correlation, discord, one-way deficit).

    The marginals are I/2 and the spectrum is (1 - c1 - c2 - c3)/4 and its
    three sign flips, so I = 2 - S(rho).  Measuring A along the axis of the
    largest |c_i| leaves B branches of spectrum (1 +/- c)/2, which gives
    C_A = 1 - h((1 + c)/2), discord = I - C_A and one-way deficit
    1 + h((1 + c)/2) - S(rho).
    """
    c1, c2, c3 = c
    spectrum = np.array([1 - c1 - c2 - c3, 1 - c1 + c2 + c3, 1 + c1 - c2 + c3, 1 + c1 + c2 - c3]) / 4.0
    s_rho = float(-xlog2(spectrum).sum())
    h = binary_entropy((1.0 + np.max(np.abs(c))) / 2.0)
    mutual = 2.0 - s_rho
    classical = 1.0 - h
    return mutual, classical, mutual - classical, 1.0 + h - s_rho


# ---------------------------------------------------------------------------
# Closed-form quantumness: the relative entropy from rho to the nearest
# separable state sharing its B marginal.
# ---------------------------------------------------------------------------

def bell_diagonal_quantumness(weights):
    """1 - h(F) for F = max weight > 1/2, else 0 (Vedral & Plenio, PRA 57, 1619 (1998)).

    ``weights`` are the Bell-state weights of a Bell-diagonal state.  Its
    B marginal is I/2, as is that of the nearest separable state, so the
    marginal constraint is inactive and the relative entropy of entanglement
    is the quantumness.
    """
    fidelity = float(np.max(weights))
    return 1.0 - binary_entropy(fidelity) if fidelity > 0.5 else 0.0


def pure_quantumness(psi):
    """S(rho_A) for a pure two-qubit state |psi>."""
    psi = np.asarray(psi, dtype=complex).reshape(2, 2)
    return entropy_bits(psi @ psi.conj().T)


def classical_quantum_state(weights, basis, b_states):
    """sum_i p_i |i><i| (x) rho_i for the columns |i> of ``basis``: quantumness 0."""
    return sum(
        p * np.kron(np.outer(basis[:, i], basis[:, i].conj()), b)
        for i, (p, b) in enumerate(zip(weights, b_states))
    )


def qubit_unitary(rng):
    """q0 I - i q.sigma for a random unit quaternion q."""
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    return q[0] * np.eye(2) - 1j * sum(qk * p for qk, p in zip(q[1:], PAULIS))


# ---------------------------------------------------------------------------
# Second divided differences of ln, each triple sorted by value.
# ---------------------------------------------------------------------------

def log_dd2_sorting_network(lam, dd1, spread):
    """ln[l_i, l_m, l_j] of spectra (..., n) in any order, shape (..., n, n, n).

    Each triple is sorted by a min/max network into lo <= mid <= hi.  Triples
    spread by at most ``spread`` times their mean take the Taylor series
    -(1/2 + p2/8 - p3/15) / mean^2 about the mean; the others take
    (dd1(hi, mid) - dd1(lo, mid)) / (hi - lo) with the first-difference
    function ``dd1`` evaluated afresh.
    """
    a, b, c = np.broadcast_arrays(lam[..., :, None, None], lam[..., None, :, None], lam[..., None, None, :])
    lo, hi = np.minimum(np.minimum(a, b), c), np.maximum(np.maximum(a, b), c)
    mid = np.maximum(np.minimum(a, b), np.minimum(np.maximum(a, b), c))
    mean = (lo + mid + hi) / 3.0
    d = (np.stack([lo, mid, hi]) - mean) / mean
    out = (-0.5 - np.sum(d**2, axis=0) / 8.0 + np.sum(d**3, axis=0) / 15.0) / mean**2
    np.divide(dd1(hi, mid) - dd1(lo, mid), hi - lo, out=out, where=hi - lo > spread * mean)
    return out


# ---------------------------------------------------------------------------
# One Newton step of the two-qubit PPT barrier, the direct way: a sandwich
# U^H E_k U per direction, a 4x4x4 index table per triple role, and the
# Taylor series of the second divided differences at every triple.
# ---------------------------------------------------------------------------

_E = np.array([np.kron(a, b) for a in PAULIS for b in (np.eye(2), *PAULIS)]) / 4
_DIRECTIONS = np.stack([_E, _E.reshape(12, 2, 2, 2, 2).swapaxes(2, 4).reshape(12, 4, 4)])
_TAYLOR_SPREAD = 1e-3


def _log_dd1(a, b):
    """Divided differences (ln a - ln b) / (a - b) of positive arrays, 1/a at a = b."""
    lo, gap = np.minimum(a, b), np.abs(a - b)
    out = 1.0 / lo
    np.divide(np.log1p(gap / lo), gap, out=out, where=gap > 0.0)  # ln hi - ln lo = log1p(gap / lo)
    return out


_LO, _MID, _HI = np.array([sorted(t) for t in itertools.product(range(4), repeat=3)]).T.reshape(3, 4, 4, 4)


def _log_dd2(lam, l1):
    """Second divided differences ln[l_i, l_m, l_j] of ascending spectra (..., 4), shape (..., 4, 4, 4)."""
    lo, mid, hi = lam[..., _LO], lam[..., _MID], lam[..., _HI]
    mean = (lo + mid + hi) / 3.0
    d = (np.stack([lo, mid, hi]) - mean) / mean
    out = (-0.5 - np.sum(d**2, axis=0) / 8.0 + np.sum(d**3, axis=0) / 15.0) / mean**2
    np.divide(l1[..., _HI, _MID] - l1[..., _LO, _MID], hi - lo, out=out, where=hi - lo > _TAYLOR_SPREAD * mean)
    return out


def newton_step_reference(lam, u, xt):
    """Newton direction and squared decrement of -sum_S Tr[X ln S] over S = sigma, sigma^{T_B}.

    ``lam`` and ``u`` are the ascending spectra and eigenvectors of both
    matrices, shape (2, 4) and (2, 4, 4), and ``xt`` the weights t W + I in
    each eigenbasis.  The gradient along E_k is -Re <E_k, L1 o X> and the
    Hessian -2 Re sum_m P_m W_m P_m^H with W_m[i, j] = L2[i, m, j] X[j, i]
    and P_m[k, i] = E_k[i, m], both in the eigenbasis.
    """
    et = u.conj().swapaxes(-1, -2)[:, None] @ _DIRECTIONS @ u[:, None]
    l1 = _log_dd1(lam[..., :, None], lam[..., None, :])
    grad = -np.sum((et.conj() * (l1 * xt)[:, None]).real, axis=(0, 2, 3))
    w = (_log_dd2(lam, l1) * xt.swapaxes(-1, -2)[:, :, None, :]).swapaxes(1, 2)
    p = et.transpose(0, 3, 1, 2)
    hess = -2.0 * np.sum((p @ w @ p.conj().swapaxes(-1, -2)).real, axis=(0, 1))
    scale = 1.0 / np.sqrt(np.diag(hess))
    vals, vecs = np.linalg.eigh(hess * np.outer(scale, scale) + 0j)
    inverse = np.divide(1.0, vals, out=np.zeros_like(vals), where=vals > 12 * np.finfo(float).eps * vals[-1])
    step = ((vecs * inverse) @ (vecs.conj().T @ (-grad * scale))).real * scale
    return step, float(-grad @ step)


# ---------------------------------------------------------------------------
# The barrier loop as it read before its stages became one table: t rises
# 300-fold and is clamped to the last weight, and sigma^{T_B} carries an
# all-zero weight matrix through every point.  The Newton step is passed in.
# ---------------------------------------------------------------------------

_T_FINAL = 30.0**9
_T_FACTOR = 300.0
_CENTERING_TOL = 1e-9
_STAGE_STEPS = 50
_MIN_STEP = 1e-9


def _barrier_point(x, t, base, weights):
    lam, u = np.linalg.eigh(base + (x @ _DIRECTIONS.reshape(2, 12, 16)).reshape(2, 4, 4))
    if lam[:, 0].min() <= 0.0:
        return None
    return _weighted(lam, u, t, weights)


def _weighted(lam, u, t, weights):
    xt = u.conj().swapaxes(-1, -2) @ (t * weights) @ u + np.eye(4)
    return -float(np.sum(np.diagonal(xt, axis1=-2, axis2=-1).real * np.log(lam))), lam, u, xt


def ppt_minimizer_reference(rho4, rho_b, newton_step, t_final=_T_FINAL):
    """The PPT sigma with Tr_A sigma = rho_B closest to rho, or None when rho_B is singular.

    ``t_final`` cuts the loop after the stage at that barrier weight, one of 1, 300, 300^2, ...
    """
    base = np.stack([np.kron(np.eye(2) / 2, m) for m in (rho_b, rho_b.T)])
    weights = np.stack([rho4, np.zeros_like(rho4)])
    x, t = np.zeros(12), 1.0
    point = _barrier_point(x, t, base, weights)
    if point is None:
        return None
    while True:
        previous = math.inf
        for _ in range(_STAGE_STEPS):
            value, lam, u, xt = point
            step, decrement = newton_step(lam, u, xt)
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
        if t == t_final:
            return base[0] + (x @ _DIRECTIONS[0].reshape(12, 16)).reshape(4, 4)
        t = min(t * _T_FACTOR, t_final)
        point = _weighted(*point[1:3], t, weights)


# ---------------------------------------------------------------------------
# The measurement search's earlier zoom: a 7x7 tangent-plane stencil that
# halves its width each round down to 1e-11, about 34 rounds from the
# default start.  A drop-in for ``qcorr.measures.minimize``.
# ---------------------------------------------------------------------------

_REFERENCE_ZOOM_U = np.repeat(np.linspace(-1.0, 1.0, 7), 7)
_REFERENCE_ZOOM_V = np.tile(np.linspace(-1.0, 1.0, 7), 7)
_REFERENCE_ZOOM_XTOL = 1e-11


def zoom_reference(objective, theta, phi, value, width, rounds):
    """The 7x7 halving zoom to a 1e-11 half-width, with the signature and result of ``minimize``."""
    from qcorr.measures import ZoomResult

    theta, phi, value = (np.array(a, dtype=float) for a in (theta, phi, value))
    trig = [(math.sin(t), math.cos(t), math.sin(p), math.cos(p)) for t, p in zip(theta, phi)]
    frame = np.array([[[st * cp, st * sp, ct], [ct * cp, ct * sp, -st], [-sp, cp, 0.0]] for st, ct, sp, cp in trig])
    u, v, nfev = np.zeros_like(theta), np.zeros_like(theta), 0
    for _ in range(rounds):
        if width < _REFERENCE_ZOOM_XTOL:
            break
        uu, vv = u[:, None] + width * _REFERENCE_ZOOM_U, v[:, None] + width * _REFERENCE_ZOOM_V
        n = frame[:, None, 0] + uu[..., None] * frame[:, None, 1] + vv[..., None] * frame[:, None, 2]
        tt = np.arctan2(np.hypot(n[..., 0], n[..., 1]), n[..., 2])
        pp = np.arctan2(n[..., 1], n[..., 0])
        values = objective(tt, pp)
        nfev += values.size
        for k, idx in enumerate(np.argmin(values, axis=1)):
            if values[k, idx] < value[k]:
                value[k], theta[k], phi[k], u[k], v[k] = values[k, idx], tt[k, idx], pp[k, idx], uu[k, idx], vv[k, idx]
        width *= 0.5
    return ZoomResult(np.stack([theta, phi], axis=-1), value, nfev, width < _REFERENCE_ZOOM_XTOL)


# ---------------------------------------------------------------------------
# Measurement-induced maps by the rank-1 closed form: overlaps Tr[Pi_i X_a]
# and eta_a = sum_i q[i, a] Tr_ancilla[Pi_i].  This equals the pinched
# assigned extension only when every projector has rank 1.
# ---------------------------------------------------------------------------

def rank_one_measurement_maps(am, m):
    """``MeasurementMaps`` of assignment ``am`` and rank-1 measurement ``m`` by the closed form."""
    from qcorr.linalg import partial_trace, tensor_product
    from qcorr.maps import BMap, MeasurementMaps, check_amap_conditions, realign_b_to_a

    d = am.system_dim
    d_anc = am.ancilla_dim
    marginals = tuple(
        partial_trace(pi, (d_anc, d), [1]) for pi in m.projectors
    )
    overlaps = np.array(
        [
            [
                np.trace(pi @ tensor_product(tau, p)).real
                for tau, p in zip(am.assigned, am.basis)
            ]
            for pi in m.projectors
        ]
    )
    eta = tuple(
        sum(overlaps[i, a] * marginals[i] for i in range(len(m)))
        for a in range(len(am.basis))
    )
    b_tensor = sum(
        tensor_product(eta_a, q.T) for eta_a, q in zip(eta, am.duals)
    )
    b = BMap(d, b_tensor)
    a = realign_b_to_a(b)
    return MeasurementMaps(
        a=a,
        b=b,
        projector_marginals=marginals,
        overlaps=overlaps,
        eta=eta,
        conditions=check_amap_conditions(a),
    )


# ---------------------------------------------------------------------------
# The separable builders as they were before they assembled each state from
# its witness: the worked example's matrices written out by hand, and
# classical_correlated's matrix and witness built in one loop side by side.
# ---------------------------------------------------------------------------

def example_separable_reference(p):
    """The two-qubit mixture p|00><00| + (1 - p)|++><++| with its hand-built witness."""
    from qcorr.errors import OutOfRange
    from qcorr.linalg import ZERO_WEIGHT_TOL
    from qcorr.states import KET_0, KET_PLUS, SeparableEnsemble, kron_all, validate_density

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


def example_extension_reference(p):
    """The ancilla x A x B extension p|100><100| + (1 - p)|0++><0++|, written out."""
    from qcorr.errors import OutOfRange
    from qcorr.states import KET_0, KET_1, KET_PLUS, kron_all, validate_density

    if not 0.0 <= p <= 1.0:
        raise OutOfRange(f"mixing weight p={p} outside [0, 1]")
    first = kron_all(KET_1.projector(), KET_0.projector(), KET_0.projector())
    second = kron_all(KET_0.projector(), KET_PLUS.projector(), KET_PLUS.projector())
    return validate_density(p * first + (1.0 - p) * second, (2, 2, 2))


def classical_correlated_reference(weights, projectors, states):
    """sum_a q_a P_a (x) tau_a accumulated term by term, with the witness built beside it."""
    from qcorr.errors import DimensionMismatch, NotProbability
    from qcorr.linalg import ROUNDING_TOL, ZERO_WEIGHT_TOL, _square_operators, tensor_product
    from qcorr.measurement import ProjectiveMeasurement
    from qcorr.states import SeparableEnsemble, _matrix_of, validate_density

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
    state_list = _square_operators(state_list, "B state")

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


def phase_fixed_eig_reference(m):
    """numpy's eigh with each eigenvector column rephased, one column at a time, so
    that its first component above 1e-8 in magnitude is real and positive."""
    vals, vecs = np.linalg.eigh(m)
    vecs = vecs.copy()
    for j in range(m.shape[0]):
        col = vecs[:, j]
        pivot = col[np.argmax(np.abs(col) > 1e-8)]
        if abs(pivot) > 0:
            vecs[:, j] = col * (pivot.conj() / abs(pivot))
    return vals, vecs
