"""The two-qubit PPT program behind :func:`~qcorr.quantumness.quantumness_upper_bound`.

Separable two-qubit states are the PPT ones (Peres, PRL 77, 1413 (1996)),
so min D(rho || sigma) over sigma >= 0, sigma^{T_B} >= 0,
Tr_A sigma = rho_B is convex.  In sigma(x) = (I/2) (x) rho_B + sum_k x_k E_k
the 12 directions E_k (sigma_i (x) I / 4, sigma_i (x) sigma_j / 4) keep
Tr_A sigma = rho_B, and x = 0 is strictly feasible when rho_B is full rank.
:func:`_ppt_minimizer` solves it with a log barrier and finishes on the
active PPT face with a KKT Newton that certifies itself by weak duality.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .linalg import PAULI_PRODUCTS, ROUNDING_TOL, _partial_transpose, partial_trace

_E = PAULI_PRODUCTS[4:] / 4
#: The directions E_k and their partial transposes on B, each flattened, shape (2, 12, 16).
_DIRECTIONS = np.stack([_E, _partial_transpose(_E)]).reshape(2, 12, 16)
#: The barrier weight t of each centering stage.  The first ``_FACE_STAGES`` always run; the rest
#: run only when :func:`_kkt_finish` is rejected.  The last one's duality gap 8/t, about 4.1e-13 nats,
#: is also the gap the finish's certificate must close to.
_STAGES = (1.0, 300.0, 300.0**2, 300.0**3, 300.0**4, 300.0**5, 30.0**9)
#: Stages run before :func:`_kkt_finish` tries the active PPT face: t = 1, 300 and 300^2.
_FACE_STAGES = 3
#: The KKT finish gives up after this many Newton steps; converging finishes take at most about 4.
_KKT_STEPS = 6
#: The KKT finish stops once a step moves x by at most this (max norm).
_KKT_TOL = 1e-9
#: The log-determinant weight I of sigma and of sigma^{T_B}; sigma's stage adds t U^H rho U.
_IDENTITIES = np.array([np.eye(4), np.eye(4)], dtype=complex)
#: A centering stage ends once the squared Newton decrement is below this.
_CENTERING_TOL = 1e-9
#: A cap on each stage's Newton steps; converging stages take at most about 18.
_STAGE_STEPS = 50
#: The backtracking line search gives up once its step factor falls to this.
_MIN_STEP = 1e-9
#: :func:`_log_dd2` takes its Taylor series for triples spread by at most this times their mean.
_TAYLOR_SPREAD = 1e-3


def _log_dd1(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Divided differences (ln a - ln b) / (a - b) of positive arrays, 1/a at a = b."""
    lo, gap = np.minimum(a, b), np.abs(a - b)
    out = 1.0 / lo
    np.divide(np.log1p(gap / lo), gap, out=out, where=gap > 0.0)  # ln hi - ln lo = log1p(gap / lo)
    return out


#: Index table (lo, mid, hi) of the 64 triples (i, m, j) of a 4-point spectrum sorted ascending, shape (3, 64).
_TRIPLES = np.array([sorted(t) for t in itertools.product(range(4), repeat=3)]).T
#: Flat indices of each triple's pairs (hi, mid) and (lo, mid) into a 4x4 table, shape (2, 64).
_PAIRS = 4 * _TRIPLES[[2, 0]] + _TRIPLES[1]


def _log_dd2(lam: np.ndarray, l1: np.ndarray) -> np.ndarray:
    """Second divided differences ln[l_i, l_m, l_j] of ascending spectra (..., 4), shape (..., 4, 4, 4).

    ``l1`` holds the first divided differences ln[l_i, l_j], shape (..., 4, 4).
    """
    triples = lam[..., _TRIPLES]
    lo, mid, hi = triples[..., 0, :], triples[..., 1, :], triples[..., 2, :]
    mean = (lo + mid + hi) / 3.0
    # Every triple first takes -(1/2 + p2/8 - p3/15) / mean^2 with p_k = sum ((l - mean) / mean)^k,
    # the Taylor series about the mean; the quotient then replaces it wherever the triple is spread.
    # d * d2 rather than d**3: a float power costs more than the rest of the call.
    d = (triples - mean[..., None, :]) / mean[..., None, :]
    d2 = d * d
    out = (-0.5 - np.sum(d2, axis=-2) / 8.0 + np.sum(d2 * d, axis=-2) / 15.0) / mean**2
    pairs = l1.reshape(*l1.shape[:-2], 16)[..., _PAIRS]
    np.divide(pairs[..., 0, :] - pairs[..., 1, :], hi - lo, out=out, where=hi - lo > _TAYLOR_SPREAD * mean)
    return out.reshape(*lam.shape, 4, 4)


def _barrier_point(x: np.ndarray, t: float, base: np.ndarray, rho: np.ndarray):
    """Value of t * (-Tr rho ln sigma) - ln det sigma - ln det sigma^{T_B} at sigma = sigma(x).

    Returns it with both spectra, eigenvectors and weights X in each
    eigenbasis (t rho + I for sigma, I for sigma^{T_B}), or None when
    either matrix is not positive definite.
    """
    lam, u = np.linalg.eigh(base + (x @ _DIRECTIONS).reshape(2, 4, 4))
    if lam[:, 0].min() <= 0.0:
        return None
    return _weighted(lam, u, t, rho)


def _weighted(lam: np.ndarray, u: np.ndarray, t: float, rho: np.ndarray):
    """:func:`_barrier_point` at barrier weight t from the spectra and eigenvectors of both matrices."""
    xt = _IDENTITIES.copy()
    xt[0] += u[0].conj().T @ (t * rho) @ u[0]
    return -float(np.sum(np.diagonal(xt, axis1=-2, axis2=-1).real * np.log(lam))), lam, u, xt


def _in_eigenbases(u: np.ndarray) -> np.ndarray:
    """Every E_k in the eigenbasis of sigma and every E_k^{T_B} in that of sigma^{T_B}, flattened, shape (2, 12, 16)."""
    # (U^H E_k U)[i, j] = sum_ab E_k[a, b] conj(U[a, i]) U[b, j].
    return _DIRECTIONS @ (u.conj()[:, :, None, :, None] * u[:, None, :, None, :]).reshape(2, 16, 16)


def _log_derivatives(lam: np.ndarray, et: np.ndarray, xt: np.ndarray):
    """Gradient and Hessian of -sum_S Tr[X ln S] along the E_k.

    In the eigenbasis of S, with L1 and L2 the divided differences of ln at
    its spectrum (Daleckii-Krein), -Tr[X ln S] has gradient -Re <E_k, L1 o X>
    along E_k and Hessian -2 Re sum_m P_m W_m P_m^H, where
    W_m[i, j] = L2[i, m, j] X[j, i] and P_m[k, i] = E_k[i, m].  Each sum over
    m is one product P T P^H, with P[k, (i, m)] = E_k[i, m] and T the
    block-diagonal matrix of the W_m.  ``lam``, ``et`` (from
    :func:`_in_eigenbases`) and ``xt`` stack the matrices S summed over.
    """
    l1 = _log_dd1(lam[..., :, None], lam[..., None, :])
    grad = -np.sum((et.conj() @ (l1 * xt).reshape(-1, 16, 1)).real, axis=(0, 2))
    w = _log_dd2(lam, l1) * xt.swapaxes(-1, -2)[:, :, None, :]  # w[s, i, m, j] = W_m[i, j]
    blocks = (w[..., None] * np.eye(4)[:, None, :]).reshape(-1, 16, 16)  # T[(i, m), (j, n)] = W_m[i, j] if m == n
    hess = -2.0 * np.sum(et @ blocks @ et.conj().swapaxes(-1, -2), axis=0).real
    return grad, hess


def _scaled_solve(matrix: np.ndarray, rhs: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """The pseudo-inverse of ``matrix`` applied to ``rhs``, solved with the matrix scaled by ``scale`` on both sides.

    Eigenvalues of the scaled matrix at most 12 eps times the largest, by
    absolute value, are dropped.
    """
    # A pseudo-inverse through the complex eigh that every other
    # decomposition here uses: a least-squares or real symmetric solver
    # would map about 0.5 MB more of LAPACK into memory.
    vals, vecs = np.linalg.eigh(matrix * np.outer(scale, scale) + 0j)
    size = np.abs(vals)
    inverse = np.divide(1.0, vals, out=np.zeros_like(vals), where=size > 12 * np.finfo(float).eps * size.max())
    return ((vecs * inverse) @ (vecs.conj().T @ (rhs * scale))).real * scale


def _newton_step(lam: np.ndarray, u: np.ndarray, xt: np.ndarray):
    """Newton direction and squared decrement of the barrier at one point.

    The derivatives are :func:`_log_derivatives` summed over sigma and
    sigma^{T_B}.  The Hessian is scaled by its diagonal before the solve:
    near the boundary its entries span about 18 orders of magnitude.
    """
    grad, hess = _log_derivatives(lam, _in_eigenbases(u), xt)
    step = _scaled_solve(hess, -grad, 1.0 / np.sqrt(np.diag(hess)))
    return step, float(-grad @ step)


def _feasible_start(lam: np.ndarray, u: np.ndarray, step: np.ndarray) -> float:
    """The first of 1, 1/2, 1/4, ... that keeps sigma + alpha S and its T_B positive definite, stopping at ``_MIN_STEP``.

    S = sum_k step_k E_k.  In the eigenbasis U of each matrix, with spectrum
    L, the matrix plus alpha S is positive definite exactly when
    1 + alpha mu > 0, where mu is the least eigenvalue of L^{-1/2} U^H S U L^{-1/2}.
    """
    s = (step @ _DIRECTIONS).reshape(2, 4, 4)
    v = u / np.sqrt(lam)[:, None, :]
    mu = np.linalg.eigh(v.conj().swapaxes(-1, -2) @ s @ v)[0][:, 0].min()
    alpha = 1.0
    while alpha > _MIN_STEP and alpha * mu <= -1.0:
        alpha *= 0.5
    return alpha


def _centered(x: np.ndarray, point, stages, base: np.ndarray, rho4: np.ndarray):
    """Run one centering stage per t in ``stages`` from x and its barrier point; the last x and point."""
    for t in stages:
        point = _weighted(*point[1:3], t, rho4)  # sigma(x) is unchanged: only its weight rises
        previous = math.inf
        for _ in range(_STAGE_STEPS):
            value, lam, u, xt = point
            step, decrement = _newton_step(lam, u, xt)
            if decrement <= _CENTERING_TOL or (previous < 0.25 and decrement >= previous):
                break
            previous, alpha = decrement, 1.0 if decrement < 1.0 else _feasible_start(lam, u, step)
            trial = _barrier_point(x + alpha * step, t, base, rho4)
            if decrement >= 0.25 or trial is None:
                while alpha > _MIN_STEP and (trial is None or trial[0] > value - 0.25 * alpha * decrement):
                    alpha *= 0.5
                    trial = _barrier_point(x + alpha * step, t, base, rho4)
                if trial is None or trial[0] > value - 0.25 * alpha * decrement:
                    break
            x, point = x + alpha * step, trial
    return x, point


def _face_certificate(lam, u, weight, mu, rho_b) -> tuple[float, float]:
    """A lower bound on min -Tr rho ln sigma over the PPT sigma with Tr_A sigma = rho_B, and f(sigma), in nats.

    Weak duality (Boyd & Vandenberghe, Convex Optimization, sec. 5.5) at a
    positive definite sigma with spectra ``lam`` and eigenvectors ``u`` of
    sigma and sigma^{T_B}, and ``weight`` rho in sigma's eigenbasis.  f is convex,
    so f(sigma') >= f(sigma) + Tr G (sigma' - sigma) with G = -D ln(sigma)[rho]
    and Tr G sigma = -1.  Split G = I (x) Y + Z_1 + Z_2^{T_B} with
    Z_2 = mu v_0 v_0^H (v_0 the least eigenvector of sigma^{T_B}, mu >= 0),
    Y = Tr_A(G - Z_2^{T_B}) / 2 and Z_1 the rest.  Every feasible sigma' has
    Tr sigma' = 1, Tr Z_2 sigma'^{T_B} >= 0 and Tr Z_1 sigma' >= -eps with
    eps = max(0, -lambda_min Z_1), so f(sigma') >= f(sigma) + 1 + Tr Y rho_B - eps.
    """
    g = -u[0] @ (_log_dd1(lam[0][:, None], lam[0][None, :]) * weight) @ u[0].conj().T
    z2 = _partial_transpose(mu * np.outer(u[1][:, 0], u[1][:, 0].conj()))
    y = partial_trace(g - z2, (2, 2), [1]) / 2.0
    eps = max(0.0, -np.linalg.eigh(g - np.kron(np.eye(2), y) - z2)[0][0])
    f = -float(np.sum(weight.diagonal().real * np.log(lam[0])))
    return f + 1.0 + float(np.sum(y * rho_b.conj()).real) - eps, f  # Tr Y rho_B = sum_ij Y_ij conj(rho_B)_ij


def _kkt_finish(x: np.ndarray, base: np.ndarray, rho4: np.ndarray, rho_b: np.ndarray):
    """Newton's method on the KKT system of min f(x) = -Tr rho ln sigma(x) subject to g(x) = 0.

    g is the least eigenvalue of sigma^{T_B}: the PPT face the barrier point
    ``x`` is approaching.  Its gradient is v_0^H F_k v_0 with F_k = E_k^{T_B}
    and its Hessian 2 Re sum_{j > 0} (v_0^H F_k v_j)(v_j^H F_l v_0) / (l_0 - l_j)
    over the other eigenvectors (second-order perturbation); f's derivatives
    are :func:`_log_derivatives` with weight rho on sigma alone.  The
    multiplier mu starts at the least-squares fit of grad f = mu grad g.
    Each step solves the 13x13 system in (x, mu), scaled by its diagonal
    (and the border by the scaled grad g's norm), through
    :func:`_scaled_solve`; the steps stop once one moves x by at most
    ``_KKT_TOL``.  Returns sigma and :func:`_face_certificate` there, or None
    unless within ``_KKT_STEPS`` steps sigma is positive definite, mu >= 0,
    the least eigenvalue of sigma^{T_B} is at least ``-ROUNDING_TOL`` and
    the certificate is within 8 / ``_STAGES[-1]`` of f(sigma).
    """
    mu, moved = None, math.inf
    for steps in range(_KKT_STEPS + 1):
        lam, u = np.linalg.eigh(base + (x @ _DIRECTIONS).reshape(2, 4, 4))
        if lam[0, 0] <= 0.0:
            return None
        weight = u[0].conj().T @ rho4 @ u[0]
        if moved <= _KKT_TOL:
            break
        if steps == _KKT_STEPS:
            return None
        et = _in_eigenbases(u)
        grad_f, hess_f = _log_derivatives(lam[:1], et[:1], weight[None])
        rows = et[1].reshape(12, 4, 4)[:, 0]  # (U^H F_k U)[0, j]
        grad_g = rows[:, 0].real
        if mu is None:
            mu = float(grad_f @ grad_g) / float(grad_g @ grad_g)
        if not lam[1, 0] < lam[1, 1]:  # a repeated least eigenvalue: g has no gradient
            return None
        hess = hess_f - mu * 2.0 * ((rows[:, 1:] / (lam[1, 0] - lam[1, 1:])) @ rows[:, 1:].conj().T).real
        diag = np.diag(hess)
        if not diag.min() > 0.0:  # not convex along some E_k: mu < 0 or rho misses a direction
            return None
        kkt = np.zeros((13, 13))
        kkt[:12, :12], kkt[:12, 12], kkt[12, :12] = hess, -grad_g, -grad_g
        scale = 1.0 / np.sqrt(diag)
        step = _scaled_solve(kkt, np.append(mu * grad_g - grad_f, lam[1, 0]),
                             np.append(scale, 1.0 / np.linalg.norm(scale * grad_g)))
        x, mu, moved = x + step[:12], mu + step[12], np.abs(step[:12]).max()
    if mu < 0.0 or lam[1, 0] < -ROUNDING_TOL:
        return None
    bound, f = _face_certificate(lam, u, weight, mu, rho_b)
    if not f - bound <= 8.0 / _STAGES[-1]:
        return None
    return base[0] + (x @ _DIRECTIONS[0]).reshape(4, 4), bound


def _ppt_minimizer(rho4: np.ndarray, rho_b: np.ndarray):
    """The PPT sigma with Tr_A sigma = rho_B closest to rho, with a certified lower bound on the minimum.

    Log-barrier method: one centering stage per t in ``_STAGES``, taking
    Newton steps from the last stage's sigma, the full step when the
    decrement is below 1/2 and the step stays feasible, a backtracking line
    search otherwise.  A squared decrement below 1 keeps the full step
    inside the barrier's Dikin ellipsoid, so feasible; at 1 or more the
    search starts from :func:`_feasible_start` instead of probing points
    outside the cone.  A stage ends when the squared decrement is below
    ``_CENTERING_TOL`` or stops shrinking (rounding has taken over), when
    the line search finds no decrease, or at the cap.

    After the first ``_FACE_STAGES`` stages :func:`_kkt_finish` tries to
    land on the active PPT face.  If its gate passes it returns that sigma
    with the certified minimum of -Tr rho ln sigma (nats), never above the
    minimum and within 8 / ``_STAGES[-1]`` of f(sigma); otherwise the
    remaining stages run from the last barrier point, as without the finish,
    and the bound is None.  None when rho_B is singular: the feasible set
    then has no interior.
    """
    sigma0 = np.kron(np.eye(2) / 2, rho_b)
    base = np.stack([sigma0, _partial_transpose(sigma0)])
    x = np.zeros(12)
    point = _barrier_point(x, _STAGES[0], base, rho4)
    if point is None:
        return None
    x, point = _centered(x, point, _STAGES[:_FACE_STAGES], base, rho4)
    finish = _kkt_finish(x, base, rho4, rho_b)
    if finish is not None:
        return finish
    x, point = _centered(x, point, _STAGES[_FACE_STAGES:], base, rho4)
    return base[0] + (x @ _DIRECTIONS[0]).reshape(4, 4), None
