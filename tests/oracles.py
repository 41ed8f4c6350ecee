"""Independent brute-force oracles used to pin optimizer results.

Everything here is written against raw numpy with closed-form two-level
algebra (Bloch decomposition of the measurement statistics, quadratic
eigenvalue formula) so that it shares no code path with the package's
generic measurement machinery.
"""

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
# One-trial-at-a-time witness refinement: the coordinate descent of
# ``qcorr.quantumness._refine_witness`` as it read before its trial moves
# were batched, on raw numpy (parametrization, divergence and B marginal
# included), so the batched search can be pinned to the same path.
# ---------------------------------------------------------------------------

SUPPORT_CUTOFF = 1e-10
SUPPORT_LEAK_TOL = 1e-8


def _bloch_batch_to_states(r):
    norms = np.linalg.norm(r, axis=1)
    scale = np.where(norms > 1.0, 1.0 / np.maximum(norms, 1e-300), 1.0)
    r = r * scale[:, None]
    return 0.5 * (np.eye(2, dtype=complex) + np.einsum("...i,iab->...ab", r, np.stack(PAULIS)))


def _params_to_sigma(x, k):
    w2 = x[:k] ** 2
    total = w2.sum()
    weights = np.full(k, 1.0 / k) if total <= 0.0 else w2 / total
    a_states = _bloch_batch_to_states(x[k : 4 * k].reshape(k, 3))
    b_states = _bloch_batch_to_states(x[4 * k :].reshape(k, 3))
    products = np.einsum("kab,kcd->kacbd", a_states, b_states).reshape(k, 4, 4)
    sigma = np.einsum("k,kab->ab", weights, products)
    return sigma, weights, a_states, b_states


def _relative_entropy_kernel(r, s_r, s, support_tol=SUPPORT_LEAK_TOL):
    vals, vecs = np.linalg.eigh((s + s.conj().T) / 2)
    kernel = vals <= SUPPORT_CUTOFF
    if np.any(kernel):
        v_ker = vecs[:, kernel]
        leak = float(np.real(np.einsum("ij,jk,ki->", v_ker.conj().T, r, v_ker)))
        if leak > support_tol:
            return math.inf
        if vals[0] < -SUPPORT_CUTOFF:
            raise ValueError(f"eigenvalue {vals[0]:.3e}; matrix is not PSD")
    logs = np.where(~kernel, np.log2(np.maximum(vals, SUPPORT_CUTOFF)), 0.0)
    log_s = (vecs * logs) @ vecs.conj().T
    return max(0.0, -s_r - float(np.real(np.trace(r @ log_s))))


def _marginal_b(sigma):
    return sigma.reshape(2, 2, 2, 2).trace(axis1=0, axis2=2)


def sequential_refine_witness(rho4, s_rho, rho_b, x0, k, outer_iterations=4, mu0=10.0, max_sweeps=30):
    """Deterministic coordinate descent under a ramped marginal penalty."""
    x = np.array(x0, dtype=float)

    def objective(xv, mu):
        sigma, _, _, _ = _params_to_sigma(xv, k)
        div = _relative_entropy_kernel(rho4, s_rho, sigma)
        if math.isinf(div):
            return math.inf
        gap = _marginal_b(sigma) - rho_b
        return div + mu * float(np.sum(np.abs(gap) ** 2))

    for outer in range(outer_iterations):
        mu = mu0 * 10.0**outer
        current = objective(x, mu)
        step = 0.25
        sweeps = 0
        while step > 1e-4 and sweeps < max_sweeps:
            sweeps += 1
            if current < 1e-12:
                return x
            improved = False
            for j in range(x.size):
                for delta in (step, -step):
                    trial = x.copy()
                    trial[j] += delta
                    value = objective(trial, mu)
                    if value < current - 1e-12:
                        x, current = trial, value
                        improved = True
                        break
            if not improved:
                step *= 0.5
    return x
