"""Independent brute-force oracles used to pin optimizer results.

Everything here is written against raw numpy with closed-form two-level
algebra (Bloch decomposition of the measurement statistics, quadratic
eigenvalue formula) so that it shares no code path with the package's
generic measurement machinery.
"""

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
