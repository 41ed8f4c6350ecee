import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from qcorr import classical_correlated, bloch_projectors, random_density, validate_density
from qcorr.linalg import hermitian_eig


def product_state(seed):
    """Random two-qubit product state."""
    a = random_density((2,), seed).matrix
    b = random_density((2,), seed + 10_000).matrix
    return validate_density(np.kron(a, b), (2, 2))


def low_rank_density(rank, seed):
    """Random two-qubit state of the given rank: G G^dag normalized, G a 4 x rank complex Gaussian."""
    rng = np.random.default_rng([seed, rank])
    g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
    return validate_density(g @ g.conj().T / np.linalg.norm(g) ** 2, (2, 2))


def classical_state(seed, commuting_b=True):
    """Random classically correlated two-qubit state.

    With ``commuting_b`` the B-side states share one eigenbasis, which also
    makes the state equal to its decohered counterpart.
    """
    rng = np.random.default_rng(seed)
    q0 = rng.uniform(0.15, 0.42)  # away from 1/2 so the A marginal is nondegenerate
    basis = bloch_projectors(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
    if commuting_b:
        herm = random_density((2,), seed + 20_000).matrix
        vecs = hermitian_eig(herm).eigenvectors
        while True:
            lams = rng.uniform(0.05, 0.95, size=2)
            mixed = q0 * lams[0] + (1 - q0) * lams[1]
            if abs(mixed - 0.5) > 0.02:  # keep the B marginal nondegenerate too
                break
        taus = [(vecs * np.array([lam, 1 - lam])) @ vecs.conj().T for lam in lams]
    else:
        taus = [random_density((2,), seed + 30_000 + i).matrix for i in range(2)]
    return classical_correlated([q0, 1 - q0], basis, taus)


@pytest.fixture(scope="session")
def random_two_qubit_corpus():
    return [random_density((2, 2), seed) for seed in range(40)]
