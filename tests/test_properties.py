"""Property tests of the proven ordering of the measures over seeded states."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from qcorr import (
    OptimizerConfig,
    ket,
    measure_report,
    quantumness_upper_bound,
    random_density,
    validate_density,
    von_neumann_entropy,
)

from conftest import classical_state

CFG = OptimizerConfig(grid_resolution=32)


def pure_state(seed):
    rng = np.random.default_rng(seed)
    k = ket(*(rng.standard_normal(4) + 1j * rng.standard_normal(4)))
    return validate_density(k.projector(), (2, 2))


BUILDERS = {
    "wishart": lambda seed: random_density((2, 2), seed),
    "pure": pure_state,
    "classical": classical_state,
}


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(kind=st.sampled_from(sorted(BUILDERS)), seed=st.integers(0, 2**20))
def test_ordering_and_additivity(kind, seed):
    rep = measure_report(BUILDERS[kind](seed), CFG)
    assert -1e-6 <= rep.discord <= rep.oneway_deficit + 1e-6
    assert rep.oneway_deficit <= rep.quantum_deficit + 1e-6
    assert abs(rep.discord + rep.classical_correlation - rep.mutual_information) < 1e-9


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(kind=st.sampled_from(sorted(BUILDERS)), seed=st.integers(0, 2**20))
def test_quantumness_vanishes_exactly_on_separable_states(kind, seed):
    """For two qubits separable = PPT, so the bound is 0 iff rho^{T_B} >= 0.

    With lam = min eig(rho^{T_B}) < 0, quantum Pinsker and
    ||X^{T_B}||_1 <= 2 ||X||_1 give D(rho || sigma) >= lam^2 / (8 ln 2)
    for every PPT sigma.
    """
    rho = validate_density(BUILDERS[kind](seed).matrix, (2, 2))  # drop any built-in witness
    bound = quantumness_upper_bound(rho, restarts=0).upper_bound
    lam = np.linalg.eigvalsh(rho.matrix.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4))[0]
    if lam >= 0.0:
        assert bound <= 1e-9
    else:
        assert bound >= lam**2 / (8.0 * math.log(2.0)) - 1e-9
    s_ab = von_neumann_entropy(rho)
    coherent = max(
        0.0,
        von_neumann_entropy(rho.marginal([0])) - s_ab,
        von_neumann_entropy(rho.marginal([1])) - s_ab,
    )
    assert coherent - 1e-9 <= bound <= measure_report(rho, CFG).oneway_deficit + 1e-6
