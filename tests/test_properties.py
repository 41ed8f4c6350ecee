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

from conftest import classical_state, low_rank_density

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
    bound = quantumness_upper_bound(rho).upper_bound
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


#: Two-qubit states by rank; ranks 2 and 3 include inputs whose KKT finish is rejected.
RANKED = {1: pure_state, 2: lambda seed: low_rank_density(2, seed), 3: lambda seed: low_rank_density(3, seed),
          4: lambda seed: random_density((2, 2), seed)}


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(rank=st.sampled_from(sorted(RANKED)), seed=st.integers(0, 2**20))
def test_quantumness_lies_between_its_bounds(rank, seed):
    """floor <= lower_bound <= upper_bound <= one-way deficit; the middle one exactly, the others to rounding.

    The floor is the coherent information; ``lower_bound`` is the larger of
    it and the KKT finish's certificate, capped at ``upper_bound``.
    """
    rho = RANKED[rank](seed)
    estimate = quantumness_upper_bound(rho)
    s_ab = von_neumann_entropy(rho)
    floor = max(0.0, von_neumann_entropy(rho.marginal([0])) - s_ab, von_neumann_entropy(rho.marginal([1])) - s_ab)
    assert floor - 1e-12 <= estimate.lower_bound <= estimate.upper_bound
    assert estimate.upper_bound <= measure_report(rho, CFG).oneway_deficit + 1e-6
