"""Property tests of the proven ordering of the measures over seeded states."""

import numpy as np
from hypothesis import given, settings, strategies as st

from qcorr import OptimizerConfig, ket, measure_report, random_density, validate_density

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
