import math

import numpy as np
import pytest

from qcorr import (
    bell_state,
    example_separable,
    mutual_information,
    random_density,
    relative_entropy,
    shannon_entropy,
    shannon_mutual_information,
    validate_density,
    von_neumann_entropy,
)
from qcorr.errors import DimensionMismatch, NotProbability
from qcorr.linalg import hermitian_eig, tensor_product

from conftest import product_state
from oracles import entropy_bits


class TestShannonEntropy:
    def test_deterministic_distribution(self):
        assert shannon_entropy([1.0, 0.0]) == 0.0

    def test_uniform_bit(self):
        assert abs(shannon_entropy([0.5, 0.5]) - 1.0) < 1e-15

    def test_quarter_three_quarter(self):
        # -(1/4) log2(1/4) - (3/4) log2(3/4) evaluated by scalar arithmetic
        assert abs(shannon_entropy([0.25, 0.75]) - 0.8112781244591328) < 1e-15

    def test_rejects_invalid(self):
        with pytest.raises(NotProbability):
            shannon_entropy([0.5, 0.6])
        with pytest.raises(NotProbability):
            shannon_entropy([1.2, -0.2])


class TestShannonMutualInformation:
    def test_product_table(self):
        table = np.outer([0.3, 0.7], [0.4, 0.6])
        assert abs(shannon_mutual_information(table)) < 1e-15

    def test_perfectly_correlated(self):
        assert abs(shannon_mutual_information([[0.5, 0.0], [0.0, 0.5]]) - 1.0) < 1e-15

    def test_partially_correlated(self):
        # H(A) = H(B) = 1, H(AB) = 1.7219280948873621 by direct evaluation
        table = [[0.4, 0.1], [0.1, 0.4]]
        assert abs(shannon_mutual_information(table) - 0.2780719051126379) < 1e-14


class TestVonNeumannEntropy:
    def test_pure_state(self):
        assert von_neumann_entropy(bell_state()) < 1e-12

    def test_maximally_mixed(self):
        assert abs(von_neumann_entropy(np.eye(4) / 4) - 2.0) < 1e-14

    def test_against_spectrum_oracle(self):
        rho = example_separable(0.5)
        assert abs(von_neumann_entropy(rho) - entropy_bits(rho.matrix)) < 1e-12


class TestRelativeEntropy:
    def test_self_divergence_is_zero(self):
        for seed in range(5):
            rho = random_density((2, 2), seed)
            assert relative_entropy(rho, rho) < 1e-12

    def test_disjoint_support_is_infinite(self):
        zero = np.diag([1.0, 0.0]).astype(complex)
        one = np.diag([0.0, 1.0]).astype(complex)
        assert math.isinf(relative_entropy(zero, one))

    def test_diagonal_closed_form(self):
        # sum_i p_i (log2 p_i - log2 q_i) with p = (1/2, 1/2), q = (1/4, 3/4)
        value = relative_entropy(np.eye(2) / 2, np.diag([0.25, 0.75]))
        assert abs(value - 0.2075187496394219) < 1e-14

    def test_nonnegative_on_corpus(self, random_two_qubit_corpus):
        for i, rho in enumerate(random_two_qubit_corpus[:10]):
            sigma = random_two_qubit_corpus[i + 10]
            div = relative_entropy(rho, sigma)
            assert div >= 0.0
            assert div > 1e-8  # distinct random states are strictly apart

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            relative_entropy(np.eye(2) / 2, np.eye(4) / 4)


class TestMutualInformation:
    def test_product_state(self):
        assert abs(mutual_information(product_state(0))) < 1e-12

    def test_bell_state(self):
        assert abs(mutual_information(bell_state()) - 2.0) < 1e-12

    def test_matches_relative_entropy_route(self):
        for seed in range(100):
            rho = random_density((2, 2), seed)
            via_entropy = mutual_information(rho)
            marginals = tensor_product(rho.marginal([0]).matrix, rho.marginal([1]).matrix)
            via_divergence = relative_entropy(rho.matrix, marginals)
            assert abs(via_entropy - via_divergence) < 1e-9


class TestUnitaryInvariance:
    def test_entropy_invariant_under_conjugation(self):
        for seed in range(5):
            rho = random_density((2, 2), seed)
            rng = np.random.default_rng(seed + 500)
            h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            u = hermitian_eig((h + h.conj().T) / 2).eigenvectors
            rotated = validate_density(u @ rho.matrix @ u.conj().T, (2, 2))
            assert abs(von_neumann_entropy(rotated) - von_neumann_entropy(rho)) < 1e-10


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_entropies_reject_non_finite_matrices(bad):
    from qcorr.errors import NotHermitian

    m = np.array([[bad, 0], [0, 1]], dtype=complex)
    with pytest.raises(NotHermitian):
        von_neumann_entropy(m)
    with pytest.raises(NotHermitian):
        relative_entropy(np.eye(2) / 2, m)
    with pytest.raises(NotHermitian):
        relative_entropy(m, np.eye(2) / 2)


def test_relative_entropy_rejects_non_psd_reference():
    from qcorr.errors import NegativeEigenvalue

    with pytest.raises(NegativeEigenvalue):
        relative_entropy(np.diag([1.0, 0.0]), np.diag([1.5, -0.5]))


class TestBatchedRelativeEntropyKernel:
    """``_relative_entropy_kernel`` on one reference per call: full-rank, rank-deficient, non-PSD."""

    # r has no weight on |11>, so a reference whose negative eigenvector is
    # |11> does not leak and must be reported as not PSD.
    R = np.diag([0.4, 0.3, 0.3, 0.0]).astype(complex)

    def _kernel(self, sigma):
        from qcorr.entropy import _relative_entropy_kernel

        return _relative_entropy_kernel(self.R, von_neumann_entropy(self.R), sigma)

    def test_rows_match_relative_entropy(self):
        full_rank = [random_density((2, 2), 300 + i).matrix for i in range(6)]
        for sigma in full_rank:
            assert abs(self._kernel(sigma) - relative_entropy(self.R, sigma)) <= 1e-12
        rank_deficient = np.diag([0.0, 0.5, 0.3, 0.2]).astype(complex)  # r leaks along |00>
        leaking_non_psd = np.diag([-0.01, 0.5, 0.3, 0.21]).astype(complex)
        for sigma in (rank_deficient, leaking_non_psd):
            assert math.isinf(self._kernel(sigma)) and math.isinf(relative_entropy(self.R, sigma))

    def test_single_reference_gives_a_float(self):
        sigma = random_density((2, 2), 310).matrix
        value = self._kernel(sigma)
        assert isinstance(value, float)
        assert value == relative_entropy(self.R, sigma)

    def test_non_psd_row_raises(self):
        from qcorr.errors import NegativeEigenvalue

        non_psd = np.diag([0.5, 0.3, 0.21, -0.01]).astype(complex)
        with pytest.raises(NegativeEigenvalue):
            self._kernel(non_psd)
        with pytest.raises(NegativeEigenvalue):
            relative_entropy(self.R, non_psd)
