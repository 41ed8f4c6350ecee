import math

import numpy as np
import pytest

from qcorr import (
    bell_state,
    example_separable,
    measure_report,
    mutual_information,
    random_density,
    relative_entropy,
    shannon_entropy,
    shannon_mutual_information,
    validate_density,
    von_neumann_entropy,
)
from qcorr.errors import DimensionMismatch, NotDensity, NotProbability
from qcorr.linalg import ROUNDING_TOL, hermitian_eig, tensor_product

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

    @pytest.mark.parametrize("table", [[0.5, 0.5], [[[0.5], [0.5]]]], ids=["1-D", "3-D"])
    def test_rejects_a_table_that_is_not_2d(self, table):
        with pytest.raises(NotProbability, match="expected a 2-D table"):
            shannon_mutual_information(table)


class TestVonNeumannEntropy:
    def test_pure_state(self):
        assert von_neumann_entropy(bell_state()) < 1e-12

    def test_maximally_mixed(self):
        assert abs(von_neumann_entropy(np.eye(4) / 4) - 2.0) < 1e-14

    def test_against_spectrum_oracle(self):
        rho = example_separable(0.5)
        assert abs(von_neumann_entropy(rho) - entropy_bits(rho.matrix)) < 1e-12

    @pytest.mark.parametrize(
        "diagonal",
        [[1.5, -0.5], [3.0, 3.0], [1.0 + 2 * ROUNDING_TOL, 0.0], [1.0 + 2 * ROUNDING_TOL, -2 * ROUNDING_TOL]],
    )
    def test_rejects_matrices_that_are_not_states(self, diagonal):
        with pytest.raises(NotDensity):
            von_neumann_entropy(np.diag(diagonal))

    def test_relative_entropy_rejects_a_first_argument_that_is_not_a_state(self):
        with pytest.raises(NotDensity):
            relative_entropy(np.diag([1.5, -0.5]), np.eye(2) / 2)

    def test_accepts_a_state_at_the_edge_of_the_trace_tolerance(self):
        unit = random_density((2, 2), 4)
        rho = validate_density(unit.matrix * (1.0 + 0.5 * ROUNDING_TOL), (2, 2))
        assert abs(von_neumann_entropy(rho) - von_neumann_entropy(unit)) < 1e-9
        got, want = measure_report(rho), measure_report(unit)
        for name in ("mutual_information", "discord", "oneway_deficit", "quantum_deficit"):
            assert abs(getattr(got, name) - getattr(want, name)) < 1e-9


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

    @pytest.mark.parametrize("dims", [(2, 2, 2), (8,)])
    def test_rejects_a_state_that_is_not_bipartite(self, dims):
        with pytest.raises(DimensionMismatch, match="expected a bipartite signature"):
            mutual_information(random_density(dims, 0))

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
    """``relative_entropy`` against three reference kinds: full-rank, rank-deficient, non-PSD."""

    # r has no weight on |11>, so a reference whose negative eigenvector is
    # |11> does not leak and must be reported as not PSD.
    R = np.diag([0.4, 0.3, 0.3, 0.0]).astype(complex)

    def _direct(self, sigma):
        """-S(r) - Tr[r log2 sigma] for a full-rank sigma, from its own eigendecomposition."""
        vals, vecs = np.linalg.eigh(sigma)
        log_sigma = (vecs * np.log2(vals)) @ vecs.conj().T
        return -von_neumann_entropy(self.R) - np.trace(self.R @ log_sigma).real

    def test_rows_match_relative_entropy(self):
        full_rank = [random_density((2, 2), 300 + i).matrix for i in range(6)]
        for sigma in full_rank:
            assert abs(relative_entropy(self.R, sigma) - self._direct(sigma)) <= 1e-12
        rank_deficient = np.diag([0.0, 0.5, 0.3, 0.2]).astype(complex)  # r leaks along |00>
        leaking_non_psd = np.diag([-0.01, 0.5, 0.3, 0.21]).astype(complex)
        for sigma in (rank_deficient, leaking_non_psd):
            assert math.isinf(relative_entropy(self.R, sigma))

    def test_single_reference_gives_a_float(self):
        sigma = random_density((2, 2), 310).matrix
        value = relative_entropy(self.R, sigma)
        assert isinstance(value, float)
        assert value == pytest.approx(self._direct(sigma), abs=1e-12)

    def test_non_psd_row_raises(self):
        from qcorr.errors import NegativeEigenvalue

        non_psd = np.diag([0.5, 0.3, 0.21, -0.01]).astype(complex)
        with pytest.raises(NegativeEigenvalue):
            relative_entropy(self.R, non_psd)
