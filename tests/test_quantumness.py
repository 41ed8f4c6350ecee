import numpy as np
import pytest

from qcorr import (
    bell_state,
    classical_correlated,
    example_extension,
    example_extension_measurement,
    example_separable,
    quantumness_upper_bound,
    random_density,
    relative_entropy,
    residual_state,
    separable_decomposition,
    validate_density,
    verify_example_insensitivity,
    von_neumann_entropy,
)
from qcorr.errors import DimensionMismatch, NotRankOne, OutOfRange, QcorrError, UnsupportedDimension
from qcorr.linalg import bloch_states, partial_trace
from qcorr.maps import dual_Q
from qcorr.measurement import ProjectiveMeasurement
from qcorr.states import SeparableEnsemble

from conftest import classical_state, product_state
from oracles import (
    BELL_TETRAHEDRON,
    bell_diagonal_quantumness,
    bell_diagonal_state,
    classical_quantum_state,
    pure_quantumness,
    qubit_unitary,
)


class TestResidualState:
    @pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_worked_extension_reproduces_separable_example(self, p):
        residual = residual_state(example_extension(p), example_extension_measurement())
        assert np.max(np.abs(residual.matrix - example_separable(p).matrix)) < 1e-13

    def test_identity_block_measurement_just_discards_ancilla(self):
        ancilla = np.diag([0.3, 0.7]).astype(complex)
        rho_ab = random_density((2, 2), 61)
        ext = validate_density(np.kron(ancilla, rho_ab.matrix), (2, 2, 2))
        identity_block = ProjectiveMeasurement((np.eye(4, dtype=complex),))
        residual = residual_state(ext, identity_block)
        assert np.max(np.abs(residual.matrix - rho_ab.matrix)) < 1e-13

    def test_rank_one_output_matches_assembled_decomposition(self):
        ext = random_density((2, 2, 2), 71)
        m = example_extension_measurement()
        residual = residual_state(ext, m)
        ensemble = separable_decomposition(ext, m)
        assert np.max(np.abs(ensemble.assemble() - residual.matrix)) < 1e-12
        assert residual.witness is not None

    def test_dimension_checks(self):
        with pytest.raises(DimensionMismatch):
            residual_state(random_density((2, 2), 0), example_extension_measurement())


class TestSeparableDecomposition:
    def test_worked_example_terms(self):
        ensemble = separable_decomposition(example_extension(0.5), example_extension_measurement())
        # two of the four outcomes carry zero probability and are dropped
        assert len(ensemble.weights) == 2
        assert abs(ensemble.weights.sum() - 1.0) < 1e-12
        residual = residual_state(example_extension(0.5), example_extension_measurement())
        assert np.max(np.abs(ensemble.assemble() - residual.matrix)) < 1e-13

    def test_requires_rank_one(self):
        ext = random_density((2, 2, 2), 5)
        identity_block = ProjectiveMeasurement((np.eye(4, dtype=complex),))
        with pytest.raises(NotRankOne):
            separable_decomposition(ext, identity_block)


class TestVerifyExampleInsensitivity:
    @pytest.mark.parametrize("p", [0.0, 0.5, 0.9])
    def test_residuals_vanish(self, p):
        report = verify_example_insensitivity(p)
        assert report.residual_tripartite < 1e-13
        assert report.residual_bipartite < 1e-13
        assert report.quantumness_zero

    def test_range_check(self):
        with pytest.raises(OutOfRange):
            verify_example_insensitivity(-0.1)


class TestQuantumnessUpperBound:
    def test_separable_example_bound_vanishes(self):
        estimate = quantumness_upper_bound(example_separable(0.5))
        assert estimate.upper_bound <= 1e-3
        assert estimate.marginal_residual < 1e-10

    def test_product_state_bound_vanishes(self):
        estimate = quantumness_upper_bound(product_state(9))
        assert estimate.upper_bound < 1e-12

    def test_classical_state_bound_vanishes(self):
        estimate = quantumness_upper_bound(classical_state(13))
        assert estimate.upper_bound < 1e-10

    def test_bell_state_bound_near_one(self):
        estimate = quantumness_upper_bound(bell_state())
        assert abs(estimate.upper_bound - 1.0) < 0.05
        assert estimate.marginal_residual < 1e-4

    def test_bound_is_divergence_to_reported_witness(self):
        estimate = quantumness_upper_bound(bell_state())
        recomputed = relative_entropy(bell_state().matrix, estimate.witness.assemble())
        assert abs(estimate.upper_bound - recomputed) < 1e-10

    def test_deterministic(self):
        first = quantumness_upper_bound(random_density((2, 2), 77))
        second = quantumness_upper_bound(random_density((2, 2), 77))
        assert first.upper_bound == second.upper_bound
        assert first.marginal_residual == second.marginal_residual

    def test_caller_supplied_witness_is_used(self):
        matrix = example_separable(0.5).matrix
        assert validate_density(matrix, (2, 2)).witness is None  # no provenance
        plus = 0.5 * np.ones((2, 2), dtype=complex)
        zero = np.diag([1.0, 0.0]).astype(complex)
        handed = SeparableEnsemble(np.array([0.5, 0.5]), (zero, plus), (zero, plus))
        estimate = quantumness_upper_bound(validate_density(matrix, (2, 2), witness=handed))
        assert estimate.upper_bound < 1e-10
        assert estimate.witness is handed

    def test_witness_with_wrong_marginal_is_rejected(self):
        zero, one = np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)
        handed = SeparableEnsemble(np.array([1.0]), (zero,), (one,))
        with pytest.raises(DimensionMismatch):
            quantumness_upper_bound(validate_density(example_separable(0.5).matrix, (2, 2), witness=handed))

    def test_input_validation(self):
        with pytest.raises(UnsupportedDimension):
            quantumness_upper_bound(random_density((2, 4), 0))


def _bell_over_tetrahedron():
    """Bell = sum_a H_a (x) tau_a with tau_a the tetrahedral Bloch states and
    H_a = Tr_B[Bell (I (x) Q_a)] over their duals Q_a: each H_a has trace 1/4
    and eigenvalue -1/4, so the terms are not a separable decomposition."""
    taus = tuple(bloch_states(np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / np.sqrt(3)))
    bell = bell_state().matrix
    h = tuple(partial_trace(bell @ np.kron(np.eye(2), q), (2, 2), [0]) for q in dual_Q(taus))
    assert np.allclose([np.linalg.eigvalsh(x)[0] for x in h], -0.25, atol=1e-12)
    return h, taus


class TestNonSeparableTerms:
    """Terms with a non-PSD factor reproduce Bell but certify nothing."""

    def test_attached_witness_with_a_negative_factor_is_rejected(self):
        h, taus = _bell_over_tetrahedron()
        handed = SeparableEnsemble(np.full(4, 0.25), tuple(4 * x for x in h), taus)
        with pytest.raises(QcorrError):
            quantumness_upper_bound(validate_density(bell_state().matrix, (2, 2), witness=handed))

    def test_classical_correlated_rejects_non_projectors(self):
        h, taus = _bell_over_tetrahedron()
        with pytest.raises(QcorrError):
            classical_correlated([1.0] * 4, h, taus)


def _two_qubit_pure(angle):
    """cos(angle)|00> + sin(angle)|11>."""
    psi = np.array([np.cos(angle), 0.0, 0.0, np.sin(angle)], dtype=complex)
    return validate_density(np.outer(psi, psi.conj()), (2, 2))


class TestCertifiedLowerBound:
    """The upper bound never undercuts the certified lower bounds."""

    @pytest.mark.parametrize("angle", [0.15, 0.45, np.pi / 4])
    def test_pure_states_at_least_entanglement_entropy(self, angle):
        rho = _two_qubit_pure(angle)
        estimate = quantumness_upper_bound(rho)
        assert estimate.upper_bound >= von_neumann_entropy(rho.marginal([0])) - 1e-9

    @pytest.mark.parametrize("angle", [1e-3, 1e-5, 1e-6])
    def test_tiny_schmidt_weight_matches_entanglement_entropy(self, angle):
        # Schmidt weight angle^2 sits below the support cutoff of the optimal
        # witness, and eigenvalue pairs far apart round artanh's argument to 1.
        rho = _two_qubit_pure(angle)
        exact = von_neumann_entropy(rho.marginal([0]))
        assert exact - 1e-12 <= quantumness_upper_bound(rho).upper_bound <= exact + 1e-10

    def test_infinite_product_candidate_loses_to_the_solver(self):
        # rho_A (x) rho_B has eigenvalue angle^4 = 1e-12, which counts as
        # kernel, while rho puts weight 1e-6 there: that candidate is infinite.
        rho = _two_qubit_pure(1e-3)
        marginals = np.kron(rho.marginal([0]).matrix, rho.marginal([1]).matrix)
        assert relative_entropy(rho.matrix, marginals) == np.inf
        estimate = quantumness_upper_bound(rho)
        assert estimate.restarts_used == 2
        assert abs(estimate.upper_bound - von_neumann_entropy(rho.marginal([0]))) < 3e-13

    @pytest.mark.parametrize("seed", [41, 42, 43, 44])
    def test_at_least_coherent_information(self, seed):
        rho = random_density((2, 2), seed)
        s_ab = von_neumann_entropy(rho)
        lower = max(
            0.0,
            von_neumann_entropy(rho.marginal([0])) - s_ab,
            von_neumann_entropy(rho.marginal([1])) - s_ab,
        )
        assert quantumness_upper_bound(rho).upper_bound >= lower - 1e-9


class TestClosedFormOracles:
    """The bound equals the quantumness where it has a closed form."""

    def test_bell_diagonal_states(self):
        rng = np.random.default_rng(1998)
        for _ in range(24):
            weights = rng.dirichlet(np.ones(4))
            u = np.kron(qubit_unitary(rng), qubit_unitary(rng))
            matrix = u @ bell_diagonal_state(weights @ BELL_TETRAHEDRON) @ u.conj().T
            bound = quantumness_upper_bound(validate_density(matrix, (2, 2))).upper_bound
            assert abs(bound - bell_diagonal_quantumness(weights)) < 1e-9

    def test_pure_states(self):
        rng = np.random.default_rng(1655)
        schmidt = [[np.cos(a), 0.0, 0.0, np.sin(a)] for a in (0.15, 0.45, np.pi / 4)]
        haar = [rng.standard_normal(4) + 1j * rng.standard_normal(4) for _ in range(20)]
        for psi in schmidt + haar:
            psi = np.asarray(psi, dtype=complex) / np.linalg.norm(psi)
            rho = validate_density(np.outer(psi, psi.conj()), (2, 2))
            bound = quantumness_upper_bound(rho).upper_bound
            assert abs(bound - pure_quantumness(psi)) < 1e-9

    def test_classical_quantum_states(self):
        rng = np.random.default_rng(2010)
        for _ in range(20):
            b_states = [random_density((2,), int(s)).matrix for s in rng.integers(0, 2**20, 2)]
            matrix = classical_quantum_state(rng.dirichlet(np.ones(2)), qubit_unitary(rng), b_states)
            u_b = np.kron(np.eye(2), qubit_unitary(rng))
            rho = validate_density(u_b @ matrix @ u_b.conj().T, (2, 2))
            assert quantumness_upper_bound(rho).upper_bound < 1e-9


class TestPptSolve:
    """The convex solve: exact zeros, witness shape and the singular-marginal edge."""

    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_witness_has_at_most_four_terms_and_exact_marginal(self, seed):
        estimate = quantumness_upper_bound(random_density((2, 2), seed))
        assert len(estimate.witness.weights) <= 4
        assert estimate.marginal_residual <= 1e-12

    def test_product_decomposition_rebuilds_separable_states(self):
        from qcorr.quantumness import _product_decomposition

        werner = bell_state().matrix / 3 + np.eye(4) / 6  # Bell weight 1/3: on the PPT boundary
        separable = [np.diag([0.1, 0.4, 0.3, 0.2]), np.diag([0.0, 0.5, 0.5, 0.0]), werner]
        separable += [m for m in (random_density((2, 2), s).matrix for s in range(40, 60))
                      if np.linalg.eigvalsh(m.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4))[0] > 0]
        assert len(separable) > 5
        for sigma in separable:
            ensemble = _product_decomposition(sigma.astype(complex))
            assert len(ensemble.weights) <= 4
            assert np.max(np.abs(ensemble.assemble() - sigma)) < 1e-12

    def test_separable_example_without_witness_is_zero(self):
        bare = validate_density(example_separable(0.4585).matrix, (2, 2))
        assert quantumness_upper_bound(bare).upper_bound <= 1e-9

    def test_rank_one_marginal_skips_the_solver(self, monkeypatch):
        from qcorr import quantumness

        def fail(*args):
            raise AssertionError("the solver ran")

        monkeypatch.setattr(quantumness, "_ppt_minimizer", fail)
        rho_a = random_density((2,), 5).matrix
        rho = validate_density(np.kron(rho_a, np.diag([1.0, 0.0])), (2, 2))
        assert quantumness_upper_bound(rho).upper_bound == pytest.approx(0.0, abs=1e-12)

    def test_near_singular_marginal(self):
        rho_a = random_density((2,), 5).matrix
        product = np.kron(rho_a, np.diag([1.0, 0.0]))
        rho = validate_density((1 - 1e-9) * product + 1e-9 * bell_state().matrix, (2, 2))
        bound = quantumness_upper_bound(rho).upper_bound
        s_ab = von_neumann_entropy(rho)
        coherent = max(
            0.0,
            von_neumann_entropy(rho.marginal([0])) - s_ab,
            von_neumann_entropy(rho.marginal([1])) - s_ab,
        )
        marginals = np.kron(rho.marginal([0]).matrix, rho.marginal([1]).matrix)
        assert np.isfinite(bound)
        assert coherent - 1e-9 <= bound <= relative_entropy(rho.matrix, marginals)

    def test_second_divided_differences_of_close_eigenvalues(self):
        from qcorr.quantumness import _log_dd2

        # Spreads up to the 1e-3 switch to the Taylor series, where the
        # textbook quotient, in extended precision, is still accurate.
        lam = np.array([0.25, 0.25 * (1 + 4e-4), 0.25 * (1 - 5e-4), 0.6, 1e-9])
        ld = lam.astype(np.longdouble)

        def dd1(a, b):
            return (np.log(a) - np.log(b)) / (a - b) if a != b else 1 / a

        got = _log_dd2(lam)
        for i, m, j in [(0, 1, 2), (0, 0, 1), (1, 2, 2), (0, 1, 3), (2, 4, 0)]:
            a, b, c = sorted([ld[i], ld[m], ld[j]])
            expected = (dd1(c, b) - dd1(a, b)) / (c - a)
            assert abs(got[i, m, j] - expected) <= 1e-11 * abs(expected)
        assert got[3, 3, 3] == -0.5 / 0.6**2

    def test_gradient_and_hessian_match_finite_differences(self):
        from qcorr.quantumness import _barrier_point, _newton_step

        rho = random_density((2, 2), 31).matrix
        rho_b = rho.reshape(2, 2, 2, 2).trace(axis1=0, axis2=2)
        base = np.stack([np.kron(np.eye(2) / 2, m) for m in (rho_b, rho_b.T)])
        weights = np.stack([rho, np.zeros_like(rho)])
        x = np.random.default_rng(3).uniform(-0.05, 0.05, 12)

        def value(y):
            return _barrier_point(y, 7.0, base, weights)[0]

        step, decrement = _newton_step(*_barrier_point(x, 7.0, base, weights)[1:])
        # Along the Newton step d: phi'(x; d) = -decrement and phi''(x; d, d) = decrement.
        h = 1e-4
        slope = (value(x + h * step) - value(x - h * step)) / (2 * h)
        curvature = (value(x + h * step) - 2 * value(x) + value(x - h * step)) / h**2
        assert slope == pytest.approx(-decrement, rel=1e-6)
        assert curvature == pytest.approx(decrement, rel=1e-4)
