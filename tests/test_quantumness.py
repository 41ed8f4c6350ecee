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
from qcorr.linalg import _partial_transpose, bloch_states, partial_trace
from qcorr.maps import dual_Q
from qcorr.measurement import ProjectiveMeasurement
from qcorr.states import SeparableEnsemble

from conftest import classical_state, low_rank_density, product_state
from oracles import (
    BELL_TETRAHEDRON,
    bell_diagonal_quantumness,
    bell_diagonal_state,
    classical_quantum_state,
    log_dd2_sorting_network,
    newton_step_reference,
    ppt_minimizer_reference,
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

    @pytest.mark.parametrize(
        "a_states, b_states",
        [((np.eye(2) / 2, np.eye(3) / 3), (np.eye(2) / 2, np.eye(2) / 2)), ((np.eye(4) / 4,), (np.eye(1),))],
        ids=["unequal-a-factors", "4x4-a-1x1-b"],
    )
    def test_witness_with_factors_of_the_wrong_shape_is_rejected(self, a_states, b_states):
        with pytest.raises(DimensionMismatch):
            witness = SeparableEnsemble(np.full(len(a_states), 1 / len(a_states)), a_states, b_states)
            quantumness_upper_bound(validate_density(np.eye(4) / 4, (2, 2), witness=witness))

    def test_input_validation(self):
        with pytest.raises(UnsupportedDimension, match=r"^quantumness requires dims \(2, 2\), got \(2, 4\)$"):
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

    @pytest.mark.parametrize("angle", [1e-3, 0.15, 0.3, 0.45, 0.6, np.pi / 4, 1.2])
    def test_pure_states_within_the_final_duality_gap(self, angle):
        # The closest separable state to a pure rho is singular, so the
        # barrier gap of the last stage shows in the bound.
        rho = _two_qubit_pure(angle)
        exact = von_neumann_entropy(rho.marginal([0]))
        assert exact - 1e-12 <= quantumness_upper_bound(rho).upper_bound <= exact + 1e-11

    def test_pure_closed_form_ends_the_search_past_an_infinite_product_candidate(self):
        # rho_A (x) rho_B has eigenvalue angle^4 = 1e-12, which counts as
        # kernel, while rho puts weight 1e-6 there: the product candidate is
        # infinite.  The pure closed form (rho measured on B) comes second,
        # meets the S(rho_A) floor and ends the search before the solver runs.
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

    @pytest.mark.parametrize("seed", [32, 161])
    def test_lower_bound_never_exceeds_the_upper_bound(self, seed):
        # The certificate and the witness's divergence round differently: uncapped,
        # the lower bound reads 2.2e-16 (seed 32) and 4.4e-16 (seed 161) bits above.
        estimate = quantumness_upper_bound(random_density((2, 2), seed))
        assert estimate.lower_bound <= estimate.upper_bound


def _product_mixture(rank, seed):
    """A mixture of ``rank`` random pure product states with Dirichlet weights."""
    rng = np.random.default_rng(seed)
    vecs = rng.standard_normal((rank, 2, 2)) + 1j * rng.standard_normal((rank, 2, 2))
    vecs /= np.linalg.norm(vecs, axis=-1, keepdims=True)
    kets = [np.kron(a, b) for a, b in vecs]
    return sum(w * np.outer(k, k.conj()) for w, k in zip(rng.dirichlet(np.ones(rank)), kets))


def _ppt_random_states():
    """The first four ``random_density`` states whose partial transpose is positive definite."""
    states = (random_density((2, 2), s).matrix for s in range(60))
    return [m for m in states if np.linalg.eigvalsh(_partial_transpose(m))[0] > 0][:4]


def _werner(bell_weight):
    return bell_weight * bell_state().matrix + (1 - bell_weight) * np.eye(4) / 4


class TestClosedFormCandidates:
    """PPT and pure inputs end at the coherent-information floor before the solver."""

    @pytest.fixture(autouse=True)
    def no_solver(self, monkeypatch):
        from qcorr import quantumness

        def fail(*args):
            raise AssertionError("the solver ran")

        monkeypatch.setattr(quantumness, "_ppt_minimizer", fail)

    @pytest.mark.parametrize(
        "matrix",
        [example_separable(p).matrix for p in np.linspace(0.1, 0.9, 9)]
        + [_werner(w) for w in (0.1, 0.25, 1 / 3, 1 / 3 + 1e-10)]
        + [_product_mixture(rank, seed) for rank in (2, 3, 4) for seed in (1, 2)]
        + _ppt_random_states(),
        ids=[f"separable-{p:.1f}" for p in np.linspace(0.1, 0.9, 9)]
        + ["werner-0.1", "werner-0.25", "werner-1/3", "werner-1/3+1e-10"]
        + [f"product-rank{rank}-{seed}" for rank in (2, 3, 4) for seed in (1, 2)]
        + [f"random-ppt-{i}" for i in range(4)],
    )
    def test_ppt_input_is_its_own_minimizer(self, matrix):
        # Passed without the witness that example_separable attaches.
        estimate = quantumness_upper_bound(validate_density(matrix, (2, 2)))
        assert estimate.upper_bound <= 1e-14
        assert estimate.restarts_used == 2
        assert estimate.marginal_residual <= 1e-14

    def test_pure_product_ends_at_the_product_of_marginals(self):
        estimate = quantumness_upper_bound(validate_density(_product_mixture(1, 3), (2, 2)))
        assert estimate.upper_bound <= 1e-14
        assert estimate.restarts_used == 1

    @pytest.mark.parametrize(
        "psi",
        [[np.cos(a), 0.0, 0.0, np.sin(a)] for a in (1e-6, 1e-5, 1e-3, 0.15, 0.45, np.pi / 4)]
        + [[1.0, 0.0, 0.0, 1.0], [1.0, 1.0, 1.0, -1.0]],  # Bell and (|0+> + |1->)/sqrt 2, degenerate rho_B
        ids=["a=1e-6", "a=1e-5", "a=1e-3", "a=0.15", "a=0.45", "a=pi/4", "bell", "0+ plus 1-"],
    )
    def test_pure_input_meets_the_entanglement_entropy(self, psi):
        # At Schmidt weight 1e-12 (a = 1e-6) the measured state's small term
        # still carries 4.1e-11 bits: dropping it would read 0.
        psi = np.asarray(psi, dtype=complex) / np.linalg.norm(psi)
        rho = validate_density(np.outer(psi, psi.conj()), (2, 2))
        estimate = quantumness_upper_bound(rho)
        assert abs(estimate.upper_bound - von_neumann_entropy(rho.marginal([0]))) <= 1e-12
        assert estimate.restarts_used == 2
        assert estimate.marginal_residual <= 1e-14

    def test_tiniest_schmidt_weight_ends_at_the_product_of_marginals(self):
        # At Schmidt weight 1e-14 the product of marginals, 2 S(rho_A), is
        # already within 1e-12 of the floor S(rho_A).
        rho = _two_qubit_pure(1e-7)
        estimate = quantumness_upper_bound(rho)
        assert abs(estimate.upper_bound - von_neumann_entropy(rho.marginal([0]))) <= 1e-12
        assert estimate.restarts_used == 1


class TestClosedFormOracles:
    """The bound equals the quantumness where it has a closed form."""

    def test_bell_diagonal_states(self):
        rng = np.random.default_rng(1998)
        for _ in range(24):
            weights = rng.dirichlet(np.ones(4))
            u = np.kron(qubit_unitary(rng), qubit_unitary(rng))
            matrix = u @ bell_diagonal_state(weights @ BELL_TETRAHEDRON) @ u.conj().T
            estimate = quantumness_upper_bound(validate_density(matrix, (2, 2)))
            exact = bell_diagonal_quantumness(weights)
            assert abs(estimate.upper_bound - exact) < 1e-9
            assert estimate.lower_bound - 1e-12 <= exact <= estimate.upper_bound + 1e-12

    def test_pure_states(self):
        rng = np.random.default_rng(1655)
        schmidt = [[np.cos(a), 0.0, 0.0, np.sin(a)] for a in (0.15, 0.45, np.pi / 4)]
        haar = [rng.standard_normal(4) + 1j * rng.standard_normal(4) for _ in range(20)]
        for psi in schmidt + haar:
            psi = np.asarray(psi, dtype=complex) / np.linalg.norm(psi)
            rho = validate_density(np.outer(psi, psi.conj()), (2, 2))
            estimate = quantumness_upper_bound(rho)
            exact = pure_quantumness(psi)
            assert abs(estimate.upper_bound - exact) < 1e-9
            assert estimate.lower_bound - 1e-12 <= exact <= estimate.upper_bound + 1e-12

    def test_classical_quantum_states(self):
        rng = np.random.default_rng(2010)
        for _ in range(20):
            b_states = [random_density((2,), int(s)).matrix for s in rng.integers(0, 2**20, 2)]
            matrix = classical_quantum_state(rng.dirichlet(np.ones(2)), qubit_unitary(rng), b_states)
            u_b = np.kron(np.eye(2), qubit_unitary(rng))
            rho = validate_density(u_b @ matrix @ u_b.conj().T, (2, 2))
            estimate = quantumness_upper_bound(rho)
            assert estimate.upper_bound < 1e-9
            assert estimate.lower_bound - 1e-12 <= 0.0 <= estimate.upper_bound + 1e-12


class TestFaceCertificate:
    """The KKT finish's weak-duality bound: valid at any point, closing at the optimum."""

    @pytest.mark.parametrize(
        "matrix",
        [_werner(0.8), _werner(0.5)] + [random_density((2, 2), s).matrix for s in (3, 8, 61)],
        ids=["werner-0.8", "werner-0.5", "random-3", "random-8", "random-61"],
    )
    def test_finish_closes_its_certificate(self, matrix):
        from qcorr._ppt import _STAGES

        rho = validate_density(matrix, (2, 2))
        estimate = quantumness_upper_bound(rho)
        s_ab = von_neumann_entropy(rho)
        floor = max(0.0, von_neumann_entropy(rho.marginal([0])) - s_ab, von_neumann_entropy(rho.marginal([1])) - s_ab)
        # The certificate, not the floor, sets the lower bound, and it closes to the last barrier gap.
        assert estimate.lower_bound > floor + 1e-3
        assert -1e-15 <= estimate.upper_bound - estimate.lower_bound <= 8.0 / _STAGES[-1] / np.log(2.0)

    def test_werner_state_meets_its_closed_form(self):
        # 0.8 |Phi+><Phi+| + 0.2 I/4 has Bell fidelity 0.85: the quantumness is 1 - h(0.85).
        estimate = quantumness_upper_bound(validate_density(_werner(0.8), (2, 2)))
        exact = bell_diagonal_quantumness([0.85, 0.05, 0.05, 0.05])
        assert abs(estimate.upper_bound - exact) <= 1e-14
        assert estimate.lower_bound - 1e-14 <= exact

    @pytest.mark.parametrize("mu", [0.0, 0.25, 1.0, 4.0])
    def test_certificate_anywhere_stays_below_the_minimum(self, mu):
        # At sigma(0) = (I/2) (x) rho_B with mu = 0, dropping eps would give f(sigma(0)) itself,
        # far above the minimum.  (A flipped Z_2 fails to close at the optimum instead.)
        from qcorr._ppt import _DIRECTIONS, _face_certificate

        rng = np.random.default_rng(24)
        for _ in range(6):
            weights = rng.dirichlet([8.0, 1.0, 1.0, 1.0])
            u_ab = np.kron(qubit_unitary(rng), qubit_unitary(rng))
            rho = u_ab @ bell_diagonal_state(weights @ BELL_TETRAHEDRON) @ u_ab.conj().T
            rho_b = partial_trace(rho, (2, 2), [1])
            base = np.stack([np.kron(np.eye(2) / 2, m) for m in (rho_b, rho_b.T)])
            exact = bell_diagonal_quantumness(weights) + von_neumann_entropy(validate_density(rho, (2, 2)))
            for x in [np.zeros(12), *rng.uniform(-0.1, 0.1, (4, 12))]:
                lam, u = np.linalg.eigh(base + (x @ _DIRECTIONS).reshape(2, 4, 4))
                weight = u[0].conj().T @ rho @ u[0]
                bound, _ = _face_certificate(lam, u, weight, mu, rho_b)
                assert bound / np.log(2.0) <= exact + 1e-12


_SOLVER_CASES = [*range(10), "pure", "separable", "ppt-werner"]


def _solver_case(case):
    if case == "pure":
        return _two_qubit_pure(0.3).matrix
    if case == "separable":
        return example_separable(0.4).matrix
    if case == "ppt-werner":
        return _werner(0.2)
    return random_density((2, 2), case).matrix


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
        from qcorr._ppt import _log_dd1, _log_dd2

        # Ascending spectra with spreads up to the 1e-3 switch to the Taylor
        # series, where the textbook quotient, in extended precision, is still
        # accurate; a far eigenvalue below the cluster in one row, above it in
        # the other.
        cluster = 0.25 * np.array([1 - 5e-4, 1.0, 1 + 4e-4])
        lam = np.array([[1e-9, *cluster], [*cluster, 0.6]])
        ld = lam.astype(np.longdouble)

        def dd1(a, b):
            return (np.log(a) - np.log(b)) / (a - b) if a != b else 1 / a

        got = _log_dd2(lam, _log_dd1(lam[..., :, None], lam[..., None, :]))
        triples = [(0, 1, 2, 3), (0, 2, 1, 0), (0, 3, 2, 3), (0, 1, 0, 2), (1, 0, 1, 2), (1, 1, 1, 2), (1, 2, 3, 3), (1, 0, 1, 3)]
        for row, i, m, j in triples:
            a, b, c = sorted([ld[row, i], ld[row, m], ld[row, j]])
            expected = (dd1(c, b) - dd1(a, b)) / (c - a)
            assert abs(got[row, i, m, j] - expected) <= 1e-11 * abs(expected)
        assert got[1, 3, 3, 3] == -0.5 / 0.6**2

    def test_second_divided_differences_match_the_sorting_network(self):
        from qcorr._ppt import _TAYLOR_SPREAD, _log_dd1, _log_dd2

        rng = np.random.default_rng(16)
        lam = np.sort(rng.uniform(1e-6, 1.0, (200, 2, 4)), axis=-1)
        # A third of the spectra carry a near-degenerate pair.
        lam[::3, :, 2] = lam[::3, :, 1] * (1.0 + rng.uniform(1e-12, 1e-4, (67, 2)))
        lam = np.sort(lam, axis=-1)
        got = _log_dd2(lam, _log_dd1(lam[..., :, None], lam[..., None, :]))
        assert np.array_equal(got, log_dd2_sorting_network(lam, _log_dd1, _TAYLOR_SPREAD))

    def test_first_divided_differences_match_extended_precision(self):
        import mpmath

        from qcorr._ppt import _log_dd1

        ratios = [1.0, 1 + 1e-15, 1 + 1e-9, 1 + 1e-4, 1.5, 2.9, 3.0, 3.1, 10.0, 1e3, 1e8, 1e12]
        pairs = [(a, a * r) for a in (1e-12, 1e-9, 1e-6, 1e-3, 0.3, 1.0) for r in ratios]
        pairs += [(b, a) for a, b in pairs]
        a, b = np.array(pairs).T
        got = _log_dd1(a, b)
        with mpmath.workdps(50):
            for x, y, g in zip(a, b, got):
                mx, my = mpmath.mpf(x), mpmath.mpf(y)
                exact = 1 / mx if x == y else (mpmath.log(mx) - mpmath.log(my)) / (mx - my)
                assert abs(mpmath.mpf(g) / exact - 1) <= 4 * np.finfo(float).eps, (x, y)

    def test_gradient_and_hessian_match_finite_differences(self):
        from qcorr._ppt import _barrier_point, _newton_step

        rho = random_density((2, 2), 31).matrix
        rho_b = rho.reshape(2, 2, 2, 2).trace(axis1=0, axis2=2)
        base = np.stack([np.kron(np.eye(2) / 2, m) for m in (rho_b, rho_b.T)])
        x = np.random.default_rng(3).uniform(-0.05, 0.05, 12)

        def value(y):
            return _barrier_point(y, 7.0, base, rho)[0]

        step, decrement = _newton_step(*_barrier_point(x, 7.0, base, rho)[1:])
        # Along the Newton step d: phi'(x; d) = -decrement and phi''(x; d, d) = decrement.
        h = 1e-4
        slope = (value(x + h * step) - value(x - h * step)) / (2 * h)
        curvature = (value(x + h * step) - 2 * value(x) + value(x - h * step)) / h**2
        assert slope == pytest.approx(-decrement, rel=1e-6)
        assert curvature == pytest.approx(decrement, rel=1e-4)

    def test_newton_step_matches_the_reference_step(self):
        from qcorr._ppt import _barrier_point, _newton_step

        rng = np.random.default_rng(17)
        rhos = [random_density((2, 2), s).matrix for s in range(30)]
        rhos += [_two_qubit_pure(0.3).matrix, example_separable(0.4).matrix]  # singular rho
        for rho in rhos:
            rho_b = rho.reshape(2, 2, 2, 2).trace(axis1=0, axis2=2)
            base = np.stack([np.kron(np.eye(2) / 2, m) for m in (rho_b, rho_b.T)])
            for t in (7.0, 1e6):
                point = None
                while point is None:  # an interior point
                    point = _barrier_point(rng.uniform(-0.05, 0.05, 12), t, base, rho)
                step, decrement = _newton_step(*point[1:])
                expected_step, expected_decrement = newton_step_reference(*point[1:])
                assert np.linalg.norm(step - expected_step) <= 1e-12 * np.linalg.norm(expected_step)
                assert decrement == pytest.approx(expected_decrement, rel=1e-12)

    @pytest.mark.parametrize("case", _SOLVER_CASES)
    def test_face_stages_match_the_reference_loop_cut_at_300_squared(self, case, monkeypatch):
        from qcorr import _ppt

        starts = []
        finish = _ppt._kkt_finish

        def recorded(x, base, *args):
            starts.append(base[0] + (x @ _ppt._DIRECTIONS[0]).reshape(4, 4))
            return finish(x, base, *args)

        monkeypatch.setattr(_ppt, "_kkt_finish", recorded)
        rho = _solver_case(case)
        rho_b = partial_trace(rho, (2, 2), [1])
        assert _ppt._ppt_minimizer(rho, rho_b) is not None
        cut = ppt_minimizer_reference(rho, rho_b, _ppt._newton_step, t_final=300.0**2)
        assert len(starts) == 1 and np.array_equal(starts[0], cut)

    @pytest.mark.parametrize("case", _SOLVER_CASES)
    def test_bound_is_never_above_the_full_reference_loop(self, case):
        from qcorr._ppt import _newton_step, _ppt_minimizer
        from qcorr.quantumness import _product_decomposition

        rho = _solver_case(case)
        rho_b = partial_trace(rho, (2, 2), [1])
        sigma, certified = _ppt_minimizer(rho, rho_b)
        reference = ppt_minimizer_reference(rho, rho_b, _newton_step)
        bound, parent = (relative_entropy(rho, _product_decomposition(s).assemble()) for s in (sigma, reference))
        assert bound <= parent + 1e-13
        # The finish lands on the face of every full-rank entangled case.  The pure and the separable
        # ones fall back, and so does the PPT Werner state: its minimum is interior (mu < 0).
        assert (certified is None) == (case in ("pure", "separable", "ppt-werner"))

    @pytest.mark.parametrize("case", _SOLVER_CASES)
    def test_rejected_finish_leaves_the_reference_loop_unchanged(self, case, monkeypatch):
        from qcorr import _ppt

        monkeypatch.setattr(_ppt, "_kkt_finish", lambda *args: None)
        rho = _solver_case(case)
        rho_b = partial_trace(rho, (2, 2), [1])
        sigma, certified = _ppt._ppt_minimizer(rho, rho_b)
        assert certified is None
        assert np.array_equal(sigma, ppt_minimizer_reference(rho, rho_b, _ppt._newton_step))

    def test_low_rank_inputs_the_gate_rejects_keep_the_reference_loop(self):
        from qcorr._ppt import _newton_step, _ppt_minimizer

        rejected = 0
        for seed in range(12):
            rho = low_rank_density(2, seed).matrix
            rho_b = partial_trace(rho, (2, 2), [1])
            sigma, certified = _ppt_minimizer(rho, rho_b)
            if certified is None:
                rejected += 1
                assert np.array_equal(sigma, ppt_minimizer_reference(rho, rho_b, _newton_step))
        assert rejected >= 1

    @pytest.mark.parametrize(
        "seed, x",
        # At sigma(0) = I/4 every eigenvalue of sigma^{T_B} is repeated, so the face has no gradient.
        # Far from the face the fitted multiplier leaves the Hessian with a nonpositive diagonal entry.
        [(None, np.zeros(12)), (1, np.random.default_rng([1, 0]).uniform(-0.3, 0.3, 12))],
        ids=["repeated-least-eigenvalue", "not-convex"],
    )
    def test_finish_off_the_face_is_rejected(self, seed, x):
        from qcorr._ppt import _kkt_finish

        rho = bell_state().matrix if seed is None else random_density((2, 2), seed).matrix
        rho_b = partial_trace(rho, (2, 2), [1])
        sigma0 = np.kron(np.eye(2) / 2, rho_b)
        assert _kkt_finish(x, np.stack([sigma0, _partial_transpose(sigma0)]), rho, rho_b) is None

    def test_stage_without_a_feasible_decrease_keeps_its_point(self, monkeypatch):
        from qcorr import _ppt

        rho = _werner(0.8)
        rho_b = partial_trace(rho, (2, 2), [1])
        sigma0 = np.kron(np.eye(2) / 2, rho_b)
        base = np.stack([sigma0, _partial_transpose(sigma0)])
        start = _ppt._barrier_point(np.zeros(12), 1.0, base, rho)
        monkeypatch.setattr(_ppt, "_barrier_point", lambda *args: None)  # every trial point leaves the cone
        x, point = _ppt._centered(np.zeros(12), start, _ppt._STAGES[:2], base, rho)
        assert np.array_equal(x, np.zeros(12)) and np.array_equal(point[1], start[1])

    def test_newton_and_kkt_steps(self, monkeypatch):
        # Every barrier Newton step and every KKT step is one scaled solve.
        # The barrier alone, through all seven stages, takes a median of 49 here.
        from qcorr import _ppt

        calls = []
        solve = _ppt._scaled_solve

        def counted(*args, **kwargs):
            calls[-1] += 1
            return solve(*args, **kwargs)

        monkeypatch.setattr(_ppt, "_scaled_solve", counted)
        for seed in range(10):
            rho = random_density((2, 2), seed).matrix
            calls.append(0)
            assert _ppt._ppt_minimizer(rho, partial_trace(rho, (2, 2), [1]))[1] is not None
        assert np.median(calls) <= 30

    def test_line_search_starts_inside_the_cone(self, monkeypatch):
        # Steps with squared decrement >= 1 start from the first feasible
        # halving instead of probing points outside the cone: about 100
        # barrier evaluations per solve when every halving is probed.
        from qcorr import _ppt

        calls = []
        barrier_point = _ppt._barrier_point

        def counted(*args):
            calls[-1] += 1
            return barrier_point(*args)

        monkeypatch.setattr(_ppt, "_barrier_point", counted)
        for seed in range(10):
            rho = random_density((2, 2), seed).matrix
            calls.append(0)
            assert _ppt._ppt_minimizer(rho, partial_trace(rho, (2, 2), [1])) is not None
        assert np.median(calls) <= 45

    def test_singular_marginal_has_no_interior(self):
        from qcorr._ppt import _newton_step, _ppt_minimizer

        rho = np.kron(random_density((2,), 5).matrix, np.diag([1.0, 0.0]))
        rho_b = partial_trace(rho, (2, 2), [1])
        assert _ppt_minimizer(rho, rho_b) is None
        assert ppt_minimizer_reference(rho, rho_b, _newton_step) is None
