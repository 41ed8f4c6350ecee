import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from qcorr import (
    OptimizerConfig,
    ProjectiveMeasurement,
    bell_state,
    bloch_projectors,
    classical_correlation_hv,
    discord_relative_entropy_decomposition,
    example_separable,
    measure_report,
    measured_mutual_information,
    mutual_information,
    oneway_deficit,
    pinch,
    quantum_deficit,
    quantum_discord,
    random_density,
    validate_density,
    von_neumann_entropy,
)
from qcorr.errors import DegenerateMarginalWarning, DimensionMismatch, OutOfRange, UnsupportedDimension
from qcorr.linalg import tensor_product
from qcorr import measures
from qcorr.measures import maximize_measured_mi

from conftest import classical_state, product_state
from oracles import (
    BELL_TETRAHEDRON,
    PAULIS,
    bell_diagonal_measures,
    bell_diagonal_state,
    dense_grid_measures,
    dephased_relative_entropy,
    entropy_bits,
    qubit_unitary,
    xlog2,
    zoom_reference,
)

FAST = OptimizerConfig(grid_resolution=32, refine_iterations=200)

#: The mixing weights of the ten ``separable-*`` inputs of perfbench's measures corpus, seeds 1-5.
CORPUS_SEPARABLE_P = (
    0.3867231545358617, 0.6103453978537006, 0.03842516722887472, 0.7238245733016762, 0.2542612328993521,
    0.8461283900244276, 0.23816987225950983, 0.6906219582254018, 0.23110292312728614, 0.717264012626945,
)


def corpus_separable(p):
    """p |00><00| + (1 - p) |++><++| bit for bit as perfbench's corpus writes it, off from example_separable(p)."""
    projectors = []
    for v in (np.kron([1, 0], [1, 0]), np.kron([1, 1], [1, 1]) / 2.0):
        v = np.asarray(v, dtype=complex) / np.linalg.norm(v)
        projectors.append(np.outer(v, v.conj()))
    return p * projectors[0] + (1 - p) * projectors[1]


def reported_angles(matrix):
    rep = measure_report(validate_density(matrix, (2, 2)))
    oneway = rep.diagnostics["oneway_theta"], rep.diagnostics["oneway_phi"]
    return np.array([rep.optimal_theta, rep.optimal_phi, *oneway])


class TestMeasuredMutualInformation:
    def test_product_state_any_measurement(self):
        rho = product_state(1)
        for theta, phi in [(0.0, 0.0), (1.2, 0.7), (2.8, 4.0)]:
            assert abs(measured_mutual_information(rho, bloch_projectors(theta, phi))) < 1e-12

    def test_bell_in_z_basis(self):
        value = measured_mutual_information(bell_state(), bloch_projectors(0.0, 0.0))
        assert abs(value - 1.0) < 1e-12

    def test_classical_state_saturates_in_own_basis(self):
        rng = np.random.default_rng(2)
        theta, phi = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
        basis = bloch_projectors(theta, phi)
        from qcorr import classical_correlated

        state = classical_correlated(
            [0.35, 0.65], basis, [random_density((2,), 21).matrix, random_density((2,), 22).matrix]
        )
        assert abs(measured_mutual_information(state, basis) - mutual_information(state)) < 1e-10

    def test_never_exceeds_mutual_information(self, random_two_qubit_corpus):
        m = bloch_projectors(0.9, 1.8)
        for rho in random_two_qubit_corpus[:10]:
            assert measured_mutual_information(rho, m) <= mutual_information(rho) + 1e-9

    def test_composite_block_measurement(self):
        # the worked extension is classical across the (ancilla+A) : B cut,
        # so its block measurement extracts the full mutual information
        from qcorr import example_extension, example_extension_measurement, validate_density

        ext = example_extension(0.4)
        regrouped = validate_density(ext.matrix, (4, 2))
        measured = measured_mutual_information(ext, example_extension_measurement())
        assert abs(measured - mutual_information(regrouped)) < 1e-10


class TestQuantumDiscord:
    def test_product_state_is_zero(self):
        value, _ = quantum_discord(product_state(2), FAST)
        assert abs(value) < 1e-8

    def test_bell_state_is_one(self):
        value, _ = quantum_discord(bell_state(), FAST)
        assert abs(value - 1.0) < 1e-3

    def test_separable_example_is_strictly_positive(self):
        value, _ = quantum_discord(example_separable(0.5), FAST)
        assert value > 1e-3

    def test_against_light_grid_oracle(self):
        value, _ = quantum_discord(example_separable(0.5), OptimizerConfig())
        oracle, _, _ = dense_grid_measures(example_separable(0.5).matrix, 181, 361)
        assert abs(value - oracle) < 1e-3

    @pytest.mark.parametrize(
        "measure",
        [
            lambda rho: quantum_discord(rho, FAST),
            lambda rho: discord_relative_entropy_decomposition(rho, bloch_projectors(0.0, 0.0)),
        ],
        ids=["optimized", "fixed-measurement"],
    )
    def test_unsupported_dimensions(self, measure):
        expected = r"^measurement optimization requires dims \(2, 2\), got \(2, 4\)$"
        with pytest.raises(UnsupportedDimension, match=expected):
            measure(random_density((2, 4), 0))


class TestClassicalCorrelationHV:
    def test_product_state_is_zero(self):
        value, _ = classical_correlation_hv(product_state(3), FAST)
        assert abs(value) < 1e-8

    def test_bell_state_is_one(self):
        value, _ = classical_correlation_hv(bell_state(), FAST)
        assert abs(value - 1.0) < 1e-3

    def test_additivity_identity(self):
        for seed in range(10):
            rho = random_density((2, 2), seed)
            discord, opt = quantum_discord(rho, FAST)
            classical, _ = classical_correlation_hv(rho, FAST)
            assert abs(discord + classical - mutual_information(rho)) < 1e-9


class TestOnewayDeficit:
    def test_classical_state_is_zero(self):
        assert oneway_deficit(classical_state(4), FAST) < 1e-8

    def test_bell_state_is_one(self):
        assert abs(oneway_deficit(bell_state(), FAST) - 1.0) < 1e-3

    def test_separable_example_is_strictly_positive(self):
        assert oneway_deficit(example_separable(0.5), FAST) > 1e-3


class TestQuantumDeficit:
    def test_diagonal_in_marginal_eigenbases_gives_zero(self):
        assert quantum_deficit(classical_state(5)) < 1e-10

    def test_product_state_with_nondegenerate_marginals(self):
        assert quantum_deficit(product_state(6)) < 1e-10

    def test_separable_example_matches_independent_route(self):
        rho = example_separable(0.5)
        value = quantum_deficit(rho)
        assert value > 1e-3
        # independent evaluation: entropy gap to the product-eigenbasis diagonal
        _, va = np.linalg.eigh(rho.marginal([0]).matrix)
        _, vb = np.linalg.eigh(rho.marginal([1]).matrix)
        u = np.kron(va, vb)
        joint = np.real(np.diag(u.conj().T @ rho.matrix @ u))
        expected = float(-xlog2(joint).sum()) - entropy_bits(rho.matrix)
        assert abs(value - expected) < 1e-10

    def test_degenerate_marginal_warns(self):
        with pytest.warns(DegenerateMarginalWarning):
            quantum_deficit(bell_state())

    def test_rejects_a_state_that_is_not_bipartite(self):
        with pytest.raises(DimensionMismatch, match="expected a bipartite signature"):
            quantum_deficit(random_density((2, 2, 2), 0))

    def test_matches_divergence_to_the_dephased_state(self, random_two_qubit_corpus):
        for rho in [*random_two_qubit_corpus, bell_state(), example_separable(0.5)]:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegenerateMarginalWarning)  # Bell's marginals are I/2
                value = quantum_deficit(rho)
            assert abs(value - dephased_relative_entropy(rho.matrix)) < 1e-12

    def test_warning_text_category_and_caller_line(self):
        with pytest.warns(DegenerateMarginalWarning) as record:
            quantum_deficit(bell_state())
        assert [str(w.message) for w in record] == [
            f"marginal {name} has an eigenvalue gap below 1e-8; "
            "its eigenprojectors follow the deterministic ordering convention"
            for name in "AB"
        ]
        assert all(w.category is DegenerateMarginalWarning and w.filename == __file__ for w in record)


class TestDiscordDecomposition:
    def test_classical_state_in_own_basis(self):
        rng = np.random.default_rng(8)
        theta, phi = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
        basis = bloch_projectors(theta, phi)
        from qcorr import classical_correlated

        state = classical_correlated(
            [0.45, 0.55], basis, [random_density((2,), 31).matrix, random_density((2,), 32).matrix]
        )
        result = discord_relative_entropy_decomposition(state, basis)
        assert abs(result.direct) < 1e-9
        assert abs(result.via_relative_entropies) < 1e-9

    def test_bell_in_z_basis(self):
        result = discord_relative_entropy_decomposition(bell_state(), bloch_projectors(0.0, 0.0))
        assert abs(result.direct - 1.0) < 1e-9
        assert abs(result.via_relative_entropies - 1.0) < 1e-9

    def test_rejects_a_measurement_on_both_qubits(self):
        computational = ProjectiveMeasurement(tuple(np.diag(np.eye(4)[i]) for i in range(4)))
        with pytest.raises(DimensionMismatch, match="expected a qubit measurement, got block dim 4"):
            discord_relative_entropy_decomposition(bell_state(), computational)

    def test_routes_agree_on_random_pairs(self):
        rng = np.random.default_rng(99)
        for seed in range(20):
            rho = random_density((2, 2), seed + 400)
            m = bloch_projectors(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
            result = discord_relative_entropy_decomposition(rho, m)
            assert abs(result.direct - result.via_relative_entropies) < 1e-9


def kernel_cases(seed_base, rng_seed):
    """States and angle batches on which the batch kernels must match the generic route.

    Five random states plus |00> (measured along z, one outcome has zero
    probability), I/4 and Bell (degenerate branches).  Each gets the poles,
    phi just below 2 pi, and 64 random angles.
    """
    rng = np.random.default_rng(rng_seed)
    states = [random_density((2, 2), seed_base + seed) for seed in range(5)]
    states += [
        validate_density(np.diag([1.0, 0.0, 0.0, 0.0]), (2, 2)),
        validate_density(np.eye(4) / 4, (2, 2)),
        bell_state(),
    ]
    below_2pi = np.nextafter(2 * np.pi, 0.0)
    edge_theta = [0.0, np.pi, 0.0, np.pi, 0.5 * np.pi, 1.0]
    edge_phi = [0.0, 0.0, below_2pi, below_2pi, below_2pi, 2 * np.pi - 1e-9]
    for rho in states:
        theta = np.concatenate([edge_theta, rng.uniform(0, np.pi, 64)])
        phi = np.concatenate([edge_phi, rng.uniform(0, 2 * np.pi, 64)])
        yield rho, theta, phi


class TestBatchKernels:
    def test_batch_mi_matches_generic_route(self):
        from qcorr.measures import _fano_matrix, _measured_mi_batch

        for rho, thetas, phis in kernel_cases(600, 14):
            s_b = von_neumann_entropy(rho.marginal([1]))
            batch = _measured_mi_batch(_fano_matrix(rho.matrix), s_b, thetas, phis)
            for value, theta, phi in zip(batch, thetas, phis):
                generic = measured_mutual_information(rho, bloch_projectors(theta, phi))
                assert abs(value - generic) < 1e-12

    def test_batch_pinched_entropy_matches_generic_route(self):
        from qcorr.measures import _fano_matrix, _pinched_entropy_batch

        for rho, thetas, phis in kernel_cases(700, 15):
            batch = _pinched_entropy_batch(_fano_matrix(rho.matrix), thetas, phis)
            for value, theta, phi in zip(batch, thetas, phis):
                generic = von_neumann_entropy(pinch(rho, bloch_projectors(theta, phi)))
                assert abs(value - generic) < 1e-12


class TestOptimizerBehaviour:
    def test_config_validation(self):
        with pytest.raises(OutOfRange):
            OptimizerConfig(grid_resolution=4)
        with pytest.raises(OutOfRange):
            OptimizerConfig(tolerance=0.0)
        for bad in (math.nan, math.inf, True, np.True_):
            with pytest.raises(OutOfRange):
                OptimizerConfig(tolerance=bad)
        for name in ("grid_resolution", "refine_iterations"):
            for bad in (8.5, 16.0, True, "16"):
                with pytest.raises(OutOfRange):
                    OptimizerConfig(**{name: bad})
        assert OptimizerConfig(grid_resolution=np.int64(16), refine_iterations=np.int32(3)).grid_resolution == 16

    def test_deterministic_argmax(self):
        rho = random_density((2, 2), 123)
        first = maximize_measured_mi(rho, FAST)
        second = maximize_measured_mi(rho, FAST)
        assert first == second

    def test_reported_axis_is_canonical(self, random_two_qubit_corpus):
        # of +/-n the reported one has its first coordinate above measures._AXIS_ZERO
        # in (y, x, z) order positive, and it attains the optimum it reports
        for rho in random_two_qubit_corpus + [example_separable(0.3)]:
            opt = maximize_measured_mi(rho)
            assert 0.0 <= opt.theta <= math.pi
            assert 0.0 <= opt.phi < math.pi
            assert math.copysign(1.0, opt.phi) == 1.0
            value = measured_mutual_information(rho, bloch_projectors(opt.theta, opt.phi))
            assert abs(value - opt.value) < 1e-12

    @pytest.mark.parametrize("p", CORPUS_SEPARABLE_P)
    def test_real_states_report_phi_zero(self, p):
        # y is 0 on a real state; zoom noise of up to 1.6e-8 in y once set the sign, giving phi = pi - O(1e-8)
        assert reported_angles(corpus_separable(p))[1::2].tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("p", CORPUS_SEPARABLE_P[:4])
    def test_last_bit_perturbations_leave_the_angles_unchanged(self, p):
        # the zoom places the axis to about 5e-8; n and -n, a change of about pi, once swapped here
        matrix = corpus_separable(p)
        angles = reported_angles(matrix)
        for i, j in [(0, 0), (0, 1), (0, 3), (2, 3)]:
            for toward in (-np.inf, np.inf):
                perturbed = matrix.copy()
                perturbed[i, j] = np.nextafter(matrix[i, j].real, toward)
                perturbed[j, i] = perturbed[i, j]
                assert np.abs(reported_angles(perturbed) - angles).max() < 1e-6

    def test_bell_tie_breaks_to_smallest_angles(self):
        # every measurement attains the optimum, so the grid origin wins
        opt = maximize_measured_mi(bell_state(), OptimizerConfig(refine_iterations=0))
        assert opt.theta == 0.0
        assert opt.phi == 0.0


class TestMeasureReport:
    def test_oneway_angles_attain_the_deficit(self, random_two_qubit_corpus):
        for rho in random_two_qubit_corpus:
            rep = measure_report(rho)
            theta, phi = rep.diagnostics["oneway_theta"], rep.diagnostics["oneway_phi"]
            assert 0.0 <= theta <= math.pi and 0.0 <= phi < math.pi
            if rep.oneway_deficit == 0.0:
                continue  # clipped: the raw value is not reported
            increase = von_neumann_entropy(pinch(rho, bloch_projectors(theta, phi))) - von_neumann_entropy(rho)
            assert abs(increase - rep.oneway_deficit) < 1e-12

    @pytest.mark.parametrize(
        "matrix", [np.diag([1.0, 0.0, 0.0, 0.0]), np.kron(np.diag([0.3, 0.7]), np.diag([1.0, 0.0]))],
        ids=["pure-00", "rho_a-x-0"],
    )
    def test_no_value_reads_negative_zero(self, matrix):
        # B is pure, so J is 0 for every measurement: -1.0 * 0.0 once reported C_A = -0.0
        rep = measure_report(validate_density(matrix, (2, 2)))
        values = [rep.mutual_information, rep.discord, rep.classical_correlation, rep.oneway_deficit,
                  rep.quantum_deficit, rep.optimal_theta, rep.optimal_phi,
                  *(v for v in rep.diagnostics.values() if isinstance(v, float))]
        assert [v for v in values if v == 0.0 and math.copysign(1.0, v) < 0] == []

    def test_identity_holds_exactly(self):
        rho = random_density((2, 2), 321)
        rep = measure_report(rho, FAST)
        assert abs(rep.discord + rep.classical_correlation - rep.mutual_information) < 1e-9
        assert rep.discord >= 0.0
        assert rep.classical_correlation >= 0.0
        assert rep.oneway_deficit >= 0.0
        assert rep.quantum_deficit >= 0.0

    def test_bell_report_carries_degeneracy_warnings(self):
        rep = measure_report(bell_state(), FAST)
        assert len(rep.warnings) == 2
        assert abs(rep.mutual_information - 2.0) < 1e-9
        assert abs(rep.discord - 1.0) < 1e-3

    def test_report_stores_the_messages_and_emits_none(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = measure_report(bell_state(), FAST)
        with pytest.warns(DegenerateMarginalWarning) as record:
            quantum_deficit(bell_state())
        assert rep.warnings == tuple(str(w.message) for w in record)

    def test_concurrent_reports_keep_their_own_warnings(self):
        # Bell has two degenerate marginals and the Wishart state none; four
        # threads interleave them, and every report lists exactly its own
        cfg = OptimizerConfig(grid_resolution=8, refine_iterations=2)
        states = [bell_state(), random_density((2, 2), 3)]
        seen = []

        def work():
            for k in range(100):
                seen.append((k % 2, len(measure_report(states[k % 2], cfg).warnings)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(seen) == 400
        assert set(seen) == {(0, 2), (1, 0)}


def test_negative_refine_iterations_rejected():
    with pytest.raises(OutOfRange):
        OptimizerConfig(refine_iterations=-5)


class TestBellDiagonalOracle:
    """measure_report against the closed forms for Bell-diagonal states."""

    @staticmethod
    def _check(matrix, c):
        rep = measure_report(validate_density(matrix, (2, 2)))
        mutual, classical, discord, deficit = bell_diagonal_measures(c)
        assert abs(rep.mutual_information - mutual) < 1e-9
        assert abs(rep.classical_correlation - classical) < 1e-9
        assert abs(rep.discord - discord) < 1e-9
        assert abs(rep.oneway_deficit - deficit) < 1e-9

    def test_random_points_inside_the_tetrahedron(self):
        rng = np.random.default_rng(2008)
        for _ in range(30):
            c = rng.dirichlet(np.ones(4)) @ BELL_TETRAHEDRON
            self._check(bell_diagonal_state(c), c)

    def test_local_unitaries_move_the_optimum_off_the_grid(self):
        # U_A (x) U_B leaves every measure unchanged but turns the optimal
        # axis away from x, y and z, so the zoom has to find it
        rng = np.random.default_rng(77)
        for _ in range(10):
            c = rng.dirichlet(np.ones(4)) @ BELL_TETRAHEDRON
            u = np.kron(qubit_unitary(rng), qubit_unitary(rng))
            self._check(u @ bell_diagonal_state(c) @ u.conj().T, c)

    @pytest.mark.parametrize("tilt", [0.45, -0.45])
    @pytest.mark.parametrize("azimuth", [0.0, 0.25, 0.5, 0.75, 1.0, 1.5])
    def test_optimum_next_to_a_pole(self, tilt, azimuth):
        # Tilt the optimal axis z of A by 0.45 grid steps toward the given
        # azimuth (a fraction of pi); a negative tilt puts -n* there, so the
        # optimum also sits next to -z.  The pole is then the grid winner,
        # and the zoom has to leave it in any direction.
        c = (0.1, 0.1, 0.7)
        beta, az = tilt * np.pi / 63, azimuth * np.pi
        axis = (-np.sin(az), np.cos(az), 0.0)
        u = np.cos(beta / 2) * np.eye(2) - 1j * np.sin(beta / 2) * sum(a * p for a, p in zip(axis, PAULIS))
        u = np.kron(u, np.eye(2))
        self._check(u @ bell_diagonal_state(c) @ u.conj().T, c)


class TestZoomRefinement:
    def test_refined_value_never_worse_than_grid_winner(self, random_two_qubit_corpus):
        grid_only = OptimizerConfig(refine_iterations=0)
        states = random_two_qubit_corpus[:12] + [product_state(9), example_separable(0.3)]
        for rho in states:
            assert maximize_measured_mi(rho).value >= maximize_measured_mi(rho, grid_only).value
            assert oneway_deficit(rho) <= oneway_deficit(rho, grid_only)

    def test_zero_rounds_return_the_grid_value(self):
        rho = random_density((2, 2), 55)
        cfg = OptimizerConfig(refine_iterations=0)
        opt = maximize_measured_mi(rho, cfg)
        # the half-sphere grid: every measurement axis once, phi on [0, pi)
        thetas = np.linspace(0.0, np.pi, cfg.grid_resolution)
        phis = np.linspace(0.0, np.pi, cfg.grid_resolution, endpoint=False)
        tt, pp = np.meshgrid(thetas, phis, indexing="ij")
        s_b = von_neumann_entropy(rho.marginal([1]))
        grid = measures._measured_mi_batch(measures._fano_matrix(rho.matrix), s_b, tt.ravel(), pp.ravel())
        assert opt.value == np.max(grid)
        assert opt.evaluations == grid.size == cfg.grid_resolution**2

    def test_rounds_cap_and_default_converges(self, monkeypatch):
        results = []
        zoom = measures.minimize

        def recording(*args, **kwargs):
            results.append(zoom(*args, **kwargs))
            return results[-1]

        # the zoom is looked up as the module attribute ``minimize`` on every call
        monkeypatch.setattr(measures, "minimize", recording)
        rho = random_density((2, 2), 56)
        measure_report(rho)
        # one lockstep zoom for both objectives: quartering 2 pi/63 falls below
        # sqrt(eps) after 12 rounds (4^12 > 2 pi/63 / 1.49e-8 > 4^11) of 13x13
        # points each, well inside the default 200
        assert [(r.nfev, r.success) for r in results] == [(2 * 12 * 169, True)]
        results.clear()
        measure_report(rho, OptimizerConfig(refine_iterations=3))
        assert [(r.nfev, r.success) for r in results] == [(2 * 3 * 169, False)]

    @pytest.mark.parametrize(
        "cfg, rounds, converged",
        [
            (OptimizerConfig(), 12, True),
            # the zoom starts at 2 pi/255, which quarters below sqrt(eps) in 11 rounds
            (OptimizerConfig(grid_resolution=256), 11, True),
            (OptimizerConfig(refine_iterations=3), 3, False),
            (OptimizerConfig(refine_iterations=0), 0, False),
        ],
    )
    def test_report_says_how_the_zoom_ended(self, cfg, rounds, converged):
        diagnostics = measure_report(random_density((2, 2), 56), cfg).diagnostics
        assert (diagnostics["zoom_rounds"], diagnostics["zoom_converged"]) == (rounds, converged)

    def test_values_match_the_halving_zoom(self, monkeypatch, random_two_qubit_corpus):
        # The zoom stops at a sqrt(eps) half-width, where a 7x7 halving zoom
        # went on to 1e-11: the measures agree to rounding, and so does the
        # axis wherever the objective pins it (J and the pinched entropy are
        # constant on a product state, so its axis is arbitrary).
        states = [(rho, True) for rho in random_two_qubit_corpus]
        states += [(example_separable(p), True) for p in (0.1, 0.3, 0.5, 0.7, 0.9)]
        states += [
            (classical_state(3), True),
            (validate_density(bell_diagonal_state((0.3, -0.5, 0.2)), (2, 2)), True),
            (product_state(4), False),
        ]
        reports = [measure_report(rho) for rho, _ in states]
        monkeypatch.setattr(measures, "minimize", zoom_reference)

        def axes(rep):
            # the unit axes of the J argmax and of the pinched-entropy argmin
            theta = np.array([rep.optimal_theta, rep.diagnostics["oneway_theta"]])
            phi = np.array([rep.optimal_phi, rep.diagnostics["oneway_phi"]])
            return np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)], axis=-1)

        for (rho, determined), new in zip(states, reports):
            old = measure_report(rho)
            for name in ("discord", "classical_correlation", "oneway_deficit"):
                assert abs(getattr(new, name) - getattr(old, name)) <= 1e-14
            assert new.diagnostics["raw_classical_correlation"] >= old.diagnostics["raw_classical_correlation"] - 1e-14
            assert new.oneway_deficit <= old.oneway_deficit + 1e-14  # the pinched entropy less S(rho)
            if determined:
                a, b = axes(new), axes(old)
                assert np.all(np.minimum(np.linalg.norm(a - b, axis=1), np.linalg.norm(a + b, axis=1)) <= 1e-6)

    def test_lockstep_starts_match_solo_runs(self):
        # each row of a lockstep zoom ends bit for bit where its start alone would
        rho = random_density((2, 2), 57)
        fano = measures._fano_matrix(rho.matrix)
        s_b = von_neumann_entropy(rho.marginal([1]))
        kernels = (
            lambda t, p: -measures._measured_mi_batch(fano, s_b, t, p),
            lambda t, p: measures._pinched_entropy_batch(fano, t, p),
        )
        starts = [(0.4, 2.5), (2.0, 0.3)]
        values = [float(f(np.array(t), np.array(p))) for f, (t, p) in zip(kernels, starts)]
        width = 2.0 * np.pi / 63

        def joint_objective(tt, pp):
            return np.stack([f(t, p) for f, t, p in zip(kernels, tt, pp)])

        joint = measures.minimize(joint_objective, *zip(*starts), values, width, 200)
        for k, (f, (theta, phi), value) in enumerate(zip(kernels, starts, values)):
            solo = measures.minimize(lambda tt, pp: f(tt[0], pp[0])[None], [theta], [phi], [value], width, 200)
            assert solo.fun[0] < value  # the zoom moved
            assert joint.fun[k] == solo.fun[0]
            assert np.array_equal(joint.x[k], solo.x[0])
            assert joint.nfev == 2 * solo.nfev
            assert joint.success == solo.success

    @pytest.mark.parametrize("resolution, limit_kb", [(64, 300), (256, 400)])
    def test_search_memory_is_flat_in_the_grid(self, resolution, limit_kb):
        # the grid is scanned in blocks of rows, so no full-grid array is ever built
        rho = random_density((2, 2), 58)
        cfg = OptimizerConfig(grid_resolution=resolution)
        measure_report(rho, cfg)
        tracemalloc.start()
        try:
            measure_report(rho, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit_kb * 1024
