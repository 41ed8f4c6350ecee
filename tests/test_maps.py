import numpy as np
import pytest

from qcorr import (
    AMap,
    BMap,
    apply_amap,
    assignment_apply,
    build_measurement_maps,
    check_amap_conditions,
    classify,
    dual_Q,
    example_assignment,
    example_extension,
    example_extension_measurement,
    qubit_basis_P,
    random_density,
    realign_a_to_b,
    realign_b_to_a,
    spectral_decompose,
)
from qcorr.errors import DimensionMismatch, DualsDoNotResolveIdentity, SingularBasis
from qcorr.linalg import PAULIS, partial_trace
from qcorr.maps import AssignmentMap, apply_kraus
from qcorr.measurement import ProjectiveMeasurement

from oracles import rank_one_measurement_maps

KNOWN_B = np.array(
    [[1, 0, 0, 0.5], [0, 0, 0.5, 0], [0, 0.5, 0, 0], [0.5, 0, 0, 1]], dtype=complex
)
KNOWN_A = np.array(
    [[1, 0, 0, 0], [0, 0.5, 0.5, 0], [0, 0.5, 0.5, 0], [0, 0, 0, 1]], dtype=complex
)

# Unique duals of qubit_basis_P(): (I + s1 - s2 - s3)/2, +s2, s3, (I - s1 - s2 - s3)/2,
# derived by solving Tr[P_a Q_b] = delta_ab over the Pauli expansion by hand.
KNOWN_DUALS = (
    0.5 * np.array([[0, 1 + 1j], [1 - 1j, 2]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
    0.5 * np.array([[0, -1 + 1j], [-1 - 1j, 2]], dtype=complex),
)


def rho_a_of(p):
    """p |0><0| + (1-p) |+><+|, the system state of the worked example."""
    return p * np.diag([1.0, 0.0]).astype(complex) + (1 - p) * 0.5 * np.ones((2, 2))


def amap_of_channel(channel):
    """A matrix of a map given as a callable on 2x2 matrices (column = image of E_kl)."""
    cols = []
    for k in range(2):
        for l in range(2):
            e = np.zeros((2, 2), dtype=complex)
            e[k, l] = 1.0
            cols.append(channel(e).reshape(-1))
    return AMap(2, np.stack(cols, axis=1))


def random_block_measurement(seed):
    """Complete rank-1 projective measurement on a 4-dimensional block."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    _, vecs = np.linalg.eigh((g + g.conj().T) / 2)
    return ProjectiveMeasurement(tuple(np.outer(vecs[:, i], vecs[:, i].conj()) for i in range(4)))


class TestQubitBasis:
    def test_third_element_is_ground_projector(self):
        assert np.array_equal(qubit_basis_P()[2], np.diag([1.0, 0.0]).astype(complex))

    def test_first_element_entries(self):
        assert np.allclose(qubit_basis_P()[0], 0.5 * np.ones((2, 2)))

    def test_gram_matrix_nonsingular(self):
        basis = qubit_basis_P()
        gram = np.array([[np.trace(p @ q).real for q in basis] for p in basis])
        assert abs(np.linalg.det(gram)) > 1e-6


class TestDualQ:
    def test_reproduces_known_duals(self):
        duals = dual_Q(qubit_basis_P())
        for got, want in zip(duals, KNOWN_DUALS):
            assert np.max(np.abs(got - want)) < 1e-13

    def test_duality_over_all_pairs(self):
        basis = qubit_basis_P()
        duals = dual_Q(basis)
        for a, p in enumerate(basis):
            for b, q in enumerate(duals):
                want = 1.0 if a == b else 0.0
                assert abs(np.trace(p @ q) - want) < 1e-13

    def test_duals_resolve_identity(self):
        assert np.max(np.abs(sum(dual_Q(qubit_basis_P())) - np.eye(2))) < 1e-14

    def test_rejects_dependent_basis(self):
        eye = np.eye(2, dtype=complex)
        with pytest.raises(SingularBasis):
            dual_Q((eye, 2 * eye, PAULIS[0], PAULIS[1]))

    def test_rejects_basis_without_identity_resolution(self):
        # Pauli basis spans, but its duals sum to (I + sigma_1 + sigma_2 + sigma_3)/2
        eye = np.eye(2, dtype=complex)
        with pytest.raises(DualsDoNotResolveIdentity):
            dual_Q((eye, *PAULIS))

    @pytest.mark.parametrize(
        "basis", [[], [np.eye(2), *PAULIS[:2], np.eye(3)]], ids=["empty", "mixed-shapes"]
    )
    def test_rejects_empty_or_mixed_bases(self, basis):
        with pytest.raises(DimensionMismatch):
            dual_Q(basis)


class TestAssignment:
    def test_extends_system_state_to_known_pair_state(self):
        am = example_assignment()
        for p in (0.0, 0.3, 0.5, 0.8, 1.0):
            extended = assignment_apply(am, rho_a_of(p))
            expected = partial_trace(example_extension(p).matrix, (2, 2, 2), [0, 1])
            assert np.max(np.abs(extended - expected)) < 1e-13

    def test_single_basis_element(self):
        am = example_assignment()
        out = assignment_apply(am, am.basis[2])
        assert np.max(np.abs(out - np.kron(am.assigned[2], am.basis[2]))) < 1e-13

    def test_linearity(self):
        am = example_assignment()
        mixed = 0.5 * (am.basis[0] + am.basis[2])
        out = assignment_apply(am, mixed)
        expected = 0.5 * (
            np.kron(am.assigned[0], am.basis[0]) + np.kron(am.assigned[2], am.basis[2])
        )
        assert np.max(np.abs(out - expected)) < 1e-13

    def test_rejects_empty_lists(self):
        with pytest.raises(DimensionMismatch):
            AssignmentMap((), ())

    def test_rejects_fewer_assigned_states_than_basis_elements(self):
        am = example_assignment()
        with pytest.raises(DimensionMismatch, match="got 4 basis elements, 3 assigned states"):
            AssignmentMap(am.basis, am.assigned[:3])

    @pytest.mark.parametrize("field", ["basis", "assigned"])
    def test_rejects_mixed_shapes(self, field):
        am = example_assignment()
        parts = {"basis": am.basis, "assigned": am.assigned}
        parts[field] = parts[field][:-1] + (np.eye(3) / 3,)
        with pytest.raises(DimensionMismatch):
            AssignmentMap(**parts)


class TestApplyAmap:
    def test_known_map_fixes_example_states(self):
        a = AMap(2, KNOWN_A)
        for p in np.linspace(0, 1, 11):
            rho = rho_a_of(p)
            assert np.max(np.abs(apply_amap(a, rho) - rho)) < 1e-13

    def test_known_map_erases_sigma2_component(self):
        a = AMap(2, KNOWN_A)
        rho = 0.5 * (np.eye(2) + PAULIS[1])
        assert np.max(np.abs(apply_amap(a, rho) - np.eye(2) / 2)) < 1e-14

    def test_identity_map(self):
        a = AMap(2, np.eye(4, dtype=complex))
        rho = random_density((2,), 12).matrix
        assert np.array_equal(apply_amap(a, rho), rho)

    @pytest.mark.parametrize("kind", [AMap, BMap])
    def test_rejects_a_tensor_of_the_wrong_shape(self, kind):
        with pytest.raises(DimensionMismatch, match=r"expected shape \(4, 4\), got \(3, 3\)"):
            kind(2, np.eye(3))

    @pytest.mark.parametrize(
        "apply, operand",
        [(apply_amap, AMap(2, KNOWN_A)), (assignment_apply, example_assignment())],
        ids=["amap", "assignment"],
    )
    def test_rejects_a_state_of_the_wrong_shape(self, apply, operand):
        with pytest.raises(DimensionMismatch, match=r"state shape \(3, 3\) does not match"):
            apply(operand, np.eye(3) / 3)


class TestAmapConditions:
    def test_known_map_satisfies_both(self):
        report = check_amap_conditions(AMap(2, KNOWN_A))
        assert report.hermiticity_residual < 1e-15
        assert report.trace_residual < 1e-15

    def test_non_hermitian_tensor_flagged(self):
        rng = np.random.default_rng(4)
        tensor = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        report = check_amap_conditions(AMap(2, tensor))
        assert report.hermiticity_residual > 0.1

    def test_scaling_breaks_trace_condition(self):
        report = check_amap_conditions(AMap(2, 2.0 * KNOWN_A))
        assert abs(report.trace_residual - 1.0) < 1e-15


class TestRealignment:
    def test_known_pair_maps_to_each_other(self):
        assert np.array_equal(realign_a_to_b(AMap(2, KNOWN_A)).tensor, KNOWN_B)
        assert np.array_equal(realign_b_to_a(BMap(2, KNOWN_B)).tensor, KNOWN_A)

    def test_round_trip_exact(self):
        rng = np.random.default_rng(6)
        tensor = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a = AMap(2, tensor)
        assert np.array_equal(realign_b_to_a(realign_a_to_b(a)).tensor, a.tensor)


class TestSpectralDecomposition:
    def test_known_b_weights(self):
        kraus = spectral_decompose(BMap(2, KNOWN_B))
        assert np.allclose(kraus.weights, [-0.5, 0.5, 0.5, 1.5], atol=1e-12)

    def test_identity_map_b_is_rank_one(self):
        b = realign_a_to_b(AMap(2, np.eye(4, dtype=complex)))
        kraus = spectral_decompose(b)
        assert np.allclose(kraus.weights, [0.0, 0.0, 0.0, 2.0], atol=1e-12)
        assert np.max(np.abs(kraus.operators[3] - np.eye(2) / np.sqrt(2))) < 1e-12

    def test_reconstructs_map_action(self):
        rng = np.random.default_rng(15)
        herm = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        b = BMap(2, (herm + herm.conj().T) / 2)
        a = realign_b_to_a(b)
        kraus = spectral_decompose(b)
        for seed in range(5):
            rho = random_density((2,), seed).matrix
            assert np.max(np.abs(apply_kraus(kraus, rho) - apply_amap(a, rho))) < 1e-10


class TestClassify:
    def test_known_b_is_ncp(self):
        verdict = classify(BMap(2, KNOWN_B))
        assert verdict.verdict == "NCP"
        assert abs(verdict.min_eigenvalue + 0.5) < 1e-10

    def test_pinch_channel_is_cp(self):
        z0 = np.diag([1.0, 0.0]).astype(complex)
        z1 = np.diag([0.0, 1.0]).astype(complex)
        a = amap_of_channel(lambda x: z0 @ x @ z0 + z1 @ x @ z1)
        assert classify(realign_a_to_b(a)).verdict == "CP"

    def test_identity_map_is_cp(self):
        assert classify(realign_a_to_b(AMap(2, np.eye(4, dtype=complex)))).verdict == "CP"

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_tensor(self, bad):
        from qcorr.errors import NotHermitian

        with pytest.raises(NotHermitian):
            classify(BMap(2, np.diag([bad, 1.0, 1.0, 1.0])))


class TestBuildMeasurementMaps:
    def setup_method(self):
        self.maps = build_measurement_maps(example_assignment(), example_extension_measurement())

    def test_b_matrix(self):
        assert np.max(np.abs(self.maps.b.tensor - KNOWN_B)) < 1e-13

    def test_eta_values(self):
        plus = 0.5 * np.ones((2, 2))
        minus = 0.5 * np.array([[1, -1], [-1, 1]])
        expected = (plus, np.eye(2) / 2, np.diag([1.0, 0.0]), minus)
        for got, want in zip(self.maps.eta, expected):
            assert np.max(np.abs(got - want)) < 1e-13

    def test_overlap_rows(self):
        expected = np.array(
            [[1, 0, 0, 0], [0, 0, 0.5, 0.5], [0, 0, 1, 0], [0, 1, 0, 0]]
        )
        assert np.max(np.abs(self.maps.overlaps.T - expected)) < 1e-13

    def test_projector_marginals(self):
        plus = 0.5 * np.ones((2, 2))
        minus = 0.5 * np.array([[1, -1], [-1, 1]])
        expected = (plus, minus, np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        for got, want in zip(self.maps.projector_marginals, expected):
            assert np.max(np.abs(got - want)) < 1e-13

    def test_conditions_pass(self):
        assert self.maps.conditions.hermiticity_residual < 1e-12
        assert self.maps.conditions.trace_residual < 1e-12

    def test_map_route_matches_pinched_extension_route(self):
        am = example_assignment()
        m = example_extension_measurement()
        for seed in range(5):
            rho = random_density((2,), seed + 40).matrix
            extended = assignment_apply(am, rho)
            pinched = np.zeros((4, 4), dtype=complex)
            for pi in m.projectors:
                pinched += pi @ extended @ pi
            expected = partial_trace(pinched, (2, 2), [1])
            got = apply_amap(self.maps.a, rho)
            assert np.max(np.abs(got - expected)) < 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_random_measurements_yield_legal_maps(self, seed):
        maps = build_measurement_maps(example_assignment(), random_block_measurement(seed))
        assert maps.conditions.hermiticity_residual < 1e-12
        assert maps.conditions.trace_residual < 1e-12
        for state_seed in range(5):
            rho = random_density((2,), state_seed).matrix
            out = apply_amap(maps.a, rho)
            assert abs(out.trace().real - 1.0) < 1e-12
            assert np.max(np.abs(out - out.conj().T)) < 1e-12

    def test_ncp_map_still_fixes_example_states(self):
        # the central pairing: NCP verdict and exact insensitivity together
        assert classify(self.maps.b).verdict == "NCP"
        for p in np.linspace(0, 1, 11):
            rho = rho_a_of(p)
            assert np.max(np.abs(apply_amap(self.maps.a, rho) - rho)) < 1e-13


class TestAssignmentMapValidation:
    @pytest.mark.parametrize(
        "basis",
        [
            (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),
            (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.eye(2) / 2, 0.5 * np.ones((2, 2))),
        ],
        ids=["two-elements", "dependent"],
    )
    def test_rejects_basis_that_does_not_span(self, basis):
        with pytest.raises(SingularBasis):
            AssignmentMap(basis, tuple(np.eye(2) / 2 for _ in basis))


# Rank-2 measurements on ancilla (x) A: measuring the ancilla alone leaves A
# untouched, and measuring sigma_3 on A alone dephases it.
RANK_TWO_MEASUREMENTS = {
    "ancilla": ProjectiveMeasurement((np.kron(np.diag([1.0, 0.0]), np.eye(2)), np.kron(np.diag([0.0, 1.0]), np.eye(2)))),
    "system": ProjectiveMeasurement((np.kron(np.eye(2), np.diag([1.0, 0.0])), np.kron(np.eye(2), np.diag([0.0, 1.0])))),
}


class TestRankTwoMeasurementMaps:
    @pytest.mark.parametrize("which", RANK_TWO_MEASUREMENTS)
    def test_map_is_pinched_extension(self, which):
        am = example_assignment()
        m = RANK_TWO_MEASUREMENTS[which]
        maps = build_measurement_maps(am, m)
        assert maps.conditions.trace_residual <= 1e-12
        for seed in range(5):
            rho = random_density((2,), seed).matrix
            extended = assignment_apply(am, rho)
            expected = partial_trace(sum(pi @ extended @ pi for pi in m.projectors), (2, 2), [1])
            assert np.max(np.abs(apply_amap(maps.a, rho) - expected)) <= 1e-12

    def test_ancilla_measurement_is_identity_and_system_measurement_dephases(self):
        am = example_assignment()
        identity = build_measurement_maps(am, RANK_TWO_MEASUREMENTS["ancilla"]).a.tensor
        dephasing = build_measurement_maps(am, RANK_TWO_MEASUREMENTS["system"]).a.tensor
        assert np.max(np.abs(identity - np.eye(4))) <= 1e-12
        assert np.max(np.abs(dephasing - np.diag([1.0, 0.0, 0.0, 1.0]))) <= 1e-12


class TestRankOneReference:
    """The pinched construction against the rank-1 closed form it replaced."""

    def test_worked_example(self):
        am, m = example_assignment(), example_extension_measurement()
        got, want = build_measurement_maps(am, m), rank_one_measurement_maps(am, m)
        assert np.array_equal(got.a.tensor, want.a.tensor)
        assert np.array_equal(got.b.tensor, want.b.tensor)
        for field in ("eta", "projector_marginals"):
            assert all(np.array_equal(g, w) for g, w in zip(getattr(got, field), getattr(want, field)))
        assert np.max(np.abs(got.overlaps - want.overlaps)) <= 1e-15

    @pytest.mark.parametrize("seed", range(20))
    def test_random_rank_one_measurements(self, seed):
        am, m = example_assignment(), random_block_measurement(seed)
        got, want = build_measurement_maps(am, m), rank_one_measurement_maps(am, m)
        for g, w in [
            (got.a.tensor, want.a.tensor),
            (got.b.tensor, want.b.tensor),
            (got.overlaps, want.overlaps),
            *zip(got.eta, want.eta),
            *zip(got.projector_marginals, want.projector_marginals),
        ]:
            assert np.max(np.abs(g - w)) <= 1e-15
        assert abs(got.conditions.hermiticity_residual - want.conditions.hermiticity_residual) <= 1e-15
        assert abs(got.conditions.trace_residual - want.conditions.trace_residual) <= 1e-15
