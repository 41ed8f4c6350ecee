import numpy as np
import pytest

from qcorr import (
    apply_povm_elements,
    bell_state,
    bloch_projectors,
    example_extension,
    example_extension_measurement,
    is_insensitive,
    measure_subsystem,
    pinch,
    random_density,
    validate_density,
    von_neumann_entropy,
)
from qcorr.errors import NotProjector, NotResolutionOfIdentity, QcorrError
from qcorr.linalg import matrix_log_on_support
from qcorr.measurement import ProjectiveMeasurement
from qcorr.states import KET_MINUS, KET_PLUS, ket

from conftest import classical_state, product_state
from oracles import xlog2


def trine_povm():
    """Three symmetric measurement operators on a qubit, scaled to resolve identity."""
    ops = []
    for k in range(3):
        angle = 2.0 * np.pi * k / 3.0
        vec = np.array([np.cos(angle / 2), np.sin(angle / 2)], dtype=complex)
        ops.append(np.sqrt(2.0 / 3.0) * np.outer(vec, vec.conj()))
    return ops


@pytest.mark.parametrize(
    "projectors, reason",
    [
        ((np.diag([2.0, 0.0]), np.diag([-1.0, 1.0])), "not idempotent"),
        ((KET_PLUS.projector(), np.diag([1.0, 0.0])), "not orthogonal"),
    ],
    ids=["not-idempotent", "not-orthogonal"],
)
def test_non_projectors_raise_a_package_error(projectors, reason):
    # NotProjector is a QcorrError, so the command line reports it, and still a ValueError
    with pytest.raises(NotProjector, match=reason) as caught:
        ProjectiveMeasurement(projectors)
    assert isinstance(caught.value, QcorrError) and isinstance(caught.value, ValueError)


class TestBlochProjectors:
    def test_poles_give_z_basis(self):
        m = bloch_projectors(0.0, 0.0)
        assert np.allclose(m.projectors[0], np.diag([1.0, 0.0]))
        assert np.allclose(m.projectors[1], np.diag([0.0, 1.0]))

    def test_equator_gives_x_basis(self):
        m = bloch_projectors(np.pi / 2, 0.0)
        assert np.allclose(m.projectors[0], KET_PLUS.projector(), atol=1e-15)
        assert np.allclose(m.projectors[1], KET_MINUS.projector(), atol=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_completeness_exact(self, seed):
        rng = np.random.default_rng(seed)
        m = bloch_projectors(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
        assert np.array_equal(m.projectors[0] + m.projectors[1], np.eye(2))


class TestMeasureSubsystem:
    def test_z_measurement_on_00(self):
        rho = validate_density(np.diag([1.0, 0, 0, 0]), (2, 2))
        out = measure_subsystem(rho, bloch_projectors(0.0, 0.0))
        assert np.allclose(out.probabilities, [1.0, 0.0], atol=1e-14)
        assert np.allclose(out.conditional_states[0].matrix, np.diag([1.0, 0.0]))
        assert out.conditional_states[1] is None  # zero-probability outcome

    def test_x_measurement_on_bell(self):
        out = measure_subsystem(bell_state(), bloch_projectors(np.pi / 2, 0.0))
        assert np.allclose(out.probabilities, [0.5, 0.5], atol=1e-14)
        assert np.allclose(out.conditional_states[0].matrix, KET_PLUS.projector(), atol=1e-14)
        assert np.allclose(out.conditional_states[1].matrix, KET_MINUS.projector(), atol=1e-14)

    @pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_extension_measurement_leaves_state_fixed(self, p):
        rho = example_extension(p)
        out = measure_subsystem(rho, example_extension_measurement())
        assert np.max(np.abs(out.pinched_state.matrix - rho.matrix)) < 1e-12

    def test_probabilities_normalized_on_corpus(self, random_two_qubit_corpus):
        m = bloch_projectors(1.1, 2.3)
        for rho in random_two_qubit_corpus[:10]:
            out = measure_subsystem(rho, m)
            assert np.all(out.probabilities >= -1e-14)
            assert abs(out.probabilities.sum() - 1.0) < 1e-10

    def test_pinched_state_invariant(self):
        rho = random_density((2, 2), 77)
        m = bloch_projectors(0.7, 0.3)
        out = measure_subsystem(rho, m)
        rebuilt = np.zeros_like(rho.matrix)
        for pi in m.projectors:
            e = np.kron(pi, np.eye(2))
            rebuilt += e @ rho.matrix @ e
        assert np.max(np.abs(out.pinched_state.matrix - rebuilt)) < 1e-12


class TestPinch:
    def test_fixes_classical_state(self):
        rng = np.random.default_rng(9)
        theta, phi = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
        basis = bloch_projectors(theta, phi)
        from qcorr import classical_correlated

        state = classical_correlated(
            [0.4, 0.6], basis, [random_density((2,), 1).matrix, random_density((2,), 2).matrix]
        )
        assert np.linalg.norm(pinch(state, basis).matrix - state.matrix) < 1e-13

    def test_z_pinch_of_bell(self):
        pinched = pinch(bell_state(), bloch_projectors(0.0, 0.0))
        assert np.allclose(pinched.matrix, np.diag([0.5, 0.0, 0.0, 0.5]), atol=1e-14)

    def test_idempotent(self):
        rho = random_density((2, 2), 5)
        m = bloch_projectors(2.0, 1.0)
        once = pinch(rho, m)
        twice = pinch(once, m)
        assert np.max(np.abs(twice.matrix - once.matrix)) < 1e-13

    def test_preserves_trace_and_hermiticity(self, random_two_qubit_corpus):
        m = bloch_projectors(0.4, 5.1)
        for rho in random_two_qubit_corpus[:10]:
            pinched = pinch(rho, m).matrix
            assert abs(pinched.trace().real - 1.0) < 1e-13
            assert np.max(np.abs(pinched - pinched.conj().T)) < 1e-13

    def test_never_decreases_entropy(self, random_two_qubit_corpus):
        for i, rho in enumerate(random_two_qubit_corpus[:10]):
            m = bloch_projectors(0.1 + 0.3 * i, 0.2 * i)
            assert von_neumann_entropy(pinch(rho, m)) >= von_neumann_entropy(rho) - 1e-9

    def test_pinching_identity(self):
        # Tr[rho log rho^D] = Tr[rho^D log rho^D] for a pinched reference
        for seed in range(10):
            rho = random_density((2, 2), seed)
            m = bloch_projectors(0.2 + 0.25 * seed, 0.45 * seed)
            pinched = pinch(rho, m).matrix
            log_pinched = matrix_log_on_support(pinched)
            lhs = float(np.real(np.trace(rho.matrix @ log_pinched)))
            rhs = float(np.real(np.trace(pinched @ log_pinched)))
            assert abs(lhs - rhs) < 1e-9

    def test_rank_one_pinched_marginal_entropy(self):
        for seed in range(5):
            rho = random_density((2, 2), seed + 200)
            m = bloch_projectors(0.3 + 0.4 * seed, 0.8 * seed)
            out = measure_subsystem(rho, m)
            pinched_a = out.pinched_state.marginal([0])
            assert abs(von_neumann_entropy(pinched_a) - float(-xlog2(out.probabilities).sum())) < 1e-10


class TestApplyPovmElements:
    def test_projectors_reduce_to_projective_measurement(self):
        rho = random_density((2, 2), 31)
        m = bloch_projectors(1.0, 0.5)
        probs, conds = apply_povm_elements(rho, m.projectors)
        out = measure_subsystem(rho, m)
        assert np.max(np.abs(probs - out.probabilities)) < 1e-12
        for got, want in zip(conds, out.conditional_states):
            assert np.max(np.abs(got.matrix - want.matrix)) < 1e-12

    def test_scaled_identities_leave_b_unchanged(self):
        rho = product_state(4)
        rho_b = rho.marginal([1]).matrix
        elements = [np.eye(2) / np.sqrt(2), np.eye(2) / np.sqrt(2)]
        probs, conds = apply_povm_elements(rho, elements)
        assert np.allclose(probs, [0.5, 0.5], atol=1e-12)
        for cond in conds:
            assert np.max(np.abs(cond.matrix - rho_b)) < 1e-12

    def test_trine_on_maximally_mixed_a(self):
        rho_b = random_density((2,), 8).matrix
        rho = validate_density(np.kron(np.eye(2) / 2, rho_b), (2, 2))
        probs, _ = apply_povm_elements(rho, trine_povm())
        assert np.allclose(probs, [1.0 / 3.0] * 3, atol=1e-12)

    def test_rejects_incomplete_elements(self):
        rho = random_density((2, 2), 3)
        with pytest.raises(NotResolutionOfIdentity):
            apply_povm_elements(rho, [np.eye(2) / 2, np.eye(2) / 2])


class TestIsInsensitive:
    @pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_extension_is_insensitive(self, p):
        flag, residual = is_insensitive(example_extension(p), example_extension_measurement())
        assert flag
        assert residual < 1e-13

    def test_bell_is_sensitive_to_any_qubit_measurement(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            m = bloch_projectors(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
            flag, residual = is_insensitive(bell_state(), m)
            assert not flag
            assert residual > 0.1

    def test_identity_measurement_changes_nothing(self):
        rho = random_density((2, 2), 55)
        identity = ProjectiveMeasurement((np.eye(2, dtype=complex),))
        flag, residual = is_insensitive(rho, identity)
        assert flag
        assert residual < 1e-15


class TestClassicalStateFixture:
    def test_commuting_variant_is_diagonal_in_marginal_bases(self):
        state = classical_state(11)
        basis_residual = np.linalg.norm(state.witness.assemble() - state.matrix)
        assert basis_residual < 1e-12
