import math
import warnings

import numpy as np
import pytest

from qcorr import (
    apply_povm_elements,
    bell_state,
    bloch_projectors,
    classical_correlated,
    example_extension,
    example_separable,
    measured_mutual_information,
    mutual_information,
    pinch,
    quantumness_upper_bound,
    random_density,
    shannon_entropy,
    shannon_mutual_information,
    validate_density,
)
from qcorr.errors import DimensionMismatch, NotDensity, NotProbability, OutOfRange, QcorrError
from qcorr.linalg import partial_trace
from qcorr.maps import AMap, AssignmentMap, apply_amap, assignment_apply, dual_Q, example_assignment
from qcorr.measurement import ProjectiveMeasurement
from qcorr.states import Ket, SeparableEnsemble, ket

from conftest import classical_state
from oracles import classical_correlated_reference, example_extension_reference, example_separable_reference


class TestValidateDensity:
    def test_maximally_mixed_two_qubits(self):
        state = validate_density(np.eye(4) / 4, (2, 2))
        assert state.dims == (2, 2) and state.dim == 4

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(NotDensity):
            validate_density(np.diag([1.0, -0.2, 0.2, 0.0]), (2, 2))

    @pytest.mark.parametrize("matrix, dims", [(np.eye(4) / 4, (2, 3)), (np.eye(4, 2) / 2, (2, 2))])
    def test_rejects_wrong_dims(self, matrix, dims):
        with pytest.raises(DimensionMismatch):
            validate_density(matrix, dims)

    @pytest.mark.parametrize("matrix, dims", [(np.eye(2) / 2, (-1, -2)), (np.eye(1), ())])
    def test_rejects_non_positive_and_empty_dims(self, matrix, dims):
        # each product matches the matrix side, so only the dims check stands in the way
        with pytest.raises(DimensionMismatch):
            validate_density(matrix, dims)

    @pytest.mark.parametrize("dims", [(1.5, 4), (True, 4), (2.0, 2)])
    def test_rejects_dims_that_are_not_integers(self, dims):
        # int() would truncate 1.5 and True to 1 and return a state with dims (1, 4)
        with pytest.raises(DimensionMismatch):
            validate_density(np.eye(4) / 4, dims)

    def test_accepts_numpy_integer_dims(self):
        state = validate_density(np.eye(4) / 4, np.array([2, 2]))
        assert state.dims == (2, 2) and all(type(d) is int for d in state.dims)

    def test_rejects_dims_whose_product_overflows_int64(self):
        with pytest.raises(DimensionMismatch):
            validate_density(np.eye(2) / 2, (3, 6148914691236517206))

    def test_accepts_expanded_mixture(self):
        # direct expansion of 0.3 |00><00| + 0.7 |++><++|
        expected = np.full((4, 4), 0.7 * 0.25, dtype=complex)
        expected[0, 0] += 0.3
        state = validate_density(expected, (2, 2))
        assert np.allclose(state.matrix, expected, atol=1e-14)
        assert np.allclose(example_separable(0.3).matrix, expected, atol=1e-14)

    @pytest.mark.parametrize("entry, message", [(1e-9, "Hermiticity defect"), (np.nan, "non-finite")])
    def test_rejects_non_hermitian_and_non_finite(self, entry, message):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = entry
        with pytest.raises(NotDensity, match=message):
            validate_density(m, (2, 2))

    def test_measures_the_hermiticity_defect_once(self, monkeypatch):
        from qcorr import linalg, states

        calls = []

        def counted(m):
            calls.append(m)
            return defect(m)

        defect = linalg.hermiticity_defect
        monkeypatch.setattr(linalg, "hermiticity_defect", counted)
        monkeypatch.setattr(states, "hermiticity_defect", counted)
        validate_density(np.diag([1.0 + 5e-11, -5e-11, 0.0, 0.0]), (2, 2))
        assert len(calls) == 1

    def test_clips_tiny_negative_eigenvalues(self):
        m = np.diag([1.0 + 5e-11, -5e-11, 0.0, 0.0])
        state = validate_density(m, (2, 2))
        vals = np.linalg.eigvalsh(state.matrix)
        assert vals.min() >= 0.0
        assert abs(state.matrix.trace() - 1.0) < 1e-14


class TestExampleSeparable:
    def test_p_one_is_zz_projector(self):
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 1.0
        assert np.allclose(example_separable(1.0).matrix, expected, atol=1e-15)

    def test_p_zero_is_plus_plus_projector(self):
        assert np.allclose(example_separable(0.0).matrix, np.full((4, 4), 0.25), atol=1e-15)

    def test_half_mixture_entries(self):
        m = example_separable(0.5).matrix
        assert abs(m[0, 0] - 0.625) < 1e-15
        for col in (1, 2, 3):
            assert abs(m[0, col] - 0.125) < 1e-15

    def test_range_check(self):
        with pytest.raises(OutOfRange):
            example_separable(1.5)

    @pytest.mark.parametrize("build", [example_separable, example_extension])
    @pytest.mark.parametrize("p", [True, False, np.True_, math.nan])
    def test_mixing_weight_must_be_a_number_in_range(self, build, p):
        # True would otherwise build p = 1, and False p = 0
        with pytest.raises(OutOfRange):
            build(p)


class TestExampleExtension:
    def test_p_one_is_basis_projector(self):
        m = example_extension(1.0).matrix
        expected = np.zeros((8, 8), dtype=complex)
        expected[4, 4] = 1.0  # |1 0 0> in row-major three-qubit indexing
        assert np.allclose(m, expected, atol=1e-15)

    def test_p_zero_is_zero_plus_plus(self):
        m = example_extension(0.0).matrix
        amp = np.zeros(8, dtype=complex)
        amp[:4] = 0.5
        assert np.allclose(m, np.outer(amp, amp), atol=1e-15)

    @pytest.mark.parametrize("p", np.linspace(0.0, 1.0, 11))
    def test_marginal_identity(self, p):
        ext = example_extension(p)
        reduced = partial_trace(ext.matrix, ext.dims, [1, 2])
        assert np.max(np.abs(reduced - example_separable(p).matrix)) < 1e-14


class TestClassicalCorrelated:
    def test_degenerate_weight_skipped(self):
        z_basis = bloch_projectors(0.0, 0.0)
        state = classical_correlated([1.0, 0.0], z_basis, [np.eye(2) / 2, np.eye(2) / 2])
        assert np.allclose(state.matrix, np.diag([0.5, 0.5, 0.0, 0.0]), atol=1e-14)
        assert len(state.witness.weights) == 1

    def test_perfectly_correlated_diagonal(self):
        z_basis = bloch_projectors(0.0, 0.0)
        taus = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        state = classical_correlated([0.5, 0.5], z_basis, taus)
        assert np.allclose(state.matrix, np.diag([0.5, 0.0, 0.0, 0.5]), atol=1e-14)

    @pytest.mark.parametrize("seed", range(6))
    def test_zero_discord_at_building_measurement(self, seed):
        rng = np.random.default_rng(seed)
        theta, phi = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
        basis = bloch_projectors(theta, phi)
        taus = [random_density((2,), seed + 50 + i).matrix for i in range(2)]
        q0 = rng.uniform(0.1, 0.9)
        state = classical_correlated([q0, 1 - q0], basis, taus)
        assert np.linalg.norm(pinch(state, basis).matrix - state.matrix) < 1e-12
        gap = mutual_information(state) - measured_mutual_information(state, basis)
        assert abs(gap) < 1e-10

    def test_weight_validation(self):
        z_basis = bloch_projectors(0.0, 0.0)
        with pytest.raises(NotProbability):
            classical_correlated([0.6, 0.6], z_basis, [np.eye(2) / 2, np.eye(2) / 2])

    def test_rank_two_projectors_weigh_by_trace(self):
        # Two rank-2 projectors on a 4-dim A: the term traces 2 q_a must sum to 1.
        halves = [np.diag([1.0, 1.0, 0.0, 0.0]), np.diag([0.0, 0.0, 1.0, 1.0])]
        taus = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        state = classical_correlated([0.2, 0.3], halves, taus)
        assert abs(state.matrix.trace().real - 1.0) < 1e-12
        assert np.allclose(state.witness.weights, [0.4, 0.6])
        assert np.linalg.norm(state.witness.assemble() - state.matrix) < 1e-12
        with pytest.raises(NotProbability):
            classical_correlated([0.4, 0.6], halves, taus)

    def test_count_mismatch(self):
        z_basis = bloch_projectors(0.0, 0.0)
        with pytest.raises(DimensionMismatch):
            classical_correlated([1.0], z_basis, [np.eye(2) / 2, np.eye(2) / 2])

    @pytest.mark.parametrize("second", [np.eye(3) / 3, np.full((2, 4), 0.25)], ids=["3x3", "2x4"])
    def test_b_states_of_unequal_or_non_square_shape(self, second):
        with pytest.raises(DimensionMismatch):
            classical_correlated([0.5, 0.5], bloch_projectors(0.0, 0.0), [np.eye(2) / 2, second])

    @pytest.mark.parametrize(
        "weights, taus",
        [
            # The sum is the valid |00><00|, but the witness would carry factors of trace 2 and 0.
            ([0.5, 0.5], [np.diag([2.0, 0.0]), np.zeros((2, 2))]),
            ([1.0, 0.0], [np.eye(2) / 2, np.diag([1.5, -0.5])]),
            ([1.0, 0.0], [np.eye(2) / 2, np.array([[0.5, 0.5], [0.0, 0.5]])]),
            ([1.0, 0.0], [np.eye(2) / 2, np.diag([np.nan, 1.0])]),
        ],
        ids=["traces-2-and-0", "negative-eigenvalue-at-zero-weight", "not-hermitian-at-zero-weight", "non-finite"],
    )
    def test_b_states_that_are_not_density_matrices(self, weights, taus):
        with pytest.raises(NotDensity):
            classical_correlated(weights, bloch_projectors(0.0, 0.0), taus)

    def test_witness_reassembles_state(self):
        state = classical_state(3)
        assert np.linalg.norm(state.witness.assemble() - state.matrix) < 1e-12


_PINNED_P = [0.0, 1e-13, 1e-12, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0 - 1e-13, 1.0]
_PINNED_P += [float(p) for p in np.random.default_rng(23).uniform(size=20)]


def _classical_correlated_inputs(seed):
    """Seeded weights, projectors and B states for :func:`classical_correlated`.

    The projector ranks cycle through (1, 1), (2, 1, 1) on a 4-dim A, (1, 2)
    and (2, 2); every fifth input has a zero-weight term.
    """
    rng = np.random.default_rng(seed)
    ranks = [(1, 1), (2, 1, 1), (1, 2), (2, 2)][seed % 4]
    d = sum(ranks)
    u = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
    edges = np.cumsum((0,) + ranks)
    projectors = [u[:, lo:hi] @ u[:, lo:hi].conj().T for lo, hi in zip(edges[:-1], edges[1:])]
    traces = rng.dirichlet(np.ones(len(ranks)))
    if seed % 5 == 0:
        traces[0] = 0.0
        traces /= traces.sum()
    states = [random_density((2,), int(s)).matrix for s in rng.integers(0, 2**20, len(ranks))]
    return traces / np.array(ranks), projectors, states


class TestSeparableBuildersFromTheirWitness:
    """The separable builders assemble each state from the witness it carries."""

    @pytest.mark.parametrize("p", _PINNED_P)
    def test_example_matrices_match_the_written_out_mixture(self, p):
        assert np.array_equal(example_separable(p).matrix, example_separable_reference(p).matrix)
        assert np.array_equal(example_extension(p).matrix, example_extension_reference(p).matrix)

    @pytest.mark.parametrize("p", _PINNED_P)
    def test_example_witness_reassembles_its_state(self, p):
        state = example_separable(p)
        assert np.max(np.abs(state.witness.assemble() - state.matrix)) <= 1e-15

    @pytest.mark.parametrize("p", _PINNED_P)
    def test_ancilla_trace_of_the_extension_is_the_example(self, p):
        ext = example_extension(p)
        reduced = partial_trace(ext.matrix, ext.dims, [1, 2])
        assert np.max(np.abs(reduced - example_separable(p).matrix)) <= 1e-15

    @pytest.mark.parametrize("seed", range(20))
    def test_classical_correlated_matches_the_term_by_term_sum(self, seed):
        inputs = _classical_correlated_inputs(seed)
        state, reference = classical_correlated(*inputs), classical_correlated_reference(*inputs)
        assert state.dims == reference.dims
        # A projector trace a few ulps off a power of two moves the last bit of q_a Tr P_a
        assert np.max(np.abs(state.matrix - reference.matrix)) <= 2 * np.finfo(float).eps
        assert np.max(np.abs(state.witness.assemble() - state.matrix)) <= 1e-15
        assert np.array_equal(state.witness.weights, reference.witness.weights)

    def test_density_matrix_factors_are_stored_as_arrays(self):
        a_states = (random_density((2,), 1), random_density((2,), 2))
        b_states = (random_density((2,), 3), random_density((2,), 4))
        from_states = SeparableEnsemble(np.array([0.25, 0.75]), a_states, b_states)
        from_matrices = SeparableEnsemble(
            np.array([0.25, 0.75]), tuple(a.matrix for a in a_states), tuple(b.matrix for b in b_states)
        )
        assert all(type(f) is np.ndarray for f in (*from_states.a_states, *from_states.b_states))
        assert np.array_equal(from_states.assemble(), from_matrices.assemble())


class TestRandomDensity:
    def test_deterministic(self):
        assert np.array_equal(random_density((2, 2), 42).matrix, random_density((2, 2), 42).matrix)

    def test_output_is_valid(self):
        for seed in range(10):
            state = random_density((2, 2), seed)
            validate_density(state.matrix, state.dims)

    def test_seed_sweep_unit_trace(self):
        for seed in range(100):
            assert abs(random_density((2, 2), seed).matrix.trace() - 1.0) < 1e-12

    def test_dimension_cap(self):
        with pytest.raises(DimensionMismatch):
            random_density((4, 4), 0)

    @pytest.mark.parametrize("dims", [(1.5, 2), (True, 2), (0, 2)])
    def test_rejects_dims_that_are_not_positive_integers(self, dims):
        with pytest.raises(DimensionMismatch):
            random_density(dims, 0)

    @pytest.mark.parametrize("seed", [None, True, -1, 1.5, "1"])
    def test_rejects_seeds_that_are_not_non_negative_integers(self, seed):
        # None would draw fresh entropy, True would act as 1, and numpy's own
        # errors for -1 and 1.5 are not QcorrErrors
        with pytest.raises(OutOfRange):
            random_density((2, 2), seed)

    def test_accepts_numpy_integer_seeds(self):
        assert np.array_equal(random_density((2, 2), np.int64(7)).matrix, random_density((2, 2), 7).matrix)


class TestKet:
    def test_rejects_unnormalized(self):
        with pytest.raises(NotDensity):
            Ket(np.array([1.0, 1.0]))

    def test_helper_normalizes(self):
        k = ket(1, 1)
        assert k.dim == 2
        assert abs(np.linalg.norm(k.amplitudes) - 1.0) < 1e-15
        assert np.allclose(k.projector(), 0.5 * np.ones((2, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_validate_rejects_non_finite_entries(bad):
    m = np.eye(4, dtype=complex) / 4
    m[0, 1] = m[1, 0] = bad
    with pytest.raises(NotDensity):
        validate_density(m, (2, 2))


_NAN_2X2 = np.full((2, 2), math.nan, dtype=complex)
_MIXED = np.eye(2, dtype=complex) / 2


class TestSeparableEnsemble:
    @pytest.mark.parametrize(
        "weights, a_states, b_states",
        [
            ([0.5, 0.5], (_MIXED,), (_MIXED,)),
            ([1.0], (_MIXED, _MIXED), (_MIXED, _MIXED)),
            ([0.5, 0.5], (_MIXED, _MIXED), (_MIXED,)),
            ([[0.5, 0.5]], (_MIXED, _MIXED), (_MIXED, _MIXED)),
        ],
        ids=["more-weights", "more-factors", "fewer-b-factors", "2-d-weights"],
    )
    def test_counts_must_agree(self, weights, a_states, b_states):
        with pytest.raises(DimensionMismatch):
            SeparableEnsemble(np.array(weights), a_states, b_states)


def _nan_basis_assignment():
    am = example_assignment()
    return AssignmentMap((_NAN_2X2,) + am.basis[1:], am.assigned)


def _nan_witness_bound():
    witness = SeparableEnsemble(np.array([1.0]), (_NAN_2X2,), (_MIXED,))
    return quantumness_upper_bound(validate_density(np.eye(4) / 4, (2, 2), witness=witness))


@pytest.mark.parametrize(
    "build",
    [
        lambda: shannon_entropy([math.nan, 1.0]),
        lambda: shannon_mutual_information([[math.nan, 0.5], [0.25, 0.25]]),
        lambda: Ket(np.array([math.nan, 1.0])),
        lambda: ket(0, 0),
        lambda: ket(math.nan, 1),
        lambda: SeparableEnsemble(np.array([math.nan]), (_MIXED,), (_MIXED,)),
        lambda: SeparableEnsemble(np.array([1.0]), (_NAN_2X2,), (_MIXED,)),
        lambda: SeparableEnsemble(np.array([1.0]), (_MIXED,), (np.full((2, 2), math.inf, dtype=complex),)),
        lambda: classical_correlated([math.nan, 1.0], bloch_projectors(0.0, 0.0), [_MIXED, _MIXED]),
        lambda: ProjectiveMeasurement((_NAN_2X2, _NAN_2X2)),
        lambda: bloch_projectors(math.nan, 0.0),
        lambda: bloch_projectors(math.inf, 0.0),
        lambda: apply_povm_elements(bell_state(), [_NAN_2X2, _NAN_2X2]),
        _nan_basis_assignment,
        lambda: dual_Q((_NAN_2X2,) * 4),
        _nan_witness_bound,
        lambda: apply_amap(AMap(2, np.eye(4, dtype=complex)), _NAN_2X2),
        lambda: assignment_apply(example_assignment(), _NAN_2X2),
    ],
    ids=[
        "shannon_entropy", "shannon_mutual_information", "Ket", "ket-zero", "ket-nan",
        "SeparableEnsemble", "SeparableEnsemble-nan-factor", "SeparableEnsemble-inf-factor",
        "classical_correlated", "ProjectiveMeasurement", "bloch_projectors",
        "bloch_projectors-inf", "apply_povm_elements", "AssignmentMap", "dual_Q", "quantumness_upper_bound-witness",
        "apply_amap", "assignment_apply",
    ],
)
def test_nan_input_raises_without_warning(build):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(QcorrError):
            build()
