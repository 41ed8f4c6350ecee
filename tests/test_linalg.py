import numpy as np
import pytest

from qcorr.errors import DimensionMismatch, NegativeEigenvalue, NotHermitian
from qcorr.linalg import (
    _partial_transpose,
    hermitian_eig,
    matrix_log_on_support,
    partial_trace,
    realign,
    tensor_product,
)

from oracles import phase_fixed_eig_reference

SIGMA_1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_3 = np.array([[1, 0], [0, -1]], dtype=complex)


def random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2


class TestTensorProduct:
    def test_identity_times_identity(self):
        assert np.array_equal(tensor_product(np.eye(2), np.eye(2)), np.eye(4))

    def test_basis_projectors(self):
        p0 = np.diag([1.0, 0.0])
        p1 = np.diag([0.0, 1.0])
        assert np.array_equal(tensor_product(p0, p1), np.diag([0.0, 1.0, 0.0, 0.0]))

    def test_pauli_product_hand_expansion(self):
        # sigma_1 (x) sigma_3 expanded entry by entry
        expected = np.array(
            [
                [0, 0, 1, 0],
                [0, 0, 0, -1],
                [1, 0, 0, 0],
                [0, -1, 0, 0],
            ],
            dtype=complex,
        )
        assert np.array_equal(tensor_product(SIGMA_1, SIGMA_3), expected)


class TestHermitianEig:
    def test_diagonal_input_sorted_ascending(self):
        eig = hermitian_eig(np.diag([3.0, 1.0]).astype(complex))
        assert np.allclose(eig.eigenvalues, [1.0, 3.0])

    def test_rank_one_projector(self):
        eig = hermitian_eig(0.5 * np.ones((2, 2), dtype=complex))
        assert np.allclose(eig.eigenvalues, [0.0, 1.0], atol=1e-14)

    def test_known_map_matrix_spectrum(self):
        b = np.array(
            [[1, 0, 0, 0.5], [0, 0, 0.5, 0], [0, 0.5, 0, 0], [0.5, 0, 0, 1]],
            dtype=complex,
        )
        eig = hermitian_eig(b)
        assert np.allclose(eig.eigenvalues, [-0.5, 0.5, 0.5, 1.5], atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))

    @pytest.mark.parametrize("shape", [(4, 2), (4,)])
    def test_rejects_non_square(self, shape):
        with pytest.raises(DimensionMismatch, match=rf"expected a square matrix, got shape \({shape[0]},"):
            hermitian_eig(np.zeros(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(NotHermitian):
            hermitian_eig(np.array([[bad, 0], [0, 1]], dtype=complex))

    @pytest.mark.parametrize("dim", [2, 3, 4, 6, 8])
    def test_reconstruction_and_unitarity(self, dim):
        for seed in range(5):
            m = random_hermitian(dim, 100 * dim + seed)
            eig = hermitian_eig(m)
            assert np.linalg.norm(eig.reconstruct() - m) < 1e-12
            v = eig.eigenvectors
            assert np.max(np.abs(v.conj().T @ v - np.eye(dim))) < 1e-12
            assert abs(eig.eigenvalues.sum() - m.trace().real) < 1e-10

    def test_deterministic_phase_convention(self):
        m = random_hermitian(4, 7)
        eig = hermitian_eig(m)
        for j in range(4):
            col = eig.eigenvectors[:, j]
            pivot = col[np.argmax(np.abs(col) > 1e-8)]
            assert pivot.real > 0
            assert abs(pivot.imag) < 1e-12

    @pytest.mark.parametrize("dim", range(1, 9))
    def test_phases_match_the_column_by_column_reference_bit_for_bit(self, dim):
        # degenerate inputs give eigenvectors whose leading components are exact zeros
        inputs = [random_hermitian(dim, 900 + 10 * dim + s) for s in range(10)]
        inputs += [np.eye(dim), np.diag(np.arange(dim) % 2), np.ones((dim, dim)) / dim]
        for m in inputs:
            vals, vecs = phase_fixed_eig_reference(np.asarray(m, dtype=complex))
            eig = hermitian_eig(m)
            assert eig.eigenvalues.tobytes() == vals.tobytes() and eig.eigenvectors.tobytes() == vecs.tobytes()


class TestMatrixLogOnSupport:
    def test_identity_maps_to_zero(self):
        assert np.allclose(matrix_log_on_support(np.eye(2, dtype=complex)), 0.0)

    def test_maximally_mixed_qubit(self):
        out = matrix_log_on_support(np.diag([0.5, 0.5]).astype(complex))
        assert np.allclose(out, -np.eye(2))

    def test_scalar_logs_on_diagonal(self):
        out = matrix_log_on_support(np.diag([0.25, 0.75]).astype(complex))
        assert np.allclose(np.diag(out), [-2.0, np.log2(0.75)])

    def test_kernel_contributes_nothing(self):
        out = matrix_log_on_support(np.diag([0.0, 1.0]).astype(complex))
        assert np.allclose(out, 0.0)

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(NegativeEigenvalue):
            matrix_log_on_support(np.diag([1.0, -1.0]).astype(complex))


class TestPartialTrace:
    def test_product_state_factors(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        a = a @ a.conj().T
        a /= a.trace()
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = b @ b.conj().T
        b /= b.trace()
        joint = tensor_product(a, b)
        assert np.allclose(partial_trace(joint, (2, 3), [0]), a, atol=1e-14)
        assert np.allclose(partial_trace(joint, (2, 3), [1]), b, atol=1e-14)

    def test_bell_marginal_is_maximally_mixed(self):
        psi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        rho = np.outer(psi, psi.conj())
        assert np.allclose(partial_trace(rho, (2, 2), [1]), np.eye(2) / 2)

    def test_keep_all_returns_input(self):
        m = random_hermitian(4, 5)
        assert np.array_equal(partial_trace(m, (2, 2), [0, 1]), m)

    def test_trace_preserved(self):
        m = random_hermitian(8, 11)
        assert abs(partial_trace(m, (2, 2, 2), [1]).trace() - m.trace()) < 1e-13

    def test_composition(self):
        m = random_hermitian(8, 13)
        two_step = partial_trace(partial_trace(m, (2, 2, 2), [1, 2]), (2, 2), [1])
        one_step = partial_trace(m, (2, 2, 2), [2])
        assert np.max(np.abs(two_step - one_step)) < 1e-13

    @pytest.mark.parametrize("dims, keep", [((2, 3), [0]), ((2, 2), []), ((2, 2), [2]), ((2, 2), [-1, 0])])
    def test_dimension_mismatch(self, dims, keep):
        with pytest.raises(DimensionMismatch):
            partial_trace(np.eye(4, dtype=complex), dims, keep)

    @pytest.mark.parametrize("matrix, dims", [(np.eye(2), (-1, -2)), (np.eye(1), ())])
    def test_rejects_non_positive_and_empty_dims(self, matrix, dims):
        with pytest.raises(DimensionMismatch):
            partial_trace(matrix, dims, [0])

    @pytest.mark.parametrize("dims", [(1.5, 4), (True, 4), (np.float64(2), 2)])
    def test_rejects_dims_that_are_not_integers(self, dims):
        with pytest.raises(DimensionMismatch):
            partial_trace(np.eye(4), dims, [0])


class TestPartialTranspose:
    def test_transposes_the_b_factor_over_leading_axes(self):
        rng = np.random.default_rng(5)
        a, b = (rng.standard_normal((3, 2, 2, 2)) + 1j * rng.standard_normal((3, 2, 2, 2)) for _ in range(2))
        products = np.array([[np.kron(x, y) for x, y in zip(xs, ys)] for xs, ys in zip(a, b)])
        transposed = np.array([[np.kron(x, y.T) for x, y in zip(xs, ys)] for xs, ys in zip(a, b)])
        assert np.array_equal(_partial_transpose(products), transposed)
        assert np.array_equal(_partial_transpose(products[0, 0]), transposed[0, 0])

    def test_bell_state_has_a_negative_eigenvalue(self):
        bell = np.zeros((4, 4))
        bell[np.ix_([0, 3], [0, 3])] = 0.5
        assert np.allclose(np.linalg.eigvalsh(_partial_transpose(bell)), [-0.5, 0.5, 0.5, 0.5])


class TestRealign:
    def test_identity_map_realigns_to_vec_outer(self):
        vec_identity = np.eye(2, dtype=complex).reshape(-1)
        expected = np.outer(vec_identity, vec_identity)
        assert np.array_equal(realign(np.eye(4, dtype=complex)), expected)

    def test_involution(self):
        rng = np.random.default_rng(17)
        for side in (4, 9):
            m = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
            assert np.array_equal(realign(realign(m)), m)

    def test_rejects_non_square_side(self):
        with pytest.raises(DimensionMismatch):
            realign(np.eye(6, dtype=complex))
