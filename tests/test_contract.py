import numpy as np
import pytest

from tenslab import (
    DenseTensor,
    apply_bilinear,
    contract,
    contract_sequence,
    inner,
    matricize,
    structure_tensor_matvec,
    tensor_product,
)


class TestContract:
    def test_elementary_last_mode(self, rng):
        a, b, c = rng.standard_normal(2), rng.standard_normal(3), rng.standard_normal(4)
        z = rng.standard_normal(4)
        A = tensor_product(tensor_product(a, b), c)
        out = contract(A, z, (3,))
        np.testing.assert_allclose(out.data, np.dot(c, z) * np.outer(a, b), atol=1e-14)

    def test_empty_subset_with_scalar(self, rng):
        A = DenseTensor(rng.standard_normal((2, 3)))
        out = contract(A, DenseTensor([2.0]), ())
        np.testing.assert_allclose(out.data, 2.0 * A.data, atol=1e-15)

    def test_six_modes_against_loop(self, rng):
        A = rng.standard_normal((2, 3, 2, 3, 2, 3))
        X = rng.standard_normal((3, 3, 2))
        out = contract(A, X, (2, 4, 5))
        brute = np.zeros((2, 2, 3))
        for i1 in range(2):
            for i3 in range(2):
                for i6 in range(3):
                    brute[i1, i3, i6] = sum(
                        A[i1, j, i3, l, m, i6] * X[j, l, m]
                        for j in range(3) for l in range(3) for m in range(2))
        np.testing.assert_allclose(out.data, brute, atol=1e-12)

    def test_matrix_vector_case(self, rng):
        M, x = rng.standard_normal((4, 3)), rng.standard_normal(3)
        out = contract(M, x, (2,))
        np.testing.assert_allclose(out.data, M @ x, atol=1e-13)

    def test_all_modes_is_inner(self, rng):
        A = DenseTensor(rng.standard_normal((2, 3, 2)))
        X = DenseTensor(rng.standard_normal((2, 3, 2)))
        out = contract(A, X, (1, 2, 3))
        assert out.dims == (1,)
        assert out.values[0] == pytest.approx(inner(A, X), rel=1e-13)

    def test_matricization_consistency(self, rng):
        # contracting with a basis vector picks a column of the unfolding
        A = DenseTensor(rng.standard_normal((3, 4, 5)))
        M = matricize(A, 3)
        for j in range(5):
            e = np.zeros(5)
            e[j] = 1.0
            col = contract(A, e, (3,))
            np.testing.assert_allclose(col.values, M.data[:, j], atol=1e-14)

    def test_shape_mismatch(self, rng):
        A = DenseTensor(rng.standard_normal((2, 3)))
        with pytest.raises(ValueError):
            contract(A, rng.standard_normal(2), (2,))

    def test_unsorted_modes_rejected(self, rng):
        A = DenseTensor(rng.standard_normal((2, 2, 2)))
        with pytest.raises(ValueError):
            contract(A, rng.standard_normal((2, 2)), (2, 1))


class TestContractSequence:
    def test_hasse_two_paths(self, rng):
        A = DenseTensor(rng.standard_normal((3, 3, 3)))
        x, y = rng.standard_normal(3), rng.standard_normal(3)
        red = contract_sequence(A, [(y, (2,)), (x, (1,))])
        blue = contract_sequence(A, [(x, (1,)), (y, (2,))])
        joint = contract(A, tensor_product(x, y), (1, 2))
        np.testing.assert_allclose(red.data, joint.data, atol=1e-12)
        np.testing.assert_allclose(blue.data, joint.data, atol=1e-12)

    def test_empty_sequence(self, rng):
        A = DenseTensor(rng.standard_normal((2, 2)))
        out = contract_sequence(A, [])
        assert np.array_equal(out.data, A.data)

    def test_order_four_random_paths(self, rng):
        A = DenseTensor(rng.standard_normal((2, 3, 2, 3)))
        X = DenseTensor(rng.standard_normal((3, 3)))
        y = rng.standard_normal(2)
        one = contract_sequence(A, [(X, (2, 4)), (y, (3,))])
        two = contract_sequence(A, [(y, (3,)), (X, (2, 4))])
        np.testing.assert_allclose(one.data, two.data, atol=1e-12)

    def test_overlapping_steps_rejected(self, rng):
        A = DenseTensor(rng.standard_normal((2, 2, 2)))
        y = rng.standard_normal(2)
        with pytest.raises(ValueError):
            contract_sequence(A, [(y, (2,)), (y, (2,))])


class TestStructureTensor:
    def test_matvec_reproduced(self, rng):
        B = structure_tensor_matvec(3, 3)
        for _ in range(5):
            A = rng.standard_normal((3, 3))
            x = rng.standard_normal(3)
            out = apply_bilinear(B, A.reshape(-1), x)
            np.testing.assert_allclose(out.data, A @ x, atol=1e-12)

    def test_rectangular_matvec(self, rng):
        B = structure_tensor_matvec(2, 4)
        A = rng.standard_normal((2, 4))
        x = rng.standard_normal(4)
        np.testing.assert_allclose(
            apply_bilinear(B, A.reshape(-1), x).data, A @ x, atol=1e-12)

    @pytest.mark.parametrize("m, n", [(1, 1), (1, 3), (3, 1), (2, 4), (4, 4)])
    def test_equals_loop_formula(self, m, n):
        ref = np.zeros((m, n, n, m))
        for i in range(m):
            for j in range(n):
                ref[i, j, j, i] = 1.0
        np.testing.assert_array_equal(structure_tensor_matvec(m, n).data,
                                      ref.reshape(m * n, n, m))

    def test_sparsity_count(self):
        B = structure_tensor_matvec(3, 3)
        assert np.count_nonzero(B.data) == 9          # n^2 of n^4 entries

    def test_zero_structure_tensor(self, rng):
        B = DenseTensor(np.zeros((4, 3, 2)))
        out = apply_bilinear(B, rng.standard_normal(4), rng.standard_normal(3))
        np.testing.assert_array_equal(out.data, np.zeros(2))

    def test_bilinearity(self, rng):
        B = DenseTensor(rng.standard_normal((3, 4, 2)))
        x, xp = rng.standard_normal(3), rng.standard_normal(3)
        y = rng.standard_normal(4)
        alpha = 0.37
        lhs = apply_bilinear(B, alpha * x + xp, y)
        rhs = alpha * apply_bilinear(B, x, y).data + apply_bilinear(B, xp, y).data
        np.testing.assert_allclose(lhs.data, rhs, atol=1e-12)

    def test_arity_checked(self, rng):
        B = DenseTensor(rng.standard_normal((3, 4, 2)))
        with pytest.raises(ValueError):
            apply_bilinear(B, rng.standard_normal(3))
