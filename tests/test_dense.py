import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tenslab import (
    DenseTensor,
    Permutation,
    antisym,
    hadamard,
    inner,
    kronecker,
    matricize,
    norm,
    partition_sum,
    permute_modes,
    reshape_tensor,
    slice_tensor,
    sym,
    tensor_product,
    vectorize,
    wedge,
)


class TestDenseTensor:
    def test_storage_is_row_major(self):
        A = DenseTensor.from_flat((2, 3), [1, 2, 3, 4, 5, 6])
        assert A[0, 2] == 3.0
        assert A[1, 0] == 4.0

    def test_entry_is_one_based(self):
        A = DenseTensor.from_flat((2, 2), [1, 2, 3, 4])
        assert A.entry((2, 1)) == 3.0
        with pytest.raises(ValueError):
            A.entry((0, 1))
        with pytest.raises(ValueError):
            A.entry((3, 1))

    def test_value_count_checked(self):
        with pytest.raises(ValueError):
            DenseTensor.from_flat((2, 2), [1, 2, 3])
        with pytest.raises(ValueError):
            DenseTensor.from_flat((), [])


class TestPermutation:
    def test_worked_three_mode_example(self, rng):
        # sigma(a x b x c) = c x a x b for the image (3, 1, 2)
        a, b, c = rng.standard_normal(2), rng.standard_normal(3), rng.standard_normal(4)
        A = tensor_product(tensor_product(a, b), c)
        B = permute_modes(A, (3, 1, 2))
        expected = tensor_product(tensor_product(c, a), b)
        np.testing.assert_allclose(B.data, expected.data, atol=1e-14)
        # entry rule B[k, i, j] = A[i, j, k]
        for i, j, k in itertools.product(range(2), range(3), range(4)):
            assert B[k, i, j] == A[i, j, k]

    def test_identity_is_bitwise_noop(self, rng):
        A = DenseTensor(rng.standard_normal((3, 2, 4)))
        B = permute_modes(A, Permutation.identity(3))
        assert np.array_equal(A.data, B.data)

    def test_inverse_round_trip(self, rng):
        A = DenseTensor(rng.standard_normal((2, 3, 4)))
        sigma = Permutation((2, 3, 1))
        back = permute_modes(permute_modes(A, sigma), sigma.inverse())
        # brute-force entrywise comparison
        for idx in itertools.product(range(2), range(3), range(4)):
            assert back[idx] == A[idx]

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_composition_law(self, data):
        d = data.draw(st.integers(2, 4))
        dims = tuple(data.draw(st.integers(1, 3)) for _ in range(d))
        perm_pool = list(itertools.permutations(range(1, d + 1)))
        sigma = Permutation(data.draw(st.sampled_from(perm_pool)))
        tau = Permutation(data.draw(st.sampled_from(perm_pool)))
        values = data.draw(st.lists(
            st.floats(-10, 10, allow_nan=False), min_size=math.prod(dims),
            max_size=math.prod(dims)))
        A = DenseTensor.from_flat(dims, values)
        lhs = permute_modes(permute_modes(A, tau), sigma)
        rhs = permute_modes(A, sigma.compose(tau))
        assert np.array_equal(lhs.data, rhs.data)

    def test_sign(self):
        assert Permutation((1, 2, 3)).sign() == 1
        assert Permutation((2, 1, 3)).sign() == -1
        assert Permutation((3, 1, 2)).sign() == 1
        # every permutation of up to 5 modes: the determinant of its matrix
        for d in range(1, 6):
            for img in itertools.permutations(range(1, d + 1)):
                P = np.eye(d)[[s - 1 for s in img]]
                assert Permutation(img).sign() == round(np.linalg.det(P))

    def test_length_mismatch_rejected(self, rng):
        A = DenseTensor(rng.standard_normal((2, 2)))
        with pytest.raises(ValueError):
            permute_modes(A, (1, 3, 2))
        with pytest.raises(ValueError):
            Permutation((1, 1, 2))


class TestSlice:
    def test_five_mode_two_fixed(self, rng):
        A = DenseTensor(rng.standard_normal((2, 3, 2, 3, 2)))
        S = slice_tensor(A, (2, 4), (2, 3))
        assert S.dims == (2, 2, 2)
        for i1, i3, i5 in itertools.product(range(2), range(2), range(2)):
            assert S[i1, i3, i5] == A[i1, 1, i3, 2, i5]

    def test_empty_fix_returns_tensor(self, rng):
        A = DenseTensor(rng.standard_normal((2, 3)))
        S = slice_tensor(A, (), ())
        assert np.array_equal(S.data, A.data)

    def test_matrix_row(self):
        A = DenseTensor.from_flat((2, 2), [1, 2, 3, 4])
        row = slice_tensor(A, (1,), (2,))
        np.testing.assert_array_equal(row.data, [3.0, 4.0])

    def test_all_modes_fixed_gives_scalar_wrapper(self):
        A = DenseTensor.from_flat((2, 2), [1, 2, 3, 4])
        S = slice_tensor(A, (1, 2), (2, 1))
        assert S.dims == (1,)
        assert S.values[0] == 3.0

    def test_out_of_range_value(self):
        A = DenseTensor.from_flat((2, 2), [1, 2, 3, 4])
        with pytest.raises(ValueError):
            slice_tensor(A, (1,), (3,))

    @pytest.mark.parametrize("modes, values, named", [
        ((1,), (1.7,), r"fixed_values \(1\.7,\) has a non-integral entry"),
        ((1.9,), (2,), r"fixed_modes \(1\.9,\) has a non-integral entry"),
    ], ids=["value", "mode"])
    def test_fractional_mode_or_value_rejected(self, modes, values, named):
        A = DenseTensor(np.arange(9.0).reshape(3, 3))
        with pytest.raises(ValueError, match=named):
            slice_tensor(A, modes, values)

    def test_integral_floats_and_numpy_ints_accepted(self):
        A = DenseTensor(np.arange(9.0).reshape(3, 3))
        S = slice_tensor(A, (np.int64(1),), (2.0,))
        np.testing.assert_array_equal(S.data, [3.0, 4.0, 5.0])


class TestReshape:
    def test_five_mode_partition(self, rng):
        A = DenseTensor(rng.standard_normal((2, 3, 4, 2, 3)))
        B = reshape_tensor(A, [(1, 2), (3,), (4, 5)])
        assert B.dims == (6, 4, 6)
        assert np.array_equal(B.values, A.values)

    def test_singleton_partition_noop(self, rng):
        A = DenseTensor(rng.standard_normal((2, 3, 4)))
        B = reshape_tensor(A, [(1,), (2,), (3,)])
        assert np.array_equal(B.data, A.data)

    def test_index_arithmetic(self, rng):
        A = DenseTensor(rng.standard_normal((2, 3, 4)))
        B = reshape_tensor(A, [(1, 2), (3,)])
        assert B.dims == (6, 4)
        for i, j, k in itertools.product(range(2), range(3), range(4)):
            assert B[i * 3 + j, k] == A[i, j, k]

    def test_unreshape_round_trip(self, rng):
        A = DenseTensor(rng.standard_normal((2, 3, 4)))
        B = reshape_tensor(A, [(1, 2), (3,)])
        back = DenseTensor.from_flat(A.dims, B.values)
        assert np.array_equal(back.data, A.data)

    def test_bad_partitions_rejected(self, rng):
        A = DenseTensor(rng.standard_normal((2, 3, 4)))
        with pytest.raises(ValueError):
            reshape_tensor(A, [(1, 3), (2,)])     # not consecutive
        with pytest.raises(ValueError):
            reshape_tensor(A, [(1, 2)])           # not covering


class TestMatricize:
    def test_last_mode_shape(self, rng):
        A = DenseTensor(rng.standard_normal((2, 3, 4)))
        M = matricize(A, 3)
        assert M.dims == (6, 4)
        for i, j, k in itertools.product(range(2), range(3), range(4)):
            assert M[i * 3 + j, k] == A[i, j, k]

    def test_order_two_cases(self, rng):
        A = DenseTensor(rng.standard_normal((3, 5)))
        assert np.array_equal(matricize(A, 2).data, A.data)
        assert np.array_equal(matricize(A, 1).data, A.data.T)

    def test_round_trip(self, rng):
        A = DenseTensor(rng.standard_normal((2, 3, 2)))
        M = matricize(A, 2)
        rest = (2, 2)
        back = np.moveaxis(M.data.reshape(rest + (3,)), -1, 1)
        assert np.array_equal(back, A.data)


class TestVecAndProducts:
    def test_vec_matrix(self):
        A = DenseTensor.from_flat((2, 2), [1, 2, 3, 4])
        np.testing.assert_array_equal(vectorize(A).data, [1, 2, 3, 4])

    def test_vec_vector_noop(self, rng):
        v = DenseTensor(rng.standard_normal(5))
        assert np.array_equal(vectorize(v).data, v.data)

    def test_vec_outer_equals_kronecker(self, rng):
        a, b = rng.standard_normal(3), rng.standard_normal(2)
        lhs = vectorize(tensor_product(a, b)).data
        rhs = kronecker(a.reshape(-1, 1), b.reshape(-1, 1)).reshape(-1)
        np.testing.assert_allclose(lhs, rhs, atol=1e-14)

    def test_tensor_product_entries(self, rng):
        x, y = rng.standard_normal(2), rng.standard_normal(3)
        P = tensor_product(x, y)
        assert P.dims == (2, 3)
        np.testing.assert_allclose(P.data, np.outer(x, y), atol=1e-15)

    def test_product_with_scalar_one(self, rng):
        A = DenseTensor(rng.standard_normal((2, 2)))
        P = tensor_product(A, DenseTensor([1.0]))
        assert np.array_equal(P.data.reshape(2, 2), A.data)

    def test_norm_multiplicative(self, rng):
        a, b, c = rng.standard_normal(3), rng.standard_normal(4), rng.standard_normal(2)
        P = tensor_product(tensor_product(a, b), c)
        brute = math.sqrt(sum(
            (a[i] * b[j] * c[k]) ** 2
            for i in range(3) for j in range(4) for k in range(2)))
        assert norm(P) == pytest.approx(brute, rel=1e-13)
        assert norm(P) == pytest.approx(
            np.linalg.norm(a) * np.linalg.norm(b) * np.linalg.norm(c), rel=1e-13)

    def test_hadamard(self):
        A = DenseTensor.from_flat((2, 2), [1, 2, 3, 4])
        B = DenseTensor.from_flat((2, 2), [5, 6, 7, 8])
        np.testing.assert_array_equal(hadamard(A, B).data, [[5, 12], [21, 32]])

    def test_hadamard_ones_identity(self, rng):
        A = DenseTensor(rng.standard_normal((3, 2)))
        assert np.array_equal(hadamard(A, np.ones((3, 2))).data, A.data)

    def test_hadamard_rank_bound_rank_one(self, rng):
        A = np.outer(rng.standard_normal(4), rng.standard_normal(4))
        B = np.outer(rng.standard_normal(4), rng.standard_normal(4))
        s = np.linalg.svd(hadamard(A, B).data, compute_uv=False)
        assert s[1] <= 1e-12 * s[0]

    def test_hadamard_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            hadamard(rng.standard_normal((2, 2)), rng.standard_normal((2, 3)))


class TestInnerAndNorms:
    def test_all_ones_norms(self):
        for n in (1, 4, 9):
            ones = DenseTensor(np.ones(n))
            assert norm(ones, 1) == n
            assert norm(ones, 2) == pytest.approx(math.sqrt(n), rel=1e-15)
            assert norm(ones, np.inf) == 1.0

    def test_zero_tensor(self):
        Z = DenseTensor(np.zeros((2, 3)))
        assert norm(Z, 1) == norm(Z, 2) == norm(Z, np.inf) == 0.0

    def test_uniform_fill_norm_relations(self):
        eps = 2.0 ** -9
        dims = (2, 3, 4)
        N = math.prod(dims)
        A = DenseTensor(np.zeros(dims))
        B = DenseTensor(np.full(dims, eps))
        diff = DenseTensor(B.data - A.data)
        assert norm(diff, np.inf) == eps
        assert norm(diff, 2) == pytest.approx(eps * math.sqrt(N), rel=1e-15)
        assert norm(diff, 1) == pytest.approx(eps * N, rel=1e-15)

    def test_inner_matches_vec_inner(self, rng):
        A = DenseTensor(rng.standard_normal((3, 4)))
        B = DenseTensor(rng.standard_normal((3, 4)))
        assert inner(A, B) == pytest.approx(
            inner(vectorize(A), vectorize(B)), rel=1e-14)
        assert inner(A, B) == pytest.approx(np.trace(A.data.T @ B.data), rel=1e-12)

    def test_norm_of_tensor_product_multiplies(self, rng):
        A = DenseTensor(rng.standard_normal((2, 3)))
        B = DenseTensor(rng.standard_normal((4,)))
        assert norm(tensor_product(A, B)) == pytest.approx(norm(A) * norm(B), rel=1e-13)

    def test_inner_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            inner(rng.standard_normal((2, 2)), rng.standard_normal(4))


class TestSymmetry:
    def test_wedge_two_by_two_display(self, rng):
        a, b = rng.standard_normal(2), rng.standard_normal(2)
        W = wedge(a, b)
        off = (a[0] * b[1] - a[1] * b[0]) / 2
        np.testing.assert_allclose(W.data, [[0.0, off], [-off, 0.0]], atol=1e-15)

    def test_sym_of_symmetric_is_identity(self, rng):
        M = rng.standard_normal((3, 3))
        S = (M + M.T) / 2
        np.testing.assert_allclose(sym(S).data, S, atol=1e-14)

    def test_sym_idempotent_antisym_idempotent(self, rng):
        A = DenseTensor(rng.standard_normal((3, 3, 3)))
        np.testing.assert_allclose(sym(sym(A)).data, sym(A).data, atol=1e-13)
        np.testing.assert_allclose(antisym(antisym(A)).data, antisym(A).data, atol=1e-13)

    def test_antisym_of_cubed_vector_vanishes(self, rng):
        x = rng.standard_normal(3)
        X = tensor_product(tensor_product(x, x), x)
        # sign cancellation over S3, checked against an explicit signed sum
        brute = np.zeros((3, 3, 3))
        for perm, sign in [((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                           ((0, 2, 1), -1), ((1, 0, 2), -1), ((2, 1, 0), -1)]:
            brute += sign * np.transpose(X.data, perm)
        np.testing.assert_allclose(brute / 6.0, 0.0, atol=1e-15)
        np.testing.assert_allclose(antisym(X).data, 0.0, atol=1e-14)

    def test_sym_plus_antisym_matrix(self, rng):
        A = DenseTensor(rng.standard_normal((4, 4)))
        np.testing.assert_allclose(sym(A).data + antisym(A).data, A.data, atol=1e-14)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_bits_of_the_explicit_signed_sum(self, rng, d):
        X = rng.standard_normal((3,) * d)
        plain, signed = np.zeros_like(X), np.zeros_like(X)
        for img in itertools.permutations(range(1, d + 1)):
            axes = [s - 1 for s in img]
            plain += np.transpose(X, axes)
            signed += Permutation(img).sign() * np.transpose(X, axes)
        assert sym(X).data.tobytes() == (plain / math.factorial(d)).tobytes()
        assert antisym(X).data.tobytes() == (signed / math.factorial(d)).tobytes()

    def test_non_cubical_rejected(self, rng):
        with pytest.raises(ValueError):
            sym(rng.standard_normal((2, 3)))


class TestPartitionSum:
    def test_all_ones_cube(self):
        n = 4
        assert partition_sum(np.ones((n, n, n))) == n ** 3

    def test_additive_structure(self, rng):
        n = 6
        f, g, h = rng.standard_normal(n), rng.standard_normal(n), rng.standard_normal(n)
        A = f[:, None, None] + g[None, :, None] + h[None, None, :]
        expected = n * n * (f.sum() + g.sum() + h.sum())
        assert partition_sum(A) == pytest.approx(expected, rel=1e-12)

    def test_against_loop(self, rng):
        A = rng.standard_normal((3, 3, 3))
        brute = sum(A[i, j, k] for i in range(3) for j in range(3) for k in range(3))
        assert partition_sum(A) == pytest.approx(brute, rel=1e-13)

    def test_equals_l1_on_nonnegative(self, rng):
        A = DenseTensor(np.abs(rng.standard_normal((3, 4))))
        assert partition_sum(A) == pytest.approx(norm(A, 1), rel=1e-14)
