import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import tenslab.cp

from tenslab import (
    ALSOptions,
    CPDecomposition,
    DenseTensor,
    best_rank_one,
    border_rank_demo,
    cp_als,
    cp_rank_lower_bound,
    cp_reconstruct,
    hyperdeterminant_222,
    inner,
    norm,
    permute_modes,
    rank222_classify,
    tensor_product,
)
from tenslab.cp import BOUNDARY, RANK2, RANK3


def random_cp(rng, dims, r):
    factors = [rng.standard_normal((n, r)) for n in dims]
    return CPDecomposition.from_factors(factors, rng.uniform(0.5, 2.0, r))


class TestCPDecomposition:
    def test_columns_are_unit(self, rng):
        cp = random_cp(rng, (3, 4, 2), 3)
        for X in cp.factors:
            np.testing.assert_allclose(np.linalg.norm(X, axis=0), 1.0, atol=1e-10)

    def test_basis_term(self):
        factors = [np.array([[1.0], [0.0]]) for _ in range(3)]
        cp = CPDecomposition(np.array([1.0]), factors)
        out = cp_reconstruct(cp)
        expected = np.zeros((2, 2, 2))
        expected[0, 0, 0] = 1.0
        np.testing.assert_array_equal(out.data, expected)

    def test_non_unit_columns_rejected(self, rng):
        X = 2.0 * np.linalg.qr(rng.standard_normal((4, 2)))[0]
        with pytest.raises(ValueError, match="unit-norm"):
            CPDecomposition(np.ones(2), [X, X.copy(), X.copy()])

    def test_reconstruct_matches_loop(self, rng):
        cp = random_cp(rng, (3, 3, 3), 2)
        brute = np.zeros((3, 3, 3))
        for a in range(2):
            brute += cp.weights[a] * np.einsum(
                "i,j,k->ijk", cp.factors[0][:, a], cp.factors[1][:, a],
                cp.factors[2][:, a])
        np.testing.assert_allclose(cp_reconstruct(cp).data, brute, atol=1e-12)


def from_factors_loop(factors, weights):
    """Column-at-a-time reference for ``CPDecomposition.from_factors``."""
    mats = [np.array(X, dtype=np.float64) for X in factors]
    w = np.array(weights, dtype=np.float64)
    for X in mats:
        norms = np.linalg.norm(X, axis=0)
        for a in range(X.shape[1]):
            if norms[a] > 0:
                X[:, a] /= norms[a]
                w[a] *= norms[a]
            else:
                w[a] = 0.0
                X[:, a] = 0.0
                X[0, a] = 1.0
    return w, mats


class TestFromFactors:
    def test_bitwise_equal_to_column_loop(self, rng):
        factors = [rng.standard_normal((n, 6)) for n in (3, 4, 5)]
        factors[0][:, 1] = 0.0
        factors[1][:, 2] = 0.0
        factors[2][:, 2] = 0.0
        factors[2][:, 4] = 0.0
        weights = np.array([1.5, -2.0, -0.5, 3.0, -1.0, -4.0])
        cp = CPDecomposition.from_factors(factors, weights)
        w, mats = from_factors_loop(factors, weights)
        assert cp.weights.tobytes() == w.tobytes()
        assert all(X.tobytes() == Y.tobytes() for X, Y in zip(cp.factors, mats))
        # zero columns under negative weights become e_1 with weight +0.0
        assert not np.signbit(cp.weights[[1, 2, 4]]).any()
        for mu, a in [(0, 1), (1, 2), (2, 2), (2, 4)]:
            np.testing.assert_array_equal(cp.factors[mu][:, a], np.eye(len(factors[mu]))[0])

    def test_inputs_are_not_modified(self, rng):
        factors = [rng.standard_normal((3, 2)) for _ in range(3)]
        weights = np.array([2.0, -1.0])
        copies = [X.copy() for X in factors], weights.copy()
        CPDecomposition.from_factors(factors, weights)
        assert all(np.array_equal(X, Y) for X, Y in zip(factors, copies[0]))
        assert np.array_equal(weights, copies[1])

    @pytest.mark.parametrize("factors, shapes", [
        ([np.ones((3, 2)), np.ones((4, 1))], r"\(3, 2\), \(4, 1\)"),
        ([np.ones((3, 2)), np.ones(3)], r"\(3, 2\), \(3,\)"),
        ([np.zeros((0, 2)), np.ones((3, 2))], r"\(0, 2\), \(3, 2\)"),
        ([], r"\[\]"),
    ])
    def test_malformed_factor_lists_name_the_shapes(self, factors, shapes):
        with pytest.raises(ValueError, match=shapes):
            CPDecomposition.from_factors(factors)


class TestCPALS:
    def test_exact_rank_one(self, rng):
        x, y, z = rng.standard_normal(4), rng.standard_normal(3), rng.standard_normal(5)
        A = tensor_product(tensor_product(x, y), z)
        cp, trace = cp_als(A, 1, ALSOptions(max_sweeps=5, seed=0))
        assert trace.final <= 1e-10 * norm(A) ** 2
        assert len(trace.per_sweep) <= 5

    def test_zero_tensor(self):
        A = DenseTensor(np.zeros((2, 3, 2)))
        cp, trace = cp_als(A, 2, ALSOptions(max_sweeps=3, seed=1))
        assert trace.final == 0.0
        np.testing.assert_array_equal(cp.weights, np.zeros(2))

    def test_zero_tensor_stops_after_one_sweep(self):
        # the decrease 0 - 0 is never below rel_tol * 0; a zero objective stops
        _, trace = cp_als(np.zeros((3, 3, 3)), 2, ALSOptions(seed=0))
        assert trace.per_sweep == [0.0]

    @given(dims=st.lists(st.integers(2, 4), min_size=2, max_size=4),
           r=st.integers(1, 4), seed=st.integers(0, 2 ** 16))
    def test_gram_objective_matches_dense_residual(self, dims, r, seed):
        A = DenseTensor(np.random.default_rng(seed).standard_normal(dims))
        cp, trace = cp_als(A, r, ALSOptions(max_sweeps=4, seed=seed))
        dense = norm(DenseTensor(A.data - cp_reconstruct(cp).data)) ** 2
        assert abs(trace.final - dense) <= 1e-10 * norm(A) ** 2

    def test_objective_does_not_densify_in_the_loop(self, rng, monkeypatch):
        calls = []
        original = tenslab.cp.cp_product

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(tenslab.cp, "cp_product", counting)
        A = DenseTensor(rng.standard_normal((5, 4, 3)))
        _, trace = cp_als(A, 2, ALSOptions(max_sweeps=10, rel_tol=0.0, seed=1))
        # a noise tensor stays far above the guard: only the initial objective
        assert min(trace.per_block) > 1e-2 * norm(A) ** 2
        assert len(calls) <= 1

    def test_lafon_tensor_rank_n(self):
        # two frontal slices with a real-diagonalizable pencil: rank = n
        local = np.random.default_rng(7)
        n = 3
        A1 = np.linalg.qr(local.standard_normal((n, n)))[0] * 2.0
        Q = np.linalg.qr(local.standard_normal((n, n)))[0]
        A2 = A1 @ (Q @ np.diag([0.5, 1.0, 2.0]) @ Q.T)
        A = np.stack([A1, A2], axis=2)

        # oracle: explicit rank-n construction from the eigen decomposition
        evals, U = np.linalg.eig(np.linalg.solve(A1, A2))
        assert np.allclose(evals.imag, 0.0)
        Ustar = np.linalg.inv(U.real).T
        explicit = np.zeros_like(A)
        for i in range(n):
            explicit += np.einsum("i,j,k->ijk", A1 @ U.real[:, i], Ustar[:, i],
                                  np.array([1.0, evals.real[i]]))
        assert np.linalg.norm(explicit - A) <= 1e-12 * np.linalg.norm(A)

        # multi-start ALS: the rank-n model is attainable to high accuracy
        best = math.inf
        for seed in range(3):
            _, trace = cp_als(A, n, ALSOptions(max_sweeps=300, rel_tol=0.0, seed=seed))
            best = min(best, math.sqrt(trace.final))
        assert best <= 1e-6 * np.linalg.norm(A)

    def test_objective_monotone_per_block(self, rng):
        A = DenseTensor(rng.standard_normal((4, 4, 4)))
        _, trace = cp_als(A, 3, ALSOptions(max_sweeps=20, seed=3))
        slack = 1e-10 * norm(A) ** 2
        values = [trace.initial] + trace.per_block
        assert all(b <= a + slack for a, b in zip(values, values[1:]))

    def test_rank_deficient_gram_takes_pseudo_inverse(self, rng):
        # a rank-3 fit of a rank-1 tensor makes the Gram matrices singular
        x, y, z = (rng.standard_normal(4) for _ in range(3))
        A = tensor_product(tensor_product(x, y), z)
        slack = 1e-10 * norm(A) ** 2
        for seed in range(30):
            _, trace = cp_als(A, 3, ALSOptions(seed=seed))
            assert trace.flagged_sweeps
            values = [trace.initial] + trace.per_block
            assert all(b <= a + slack for a, b in zip(values, values[1:]))

    def test_fit_no_worse_than_init(self, rng):
        A = DenseTensor(rng.standard_normal((4, 4, 4)))
        _, trace = cp_als(A, 2, ALSOptions(max_sweeps=10, seed=5))
        assert trace.final <= trace.initial

    def test_scale_equivariance(self, rng):
        A = DenseTensor(rng.standard_normal((3, 3, 3)))
        c = 3.5
        opts = ALSOptions(max_sweeps=7, rel_tol=0.0, seed=11)
        cp1, _ = cp_als(A, 2, opts)
        cp2, _ = cp_als(DenseTensor(c * A.data), 2, opts)
        np.testing.assert_allclose(cp2.weights, c * cp1.weights, rtol=1e-8)
        for X1, X2 in zip(cp1.factors, cp2.factors):
            signs = np.sign(np.sum(X1 * X2, axis=0))
            np.testing.assert_allclose(X2 * signs, X1, atol=1e-8)

    def test_invalid_inputs(self, rng):
        with pytest.raises(ValueError):
            cp_als(rng.standard_normal((2, 2)), 0)
        bad = np.full((2, 2), np.nan)
        with pytest.raises(ValueError):
            cp_als(bad, 1)

    def test_hosvd_init(self, rng):
        A = DenseTensor(rng.standard_normal((4, 4, 4)))
        cp, trace = cp_als(A, 2, ALSOptions(max_sweeps=10, seed=0, init="hosvd"))
        assert trace.final <= trace.initial


class TestBestRankOne:
    def test_exact_rank_one_scaled(self, rng):
        u = rng.standard_normal(3)
        v = rng.standard_normal(4)
        w = rng.standard_normal(2)
        for vec in (u, v, w):
            vec /= np.linalg.norm(vec)
        A = 2.0 * tensor_product(tensor_product(u, v), w).data
        alpha, xs = best_rank_one(A, ALSOptions(max_sweeps=100, rel_tol=1e-14, seed=0))
        assert abs(abs(alpha) - 2.0) <= 1e-10
        model = alpha * np.einsum("i,j,k->ijk", *xs)
        np.testing.assert_allclose(model, A, atol=1e-9)

    def test_matrix_case_gives_leading_pair(self, rng):
        M = rng.standard_normal((5, 4))
        alpha, xs = best_rank_one(M, ALSOptions(max_sweeps=300, rel_tol=1e-15, seed=1))
        s = np.linalg.svd(M, compute_uv=False)
        assert abs(abs(alpha) - s[0]) <= 1e-10 * s[0]

    def test_objective_identity(self, rng):
        A = DenseTensor(rng.standard_normal((3, 3, 3)))
        alpha, xs = best_rank_one(A, ALSOptions(max_sweeps=50, rel_tol=1e-14, seed=2))
        T = alpha * np.einsum("i,j,k->ijk", *xs)
        lhs = np.linalg.norm(A.data - T) ** 2
        ip = inner(A, np.einsum("i,j,k->ijk", *xs))
        rhs = norm(A) ** 2 + alpha ** 2 - 2 * alpha * ip
        assert lhs == pytest.approx(rhs, rel=1e-10)
        # at a fixed point alpha = <A, x1 x x2 x x3> so the error collapses
        assert lhs == pytest.approx(norm(A) ** 2 - alpha ** 2, rel=1e-8)

    def test_zero_tensor_rejected(self):
        with pytest.raises(ValueError):
            best_rank_one(np.zeros((2, 2)))


class TestBestRankOneSharesTheALSContract:
    @pytest.fixture
    def spy(self, monkeypatch):
        """Count contractions and record what every ``end_sweep`` returned."""
        seen = {"contractions": 0, "stops": []}
        contract, end_sweep = tenslab.cp._contract_except, tenslab.cp.ALSTrace.end_sweep

        def counting(*args):
            seen["contractions"] += 1
            return contract(*args)

        def recording(self, *args):
            seen["stops"].append(end_sweep(self, *args))
            return seen["stops"][-1]

        monkeypatch.setattr(tenslab.cp, "_contract_except", counting)
        monkeypatch.setattr(tenslab.cp.ALSTrace, "end_sweep", recording)
        return seen

    @staticmethod
    def planted(rng, n=8, r=3):
        # collinear planted factors, as in the cp-fit benchmark input
        mix = np.linalg.cholesky(0.2 * np.eye(r) + 0.8 * np.ones((r, r))).T
        factors = [np.linalg.qr(rng.standard_normal((n, r)))[0] @ mix for _ in range(3)]
        A = np.einsum("ia,ja,ka->ijk", *factors)
        return A + 0.01 * np.linalg.norm(A) * rng.standard_normal(A.shape) / n ** 1.5

    @pytest.mark.parametrize("seed", range(4))
    def test_zero_tolerance_runs_every_sweep(self, spy, seed):
        A = self.planted(np.random.default_rng(seed))
        alpha, xs = best_rank_one(A, ALSOptions(max_sweeps=10, rel_tol=0.0, seed=seed))
        assert spy["stops"] == [False] * 10
        # one contraction for the start, then one per vector update
        assert spy["contractions"] == 1 + 3 * 10
        assert alpha == pytest.approx(np.einsum("ijk,i,j,k->", A, *xs), rel=1e-12)

    def test_positive_tolerance_stops_where_the_trace_says(self, spy, rng):
        A = self.planted(rng)
        best_rank_one(A, ALSOptions(max_sweeps=100, rel_tol=1e-10, seed=3))
        sweeps = len(spy["stops"])
        assert 1 < sweeps < 100
        assert spy["stops"] == [False] * (sweeps - 1) + [True]
        assert spy["contractions"] == 1 + 3 * sweeps

    def test_hosvd_start_on_a_matrix_is_the_leading_singular_pair(self, rng):
        M = rng.standard_normal((6, 4))
        U, s, Vt = np.linalg.svd(M)
        opts = ALSOptions(max_sweeps=1, init="hosvd")
        start = tenslab.cp._init_factors(DenseTensor(M), 1, opts)
        for X, exact in zip(start, (U[:, 0], Vt[0])):
            assert abs(X[:, 0] @ exact) == pytest.approx(1.0, abs=1e-12)
        alpha, (x, y) = best_rank_one(M, opts)
        assert alpha == pytest.approx(s[0], rel=1e-12)
        assert abs(x @ U[:, 0]) == pytest.approx(1.0, abs=1e-12)
        assert abs(y @ Vt[0]) == pytest.approx(1.0, abs=1e-12)


def tensor_from_slices(A1, A2):
    return DenseTensor(np.stack([np.asarray(A1, float), np.asarray(A2, float)], axis=2))


class TestHyperdeterminant:
    def test_rotation_slices(self):
        A = tensor_from_slices(np.eye(2), [[0.0, -1.0], [1.0, 0.0]])
        assert hyperdeterminant_222(A) == -4.0

    def test_zero_tensor(self):
        assert hyperdeterminant_222(np.zeros((2, 2, 2))) == 0.0

    def test_diagonal_slices(self, rng):
        for lam1, lam2 in [(1.0, 2.0), (-0.5, 0.25), (3.0, 3.0)]:
            A = tensor_from_slices(np.eye(2), np.diag([lam1, lam2]))
            assert hyperdeterminant_222(A) == pytest.approx((lam1 - lam2) ** 2,
                                                            abs=1e-14)

    def test_wrong_shape(self, rng):
        with pytest.raises(ValueError):
            hyperdeterminant_222(rng.standard_normal((2, 2, 3)))


class TestRank222Classify:
    def test_fixture_classes(self):
        rot = tensor_from_slices(np.eye(2), [[0.0, -1.0], [1.0, 0.0]])
        dia = tensor_from_slices(np.eye(2), np.diag([1.0, 2.0]))
        assert rank222_classify(rot) == RANK3
        assert rank222_classify(dia) == RANK2
        assert rank222_classify(np.zeros((2, 2, 2))) == BOUNDARY

    def test_both_classes_occur(self, rng):
        seen = {RANK2: 0, RANK3: 0}
        for _ in range(400):
            A = rng.standard_normal((2, 2, 2))
            A /= np.linalg.norm(A)
            cls = rank222_classify(A)
            if cls in seen:
                seen[cls] += 1
        assert seen[RANK2] > 40 and seen[RANK3] > 40

    @given(st.lists(st.floats(0.25, 4.0) | st.floats(-4.0, -0.25) | st.just(0.0),
                    min_size=8, max_size=8),
           st.integers(-1000, 1000))
    def test_invariant_under_scaling_by_a_power_of_two(self, entries, k):
        # entries stay normal floats after scaling, so 2**k multiplies exactly
        A = np.reshape(entries, (2, 2, 2))
        assert rank222_classify(np.ldexp(A, k)) == rank222_classify(A)

    def test_invariant_under_mode_permutation(self, rng):
        import itertools
        for _ in range(20):
            A = DenseTensor(rng.standard_normal((2, 2, 2)))
            classes = {rank222_classify(permute_modes(A, perm))
                       for perm in itertools.permutations((1, 2, 3))}
            assert len(classes) == 1


class TestRankLowerBound:
    def test_cubical_table(self):
        assert cp_rank_lower_bound((2, 2, 2)) == 2
        assert cp_rank_lower_bound((4, 4, 4)) == 7
        assert cp_rank_lower_bound((9, 9, 9)) == 30

    def test_matrix_sanity(self):
        for n in range(2, 12):
            assert cp_rank_lower_bound((n, n)) == math.ceil(n * n / (2 * n - 1))
            assert cp_rank_lower_bound((n, n)) <= n

    def test_general_order(self):
        assert cp_rank_lower_bound((2, 2, 2, 2)) == math.ceil(16 / 5)


class TestBorderRank:
    def make_pairs(self, rng, n=3):
        xs = [rng.standard_normal(n) for _ in range(3)]
        ys = [rng.standard_normal(n) for _ in range(3)]
        return xs, ys

    def test_remainder_closed_form(self, rng):
        # expanding the product gives A_k - A = (1/k)(three cross terms)
        # + (1/k^2) y1 x y2 x y3, exactly
        xs, ys = self.make_pairs(rng)

        def o3(u, v, w):
            return np.einsum("i,j,k->ijk", u, v, w)

        for k in (1.0, 10.0, 100.0):
            A, Ak = border_rank_demo(xs, ys, k)
            remainder = (o3(ys[0], ys[1], xs[2]) + o3(ys[0], xs[1], ys[2])
                         + o3(xs[0], ys[1], ys[2])) / k \
                + o3(ys[0], ys[1], ys[2]) / k ** 2
            np.testing.assert_allclose(Ak.data - A.data, remainder, atol=1e-12)

    def test_error_vanishes_and_halves(self, rng):
        xs, ys = self.make_pairs(rng)
        errs = {}
        for k in (100.0, 200.0, 400.0, 1600.0):
            A, Ak = border_rank_demo(xs, ys, k)
            errs[k] = np.linalg.norm(A.data - Ak.data)
        assert 1.9 <= errs[100.0] / errs[200.0] <= 2.1
        assert 1.9 <= errs[200.0] / errs[400.0] <= 2.1
        assert errs[1600.0] < errs[100.0] / 10

    def test_approximant_is_rank_two(self, rng):
        xs, ys = self.make_pairs(rng)
        _, Ak = border_rank_demo(xs, ys, 7.0)
        # 2-term CP by construction: the mode-1 unfolding has rank <= 2
        M = Ak.data.reshape(3, -1)
        s = np.linalg.svd(M, compute_uv=False)
        assert s[2] <= 1e-10 * s[0]

    def test_degenerate_inputs_rejected(self, rng):
        xs, ys = self.make_pairs(rng)
        with pytest.raises(ValueError):
            border_rank_demo(xs, ys, 0.0)
        ys_bad = [2.0 * xs[0], ys[1], ys[2]]
        with pytest.raises(ValueError):
            border_rank_demo(xs, ys_bad, 1.0)

    def test_length_one_pairs_rejected(self):
        # two vectors of length 1 span at most one dimension
        with pytest.raises(ValueError, match="pair 1 is not linearly independent"):
            border_rank_demo([[1.0]] * 3, [[2.0]] * 3, 1.0)


class TestDenseCap:
    def test_reconstruct_refuses_above_cap(self, rng, monkeypatch):
        from tenslab.dense import DenseCapError

        cp = random_cp(rng, (10, 10, 10), 2)
        with pytest.raises(DenseCapError, match="cap 999"):
            cp_reconstruct(cp, cap=999)
        monkeypatch.setenv("TENSLAB_DENSE_CAP", "123")
        with pytest.raises(DenseCapError, match="cap 123"):
            cp_reconstruct(cp)
        assert cp_reconstruct(cp, cap=1000).dims == (10, 10, 10)
