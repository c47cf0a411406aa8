import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tenslab import (
    CPDecomposition,
    DenseTensor,
    additive_tt,
    cp_reconstruct,
    cp_to_tt,
    multilinear_apply,
    norm,
    svd,
    tt_add,
    tt_entry,
    tt_hadamard,
    tt_marginal,
    tt_partition,
    tt_reconstruct,
    tt_round,
    tt_svd,
    tt_to_cp,
    zeros_tt,
)
from tenslab.tt import TTTensor


def additive_dense(f, g, h):
    return f[:, None, None] + g[None, :, None] + h[None, None, :]


def random_tt(rng, dims, ranks):
    chain = (1,) + tuple(ranks) + (1,)
    cores = [rng.standard_normal((chain[mu], n, chain[mu + 1]))
             for mu, n in enumerate(dims)]
    return TTTensor(cores)


def svd_cascade(A, r):
    """Densified rank-``r`` TT-SVD of ``A`` built from two-sided ``np.linalg.svd``
    steps that carry ``diag(s) V^T``."""
    dims = A.shape
    basis, W = np.ones((1, 1)), A.reshape(1, -1)    # basis: the cores so far, densified
    for n in dims[:-1]:
        W = W.reshape(W.shape[0] * n, -1)
        U, s, Vt = np.linalg.svd(W, full_matrices=False)
        k = min(r, len(s))
        core = U[:, :k].reshape(basis.shape[1], n, k)
        basis = np.einsum("ia,ajk->ijk", basis, core).reshape(-1, k)
        W = s[:k, None] * Vt[:k]
    return (basis @ W).reshape(dims)


def probe_indices(rng, dims, count):
    return [tuple(int(rng.integers(1, n + 1)) for n in dims) for _ in range(count)]


@st.composite
def trains(draw):
    """Dims, chain ranks and a seed for a random train of order 1 to 4."""
    d = draw(st.integers(1, 4))
    dims = draw(st.lists(st.integers(1, 3), min_size=d, max_size=d))
    ranks = draw(st.lists(st.integers(1, 3), min_size=d - 1, max_size=d - 1))
    return tuple(dims), tuple(ranks), draw(st.integers(0, 2 ** 32 - 1))


class TestEveryOrder:
    """Identities and tolerance bounds that hold for every order, order 1 too."""

    @given(train=trains())
    def test_add_densifies_to_the_sum(self, train):
        dims, ranks, seed = train
        rng = np.random.default_rng(seed)
        T, S = random_tt(rng, dims, ranks), random_tt(rng, dims, ranks[::-1])
        expected = tt_reconstruct(T).data + tt_reconstruct(S).data
        np.testing.assert_allclose(tt_reconstruct(tt_add(T, S)).data, expected,
                                   rtol=1e-12, atol=1e-12)

    @given(train=trains(), r=st.integers(1, 3))
    def test_cp_to_tt_densifies_to_the_cp_model(self, train, r):
        dims, _, seed = train
        rng = np.random.default_rng(seed)
        cp = CPDecomposition.from_factors([rng.standard_normal((n, r)) for n in dims],
                                          rng.standard_normal(r))
        np.testing.assert_allclose(tt_reconstruct(cp_to_tt(cp)).data,
                                   cp_reconstruct(cp).data, rtol=1e-12, atol=1e-12)

    @given(train=trains(), tol=st.floats(0.0, 1.0))
    def test_svd_stays_within_the_tolerance(self, train, tol):
        dims, _, seed = train
        A = np.random.default_rng(seed).standard_normal(dims)
        T, _ = tt_svd(A, rel_tol=tol)
        err = np.linalg.norm(A - tt_reconstruct(T).data)
        assert err <= (tol + 1e-12) * np.linalg.norm(A)

    @given(train=trains(), tol=st.floats(0.0, 1.0))
    def test_round_stays_within_the_tolerance(self, train, tol):
        dims, ranks, seed = train
        T = random_tt(np.random.default_rng(seed), dims, ranks)
        dense = tt_reconstruct(T).data
        err = np.linalg.norm(dense - tt_reconstruct(tt_round(T, rel_tol=tol)).data)
        assert err <= (tol + 1e-12) * np.linalg.norm(dense)


class TestTTSVD:
    def test_additive_is_rank_two(self, rng):
        n = 12
        f, g, h = (rng.standard_normal(n) for _ in range(3))
        A = DenseTensor(additive_dense(f, g, h))
        T, _ = tt_svd(A, ranks=(2, 2))
        recon = tt_reconstruct(T)
        assert norm(DenseTensor(A.data - recon.data)) <= 1e-10 * norm(A)

    def test_matrix_case_matches_truncated_svd(self, rng):
        M = rng.standard_normal((6, 5))
        T, quality = tt_svd(M, ranks=(2,))
        full = svd(M)
        err_sq = np.linalg.norm(M - tt_reconstruct(T).data) ** 2
        assert err_sq == pytest.approx(np.sum(full.singular_values[2:] ** 2),
                                       rel=1e-10)
        assert quality.step_tail_energies[0] == pytest.approx(err_sq, rel=1e-10)

    def test_untruncated_is_exact(self, rng):
        A = DenseTensor(rng.standard_normal((3, 3, 3, 3)))
        T, quality = tt_svd(A)
        assert norm(DenseTensor(A.data - tt_reconstruct(T).data)) <= 1e-9 * norm(A)
        assert quality.global_quality == pytest.approx(1.0, abs=1e-12)

    def test_truncated_energy_split(self, rng):
        A = DenseTensor(rng.standard_normal((3, 3, 3, 3)))
        T, quality = tt_svd(A, ranks=(2, 2, 2))
        err_sq = norm(DenseTensor(A.data - tt_reconstruct(T).data)) ** 2
        assert err_sq == pytest.approx(sum(quality.step_tail_energies), rel=1e-8)
        assert norm(A) ** 2 == pytest.approx(
            quality.kept_energy + sum(quality.step_tail_energies), rel=1e-9)

    @pytest.mark.parametrize("target", [{"ranks": (3, 5, 7, 5, 3)}, {"rel_tol": 0.3}])
    def test_lapack_never_sees_the_long_side(self, rng, monkeypatch, target):
        # a p x q unfolding reaches LAPACK's SVD as its min(p, q) square
        # triangle: a wide one by one_sided_svd's QR, so the long factor it
        # would drop is never formed, and a well-conditioned tall one by
        # svd's CholeskyQR2, which keeps its long factor as Q
        shapes = []
        lapack_svd = np.linalg.svd

        def spy(a, *args, **kwargs):
            shapes.append(a.shape)
            return lapack_svd(a, *args, **kwargs)

        monkeypatch.setattr("tenslab.linalg.np.linalg.svd", spy)
        T, _ = tt_svd(rng.standard_normal((4,) * 6), **target)
        rows = [r * n for r, n in zip(T.full_ranks, T.dims[:-1])]
        cols = [4 ** (6 - mu) for mu in range(1, 6)]
        assert shapes == [(min(p, q), min(p, q)) for p, q in zip(rows, cols)]

    def test_planted_rank_eight_matches_the_two_sided_cascade(self, rng):
        dims = (8,) * 7
        A = tt_reconstruct(random_tt(rng, dims, (8,) * 6)).data
        noise = rng.standard_normal(dims)
        A += 1e-3 * np.linalg.norm(A) / np.linalg.norm(noise) * noise
        T, _ = tt_svd(A, ranks=(8,) * 6)
        ref = svd_cascade(A, 8)
        assert np.linalg.norm(tt_reconstruct(T).data - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_peak_memory_stays_near_the_input(self, rng):
        # at ranks 8 the second step's carry is as large as the input, and
        # the QR of its transpose takes one copy of it; nothing else is large
        A = rng.standard_normal((8,) * 7)
        tracemalloc.start()
        try:
            tt_svd(A, ranks=(8,) * 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * A.nbytes

    def test_tolerance_mode_bounds_error(self, rng):
        A = DenseTensor(rng.standard_normal((4, 4, 4)))
        for tol in (0.5, 0.1):
            T, _ = tt_svd(A, rel_tol=tol)
            rel = norm(DenseTensor(A.data - tt_reconstruct(T).data)) / norm(A)
            assert rel <= tol

    def test_rank_arity_checked(self, rng):
        with pytest.raises(ValueError):
            tt_svd(rng.standard_normal((2, 2, 2)), ranks=(2,))
        with pytest.raises(ValueError):
            tt_svd(rng.standard_normal((2, 2)), ranks=(1,), rel_tol=0.1)

    def test_basis_change_leaves_ranks(self, rng):
        A = DenseTensor(rng.standard_normal((2, 3, 4)))
        T, _ = tt_svd(A, rel_tol=1e-10)
        mats = [np.linalg.qr(rng.standard_normal((n, n)))[0] for n in (2, 3, 4)]
        B = multilinear_apply(A, mats)
        S, _ = tt_svd(B, rel_tol=1e-10)
        assert T.ranks == S.ranks

    def test_generic_ranks_hit_count_ceiling(self, rng):
        n, d = 4, 4
        A = DenseTensor(rng.standard_normal((n,) * d))
        T, _ = tt_svd(A, rel_tol=1e-10)
        expected = tuple(min(n ** (mu + 1), n ** (d - mu - 1)) for mu in range(d - 1))
        assert T.ranks == expected


class TestEntryAndDense:
    def test_trivial_rank_one(self):
        T = TTTensor([np.ones((1, 1, 1))])
        assert tt_entry(T, (1,)) == 1.0

    def test_mode_of_size_zero_rejected(self):
        # as DenseTensor, zeros_tt and read_tt reject one
        with pytest.raises(ValueError, match=r"core 2 has shape \(1, 0, 1\)"):
            TTTensor([np.ones((1, 2, 1)), np.ones((1, 0, 1))])

    def test_additive_entries(self, rng):
        n = 5
        f, g, h = (rng.standard_normal(n) for _ in range(3))
        T = additive_tt([f, g, h])
        for i, j, k in itertools.product(range(n), repeat=3):
            expected = f[i] + g[j] + h[k]
            assert tt_entry(T, (i + 1, j + 1, k + 1)) == pytest.approx(expected,
                                                                       abs=1e-13)

    def test_entry_matches_dense_for_all_constructors(self, rng):
        f, g, h = (rng.standard_normal(4) for _ in range(3))
        A = DenseTensor(rng.standard_normal((4, 4, 4)))
        cp = CPDecomposition.from_factors([rng.standard_normal((4, 2))
                                           for _ in range(3)])
        candidates = {
            "tt_svd": tt_svd(A, ranks=(2, 2))[0],
            "add": tt_add(additive_tt([f, g, h]), zeros_tt((4, 4, 4))),
            "hadamard": tt_hadamard(additive_tt([f, g, h]), additive_tt([h, g, f])),
            "round": tt_round(tt_add(additive_tt([f, g, h]),
                                     additive_tt([h, f, g])), ranks=(3, 3)),
            "cp_to_tt": cp_to_tt(cp),
            "additive": additive_tt([f, g, h]),
        }
        for name, T in candidates.items():
            dense = tt_reconstruct(T)
            for idx in probe_indices(rng, T.dims, 10):
                zero_based = tuple(i - 1 for i in idx)
                assert tt_entry(T, idx) == pytest.approx(
                    float(dense.data[zero_based]), abs=1e-11), name

    def test_out_of_range_entry(self, rng):
        T = random_tt(rng, (3, 3), (2,))
        with pytest.raises(ValueError):
            tt_entry(T, (4, 1))

    @pytest.mark.parametrize("index", [(0, 1, 1), (1, 2, 5), (1, 2), (1, 1, 1, 1)])
    def test_malformed_index_follows_the_dense_rule(self, rng, index):
        T = random_tt(rng, (3, 4, 2), (2, 2))
        with pytest.raises(ValueError) as dense_err:
            DenseTensor(np.zeros(T.dims)).entry(index)
        with pytest.raises(ValueError) as tt_err:
            tt_entry(T, index)
        assert str(tt_err.value) == str(dense_err.value)

    def test_fractional_index_is_rejected_by_name(self):
        T = additive_tt([np.arange(3.0)] * 3)
        for entry in (DenseTensor(np.zeros(T.dims)).entry, lambda idx: tt_entry(T, idx)):
            with pytest.raises(ValueError, match=r"\(1\.7, 2\.9, 3\)"):
                entry((1.7, 2.9, 3))
        assert tt_entry(T, (2.0, 3, np.int64(1))) == tt_entry(T, (2, 3, 1)) == 3.0

    def test_memory_guard(self, rng):
        T = random_tt(rng, (10, 10, 10), (2, 2))
        with pytest.raises(ValueError):
            tt_reconstruct(T, cap=999)

    def test_memory_guard_env_var(self, rng, monkeypatch):
        from tenslab.dense import dense_cap
        monkeypatch.setenv("TENSLAB_DENSE_CAP", "123")
        assert dense_cap() == 123
        assert dense_cap(777) == 777
        T = random_tt(rng, (10, 10, 10), (2, 2))
        with pytest.raises(ValueError, match="cap 123"):
            tt_reconstruct(T)

    def test_round_trip_via_cp(self, rng):
        cp = CPDecomposition.from_factors([rng.standard_normal((3, 2))
                                           for _ in range(4)])
        T = cp_to_tt(cp)
        np.testing.assert_allclose(tt_reconstruct(T).data,
                                   cp_reconstruct(cp).data, atol=1e-10)


class TestInFormatArithmetic:
    def test_add_zero_train(self, rng):
        T = random_tt(rng, (3, 4, 3), (2, 2))
        S = tt_add(T, zeros_tt((3, 4, 3)))
        assert S.ranks == (3, 3)
        for idx in probe_indices(rng, T.dims, 20):
            assert tt_entry(S, idx) == pytest.approx(tt_entry(T, idx), abs=1e-12)

    def test_ranks_add(self, rng):
        T = random_tt(rng, (3, 3, 3), (2, 2))
        S = random_tt(rng, (3, 3, 3), (3, 3))
        assert tt_add(T, S).ranks == (5, 5)

    def test_add_entries(self, rng):
        T = random_tt(rng, (3, 2, 4, 3), (2, 3, 2))
        S = random_tt(rng, (3, 2, 4, 3), (2, 2, 2))
        out = tt_add(T, S)
        for idx in probe_indices(rng, T.dims, 50):
            assert tt_entry(out, idx) == pytest.approx(
                tt_entry(T, idx) + tt_entry(S, idx), abs=1e-11)

    def test_hadamard_with_ones(self, rng):
        T = random_tt(rng, (3, 3, 3), (2, 2))
        ones = TTTensor([np.ones((1, 3, 1)) for _ in range(3)])
        out = tt_hadamard(T, ones)
        for idx in probe_indices(rng, T.dims, 20):
            assert tt_entry(out, idx) == pytest.approx(tt_entry(T, idx), abs=1e-12)

    def test_hadamard_ranks_multiply(self, rng):
        T = random_tt(rng, (3, 3, 3), (2, 2))
        S = random_tt(rng, (3, 3, 3), (3, 3))
        assert tt_hadamard(T, S).ranks == (6, 6)

    def test_hadamard_entries(self, rng):
        T = random_tt(rng, (2, 3, 2, 3), (2, 2, 2))
        S = random_tt(rng, (2, 3, 2, 3), (2, 3, 2))
        out = tt_hadamard(T, S)
        for idx in probe_indices(rng, T.dims, 50):
            assert tt_entry(out, idx) == pytest.approx(
                tt_entry(T, idx) * tt_entry(S, idx), abs=1e-11)

    def test_dim_mismatch(self, rng):
        with pytest.raises(ValueError):
            tt_add(random_tt(rng, (2, 2), (1,)), random_tt(rng, (2, 3), (1,)))


class TestRounding:
    def test_round_padded_back(self, rng):
        T = random_tt(rng, (4, 4, 4), (2, 2))
        padded = tt_add(T, zeros_tt((4, 4, 4)))
        rounded = tt_round(padded, ranks=(2, 2))
        assert rounded.ranks == (2, 2)
        dense_t = tt_reconstruct(T)
        dense_r = tt_reconstruct(rounded)
        assert norm(DenseTensor(dense_t.data - dense_r.data)) <= 1e-9 * norm(dense_t)

    def test_round_to_full_ranks_noop(self, rng):
        T = random_tt(rng, (3, 3, 3), (3, 3))
        rounded = tt_round(T, ranks=(3, 3))
        np.testing.assert_allclose(tt_reconstruct(rounded).data,
                                   tt_reconstruct(T).data, atol=1e-10)

    def test_round_detects_low_rank_product(self, rng):
        # hadamard of two rank-2 additive trains, rounded by tolerance,
        # reaches the rank tt_svd of the dense product finds
        f, g, h = (rng.standard_normal(5) for _ in range(3))
        p, q, r = (rng.standard_normal(5) for _ in range(3))
        H = tt_hadamard(additive_tt([f, g, h]), additive_tt([p, q, r]))
        assert H.ranks == (4, 4)
        dense = tt_reconstruct(H)
        S, _ = tt_svd(dense, rel_tol=1e-10)
        rounded = tt_round(H, rel_tol=1e-10)
        assert rounded.ranks == S.ranks
        np.testing.assert_allclose(tt_reconstruct(rounded).data, dense.data,
                                   atol=1e-9 * norm(dense))

    def test_rank_reduction_by_orthogonalization(self, rng):
        # padding with zeros inflates ranks; rounding with no targets
        # already trims what the QR sweep reveals
        T = random_tt(rng, (3, 3), (2,))
        padded = tt_add(T, zeros_tt((3, 3)))
        rounded = tt_round(padded)
        assert rounded.ranks[0] <= 3

    @pytest.mark.parametrize("dims, ranks", [((3, 4), (2,)), ((3, 4, 5), (2, 3)),
                                             ((2, 3, 3, 2), (2, 3, 2))])
    def test_round_leaves_the_input_cores_unchanged(self, rng, dims, ranks):
        T = random_tt(rng, dims, ranks)
        before = [G.copy() for G in T.cores]
        for target in ({}, {"rel_tol": 0.3}, {"ranks": [1] * len(ranks)}):
            rounded = tt_round(T, **target)
            for G, G0 in zip(T.cores, before):
                np.testing.assert_array_equal(G, G0)
            assert not any(np.shares_memory(G, R) for G in T.cores for R in rounded.cores)


class TestPartitionAndMarginal:
    def test_additive_partition(self, rng):
        n = 20
        f, g, h = (rng.standard_normal(n) for _ in range(3))
        T = additive_tt([f, g, h])
        expected = n * n * (f.sum() + g.sum() + h.sum())
        assert tt_partition(T) == pytest.approx(expected, rel=1e-12)

    def test_separable_partition(self, rng):
        x, y, z = (rng.standard_normal(4) for _ in range(3))
        cp = CPDecomposition.from_factors(
            [x.reshape(-1, 1), y.reshape(-1, 1), z.reshape(-1, 1)])
        T = cp_to_tt(cp)
        assert tt_partition(T) == pytest.approx(x.sum() * y.sum() * z.sum(),
                                                rel=1e-12)

    def test_partition_matches_dense_sum(self, rng):
        T = random_tt(rng, (3, 2, 3, 2, 3), (2, 3, 3, 2))
        dense = tt_reconstruct(T)
        assert tt_partition(T) == pytest.approx(float(np.sum(dense.data)), rel=1e-9)

    def test_marginal_matches_dense(self, rng):
        T = random_tt(rng, (3, 4, 5), (2, 2))
        dense = tt_reconstruct(T).data
        for mu, axes in ((1, (1, 2)), (2, (0, 2)), (3, (0, 1))):
            np.testing.assert_allclose(tt_marginal(T, mu).data,
                                       dense.sum(axis=axes), atol=1e-9)

    def test_marginal_matches_loop_formula(self, rng):
        T = random_tt(rng, (3, 5, 4, 6, 2), (2, 3, 4, 2))
        for mu in range(1, T.order + 1):
            left = np.ones((1, 1))
            for G in T.cores[:mu - 1]:
                left = left @ np.sum(G, axis=1)
            right = np.ones((1, 1))
            for G in reversed(T.cores[mu:]):
                right = np.sum(G, axis=1) @ right
            G = T.cores[mu - 1]
            loop = np.array([(left @ G[:, i, :] @ right).item() for i in range(G.shape[1])])
            got = tt_marginal(T, mu).data
            assert np.linalg.norm(got - loop) <= 1e-13 * np.linalg.norm(loop)

    def test_marginal_mode_checked(self, rng):
        with pytest.raises(ValueError):
            tt_marginal(random_tt(rng, (2, 2), (1,)), 3)


class TestCPLinks:
    def test_cp_to_tt_rank_one(self, rng):
        cp = CPDecomposition.from_factors(
            [rng.standard_normal((3, 1)) for _ in range(3)], [2.0])
        T = cp_to_tt(cp)
        assert T.ranks == (1, 1)
        np.testing.assert_allclose(tt_reconstruct(T).data,
                                   cp_reconstruct(cp).data, atol=1e-12)

    def test_cp_to_tt_cores_match_loop_formula(self, rng):
        r = 3
        cp = CPDecomposition.from_factors([rng.standard_normal((n, r)) for n in (2, 4, 5, 3)],
                                          rng.standard_normal(r))
        T = cp_to_tt(cp)
        for mu in (1, 2):
            X = cp.factors[mu]
            C = np.zeros((r, X.shape[0], r))
            for a in range(r):
                C[a, :, a] = X[:, a]
            np.testing.assert_array_equal(T.cores[mu], C)

    def test_cp_to_tt_worked_rank_two(self, rng):
        X, Y, Z = (rng.standard_normal((4, 2)) for _ in range(3))
        cp = CPDecomposition.from_factors([X, Y, Z])
        T = cp_to_tt(cp)
        w = cp.weights
        for i, j, k in itertools.product(range(4), repeat=3):
            expected = sum(w[a] * cp.factors[0][i, a] * cp.factors[1][j, a]
                           * cp.factors[2][k, a] for a in range(2))
            assert tt_entry(T, (i + 1, j + 1, k + 1)) == pytest.approx(expected,
                                                                       abs=1e-11)

    def test_cp_to_tt_entry_probes(self, rng):
        cp = CPDecomposition.from_factors([rng.standard_normal((3, 4))
                                           for _ in range(4)])
        T = cp_to_tt(cp)
        dense = cp_reconstruct(cp)
        for idx in probe_indices(rng, T.dims, 50):
            zero_based = tuple(i - 1 for i in idx)
            assert tt_entry(T, idx) == pytest.approx(
                float(dense.data[zero_based]), abs=1e-11)

    def test_tt_to_cp_rank_one(self, rng):
        T = random_tt(rng, (3, 4, 2), (1, 1))
        cp = tt_to_cp(T)
        assert cp.rank == 1
        np.testing.assert_allclose(cp_reconstruct(cp).data,
                                   tt_reconstruct(T).data, atol=1e-12)

    def test_tt_to_cp_term_bound(self, rng):
        T = random_tt(rng, (3, 3, 3), (2, 2))
        cp = tt_to_cp(T)
        assert cp.rank <= 4
        np.testing.assert_allclose(cp_reconstruct(cp).data,
                                   tt_reconstruct(T).data, atol=1e-10)

    def test_sandwich_bound(self, rng):
        for _ in range(5):
            T = random_tt(rng, (3, 3, 3, 3), (2, 2, 2))
            cp = tt_to_cp(T)
            assert cp.rank <= max(T.ranks) ** (T.order - 1)
            back = cp_to_tt(cp)
            dense = tt_reconstruct(T)
            np.testing.assert_allclose(tt_reconstruct(back).data, dense.data,
                                       atol=1e-9 * max(norm(dense), 1.0))

    def test_term_cap(self, rng):
        T = random_tt(rng, (2, 2, 2, 2), (2, 2, 2))
        with pytest.raises(ValueError):
            tt_to_cp(T, max_terms=3)

    @staticmethod
    def tt_to_cp_loop(T):
        """Term-at-a-time reference for ``tt_to_cp``."""
        d = T.order
        if d == 1:
            return CPDecomposition.from_factors([T.cores[0].reshape(-1, 1)])
        columns, weights = [[] for _ in range(d)], []
        for combo in np.ndindex(*T.ranks):
            vecs = [T.cores[0][0, :, combo[0]]]
            vecs += [T.cores[mu][combo[mu - 1], :, combo[mu]] for mu in range(1, d - 1)]
            vecs.append(T.cores[d - 1][combo[d - 2], :, 0])
            if any(np.all(v == 0.0) for v in vecs):
                continue
            for mu, v in enumerate(vecs):
                columns[mu].append(v)
            weights.append(1.0)
        if not weights:
            return CPDecomposition.from_factors([np.zeros((n, 1)) for n in T.dims], np.zeros(1))
        return CPDecomposition.from_factors([np.stack(c, axis=1) for c in columns],
                                            np.asarray(weights))

    @pytest.mark.parametrize("zero", ["none", "interior", "first", "last", "all"])
    @pytest.mark.parametrize("dims, ranks", [((3, 4), (3,)), ((3, 2, 4, 2), (2, 3, 2))])
    def test_tt_to_cp_bitwise_equal_to_term_loop(self, rng, dims, ranks, zero):
        T = random_tt(rng, dims, ranks)
        if zero == "interior":
            T.cores[1][1, :, 0] = 0.0
        elif zero == "first":
            T.cores[0][0, :, 1] = 0.0
        elif zero == "last":
            T.cores[-1][0, :, 0] = 0.0
        elif zero == "all":
            T = TTTensor([np.zeros_like(G) for G in T.cores])
        cp = self.assert_tt_to_cp_matches_loop(T)
        assert (cp.rank == np.prod(ranks)) == (zero == "none")

    @pytest.mark.parametrize("scale", [-2.0, 0.0])
    def test_tt_to_cp_order_one_bitwise_equal_to_term_loop(self, rng, scale):
        cp = self.assert_tt_to_cp_matches_loop(TTTensor([scale * rng.random((1, 3, 1))]))
        assert cp.rank == 1

    def assert_tt_to_cp_matches_loop(self, T):
        cp, ref = tt_to_cp(T), self.tt_to_cp_loop(T)
        assert cp.weights.tobytes() == ref.weights.tobytes()
        assert all(X.tobytes() == Y.tobytes() for X, Y in zip(cp.factors, ref.factors))
        return cp


class TestAdditive:
    def test_three_mode_exact(self, rng):
        f, g, h = (rng.standard_normal(4) for _ in range(3))
        T = additive_tt([f, g, h])
        np.testing.assert_allclose(tt_reconstruct(T).data,
                                   additive_dense(f, g, h), atol=1e-13)

    def test_zero_functions(self):
        T = additive_tt([np.zeros(3), np.zeros(3), np.zeros(3)])
        np.testing.assert_array_equal(tt_reconstruct(T).data, np.zeros((3, 3, 3)))

    def test_six_modes_probes(self, rng):
        fs = [rng.standard_normal(3) for _ in range(6)]
        T = additive_tt(fs)
        for idx in probe_indices(rng, T.dims, 100):
            expected = sum(f[i - 1] for f, i in zip(fs, idx))
            assert tt_entry(T, idx) == pytest.approx(expected, abs=1e-13)

    def test_needs_two_modes(self, rng):
        with pytest.raises(ValueError):
            additive_tt([rng.standard_normal(3)])

    def test_empty_mode_rejected(self):
        with pytest.raises(ValueError, match="n >= 1"):
            additive_tt([[], [1.0, 2.0]])


class TestTargets:
    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
    def test_round_rejects_bad_tolerance(self, rng, tol):
        T = random_tt(rng, (3, 3, 3), (2, 2))
        with pytest.raises(ValueError, match="rel_tol"):
            tt_round(T, rel_tol=tol)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
    def test_svd_rejects_bad_tolerance(self, rng, tol):
        with pytest.raises(ValueError, match="rel_tol"):
            tt_svd(rng.standard_normal((3, 3, 3)), rel_tol=tol)

    @pytest.mark.parametrize("kwargs", [dict(ranks=(2,)), dict(ranks=(2, 0)),
                                        dict(ranks=(2, 2), rel_tol=0.1)])
    def test_round_and_svd_share_the_rank_checks(self, rng, kwargs):
        T = random_tt(rng, (3, 3, 3), (2, 2))
        with pytest.raises(ValueError):
            tt_round(T, **kwargs)
        with pytest.raises(ValueError):
            tt_svd(tt_reconstruct(T), **kwargs)
