import inspect
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tenslab import (
    ball_volume,
    border_rank_demo,
    cp_product,
    cur,
    greedy_cur_pivots,
    hosvd,
    khatri_rao,
    kronecker,
    matricize,
    norm,
    one_sided_svd,
    pseudo_inverse,
    rank222_classify,
    svd,
    svd_to_tolerance,
    tracy_singh,
    truncated_svd,
    tt_add,
    tt_entry,
    tt_hadamard,
    tt_reconstruct,
    tt_round,
    tt_svd,
)
from tenslab.dense import _sumsq
from tenslab.linalg import RANK_CUTOFF, SVDResult, _qr, _significant, _tail_budget
from tenslab.tt import TTTensor

EPS = np.finfo(np.float64).eps


def check_one_sided(L, res):
    """``res`` holds ``L``'s singular values within ``64 eps s_1`` of LAPACK's
    and its right singular vectors: orthonormal, each leading subspace within
    ``64 eps s_1 / gap`` of LAPACK's, with the sign rule on every column."""
    k = min(L.shape)
    s, U = res.singular_values, res.U
    assert s.shape == (k,) and U.shape == (L.shape[1], k)
    _, s_ref, Vt = np.linalg.svd(L, full_matrices=False)
    tol = 64 * EPS * s_ref[0]
    np.testing.assert_allclose(s, s_ref, rtol=0, atol=tol)
    np.testing.assert_allclose(U.T @ U, np.eye(k), rtol=0, atol=64 * EPS * k)
    for r in range(1, k):
        gap = s_ref[r - 1] - s_ref[r]
        if gap > 0:
            V = Vt[:r].T
            sin = np.linalg.norm(U[:, :r] - V @ (V.T @ U[:, :r]), 2)
            assert sin <= tol / gap + 64 * EPS, (r, sin, tol / gap)
    for a in range(k):
        assert U[np.argmax(np.abs(U[:, a])), a] >= 0


def graded(rng, m, n, cond):
    """``m x n`` matrix with singular values spaced log-evenly from 1 to ``1/cond``."""
    k = min(m, n)
    P = np.linalg.qr(rng.standard_normal((m, k)))[0]
    Q = np.linalg.qr(rng.standard_normal((n, k)))[0]
    return (P * np.logspace(0, -np.log10(cond), k)) @ Q.T


class TestSVD:
    def test_diagonal(self):
        res = svd(np.diag([3.0, 2.0, 1.0]))
        np.testing.assert_allclose(res.singular_values, [3.0, 2.0, 1.0])

    def test_rank_one(self, rng):
        x, y = rng.standard_normal(5), rng.standard_normal(4)
        res = svd(np.outer(x, y))
        assert res.singular_values[0] == pytest.approx(
            np.linalg.norm(x) * np.linalg.norm(y), rel=1e-12)
        assert np.all(res.singular_values[1:] <= 1e-12 * res.singular_values[0])

    def test_orthonormality_and_reconstruction(self, rng):
        M = rng.standard_normal((6, 4))
        res = svd(M)
        k = res.rank
        np.testing.assert_allclose(res.U.T @ res.U, np.eye(k), atol=1e-10)
        np.testing.assert_allclose(res.V.T @ res.V, np.eye(k), atol=1e-10)
        assert np.linalg.norm(res.reconstruct() - M) <= 1e-9 * np.linalg.norm(M)
        assert np.all(np.diff(res.singular_values) <= 0)

    def test_singular_pairs(self, rng):
        M = rng.standard_normal((5, 3))
        res = svd(M)
        s1 = res.singular_values[0]
        for a in range(res.rank):
            np.testing.assert_allclose(
                M @ res.V[:, a], res.singular_values[a] * res.U[:, a], atol=1e-10 * s1)
            np.testing.assert_allclose(
                M.T @ res.U[:, a], res.singular_values[a] * res.V[:, a], atol=1e-10 * s1)

    def test_frobenius_identity(self, rng):
        M = rng.standard_normal((5, 7))
        res = svd(M)
        assert np.sum(res.singular_values ** 2) == pytest.approx(
            np.linalg.norm(M) ** 2, rel=1e-12)

    def test_sign_convention_deterministic(self, rng):
        M = rng.standard_normal((5, 4))
        r1, r2 = svd(M), svd(M.copy())
        assert np.array_equal(r1.U, r2.U) and np.array_equal(r1.V, r2.V)
        for a in range(r1.rank):
            assert r1.U[np.argmax(np.abs(r1.U[:, a])), a] >= 0

    def test_sign_convention_first_index_on_ties(self, monkeypatch):
        h = math.sqrt(0.5)
        U = np.array([[-h, h], [h, h]])          # |U| ties in both columns
        monkeypatch.setattr("tenslab.linalg.np.linalg.svd",
                            lambda a, full_matrices: (U.copy(), np.ones(2), np.eye(2)))
        res = svd(np.eye(2))
        np.testing.assert_array_equal(res.U, [[h, h], [-h, h]])
        np.testing.assert_array_equal(res.V, [[-1.0, 0.0], [-0.0, 1.0]])

    def test_zero_matrix(self):
        res = svd(np.zeros((3, 2)))
        np.testing.assert_array_equal(res.singular_values, [0.0, 0.0])
        np.testing.assert_allclose(res.U.T @ res.U, np.eye(2), atol=1e-12)

    def test_nuclear_norm(self):
        res = svd(np.diag([3.0, 2.0]))
        assert res.nuclear_norm == pytest.approx(5.0)

    @settings(max_examples=150, deadline=None)
    @given(m=st.integers(1, 12), n=st.integers(1, 12), rank=st.integers(0, 12),
           seed=st.integers(0, 2 ** 16), transpose=st.booleans())
    @example(m=3, n=12, rank=3, seed=0, transpose=False)     # n > 2m
    @example(m=3, n=12, rank=3, seed=0, transpose=True)
    @example(m=5, n=12, rank=2, seed=1, transpose=False)     # rank-deficient
    @example(m=4, n=11, rank=0, seed=2, transpose=False)     # all zero
    @example(m=1, n=12, rank=1, seed=3, transpose=False)
    def test_wide_and_tall_properties(self, m, n, rank, seed, transpose):
        rng = np.random.default_rng(seed)
        rank = min(rank, m, n)
        A = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
        if transpose:
            A = A.T
        res = svd(A)
        k = min(A.shape)
        s, U, V = res.singular_values, res.U, res.V
        s0 = s[0]
        assert U.shape == (A.shape[0], k) and V.shape == (A.shape[1], k) and s.shape == (k,)
        np.testing.assert_allclose(U.T @ U, np.eye(k), rtol=0, atol=1e-12)
        np.testing.assert_allclose(V.T @ V, np.eye(k), rtol=0, atol=1e-12)
        assert np.linalg.norm(res.reconstruct() - A) <= 1e-12 * np.linalg.norm(A)
        np.testing.assert_allclose(A @ V, U * s, rtol=0, atol=1e-12 * s0)
        np.testing.assert_allclose(A.T @ U, V * s, rtol=0, atol=1e-12 * s0)
        np.testing.assert_allclose(s, np.linalg.svd(A, compute_uv=False),
                                   rtol=0, atol=1e-13 * s0)
        for a in range(k):
            assert U[np.argmax(np.abs(U[:, a])), a] >= 0
        # a non-square A and its transpose reach LAPACK as the same tall matrix
        other = svd(A.T).singular_values
        if A.shape[0] != A.shape[1]:
            np.testing.assert_array_equal(other, s)
        else:
            np.testing.assert_allclose(other, s, rtol=0, atol=1e-13 * s0)
        for r in range(1, k + 1):
            cut = res.truncate(r)
            np.testing.assert_array_equal(cut.U, U[:, :r])
            np.testing.assert_array_equal(cut.singular_values, s[:r])
            np.testing.assert_array_equal(cut.V, V[:, :r])
            assert np.shares_memory(cut.U, U) and np.shares_memory(cut.V, V)


class TestOneSidedSVD:
    @settings(max_examples=150, deadline=None)
    @given(m=st.integers(1, 12), n=st.integers(1, 12), rank=st.integers(0, 12),
           seed=st.integers(0, 2 ** 16))
    @example(m=12, n=3, rank=3, seed=0)       # tall: the QR route
    @example(m=3, n=12, rank=3, seed=0)       # wide
    @example(m=5, n=5, rank=5, seed=0)        # square
    @example(m=9, n=6, rank=2, seed=1)        # rank-deficient
    @example(m=7, n=4, rank=0, seed=2)        # all zero
    def test_matches_lapack(self, m, n, rank, seed):
        rng = np.random.default_rng(seed)
        rank = min(rank, m, n)
        L = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
        res = one_sided_svd(L)
        check_one_sided(L, res)
        if rank:
            # the rank-``rank`` range of L^T that the two-sided svd returns as V
            V = svd(L).V[:, :rank]
            np.testing.assert_allclose(res.U[:, :rank] @ (res.U[:, :rank].T @ V), V,
                                       rtol=0, atol=1e-10)

    def test_all_zero_is_exact(self):
        res = one_sided_svd(np.zeros((6, 3)))
        np.testing.assert_array_equal(res.singular_values, np.zeros(3))
        check_one_sided(np.zeros((6, 3)), res)

    def test_layout_leaves_result_unchanged(self, rng):
        W = rng.standard_normal((4, 50))
        np.testing.assert_array_equal(one_sided_svd(W.T).singular_values,
                                      one_sided_svd(W.T.copy()).singular_values)

    def test_hosvd_unfolding_wider_than_tall(self, rng):
        # shape (5, 2, 2): the mode-1 unfolding is 4 x 5, n_mu > prod(others)
        A = rng.standard_normal((5, 2, 2))
        M = matricize(A, 1).data
        assert M.shape == (4, 5)
        res = one_sided_svd(M)
        check_one_sided(M, res)
        tuck, spectra = hosvd(A, (5, 2, 2))
        assert tuck.factors[0].shape == (5, 4)
        np.testing.assert_array_equal(tuck.factors[0], res.U)
        np.testing.assert_array_equal(spectra[0], res.singular_values)

    @pytest.mark.parametrize("shape", [(262144, 8), (32768, 64), (4096, 64)],
                             ids=["tt-step-1", "tt-step-2", "hosvd"])
    @pytest.mark.parametrize("cond", [1e4, 1e8, 1e12])
    def test_graded_at_benchmark_shapes(self, rng, shape, cond):
        # TT-SVD hands over the transposes of its 8 x 262144 and 64 x 32768
        # unfoldings; HOSVD its 4096 x 64 unfolding
        L = graded(rng, *shape, cond)
        check_one_sided(L, one_sided_svd(L))


U_ROUND = 2.0 ** -53


def kappa_max(m, n):
    """Largest condition number of an ``m x n`` matrix that the CholeskyQR2
    bound ``8 kappa sqrt((m n + n (n + 1)) u) <= 1`` admits."""
    return 1.0 / (8.0 * math.sqrt((m * n + n * (n + 1)) * U_ROUND))


def routed(L, want_q=False):
    """``_qr(L, want_q)`` and the route it took: ``"cholesky-qr2"`` (two
    Choleskys, no Householder QR) or ``"householder"``."""
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        for name in ("cholesky", "qr"):
            real = getattr(np.linalg, name)
            mp.setattr(np.linalg, name, lambda *a, _real=real, _name=name, **k:
                       calls.append(_name) or _real(*a, **k))
        out = _qr(L, want_q)
    if "qr" in calls:
        return out, "householder"
    assert calls == ["cholesky", "cholesky"]
    return out, "cholesky-qr2"


class TestTallQR:
    """``_qr`` takes CholeskyQR2 exactly where the ETNA bound admits it and
    Householder QR everywhere else, and both routes give the same factors
    to roundoff."""

    @pytest.mark.parametrize("shape", [(300, 3), (2000, 10), (4096, 64), (1024, 64)])
    @pytest.mark.parametrize("factor, route", [(0.9, "cholesky-qr2"), (1.1, "householder")])
    def test_graded_just_inside_and_outside_the_bound(self, rng, shape, factor, route):
        m, n = shape
        kappa = factor * kappa_max(m, n)
        L = graded(rng, m, n, kappa)
        R, took = routed(L)
        assert took == route
        # the Householder route's own error scale, u * s_1 = u * kappa * s_n;
        # measured up to 9 u s_1 on these shapes
        s = np.linalg.svd(R, compute_uv=False)
        s_house = np.linalg.svd(np.linalg.qr(L, mode="r"), compute_uv=False)
        np.testing.assert_allclose(s, s_house, rtol=0, atol=64 * U_ROUND * s_house[0])
        (Q, R), took = routed(L, want_q=True)
        assert took == route
        np.testing.assert_allclose(Q.T @ Q, np.eye(n), rtol=0, atol=64 * U_ROUND)
        assert np.linalg.norm(Q @ R - L) <= 64 * U_ROUND * np.linalg.norm(L)

    @settings(max_examples=120, deadline=None)
    @given(m=st.integers(2, 80), n=st.integers(1, 12), rank=st.integers(0, 12),
           scale=st.sampled_from([1.0, 1e-160, 1e-150, 1e150, 1e160]),
           seed=st.integers(0, 2 ** 16))
    @example(m=40, n=6, rank=6, scale=1.0, seed=0)      # well conditioned: CholeskyQR2
    @example(m=40, n=6, rank=3, scale=1.0, seed=0)      # rank-deficient
    @example(m=40, n=6, rank=0, scale=1.0, seed=0)      # all zero
    @example(m=9, n=8, rank=8, scale=1e160, seed=0)     # the Gram overflows
    @example(m=9, n=8, rank=8, scale=1e-160, seed=0)    # the Gram underflows
    @example(m=50, n=2, rank=1, scale=1e-160, seed=0)   # subnormal Gram, rank-deficient
    @example(m=20, n=3, rank=2, scale=1e-160, seed=1)
    def test_one_sided_svd_on_tall_matrices_matches_lapack(self, m, n, rank, scale, seed):
        n, rng = min(n, m - 1), np.random.default_rng(seed)
        rank = min(rank, n)
        L = scale * (rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n)))
        check_one_sided(L, one_sided_svd(L))
        # rank-deficient, zero, far-outside and overflowing inputs fall back
        _, took = routed(L)
        s = np.linalg.svd(L, compute_uv=False)
        kappa = s[0] / s[-1] if s[-1] > 0 else math.inf
        if rank < n or kappa > 2 * kappa_max(m, n) or scale > 1e155:
            assert took == "householder"
        elif kappa < kappa_max(m, n) / 2 and scale == 1.0:
            assert took == "cholesky-qr2"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_goes_by_householder_unwarned(self, rng, n, bad):
        L = rng.standard_normal((20, n))
        L[3, 0] = bad
        _, took = routed(L)
        assert took == "householder"

    def test_square_and_wide_go_by_householder(self, rng):
        for shape in [(5, 5), (3, 7)]:
            R, took = routed(rng.standard_normal(shape))
            assert took == "householder" and R.shape == (min(shape), shape[1])

    def test_tt_round_sweep_leaves_row_orthonormal_cores(self, rng, monkeypatch):
        # tt-arith's shapes: the Hadamard product of two rank-8 trains of mode
        # size 16 has 64 x 16 x 64 cores, whose unfoldings reach _qr as 1024 x 64
        chain = (1, 8, 8, 8, 8, 1)
        trains = [TTTensor([np.linalg.qr(rng.standard_normal((chain[mu] * 16, chain[mu + 1])))[0]
                            .reshape(chain[mu], 16, chain[mu + 1]) for mu in range(5)])
                  for _ in range(2)]
        H = tt_hadamard(*trains)
        swept = []

        def spy(L, want_q=False):
            (Q, R), took = routed(L, want_q)
            swept.append((L.shape, took, Q))
            return Q, R

        monkeypatch.setattr("tenslab.tt._qr", spy)
        rounded = tt_round(H, ranks=H.ranks)
        # right to left: the last core is wide, and its 16 x 64 factor cuts
        # the next core's rank from 64 to 16
        assert [(shape, took) for shape, took, _ in swept] == [
            ((16, 64), "householder"), ((256, 64), "cholesky-qr2"),
            ((1024, 64), "cholesky-qr2"), ((1024, 64), "cholesky-qr2")]
        for _, _, Q in swept:
            # every core but the first becomes Q.T, whose rows are orthonormal
            np.testing.assert_allclose(Q.T @ Q, np.eye(Q.shape[1]), rtol=0, atol=1e-13)
        probes = rng.integers(1, 17, size=(20, 5)).tolist()
        want = np.array([tt_entry(H, index) for index in probes])
        got = np.array([tt_entry(rounded, index) for index in probes])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))


def lapack_shapes(M):
    """``svd(M)`` and the shape of each matrix it hands to ``np.linalg.svd``."""
    shapes, real = [], np.linalg.svd
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("tenslab.linalg.np.linalg.svd",
                   lambda a, *args, **kwargs: shapes.append(a.shape) or real(a, *args, **kwargs))
        res = svd(M)
    return res, shapes


class TestTallSVDRoute:
    """``svd`` hands LAPACK only the ``n x n`` triangle of a tall operand
    (``A``, or ``A.T`` for a wide ``A``) that ``_cholqr2`` admits, and every
    other operand whole."""

    @pytest.mark.parametrize("shape", [(300, 3), (1024, 64), (64, 1024)])
    def test_well_conditioned_reaches_lapack_as_its_triangle(self, rng, shape):
        k = min(shape)
        A = graded(rng, *shape, 0.9 * kappa_max(max(shape), k))
        res, shapes = lapack_shapes(A)
        assert shapes == [(k, k)]
        s_ref = np.linalg.svd(A, compute_uv=False)
        np.testing.assert_allclose(res.singular_values, s_ref, rtol=0,
                                   atol=64 * U_ROUND * s_ref[0])
        np.testing.assert_allclose(res.U.T @ res.U, np.eye(k), rtol=0, atol=64 * U_ROUND)
        np.testing.assert_allclose(res.V.T @ res.V, np.eye(k), rtol=0, atol=64 * U_ROUND)
        assert np.linalg.norm(res.reconstruct() - A) <= 64 * U_ROUND * np.linalg.norm(A)

    @pytest.mark.parametrize("transpose", [False, True], ids=["tall", "wide"])
    @pytest.mark.parametrize("case", ["outside-the-bound", "rank-deficient"])
    def test_others_reach_lapack_whole(self, rng, case, transpose):
        m, n = 1024, 64
        if case == "outside-the-bound":
            A = graded(rng, m, n, 1.1 * kappa_max(m, n))
        else:
            A = rng.standard_normal((m, n - 1)) @ rng.standard_normal((n - 1, n))
        M = A.T if transpose else A
        res, shapes = lapack_shapes(M)
        assert shapes == [(m, n)]
        assert np.linalg.norm(res.reconstruct() - M) <= 64 * U_ROUND * np.linalg.norm(M)

    @settings(max_examples=150, deadline=None)
    @given(m=st.integers(2, 80), n=st.integers(1, 12), rank=st.integers(0, 12),
           log_cond=st.floats(0, 8), seed=st.integers(0, 2 ** 16), transpose=st.booleans())
    @example(m=80, n=12, rank=12, log_cond=0.0, seed=0, transpose=False)    # CholeskyQR2
    @example(m=80, n=12, rank=12, log_cond=0.0, seed=0, transpose=True)
    @example(m=80, n=12, rank=12, log_cond=8.0, seed=0, transpose=False)    # outside the bound
    @example(m=40, n=6, rank=3, log_cond=1.0, seed=1, transpose=True)       # rank-deficient
    @example(m=40, n=6, rank=0, log_cond=0.0, seed=2, transpose=False)      # all zero
    def test_matches_lapack(self, m, n, rank, log_cond, seed, transpose):
        # measured on 3000 such matrices up to 200 x 12, on either route: singular
        # values within 14 u s_1, orthonormality within 28 u, reconstruction
        # within 98 u ||A||
        rng = np.random.default_rng(seed)
        n = min(n, m - 1)
        rank = min(rank, n)
        A = graded(rng, m, n, 10.0 ** log_cond) if rank == n else \
            rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
        A = A.T if transpose else A
        res = svd(A)
        s, U, V = res.singular_values, res.U, res.V
        s_ref = np.linalg.svd(A, compute_uv=False)
        assert U.shape == (A.shape[0], n) and V.shape == (A.shape[1], n)
        np.testing.assert_allclose(s, s_ref, rtol=0, atol=64 * U_ROUND * s_ref[0])
        np.testing.assert_allclose(U.T @ U, np.eye(n), rtol=0, atol=64 * U_ROUND)
        np.testing.assert_allclose(V.T @ V, np.eye(n), rtol=0, atol=64 * U_ROUND)
        assert np.linalg.norm(res.reconstruct() - A) <= 256 * U_ROUND * np.linalg.norm(A)
        for a in range(n):
            assert U[np.argmax(np.abs(U[:, a])), a] >= 0


class TestTruncation:
    def test_identity_truncation_error(self):
        n = 10
        for r in range(1, n):
            res = truncated_svd(np.eye(n), r)
            assert res.tail_energy(r) == 0.0
            err_sq = np.linalg.norm(np.eye(n) - res.reconstruct()) ** 2
            assert err_sq == pytest.approx(n - r, abs=1e-10)

    def test_scaled_identity(self):
        n, r = 8, 3
        D = np.eye(n) / math.sqrt(n)
        res = truncated_svd(D, r)
        err = np.linalg.norm(D - res.reconstruct())
        assert err == pytest.approx(math.sqrt(1 - r / n), rel=1e-12)

    def test_tol_zero_keeps_full_rank(self, rng):
        M = rng.standard_normal((5, 4))
        assert svd_to_tolerance(M, 0.0).rank == 4

    def test_error_matches_tail(self, rng):
        M = rng.standard_normal((6, 4))
        full = svd(M)
        res = truncated_svd(M, 2)
        err_sq = np.linalg.norm(M - res.reconstruct()) ** 2
        tail = np.sum(full.singular_values[2:] ** 2)
        assert err_sq == pytest.approx(tail, rel=1e-9)

    def test_tolerance_picks_smallest_rank(self, rng):
        M = (np.outer(rng.standard_normal(6), rng.standard_normal(5))
             + 1e-6 * rng.standard_normal((6, 5)))
        res = svd_to_tolerance(M, 1e-3)
        assert res.rank == 1

    def test_eckart_young_beats_random_competitors(self, rng):
        M = rng.standard_normal((8, 6))
        r = 3
        best = np.linalg.norm(M - truncated_svd(M, r).reconstruct())
        for _ in range(100):
            X = rng.standard_normal((8, r))
            Y = rng.standard_normal((6, r))
            # random rank-r competitor with optimally rescaled terms
            coeffs, *_ = np.linalg.lstsq(khatri_rao(X, Y), M.reshape(-1), rcond=None)
            comp = sum(coeffs[a] * np.outer(X[:, a], Y[:, a]) for a in range(r))
            assert best <= np.linalg.norm(M - comp) + 1e-12

    def test_rank_out_of_range(self, rng):
        with pytest.raises(ValueError):
            truncated_svd(rng.standard_normal((3, 3)), 4)


class TestPseudoInverse:
    def test_diagonal_with_zero(self):
        P = pseudo_inverse(np.diag([2.0, 0.0]))
        np.testing.assert_allclose(P, np.diag([0.5, 0.0]), atol=1e-14)

    def test_matches_inverse(self, rng):
        M = rng.standard_normal((4, 4)) + 4 * np.eye(4)
        np.testing.assert_allclose(pseudo_inverse(M), np.linalg.solve(M, np.eye(4)),
                                   atol=1e-10)

    def test_penrose_conditions(self, rng):
        A = rng.standard_normal((5, 3))
        P = pseudo_inverse(A)
        scale = 1e-9 * np.linalg.norm(A)
        assert np.linalg.norm(A @ P @ A - A) <= scale
        assert np.linalg.norm(P @ A @ P - P) <= scale
        assert np.linalg.norm((A @ P).T - A @ P) <= scale
        assert np.linalg.norm((P @ A).T - P @ A) <= scale


class TestKroneckerFamily:
    def test_vector_kronecker_ordering(self):
        a = np.array([[1.0], [2.0]])
        b = np.array([[3.0], [4.0], [5.0]])
        np.testing.assert_array_equal(
            kronecker(a, b).reshape(-1), [3, 4, 5, 6, 8, 10])

    def test_identity_scalar(self, rng):
        A = rng.standard_normal((3, 2))
        np.testing.assert_array_equal(kronecker(A, [[1.0]]), A)

    def test_mixed_product(self, rng):
        A, B = rng.standard_normal((3, 4)), rng.standard_normal((2, 5))
        C, D = rng.standard_normal((4, 2)), rng.standard_normal((5, 3))
        lhs = kronecker(A, B) @ kronecker(C, D)
        rhs = kronecker(A @ C, B @ D)
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(rhs)

    def test_khatri_rao_single_columns(self, rng):
        a, b = rng.standard_normal((3, 1)), rng.standard_normal((2, 1))
        np.testing.assert_allclose(khatri_rao(a, b), kronecker(a, b), atol=1e-15)

    def test_khatri_rao_columnwise(self, rng):
        A, B = rng.standard_normal((2, 2)), rng.standard_normal((3, 2))
        KR = khatri_rao(A, B)
        assert KR.shape == (6, 2)
        for a in range(2):
            np.testing.assert_allclose(
                KR[:, a], np.kron(A[:, a], B[:, a]), atol=1e-15)

    def test_khatri_rao_rejects_mismatch(self, rng):
        with pytest.raises(ValueError):
            khatri_rao(rng.standard_normal((2, 2)), rng.standard_normal((2, 3)))


class TestTracySingh:
    def test_single_blocks_equals_kronecker(self, rng):
        A, B = rng.standard_normal((2, 3)), rng.standard_normal((3, 2))
        np.testing.assert_allclose(tracy_singh(A, B), kronecker(A, B), atol=1e-15)

    def test_a_single_block_arrangement(self, rng):
        A = rng.standard_normal((2, 2))
        B = rng.standard_normal((2, 2))
        out = tracy_singh(A, B, b_row_splits=[1], b_col_splits=[1])
        blocks = [[np.kron(A, B[k:k + 1, l:l + 1]) for l in range(2)] for k in range(2)]
        np.testing.assert_allclose(out, np.block(blocks), atol=1e-15)

    def test_multiset_of_entries_preserved(self, rng):
        A, B = rng.standard_normal((4, 3)), rng.standard_normal((2, 4))
        out = tracy_singh(A, B, a_row_splits=[2], a_col_splits=[1],
                          b_row_splits=[1], b_col_splits=[2])
        assert out.shape == kronecker(A, B).shape
        np.testing.assert_allclose(np.sort(out.reshape(-1)),
                                   np.sort(kronecker(A, B).reshape(-1)), atol=1e-14)

    def test_bad_partition(self, rng):
        with pytest.raises(ValueError):
            tracy_singh(rng.standard_normal((2, 2)), rng.standard_normal((2, 2)),
                        a_row_splits=[5])

    @given(st.lists(st.integers(1, 5), min_size=4, max_size=4), st.data())
    def test_equals_the_loop_over_block_pairs(self, shape, data):
        splits = [sorted(data.draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
                  for n in shape]
        rng = np.random.default_rng(shape)
        A, B = rng.standard_normal(shape[:2]), rng.standard_normal(shape[2:])
        ar, ac, br, bc = ([0, *s, n] for s, n in zip(splits, shape))
        ref = np.block([[np.kron(A[ar[i]:ar[i + 1], ac[j]:ac[j + 1]],
                                 B[br[k]:br[k + 1], bc[l]:bc[l + 1]])
                         for j in range(len(ac) - 1) for l in range(len(bc) - 1)]
                        for i in range(len(ar) - 1) for k in range(len(br) - 1)])
        np.testing.assert_array_equal(tracy_singh(A, B, *splits), ref)


class TestCPProduct:
    def test_two_modes_is_xyt(self, rng):
        X, Y = rng.standard_normal((4, 3)), rng.standard_normal((5, 3))
        np.testing.assert_allclose(cp_product([X, Y]).data, X @ Y.T, atol=1e-13)

    def test_rank_one_unit_weights(self, rng):
        x, y, z = rng.standard_normal(2), rng.standard_normal(3), rng.standard_normal(4)
        out = cp_product([x.reshape(-1, 1), y.reshape(-1, 1), z.reshape(-1, 1)])
        np.testing.assert_allclose(out.data, np.einsum("i,j,k->ijk", x, y, z), atol=1e-14)

    def test_against_triple_loop(self, rng):
        X = [rng.standard_normal((3, 3)) for _ in range(3)]
        w = rng.standard_normal(3)
        out = cp_product(X, w)
        brute = np.zeros((3, 3, 3))
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    brute[i, j, k] = sum(
                        w[a] * X[0][i, a] * X[1][j, a] * X[2][k, a] for a in range(3))
        np.testing.assert_allclose(out.data, brute, atol=1e-12)

    def test_column_mismatch(self, rng):
        with pytest.raises(ValueError):
            cp_product([rng.standard_normal((2, 2)), rng.standard_normal((2, 3))])

    def test_malformed_factor_lists_name_the_shapes(self, rng):
        with pytest.raises(ValueError, match=r"\(2, 2\), \(2, 3\)"):
            cp_product([rng.standard_normal((2, 2)), rng.standard_normal((2, 3))])
        with pytest.raises(ValueError, match=r"one or more factor matrices.*\[\]"):
            cp_product([])

    @pytest.mark.parametrize("dims", [(5,), (4, 6), (3, 4, 5), (2, 3, 2, 3)])
    @pytest.mark.parametrize("extra", [-1, 0, 7])       # r < n_1, r = n_1, r > n_1
    def test_against_per_term_loop(self, rng, dims, extra):
        r = max(dims[0] + extra, 1)
        X = [rng.standard_normal((n, r)) for n in dims]
        w = rng.standard_normal(r)
        w[::3] = 0.0
        w[1::3] = -np.abs(w[1::3])
        ref = np.zeros(dims)
        for a in range(r):
            term = w[a] * X[0][:, a]
            for Y in X[1:]:
                term = np.multiply.outer(term, Y[:, a])
            ref += term
        out = cp_product(X, w)
        assert out.dims == dims
        assert np.linalg.norm(out.data - ref) <= 1e-13 * np.linalg.norm(ref)

    def test_memory_stays_within_a_few_outputs(self, rng):
        # 64 terms against n_1 = 4: the Khatri-Rao product of all terms at once
        # would be 16x the output
        X = [rng.standard_normal((n, 64)) for n in (4, 50, 50)]
        tracemalloc.start()
        try:
            out = cp_product(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * out.data.nbytes


class TestCUR:
    def test_exact_on_low_rank(self, rng):
        X, Y = rng.standard_normal((6, 2)), rng.standard_normal((6, 2))
        A = X @ Y.T
        rows, cols = greedy_cur_pivots(A, 2)
        approx, ahat = cur(A, rows, cols)
        assert ahat.shape == (2, 2)
        assert np.linalg.norm(approx - A) <= 1e-8 * np.linalg.norm(A)

    def test_full_selection_is_identity(self, rng):
        A = rng.standard_normal((4, 4)) + 4 * np.eye(4)
        approx, ahat = cur(A, [1, 2, 3, 4], [1, 2, 3, 4])
        np.testing.assert_allclose(approx, A, atol=1e-10)
        np.testing.assert_array_equal(ahat, A)

    def test_rank_one_max_pivot(self, rng):
        A = np.outer(rng.standard_normal(5), rng.standard_normal(4))
        i, j = np.unravel_index(np.argmax(np.abs(A)), A.shape)
        approx, _ = cur(A, [i + 1], [j + 1])
        np.testing.assert_allclose(approx, A, atol=1e-10 * np.abs(A).max())

    def test_singular_intersection_rejected(self):
        A = np.ones((3, 3))
        with pytest.raises(ValueError):
            cur(A, [1, 2], [1, 2])

    def test_empty_index_sets_rejected(self, rng):
        A = rng.standard_normal((3, 4))
        with pytest.raises(ValueError, match="empty index sets; CUR needs rank >= 1"):
            cur(A, [], [])
        for r in (0, -1):
            with pytest.raises(ValueError, match=f"rank {r} must be >= 1"):
                greedy_cur_pivots(A, r)


class TestBallVolume:
    def test_dimension_two(self):
        assert ball_volume(2, 1) == pytest.approx(2.0, abs=1e-12)
        assert ball_volume(2, 2) == pytest.approx(math.pi, abs=1e-12)
        assert ball_volume(2, math.inf) == pytest.approx(4.0, abs=1e-12)

    def test_dimension_one_all_norms(self):
        for p in (1, 2, math.inf):
            assert ball_volume(1, p) == pytest.approx(2.0, abs=1e-12)

    def test_ratio_is_factorial(self):
        for n in range(1, 11):
            ratio = ball_volume(n, math.inf, exact=True) / ball_volume(n, 1, exact=True)
            assert ratio == Fraction(math.factorial(n))

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            ball_volume(0, 2)


class TestRankRule:
    """One rank rule and one tolerance check for every truncating caller."""

    def test_tolerance_of_one_or_more_keeps_rank_one(self, rng):
        M = rng.standard_normal((6, 5))
        for tol in (1.0, 2.0, 1e6):
            assert svd_to_tolerance(M, tol).rank == 1

    def test_tolerance_zero_drops_exact_zero_singular_values(self, rng):
        M = np.outer(rng.standard_normal(5), rng.standard_normal(4))
        M[:, 0] = 0.0
        s = svd(M).singular_values
        expected = max(int(np.count_nonzero(s)), 1)
        assert svd_to_tolerance(M, 0.0).rank == expected
        assert svd_to_tolerance(np.zeros((4, 3)), 0.0).rank == 1

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -0.1])
    def test_rejected_tolerance_is_named(self, rng, tol):
        with pytest.raises(ValueError, match=f"got {tol!r}"):
            svd_to_tolerance(rng.standard_normal((3, 3)), tol)

    def test_rule_caps_and_floors(self):
        from tenslab.linalg import truncation_rank

        s = np.array([3.0, 2.0, 1.0, 0.0])
        assert truncation_rank(s) == 4
        assert truncation_rank(s, budget=0.0) == 3
        assert truncation_rank(s, budget=1.0) == 2
        assert truncation_rank(s, budget=5.0) == 1
        assert truncation_rank(s, budget=1e9) == 1
        assert truncation_rank(s, max_rank=2, budget=0.0) == 2
        assert truncation_rank(np.zeros(3), budget=0.0) == 1


class TestRankCutoff:
    """One numerical-rank rule, ``linalg._significant``, for every caller."""

    @pytest.mark.parametrize("s_min, kept", [(np.nextafter(RANK_CUTOFF, 1.0), True),
                                             (RANK_CUTOFF, False),
                                             (np.nextafter(RANK_CUTOFF, 0.0), False)])
    def test_boundary_table(self, s_min, kept):
        s = np.array([1.0, 0.5, s_min])
        assert _significant(s).tolist() == [True, True, kept]
        # relative to the largest value, in either order (eigh's is ascending)
        assert _significant(4.0 * s).tolist() == [True, True, kept]
        assert _significant(s[::-1]).tolist() == [kept, True, True]

    def test_zero_and_empty_spectra_keep_nothing(self):
        assert _significant(np.zeros(3)).tolist() == [False] * 3
        assert _significant(np.zeros(0)).tolist() == []
        np.testing.assert_array_equal(pseudo_inverse(np.zeros((2, 3))), np.zeros((3, 2)))

    @pytest.mark.parametrize("ratio, kept", [(2.0, True), (0.5, False)])
    def test_callers_decide_alike(self, ratio, kept):
        # LAPACK returns a sorted diagonal's singular values exactly
        M = np.diag([1.0, ratio * RANK_CUTOFF])
        assert svd(M).singular_values[1] == ratio * RANK_CUTOFF
        expected = 1.0 / (ratio * RANK_CUTOFF) if kept else 0.0
        np.testing.assert_array_equal(pseudo_inverse(M), np.diag([1.0, expected]))
        e1, e2 = np.eye(2)
        xs, ys = [e1, e1, e1], [e2, M[1], e2]
        if kept:
            np.testing.assert_allclose(cur(M, [1, 2], [1, 2])[0], M, rtol=0, atol=1e-15)
            border_rank_demo(xs, ys, 2.0)
        else:
            with pytest.raises(ValueError, match="numerically singular"):
                cur(M, [1, 2], [1, 2])
            with pytest.raises(ValueError, match="pair 2 is not linearly independent"):
                border_rank_demo(xs, ys, 2.0)

    def test_no_per_call_threshold(self):
        assert "rank_cutoff" not in inspect.signature(pseudo_inverse).parameters
        assert "rank_cutoff" not in inspect.signature(cur).parameters
        assert "boundary_tol" not in inspect.signature(rank222_classify).parameters


class TestTailBudget:
    """``hosvd``, ``svd_to_tolerance``, ``tt_svd`` and ``tt_round`` split a
    tolerance with ``linalg._tail_budget`` over d, 1, d-1 and d-1 truncations."""

    TOL = 0.1

    @pytest.fixture
    def budgets(self, monkeypatch):
        seen = []
        truncate_to = SVDResult.truncate_to

        def spy(self, max_rank=None, budget=None):
            seen.append(budget)
            return truncate_to(self, max_rank, budget)

        monkeypatch.setattr(SVDResult, "truncate_to", spy)
        return seen

    def test_the_split(self):
        assert _tail_budget(None, 2.0, 3) is None
        assert _tail_budget(0.3, 2.0, 1) == 0.3 ** 2 * 2.0
        assert _tail_budget(0.3, 2.0, 4) == 0.15 ** 2 * 2.0

    def test_hosvd_splits_over_d(self, rng, budgets):
        _, spectra = hosvd(rng.standard_normal((4, 5, 6)), [4, 5, 6], self.TOL)
        assert budgets == [_tail_budget(self.TOL, _sumsq(s), 3) for s in spectra]

    def test_svd_to_tolerance_takes_it_whole(self, rng, budgets):
        M = rng.standard_normal((5, 7))
        svd_to_tolerance(M, self.TOL)
        energy = _sumsq(svd(M).singular_values)
        assert budgets == [_tail_budget(self.TOL, energy, 1)]

    def test_tt_svd_splits_over_d_minus_1(self, rng, budgets):
        A = rng.standard_normal((3, 4, 3, 5))
        tt_svd(A, rel_tol=self.TOL)
        assert budgets == [_tail_budget(self.TOL, _sumsq(A), 3)] * 3

    def test_tt_round_splits_over_d_minus_1(self, rng, budgets):
        T, _ = tt_svd(rng.standard_normal((3, 4, 3, 5)))
        S = tt_add(T, T)
        energy = norm(tt_reconstruct(S)) ** 2
        budgets.clear()
        tt_round(S, rel_tol=self.TOL)
        assert len(budgets) == 3 and len(set(budgets)) == 1
        assert budgets[0] == pytest.approx(_tail_budget(self.TOL, energy, 3), rel=1e-12)
