import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import tenslab.tucker

from tenslab import (
    ALSOptions,
    ALSTrace,
    DenseTensor,
    hooi,
    hosvd,
    matricize,
    multilinear_apply,
    norm,
    svd_to_tolerance,
    tucker_reconstruct,
)


def random_orthonormal(rng, n, r):
    return np.linalg.qr(rng.standard_normal((n, r)))[0]


class TestMultilinearApply:
    def test_identity_matrices(self, rng):
        A = DenseTensor(rng.standard_normal((2, 3, 4)))
        out = multilinear_apply(A, [np.eye(2), np.eye(3), np.eye(4)])
        np.testing.assert_allclose(out.data, A.data, atol=1e-14)

    def test_orthogonal_norm_invariance(self, rng):
        A = DenseTensor(rng.standard_normal((3, 3, 3)))
        mats = [np.linalg.qr(rng.standard_normal((3, 3)))[0] for _ in range(3)]
        out = multilinear_apply(A, mats)
        assert norm(out) == pytest.approx(norm(A), rel=1e-12)

    def test_rank_one_action(self, rng):
        x, y, z = rng.standard_normal(3), rng.standard_normal(4), rng.standard_normal(2)
        M, N, P = (rng.standard_normal((3, 3)), rng.standard_normal((4, 4)),
                   rng.standard_normal((2, 2)))
        A = DenseTensor(np.einsum("i,j,k->ijk", x, y, z))
        out = multilinear_apply(A, [M.T, N.T, P.T])
        expected = np.einsum("i,j,k->ijk", M.T @ x, N.T @ y, P.T @ z)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_transpose_flag_is_basis_change(self, rng):
        A = DenseTensor(rng.standard_normal((3, 4)))
        M = rng.standard_normal((3, 2))
        N = rng.standard_normal((4, 2))
        out = multilinear_apply(A, [M.T, N.T])
        np.testing.assert_allclose(out.data, M.T @ A.data @ N, atol=1e-12)

    def test_composition_law(self, rng):
        A = DenseTensor(rng.standard_normal((3, 3, 3)))
        Ms = [rng.standard_normal((3, 3)) for _ in range(3)]
        Ns = [rng.standard_normal((3, 3)) for _ in range(3)]
        seq = multilinear_apply(multilinear_apply(A, Ms), Ns)
        joint = multilinear_apply(A, [N @ M for M, N in zip(Ms, Ns)])
        np.testing.assert_allclose(seq.data, joint.data, atol=1e-11)

    def test_per_mode_flags_and_none(self, rng):
        A = DenseTensor(rng.standard_normal((2, 3)))
        M = rng.standard_normal((2, 4))
        out = multilinear_apply(A, [M.T, None])
        np.testing.assert_allclose(out.data, M.T @ A.data, atol=1e-13)

    def test_shape_mismatch(self, rng):
        A = DenseTensor(rng.standard_normal((2, 3)))
        with pytest.raises(ValueError):
            multilinear_apply(A, [np.eye(3), np.eye(3)])


class TestTuckerType:
    def test_non_orthonormal_factors_rejected(self, rng):
        from tenslab import TuckerDecomposition
        core = DenseTensor(rng.standard_normal((2, 2)))
        U = rng.standard_normal((4, 2))
        with pytest.raises(ValueError, match="orthonormal"):
            TuckerDecomposition(core, [U, U.copy()])


class TestHOSVD:
    def test_full_rank_exact(self, rng):
        A = DenseTensor(rng.standard_normal((3, 4, 2)))
        tuck, _ = hosvd(A, (3, 4, 2))
        recon = tucker_reconstruct(tuck)
        assert norm(DenseTensor(A.data - recon.data)) <= 1e-10 * norm(A)

    def test_factor_orthonormality(self, rng):
        A = DenseTensor(rng.standard_normal((4, 4, 4)))
        tuck, _ = hosvd(A, (2, 3, 4))
        for U in tuck.factors:
            np.testing.assert_allclose(U.T @ U, np.eye(U.shape[1]), atol=1e-10)

    def test_slice_orthogonality_and_norms(self, rng):
        A = DenseTensor(rng.standard_normal((4, 4, 4)))
        tuck, spectra = hosvd(A, (4, 4, 4))
        for mu in range(1, 4):
            M = matricize(A, mu).data          # columns indexed by mode mu
            S = M @ tuck.factors[mu - 1]       # vectorized slices in the new basis
            sv = spectra[mu - 1]
            G = S.T @ S
            for k in range(4):
                assert np.sqrt(G[k, k]) == pytest.approx(sv[k], abs=1e-10 * sv[0])
                for l in range(k + 1, 4):
                    assert abs(G[k, l]) <= 1e-10 * max(sv[k] * sv[l], 1e-30)

    def test_energy_split(self, rng):
        A = DenseTensor(rng.standard_normal((5, 5, 5)))
        tuck, _ = hosvd(A, (2, 2, 2))
        err_sq = norm(DenseTensor(A.data - tucker_reconstruct(tuck).data)) ** 2
        assert norm(A) ** 2 == pytest.approx(norm(tuck.core) ** 2 + err_sq,
                                             rel=1e-9)

    def test_truncation_nesting(self, rng):
        A = DenseTensor(rng.standard_normal((5, 4, 3)))
        small, _ = hosvd(A, (2, 2, 2))
        large, _ = hosvd(A, (4, 3, 3))
        for U_small, U_large in zip(small.factors, large.factors):
            np.testing.assert_allclose(U_small, U_large[:, :U_small.shape[1]],
                                       atol=1e-12)

    def test_rank_out_of_range(self, rng):
        with pytest.raises(ValueError):
            hosvd(rng.standard_normal((2, 2, 2)), (3, 1, 1))

    @given(dims=st.lists(st.integers(2, 5), min_size=2, max_size=4),
           tol=st.floats(0.0, 1.5), seed=st.integers(0, 2 ** 32 - 1))
    def test_tolerance_splits_evenly_over_the_modes(self, dims, tol, seed):
        A = DenseTensor(np.random.default_rng(seed).standard_normal(dims))
        d = len(dims)
        tuck, _ = hosvd(A, A.dims, rel_tol=tol)
        per_mode = tol / math.sqrt(d)
        assert list(tuck.ranks) == [svd_to_tolerance(matricize(A, mu).data, per_mode).rank
                                    for mu in range(1, d + 1)]
        err = norm(DenseTensor(A.data - tucker_reconstruct(tuck).data))
        assert err <= (tol + 1e-12) * norm(A)

    def test_tolerance_ranks_are_capped(self, rng):
        A = DenseTensor(rng.standard_normal((4, 5, 3)))
        assert hosvd(A, (2, 5, 1), rel_tol=0.0)[0].ranks == (2, 5, 1)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -0.1])
    def test_bad_tolerance(self, rng, tol):
        with pytest.raises(ValueError, match="rel_tol"):
            hosvd(rng.standard_normal((2, 2, 2)), (2, 2, 2), rel_tol=tol)


class TestTuckerReconstruct:
    def test_zero_core(self, rng):
        tuck, _ = hosvd(DenseTensor(rng.standard_normal((3, 3, 3))), (2, 2, 2))
        tuck.core.data[...] = 0.0
        np.testing.assert_array_equal(tucker_reconstruct(tuck).data,
                                      np.zeros((3, 3, 3)))

    def test_round_trip(self, rng):
        A = DenseTensor(rng.standard_normal((3, 2, 4)))
        tuck, _ = hosvd(A, (3, 2, 4))
        np.testing.assert_allclose(tucker_reconstruct(tuck).data, A.data, atol=1e-10)

    def test_pythagoras_any_orthonormal_factors(self, rng):
        A = DenseTensor(rng.standard_normal((4, 4, 4)))
        factors = [random_orthonormal(rng, 4, 2) for _ in range(3)]
        core = multilinear_apply(A, [U.T for U in factors])
        recon = multilinear_apply(core, factors)
        err_sq = norm(DenseTensor(A.data - recon.data)) ** 2
        assert err_sq == pytest.approx(norm(A) ** 2 - norm(core) ** 2, rel=1e-10)


class TestHOOI:
    def test_exact_recovery_of_synthetic(self, rng):
        core = rng.standard_normal((2, 2, 2))
        factors = [random_orthonormal(rng, 5, 2) for _ in range(3)]
        A = multilinear_apply(core, factors)
        tuck, trace = hooi(A, (2, 2, 2), ALSOptions(max_sweeps=30))
        assert math.sqrt(trace.final) <= 1e-9 * norm(A)

    def test_improves_on_hosvd(self, rng):
        for _ in range(5):
            A = DenseTensor(rng.standard_normal((5, 5, 5)))
            t_hosvd, _ = hosvd(A, (2, 2, 2))
            e_hosvd = norm(DenseTensor(A.data - tucker_reconstruct(t_hosvd).data))
            _, trace = hooi(A, (2, 2, 2), ALSOptions(max_sweeps=30))
            assert math.sqrt(trace.final) <= e_hosvd + 1e-12

    def test_error_trace_monotone(self, rng):
        A = DenseTensor(rng.standard_normal((5, 5, 5)))
        _, trace = hooi(A, (2, 2, 2), ALSOptions(max_sweeps=30))
        slack = 1e-10 * norm(A) ** 2
        sweeps = [trace.initial] + trace.per_sweep
        assert all(b <= a + slack for a, b in zip(sweeps, sweeps[1:]))
        blocks = [trace.initial] + trace.per_block
        assert all(b <= a + slack for a, b in zip(blocks, blocks[1:]))

    def test_full_ranks_single_sweep(self, rng):
        A = DenseTensor(rng.standard_normal((3, 3, 3)))
        _, trace = hooi(A, (3, 3, 3), ALSOptions(max_sweeps=1))
        assert math.sqrt(trace.final) <= 1e-10 * norm(A)

    def test_factor_orthonormality_and_energy(self, rng):
        A = DenseTensor(rng.standard_normal((4, 4, 4)))
        tuck, trace = hooi(A, (2, 3, 2), ALSOptions(max_sweeps=20))
        for U in tuck.factors:
            np.testing.assert_allclose(U.T @ U, np.eye(U.shape[1]), atol=1e-10)
        assert norm(A) ** 2 == pytest.approx(norm(tuck.core) ** 2 + trace.final,
                                             rel=1e-9)

    def test_tolerance_picks_the_hosvd_ranks_not_the_stop_rule(self, rng):
        A = DenseTensor(rng.standard_normal((5, 4, 3)))
        start, _ = hosvd(A, A.dims, rel_tol=0.6)
        tuck, trace = hooi(A, A.dims, ALSOptions(max_sweeps=3, rel_tol=0.0), rel_tol=0.6)
        assert tuck.ranks == start.ranks != A.dims
        assert math.sqrt(trace.final) <= 0.6 * norm(A)

    def test_zero_tensor_stops_after_one_sweep(self):
        _, trace = hooi(np.zeros((3, 3, 3)), (2, 2, 2))
        assert (trace.initial, trace.per_sweep) == (0.0, [0.0])

    @given(dims=st.lists(st.integers(2, 4), min_size=2, max_size=4),
           data=st.data(), seed=st.integers(0, 2 ** 16))
    def test_energy_error_matches_dense_residual(self, dims, data, seed):
        ranks = [data.draw(st.integers(1, min(n, 4))) for n in dims]
        A = DenseTensor(np.random.default_rng(seed).standard_normal(dims))
        tuck, trace = hooi(A, ranks, ALSOptions(max_sweeps=4))
        dense = norm(DenseTensor(A.data - tucker_reconstruct(tuck).data))
        assert abs(math.sqrt(trace.final) - dense) <= 1e-10 * norm(A)

    def test_sweeps_do_not_densify(self, rng, monkeypatch):
        calls = []
        original = tenslab.tucker.multilinear_apply

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(tenslab.tucker, "multilinear_apply", counting)
        A = DenseTensor(rng.standard_normal((5, 5, 5)))
        _, trace = hooi(A, (2, 2, 2), ALSOptions(max_sweeps=4, rel_tol=0.0))
        sweeps = len(trace.per_sweep)
        # the HOSVD core, one projection per mode step, and the final core
        assert len(calls) == 1 + 3 * sweeps + 1


class TestOneOptionsContract:
    def test_unknown_init_rejected(self):
        with pytest.raises(ValueError, match="bogus"):
            ALSOptions(init="bogus")

    def test_zero_tolerance_stops_only_at_an_exact_zero(self):
        values = [0.5, 0.5, 0.5 + 1e-16, 0.0]
        for rel_tol, stops in [(0.0, [False, False, False, True]), (0.1, [False, True])]:
            trace = ALSTrace(initial=1.0)
            for value, stop in zip(values, stops):
                trace.per_block.append(value)
                assert trace.end_sweep(rel_tol, 1.0) is stop

    @pytest.mark.parametrize("seed", range(8))
    def test_hooi_zero_tolerance_runs_every_sweep(self, seed):
        # a planted Tucker tensor with 1e-3 noise: the sweep values agree to
        # roundoff from the first sweep on, so any roundoff rise would stop it
        rng = np.random.default_rng(seed)
        n, r = 12, 4
        core = rng.standard_normal((r, r, r))
        Y = multilinear_apply(core, [random_orthonormal(rng, n, r) for _ in range(3)]).data
        E = rng.standard_normal(Y.shape)
        Y = Y + E * (1e-3 * np.linalg.norm(Y) / np.linalg.norm(E))
        _, trace = hooi(Y, (r, r, r), ALSOptions(max_sweeps=5, rel_tol=0.0))
        assert len(trace.per_sweep) == 5


class TestDenseCap:
    def test_reconstruct_refuses_above_cap(self, rng, monkeypatch):
        from tenslab.dense import DenseCapError

        tuck, _ = hosvd(rng.standard_normal((10, 10, 10)), (2, 2, 2))
        with pytest.raises(DenseCapError, match="cap 999"):
            tucker_reconstruct(tuck, cap=999)
        monkeypatch.setenv("TENSLAB_DENSE_CAP", "123")
        with pytest.raises(DenseCapError, match="cap 123"):
            tucker_reconstruct(tuck)
        assert tucker_reconstruct(tuck, cap=1000).dims == (10, 10, 10)
