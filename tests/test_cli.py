import json
import math
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import tenslab
import tenslab.linalg
from tenslab import DenseTensor, additive_tt, norm, zeros_tt
from tenslab.cli import main
from tenslab import CPDecomposition
from tenslab.io import read_dense, write_cp, write_dense, write_tt, write_tucker
from tenslab.tucker import TuckerDecomposition


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report(out: str) -> dict:
    pairs = [line.split("=", 1) for line in out.strip().splitlines() if "=" in line]
    return {k: v for k, v in pairs}


class TestInfo:
    def test_all_ones_cube(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "info", str(fixtures_dir / "ones222.dtent"))
        assert code == 0
        rep = report(out)
        assert rep["dims"] == "2x2x2"
        assert float(rep["z"]) == 8.0
        assert float(rep["norm2"]) == pytest.approx(2 * math.sqrt(2), rel=1e-15)

    def test_uniform_fill_norms(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "info", str(fixtures_dir / "eps.dtent"))
        assert code == 0
        rep = report(out)
        eps, N = 2.0 ** -9, 24
        assert float(rep["norminf"]) == eps
        assert float(rep["norm1"]) == eps * N
        assert float(rep["norm2"]) == pytest.approx(eps * math.sqrt(N), rel=1e-15)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("fill, bad", [(1.5e308, None), (-1.5e308, 1.5e308), (1.0, np.nan)],
                             ids=["overflow", "both-signs-overflow", "nan"])
    def test_non_finite_report_is_numeric_failure(self, capsys, tmp_path, fill, bad):
        A = np.full((3, 3), fill)
        A[0, 0] = A[0, 0] if bad is None else bad
        p = tmp_path / "a.dten"
        write_dense(DenseTensor(A), p)
        code, out, err = run(capsys, "info", str(p))
        assert (code, out) == (4, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_corrupted_magic_is_io_error(self, capsys, fixtures_dir):
        code, _, err = run(capsys, "info", str(fixtures_dir / "bad_magic.dten"))
        assert code == 3
        assert "byte offset" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "info", str(tmp_path / "nope.dten"))
        assert code == 3


class TestDecompose:
    @pytest.fixture
    def dense_file(self, rng, tmp_path):
        A = DenseTensor(rng.standard_normal((4, 4, 4)))
        p = tmp_path / "a.dten"
        write_dense(A, p)
        return p, A

    @pytest.mark.parametrize("method,rank", [
        ("cp", "2"), ("hosvd", "2,2,2"), ("hooi", "2,2,2"), ("tt", "2,2"),
    ])
    def test_round_trip_report(self, capsys, tmp_path, dense_file, method, rank):
        p, A = dense_file
        out_file = tmp_path / f"fit-{method}.bin"
        code, out, _ = run(capsys, "decompose", str(p), "--method", method,
                           "--rank", rank, "--seed", "3", "--out", str(out_file))
        assert code == 0
        rep = report(out)
        assert rep["method"] == method
        assert rep["dims"] == "4x4x4"
        assert out_file.exists()
        # reported error is recomputed from the written artifact
        code2, out2, _ = run(capsys, "error", str(p), str(out_file))
        assert code2 == 0
        assert float(report(out2)["rel_error"]) == pytest.approx(
            float(rep["rel_error"]), rel=1e-12)

    def test_tt_reports_step_qualities(self, capsys, tmp_path, dense_file):
        p, _ = dense_file
        out_file = tmp_path / "fit.tten"
        code, out, _ = run(capsys, "decompose", str(p), "--method", "tt",
                           "--rank", "2,2", "--out", str(out_file))
        rep = report(out)
        theta = float(rep["theta_1"]) * float(rep["theta_2"])
        assert float(rep["theta"]) == pytest.approx(theta, rel=1e-12)

    def test_exactly_one_of_rank_tol(self, capsys, tmp_path, dense_file):
        p, _ = dense_file
        out_file = tmp_path / "x.bin"
        code, _, err = run(capsys, "decompose", str(p), "--method", "tt",
                           "--out", str(out_file))
        assert code == 2
        code, _, err = run(capsys, "decompose", str(p), "--method", "tt",
                           "--rank", "2,2", "--tol", "0.1", "--out", str(out_file))
        assert code == 2

    def test_rank_arity_mismatch(self, capsys, tmp_path, dense_file):
        p, _ = dense_file
        code, _, err = run(capsys, "decompose", str(p), "--method", "hosvd",
                           "--rank", "2,2", "--out", str(tmp_path / "x.bin"))
        assert code == 2

    def test_tt_additive_fixture_error(self, capsys, tmp_path, rng):
        n = 10
        f, g, h = (rng.standard_normal(n) for _ in range(3))
        A = f[:, None, None] + g[None, :, None] + h[None, None, :]
        p = tmp_path / "add.dten"
        write_dense(DenseTensor(A), p)
        code, out, _ = run(capsys, "decompose", str(p), "--method", "tt",
                           "--rank", "2,2", "--out", str(tmp_path / "add.tten"))
        assert code == 0
        assert float(report(out)["rel_error"]) <= 1e-10

    def test_hosvd_full_rank_exact(self, capsys, tmp_path, dense_file):
        p, _ = dense_file
        code, out, _ = run(capsys, "decompose", str(p), "--method", "hosvd",
                           "--rank", "4,4,4", "--out", str(tmp_path / "t.tuck"))
        assert code == 0
        assert float(report(out)["rel_error"]) <= 1e-10

    def test_cp_on_rank3_fixture_surfaces_trace(self, capsys, tmp_path, fixtures_dir):
        code, out, _ = run(capsys, "decompose",
                           str(fixtures_dir / "rot222.dtent"), "--method", "cp",
                           "--rank", "2", "--max-sweeps", "60",
                           "--out", str(tmp_path / "ill.cpd"))
        assert code == 0
        rep = report(out)
        trace = [float(v) for v in rep["trace"].split(",")]
        # ill-posed fit: the trace is reported and does not collapse to zero
        assert len(trace) >= 2
        assert trace[-1] > 1e-6

    def test_nan_input_is_numeric_failure(self, capsys, tmp_path):
        A = np.full((2, 2), np.nan)
        p = tmp_path / "nan.dten"
        write_dense(DenseTensor(A), p)
        code, _, err = run(capsys, "decompose", str(p), "--method", "cp",
                           "--rank", "1", "--out", str(tmp_path / "x.cpd"))
        assert code == 4

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("method, rank", [("cp", "2"), ("hooi", "2,2,2")])
    @pytest.mark.parametrize("scale, bad", [(1e200, None), (1e-200, None), (1.0, np.nan)],
                             ids=["overflow", "underflow", "nan"])
    def test_alternating_solver_input_is_numeric_failure(self, capsys, tmp_path, rng,
                                                         method, rank, scale, bad):
        A = rng.standard_normal((4, 4, 4)) * scale
        A[0, 1, 2] = A[0, 1, 2] if bad is None else bad
        p = tmp_path / "a.dten"
        write_dense(DenseTensor(A), p)
        code, out, err = run(capsys, "decompose", str(p), "--method", method,
                             "--rank", rank, "--out", str(tmp_path / "x.model"))
        assert (code, out) == (4, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "x.model").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("exponent", [660, -660])
    def test_hosvd_tt_and_info_at_extreme_magnitudes(self, capsys, tmp_path, rng, exponent):
        # squares of 2**660 overflow and of 2**-660 underflow; norm2 scales
        # exactly, and rel_error and the step qualities theta_* are scale-free
        A = rng.standard_normal((6, 7, 8))
        fits = {"tt": "3,4", "hosvd": "3,3,4"}
        reports = []
        for name, B in (("one", A), ("scaled", np.ldexp(A, exponent))):
            p = tmp_path / f"{name}.dten"
            write_dense(DenseTensor(B), p)
            runs = {"info": run(capsys, "info", str(p))}
            for method, rank in fits.items():
                runs[method] = run(capsys, "decompose", str(p), "--method", method,
                                   "--rank", rank, "--out", str(tmp_path / f"{name}.{method}"))
            assert all((code, err) == (0, "") for code, _, err in runs.values())
            reports.append({key: report(out) for key, (_, out, _) in runs.items()})
        one, scaled = reports
        assert float(scaled["info"]["norm2"]) == pytest.approx(
            math.ldexp(float(one["info"]["norm2"]), exponent), rel=1e-12)
        for method in fits:
            keys = [k for k in one[method] if k == "rel_error" or k.startswith("theta")]
            assert len(keys) == (4 if method == "tt" else 1)
            for k in keys:
                assert float(scaled[method][k]) == pytest.approx(float(one[method][k]),
                                                                 rel=1e-12)

    def test_svd_non_convergence_is_numeric_failure(self, capsys, tmp_path, dense_file,
                                                    monkeypatch):
        # LinAlgError subclasses ValueError, which would otherwise mean usage
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr("tenslab.cli.hosvd", fail)
        p, _ = dense_file
        code, _, err = run(capsys, "decompose", str(p), "--method", "hosvd",
                           "--rank", "2,2,2", "--out", str(tmp_path / "x.tuck"))
        assert code == 4
        assert "did not converge" in err

    @pytest.mark.parametrize("method,rank", [("cp", "2"), ("hooi", "2,2,2"),
                                             ("hosvd", "2,2,2"), ("tt", "2,2")])
    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_bad_stop_tol_is_usage_error_naming_the_value(self, capsys, tmp_path,
                                                          dense_file, method, rank, tol):
        p, _ = dense_file
        out_file = tmp_path / "x.bin"
        code, _, err = run(capsys, "decompose", str(p), "--method", method, "--rank", rank,
                           "--stop-tol", tol, "--out", str(out_file))
        assert code == 2
        assert f"--stop-tol must be finite and >= 0, got {tol}" in err
        assert not out_file.exists()

    @pytest.mark.parametrize("method,rank", [("cp", "2"), ("hooi", "2,2,2"),
                                             ("hosvd", "2,2,2"), ("tt", "2,2")])
    @pytest.mark.parametrize("sweeps", ["0", "-5"])
    def test_bad_max_sweeps_is_usage_error_naming_the_value(self, capsys, tmp_path,
                                                            dense_file, method, rank, sweeps):
        p, _ = dense_file
        out_file = tmp_path / "x.bin"
        code, _, err = run(capsys, "decompose", str(p), "--method", method, "--rank", rank,
                           "--max-sweeps", sweeps, "--out", str(out_file))
        assert code == 2
        assert f"--max-sweeps must be >= 1, got {sweeps}" in err
        assert not out_file.exists()

    @pytest.mark.parametrize("method,rank", [("cp", "2"), ("hooi", "2,2,2")])
    def test_trace_is_per_sweep_squared_error(self, capsys, tmp_path, dense_file,
                                              method, rank):
        p, A = dense_file
        code, out, _ = run(capsys, "decompose", str(p), "--method", method, "--rank", rank,
                           "--out", str(tmp_path / "x.bin"))
        assert code == 0
        rep = report(out)
        trace = [float(v) for v in rep["trace"].split(",")]
        assert len(trace) == int(rep["sweeps"])
        assert trace[-1] == pytest.approx((float(rep["rel_error"]) * norm(A)) ** 2,
                                          rel=1e-8)

    def test_rank_deficient_cp_reports_flagged_sweeps(self, capsys, tmp_path, rng):
        A = np.einsum("i,j,k->ijk", *(rng.standard_normal(4) for _ in range(3)))
        p = tmp_path / "rank1.dten"
        write_dense(DenseTensor(A), p)
        code, out, _ = run(capsys, "decompose", str(p), "--method", "cp", "--rank", "3",
                           "--out", str(tmp_path / "x.cpd"))
        assert code == 0
        assert report(out)["flagged_sweeps"] != ""


class TestReconstructAndError:
    def test_round_trip_each_format(self, capsys, tmp_path, rng):
        from tenslab.cli import _densify
        from tenslab.io import read_decomposition

        A = DenseTensor(rng.standard_normal((3, 3, 3)))
        src = tmp_path / "a.dten"
        write_dense(A, src)
        for method, rank in (("cp", "2"), ("hosvd", "3,3,3"), ("tt", "3,3")):
            fit = tmp_path / f"f-{method}.bin"
            run(capsys, "decompose", str(src), "--method", method,
                "--rank", rank, "--out", str(fit))
            back = tmp_path / f"b-{method}.dten"
            code, out, _ = run(capsys, "reconstruct", str(fit), "--out", str(back))
            assert code == 0
            expected = _densify(read_decomposition(fit), None)
            rel = (np.linalg.norm(read_dense(back).data - expected.data)
                   / np.linalg.norm(expected.data))
            assert rel <= 1e-9
        # the lossless fits reproduce the input itself
        for method, rank in (("hosvd", "3,3,3"), ("tt", "3,3")):
            B = read_dense(tmp_path / f"b-{method}.dten")
            assert np.linalg.norm(B.data - A.data) <= 1e-9 * np.linalg.norm(A.data)

    def test_zero_core_reconstructs_zero(self, capsys, tmp_path, rng):
        U = np.linalg.qr(rng.standard_normal((3, 2)))[0]
        tuck = TuckerDecomposition(DenseTensor(np.zeros((2, 2))), [U, U.copy()])
        p = tmp_path / "z.tuck"
        write_tucker(tuck, p)
        out = tmp_path / "z.dten"
        code, _, _ = run(capsys, "reconstruct", str(p), "--out", str(out))
        assert code == 0
        np.testing.assert_array_equal(read_dense(out).data, np.zeros((3, 3)))

    def test_mismatched_dims_is_usage_error(self, capsys, tmp_path, rng):
        A = DenseTensor(rng.standard_normal((3, 3)))
        B = DenseTensor(rng.standard_normal((2, 2)))
        pa, pb = tmp_path / "a.dten", tmp_path / "b.dten"
        write_dense(A, pa)
        write_dense(B, pb)
        code, _, err = run(capsys, "error", str(pa), str(pb))
        assert code == 2
        assert "mismatch" in err

    def test_dense_cap_guard(self, capsys, tmp_path, rng):
        T = zeros_tt((50, 50, 50))
        p = tmp_path / "big.tten"
        write_tt(T, p)
        code, _, err = run(capsys, "--dense-cap", "1000", "reconstruct", str(p),
                           "--out", str(tmp_path / "big.dten"))
        assert code == 4
        assert "cap" in err

    @pytest.mark.parametrize("flag, variable", [("0", None), ("-3", None), (None, "0"),
                                                (None, "-3")])
    def test_cap_below_one_is_a_usage_error(self, capsys, tmp_path, monkeypatch, flag,
                                            variable):
        p = tmp_path / "z.tten"
        write_tt(zeros_tt((2, 2)), p)
        argv = ["reconstruct", str(p), "--out", str(tmp_path / "z.dten")]
        if flag is not None:
            argv = ["--dense-cap", flag, *argv]
        if variable is not None:
            monkeypatch.setenv("TENSLAB_DENSE_CAP", variable)
        code, _, err = run(capsys, *argv)
        assert code == 2
        name = "dense cap" if flag is not None else "TENSLAB_DENSE_CAP"
        assert f"{name} {flag or variable} must be >= 1" in err
        assert not (tmp_path / "z.dten").exists()

    @pytest.mark.parametrize("value", ["1e8", "lots", "10.5"])
    def test_non_integer_dense_cap_variable_is_a_usage_error(self, capsys, tmp_path,
                                                             monkeypatch, value):
        p = tmp_path / "z.tten"
        write_tt(zeros_tt((2, 2)), p)
        monkeypatch.setenv("TENSLAB_DENSE_CAP", value)
        code, _, err = run(capsys, "reconstruct", str(p), "--out", str(tmp_path / "z.dten"))
        assert code == 2
        assert f"TENSLAB_DENSE_CAP must be an integer, got {value!r}" in err


class TestMalformedModelFiles:
    """A model file the model constructor would reject is an I/O error (exit 3)."""

    def test_cp_non_unit_columns(self, capsys, tmp_path, rng):
        cp = CPDecomposition.from_factors([rng.standard_normal((3, 2))] * 2)
        cp.factors[0] *= 2.0
        p = tmp_path / "m.cpd"
        write_cp(cp, p)
        code, _, err = run(capsys, "reconstruct", str(p), "--out", str(tmp_path / "o.dten"))
        assert code == 3
        assert "unit-norm" in err

    def test_tucker_non_orthonormal_factors(self, capsys, tmp_path, rng):
        U = np.linalg.qr(rng.standard_normal((3, 2)))[0]
        tuck = TuckerDecomposition(DenseTensor(np.ones((2, 2))), [U, U.copy()])
        tuck.factors[1][0, 0] += 0.5
        p = tmp_path / "m.tuck"
        write_tucker(tuck, p)
        code, _, err = run(capsys, "reconstruct", str(p), "--out", str(tmp_path / "o.dten"))
        assert code == 3
        assert "orthonormal" in err

    def test_tt_of_order_zero(self, capsys, tmp_path):
        p = tmp_path / "m.tten"
        p.write_bytes(b"TTEN1\n" + struct.pack("<IQ", 0, 1))
        code, _, err = run(capsys, "tt", "z", str(p))
        assert code == 3
        assert "at least one core" in err

    def test_tt_interior_rank_zero(self, capsys, tmp_path):
        p = tmp_path / "m.tten"
        p.write_bytes(b"TTEN1\n" + struct.pack("<I5Q", 2, 2, 2, 1, 0, 1))
        code, _, err = run(capsys, "tt", "z", str(p))
        assert code == 3
        assert "must be positive" in err

    def test_tt_nan_core(self, capsys, tmp_path):
        T = additive_tt([np.ones(2), np.ones(3)])
        T.cores[1][0, 1, 0] = np.nan
        p = tmp_path / "m.tten"
        write_tt(T, p)
        code, out, err = run(capsys, "tt", "z", str(p))
        assert code == 3
        assert "non-finite" in err
        assert out == ""


class TestTTQueries:
    @pytest.fixture
    def additive_file(self, tmp_path, rng):
        n = 6
        fs = [rng.standard_normal(n) for _ in range(3)]
        T = additive_tt(fs)
        p = tmp_path / "t.tten"
        write_tt(T, p)
        return p, fs, n

    def test_partition_additive(self, capsys, additive_file):
        p, fs, n = additive_file
        code, out, _ = run(capsys, "tt", "z", str(p))
        assert code == 0
        expected = n * n * sum(f.sum() for f in fs)
        assert float(report(out)["z"]) == pytest.approx(expected, rel=1e-11)

    def test_partition_separable(self, capsys, tmp_path, rng):
        x, y = rng.standard_normal(4), rng.standard_normal(5)
        from tenslab import CPDecomposition, cp_to_tt
        cp = CPDecomposition.from_factors([x.reshape(-1, 1), y.reshape(-1, 1)])
        p = tmp_path / "sep.tten"
        write_tt(cp_to_tt(cp), p)
        code, out, _ = run(capsys, "tt", "z", str(p))
        assert float(report(out)["z"]) == pytest.approx(x.sum() * y.sum(), rel=1e-11)

    def test_marginal_matches_dense(self, capsys, additive_file):
        p, fs, n = additive_file
        code, out, _ = run(capsys, "tt", "marginal", str(p), "--mode", "2")
        assert code == 0
        values = [float(v) for v in report(out)["marginal"].split(",")]
        dense = (fs[0][:, None, None] + fs[1][None, :, None]
                 + fs[2][None, None, :]).sum(axis=(0, 2))
        np.testing.assert_allclose(values, dense, atol=1e-9)

    def test_entry(self, capsys, additive_file):
        p, fs, n = additive_file
        code, out, _ = run(capsys, "tt", "entry", str(p), "--index", "2,3,1")
        assert code == 0
        expected = fs[0][1] + fs[1][2] + fs[2][0]
        assert float(report(out)["entry"]) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("index", ["0,1,1", "1,2", "1,7,1"])
    def test_entry_bad_index_is_usage_error(self, capsys, additive_file, index):
        p, fs, n = additive_file
        code, _, err = run(capsys, "tt", "entry", str(p), "--index", index)
        assert code == 2
        assert f"({index.replace(',', ', ')})" in err          # names the index

    def test_query_on_non_tt_file(self, capsys, fixtures_dir):
        code, _, err = run(capsys, "tt", "z", str(fixtures_dir / "ones222.dtent"))
        assert code == 2


class TestGrid:
    def test_poly_file_with_sidecar(self, capsys, tmp_path, fixtures_dir):
        out, side = tmp_path / "g.dten", tmp_path / "g.cpd"
        code, text, _ = run(capsys, "grid", "--poly",
                            str(fixtures_dir / "poly_sumsquare.txt"),
                            "--mesh", "0:1:50,0:1:50",
                            "--out", str(out), "--cp-out", str(side))
        assert code == 0
        rep = report(text)
        assert rep["cp_rank"] == "3"
        A = read_dense(out)
        s = np.linalg.svd(A.data, compute_uv=False)
        assert s[3] / s[0] < 1e-10
        code, text, _ = run(capsys, "error", str(out), str(side))
        assert float(report(text)["rel_error"]) <= 1e-11

    def test_builtin_constant_rank_one(self, capsys, tmp_path):
        out, side = tmp_path / "c.dten", tmp_path / "c.cpd"
        code, text, _ = run(capsys, "grid", "--builtin", "constant",
                            "--mesh", "0:1:5,0:1:5,0:1:5",
                            "--out", str(out), "--cp-out", str(side))
        assert code == 0
        assert report(text)["cp_rank"] == "1"
        np.testing.assert_array_equal(read_dense(out).data, np.ones((5, 5, 5)))

    def test_mesh_file_input(self, capsys, tmp_path, fixtures_dir):
        out = tmp_path / "m.dten"
        code, text, _ = run(capsys, "grid", "--builtin", "sum-square",
                            "--mesh", str(fixtures_dir / "mesh2d.txt"),
                            "--out", str(out))
        assert code == 0
        assert report(text)["dims"] == "5x5"

    def test_arity_mismatch(self, capsys, tmp_path, fixtures_dir):
        code, _, err = run(capsys, "grid", "--poly",
                           str(fixtures_dir / "poly_sumsquare.txt"),
                           "--mesh", "0:1:4", "--out", str(tmp_path / "x.dten"))
        assert code == 2

    @pytest.mark.parametrize("spec,bad", [("nan:1:3,0:1:3", "nan"), ("0:inf:3,0:1:3", "inf"),
                                          ("0:1:3,-inf:1:3", "-inf")])
    def test_non_finite_inline_mesh_is_usage_error(self, capsys, tmp_path, spec, bad):
        out = tmp_path / "x.dten"
        code, _, err = run(capsys, "grid", "--builtin", "sum-square", f"--mesh={spec}",
                           "--out", str(out))
        assert code == 2
        assert f"mesh point {bad} is not finite" in err
        assert not out.exists()

    def test_overflowing_inline_mesh_span_is_usage_error(self, capsys, tmp_path):
        out = tmp_path / "x.dten"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(capsys, "grid", "--builtin", "constant",
                               "--mesh=-1e308:1e308:3", "--out", str(out))
        assert code == 2
        assert "lo=-1e+308, hi=1e+308" in err
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_mesh_file_is_io_error(self, capsys, tmp_path, bad):
        mesh, out = tmp_path / "mesh.txt", tmp_path / "x.dten"
        mesh.write_text(f"0 0.5 1\n0 {bad} 1\n")
        code, _, err = run(capsys, "grid", "--builtin", "sum-square", "--mesh", str(mesh),
                           "--out", str(out))
        assert code == 3
        assert f"mesh.txt:2: mesh point {bad} is not finite" in err
        assert not out.exists()


class TestRank222:
    def test_rotation_fixture(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "rank222", str(fixtures_dir / "rot222.dtent"))
        assert code == 0
        assert out.strip() == "delta=-4.0 class=Rank3"

    def test_diagonal_fixture(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "rank222", str(fixtures_dir / "diag222.dtent"))
        assert code == 0
        assert out.strip() == "delta=1.0 class=Rank2"

    def test_wrong_shape(self, capsys, fixtures_dir):
        code, _, err = run(capsys, "rank222", str(fixtures_dir / "eps.dtent"))
        assert code == 2

    @pytest.mark.parametrize("scale", [1e80, 1e-100])
    def test_class_at_extreme_scales(self, capsys, tmp_path, rng, scale):
        # the unscaled delta overflows at 1e80 and underflows at 1e-100
        A = rng.standard_normal((2, 2, 2))
        write_dense(DenseTensor(A), tmp_path / "a.dten")
        write_dense(DenseTensor(A * scale), tmp_path / "s.dten")
        _, out, _ = run(capsys, "rank222", str(tmp_path / "a.dten"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code, scaled, _ = run(capsys, "rank222", str(tmp_path / "s.dten"))
        assert code in (0, 4)
        if code == 0:
            assert scaled.split()[-1] == out.split()[-1]

    @pytest.mark.filterwarnings("error")
    def test_overflowing_delta_prints_no_warning(self, capsys, tmp_path, rng):
        A = rng.standard_normal((2, 2, 2))
        write_dense(DenseTensor(A), tmp_path / "a.dten")
        write_dense(DenseTensor(A * 1e80), tmp_path / "s.dten")
        _, out, _ = run(capsys, "rank222", str(tmp_path / "a.dten"))
        code, scaled, err = run(capsys, "rank222", str(tmp_path / "s.dten"))
        assert (code, err) == (0, "")
        delta, cls = scaled.split()
        assert delta in ("delta=inf", "delta=-inf", "delta=nan")
        assert cls == out.split()[-1]


class TestDeterminism:
    def test_repeat_runs_identical(self, capsys, tmp_path, rng):
        A = DenseTensor(rng.standard_normal((3, 3, 3)))
        src = tmp_path / "a.dten"
        write_dense(A, src)
        outputs = []
        for run_id in (1, 2):
            fit = tmp_path / f"fit{run_id}.cpd"
            code, out, _ = run(capsys, "decompose", str(src), "--method", "cp",
                               "--rank", "2", "--seed", "7", "--out", str(fit))
            assert code == 0
            stable = [l for l in out.splitlines()
                      if not l.startswith("wall_time") and "=" in l
                      and not l.startswith("out=")]
            outputs.append((stable, fit.read_bytes()))
        assert outputs[0][0] == outputs[1][0]
        assert outputs[0][1] == outputs[1][1]

    # the BLAS reads its thread count when numpy loads, so each count runs in
    # a child of its own; 40^3 is above OpenBLAS's threading threshold
    CHILD = ("import json, sys\nfrom tenslab.cli import main\n"
             "for argv in json.loads(sys.argv[1]):\n    print('exit', main(argv))\n")
    MODELS = {"cp": ("5", "cp.cpd"), "hooi": ("5,5,5", "hooi.tuck"),
              "hosvd": ("5,5,5", "hosvd.tuck"), "tt": ("5,5", "tt.tten")}

    def test_reports_and_files_do_not_depend_on_the_blas_thread_count(self, tmp_path, rng):
        write_dense(DenseTensor(rng.standard_normal((40, 40, 40))), tmp_path / "a.dten")
        commands = [["info", "../a.dten"]]
        for method, (rank, out) in self.MODELS.items():
            commands += [["decompose", "../a.dten", "--method", method, "--rank", rank,
                          "--max-sweeps", "5", "--out", out], ["error", "../a.dten", out]]
        runs = []
        for threads in ("1", "2"):
            cwd = tmp_path / f"threads{threads}"
            cwd.mkdir()
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([str(Path(tenslab.__file__).parents[1]),
                                                   os.environ.get("PYTHONPATH", "")]))
            done = subprocess.run([sys.executable, "-c", self.CHILD, json.dumps(commands)],
                                  cwd=cwd, env=env, capture_output=True, text=True, check=True)
            assert done.stderr == "" and done.stdout.count("exit 0") == len(commands)
            lines = [l for l in done.stdout.splitlines() if not l.startswith("wall_time")]
            runs.append((lines, [(cwd / out).read_bytes() for _, out in self.MODELS.values()]))
        assert runs[0] == runs[1]


class TestTolerance:
    """What ``--tol`` bounds per method, and which values it accepts."""

    @pytest.fixture
    def planted_tucker(self, rng, tmp_path):
        # 12^3 at multilinear ranks (3,3,3) plus 1e-3 relative noise
        factors = [np.linalg.qr(rng.standard_normal((12, 3)))[0] for _ in range(3)]
        A = np.einsum("abc,ia,jb,kc->ijk", rng.standard_normal((3, 3, 3)), *factors)
        noise = rng.standard_normal(A.shape)
        A += 1e-3 * np.linalg.norm(A) / np.linalg.norm(noise) * noise
        p = tmp_path / "planted.dten"
        write_dense(DenseTensor(A), p)
        return p

    @pytest.mark.parametrize("method", ["hosvd", "hooi"])
    def test_tucker_tol_finds_planted_ranks(self, capsys, tmp_path, planted_tucker, method):
        code, out, _ = run(capsys, "decompose", str(planted_tucker), "--method", method,
                           "--tol", "1e-2", "--out", str(tmp_path / "t.tuck"))
        assert code == 0
        rep = report(out)
        assert rep["achieved_rank"] == "3,3,3"
        assert float(rep["rel_error"]) <= 1e-2

    @pytest.mark.parametrize("method", ["tt", "hosvd", "hooi"])
    @pytest.mark.parametrize("tol", ["nan", "inf", "-0.1"])
    def test_bad_tol_is_usage_error_naming_the_value(self, capsys, tmp_path,
                                                     planted_tucker, method, tol):
        out_file = tmp_path / "x.bin"
        code, _, err = run(capsys, "decompose", str(planted_tucker), "--method", method,
                           "--tol", tol, "--out", str(out_file))
        assert code == 2
        assert f"--tol must be finite and >= 0, got {tol}" in err
        assert not out_file.exists()

    def test_bad_tol_is_rejected_before_the_input_is_read(self, capsys, tmp_path):
        code, _, err = run(capsys, "decompose", str(tmp_path / "missing.dten"),
                           "--method", "tt", "--tol", "nan", "--out", str(tmp_path / "x"))
        assert code == 2
        assert "--tol" in err

    @pytest.mark.parametrize("method, rank_args, named", [
        ("tt", [], "exactly one of --rank and --tol"),
        ("cp", ["--rank", "2,3"], "cp takes one --rank value"),
        ("cp", ["--tol", "0.1"], "cp takes one --rank value"),
    ], ids=["no-rank-no-tol", "cp-two-ranks", "cp-tol"])
    def test_usage_error_in_argv_is_reported_before_the_input_is_read(
            self, capsys, tmp_path, method, rank_args, named):
        code, _, err = run(capsys, "decompose", str(tmp_path / "missing.dten"),
                           "--method", method, *rank_args, "--out", str(tmp_path / "x"))
        assert code == 2
        assert named in err

    @pytest.mark.parametrize("method", ["tt", "hosvd", "hooi"])
    def test_tol_run_reports_no_requested_rank(self, capsys, tmp_path, planted_tucker,
                                               method):
        code, out, _ = run(capsys, "decompose", str(planted_tucker), "--method", method,
                           "--tol", "1e-2", "--out", str(tmp_path / "m"))
        assert code == 0
        rep = report(out)
        assert rep["requested_tol"] == "0.01"
        assert "requested_rank" not in rep

    @pytest.fixture
    def svd_shapes(self, monkeypatch):
        """Shapes of the matrices handed to ``linalg.svd`` from any module."""
        original, shapes = tenslab.linalg.svd, []

        def counted(M):
            shapes.append(np.shape(M))
            return original(M)

        for name, module in list(sys.modules.items()):
            if name.startswith("tenslab"):
                for key, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, key, counted)
        return shapes

    def test_hosvd_tol_takes_one_svd_per_mode(self, capsys, tmp_path, planted_tucker,
                                              svd_shapes):
        code, _, _ = run(capsys, "decompose", str(planted_tucker), "--method", "hosvd",
                         "--tol", "1e-2", "--out", str(tmp_path / "t.tuck"))
        assert code == 0
        # one factorization per mode, on nothing larger than n_mu x n_mu
        assert len(svd_shapes) == 3
        assert all(max(shape) <= 12 for shape in svd_shapes), svd_shapes

    def test_hooi_tol_adds_one_svd_per_mode_and_sweep(self, capsys, tmp_path,
                                                      planted_tucker, svd_shapes):
        code, out, _ = run(capsys, "decompose", str(planted_tucker), "--method", "hooi",
                           "--tol", "1e-2", "--max-sweeps", "3", "--stop-tol", "0",
                           "--out", str(tmp_path / "t.tuck"))
        assert code == 0
        assert len(svd_shapes) == 3 + 3 * int(report(out)["sweeps"])

    def test_tucker_tol_above_one_keeps_rank_one(self, capsys, tmp_path, planted_tucker):
        code, out, _ = run(capsys, "decompose", str(planted_tucker), "--method", "hosvd",
                           "--tol", "2", "--out", str(tmp_path / "t.tuck"))
        assert code == 0
        assert report(out)["achieved_rank"] == "1,1,1"

    @pytest.mark.parametrize("method", ["hosvd", "hooi"])
    def test_zero_tensor_keeps_rank_one(self, capsys, tmp_path, method):
        p = tmp_path / "zero.dten"
        write_dense(DenseTensor(np.zeros((3, 3, 3))), p)
        code, out, _ = run(capsys, "decompose", str(p), "--method", method,
                           "--tol", "0.1", "--out", str(tmp_path / "z.tuck"))
        assert code == 0
        rep = report(out)
        assert rep["achieved_rank"] == "1,1,1"
        assert float(rep["rel_error"]) == 0.0


class TestDenseCapEveryFormat:
    @pytest.mark.parametrize("suffix", ["cpd", "tuck"])
    def test_reconstruct_above_cap_is_numeric_failure(self, capsys, tmp_path, rng, suffix):
        A = DenseTensor(rng.standard_normal((10, 10, 10)))
        src = tmp_path / "a.dten"
        write_dense(A, src)
        method, rank = {"cpd": ("cp", "2"), "tuck": ("hosvd", "2,2,2")}[suffix]
        fit = tmp_path / f"fit.{suffix}"
        code, _, _ = run(capsys, "decompose", str(src), "--method", method,
                         "--rank", rank, "--out", str(fit))
        assert code == 0
        out = tmp_path / "back.dten"
        code, _, err = run(capsys, "--dense-cap", "999", "reconstruct", str(fit),
                           "--out", str(out))
        assert code == 4
        assert "cap 999" in err
        assert not out.exists()
        code, _, err = run(capsys, "--dense-cap", "999", "error", str(src), str(fit))
        assert code == 4
