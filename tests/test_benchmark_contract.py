"""The names ``benchmark/tracing.py`` wraps and reads must exist in tenslab.

The traced benchmark replaces functions by name and reads attributes of
their results, so a rename in ``src/`` that it does not follow would
otherwise only show up in a traced benchmark run.  These tests install
its tracer the way ``benchmark/run.py`` does and run tiny CLI jobs.
"""
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import tenslab
import tenslab.cli
import tenslab.io

_spec = importlib.util.spec_from_file_location(
    "benchmark_tracing", Path(__file__).resolve().parent.parent / "benchmark" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def _tenslab_namespaces() -> dict:
    return {(name, key): value
            for name, mod in list(sys.modules.items()) if name.startswith("tenslab")
            for key, value in vars(mod).items() if callable(value)}


@pytest.fixture
def tracer():
    before = _tenslab_namespaces()
    linalg, funcgrid = tenslab.linalg, tenslab.funcgrid
    methods = linalg.SVDResult.truncate, funcgrid.MonomialPoly.__call__
    t = tracing.Tracer()
    t.install(tenslab)
    try:
        yield t
    finally:
        t.uninstall()
    assert _tenslab_namespaces() == before
    assert (linalg.SVDResult.truncate, funcgrid.MonomialPoly.__call__) == methods


def _decompose(tracer, tmp_path, capsys, *argv) -> dict:
    src = tmp_path / "a.dten"
    tenslab.io.write_dense(tenslab.DenseTensor(np.random.default_rng(0).random((4, 4, 4))),
                           src)
    tracer.reset()
    code = tenslab.cli.main(["decompose", str(src), *argv, "--out", str(tmp_path / "m")])
    assert code == 0
    return dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())


def test_cp_span_counts_sweeps(tracer, tmp_path, capsys):
    rep = _decompose(tracer, tmp_path, capsys, "--method", "cp", "--rank", "2",
                     "--max-sweeps", "3")
    assert tracer.spans[0].name == "cli.main"
    layers = tracing.job_layers(tracer.spans, 1.0)
    assert layers["cp.cp_als.s"] > 0
    assert layers["cp.cp_als.sweeps"] == int(rep["sweeps"]) == 3


def test_hooi_span(tracer, tmp_path, capsys):
    _decompose(tracer, tmp_path, capsys, "--method", "hooi", "--rank", "2,2,2",
               "--max-sweeps", "3")
    layers = tracing.job_layers(tracer.spans, 1.0)
    assert layers["tucker.hooi.s"] > 0
    assert layers["linalg.svd.calls"] > 0


@pytest.mark.parametrize("method", ["hosvd", "hooi"])
def test_tolerance_truncation_records_kept_ranks(tracer, tmp_path, capsys, method):
    rep = _decompose(tracer, tmp_path, capsys, "--method", method, "--tol", "0.5")
    (hosvd,) = [s for s in tracer.spans if s.name == "tucker.hosvd"]
    svds = [s for s in tracer.spans if s.name == "linalg.svd" and s.parent is hosvd]
    assert [s.counts["kept"] for s in svds] == [int(r) for r in rep["achieved_rank"].split(",")]


def test_tt_tolerance_svd_spans_carry_work_and_kept_rank(tracer, tmp_path, capsys):
    rep = _decompose(tracer, tmp_path, capsys, "--method", "tt", "--tol", "0.5")
    svds = [s for s in tracer.spans if s.name == "linalg.svd"]
    assert len(svds) == 2
    assert all(s.counts["elements"] > 0 for s in svds)
    assert [s.counts["kept"] for s in svds] == [int(r) for r in rep["achieved_rank"].split(",")]


def test_cp_reconstruct_span_records_entries_around_khatri_rao(tracer, tmp_path, capsys):
    # 7 terms against n_1 = 3: three blocks, one Khatri-Rao product each
    rng = np.random.default_rng(0)
    factors = [rng.standard_normal((n, 7)) for n in (3, 4, 5)]
    src = tmp_path / "m.cpd"
    tenslab.io.write_cp(tenslab.CPDecomposition.from_factors(factors), src)
    tracer.reset()
    code = tenslab.cli.main(["reconstruct", str(src), "--out", str(tmp_path / "b.dten")])
    assert code == 0
    products = [s for s in tracer.spans if s.name == "linalg.cp_product"]
    assert [s.counts["entries"] for s in products] == [3 * 4 * 5]
    khatri_rao = [s for s in tracer.spans if s.name == "linalg.khatri_rao"]
    assert len(khatri_rao) == 3
    assert all(s.inside({"linalg.cp_product"}) for s in khatri_rao)
    layers = tracing.job_layers(tracer.spans, 1.0)
    assert layers["linalg.cp_product.entries"] == 3 * 4 * 5
    assert layers["linalg.khatri_rao.calls"] == 3
