import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tenslab import (
    CPDecomposition,
    DenseTensor,
    MonomialPoly,
    hosvd,
    tt_reconstruct,
    tt_svd,
    tucker_reconstruct,
)
from tenslab.io import (
    FormatError,
    read_cp,
    read_decomposition,
    read_dense,
    read_meshes,
    read_poly,
    read_tt,
    read_tucker,
    write_cp,
    write_dense,
    write_meshes,
    write_poly,
    write_tt,
    write_tucker,
)
from tenslab.funcgrid import Mesh
from tenslab.tucker import TuckerDecomposition


def _binary_cases():
    """Per format: writer, reader, a model, its magic, its header fields as
    ``(struct code, values)`` in file order, and its f64 blocks in file order."""
    rng = np.random.default_rng(11)
    A = DenseTensor(rng.standard_normal((3, 2, 4)))
    cp = CPDecomposition.from_factors([rng.standard_normal((n, 2)) for n in A.dims])
    tucker = hosvd(A, (2, 2, 3))[0]
    tt = tt_svd(A, ranks=(2, 2))[0]
    return {
        "DTEN1": (write_dense, read_dense, A, b"DTEN1\n",
                  [("I", [3]), ("Q", [3, 2, 4])], lambda m: [m.data]),
        "CPD1": (write_cp, read_cp, cp, b"CPD1\n",
                 [("I", [3, 2]), ("Q", [3, 2, 4])], lambda m: [m.weights, *m.factors]),
        "TUCK1": (write_tucker, read_tucker, tucker, b"TUCK1\n",
                  [("I", [3]), ("Q", [3, 2, 4]), ("Q", [2, 2, 3])],
                  lambda m: [m.core.data, *m.factors]),
        "TTEN1": (write_tt, read_tt, tt, b"TTEN1\n",
                  [("I", [3]), ("Q", [3, 2, 4]), ("Q", [1, 2, 2, 1])], lambda m: m.cores),
    }


BINARY_CASES = _binary_cases()


class TestDenseFormats:
    def test_binary_round_trip(self, rng, tmp_path):
        A = DenseTensor(rng.standard_normal((3, 4, 2)))
        p = tmp_path / "a.dten"
        write_dense(A, p)
        assert read_dense(p) == A

    def test_text_round_trip(self, rng, tmp_path):
        A = DenseTensor(rng.standard_normal((2, 5)))
        p = tmp_path / "a.dtent"
        write_dense(A, p)
        assert read_dense(p) == A

    @pytest.mark.parametrize("fmt", BINARY_CASES)
    def test_layout_is_documented_binary(self, tmp_path, fmt):
        # decoded by hand from the io module docstring: magic, header fields
        # in order, then each block's values row-major, nothing after them
        write, _, model, magic, fields, blocks = BINARY_CASES[fmt]
        p = tmp_path / "f.bin"
        write(model, p)
        blob = p.read_bytes()
        assert blob[:len(magic)] == magic
        pos = len(magic)
        for code, expected in fields:
            layout = f"<{len(expected)}{code}"
            assert list(struct.unpack_from(layout, blob, pos)) == expected
            pos += struct.calcsize(layout)
        for block in blocks(model):
            values = block.reshape(-1).tolist()
            assert np.frombuffer(blob, "<f8", len(values), pos).tolist() == values
            pos += 8 * len(values)
        assert pos == len(blob)

    def test_bad_magic_names_offset(self, fixtures_dir):
        with pytest.raises(FormatError, match="byte offset 2"):
            read_dense(fixtures_dir / "bad_magic.dten")

    def test_truncated_file(self, tmp_path):
        p = tmp_path / "a.dten"
        p.write_bytes(b"DTEN1\n" + (3).to_bytes(4, "little"))
        with pytest.raises(FormatError, match="truncated"):
            read_dense(p)

    def test_trailing_bytes_rejected(self, tmp_path, rng):
        A = DenseTensor(rng.standard_normal((2, 2)))
        p = tmp_path / "a.dten"
        write_dense(A, p)
        p.write_bytes(p.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="trailing"):
            read_dense(p)

    def test_malformed_text(self, tmp_path):
        p = tmp_path / "a.dtent"
        p.write_text("2\n2 2\n1 2 3 oops\n")
        with pytest.raises(FormatError):
            read_dense(p)

    def test_fixture_values(self, fixtures_dir):
        A = read_dense(fixtures_dir / "ones222.dtent")
        assert A.dims == (2, 2, 2)
        np.testing.assert_array_equal(A.data, np.ones((2, 2, 2)))


class TestDecompositionFormats:
    def test_cp_round_trip(self, rng, tmp_path):
        cp = CPDecomposition.from_factors([rng.standard_normal((4, 3))
                                           for _ in range(3)],
                                          rng.uniform(1, 2, 3))
        p = tmp_path / "m.cpd"
        write_cp(cp, p)
        back = read_cp(p)
        np.testing.assert_array_equal(back.weights, cp.weights)
        for X, Y in zip(back.factors, cp.factors):
            np.testing.assert_array_equal(X, Y)

    def test_tucker_round_trip(self, rng, tmp_path):
        A = DenseTensor(rng.standard_normal((4, 3, 5)))
        tuck, _ = hosvd(A, (2, 2, 3))
        p = tmp_path / "m.tuck"
        write_tucker(tuck, p)
        back = read_tucker(p)
        np.testing.assert_array_equal(back.core.data, tuck.core.data)
        np.testing.assert_allclose(tucker_reconstruct(back).data,
                                   tucker_reconstruct(tuck).data, atol=1e-14)

    def test_tt_round_trip(self, rng, tmp_path):
        A = DenseTensor(rng.standard_normal((3, 4, 3)))
        T, _ = tt_svd(A, ranks=(2, 2))
        p = tmp_path / "m.tten"
        write_tt(T, p)
        back = read_tt(p)
        assert back.ranks == T.ranks
        np.testing.assert_array_equal(tt_reconstruct(back).data,
                                      tt_reconstruct(T).data)

    def test_dispatch_on_magic(self, rng, tmp_path):
        A = DenseTensor(rng.standard_normal((2, 3, 2)))
        cp = CPDecomposition.from_factors([rng.standard_normal((2, 2)),
                                           rng.standard_normal((3, 2)),
                                           rng.standard_normal((2, 2))])
        T, _ = tt_svd(A, ranks=(2, 2))
        tuck, _ = hosvd(A, (2, 2, 2))
        files = {
            "dense": (tmp_path / "x.dten", lambda p: write_dense(A, p), DenseTensor),
            "cp": (tmp_path / "x.cpd", lambda p: write_cp(cp, p), CPDecomposition),
        }
        write_tt(T, tmp_path / "x.tten")
        write_tucker(tuck, tmp_path / "x.tuck")
        for p, writer, cls in files.values():
            writer(p)
            assert isinstance(read_decomposition(p), cls)
        from tenslab.tt import TTTensor
        from tenslab.tucker import TuckerDecomposition
        assert isinstance(read_decomposition(tmp_path / "x.tten"), TTTensor)
        assert isinstance(read_decomposition(tmp_path / "x.tuck"), TuckerDecomposition)

    def test_unknown_magic(self, tmp_path):
        p = tmp_path / "weird.bin"
        p.write_bytes(b"NOPE!\n123456")
        with pytest.raises(FormatError, match="unrecognized magic"):
            read_decomposition(p)


class TestTextFormats:
    def test_mesh_round_trip(self, tmp_path):
        meshes = [Mesh([0.0, 0.5, 1.0]), Mesh([-2.0, 3.0])]
        p = tmp_path / "m.txt"
        write_meshes(meshes, p)
        back = read_meshes(p)
        assert [m.points for m in back] == [m.points for m in meshes]

    def test_mesh_rejects_nonincreasing(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("1.0 0.5\n")
        with pytest.raises(FormatError, match=":1:"):
            read_meshes(p)

    def test_poly_round_trip(self, tmp_path):
        P = MonomialPoly([(1.0, (2, 0)), (2.0, (1, 1)), (1.0, (0, 2))])
        p = tmp_path / "p.txt"
        write_poly(P, p)
        back = read_poly(p)
        assert back.terms == P.terms

    def test_poly_fixture_with_comment(self, fixtures_dir):
        P = read_poly(fixtures_dir / "poly_sumsquare.txt")
        assert P.n_terms == 3
        assert P(1.0, 2.0) == pytest.approx(9.0)

    def test_poly_rejects_garbage(self, tmp_path):
        p = tmp_path / "p.txt"
        p.write_text("1.0 a b\n")
        with pytest.raises(FormatError, match=":1:"):
            read_poly(p)


def _valid_model_files() -> list[bytes]:
    """One small valid file of each binary format, as bytes."""
    rng = np.random.default_rng(7)
    A = DenseTensor(rng.standard_normal((3, 2, 2)))
    writers = [
        (write_dense, A),
        (write_cp, CPDecomposition.from_factors([rng.standard_normal((n, 2)) for n in A.dims])),
        (write_tucker, hosvd(A, (2, 2, 2))[0]),
        (write_tt, tt_svd(A, ranks=(2, 2))[0]),
    ]
    blobs = []
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "f.bin"
        for write, obj in writers:
            write(obj, p)
            blobs.append(p.read_bytes())
    return blobs


VALID_MODEL_FILES = _valid_model_files()


def _parses_or_format_error(blob: bytes, path) -> None:
    path.write_bytes(blob)
    try:
        with np.errstate(over="ignore", invalid="ignore"):   # huge but finite values
            read_decomposition(path)
    except FormatError:
        pass


class TestHostileFiles:
    """Any byte string either parses or is a FormatError (exit 3), and nothing
    allocates what a header claims before the bytes are there."""

    @pytest.fixture(scope="class")
    def fuzz_path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz") / "f.bin"

    @given(st.binary(max_size=200))
    @settings(max_examples=300)
    def test_arbitrary_bytes(self, fuzz_path, blob):
        _parses_or_format_error(blob, fuzz_path)

    @given(st.sampled_from(VALID_MODEL_FILES),
           st.lists(st.tuples(st.integers(min_value=0), st.binary(min_size=1, max_size=8)),
                    max_size=4),
           st.none() | st.integers(min_value=0))
    @settings(max_examples=600)
    def test_mutated_valid_files(self, fuzz_path, valid, edits, cut):
        blob = bytearray(valid)
        for pos, chunk in edits:
            pos %= len(blob) + 1
            blob[pos:pos + len(chunk)] = chunk
        if cut is not None:
            del blob[cut % (len(blob) + 1):]
        _parses_or_format_error(bytes(blob), fuzz_path)

    def test_tucker_ranks_whose_product_wraps(self, tmp_path, rng):
        # ranks (2**40, 2**40): their product wraps to 0 in 64-bit integers
        U = np.linalg.qr(rng.standard_normal((3, 2)))[0]
        p = tmp_path / "m.tuck"
        write_tucker(TuckerDecomposition(DenseTensor(np.ones((2, 2))), [U, U.copy()]), p)
        blob = bytearray(p.read_bytes())
        ranks_at = 6 + 4 + 2 * 8
        blob[ranks_at:ranks_at + 16] = struct.pack("<2Q", 2 ** 40, 2 ** 40)
        p.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="truncated"):
            read_tucker(p)

    def test_dense_dims_whose_product_wraps(self, tmp_path):
        p = tmp_path / "a.dten"
        write_dense(DenseTensor(np.ones((2, 2))), p)
        blob = bytearray(p.read_bytes())
        blob[10:26] = struct.pack("<2Q", 2 ** 40, 2 ** 40)
        p.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="truncated"):
            read_dense(p)


class TestReadCost:
    @pytest.mark.parametrize("fmt", BINARY_CASES)
    def test_arrays_are_aligned_writable_native(self, tmp_path, fmt):
        # a zero-copy view of the file's bytes would be read-only, and
        # misaligned wherever the header length is not a multiple of 8
        write, read, model, _, _, blocks = BINARY_CASES[fmt]
        p = tmp_path / "f.bin"
        write(model, p)
        for a in blocks(read(p)):
            assert a.dtype == np.float64 and a.dtype.isnative
            assert a.flags.c_contiguous and a.flags.aligned and a.flags.writeable

    def test_read_dense_copies_the_payload_once(self, tmp_path):
        A = DenseTensor(np.arange(2.0 ** 17).reshape(64, 2048))    # 1 MiB of values
        p = tmp_path / "a.dten"
        write_dense(A, p)
        tracemalloc.start()
        try:
            read_dense(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the file's bytes and one array: 2.0x
        assert peak <= 2.1 * A.data.nbytes

    def test_read_decomposition_reads_the_file_once(self, tmp_path, rng, monkeypatch):
        T, _ = tt_svd(rng.standard_normal((4, 4, 4)), ranks=(2, 2))
        p = tmp_path / "t.tten"
        write_tt(T, p)
        calls = []
        original = Path.read_bytes

        def counting(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(Path, "read_bytes", counting)
        read_decomposition(p)
        assert len(calls) == 1
