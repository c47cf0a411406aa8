"""File formats: dense tensors, decompositions, meshes and polynomials.

Binary layouts are little-endian and fully deterministic:

* ``DTEN1``  dense tensor: magic ``DTEN1\\n``, u32 order ``d``, ``d``
  u64 dims, then ``prod(dims)`` f64 values in storage order.
* ``CPD1``   CP model: magic ``CPD1\\n``, u32 ``d``, u32 ``r``, ``d``
  u64 dims, ``r`` f64 weights, then the factors row-major.
* ``TUCK1``  Tucker model: magic ``TUCK1\\n``, u32 ``d``, ``d`` u64
  dims, ``d`` u64 ranks, core values, then the factors row-major.
* ``TTEN1``  tensor train: magic ``TTEN1\\n``, u32 ``d``, ``d`` u64
  dims, ``d+1`` u64 chain ranks (boundary 1s included), then the cores
  in storage order.

Each binary format is its header fields followed by contiguous f64 blocks in
the listed order; the file's length is checked before anything is allocated,
and the values are copied once out of the file's bytes.

Model files (CPD1, TUCK1, TTEN1) must hold finite values, positive dims
and ranks, and a model their constructor accepts; anything else is a
:class:`FormatError`.  Dense files may hold any float.

A text twin ``.dtent`` (whitespace-separated ``d``, dims, values) makes
dense fixtures hand-authorable.  Meshes are one ascending line of reals
per mesh; polynomials are lines ``coeff e_1 ... e_d``.
"""
from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .dense import DenseTensor
from .cp import CPDecomposition
from .tucker import TuckerDecomposition
from .tt import TTTensor
from .funcgrid import Mesh, MonomialPoly

__all__ = [
    "FormatError",
    "write_dense", "read_dense",
    "write_cp", "read_cp",
    "write_tucker", "read_tucker",
    "write_tt", "read_tt",
    "read_decomposition",
    "read_meshes", "write_meshes",
    "read_poly", "write_poly",
]

MAGIC_DENSE = b"DTEN1\n"
MAGIC_CP = b"CPD1\n"
MAGIC_TUCKER = b"TUCK1\n"
MAGIC_TT = b"TTEN1\n"


class FormatError(ValueError):
    """Raised when a file does not follow its declared format."""


class _Reader:
    """A binary file: its magic, u32/u64 header fields, then contiguous f64 blocks."""

    def __init__(self, path: Path, magic: bytes):
        self.path, self.data = path, path.read_bytes()
        if self.data[:len(magic)] != magic:
            offset = next(i for i in range(len(magic)) if self.data[i:i + 1] != magic[i:i + 1])
            raise FormatError(
                f"{path}: bad magic, first mismatch at byte offset {offset} "
                f"(expected {magic!r})")
        self.pos = len(magic)

    def u32s(self, n: int) -> tuple[int, ...]:
        return self._fields(f"<{n}I")

    def u64s(self, n: int) -> tuple[int, ...]:
        return self._fields(f"<{n}Q")

    def _fields(self, fmt: str) -> tuple[int, ...]:
        size = struct.calcsize(fmt)
        if self.pos + size > len(self.data):
            raise FormatError(
                f"{self.path}: truncated at byte offset {self.pos} "
                f"(needed {size} more bytes)")
        values = struct.unpack_from(fmt, self.data, self.pos)
        self.pos += size
        return values

    def payload(self, shapes, finite: bool = True) -> list[np.ndarray]:
        """The rest of the file as one float64 array per shape: the length is checked
        before anything is allocated, then each block is copied once (aligned, writable)."""
        sizes = [math.prod(shape) for shape in shapes]
        have, need = len(self.data) - self.pos, 8 * sum(sizes)
        if have < need:
            raise FormatError(
                f"{self.path}: truncated at byte offset {self.pos} "
                f"(needed {need} more bytes)")
        if have > need:
            raise FormatError(f"{self.path}: {have - need} unexpected trailing bytes")
        flat = np.frombuffer(self.data, "<f8", sum(sizes), self.pos)
        if finite:
            bad = np.flatnonzero(~np.isfinite(flat))
            if bad.size:
                raise FormatError(
                    f"{self.path}: non-finite value at byte offset {self.pos + 8 * int(bad[0])}")
        blocks = np.split(flat, np.cumsum(sizes)[:-1])
        return [b.astype(np.float64).reshape(shape) for b, shape in zip(blocks, shapes)]


def _write(path, magic: bytes, u32s, u64s, arrays) -> None:
    """``magic``, the u32 then the u64 header fields, then each array as f64 row-major."""
    with Path(path).open("wb") as f:
        f.write(magic + struct.pack(f"<{len(u32s)}I{len(u64s)}Q", *u32s, *u64s))
        for a in arrays:
            f.write(np.ascontiguousarray(a, dtype="<f8"))


def _build(path, make, *args):
    """``make(*args)``, with the constructor's rejection reported as a format error."""
    try:
        return make(*args)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def write_dense(A: DenseTensor, path) -> None:
    path = Path(path)
    if path.suffix == ".dtent":
        parts = [str(A.order), " ".join(str(n) for n in A.dims)]
        parts.append(" ".join(repr(float(v)) for v in A.values))
        path.write_text("\n".join(parts) + "\n")
        return
    _write(path, MAGIC_DENSE, [A.order], A.dims, [A.data])


def read_dense(path) -> DenseTensor:
    path = Path(path)
    if path.suffix == ".dtent":
        tokens = path.read_text().split()
        if not tokens:
            raise FormatError(f"{path}: empty text tensor")
        try:
            d = int(tokens[0])
            dims = [int(t) for t in tokens[1:1 + d]]
            values = [float(t) for t in tokens[1 + d:]]
        except ValueError as exc:
            raise FormatError(f"{path}: malformed text tensor: {exc}") from exc
        return _build(path, DenseTensor.from_flat, dims, values)
    r = _Reader(path, MAGIC_DENSE)
    d, = r.u32s(1)
    dims = r.u64s(d)
    values, = r.payload([dims if d else (0,)], finite=False)   # order 0: no values, not one
    return _build(path, DenseTensor.from_flat, dims, values)


def write_cp(cp: CPDecomposition, path) -> None:
    _write(path, MAGIC_CP, [cp.order, cp.rank], cp.dims, [cp.weights, *cp.factors])


def read_cp(path) -> CPDecomposition:
    path = Path(path)
    r = _Reader(path, MAGIC_CP)
    d, rank = r.u32s(2)
    dims = r.u64s(d)
    if not d or not rank or 0 in dims:
        raise FormatError(f"{path}: order {d}, rank {rank} and dims {dims} must be positive")
    weights, *factors = r.payload([(rank,)] + [(n, rank) for n in dims])
    return _build(path, CPDecomposition, weights, factors)


def write_tucker(T: TuckerDecomposition, path) -> None:
    _write(path, MAGIC_TUCKER, [T.core.order], T.dims + T.ranks, [T.core.data, *T.factors])


def read_tucker(path) -> TuckerDecomposition:
    path = Path(path)
    r = _Reader(path, MAGIC_TUCKER)
    d, = r.u32s(1)
    dims = r.u64s(d)
    ranks = r.u64s(d)
    if not d or 0 in dims or 0 in ranks:
        raise FormatError(f"{path}: order {d}, dims {dims} and ranks {ranks} must be positive")
    core, *factors = r.payload([ranks] + list(zip(dims, ranks)))
    return _build(path, TuckerDecomposition, core, factors)


def write_tt(T: TTTensor, path) -> None:
    _write(path, MAGIC_TT, [T.order], T.dims + T.full_ranks, T.cores)


def read_tt(path) -> TTTensor:
    path = Path(path)
    r = _Reader(path, MAGIC_TT)
    d, = r.u32s(1)
    dims = r.u64s(d)
    chain = r.u64s(d + 1)
    if chain[0] != 1 or chain[-1] != 1:
        raise FormatError(f"{path}: boundary ranks must be 1, got {chain}")
    if 0 in chain or 0 in dims:
        raise FormatError(f"{path}: dims {dims} and chain ranks {chain} must be positive")
    cores = r.payload([(chain[mu], dims[mu], chain[mu + 1]) for mu in range(d)])
    return _build(path, TTTensor, cores)


def read_decomposition(path):
    """Read a CPD1/TUCK1/TTEN1/DTEN1 file, dispatching on the magic."""
    path = Path(path)
    if path.suffix == ".dtent":
        return read_dense(path)
    with path.open("rb") as f:
        head = f.read(len(MAGIC_DENSE))
    for magic, reader in ((MAGIC_CP, read_cp), (MAGIC_TUCKER, read_tucker),
                          (MAGIC_TT, read_tt), (MAGIC_DENSE, read_dense)):
        if head[:len(magic)] == magic:
            return reader(path)
    raise FormatError(f"{path}: unrecognized magic {head!r}")


def read_meshes(path) -> list[Mesh]:
    """One mesh per nonempty line, whitespace-separated ascending reals."""
    meshes = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            meshes.append(Mesh([float(t) for t in line.split()]))
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from exc
    if not meshes:
        raise FormatError(f"{path}: no meshes found")
    return meshes


def write_meshes(meshes, path) -> None:
    lines = [" ".join(repr(x) for x in m.points) for m in meshes]
    Path(path).write_text("\n".join(lines) + "\n")


def read_poly(path) -> MonomialPoly:
    """Lines ``coeff e_1 ... e_d``; arity fixed by the first line."""
    terms = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        tokens = line.split()
        try:
            coeff = float(tokens[0])
            exps = [int(t) for t in tokens[1:]]
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from exc
        if not exps:
            raise FormatError(f"{path}:{lineno}: a term needs at least one exponent")
        terms.append((coeff, exps))
    if not terms:
        raise FormatError(f"{path}: no terms found")
    return _build(path, MonomialPoly, terms)


def write_poly(P: MonomialPoly, path) -> None:
    lines = [" ".join([repr(c)] + [str(e) for e in exps]) for c, exps in P.terms]
    Path(path).write_text("\n".join(lines) + "\n")
