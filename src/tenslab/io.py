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


def _check_magic(data: bytes, magic: bytes, path) -> int:
    if len(data) < len(magic) or data[:len(magic)] != magic:
        offset = next((i for i in range(min(len(magic), len(data)))
                       if data[i:i + 1] != magic[i:i + 1]), min(len(data), len(magic)))
        raise FormatError(
            f"{path}: bad magic, first mismatch at byte offset {offset} "
            f"(expected {magic!r})")
    return len(magic)


class _Reader:
    def __init__(self, data: bytes, pos: int, path):
        self.data, self.pos, self.path = data, pos, path

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise FormatError(
                f"{self.path}: truncated at byte offset {self.pos} "
                f"(needed {n} more bytes)")
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64s(self, count: int) -> tuple[int, ...]:
        return struct.unpack(f"<{count}Q", self.take(8 * count))

    def f64s(self, count: int) -> np.ndarray:
        return np.frombuffer(self.take(8 * count), dtype="<f8").astype(np.float64)

    def finite_f64s(self, count: int) -> np.ndarray:
        """Model values: a NaN or infinity is a malformed file, not a number."""
        start = self.pos
        values = self.f64s(count)
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise FormatError(
                f"{self.path}: non-finite value at byte offset {start + 8 * int(bad[0])}")
        return values

    def done(self) -> None:
        if self.pos != len(self.data):
            raise FormatError(
                f"{self.path}: {len(self.data) - self.pos} unexpected trailing bytes")


def _build(path, make, *args):
    """``make(*args)``, with the constructor's rejection reported as a format error."""
    try:
        return make(*args)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def _pack_u64s(values) -> bytes:
    vals = [int(v) for v in values]
    return struct.pack(f"<{len(vals)}Q", *vals)


def _pack_f64s(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr, dtype="<f8").tobytes()


def write_dense(A: DenseTensor, path) -> None:
    path = Path(path)
    if path.suffix == ".dtent":
        parts = [str(A.order), " ".join(str(n) for n in A.dims)]
        parts.append(" ".join(repr(float(v)) for v in A.values))
        path.write_text("\n".join(parts) + "\n")
        return
    blob = MAGIC_DENSE + struct.pack("<I", A.order) + _pack_u64s(A.dims) \
        + _pack_f64s(A.values)
    path.write_bytes(blob)


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
    data = path.read_bytes()
    r = _Reader(data, _check_magic(data, MAGIC_DENSE, path), path)
    d = r.u32()
    dims = r.u64s(d)
    n = math.prod(dims) if d else 0
    values = r.f64s(n)
    r.done()
    return _build(path, DenseTensor.from_flat, dims, values)


def write_cp(cp: CPDecomposition, path) -> None:
    blob = MAGIC_CP + struct.pack("<II", cp.order, cp.rank) \
        + _pack_u64s(cp.dims) + _pack_f64s(cp.weights)
    for X in cp.factors:
        blob += _pack_f64s(X)
    Path(path).write_bytes(blob)


def read_cp(path) -> CPDecomposition:
    path = Path(path)
    data = path.read_bytes()
    r = _Reader(data, _check_magic(data, MAGIC_CP, path), path)
    d = r.u32()
    rank = r.u32()
    dims = r.u64s(d)
    if not d or not rank or 0 in dims:
        raise FormatError(f"{path}: order {d}, rank {rank} and dims {dims} must be positive")
    weights = r.finite_f64s(rank)
    factors = [r.finite_f64s(n * rank).reshape(n, rank) for n in dims]
    r.done()
    return _build(path, CPDecomposition, weights, factors)


def write_tucker(T: TuckerDecomposition, path) -> None:
    blob = MAGIC_TUCKER + struct.pack("<I", T.core.order) \
        + _pack_u64s(T.dims) + _pack_u64s(T.ranks) + _pack_f64s(T.core.values)
    for U in T.factors:
        blob += _pack_f64s(U)
    Path(path).write_bytes(blob)


def read_tucker(path) -> TuckerDecomposition:
    path = Path(path)
    data = path.read_bytes()
    r = _Reader(data, _check_magic(data, MAGIC_TUCKER, path), path)
    d = r.u32()
    dims = r.u64s(d)
    ranks = r.u64s(d)
    if not d or 0 in dims or 0 in ranks:
        raise FormatError(f"{path}: order {d}, dims {dims} and ranks {ranks} must be positive")
    core = r.finite_f64s(math.prod(ranks)).reshape(ranks)
    factors = [r.finite_f64s(n * k).reshape(n, k) for n, k in zip(dims, ranks)]
    r.done()
    return _build(path, TuckerDecomposition, core, factors)


def write_tt(T: TTTensor, path) -> None:
    blob = MAGIC_TT + struct.pack("<I", T.order) \
        + _pack_u64s(T.dims) + _pack_u64s(T.full_ranks)
    for G in T.cores:
        blob += _pack_f64s(G)
    Path(path).write_bytes(blob)


def read_tt(path) -> TTTensor:
    path = Path(path)
    data = path.read_bytes()
    r = _Reader(data, _check_magic(data, MAGIC_TT, path), path)
    d = r.u32()
    dims = r.u64s(d)
    chain = r.u64s(d + 1)
    if chain[0] != 1 or chain[-1] != 1:
        raise FormatError(f"{path}: boundary ranks must be 1, got {chain}")
    if 0 in chain or 0 in dims:
        raise FormatError(f"{path}: dims {dims} and chain ranks {chain} must be positive")
    cores = [r.finite_f64s(chain[mu] * dims[mu] * chain[mu + 1]).reshape(
        chain[mu], dims[mu], chain[mu + 1]) for mu in range(d)]
    r.done()
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
