"""Dense tensors and the elementary reorganization operations.

A :class:`DenseTensor` is an order-``d`` real array stored flat in
generalized row-major order (last index fastest).  All other formats in
this package (CP, Tucker, tensor train) densify to it, and every engine
accepts it as input.

Conventions used across the package:

* modes are numbered ``1..d`` at the user-facing surface, matching the
  usual mathematical convention; internally everything is 0-based numpy,
* multi-indices handed to ``entry``-style accessors are 1-based as well,
* every mode, index and count a caller passes must be integral (fractions
  are rejected, never truncated) and in range: 1-based positions in
  ``1..n``, counts at least 1 (0 for degrees and exponents), all checked
  by :func:`_integers`,
* raw ``numpy`` arrays are accepted anywhere a :class:`DenseTensor` is,
  and ``.data`` exposes the underlying (C-contiguous, float64) array.

Every densification of a model passes :func:`check_dense_cap` (at most a
``cap`` argument, else ``TENSLAB_DENSE_CAP``, else ``10**8`` entries).
"""
from __future__ import annotations

import itertools
import math
import os
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "DenseTensor",
    "DenseCapError",
    "dense_cap",
    "check_dense_cap",
    "Permutation",
    "as_tensor",
    "permute_modes",
    "slice_tensor",
    "reshape_tensor",
    "matricize",
    "matricize_general",
    "vectorize",
    "tensor_product",
    "hadamard",
    "inner",
    "norm",
    "sym",
    "antisym",
    "wedge",
    "partition_sum",
]


class DenseTensor:
    """Order-``d`` real tensor with explicit dimensions and flat storage.

    Parameters
    ----------
    data : array_like
        Anything ``numpy`` can turn into a float array.  The array is
        copied into C-contiguous float64 storage so that the flat value
        list is exactly the row-major (last index fastest) enumeration.

    Attributes
    ----------
    data : numpy.ndarray
        The underlying array, always C-contiguous float64.
    """

    __slots__ = ("data",)

    def __init__(self, data):
        arr = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
        if arr.ndim == 0:
            arr = arr.reshape(1)
        if arr.size == 0:
            raise ValueError(f"tensor of dims {arr.shape} needs at least one entry per mode")
        self.data = arr

    @classmethod
    def from_flat(cls, dims: Sequence[int], values: Iterable[float]) -> "DenseTensor":
        """Build a tensor from a dimension list and a flat value list."""
        dims = _integers(dims, "dims", 1)
        if not dims:
            raise ValueError("invalid dims (): need d >= 1")
        vals = np.asarray(list(values) if not isinstance(values, np.ndarray) else values,
                          dtype=np.float64)
        if vals.size != math.prod(dims):
            raise ValueError(
                f"got {vals.size} values for dims {dims} (need {math.prod(dims)})")
        return cls(vals.reshape(dims))

    @classmethod
    def zeros(cls, dims: Sequence[int]) -> "DenseTensor":
        return cls(np.zeros(_integers(dims, "dims", 1)))

    @property
    def dims(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def order(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def values(self) -> np.ndarray:
        """Flat values in storage order (a view, not a copy)."""
        return self.data.reshape(-1)

    def entry(self, index: Sequence[int]) -> float:
        """Entry at a 1-based multi-index."""
        idx = _check_multi_index(index, self.dims)
        return float(self.data[idx])

    def norm(self, p: float = 2) -> float:
        return norm(self, p)

    def __getitem__(self, key):
        # numpy-style, 0-based; use entry() for the 1-based surface
        return self.data[key]

    def __array__(self, dtype=None):
        return self.data if dtype is None else self.data.astype(dtype)

    def __eq__(self, other):
        if not isinstance(other, (DenseTensor, np.ndarray)):
            return NotImplemented
        other = as_tensor(other)
        return self.dims == other.dims and bool(np.array_equal(self.data, other.data))

    def __repr__(self):
        shape = "x".join(str(n) for n in self.dims)
        return f"DenseTensor({shape})"


def as_tensor(A) -> DenseTensor:
    """Coerce an array-like into a :class:`DenseTensor` (no copy if already one)."""
    return A if isinstance(A, DenseTensor) else DenseTensor(A)


DEFAULT_DENSE_CAP = 10 ** 8


class DenseCapError(ValueError):
    """A densification would produce more entries than the cap allows."""


def dense_cap(override: int | None = None) -> int:
    """Densification guard: max entries a reconstruction may produce."""
    if override is not None:
        return _integers([override], "dense cap")[0]
    raw = os.environ.get("TENSLAB_DENSE_CAP")
    if raw is None:
        return DEFAULT_DENSE_CAP
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"TENSLAB_DENSE_CAP must be an integer, got {raw!r}") from None


def check_dense_cap(dims: Sequence[int], cap: int | None = None) -> None:
    """Raise :class:`DenseCapError` if a tensor of ``dims`` exceeds the cap."""
    total, limit = math.prod(dims), dense_cap(cap)
    if total > limit:
        raise DenseCapError(f"refusing to densify {total} entries (cap {limit}); "
                            f"raise the cap explicitly to override")


def _integers(values: Iterable[int], what: str, least: int | None = None,
              most=None) -> tuple[int, ...]:
    """``values`` as ints; a fractional or non-finite entry is rejected, never truncated.

    With ``least`` each value must also be at least ``least`` and, where
    ``most`` gives a bound (one per value, or one int for all), at most it.
    """
    values = tuple(values)
    try:
        ints = tuple(int(v) for v in values)
    except (TypeError, ValueError, OverflowError):
        ints = None
    if ints != values:
        raise ValueError(f"{what} {values} has a non-integral entry")
    if least is None:
        return ints
    bounds = most if isinstance(most, (tuple, list)) else [most] * len(ints)
    for i, n in zip(ints, bounds):
        if i < least or (n is not None and i > n):
            name = f"{what} {i}" if len(ints) == 1 else f"{what} {ints}: {i}"
            rule = f"must be >= {least}" if n is None else f"is not in {least}..{n}"
            raise ValueError(f"{name} {rule}")
    return ints


def _one_based(values: Iterable[int], bounds, what: str) -> tuple[int, ...]:
    """1-based positions in ``1..bound`` as 0-based ints (``bounds`` as in :func:`_integers`)."""
    return tuple(i - 1 for i in _integers(values, what, 1, bounds))


def _check_multi_index(index: Sequence[int], dims: tuple[int, ...]) -> tuple[int, ...]:
    idx = tuple(index)
    if len(idx) != len(dims):
        raise ValueError(f"multi-index {idx} has {len(idx)} entries for order {len(dims)}")
    return _one_based(idx, dims, "multi-index")


def _sign(img: Sequence[int]) -> int:
    """Sign of a permutation given by its image: -1 per inversion."""
    return (-1) ** sum(a > b for a, b in itertools.combinations(img, 2))


class Permutation:
    """A bijection of the modes ``{1..d}``.

    ``image[mu-1]`` is the mode whose vector ends up in position ``mu``
    after the permutation is applied: for ``sigma`` with image
    ``(3, 1, 2)`` one has ``sigma(a (x) b (x) c) = c (x) a (x) b``.
    """

    __slots__ = ("image",)

    def __init__(self, image: Sequence[int]):
        img = _integers(image, "permutation")
        if sorted(img) != list(range(1, len(img) + 1)):
            raise ValueError(f"{img} is not a permutation of 1..{len(img)}")
        self.image = img

    @classmethod
    def identity(cls, d: int) -> "Permutation":
        return cls(range(1, d + 1))

    def __len__(self) -> int:
        return len(self.image)

    def __call__(self, mu: int) -> int:
        return self.image[_one_based([mu], len(self.image), "mode")[0]]

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.image)
        for pos, s in enumerate(self.image, start=1):
            inv[s - 1] = pos
        return Permutation(inv)

    def compose(self, other: "Permutation") -> "Permutation":
        """Permutation equivalent to applying ``other`` first, then ``self``.

        Satisfies ``permute_modes(permute_modes(A, other), self)
        == permute_modes(A, self.compose(other))``.
        """
        if len(self) != len(other):
            raise ValueError("cannot compose permutations of different sizes")
        return Permutation(other.image[s - 1] for s in self.image)

    def sign(self) -> int:
        return _sign(self.image)

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.image == other.image

    def __repr__(self):
        return f"Permutation{self.image}"


def permute_modes(A, sigma: Permutation | Sequence[int]) -> DenseTensor:
    """Reorder the modes of ``A`` by the permutation ``sigma``.

    Mode ``mu`` of the result is mode ``sigma(mu)`` of the input, so the
    result dims are ``(n_sigma(1), ..., n_sigma(d))`` and for the worked
    example ``sigma = (3, 1, 2)`` the entries satisfy
    ``B[k, i, j] == A[i, j, k]``.
    """
    A = as_tensor(A)
    if not isinstance(sigma, Permutation):
        sigma = Permutation(sigma)
    if len(sigma) != A.order:
        raise ValueError(f"permutation of size {len(sigma)} applied to order {A.order}")
    axes = [s - 1 for s in sigma.image]
    return DenseTensor(np.transpose(A.data, axes))


def slice_tensor(A, fixed_modes: Sequence[int], fixed_values: Sequence[int]) -> DenseTensor:
    """Fix the indices of some modes and let the others run.

    Pure extraction, no summation.  ``fixed_modes`` is a subset of
    ``{1..d}``; ``fixed_values`` gives the 1-based index fixed on each of
    those modes.  The surviving modes keep their original ascending
    order.  Fixing every mode yields a dims ``[1]`` scalar wrapper.
    """
    A = as_tensor(A)
    modes = _one_based(fixed_modes, A.order, "fixed_modes")
    if len(modes) != len(fixed_values):
        raise ValueError("fixed_modes and fixed_values must have equal length")
    if len(set(modes)) != len(modes):
        raise ValueError(f"repeated mode in {fixed_modes}")
    sizes = [A.dims[m] for m in modes]
    key: list = [slice(None)] * A.order
    for m, i in zip(modes, _one_based(fixed_values, sizes, "fixed_values")):
        key[m] = i
    out = A.data[tuple(key)]
    if out.ndim == 0:
        out = out.reshape(1)
    return DenseTensor(out)


def _check_partition(partition: Sequence[Sequence[int]], d: int) -> list[list[int]]:
    blocks = [sorted(_integers(blk, "partition block")) for blk in partition]
    flat = [m for blk in blocks for m in blk]
    if flat != list(range(1, d + 1)):
        raise ValueError(
            f"partition {partition} must list consecutive blocks covering 1..{d}")
    for blk in blocks:
        if blk != list(range(blk[0], blk[-1] + 1)):
            raise ValueError(f"block {blk} is not a run of consecutive modes")
    return blocks


def reshape_tensor(A, partition: Sequence[Sequence[int]]) -> DenseTensor:
    """Aggregate consecutive modes; one result mode per partition block.

    Row-major storage makes this a pure relabeling: flat values are
    unchanged.  ``partition`` must be an ordered partition of ``{1..d}``
    into blocks of consecutive modes, e.g. ``[(1, 2), (3,), (4, 5)]``.
    """
    A = as_tensor(A)
    blocks = _check_partition(partition, A.order)
    new_dims = [math.prod(A.dims[m - 1] for m in blk) for blk in blocks]
    return DenseTensor(A.data.reshape(new_dims))


def matricize(A, column_mode: int) -> DenseTensor:
    """Unfold ``A`` into the matrix of its linear map by ``column_mode``.

    Column ``j`` holds the slice of ``A`` at ``i_mu = j``; rows are the
    row-major flattening of the remaining modes in ascending order, so
    the result has ``prod(n_nu, nu != mu)`` rows and ``n_mu`` columns.
    An order-2 input returns itself for ``column_mode=2`` and its
    transpose for ``column_mode=1``.
    """
    return matricize_general(A, [column_mode])


def matricize_general(A, column_modes: Sequence[int]) -> DenseTensor:
    """Unfold with an arbitrary mode subset as columns (rows: the rest).

    Both index groups are flattened row-major in ascending mode order.
    """
    A = as_tensor(A)
    cols = sorted(_one_based(column_modes, A.order, "column modes"))
    if len(set(cols)) != len(cols):
        raise ValueError(f"repeated mode in column modes {column_modes}")
    rows = [m for m in range(A.order) if m not in cols]
    mat = np.transpose(A.data, rows + cols).reshape(math.prod(A.dims[m] for m in rows), -1)
    return DenseTensor(mat)


def vectorize(A) -> DenseTensor:
    """Flat values in storage order; for a matrix: rows stacked top to bottom."""
    A = as_tensor(A)
    return DenseTensor(A.values.copy())


def tensor_product(A, B) -> DenseTensor:
    """Tensor (outer) product: dims concatenate, entries multiply."""
    A, B = as_tensor(A), as_tensor(B)
    return DenseTensor(np.tensordot(A.data, B.data, axes=0))


def hadamard(A, B) -> DenseTensor:
    """Entrywise product of two tensors of identical dims."""
    A, B = as_tensor(A), as_tensor(B)
    if A.dims != B.dims:
        raise ValueError(f"hadamard needs equal dims, got {A.dims} and {B.dims}")
    return DenseTensor(A.data * B.data)


def inner(A, B) -> float:
    """Euclidean inner product, summed over all entries."""
    A, B = as_tensor(A), as_tensor(B)
    if A.dims != B.dims:
        raise ValueError(f"inner needs equal dims, got {A.dims} and {B.dims}")
    return float(np.dot(A.values, B.values))


def norm(A, p: float = 2) -> float:
    """Entrywise l1, l2 (Frobenius) or l-infinity norm."""
    A = as_tensor(A)
    v = A.values
    if p == 1:
        return float(np.sum(np.abs(v)))
    if p == 2:
        return float(np.linalg.norm(v))
    if p in (np.inf, math.inf) or p == "inf":
        return float(np.max(np.abs(v)))
    raise ValueError(f"unsupported norm order {p!r}; use 1, 2 or inf")


def _check_cubical(A: DenseTensor) -> None:
    if len(set(A.dims)) != 1:
        raise ValueError(f"operation needs a cubical tensor, got dims {A.dims}")


def _permutation_average(A, signed: bool) -> DenseTensor:
    """Average of ``A`` over all mode permutations, each term times the
    permutation's sign if ``signed``."""
    A = as_tensor(A)
    _check_cubical(A)
    acc = np.zeros_like(A.data)
    for axes in itertools.permutations(range(A.order)):
        acc += (_sign(axes) if signed else 1) * np.transpose(A.data, axes)
    return DenseTensor(acc / math.factorial(A.order))


def sym(A) -> DenseTensor:
    """Symmetric part: average of ``A`` over all mode permutations."""
    return _permutation_average(A, signed=False)


def antisym(A) -> DenseTensor:
    """Antisymmetric part: signed average over all mode permutations."""
    return _permutation_average(A, signed=True)


def wedge(a, b) -> DenseTensor:
    """Wedge product of two vectors: ``(a (x) b - b (x) a) / 2``."""
    a, b = as_tensor(a), as_tensor(b)
    if a.order != 1 or b.order != 1 or a.dims != b.dims:
        raise ValueError("wedge needs two order-1 tensors of equal length")
    return DenseTensor((np.outer(a.data, b.data) - np.outer(b.data, a.data)) / 2.0)


def partition_sum(A) -> float:
    """Sum of all entries; equals the l1 norm on nonnegative tensors."""
    A = as_tensor(A)
    return float(np.sum(A.values))
