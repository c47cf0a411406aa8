"""Meshes, Cartesian grids, discretization and Chebyshev projection.

Evaluating a multivariate function on a Cartesian grid gives a dense
tensor whose rank is bounded by the function's separable-term count,
independent of mesh sizes.  Multivariate polynomials therefore come with
a free CP representation (one term per monomial), and smooth functions
get a coefficient tensor through projection on the tensor Chebyshev
basis.

A :class:`MonomialPoly` is evaluated on a whole grid at once, term by
term on the open (broadcast) grid, with the same floating-point
operations as a call at one point.  Any other callable is called once
per grid point: a callable that accepts arrays need not act elementwise
(``lambda x, y: np.max([x, y])`` returns one value for two arrays), and that
cannot be detected, so only the per-point call is safe.
:func:`cheb_reconstruct` builds one Chebyshev basis matrix per mode and
contracts the coefficient tensor in blocks of points, so its memory stays
within a small multiple of the coefficient tensor.
"""
from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .dense import DenseTensor, _check_multi_index, _integers
from .cp import CPDecomposition
from .tucker import multilinear_apply

__all__ = [
    "Mesh",
    "CartesianGrid",
    "MonomialPoly",
    "discretize",
    "poly_discretize_cp",
    "chebyshev_eval",
    "chebyshev_nodes",
    "cheb_project",
    "cheb_reconstruct",
    "affine_rescaled",
]


@dataclass(frozen=True)
class Mesh:
    """Strictly increasing evaluation points on the real line."""

    points: tuple[float, ...]

    def __init__(self, points: Sequence[float]):
        pts = tuple(float(x) for x in points)
        if not pts:
            raise ValueError("a mesh needs at least one point")
        for x in pts:
            if not np.isfinite(x):
                raise ValueError(f"mesh point {x!r} is not finite")
        if any(a >= b for a, b in zip(pts, pts[1:])):
            raise ValueError("mesh points must be strictly increasing")
        object.__setattr__(self, "points", pts)

    @classmethod
    def uniform(cls, lo: float, hi: float, n: int) -> "Mesh":
        n = _integers([n], "mesh size", 1)[0]
        ends = cls((lo, hi))                        # checks the end points
        if n <= 2:
            return cls(ends.points[:n])
        a, b = ends.points
        if not np.isfinite(b - a):
            raise ValueError(f"mesh span hi - lo overflows float64 for lo={a!r}, hi={b!r}")
        return cls(np.linspace(lo, hi, n))

    def __len__(self) -> int:
        return len(self.points)

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.points)


@dataclass(frozen=True)
class CartesianGrid:
    """Product of one mesh per variable; grid point ``i`` is
    ``(x_{i_1}, ..., x_{i_d})`` with 1-based indices."""

    meshes: tuple[Mesh, ...]

    def __init__(self, meshes: Sequence[Mesh]):
        ms = tuple(m if isinstance(m, Mesh) else Mesh(m) for m in meshes)
        if not ms:
            raise ValueError("a grid needs at least one mesh")
        object.__setattr__(self, "meshes", ms)

    @property
    def arity(self) -> int:
        return len(self.meshes)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(m) for m in self.meshes)

    def point(self, index: Sequence[int]) -> tuple[float, ...]:
        idx = _check_multi_index(index, self.shape)
        return tuple(m.points[i] for m, i in zip(self.meshes, idx))


class MonomialPoly:
    """Multivariate polynomial as a list of ``(coefficient, exponents)``.

    Duplicate exponent tuples are merged on construction; zero-merged
    terms are dropped (an all-zero polynomial keeps a single zero term).
    """

    __slots__ = ("terms", "arity")

    def __init__(self, terms: Sequence[tuple[float, Sequence[int]]]):
        if not terms:
            raise ValueError("a polynomial needs at least one term")
        arity = len(tuple(terms[0][1]))
        merged: dict[tuple[int, ...], float] = {}
        for coeff, exps in terms:
            e = _integers(exps, "exponent tuple", 0)
            if len(e) != arity:
                raise ValueError("all exponent lists must have the same length")
            merged[e] = merged.get(e, 0.0) + float(coeff)
        kept = [(c, e) for e, c in merged.items() if c != 0.0]
        if not kept:
            kept = [(0.0, (0,) * arity)]
        self.terms = sorted(kept, key=lambda t: t[1])
        self.arity = arity

    def __call__(self, *point: float) -> float:
        if len(point) == 1 and isinstance(point[0], (tuple, list, np.ndarray)):
            point = tuple(point[0])
        if len(point) != self.arity:
            raise ValueError(f"{self.arity}-variate polynomial called with {len(point)} values")
        total = 0.0
        for coeff, exps in self.terms:
            term = coeff
            for x, k in zip(point, exps):
                term *= x ** k
            total += term
        return total

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    def __repr__(self):
        return f"MonomialPoly({self.n_terms} terms, arity {self.arity})"


def discretize(f: Callable | MonomialPoly, grid: CartesianGrid) -> DenseTensor:
    """Evaluate ``f`` at every grid point; dims are the mesh sizes.

    Pointwise products of functions become Hadamard products of their
    discretizations, and tensor products of functions become tensor
    products.  A :class:`MonomialPoly` of the grid's arity is evaluated
    on the whole grid at once, bit-identical to calling it per point.
    Any other callable is called once per grid point, since a callable
    that accepts arrays is not necessarily elementwise.  Evaluation
    failures are re-raised with the offending grid point attached (the
    mesh point, for an overflowing power of a polynomial).
    """
    if isinstance(f, MonomialPoly) and f.arity == grid.arity:
        return DenseTensor(_poly_on_grid(f, grid))
    shape = grid.shape
    out = np.empty(shape)
    axes = [m.points for m in grid.meshes]
    for idx in itertools.product(*(range(n) for n in shape)):
        point = tuple(axes[mu][i] for mu, i in enumerate(idx))
        try:
            out[idx] = f(*point)
        except Exception as exc:
            raise ValueError(f"evaluation failed at grid point {point}") from exc
    return DenseTensor(out)


def _powers(P: MonomialPoly, grid: CartesianGrid) -> list[np.ndarray]:
    """Per mode, the ``(n_mu, terms)`` powers of the mesh points by Python's
    float ``**``, as in ``P.__call__`` (numpy's ``power`` may round
    differently); an overflow raises a ``ValueError`` naming the point."""
    out = []
    for mesh, exps in zip(grid.meshes, zip(*(e for _, e in P.terms))):
        rows = []
        for x in mesh.points:
            try:
                rows.append([x ** k for k in exps])
            except OverflowError as exc:
                raise ValueError(f"evaluation failed at mesh point {x!r}") from exc
        out.append(np.array(rows))
    return out


def _poly_on_grid(P: MonomialPoly, grid: CartesianGrid) -> np.ndarray:
    """``P`` on the open grid by the operations of ``P.__call__``, in its
    order; an exponent of 0 multiplies by 1.0, which changes no bits, and
    is skipped."""
    powers = _powers(P, grid)
    total = np.zeros(grid.shape)
    with np.errstate(over="ignore", invalid="ignore"):  # as Python float arithmetic
        for a, (coeff, exps) in enumerate(P.terms):
            term = coeff
            for column, k in zip(np.ix_(*(p[:, a] for p in powers)), exps):
                if k:
                    term = term * column
            total += term
    return total


def poly_discretize_cp(P: MonomialPoly, grid: CartesianGrid) -> CPDecomposition:
    """CP representation of a polynomial's discretization, one term per
    monomial.

    Factor column ``a`` on mode ``mu`` is the mesh raised to the term's
    ``mu``-th exponent, with the powers of :func:`discretize`, so the term
    count never depends on mesh sizes.
    """
    if P.arity != grid.arity:
        raise ValueError(f"polynomial arity {P.arity} != grid arity {grid.arity}")
    return CPDecomposition.from_factors(_powers(P, grid), [c for c, _ in P.terms])


def chebyshev_eval(n: int, x):
    """Chebyshev polynomial ``T_n`` by the stable three-term recurrence.

    Bounded by 1 on ``[-1, 1]``; values outside the interval are allowed
    (polynomial extension) but flagged with a warning.
    """
    n = _integers([n], "degree", 0)[0]
    arr = np.asarray(x, dtype=np.float64)
    if np.any(np.abs(arr) > 1.0):
        warnings.warn("evaluating a Chebyshev polynomial outside [-1, 1]",
                      stacklevel=2)
    out = _cheb_basis(arr.reshape(-1), n + 1)[n].reshape(arr.shape)
    return float(out) if np.ndim(x) == 0 else out


def _cheb_basis(x: np.ndarray, n: int) -> np.ndarray:
    """``T_0..T_{n-1}`` at every entry of the vector ``x``, one row each.

    The stable three-term recurrence, as in numpy's ``chebvander``, so
    the rows carry the same bits.
    """
    out = np.empty((n, len(x)))
    out[0] = 1.0
    if n > 1:
        out[1] = x
    for j in range(2, n):
        out[j] = 2.0 * x * out[j - 1] - out[j - 2]
    return out


def chebyshev_nodes(m: int) -> np.ndarray:
    """The ``m`` Gauss-Chebyshev nodes ``cos((2k - 1) pi / (2m))``, ascending."""
    m = _integers([m], "node count", 1)[0]
    k = np.arange(1, m + 1)
    return np.sort(np.cos((2 * k - 1) * np.pi / (2 * m)))


def _cheb_transform_matrix(max_degree: int, nodes: np.ndarray) -> np.ndarray:
    """Rows map node values to coefficients of ``T_0..T_max_degree``.

    Normalized so the transform inverts evaluation exactly on
    polynomials of degree <= ``max_degree`` (coefficient of ``T_0``
    carries 1/m, the others 2/m).
    """
    m = len(nodes)
    scale = np.full(max_degree + 1, 2.0 / m)
    scale[0] = 1.0 / m
    return _cheb_basis(nodes, max_degree + 1) * scale[:, None]


def cheb_project(f: Callable | MonomialPoly, degrees: Sequence[int]) -> DenseTensor:
    """Coefficients of the tensor Chebyshev expansion of ``f`` on
    ``[-1, 1]**d``, truncated at per-variable ``degrees``.

    Samples ``f`` on the tensor grid of ``2 * (max(degrees) + 1)``
    Gauss-Chebyshev nodes per variable and applies the discrete
    transform of every axis in one :func:`tenslab.tucker.multilinear_apply`.
    Exact (up to roundoff) whenever ``f`` is a polynomial within the
    degree bounds.  The coefficient tensor has dims ``(degrees[mu] + 1)``.
    """
    degs = _integers(degrees, "degree bounds", 0)
    if not degs:
        raise ValueError(f"invalid degree bounds {degrees}: need d >= 1")
    m = 2 * (max(degs) + 1)
    nodes = chebyshev_nodes(m)
    values = discretize(f, CartesianGrid([Mesh(nodes)] * len(degs)))
    return multilinear_apply(values, [_cheb_transform_matrix(r, nodes) for r in degs])


def cheb_reconstruct(coeffs, points) -> np.ndarray:
    """Evaluate the truncated Chebyshev series at the given points.

    ``points`` is a single d-tuple or an ``(npoints, d)`` array; returns
    a scalar in the first case, a vector in the second.  One basis
    matrix per mode holds ``T_0..T_{n_mu - 1}`` at every point; the
    coefficients are then contracted one mode at a time in blocks of
    ``coeffs.shape[0]`` points, so no intermediate of the contraction is
    larger than the coefficient tensor.
    """
    C = coeffs.data if isinstance(coeffs, DenseTensor) else np.asarray(coeffs, dtype=np.float64)
    pts = np.asarray(points, dtype=np.float64)
    single = pts.ndim == 1
    if single:
        pts = pts[None, :]
    if pts.shape[1] != C.ndim:
        raise ValueError(f"points of arity {pts.shape[1]} for a {C.ndim}-variate series")
    if C.ndim == 0 or C.size == 0:
        raise ValueError(f"coefficient tensor of shape {C.shape} has no entries")
    bases = [_cheb_basis(pts[:, mu], n).T for mu, n in enumerate(C.shape)]
    out = np.empty(pts.shape[0])
    block = C.shape[0]
    for start in range(0, pts.shape[0], block):
        rows = slice(start, start + block)
        # (b, n_1) @ (n_1, n_2 ... n_d), then one batched matrix-vector product per mode
        acc = bases[0][rows] @ C.reshape(C.shape[0], -1)
        for mu in range(1, C.ndim):
            acc = acc.reshape(acc.shape[0], C.shape[mu], -1)
            acc = np.matmul(bases[mu][rows, None, :], acc)[:, 0, :]
        out[rows] = acc[:, 0]
    return float(out[0]) if single else out


def affine_rescaled(f: Callable, bounds: Sequence[tuple[float, float]]) -> Callable:
    """Wrap ``f`` on a box as a function on ``[-1, 1]**d``.

    ``bounds[mu] = (lo, hi)`` per variable; the wrapper maps unit-cube
    coordinates affinely into the box before calling ``f``.
    """
    los = np.array([lo for lo, _ in bounds], dtype=np.float64)
    his = np.array([hi for _, hi in bounds], dtype=np.float64)
    if not np.all(np.isfinite(los) & np.isfinite(his) & (his > los)):
        raise ValueError(f"every bound must be finite with lo < hi, got {list(bounds)}")

    def wrapped(*u: float) -> float:
        u_arr = np.asarray(u, dtype=np.float64)
        x = los + (u_arr + 1.0) * (his - los) / 2.0
        return f(*x)

    return wrapped
