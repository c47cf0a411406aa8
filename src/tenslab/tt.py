"""Tensor-train format and its in-format arithmetic.

A TT representation stores one order-3 core per mode, with chain ranks
``1 = r_0, r_1, ..., r_{d-1}, r_d = 1``; every entry is the 1x1 matrix
product of the per-mode core slices.  This keeps storage linear in the
order and makes sums over indices (partition function, marginals) chains
of small matrix products, densifying nothing.

``tt_svd`` decomposes or approximates a dense tensor by a sweep of
truncated SVDs; ``tt_add`` / ``tt_hadamard`` combine trains without
leaving the format; ``tt_round`` recompresses a train whose ranks grew.
A tolerance gives each of their ``d-1`` SVDs the tail budget
``rel_tol * ||A|| / sqrt(d-1)`` (Oseledets, SISC 2011), spent by
:meth:`tenslab.linalg.SVDResult.truncate_to`, the one truncation call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dense import DenseTensor, _check_multi_index, _integers, _one_based, as_tensor, \
    check_dense_cap, norm
from .linalg import check_tolerance, one_sided_svd, svd as _svd
from .cp import CPDecomposition

__all__ = [
    "TTTensor",
    "TTQuality",
    "tt_svd",
    "tt_entry",
    "tt_reconstruct",
    "tt_add",
    "tt_hadamard",
    "tt_round",
    "tt_partition",
    "tt_marginal",
    "cp_to_tt",
    "tt_to_cp",
    "additive_tt",
    "zeros_tt",
]

class TTTensor:
    """Chain of order-3 cores ``G_mu`` of shape ``(r_{mu-1}, n_mu, r_mu)``.

    Boundary ranks are 1, adjacent core ranks must match, and the entry
    at a (1-based) multi-index is the product of the selected slices:
    ``A[i] = G_1[:, i_1, :] @ ... @ G_d[:, i_d, :]``.
    """

    __slots__ = ("cores",)

    def __init__(self, cores: Sequence[np.ndarray]):
        cs = [np.ascontiguousarray(G, dtype=np.float64) for G in cores]
        if not cs:
            raise ValueError("a tensor train needs at least one core")
        for mu, G in enumerate(cs, start=1):
            if G.ndim != 3:
                raise ValueError(f"core {mu} has order {G.ndim}, expected 3")
        if cs[0].shape[0] != 1 or cs[-1].shape[2] != 1:
            raise ValueError("boundary ranks must be 1")
        for mu in range(len(cs) - 1):
            if cs[mu].shape[2] != cs[mu + 1].shape[0]:
                raise ValueError(
                    f"rank mismatch between cores {mu + 1} and {mu + 2}: "
                    f"{cs[mu].shape[2]} vs {cs[mu + 1].shape[0]}")
        self.cores = cs

    @property
    def order(self) -> int:
        return len(self.cores)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(G.shape[1] for G in self.cores)

    @property
    def ranks(self) -> tuple[int, ...]:
        """Interior chain ranks ``(r_1, ..., r_{d-1})``."""
        return tuple(G.shape[2] for G in self.cores[:-1])

    @property
    def full_ranks(self) -> tuple[int, ...]:
        """All chain ranks including the boundary 1s."""
        return (1,) + self.ranks + (1,) if self.order > 1 else (1, 1)

    def entry(self, index: Sequence[int]) -> float:
        return tt_entry(self, index)

    def to_dense(self, cap: int | None = None) -> DenseTensor:
        return tt_reconstruct(self, cap)

    def __add__(self, other):
        return tt_add(self, other)

    def __repr__(self):
        shape = "x".join(str(n) for n in self.dims)
        return f"TTTensor({shape}, ranks={self.ranks})"


@dataclass
class TTQuality:
    """Per-SVD bookkeeping of a TT-SVD run.

    ``step_qualities[mu]`` is the energy fraction the ``mu``-th SVD
    retained of the matrix it saw; ``step_tail_energies[mu]`` the
    squared energy it discarded.  ``input_energy`` (``||A||**2``) splits
    exactly into ``kept_energy`` plus the sum of the tails, and the
    reconstruction retains ``prod(step_qualities)`` of the input energy.
    """

    step_qualities: list[float]
    step_tail_energies: list[float]
    input_energy: float
    kept_energy: float

    @property
    def global_quality(self) -> float:
        return float(np.prod(self.step_qualities)) if self.step_qualities else 1.0


def _check_targets(d: int, ranks, rel_tol) -> Sequence:
    """Check ``tt_svd``/``tt_round`` targets; returns the per-step rank caps."""
    if ranks is not None and rel_tol is not None:
        raise ValueError("give target ranks or a tolerance, not both")
    if rel_tol is not None:
        check_tolerance(rel_tol)
    if ranks is None:
        return [None] * (d - 1)
    ranks = _integers(ranks, "ranks")
    if len(ranks) != d - 1:
        raise ValueError(f"need {d - 1} interior ranks, got {len(ranks)}")
    if any(r < 1 for r in ranks):
        raise ValueError(f"ranks {ranks} must be >= 1")
    return ranks


def tt_svd(A, ranks: Sequence[int] | None = None,
           rel_tol: float | None = None) -> tuple[TTTensor, TTQuality]:
    """Build a TT decomposition or approximation of a dense tensor.

    Walks the modes left to right: unfold the carried matrix ``W`` with
    the next mode folded into the rows, take its left singular vectors
    ``U`` from :func:`tenslab.linalg.one_sided_svd` of ``W.T`` (no right
    factor is formed), keep ``U`` as the next core and carry ``U.T @ W``
    forward.  Exactly one of

    * ``ranks``: hard per-step ranks ``(r_1, ..., r_{d-1})``,
    * ``rel_tol``: one relative tolerance; each SVD keeps an l2 tail of
      at most ``rel_tol * ||A|| / sqrt(d-1)``, so the total relative
      error is at most ``rel_tol``,

    may be given; with neither, the decomposition is exact.  Returns the
    train and the per-step quality accounting.
    """
    A = as_tensor(A)
    d = A.order
    dims = A.dims
    ranks = _check_targets(d, ranks, rel_tol)
    norm_a = norm(A)
    budget = None if rel_tol is None else (rel_tol * norm_a / math.sqrt(max(d - 1, 1))) ** 2

    if d == 1:
        core = A.data.reshape(1, dims[0], 1)
        quality = TTQuality([], [], norm_a ** 2, norm_a ** 2)
        return TTTensor([core]), quality

    cores: list[np.ndarray] = []
    qualities: list[float] = []
    tails: list[float] = []
    W = A.data.reshape(dims[0], -1)
    r_prev = 1
    for mu in range(d - 1):
        n_mu = dims[mu]
        W = W.reshape(r_prev * n_mu, -1)
        res = one_sided_svd(W.T)
        energy_before = float(np.sum(res.singular_values ** 2))
        kept = res.truncate_to(ranks[mu], budget)
        cores.append(kept.U.reshape(r_prev, n_mu, kept.rank))
        W = kept.U.T @ W
        qualities.append(1.0 if energy_before == 0.0 else
                         float(np.sum(kept.singular_values ** 2)) / energy_before)
        tails.append(res.tail_energy(kept.rank))
        r_prev = kept.rank
    cores.append(W.reshape(r_prev, dims[-1], 1))
    kept_energy = float(np.sum(W ** 2))
    quality = TTQuality(qualities, tails, norm_a ** 2, kept_energy)
    return TTTensor(cores), quality


def tt_entry(T: TTTensor, index: Sequence[int]) -> float:
    """Entry at a 1-based multi-index: the chain product of core slices."""
    idx = _check_multi_index(index, T.dims)
    row = T.cores[0][:, idx[0], :]
    for G, i in zip(T.cores[1:], idx[1:]):
        row = row @ G[:, i, :]
    return float(row[0, 0])


def tt_reconstruct(T: TTTensor, cap: int | None = None) -> DenseTensor:
    """Densify the train by the reverse cascade of its construction."""
    check_dense_cap(T.dims, cap)
    out = T.cores[0].reshape(T.dims[0], -1)          # (n_1, r_1)
    for G in T.cores[1:]:
        r_prev, n, r = G.shape
        out = out @ G.reshape(r_prev, n * r)
        out = out.reshape(-1, r)
    return DenseTensor(out.reshape(T.dims))


def _check_same_dims(T: TTTensor, S: TTTensor) -> None:
    if T.dims != S.dims:
        raise ValueError(f"dims differ: {T.dims} vs {S.dims}")


def tt_add(T: TTTensor, S: TTTensor) -> TTTensor:
    """Sum of two trains without densifying: ranks add.

    Boundary cores concatenate along the free rank; interior core
    slices stack block-diagonally.
    """
    _check_same_dims(T, S)
    if T.order == 1:
        return TTTensor([T.cores[0] + S.cores[0]])
    cores = []
    for mu, (G, H) in enumerate(zip(T.cores, S.cores)):
        rl1, n, rr1 = G.shape
        rl2, _, rr2 = H.shape
        if mu == 0:
            C = np.concatenate([G, H], axis=2)
        elif mu == T.order - 1:
            C = np.concatenate([G, H], axis=0)
        else:
            C = np.zeros((rl1 + rl2, n, rr1 + rr2))
            C[:rl1, :, :rr1] = G
            C[rl1:, :, rr1:] = H
        cores.append(C)
    return TTTensor(cores)


def tt_hadamard(T: TTTensor, S: TTTensor) -> TTTensor:
    """Entrywise product of two trains without densifying: ranks multiply.

    Every core slice is the Kronecker product of the operands' slices
    (columnwise Khatri-Rao at the boundaries).
    """
    _check_same_dims(T, S)
    cores = []
    for G, H in zip(T.cores, S.cores):
        rl1, n, rr1 = G.shape
        rl2, _, rr2 = H.shape
        C = np.einsum("aib,cid->acibd", G, H).reshape(rl1 * rl2, n, rr1 * rr2)
        cores.append(C)
    return TTTensor(cores)


def tt_round(T: TTTensor, ranks: Sequence[int] | None = None,
             rel_tol: float | None = None) -> TTTensor:
    """Recompress a train to lower ranks without densifying.

    Two sweeps: right-to-left orthogonalization (LQ on the unfolded
    cores), then a left-to-right truncated-SVD sweep to the targets.
    Rounding a train back to (at least) its true ranks preserves the
    entries up to roundoff.
    """
    d = T.order
    ranks = _check_targets(d, ranks, rel_tol)
    if d == 1:
        return TTTensor([G.copy() for G in T.cores])

    cores = [G.copy() for G in T.cores]
    # right-to-left: make every core but the first row-orthogonal
    for mu in range(d - 1, 0, -1):
        r_prev, n, r = cores[mu].shape
        M = cores[mu].reshape(r_prev, n * r)
        Q, R = np.linalg.qr(M.T)              # M = R.T @ Q.T, Q.T has orthonormal rows
        rho = Q.shape[1]
        cores[mu] = Q.T.reshape(rho, n, r)
        cores[mu - 1] = np.tensordot(cores[mu - 1], R.T, axes=(2, 0))

    norm_t = float(np.linalg.norm(cores[0]))  # all later cores are orthogonal now
    budget = None if rel_tol is None else (rel_tol * norm_t / math.sqrt(d - 1)) ** 2

    # left-to-right: truncate
    for mu in range(d - 1):
        r_prev, n, r = cores[mu].shape
        M = cores[mu].reshape(r_prev * n, r)
        kept = _svd(M).truncate_to(ranks[mu], budget)
        cores[mu] = kept.U.reshape(r_prev, n, kept.rank)
        carry = kept.singular_values[:, None] * kept.V.T
        cores[mu + 1] = np.tensordot(carry, cores[mu + 1], axes=(1, 0))
    return TTTensor(cores)


def tt_partition(T: TTTensor) -> float:
    """Sum of all entries as a chain of summed-core matrix products."""
    row = np.sum(T.cores[0], axis=1)
    for G in T.cores[1:]:
        row = row @ np.sum(G, axis=1)
    return float(row[0, 0])


def tt_marginal(T: TTTensor, mode: int) -> DenseTensor:
    """Sum over every mode but ``mode`` (1-based), without densifying.

    Entry ``i`` is ``(left partial product) @ G_mode[:, i, :] @ (right
    partial product)`` where the partial products chain the summed
    cores on each side.
    """
    mu = _one_based([mode], T.order, "mode")[0]
    left = np.ones((1, 1))
    for G in T.cores[:mu]:
        left = left @ np.sum(G, axis=1)
    right = np.ones((1, 1))
    for G in reversed(T.cores[mu + 1:]):
        right = np.sum(G, axis=1) @ right
    return DenseTensor(np.einsum("a,aib,b->i", left[0], T.cores[mu], right[:, 0]))


def cp_to_tt(cp: CPDecomposition) -> TTTensor:
    """Exact TT representation of a CP model with all chain ranks ``r``.

    Interior core slices are diagonal in the term index; the first core
    carries the weights.
    """
    d = cp.order
    r = cp.rank
    if d == 1:
        vec = cp.factors[0] @ cp.weights
        return TTTensor([vec.reshape(1, -1, 1)])
    cores = [(cp.factors[0] * cp.weights)[None, :, :]]    # (1, n_1, r)
    terms = np.arange(r)
    for mu in range(1, d - 1):
        C = np.zeros((r, cp.dims[mu], r))
        C[terms, :, terms] = cp.factors[mu].T
        cores.append(C)
    cores.append(cp.factors[d - 1].T.reshape(r, cp.dims[d - 1], 1))
    return TTTensor(cores)


def tt_to_cp(T: TTTensor, max_terms: int = 100_000) -> CPDecomposition:
    """Expand a train into a CP model, one term per interior rank tuple.

    Produces at most ``prod(r_mu)`` terms (``r**(d-1)`` for uniform
    ranks); terms with an all-zero vector on some mode are dropped.
    Guarded by ``max_terms`` since the expansion is exponential in the
    order.

    When the interior core slices happen to be simultaneously
    diagonalizable a representation with only ``r`` terms exists, but
    detecting that robustly is numerically delicate, so this routine
    always takes the generic expansion.
    """
    max_terms = _integers([max_terms], "max_terms")[0]
    d = T.order
    n_terms = math.prod(T.ranks)
    if n_terms > max_terms:
        raise ValueError(
            f"expansion would produce {n_terms} terms (cap {max_terms})")
    # column t of bonds: term t's index on every bond (0 on both ends), the
    # interior ones in np.ndindex order; core mu spans bonds mu and mu + 1
    idx = np.indices(T.ranks).reshape(d - 1, n_terms)
    edge = np.zeros((1, n_terms), dtype=idx.dtype)
    bonds = np.concatenate([edge, idx, edge])
    factors = [G[bonds[mu], :, bonds[mu + 1]].T for mu, G in enumerate(T.cores)]
    keep = np.logical_and.reduce([np.any(X != 0.0, axis=0) for X in factors])
    if not keep.any():
        factors = [np.zeros((n, 1)) for n in T.dims]
        return CPDecomposition.from_factors(factors, np.zeros(1))
    return CPDecomposition.from_factors([X[:, keep] for X in factors])


def additive_tt(values_per_mode: Sequence[Sequence[float]]) -> TTTensor:
    """Rank-2 train of the additive tensor ``A[i] = sum_mu f_mu(i_mu)``.

    The boundary rows are ``(f_1(i), 1)`` and ``(1, f_d(i))^T``; interior
    slices are the unipotent matrices ``[[1, 0], [f_mu(i), 1]]``.
    """
    fs = [np.asarray(f, dtype=np.float64).reshape(-1) for f in values_per_mode]
    d = len(fs)
    if d < 2:
        raise ValueError("the additive construction needs at least two modes")
    cores = []
    first = np.zeros((1, len(fs[0]), 2))
    first[0, :, 0] = fs[0]
    first[0, :, 1] = 1.0
    cores.append(first)
    for f in fs[1:-1]:
        C = np.zeros((2, len(f), 2))
        C[0, :, 0] = 1.0
        C[1, :, 0] = f
        C[1, :, 1] = 1.0
        cores.append(C)
    last = np.zeros((2, len(fs[-1]), 1))
    last[0, :, 0] = 1.0
    last[1, :, 0] = fs[-1]
    cores.append(last)
    return TTTensor(cores)


def zeros_tt(dims: Sequence[int]) -> TTTensor:
    """All-zero train with every rank equal to 1 (keeps ``tt_add`` total)."""
    dims = _integers(dims, "dims")
    if not dims or min(dims) < 1:
        raise ValueError(f"invalid dims {dims}: need d >= 1 and every n >= 1")
    return TTTensor([np.zeros((1, n, 1)) for n in dims])
