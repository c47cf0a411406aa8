"""Tensor-train format and its in-format arithmetic.

A TT representation stores one order-3 core per mode, with chain ranks
``1 = r_0, r_1, ..., r_{d-1}, r_d = 1``; every entry is the 1x1 matrix
product of the per-mode core slices.  This keeps storage linear in the
order and makes sums over indices (partition function, marginals) chains
of small matrix products, densifying nothing.

``tt_svd`` (of a dense tensor) and ``tt_round`` (of a train whose ranks
grew) share one left-to-right step: keep the left singular vectors ``U``
of the unfolding ``M``, from ``one_sided_svd(M.T)`` truncated by
``SVDResult.truncate_to``, as the core and carry ``U.T @ M`` (a tall ``M``
by ``linalg.svd``, CholeskyQR2 under the bound below, else gesdd).  A tolerance
gives each of the ``d-1`` steps the tail budget ``rel_tol * ||A|| /
sqrt(d-1)`` (Oseledets, SISC 2011).  ``tt_round`` first makes every core
but the first row-orthonormal by ``linalg``'s tall QR: CholeskyQR2 (Fukaya
et al., ScalA 2014) where ``8 kappa sqrt((m n + n (n + 1)) u) <= 1``
(Yamamoto et al., ETNA 44, 2015), else Householder.  ``tt_add``,
``cp_to_tt`` and ``additive_tt`` build every core by their interior rule
and then close the boundary ranks to 1, so no order is a special case.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dense import DenseTensor, _check_multi_index, _dims, _integers, _one_based, _sumsq, \
    as_tensor, check_dense_cap
from .linalg import _qr, _tail_budget, check_tolerance, one_sided_svd
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
            if G.ndim != 3 or not G.shape[1]:
                raise ValueError(f"core {mu} has shape {G.shape}, expected (r, n, r') "
                                 f"with n >= 1")
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
        return (1,) + self.ranks + (1,)

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
        return float(np.prod(self.step_qualities))


def _check_targets(d: int, ranks, rel_tol) -> Sequence:
    """Check ``tt_svd``/``tt_round`` targets; returns the per-step rank caps."""
    if ranks is not None and rel_tol is not None:
        raise ValueError("give target ranks or a tolerance, not both")
    if rel_tol is not None:
        check_tolerance(rel_tol)
    if ranks is None:
        return [None] * (d - 1)
    ranks = _integers(ranks, "ranks", 1)
    if len(ranks) != d - 1:
        raise ValueError(f"need {d - 1} interior ranks, got {len(ranks)}")
    return ranks


def _step(M: np.ndarray, cap: int | None, budget: float | None):
    """Left-to-right truncation step of ``tt_svd`` and ``tt_round``.

    Returns the full one-sided SVD of the unfolding ``M``, the kept left
    singular vectors ``U`` (the next core) and the carry ``U.T @ M``.
    """
    res = one_sided_svd(M.T)
    U = res.truncate_to(cap, budget).U
    return res, U, U.T @ M


def tt_svd(A, ranks: Sequence[int] | None = None,
           rel_tol: float | None = None) -> tuple[TTTensor, TTQuality]:
    """Build a TT decomposition or approximation of a dense tensor.

    Walks the modes left to right, folding the next mode into the rows of
    the carry and taking the shared truncation step.  Exactly one of

    * ``ranks``: hard per-step ranks ``(r_1, ..., r_{d-1})``,
    * ``rel_tol``: one relative tolerance; each SVD keeps an l2 tail of
      at most ``rel_tol * ||A|| / sqrt(d-1)``, so the total relative
      error is at most ``rel_tol``,

    may be given; with neither, the decomposition is exact.  Returns the
    train and the per-step quality accounting.
    """
    A = as_tensor(A)
    ranks = _check_targets(A.order, ranks, rel_tol)
    norm_sq = _sumsq(A.data)
    budget = _tail_budget(rel_tol, norm_sq, max(A.order - 1, 1))

    cores, qualities, tails = [], [], []
    W = A.data.reshape(1, -1)
    for n_mu, cap in zip(A.dims, ranks):
        r_prev = W.shape[0]
        res, U, W = _step(W.reshape(r_prev * n_mu, -1), cap, budget)
        k = U.shape[1]
        cores.append(U.reshape(r_prev, n_mu, k))
        s = res.singular_values
        qualities.append(1.0 if s[0] == 0.0 else _sumsq(s[:k] / s[0]) / _sumsq(s / s[0]))
        tails.append(res.tail_energy(k))
    cores.append(W.reshape(-1, A.dims[-1], 1))
    quality = TTQuality(qualities, tails, norm_sq, _sumsq(W))
    return TTTensor(cores), quality


def tt_entry(T: TTTensor, index: Sequence[int]) -> float:
    """Entry at a 1-based multi-index: the chain product of core slices."""
    row = np.ones((1, 1))
    for G, i in zip(T.cores, _check_multi_index(index, T.dims)):
        row = row @ G[:, i, :]
    return float(row[0, 0])


def tt_reconstruct(T: TTTensor, cap: int | None = None) -> DenseTensor:
    """Densify the train by the reverse cascade of its construction."""
    check_dense_cap(T.dims, cap)
    out = np.ones((1, 1))                            # (n_1 ... n_mu, r_mu)
    for G in T.cores:
        r_prev, n, r = G.shape
        out = (out @ G.reshape(r_prev, n * r)).reshape(-1, r)
    return DenseTensor(out.reshape(T.dims))


def _check_same_dims(T: TTTensor, S: TTTensor) -> None:
    if T.dims != S.dims:
        raise ValueError(f"dims differ: {T.dims} vs {S.dims}")


def _close(cores: list[np.ndarray]) -> list[np.ndarray]:
    """Close the boundary ranks of cores built by an interior rule: sum the
    first core over its left rank and the last core over its right rank."""
    cores[0] = np.sum(cores[0], axis=0, keepdims=True)
    cores[-1] = np.sum(cores[-1], axis=2, keepdims=True)
    return cores


def tt_add(T: TTTensor, S: TTTensor) -> TTTensor:
    """Sum of two trains without densifying: ranks add.

    Core slices stack block-diagonally; closing the boundary ranks turns
    the first and last cores into concatenations along the free rank.
    """
    _check_same_dims(T, S)
    cores = []
    for G, H in zip(T.cores, S.cores):
        rl1, n, rr1 = G.shape
        rl2, _, rr2 = H.shape
        C = np.zeros((rl1 + rl2, n, rr1 + rr2))
        C[:rl1, :, :rr1] = G
        C[rl1:, :, rr1:] = H
        cores.append(C)
    return TTTensor(_close(cores))


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

    Two sweeps: right-to-left orthogonalization (LQ on the unfolded cores,
    by CholeskyQR2 (Fukaya et al., ScalA 2014) where ``8 kappa sqrt((m n +
    n (n + 1)) 2**-53) <= 1`` (Yamamoto et al., ETNA 44, 2015), else
    Householder), then the left-to-right truncation step of ``tt_svd`` on
    each core, whose SVD takes the same route, its carry multiplied into the
    next core.  Rounding a train back to (at least) its true ranks preserves
    the entries up to roundoff.
    Both sweeps rebind cores and never write into one, so the input is left
    unchanged; at ``d = 1`` both are empty and the result shares its one
    core with the input.
    """
    d = T.order
    ranks = _check_targets(d, ranks, rel_tol)
    cores = list(T.cores)
    # right-to-left: make every core but the first row-orthogonal
    for mu in range(d - 1, 0, -1):
        r_prev, n, r = cores[mu].shape
        # the unfolding is R.T @ Q.T, and Q.T has orthonormal rows
        Q, R = _qr(cores[mu].reshape(r_prev, n * r).T, want_q=True)
        cores[mu] = Q.T.reshape(-1, n, r)
        cores[mu - 1] = np.tensordot(cores[mu - 1], R.T, axes=(2, 0))

    # all later cores are orthogonal now, so the first holds the norm
    budget = _tail_budget(rel_tol, _sumsq(cores[0]), max(d - 1, 1))

    # left-to-right: truncate
    for mu in range(d - 1):
        r_prev, n, r = cores[mu].shape
        _, U, carry = _step(cores[mu].reshape(r_prev * n, r), ranks[mu], budget)
        cores[mu] = U.reshape(r_prev, n, -1)
        cores[mu + 1] = np.tensordot(carry, cores[mu + 1], axes=(1, 0))
    return TTTensor(cores)


def tt_partition(T: TTTensor) -> float:
    """Sum of all entries as a chain of summed-core matrix products."""
    row = np.ones((1, 1))
    for G in T.cores:
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

    Every core slice is diagonal in the term index and the first core
    carries the weights; closing the boundary ranks leaves the first core
    the weighted factor and the last the transposed factor.
    """
    terms = np.arange(cp.rank)
    cores = []
    for X in [cp.factors[0] * cp.weights, *cp.factors[1:]]:
        C = np.zeros((cp.rank, X.shape[0], cp.rank))
        C[terms, :, terms] = X.T
        cores.append(C)
    return TTTensor(_close(cores))


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
    n_terms = math.prod(T.ranks)
    if n_terms > max_terms:
        raise ValueError(
            f"expansion would produce {n_terms} terms (cap {max_terms})")
    # column t of bonds: term t's index on every bond (0 on both ends), in
    # np.ndindex order of the interior ones; core mu spans bonds mu and mu + 1
    bonds = np.indices(T.full_ranks).reshape(-1, n_terms)
    factors = [G[bonds[mu], :, bonds[mu + 1]].T for mu, G in enumerate(T.cores)]
    keep = np.logical_and.reduce([np.any(X != 0.0, axis=0) for X in factors])
    if not keep.any():
        factors = [np.zeros((n, 1)) for n in T.dims]
        return CPDecomposition.from_factors(factors, np.zeros(1))
    return CPDecomposition.from_factors([X[:, keep] for X in factors])


def additive_tt(values_per_mode: Sequence[Sequence[float]]) -> TTTensor:
    """Rank-2 train of the additive tensor ``A[i] = sum_mu f_mu(i_mu)``.

    Every core slice is the unipotent matrix ``[[1, 0], [f_mu(i), 1]]``;
    the first core keeps its second row ``(f_1(i), 1)`` and the last its
    first column ``(1, f_d(i))^T``.
    """
    fs = [np.asarray(f, dtype=np.float64).reshape(-1) for f in values_per_mode]
    if len(fs) < 2:
        raise ValueError("the additive construction needs at least two modes")
    cores = []
    for f in fs:
        C = np.zeros((2, len(f), 2))
        C[0, :, 0] = 1.0
        C[1, :, 0] = f
        C[1, :, 1] = 1.0
        cores.append(C)
    cores[0] = cores[0][1:]
    cores[-1] = cores[-1][:, :, :1]
    return TTTensor(cores)


def zeros_tt(dims: Sequence[int]) -> TTTensor:
    """All-zero train with every rank equal to 1 (keeps ``tt_add`` total)."""
    return TTTensor([np.zeros((1, n, 1)) for n in _dims(dims)])
