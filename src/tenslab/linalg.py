"""Order-2 building blocks: SVD with deterministic signs, truncations,
pseudo-inverse, CUR sampling, Kronecker-family products, ball volumes.

Every decomposition engine in this package reduces to the routines here.
``svd`` hands LAPACK a wide matrix as its tall transpose, after a tall QR
where ``_cholqr2`` applies, and fixes the sign ambiguity in place
(largest-magnitude entry of each left singular vector made nonnegative)
so that goldens are reproducible.
TT-SVD, HOSVD and HOOI keep one side of each unfolding's SVD and get it
from :func:`one_sided_svd`, which reduces a tall matrix to its small
triangle by QR first, so no engine forms the long factor it would drop;
the sign convention lands on the factor the engine keeps.  ``_cholqr2`` is
the one tall-QR rule, of ``svd``, ``one_sided_svd`` and ``tt_round``'s sweep:
an m x n ``L`` (m > n) goes by CholeskyQR2 (Fukaya et al., ScalA 2014) when
``8 kappa(L) sqrt((m n + n (n + 1)) u) <= 1``, ``u = 2**-53``, and both
Choleskys succeed, the sufficient condition under which it is as backward
stable as Householder (Yamamoto et al., ETNA 44, 2015); else ``_qr`` takes
Householder and ``svd`` gives ``L`` to gesdd whole, which does that QR itself.
Every truncating engine calls :meth:`SVDResult.truncate_to`, the one place
that applies :func:`truncation_rank`; tolerances pass :func:`check_tolerance`,
and ``_tail_budget`` is the one split of a tolerance over ``k`` truncations.
``_significant`` is the one numerical-rank rule (``RANK_CUTOFF``), shared
by the pseudo-inverse, the CP-ALS Gram solve and ``_independent_rows``, the
independence test of CUR and the border-rank demo.
:func:`cp_product` and the CP-ALS update share one Khatri-Rao chain,
which alone fixes the row order of every CP unfolding.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Sequence

import numpy as np

from .dense import DenseTensor, _integers, _one_based, _sumsq, as_tensor

__all__ = [
    "SVDResult",
    "RANK_CUTOFF",
    "svd",
    "one_sided_svd",
    "truncated_svd",
    "svd_to_tolerance",
    "check_tolerance",
    "truncation_rank",
    "pseudo_inverse",
    "kronecker",
    "khatri_rao",
    "tracy_singh",
    "cp_product",
    "cur",
    "greedy_cur_pivots",
    "ball_volume",
]

# relative cutoff sigma <= RANK_CUTOFF * sigma_1 below which a singular
# value is treated as zero; applied only through _significant
RANK_CUTOFF = 1e-12


def _significant(s: np.ndarray) -> np.ndarray:
    """Mask of the values of a spectrum ``s`` above ``RANK_CUTOFF * max(s)``;
    all False when ``max(s) == 0``."""
    return s > RANK_CUTOFF * np.max(s, initial=0.0)


def _independent_rows(M: np.ndarray) -> bool:
    """Whether the rows of ``M`` are linearly independent: as many
    significant singular values as rows."""
    return np.count_nonzero(_significant(np.linalg.svd(M, compute_uv=False))) == M.shape[0]


def _tail_budget(rel_tol: float | None, energy: float, parts: int) -> float | None:
    """Squared tail each of ``parts`` truncations may drop so that together
    they stay within ``rel_tol`` of ``sqrt(energy)``; None without a tolerance."""
    return None if rel_tol is None else (rel_tol / math.sqrt(parts)) ** 2 * energy


def _as_matrix(M) -> np.ndarray:
    arr = as_tensor(M).data
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ValueError(f"expected a matrix, got order {arr.ndim}")
    return arr


@dataclass
class SVDResult:
    """Thin SVD ``M = U diag(s) V^T`` with orthonormal columns in U and V.

    ``singular_values`` is nonincreasing; ``k = len(singular_values)`` is
    ``min(m, n)`` for a full thin SVD or the truncation rank.
    """

    U: np.ndarray
    singular_values: np.ndarray
    V: np.ndarray

    @property
    def rank(self) -> int:
        return len(self.singular_values)

    @property
    def nuclear_norm(self) -> float:
        return float(np.sum(self.singular_values))

    def reconstruct(self) -> np.ndarray:
        return (self.U * self.singular_values) @ self.V.T

    def truncate(self, r: int) -> "SVDResult":
        """Leading ``r`` triplets as slices, sharing memory with ``self``."""
        r = _integers([r], "rank", 1, self.rank)[0]
        return SVDResult(self.U[:, :r], self.singular_values[:r], self.V[:, :r])

    def truncate_to(self, max_rank: int | None = None,
                    budget: float | None = None) -> "SVDResult":
        """:meth:`truncate` to :func:`truncation_rank`; every truncating
        engine keeps its triplets through this method."""
        return self.truncate(truncation_rank(self.singular_values, max_rank, budget))

    def tail_energy(self, r: int) -> float:
        """Squared reconstruction error of the rank-``r`` truncation."""
        return _sumsq(self.singular_values[r:])


def svd(M) -> SVDResult:
    """Full thin SVD with the deterministic sign convention.

    The first largest-magnitude entry of every left singular vector is
    made nonnegative by flipping it and its right vector in place.  A
    wide matrix is factored as its tall transpose ``A.T = V diag(s) U^T``.
    A tall operand that :func:`_cholqr2` factors as ``Q R`` has only ``R``
    decomposed by LAPACK, and ``Q`` times its left factor returned.
    A zero matrix yields all-zero singular values with arbitrary
    orthonormal factors.
    """
    A = _as_matrix(M)
    wide = A.shape[1] > A.shape[0]
    T = A.T if wide else A
    Q, R = _cholqr2(T, want_q=True) or (None, T)      # refused: gesdd takes T whole
    U, s, Vt = np.linalg.svd(R, full_matrices=False)
    U = U if Q is None else Q @ U
    U, V = (Vt.T, U) if wide else (U, Vt.T)
    # row-major |U^T|: argmax then scans contiguous rows without a copy
    pivot = np.argmax(np.abs(U.T, order="C"), axis=1)
    flip = np.where(U[pivot, np.arange(U.shape[1])] < 0, -1.0, 1.0)
    U *= flip
    V *= flip
    return SVDResult(U, s, V)


def _cholqr2(L: np.ndarray, want_q: bool = False):
    """``R``, or ``(Q, R)`` with ``want_q``, of a thin QR of ``L`` by
    CholeskyQR2 under the route rule of the module docstring; None where
    that rule sends ``L`` to Householder."""
    m, n = L.shape
    if m > n:
        # kappa**2 = lam[-1] / lam[0] from the Gram, not an SVD, so the only SVD
        # an engine makes stays that of its small triangle; above u**-1/2 the
        # estimate is inaccurate but still fails the bound.  A non-finite Gram
        # (OpenBLAS's Cholesky would pass its nan through) or a subnormal
        # lam[0] (fewer digits than the bound allows for) goes to Householder.
        with np.errstate(over="ignore", invalid="ignore"):
            G = L.T @ L
        lam = np.linalg.eigvalsh(G) if np.isfinite(G).all() else [0.0]
        slack = 64 * (m * n + n * (n + 1)) * 2.0 ** -53    # 1 / (kappa**2 at the bound)
        if lam[0] >= 2.0 ** -1022 and slack * lam[-1] <= lam[0]:
            try:
                R1 = np.linalg.cholesky(G).T
                Q = L @ np.linalg.inv(R1)
                R2 = np.linalg.cholesky(Q.T @ Q).T
                return (Q @ np.linalg.inv(R2), R2 @ R1) if want_q else R2 @ R1
            except np.linalg.LinAlgError:
                pass
    return None


def _qr(L: np.ndarray, want_q: bool = False):
    """:func:`_cholqr2`, else Householder QR."""
    QR = _cholqr2(L, want_q)
    return QR if QR is not None else np.linalg.qr(L, mode="reduced" if want_q else "r")


def one_sided_svd(L) -> SVDResult:
    """SVD of ``L.T`` that never forms ``L``'s left factor.

    ``U`` holds ``L``'s right singular vectors, under the sign convention
    of :func:`svd`, and ``singular_values`` are ``L``'s.  A tall ``L`` is
    first reduced to its ``k x k`` triangle ``R`` with no ``Q`` kept (Chan,
    ACM TOMS 1982), and ``svd(R.T)`` is returned; its ``V`` is ``Q.T``
    times ``L``'s left singular vectors.  ``R`` comes from CholeskyQR2
    (Fukaya et al., ScalA 2014) when ``8 kappa(L) sqrt((m n + n (n + 1)) u)
    <= 1``, ``u = 2**-53``, and both Choleskys succeed, the sufficient
    condition for Householder's backward stability (Yamamoto et al., ETNA
    44, 2015), else from Householder QR.  A square or wide ``L`` gives
    ``svd(L.T)``, whose ``V`` is ``L``'s left factor.  Every route is
    backward stable: the singular values carry gesdd's ``O(eps * s_1)``
    absolute error.
    """
    # an ndarray of any layout reaches QR uncopied, a transposed view too
    L = L if isinstance(L, np.ndarray) and L.ndim == 2 else _as_matrix(L)
    if L.shape[0] > L.shape[1]:
        return svd(_qr(L).T)
    return svd(L.T)


def truncated_svd(M, r: int) -> SVDResult:
    """Leading-``r`` part of the SVD (the best rank-``r`` approximation)."""
    return svd(M).truncate(r)


def check_tolerance(rel_tol: float, name: str = "rel_tol") -> None:
    """Reject a relative tolerance that is not finite and >= 0."""
    if not (math.isfinite(rel_tol) and rel_tol >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {rel_tol!r}")


def truncation_rank(s, max_rank: int | None = None, budget: float | None = None) -> int:
    """Smallest ``r`` with ``sum(s[r:]**2) <= budget`` (a squared tail),
    capped at ``max_rank``, and at least 1."""
    r = len(s)
    if budget is not None:
        tails = np.concatenate([np.cumsum(s[::-1] ** 2)[::-1][1:], [0.0]])
        r = int(np.argmax(tails <= budget)) + 1
    if max_rank is not None:
        r = min(r, max_rank)
    return max(r, 1)


def svd_to_tolerance(M, rel_tol: float) -> SVDResult:
    """Smallest truncation whose tail satisfies
    ``sum(s[r:]**2) <= rel_tol**2 * sum(s**2)``, at least rank 1.

    ``rel_tol = 0`` drops only exactly-zero singular values.
    """
    check_tolerance(rel_tol)
    full = svd(M)
    energy = _sumsq(full.singular_values)
    return full.truncate_to(budget=_tail_budget(rel_tol, energy, 1))


def pseudo_inverse(M) -> np.ndarray:
    """Moore-Penrose pseudo-inverse via the dyadic decomposition.

    Singular values at most ``RANK_CUTOFF * sigma_1`` are dropped.
    """
    res = svd(M)
    s = res.singular_values
    inv = np.divide(1.0, s, out=np.zeros_like(s), where=_significant(s))
    return (res.V * inv) @ res.U.T


def kronecker(A, B) -> np.ndarray:
    """Blockwise Kronecker product: block ``(i, j)`` is ``a_ij * B``."""
    A, B = _as_matrix(A), _as_matrix(B)
    return np.kron(A, B)


def khatri_rao(A, B) -> np.ndarray:
    """Columnwise Kronecker product of two matrices with equal column counts."""
    A, B = _as_matrix(A), _as_matrix(B)
    if A.shape[1] != B.shape[1]:
        raise ValueError(f"column counts differ: {A.shape[1]} vs {B.shape[1]}")
    m, r = A.shape
    p = B.shape[0]
    return (A[:, None, :] * B[None, :, :]).reshape(m * p, r)


def _check_blocks(splits: Sequence[int], size: int, what: str) -> list[int]:
    pts = [0, *_integers(splits, f"{what} split points"), size]
    if any(pts[i] >= pts[i + 1] for i in range(len(pts) - 1)):
        raise ValueError(f"{what} split points {list(splits)} do not tile 0..{size}")
    return pts


def _blockwise_order(a_pts: list[int], b_pts: list[int]) -> np.ndarray:
    """Kronecker row (or column) indices in block order: blocks of ``A``
    outside, blocks of ``B`` inside, row-major within each block pair."""
    idx = np.arange(a_pts[-1] * b_pts[-1]).reshape(a_pts[-1], b_pts[-1])
    return np.concatenate([idx[a0:a1, b0:b1].reshape(-1)
                           for a0, a1 in zip(a_pts, a_pts[1:]) for b0, b1 in zip(b_pts, b_pts[1:])])


def tracy_singh(A, B, a_row_splits: Sequence[int] = (), a_col_splits: Sequence[int] = (),
                b_row_splits: Sequence[int] = (), b_col_splits: Sequence[int] = ()) -> np.ndarray:
    """Blockwise Kronecker product of two partitioned matrices.

    Partitions are given as interior split points (empty = one block),
    so both matrices single-block reduces to :func:`kronecker`.  The
    arrangement iterates A's blocks on the outside and B's on the
    inside; the result is a row/column rearrangement of
    ``kronecker(A, B)`` with the same shape.
    """
    A, B = _as_matrix(A), _as_matrix(B)
    ar = _check_blocks(a_row_splits, A.shape[0], "A row")
    ac = _check_blocks(a_col_splits, A.shape[1], "A column")
    br = _check_blocks(b_row_splits, B.shape[0], "B row")
    bc = _check_blocks(b_col_splits, B.shape[1], "B column")
    return kronecker(A, B)[np.ix_(_blockwise_order(ar, br), _blockwise_order(ac, bc))]


def _khatri_rao_others(factors: Sequence[np.ndarray], skip: int) -> np.ndarray:
    """Khatri-Rao product of every factor but ``factors[skip]``.

    Its rows run row-major over the remaining modes in ascending order,
    matching the row-major unfolding with mode ``skip`` as columns; with
    no other factor it is one row of ones.
    """
    others = [X for nu, X in enumerate(factors) if nu != skip]
    return reduce(khatri_rao, others) if others else np.ones((1, factors[skip].shape[1]))


def cp_product(factors: Sequence, weights=None) -> DenseTensor:
    """Sum of rank-one terms from per-mode factor matrices.

    ``factors[mu]`` has shape ``(n_mu, r)``; term ``a`` is the tensor
    product of the ``a``-th columns, scaled by ``weights[a]`` (1 if
    absent).  The mode-1 unfolding is ``(X_1 * w) @ K.T`` with ``K`` the
    Khatri-Rao product of the other factors, taken over blocks of at most
    ``n_1`` terms so that no block of ``K`` is larger than the output.
    """
    mats = [_as_matrix(X) for X in factors]
    if not mats or any(X.shape[1] != mats[0].shape[1] for X in mats):
        raise ValueError(f"need one or more factor matrices with equal column counts; "
                         f"got shapes {[X.shape for X in mats]}")
    r = mats[0].shape[1]
    w = np.ones(r) if weights is None else np.asarray(weights, dtype=np.float64)
    if w.shape != (r,):
        raise ValueError(f"need {r} weights, got shape {w.shape}")
    dims = tuple(X.shape[0] for X in mats)
    out = None
    for start in range(0, r, dims[0]):
        cols = slice(start, start + dims[0])
        block = [X[:, cols] for X in mats]
        part = (block[0] * w[cols]) @ _khatri_rao_others(block, 0).T
        out = part if out is None else out + part
    return DenseTensor(out.reshape(dims))


def cur(A, rows: Sequence[int], cols: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """CUR approximation ``C @ inv(Ahat) @ R`` from sampled rows/columns.

    ``rows`` and ``cols`` are 1-based index sets of equal size ``r``.
    Returns the approximation together with the intersection block
    ``Ahat``.  Exact when ``rank(A) = r`` and ``Ahat`` is nonsingular; an
    intersection with a singular value at most ``RANK_CUTOFF * sigma_1``
    raises.
    """
    A = _as_matrix(A)
    I = list(_one_based(rows, A.shape[0], "rows"))
    J = list(_one_based(cols, A.shape[1], "cols"))
    if len(I) != len(J):
        raise ValueError("need equally many rows and columns")
    if not I:
        raise ValueError("rows and cols are empty index sets; CUR needs rank >= 1")
    Ahat = A[np.ix_(I, J)]
    if not _independent_rows(Ahat):
        raise ValueError("intersection block is numerically singular")
    C = A[:, J]
    R = A[I, :]
    return C @ np.linalg.solve(Ahat, R), Ahat


def greedy_cur_pivots(A, r: int) -> tuple[list[int], list[int]]:
    """Greedy residual-based pivot proposal for :func:`cur` (1-based).

    Repeatedly picks the largest-magnitude entry of the residual and
    eliminates its cross.  A heuristic for near-maximal volume, not an
    optimality guarantee.
    """
    r = _integers([r], "rank", 1)[0]
    E = _as_matrix(A).copy()
    rows, cols = [], []
    for _ in range(r):
        i, j = np.unravel_index(np.argmax(np.abs(E)), E.shape)
        if E[i, j] == 0.0:
            raise ValueError(f"residual vanished before reaching the requested rank {r}")
        rows.append(int(i) + 1)
        cols.append(int(j) + 1)
        E = E - np.outer(E[:, j], E[i, :]) / E[i, j]
    return rows, cols


def ball_volume(n: int, p, exact: bool = False):
    """Volume of the unit ball of the l^p norm in dimension ``n``.

    ``mu_n = 2**n * Gamma(1 + 1/p)**n / Gamma(1 + n/p)``; closed forms
    ``2**n / n!`` for ``p=1`` and ``2**n`` for ``p=inf``.  With
    ``exact=True`` those two cases return a :class:`fractions.Fraction`.
    """
    n = _integers([n], "dimension", 1)[0]
    if p == 1:
        frac = Fraction(2 ** n, math.factorial(n))
        return frac if exact else float(frac)
    if p in (math.inf, np.inf) or p == "inf":
        if exact:
            return Fraction(2 ** n)
        return float(2 ** n)
    if p == 2:
        if exact:
            raise ValueError("exact volume is only available for p in {1, inf}")
        return 2.0 ** n * math.gamma(1.5) ** n / math.gamma(1 + n / 2)
    raise ValueError(f"unsupported norm order {p!r}; use 1, 2 or inf")
