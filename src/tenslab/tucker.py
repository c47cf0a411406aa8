"""Tucker format: multilinear basis change, HOSVD and HOOI refinement.

A Tucker representation is a (small) core tensor together with one
orthonormal factor matrix per mode; applying the factors to the core
reproduces the tensor.  :func:`hosvd` builds the factors from one SVD
per mode-wise unfolding, :func:`hooi` refines them by alternating
constrained SVDs.

:func:`hooi` never densifies inside its loop.  With orthonormal factors
the error is ``||A - recon||**2 = ||A||**2 - ||core||**2``, and the
core's norm is the norm of the kept singular values of the last mode's
projected unfolding, which the sweep has just computed.  That
difference cancels once the error nears roundoff, so at or below
``1e-8 * ||A||**2`` the error is recomputed from the dense residual.

:class:`ALSOptions` lives here because both alternating solvers, this
module's :func:`hooi` and :func:`tenslab.cp.cp_als`, take it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dense import DenseTensor, as_tensor, check_dense_cap, matricize, norm
from .linalg import svd

__all__ = [
    "ALSOptions",
    "TuckerDecomposition",
    "multilinear_apply",
    "tucker_reconstruct",
    "hosvd",
    "hooi",
]

# An alternating solver's identity-based objective (squared error) that is at
# most this fraction of ||A||**2 has lost its digits to cancellation; the
# solver recomputes it from the dense model.
_IDENTITY_GUARD = 1e-8


@dataclass
class ALSOptions:
    """Knobs shared by the alternating solvers.

    A sweep stops the iteration when the objective decrease over the
    sweep drops below ``rel_tol * ||A||**2``, or when the objective is
    exactly zero.
    """

    max_sweeps: int = 100
    rel_tol: float = 1e-12
    seed: int = 0
    init: str = "random"          # "random" | "hosvd"

    def __post_init__(self):
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be >= 1")
        if self.rel_tol < 0:
            raise ValueError("rel_tol must be >= 0")


@dataclass
class TuckerDecomposition:
    """Core of dims ``(r_1..r_d)`` plus per-mode ``(n_mu, r_mu)`` factors
    with orthonormal columns."""

    core: DenseTensor
    factors: list[np.ndarray]

    def __post_init__(self):
        self.core = as_tensor(self.core)
        self.factors = [np.ascontiguousarray(U, dtype=np.float64) for U in self.factors]
        if len(self.factors) != self.core.order:
            raise ValueError("need one factor per core mode")
        for mu, U in enumerate(self.factors):
            if U.ndim != 2 or U.shape[1] != self.core.dims[mu]:
                raise ValueError(
                    f"factor {mu + 1} shape {U.shape} incompatible with core "
                    f"dims {self.core.dims}")
            gram = U.T @ U
            if np.max(np.abs(gram - np.eye(U.shape[1]))) > 1e-8:
                raise ValueError(f"factor {mu + 1} columns are not orthonormal")

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(U.shape[0] for U in self.factors)

    @property
    def ranks(self) -> tuple[int, ...]:
        return self.core.dims


def _normalize_flags(transpose, d: int) -> list[bool]:
    if isinstance(transpose, bool):
        return [transpose] * d
    flags = [bool(t) for t in transpose]
    if len(flags) != d:
        raise ValueError(f"need {d} transpose flags, got {len(flags)}")
    return flags


def multilinear_apply(A, mats: Sequence[np.ndarray], transpose=False) -> DenseTensor:
    """Apply one matrix per mode: the action ``(M_1, ..., M_d) . A``.

    With ``transpose=False`` the matrix multiplies each mode-``mu``
    fiber directly (``M_mu`` of shape ``(m_mu, n_mu)``); with the flag
    set, its transpose does (``M_mu`` of shape ``(n_mu, m_mu)``), which
    is the basis-change direction used to form Tucker cores.  ``None``
    entries leave a mode untouched.  Implemented as the classic cycle of
    unfold, multiply, fold, one mode at a time.
    """
    A = as_tensor(A)
    d = A.order
    if len(mats) != d:
        raise ValueError(f"need {d} matrices for order {d}")
    flags = _normalize_flags(transpose, d)
    out = A.data
    for mu0, (M, flag) in enumerate(zip(mats, flags)):
        if M is None:
            continue
        M = np.asarray(M, dtype=np.float64)
        op = M.T if flag else M
        if op.shape[1] != out.shape[mu0]:
            raise ValueError(
                f"matrix for mode {mu0 + 1} contracts {op.shape[1]} values against "
                f"dimension {out.shape[mu0]}")
        out = np.moveaxis(np.tensordot(op, out, axes=(1, mu0)), 0, mu0)
    return DenseTensor(out)


def tucker_reconstruct(T: TuckerDecomposition, cap: int | None = None) -> DenseTensor:
    """Densify by applying the factors (untransposed) to the core, within the cap."""
    check_dense_cap(T.dims, cap)
    return multilinear_apply(T.core, T.factors, transpose=False)


def hosvd(A, ranks: Sequence[int]) -> tuple[TuckerDecomposition, list[np.ndarray]]:
    """Higher-order SVD at the requested per-mode ranks.

    For each mode the tensor is unfolded with that mode as columns and
    the leading right singular vectors become the mode's orthonormal
    basis; the core is the tensor expressed in these bases.  In the new
    basis the mode-``mu`` slices are pairwise orthogonal with norms
    equal to that unfolding's singular values.  Returns the
    decomposition and the per-mode singular value arrays.
    """
    A = as_tensor(A)
    ranks = [int(r) for r in ranks]
    if len(ranks) != A.order:
        raise ValueError(f"need {A.order} ranks, got {len(ranks)}")
    for r, n in zip(ranks, A.dims):
        if not 1 <= r <= n:
            raise ValueError(f"rank {r} out of range 1..{n}")
    factors, spectra = [], []
    for mu in range(1, A.order + 1):
        res = svd(matricize(A, mu).data)
        spectra.append(res.singular_values.copy())
        factors.append(res.V[:, :ranks[mu - 1]].copy())
    core = multilinear_apply(A, factors, transpose=True)
    return TuckerDecomposition(core, factors), spectra


def hooi(A, ranks: Sequence[int], opts: ALSOptions | None = None
         ) -> tuple[TuckerDecomposition, list[float]]:
    """Higher-order orthogonal iteration (alternating subspace refinement).

    Starts from :func:`hosvd`.  Each step fixes every subspace but one,
    projects the tensor onto the fixed subspaces, unfolds with the free
    mode as columns and takes the leading right singular vectors as the
    new basis (Gauss-Seidel style: the freshest bases are used within a
    sweep).  Equivalent to maximizing the core energy, so the
    reconstruction error never increases across sweeps.  Returns the
    decomposition and the per-sweep error trace (initial HOSVD error
    first).

    Each error is ``sqrt(||A||**2 - ||core||**2)``; after a sweep
    ``||core||**2`` is the sum of the squared kept singular values of
    the last mode's step.  When that difference is at most
    ``1e-8 * ||A||**2`` the error is the dense residual norm instead.
    """
    A = as_tensor(A)
    opts = opts or ALSOptions(max_sweeps=50)
    tuck, _ = hosvd(A, ranks)
    factors = [U.copy() for U in tuck.factors]
    d = A.order
    norm_sq = norm(A) ** 2

    def error_of(core_sq: float) -> float:
        gap = norm_sq - core_sq
        if gap > _IDENTITY_GUARD * norm_sq:
            return math.sqrt(gap)
        core = multilinear_apply(A, factors, transpose=True)
        recon = multilinear_apply(core, factors, transpose=False)
        return norm(DenseTensor(A.data - recon.data))

    trace = [error_of(norm(tuck.core) ** 2)]
    for _ in range(opts.max_sweeps):
        for mu0 in range(d):
            reducers = [factors[nu] if nu != mu0 else None for nu in range(d)]
            Y = multilinear_apply(A, reducers, transpose=True)
            res = svd(matricize(Y, mu0 + 1).data)
            factors[mu0] = res.V[:, :ranks[mu0]].copy()
        # the last step's kept singular values carry the core's norm
        trace.append(error_of(float(np.sum(res.singular_values[:ranks[-1]] ** 2))))
        if trace[-1] == 0.0 or trace[-2] ** 2 - trace[-1] ** 2 < opts.rel_tol * norm_sq:
            break
    core = multilinear_apply(A, factors, transpose=True)
    return TuckerDecomposition(core, factors), trace
