"""Tucker format: multilinear basis change, HOSVD and HOOI refinement.

A Tucker representation is a (small) core tensor together with one
orthonormal factor matrix per mode; applying the factors to the core
reproduces the tensor.  :func:`hosvd` builds the factors from one SVD
per mode-wise unfolding, :func:`hooi` refines them by alternating
constrained SVDs.

The alternating solvers :func:`hooi`, :func:`tenslab.cp.cp_als` and
:func:`tenslab.cp.best_rank_one` share :class:`ALSOptions` and
:class:`ALSTrace`, whose docstrings state the start, guard and stop rule.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .dense import DenseTensor, _integers, as_tensor, check_dense_cap, matricize, norm
from .linalg import _tail_budget, check_tolerance, one_sided_svd

__all__ = [
    "ALSOptions",
    "ALSTrace",
    "TuckerDecomposition",
    "multilinear_apply",
    "tucker_reconstruct",
    "hosvd",
    "hooi",
]

_IDENTITY_GUARD = 1e-8


@dataclass
class ALSOptions:
    """Knobs of the alternating solvers.  All read ``max_sweeps`` and
    ``rel_tol`` (the stop rule of :class:`ALSTrace`); :func:`hooi` starts
    from its HOSVD, while :func:`tenslab.cp.cp_als` and
    :func:`tenslab.cp.best_rank_one` start from ``init``: ``"random"`` unit
    columns drawn from ``seed``, or ``"hosvd"`` bases padded with such."""

    max_sweeps: int = 100
    rel_tol: float = 1e-12
    seed: int = 0
    init: str = "random"          # "random" | "hosvd"

    def __post_init__(self):
        self.max_sweeps = _integers([self.max_sweeps], "max_sweeps", 1)[0]
        self.seed = _integers([self.seed], "seed")[0]
        check_tolerance(self.rel_tol)
        if self.init not in ("random", "hosvd"):
            raise ValueError(f"unknown init {self.init!r}; expected 'random' or 'hosvd'")


@dataclass
class ALSTrace:
    """Squared errors ``||A - M||**2`` recorded by an alternating solver.

    ``per_block`` holds one value after every block update (a factor
    solve of :func:`tenslab.cp.cp_als`, a mode step of :func:`hooi`, a
    vector update of :func:`tenslab.cp.best_rank_one`), ``per_sweep`` the
    last block value of each sweep, and ``flagged_sweeps`` the sweeps
    whose Gram solve dropped eigenvalues.  Values after ``initial`` come
    from identities, which cancel near roundoff: :func:`_guarded` takes
    the dense model's error at or below ``1e-8 * ||A||**2``.  :meth:`end_sweep`
    stops at a sweep value of exactly 0 or, for ``rel_tol > 0``, one that
    fell by less than ``rel_tol * ||A||**2`` over the sweep.
    """

    initial: float
    per_block: list[float] = field(default_factory=list)
    per_sweep: list[float] = field(default_factory=list)
    flagged_sweeps: list[int] = field(default_factory=list)

    @property
    def final(self) -> float:
        return self.per_sweep[-1] if self.per_sweep else self.initial

    def end_sweep(self, rel_tol: float, norm_sq: float, flagged: bool = False) -> bool:
        """Close the sweep at the last block value; return whether to stop."""
        prev, current = self.final, self.per_block[-1]
        if flagged:
            self.flagged_sweeps.append(len(self.per_sweep))
        self.per_sweep.append(current)
        return current == 0.0 or (rel_tol > 0 and prev - current < rel_tol * norm_sq)


def _guarded(value: float, norm_sq: float, dense_fn: Callable[[], float]) -> float:
    """``value``, or ``dense_fn()`` where the guard of :class:`ALSTrace` applies."""
    return float(dense_fn() if value <= _IDENTITY_GUARD * norm_sq else value)


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


def multilinear_apply(A, mats: Sequence[np.ndarray]) -> DenseTensor:
    """Apply one matrix per mode: the action ``(M_1, ..., M_d) . A``.

    ``M_mu`` of shape ``(m_mu, n_mu)`` multiplies each mode-``mu`` fiber;
    pass ``U.T`` for the basis change ``U`` that forms a Tucker core.
    ``None`` entries leave a mode untouched.  Implemented as the classic
    cycle of unfold, multiply, fold, one mode at a time.
    """
    A = as_tensor(A)
    d = A.order
    if len(mats) != d:
        raise ValueError(f"need {d} matrices for order {d}")
    out = A.data
    for mu0, M in enumerate(mats):
        if M is None:
            continue
        M = np.asarray(M, dtype=np.float64)
        if M.shape[1] != out.shape[mu0]:
            raise ValueError(
                f"matrix for mode {mu0 + 1} contracts {M.shape[1]} values against "
                f"dimension {out.shape[mu0]}")
        out = np.moveaxis(np.tensordot(M, out, axes=(1, mu0)), 0, mu0)
    return DenseTensor(out)


def tucker_reconstruct(T: TuckerDecomposition, cap: int | None = None) -> DenseTensor:
    """Densify by applying the factors to the core, within the cap."""
    check_dense_cap(T.dims, cap)
    return multilinear_apply(T.core, T.factors)


def hosvd(A, ranks: Sequence[int], rel_tol: float | None = None
          ) -> tuple[TuckerDecomposition, list[np.ndarray]]:
    """Higher-order SVD at the requested per-mode ranks.

    For each mode the tensor is unfolded with that mode as columns and
    the leading right singular vectors, from
    :func:`tenslab.linalg.one_sided_svd` (no left factor formed), become
    the mode's orthonormal basis; the core is the tensor expressed in
    these bases.  In the new basis the mode-``mu`` slices are pairwise
    orthogonal with norms equal to that unfolding's singular values.
    Returns the decomposition and the per-mode singular value arrays.

    With ``rel_tol`` the ``ranks`` are caps and each mode keeps a squared
    tail of at most ``(rel_tol / sqrt(d))**2`` of its unfolding's energy;
    the tails add up (De Lathauwer et al., SIMAX 2000), so
    ``||A - M|| <= rel_tol * ||A||``.
    """
    A = as_tensor(A)
    ranks = _integers(ranks, "ranks", 1, A.dims)
    if len(ranks) != A.order:
        raise ValueError(f"need {A.order} ranks, got {len(ranks)}")
    if rel_tol is not None:
        check_tolerance(rel_tol)
    factors, spectra = [], []
    for mu, cap in enumerate(ranks, start=1):
        res = one_sided_svd(matricize(A, mu).data)
        s = res.singular_values
        budget = _tail_budget(rel_tol, float(np.sum(s ** 2)), A.order)
        spectra.append(s.copy())
        factors.append(res.truncate_to(cap, budget).U)
    core = multilinear_apply(A, [U.T for U in factors])
    return TuckerDecomposition(core, factors), spectra


def hooi(A, ranks: Sequence[int], opts: ALSOptions | None = None,
         rel_tol: float | None = None) -> tuple[TuckerDecomposition, ALSTrace]:
    """Higher-order orthogonal iteration (alternating subspace refinement).

    Starts from ``hosvd(A, ranks, rel_tol)`` and keeps its ranks; this
    ``rel_tol`` picks ranks and is not ``opts.rel_tol``, the stop rule.
    Each step fixes every subspace but one, projects the tensor onto the
    fixed subspaces, unfolds with the free mode as columns and takes the
    leading right singular vectors as the new basis (Gauss-Seidel style:
    the freshest bases are used within a sweep).  Equivalent to maximizing
    the core energy, so the reconstruction error never increases across
    steps.  Returns the decomposition and its :class:`ALSTrace`.

    With orthonormal factors ``||A - M||**2 = ||A||**2 - ||core||**2``,
    and after a step ``||core||**2`` is the sum of the squared kept
    singular values of that step, so no step densifies.
    """
    A = as_tensor(A)
    opts = opts or ALSOptions()
    tuck, _ = hosvd(A, ranks, rel_tol)
    ranks = tuck.ranks
    factors = [U.copy() for U in tuck.factors]
    d = A.order
    norm_sq = norm(A) ** 2

    def dense_error() -> float:
        core = multilinear_apply(A, [U.T for U in factors])
        recon = multilinear_apply(core, factors)
        return norm(DenseTensor(A.data - recon.data)) ** 2

    trace = ALSTrace(initial=_guarded(norm_sq - norm(tuck.core) ** 2, norm_sq, dense_error))
    for _ in range(opts.max_sweeps):
        for mu0 in range(d):
            reducers = [factors[nu].T if nu != mu0 else None for nu in range(d)]
            Y = multilinear_apply(A, reducers)
            kept = one_sided_svd(matricize(Y, mu0 + 1).data).truncate_to(ranks[mu0])
            factors[mu0] = kept.U
            core_sq = float(np.sum(kept.singular_values ** 2))
            trace.per_block.append(_guarded(norm_sq - core_sq, norm_sq, dense_error))
        if trace.end_sweep(opts.rel_tol, norm_sq):
            break
    core = multilinear_apply(A, [U.T for U in factors])
    return TuckerDecomposition(core, factors), trace
