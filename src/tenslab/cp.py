"""CP (Candecomp/Parafac) representation and alternating least squares.

The fitting routine is :func:`cp_als`, which updates one whole factor
matrix at a time (each block update is an exact least-squares solve)
and renormalizes its columns into the weights in one masked step.
It records the objective after every block update without densifying
the model: with ``U`` the Khatri-Rao product of the other factors,
``G = U.T U``, ``rhs = A_(mu).T U`` and the unnormalized update ``Y``,
``||A - M||**2 = ||A||**2 - 2 sum(Y * rhs) + sum((Y.T Y) * G)``
(Kolda & Bader, SIAM Review 2009, section 3.4).  The roundoff guard
and the stop rule are those of :class:`tenslab.tucker.ALSTrace`, which
:func:`cp_als` returns.  Rank diagnostics for the ``2 x 2 x 2`` case
(hyperdeterminant sign), a dimension-count lower bound and the classic
border-rank demonstrator live here as well.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dense import DenseTensor, _integers, as_tensor, check_dense_cap, matricize, norm
from .linalg import _independent_rows, _khatri_rao_others, _significant, cp_product
from .tucker import ALSOptions, ALSTrace, _guarded, hosvd

__all__ = [
    "CPDecomposition",
    "ALSOptions",
    "ALSTrace",
    "cp_reconstruct",
    "cp_als",
    "best_rank_one",
    "hyperdeterminant_222",
    "rank222_classify",
    "cp_rank_lower_bound",
    "border_rank_demo",
    "RANK2",
    "RANK3",
    "BOUNDARY",
]

RANK2 = "Rank2"
RANK3 = "Rank3"
BOUNDARY = "Boundary"
# half-width of the boundary band of rank222_classify, relative to max|entry|**4
_BOUNDARY_TOL = 1e-10


@dataclass
class CPDecomposition:
    """Weighted sum of rank-one terms.

    ``factors[mu]`` has shape ``(n_mu, r)`` with unit-norm columns; all
    scale lives in ``weights`` (length ``r``).
    """

    weights: np.ndarray
    factors: list[np.ndarray]

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64).reshape(-1)
        self.factors = [np.ascontiguousarray(X, dtype=np.float64) for X in self.factors]
        r = len(self.weights)
        for mu, X in enumerate(self.factors, start=1):
            if X.ndim != 2 or X.shape[1] != r:
                raise ValueError(f"factor shape {X.shape} incompatible with rank {r}")
            norms = np.linalg.norm(X, axis=0)
            if np.any(np.abs(norms - 1.0) > 1e-8):
                raise ValueError(
                    f"factor {mu} columns are not unit-norm; build through "
                    f"CPDecomposition.from_factors to absorb scale into weights")

    @classmethod
    def from_factors(cls, factors: Sequence[np.ndarray], weights=None) -> "CPDecomposition":
        """Normalize columns into weights; a zero column becomes e_1, weight +0.0."""
        mats = [np.array(X, dtype=np.float64) for X in factors]
        if not mats or any(X.ndim != 2 or not len(X) or X.shape[1] != mats[0].shape[1]
                           for X in mats):
            raise ValueError(f"need one or more nonempty factor matrices with equal column "
                             f"counts; got shapes {[X.shape for X in mats]}")
        r = mats[0].shape[1]
        w = np.ones(r) if weights is None else np.asarray(weights, dtype=np.float64)
        for X in mats:
            norms = np.linalg.norm(X, axis=0)
            nonzero = norms > 0
            X[:, nonzero] /= norms[nonzero]
            X[:, ~nonzero] = 0.0
            X[0, ~nonzero] = 1.0
            # np.where, not a product with 0: a negative weight would give -0.0
            w = np.where(nonzero, w * norms, 0.0)
        return cls(w, mats)

    @property
    def rank(self) -> int:
        return len(self.weights)

    @property
    def order(self) -> int:
        return len(self.factors)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(X.shape[0] for X in self.factors)


def cp_reconstruct(cp: CPDecomposition, cap: int | None = None) -> DenseTensor:
    """Densify, within the cap: the weighted sum of rank-one terms."""
    check_dense_cap(cp.dims, cap)
    return cp_product(cp.factors, cp.weights)


def _init_factors(A: DenseTensor, r: int, opts: ALSOptions) -> list[np.ndarray]:
    rng = np.random.default_rng(opts.seed)

    def unit_columns(n: int, k: int) -> np.ndarray:
        X = rng.uniform(-1.0, 1.0, size=(n, k))
        return X / np.maximum(np.linalg.norm(X, axis=0), 1e-300)

    if opts.init == "random":
        return [unit_columns(n, r) for n in A.dims]
    tuck, _ = hosvd(A, [min(r, n) for n in A.dims])
    return [np.hstack([U, unit_columns(n, r - U.shape[1])])
            for n, U in zip(A.dims, tuck.factors)]


def _cp_error(A: DenseTensor, factors: Sequence[np.ndarray], weights: Sequence[float]) -> float:
    """``||A - M||**2`` with the CP model ``M`` densified."""
    return norm(DenseTensor(A.data - cp_product(factors, weights).data)) ** 2


def cp_als(A, r: int, opts: ALSOptions | None = None) -> tuple[CPDecomposition, ALSTrace]:
    """Fit a rank-``r`` CP model by block alternating least squares.

    Sweeps the modes in the order ``d, d-1, ..., 1``.  For the active
    mode the tensor is unfolded with that mode as columns, the other
    factors are combined columnwise into ``U``, and the exact block
    minimizer ``X = A.T @ U @ inv(U.T U)`` is taken from one
    eigendecomposition of the Gram matrix; eigenvalues at most
    ``linalg.RANK_CUTOFF`` times the largest are dropped (a pseudo-inverse, with
    the sweep flagged).  Factor columns are renormalized into the weights
    after each update, so the objective is non-increasing across block
    updates.  The objective after each update comes from the Gram
    identity in the module docstring.
    """
    A = as_tensor(A)
    r = _integers([r], "rank", 1)[0]
    if np.any(~np.isfinite(A.data)):
        raise ValueError("input tensor contains non-finite entries")
    opts = opts or ALSOptions()
    d = A.order
    norm_sq = norm(A) ** 2

    factors = _init_factors(A, r, opts)
    weights = np.ones(r)
    unfolds = [matricize(A, mu).data for mu in range(1, d + 1)]

    trace = ALSTrace(initial=_cp_error(A, factors, weights))
    for _ in range(opts.max_sweeps):
        flagged = False
        for mu0 in reversed(range(d)):
            # unit columns only: the solve absorbs the whole model scale
            # into mode mu0, which then renormalizes into the weights
            U = _khatri_rao_others(factors, mu0)
            G = U.T @ U
            rhs = unfolds[mu0].T @ U
            lam, Q = np.linalg.eigh(G)
            keep = _significant(lam)
            flagged |= not keep.all()
            Y = (rhs @ Q[:, keep] / lam[keep]) @ Q[:, keep].T
            # a zero column keeps its previous unit column, with weight 0
            weights = np.linalg.norm(Y, axis=0)
            nonzero = weights > 0
            factors[mu0][:, nonzero] = Y[:, nonzero] / weights[nonzero]
            # the model is sum_a Y[:, a] (x) U[:, a]; its inner product with
            # A is sum(Y * rhs) and its squared norm sum((Y.T Y) * G)
            value = norm_sq - 2.0 * np.sum(Y * rhs) + np.sum((Y.T @ Y) * G)
            trace.per_block.append(
                _guarded(value, norm_sq, lambda: _cp_error(A, factors, weights)))
        if trace.end_sweep(opts.rel_tol, norm_sq, flagged):
            break

    cp = CPDecomposition.from_factors(factors, weights)
    return cp, trace


def _contract_except(A: np.ndarray, xs: Sequence[np.ndarray], skip: int | None) -> np.ndarray:
    """``A`` contracted with ``xs[nu]`` in every mode ``nu != skip``, one
    mode at a time from the last, so each axis index stays valid."""
    out = A
    for nu in reversed(range(A.ndim)):
        if nu != skip:
            out = np.tensordot(out, xs[nu], axes=(nu, 0))
    return out


def best_rank_one(A, opts: ALSOptions | None = None) -> tuple[float, list[np.ndarray]]:
    """Best rank-one approximation by the higher-order power method.

    Rank-one ALS from the start of :func:`cp_als`: each update replaces
    ``x_mu`` by ``y / ||y||``, ``y`` the tensor contracted with the other
    vectors one at a time; then ``alpha = ||y|| = <A, x_1 (x) ... (x) x_d>``
    gives the :class:`ALSTrace` value ``||A||**2 - alpha**2`` for free.
    For a matrix the fixed point is the leading singular pair, which the
    ``"hosvd"`` start already is.
    """
    A = as_tensor(A)
    norm_sq = norm(A) ** 2
    if norm_sq == 0.0:
        raise ValueError("zero tensor has no rank-one direction")
    opts = opts or ALSOptions()
    xs = [X[:, 0] for X in _init_factors(A, 1, opts)]
    alpha = float(_contract_except(A.data, xs, None))

    def dense_error() -> float:
        return _cp_error(A, [x[:, None] for x in xs], [alpha])

    trace = ALSTrace(initial=_guarded(norm_sq - alpha ** 2, norm_sq, dense_error))
    for _ in range(opts.max_sweeps):
        for mu0 in range(A.order):
            y = _contract_except(A.data, xs, mu0)
            alpha = float(np.linalg.norm(y))
            if alpha > 0.0:  # else x_mu stays, and <A, x> = <y, x_mu> = 0 = alpha
                xs[mu0] = y / alpha
            trace.per_block.append(_guarded(norm_sq - alpha ** 2, norm_sq, dense_error))
        if trace.end_sweep(opts.rel_tol, norm_sq):
            break
    return alpha, xs


def _slices_222(A: DenseTensor) -> tuple[float, ...]:
    if A.dims != (2, 2, 2):
        raise ValueError(f"expected a 2x2x2 tensor, got dims {A.dims}")
    T = A.data
    a, b, c, d = T[0, 0, 0], T[0, 1, 0], T[1, 0, 0], T[1, 1, 0]
    ap, bp, cp_, dp = T[0, 0, 1], T[0, 1, 1], T[1, 0, 1], T[1, 1, 1]
    return a, b, c, d, ap, bp, cp_, dp


def hyperdeterminant_222(A) -> float:
    """Degree-4 invariant of a ``2 x 2 x 2`` tensor deciding real rank.

    With the two mode-3 slices written ``(a b; c d)`` and
    ``(a' b'; c' d')``, this is the discriminant
    ``(a d' + a' d - b c' - b' c)**2 - 4 (a' d - b c')(a d' - b' c)
    + 4 (a c' - a' c)(b' d - b d')`` of the pencil eigenproblem: it is
    positive exactly when ``inv(A_1) @ A_2`` has two real eigenvalues.
    """
    a, b, c, d, ap, bp, cp_, dp = _slices_222(as_tensor(A))
    tr_m = a * dp + ap * d - b * cp_ - bp * c
    det_m = (ap * d - b * cp_) * (a * dp - bp * c) - (a * cp_ - ap * c) * (bp * d - b * dp)
    return float(tr_m * tr_m - 4.0 * det_m)


def rank222_classify(A) -> str:
    """Classify a ``2 x 2 x 2`` tensor as rank 2, rank 3 or boundary.

    The hyperdeterminant is quartic in the entries, so the boundary band
    is ``|delta| <= 1e-10 * max|entry|**4``.  Both sides scale by ``s**4``,
    so the test runs on ``A`` divided by the smallest power of two above
    ``max|entry|``: exact unless an entry turns subnormal, and the band then
    lies in ``[1e-10 / 16, 1e-10)`` at every scale.
    """
    A = as_tensor(A)
    A = DenseTensor(np.ldexp(A.data, -np.frexp(norm(A, np.inf))[1]))
    delta = hyperdeterminant_222(A)
    scale = norm(A, np.inf) ** 4
    if delta > _BOUNDARY_TOL * scale:
        return RANK2
    if delta < -_BOUNDARY_TOL * scale:
        return RANK3
    return BOUNDARY


def cp_rank_lower_bound(dims: Sequence[int]) -> int:
    """Dimension-count lower bound on the maximal typical CP rank.

    Counts parameters of a rank-``r`` model modulo its ``d - 1`` scale
    redundancies: ``ceil(prod(n) / (sum(n) - d + 1))``.
    """
    dims = _integers(dims, "dims", 1)
    d = len(dims)
    return math.ceil(math.prod(dims) / (sum(dims) - d + 1))


def border_rank_demo(xs: Sequence, ys: Sequence, k: float) -> tuple[DenseTensor, DenseTensor]:
    """Rank-3 tensor with border rank 2, and its rank-2 approximant.

    ``A = x1 (x) x2 (x) y3 + x1 (x) y2 (x) x3 + y1 (x) x2 (x) x3`` and
    ``A_k = k (x1 + y1/k) (x) (x2 + y2/k) (x) (x3 + y3/k)
    - k x1 (x) x2 (x) x3``; the difference is ``O(1/k)`` exactly, so
    ``A`` is approached arbitrarily closely by rank-2 tensors.
    Each pair ``(x_i, y_i)`` must be linearly independent.
    """
    if k == 0:
        raise ValueError("k must be nonzero")
    X = [np.asarray(x, dtype=np.float64).reshape(-1) for x in xs]
    Y = [np.asarray(y, dtype=np.float64).reshape(-1) for y in ys]
    if len(X) != 3 or len(Y) != 3:
        raise ValueError("need three x vectors and three y vectors")
    for i, (x, y) in enumerate(zip(X, Y), start=1):
        if x.shape != y.shape:
            raise ValueError(f"pair {i} has mismatched lengths")
        if not _independent_rows(np.stack([x, y])):
            raise ValueError(f"pair {i} is not linearly independent")

    def outer3(u, v, w):
        return np.multiply.outer(np.multiply.outer(u, v), w)

    A = outer3(X[0], X[1], Y[2]) + outer3(X[0], Y[1], X[2]) + outer3(Y[0], X[1], X[2])
    Ak = k * outer3(X[0] + Y[0] / k, X[1] + Y[1] / k, X[2] + Y[2] / k) \
        - k * outer3(X[0], X[1], X[2])
    return DenseTensor(A), DenseTensor(Ak)
