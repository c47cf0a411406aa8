"""Contraction of a tensor against a tensor over a subset of its modes.

The contraction ``A . X`` over a mode subset ``J`` sums shared indices
and keeps the surviving modes of ``A`` in their original ascending
order.  It is implemented by unfolding ``A`` with the ``J`` modes as
columns and multiplying by the vectorization of ``X``, so the whole
operation is a single dense matrix-vector product on reuse-tested
reshape machinery.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .dense import DenseTensor, _integers, _one_based, as_tensor, matricize_general, \
    tensor_product

__all__ = [
    "contract",
    "contract_sequence",
    "structure_tensor_matvec",
    "apply_bilinear",
]


def _check_mode_subset(modes: Sequence[int], order: int) -> tuple[int, ...]:
    """The strictly increasing 1-based ``modes`` as 0-based positions."""
    J = _one_based(modes, order, "mode subset")
    if list(J) != sorted(set(J)):
        raise ValueError(f"mode subset {modes} must be strictly increasing")
    return J


def contract(A, X, modes: Sequence[int]) -> DenseTensor:
    """Contract ``A`` with ``X`` over the mode subset ``modes`` (1-based).

    ``X`` must have exactly the dims of ``A`` restricted to ``modes``,
    in order.  Contracting over no modes returns ``A`` scaled by the
    scalar ``X``; contracting over every mode returns the dims ``[1]``
    inner product.
    """
    A, X = as_tensor(A), as_tensor(X)
    J = _check_mode_subset(modes, A.order)
    if not J:
        if X.dims != (1,):
            raise ValueError("contraction over no modes expects a dims [1] scalar")
        return DenseTensor(A.data * X.values[0])
    expected = tuple(A.dims[m] for m in J)
    if X.dims != expected:
        raise ValueError(f"X dims {X.dims} do not match A restricted to {modes}: {expected}")
    mat = matricize_general(A, [m + 1 for m in J]).data    # rows: surviving modes, cols: J
    out = mat @ X.values
    rest = tuple(n for m, n in enumerate(A.dims) if m not in J)
    return DenseTensor(out.reshape(rest or 1))


def contract_sequence(A, steps: Sequence[tuple]) -> DenseTensor:
    """Apply contractions one after another, addressing modes by their
    labels in the *original* tensor.

    ``steps`` is a list of ``(X, J)`` pairs.  Because the diagram of
    contractions commutes, any ordering of disjoint steps gives the
    same result as a single contraction over the union with the pieces
    tensor-multiplied in ascending original order.
    """
    A = as_tensor(A)
    current = A
    alive = list(range(A.order))                # original positions of surviving modes
    for X, modes in steps:
        J = _check_mode_subset(modes, A.order)
        gone = [m + 1 for m in J if m not in alive]
        if gone:
            raise ValueError(f"modes {gone} were already contracted away (overlapping steps)")
        current = contract(current, X, [alive.index(m) + 1 for m in J])
        alive = [m for m in alive if m not in J]
    return current


def structure_tensor_matvec(m: int, n: int) -> DenseTensor:
    """Structure tensor of the matrix-vector product as a bilinear map.

    Order 3 with dims ``(m*n, n, m)``: mode 1 is the vectorized ``m x n``
    matrix, mode 2 the input vector, mode 3 the output.  The only
    nonzero coefficients are ``B[(i,j), j, i] = 1``, so
    ``apply_bilinear(B, vec(A), x) == A @ x`` for any ``A`` and ``x``.
    """
    m, n = _integers((m, n), "matrix dimensions", 1)
    B = np.zeros((m, n, n, m))
    i, j = np.indices((m, n))
    B[i, j, j, i] = 1.0
    return DenseTensor(B.reshape(m * n, n, m))


def apply_bilinear(B, *args) -> DenseTensor:
    """Evaluate the (multi)linear map with structure tensor ``B``.

    ``B`` has order ``k+1`` for ``k`` vector arguments; the last mode is
    the output mode.  Computes ``B`` contracted over modes ``1..k`` with
    the tensor product of the arguments, hence linear in each argument.
    """
    B = as_tensor(B)
    if len(args) < 1:
        raise ValueError("need at least one argument vector")
    if B.order != len(args) + 1:
        raise ValueError(
            f"structure tensor of order {B.order} takes {B.order - 1} arguments, "
            f"got {len(args)}")
    xs = [as_tensor(x) for x in args]
    if any(x.order != 1 for x in xs):
        raise ValueError("arguments must be order-1 tensors")
    prod = xs[0]
    for x in xs[1:]:
        prod = tensor_product(prod, x)
    return contract(B, prod, list(range(1, len(args) + 1)))
