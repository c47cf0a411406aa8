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

from .dense import DenseTensor, as_tensor, matricize_general, tensor_product

__all__ = [
    "contract",
    "contract_sequence",
    "structure_tensor_matvec",
    "apply_bilinear",
]


def _check_mode_subset(modes: Sequence[int], order: int) -> list[int]:
    J = [int(m) for m in modes]
    if J != sorted(set(J)):
        raise ValueError(f"mode subset {modes} must be strictly increasing")
    if any(not 1 <= m <= order for m in J):
        raise ValueError(f"mode subset {modes} out of range for order {order}")
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
    expected = tuple(A.dims[m - 1] for m in J)
    if X.dims != expected:
        raise ValueError(f"X dims {X.dims} do not match A restricted to {J}: {expected}")
    mat = matricize_general(A, J).data          # rows: surviving modes, cols: J
    out = mat @ X.values
    rest = [m for m in range(1, A.order + 1) if m not in J]
    if not rest:
        return DenseTensor(out.reshape(1))
    return DenseTensor(out.reshape(tuple(A.dims[m - 1] for m in rest)))


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
    alive = list(range(1, A.order + 1))         # original labels of surviving modes
    for X, J in steps:
        J = _check_mode_subset(J, A.order)
        try:
            local = [alive.index(m) + 1 for m in J]
        except ValueError:
            gone = [m for m in J if m not in alive]
            raise ValueError(
                f"modes {gone} were already contracted away (overlapping steps)")
        current = contract(current, X, local)
        alive = [m for m in alive if m not in J]
    return current


def structure_tensor_matvec(m: int, n: int) -> DenseTensor:
    """Structure tensor of the matrix-vector product as a bilinear map.

    Order 3 with dims ``(m*n, n, m)``: mode 1 is the vectorized ``m x n``
    matrix, mode 2 the input vector, mode 3 the output.  The only
    nonzero coefficients are ``B[(i,j), j, i] = 1``, so
    ``apply_bilinear(B, vec(A), x) == A @ x`` for any ``A`` and ``x``.
    """
    m, n = int(m), int(n)
    if m < 1 or n < 1:
        raise ValueError("matrix dimensions must be positive")
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
