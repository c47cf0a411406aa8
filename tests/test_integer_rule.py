"""Every integer a caller passes follows one rule.

Modes, indices, pivots and counts must be integral: a fractional or
non-finite value raises a ``ValueError`` that names it, never truncates.
1-based positions must lie in ``1..n``; counts are at least 1, degrees and
exponents at least 0.  Integral floats and numpy ints are accepted and act
exactly like the int.
"""
import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tenslab.contract import contract, contract_sequence, structure_tensor_matvec
from tenslab.cp import cp_als, cp_rank_lower_bound
from tenslab.dense import (DenseTensor, Permutation, _one_based, check_dense_cap, matricize,
                           matricize_general, permute_modes, reshape_tensor, slice_tensor)
from tenslab.funcgrid import (CartesianGrid, Mesh, MonomialPoly, cheb_project, chebyshev_eval,
                              chebyshev_nodes)
from tenslab.linalg import ball_volume, cur, greedy_cur_pivots, tracy_singh, truncated_svd
from tenslab.tt import additive_tt, tt_entry, tt_marginal, tt_round, tt_svd, tt_to_cp, zeros_tt
from tenslab.tucker import ALSOptions, hosvd

A = DenseTensor(np.arange(24.0).reshape(2, 3, 4))
T = additive_tt([np.arange(2.0), np.arange(3.0), np.arange(4.0)])
T2 = additive_tt([np.arange(2.0), np.arange(3.0)])
M = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]])
P = MonomialPoly([(1.0, (2,)), (1.0, (0,))])
G = CartesianGrid([[0.0, 0.5, 1.0], [0.0, 0.25, 0.5, 0.75]])

# name, call with the value under test, one integer out of range (None: no bound).
# Each call gives a valid result for the value 2.
ENTRY_POINTS = [
    # 1-based positions
    ("DenseTensor.entry", lambda v: A.entry((1, v, 1)), 4),
    ("tt_entry", lambda v: tt_entry(T, (1, v, 1)), 4),
    ("slice_tensor:mode", lambda v: slice_tensor(A, [v], [1]), 4),
    ("slice_tensor:value", lambda v: slice_tensor(A, [3], [v]), 5),
    ("matricize", lambda v: matricize(A, v), 4),
    ("matricize_general", lambda v: matricize_general(A, [1, v]), 4),
    ("permute_modes", lambda v: permute_modes(A, [v, 1, 3]), 4),
    ("Permutation.__call__", lambda v: Permutation([2, 3, 1])(v), 4),
    ("reshape_tensor", lambda v: reshape_tensor(A, [(1, v), (3,)]), 4),
    ("contract", lambda v: contract(A, np.ones(3), [v]), 4),
    ("contract_sequence", lambda v: contract_sequence(A, [(np.ones(3), [v])]), 4),
    ("tt_marginal", lambda v: tt_marginal(T, v), 4),
    ("cur:rows", lambda v: cur(M, [1, v], [1, 2])[0], 4),
    ("cur:cols", lambda v: cur(M, [1, 2], [1, v])[0], 4),
    ("CartesianGrid.point", lambda v: G.point((3, v)), 5),
    # counts
    ("tt_svd", lambda v: tt_svd(A, [v, 2])[0].cores, 0),
    ("tt_round", lambda v: tt_round(T, [v, 2]).cores, 0),
    ("hosvd", lambda v: hosvd(A, [v, 2, 2])[0].core, 3),
    ("DenseTensor.from_flat", lambda v: DenseTensor.from_flat([v, 3], range(6)), 0),
    ("DenseTensor.zeros", lambda v: DenseTensor.zeros([v, 3]), 0),
    ("zeros_tt", lambda v: zeros_tt([v, 3]).cores, 0),
    ("cheb_project", lambda v: cheb_project(P, [v]), -1),
    ("chebyshev_eval", lambda v: chebyshev_eval(v, 0.5), -1),
    ("chebyshev_nodes", lambda v: chebyshev_nodes(v), 0),
    ("MonomialPoly", lambda v: MonomialPoly([(1.0, (v, 1))]).terms, -1),
    ("ball_volume", lambda v: ball_volume(v, 2), 0),
    ("cp_rank_lower_bound", lambda v: cp_rank_lower_bound([v, 2, 2]), 0),
    ("structure_tensor_matvec", lambda v: structure_tensor_matvec(v, 3), 0),
    ("tracy_singh", lambda v: tracy_singh(M, M, a_row_splits=[v]), 4),
    ("Mesh.uniform", lambda v: Mesh.uniform(0.0, 1.0, v), 0),
    ("greedy_cur_pivots", lambda v: greedy_cur_pivots(M, v), 4),
    ("truncated_svd", lambda v: truncated_svd(M, v).U, 4),
    ("tt_to_cp", lambda v: tt_to_cp(T2, v).weights, 1),
    ("check_dense_cap", lambda v: check_dense_cap((2,), v), 1),
    ("cp_als", lambda v: cp_als(A, v, ALSOptions(max_sweeps=2))[0].weights, 0),
    ("ALSOptions.max_sweeps", lambda v: ALSOptions(max_sweeps=v), 0),
    ("ALSOptions.seed", lambda v: ALSOptions(seed=v), None),
]


def plain(x):
    """``x`` with arrays and tensors turned into nested lists, for ``==``."""
    if isinstance(x, DenseTensor):
        return x.data.tolist()
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, (list, tuple)):
        return [plain(e) for e in x]
    return x


BAD_CALLS = [pytest.param(call, bad, id=f"{name}-{bad}")
             for name, call, out_of_range in ENTRY_POINTS
             for bad in (2.5, out_of_range, math.inf, -math.inf) if bad is not None]


@pytest.mark.parametrize("call, bad", BAD_CALLS)
def test_rejects_a_fractional_out_of_range_or_infinite_value_by_name(call, bad):
    with pytest.raises(ValueError, match=re.escape(str(bad))):
        call(bad)


@pytest.mark.parametrize("call", [row[1] for row in ENTRY_POINTS],
                         ids=[row[0] for row in ENTRY_POINTS])
def test_integral_float_and_numpy_int_act_like_the_int(call):
    expected = plain(call(2))
    assert plain(call(2.0)) == expected
    assert plain(call(np.int64(2))) == expected


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_index_is_a_value_error(bad):
    with pytest.raises(ValueError, match=str(bad)):
        A.entry((bad, 1, 1))


@pytest.mark.parametrize("mu", [0, -1, 4])
def test_permutation_rejects_a_position_outside_1_to_d(mu):
    # 0 and -1 would otherwise wrap around to the last entries of the image
    with pytest.raises(ValueError, match=f"{mu} is not in 1..3"):
        Permutation([2, 3, 1])(mu)


values = st.one_of(st.integers(-2, 8), st.floats(-2.0, 8.0),
                   st.sampled_from([2.0, 2.5, np.int64(3), math.inf, -math.inf, math.nan]))


@given(st.lists(st.tuples(values, st.integers(1, 6)), max_size=4))
def test_one_based_is_v_minus_1_exactly_when_every_value_is_integral_and_in_range(pairs):
    positions, bounds = [v for v, _ in pairs], [n for _, n in pairs]
    if all(math.isfinite(v) and v == int(v) and 1 <= v <= n for v, n in pairs):
        got = _one_based(positions, bounds, "positions")
        assert got == tuple(int(v) - 1 for v in positions)
        assert all(type(i) is int for i in got)
    else:
        with pytest.raises(ValueError):
            _one_based(positions, bounds, "positions")
