"""Dense tensor algebra with CP, Tucker and tensor-train engines."""

from .dense import (
    DenseTensor,
    Permutation,
    antisym,
    as_tensor,
    hadamard,
    inner,
    matricize,
    matricize_general,
    norm,
    partition_sum,
    permute_modes,
    reshape_tensor,
    slice_tensor,
    sym,
    tensor_product,
    vectorize,
    wedge,
)
from .linalg import (
    SVDResult,
    ball_volume,
    cp_product,
    cur,
    greedy_cur_pivots,
    khatri_rao,
    kronecker,
    one_sided_svd,
    pseudo_inverse,
    svd,
    svd_to_tolerance,
    tracy_singh,
    truncated_svd,
)
from .contract import apply_bilinear, contract, contract_sequence, structure_tensor_matvec
from .tucker import TuckerDecomposition, hooi, hosvd, multilinear_apply, tucker_reconstruct
from .cp import (
    ALSOptions,
    ALSTrace,
    CPDecomposition,
    best_rank_one,
    border_rank_demo,
    cp_als,
    cp_rank_lower_bound,
    cp_reconstruct,
    hyperdeterminant_222,
    rank222_classify,
)
from .tt import (
    TTQuality,
    TTTensor,
    additive_tt,
    cp_to_tt,
    tt_add,
    tt_entry,
    tt_hadamard,
    tt_marginal,
    tt_partition,
    tt_reconstruct,
    tt_round,
    tt_svd,
    tt_to_cp,
    zeros_tt,
)
from .funcgrid import (
    CartesianGrid,
    Mesh,
    MonomialPoly,
    affine_rescaled,
    cheb_project,
    cheb_reconstruct,
    chebyshev_eval,
    chebyshev_nodes,
    discretize,
    poly_discretize_cp,
)

__version__ = "0.1.0"
