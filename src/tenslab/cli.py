"""Batch command-line front end.

Subcommands: ``info``, ``decompose``, ``reconstruct``, ``error``,
``tt``, ``grid``, ``rank222``.  Reports are deterministic ``key=value``
lines (the ``wall_time_s`` field is the only run-dependent one).  Exit
codes: 0 success, 2 usage, 3 I/O or malformed file, 4 numeric failure.

The densification guard of :mod:`tenslab.dense` (``--dense-cap``, else
``TENSLAB_DENSE_CAP``, else ``10**8`` entries) exits 4 when it refuses.
"""
from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from . import io as tio
from .cp import ALSOptions, ALSTrace, CPDecomposition, cp_als, cp_reconstruct, \
    hyperdeterminant_222, rank222_classify
from .dense import DenseCapError, DenseTensor, norm, partition_sum
from .funcgrid import CartesianGrid, Mesh, MonomialPoly, discretize, poly_discretize_cp
from .linalg import check_tolerance
from .tt import TTTensor, tt_entry, tt_marginal, tt_partition, tt_reconstruct, tt_svd
from .tucker import TuckerDecomposition, hooi, hosvd, tucker_reconstruct

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERIC = 4


class UsageError(Exception):
    pass


class NumericError(Exception):
    pass


def _fmt(x: float) -> str:
    return repr(float(x))


def _fmt_dims(dims) -> str:
    return "x".join(str(n) for n in dims)


def _fmt_list(values) -> str:
    return ",".join(str(v) for v in values)


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [int(t) for t in text.split(",") if t.strip() != ""]
    except ValueError:
        raise UsageError(f"cannot parse {what} {text!r} as a comma-separated integer list")


def cmd_info(args) -> int:
    A = tio.read_dense(args.path)
    print(f"path={args.path}")
    print(f"dims={_fmt_dims(A.dims)}")
    print(f"order={A.order}")
    print(f"norm1={_fmt(norm(A, 1))}")
    print(f"norm2={_fmt(norm(A, 2))}")
    print(f"norminf={_fmt(norm(A, np.inf))}")
    print(f"z={_fmt(partition_sum(A))}")
    return EXIT_OK


def _trace_lines(trace: ALSTrace) -> list[str]:
    lines = [f"sweeps={len(trace.per_sweep)}",
             "trace=" + ",".join(_fmt(v) for v in trace.per_sweep)]
    if trace.flagged_sweeps:
        lines.append("flagged_sweeps=" + _fmt_list(trace.flagged_sweeps))
    return lines


def cmd_decompose(args) -> int:
    started = time.perf_counter()
    check_tolerance(args.stop_tol, "--stop-tol")
    if args.tol is not None:
        check_tolerance(args.tol, "--tol")
    if args.max_sweeps < 1:
        raise UsageError(f"--max-sweeps must be >= 1, got {args.max_sweeps}")
    if (args.rank is None) == (args.tol is None):
        raise UsageError("give exactly one of --rank and --tol")
    ranks = _parse_int_list(args.rank, "--rank") if args.rank is not None else None
    if args.method == "cp" and (ranks is None or len(ranks) != 1):
        raise UsageError("cp takes one --rank value; tolerance-driven CP is not supported")
    opts = ALSOptions(max_sweeps=args.max_sweeps, rel_tol=args.stop_tol, seed=args.seed)
    A = tio.read_dense(args.input)
    if np.any(~np.isfinite(A.data)):
        raise NumericError(f"{args.input}: input contains non-finite values")
    extra_lines: list[str] = []

    if args.method == "cp":
        cp, trace = cp_als(A, ranks[0], opts)
        tio.write_cp(cp, args.out)
        achieved = [cp.rank]
        extra_lines += _trace_lines(trace)
    elif args.method in ("hosvd", "hooi"):
        caps = ranks if ranks is not None else A.dims
        if args.method == "hosvd":
            tuck, _ = hosvd(A, caps, rel_tol=args.tol)
        else:
            tuck, trace = hooi(A, caps, opts, rel_tol=args.tol)
            extra_lines += _trace_lines(trace)
        tio.write_tucker(tuck, args.out)
        achieved = list(tuck.ranks)
    elif args.method == "tt":
        T, quality = tt_svd(A, ranks=ranks, rel_tol=args.tol)
        tio.write_tt(T, args.out)
        achieved = list(T.ranks)
        for mu, theta in enumerate(quality.step_qualities, start=1):
            extra_lines.append(f"theta_{mu}={_fmt(theta)}")
        extra_lines.append(f"theta={_fmt(quality.global_quality)}")
    else:  # pragma: no cover - argparse restricts choices
        raise UsageError(f"unknown method {args.method}")

    rel_error = _rel_error(A, _densify(tio.read_decomposition(args.out), args.dense_cap))

    print(f"method={args.method}")
    print(f"input={args.input}")
    print(f"dims={_fmt_dims(A.dims)}")
    if ranks:
        print(f"requested_rank={_fmt_list(ranks)}")
    if args.tol is not None:
        print(f"requested_tol={_fmt(args.tol)}")
    print(f"achieved_rank={_fmt_list(achieved)}")
    print(f"seed={args.seed}")
    for line in extra_lines:
        print(line)
    print(f"rel_error={_fmt(rel_error)}")
    print(f"out={args.out}")
    print(f"wall_time_s={time.perf_counter() - started:.6f}")
    return EXIT_OK


def _rel_error(A: DenseTensor, recon: DenseTensor) -> float:
    denom = norm(A)
    return norm(DenseTensor(A.data - recon.data)) / denom if denom > 0 else 0.0


def _densify(obj, cap) -> DenseTensor:
    if isinstance(obj, DenseTensor):
        return obj
    if isinstance(obj, CPDecomposition):
        return cp_reconstruct(obj, cap)
    if isinstance(obj, TuckerDecomposition):
        return tucker_reconstruct(obj, cap)
    return tt_reconstruct(obj, cap)


def cmd_reconstruct(args) -> int:
    obj = tio.read_decomposition(args.input)
    dense = _densify(obj, args.dense_cap)
    tio.write_dense(dense, args.out)
    print(f"dims={_fmt_dims(dense.dims)}")
    print(f"out={args.out}")
    return EXIT_OK


def cmd_error(args) -> int:
    A = tio.read_dense(args.reference)
    obj = tio.read_decomposition(args.decomposition)
    recon = _densify(obj, args.dense_cap)
    if recon.dims != A.dims:
        raise UsageError(
            f"dims mismatch: reference {_fmt_dims(A.dims)} vs "
            f"reconstruction {_fmt_dims(recon.dims)}")
    print(f"rel_error={_fmt(_rel_error(A, recon))}")
    return EXIT_OK


def cmd_tt(args) -> int:
    obj = tio.read_decomposition(args.path)
    if not isinstance(obj, TTTensor):
        raise UsageError(f"{args.path} is not a tensor-train file")
    if args.query == "z":
        print(f"z={_fmt(tt_partition(obj))}")
    elif args.query == "marginal":
        if args.mode is None:
            raise UsageError("marginal needs --mode")
        marg = tt_marginal(obj, args.mode)
        print(f"mode={args.mode}")
        print("marginal=" + ",".join(_fmt(v) for v in marg.values))
    elif args.query == "entry":
        if args.index is None:
            raise UsageError("entry needs --index")
        idx = _parse_int_list(args.index, "--index")
        print(f"index={_fmt_list(idx)}")
        print(f"entry={_fmt(tt_entry(obj, idx))}")
    else:  # pragma: no cover
        raise UsageError(f"unknown query {args.query}")
    return EXIT_OK


def _builtin_sum_square(arity: int) -> MonomialPoly:
    # (x + y)^2, the canonical rank-3 bivariate example
    if arity != 2:
        raise UsageError(f"builtin 'sum-square' needs 2 meshes, got {arity}")
    return MonomialPoly([(1.0, (2, 0)), (2.0, (1, 1)), (1.0, (0, 2))])


def _builtin_constant(arity: int) -> MonomialPoly:
    return MonomialPoly([(1.0, (0,) * arity)])


def _builtin_additive(arity: int) -> MonomialPoly:
    return MonomialPoly(
        [(1.0, tuple(1 if mu == k else 0 for mu in range(arity))) for k in range(arity)])


_BUILTIN_POLYS = {
    "sum-square": _builtin_sum_square,
    "constant": _builtin_constant,
    "additive": _builtin_additive,
}


def _parse_mesh_spec(spec: str) -> list[Mesh]:
    from pathlib import Path
    if Path(spec).exists():
        return tio.read_meshes(spec)
    meshes = []
    for part in spec.split(","):
        pieces = part.split(":")
        if len(pieces) != 3:
            raise UsageError(
                f"mesh spec part {part!r} is not lo:hi:count and not an existing file")
        try:
            lo, hi, n = float(pieces[0]), float(pieces[1]), int(pieces[2])
        except ValueError:
            raise UsageError(f"cannot parse mesh spec part {part!r}")
        if n < 1 or hi <= lo:
            raise UsageError(f"mesh spec part {part!r} needs lo < hi and count >= 1")
        meshes.append(Mesh.uniform(lo, hi, n))
    return meshes


def cmd_grid(args) -> int:
    if (args.poly is None) == (args.builtin is None):
        raise UsageError("give exactly one of --poly and --builtin")
    meshes = _parse_mesh_spec(args.mesh)
    grid = CartesianGrid(meshes)
    if args.poly is not None:
        P = tio.read_poly(args.poly)
        if P.arity != grid.arity:
            raise UsageError(
                f"polynomial arity {P.arity} does not match {grid.arity} meshes")
    else:
        maker = _BUILTIN_POLYS.get(args.builtin)
        if maker is None:
            raise UsageError(
                f"unknown builtin {args.builtin!r}; have {sorted(_BUILTIN_POLYS)}")
        P = maker(grid.arity)
    A = discretize(P, grid)
    tio.write_dense(A, args.out)
    print(f"dims={_fmt_dims(A.dims)}")
    print(f"terms={P.n_terms}")
    print(f"out={args.out}")
    if args.cp_out:
        cp = poly_discretize_cp(P, grid)
        tio.write_cp(cp, args.cp_out)
        print(f"cp_rank={cp.rank}")
        print(f"cp_out={args.cp_out}")
    return EXIT_OK


def cmd_rank222(args) -> int:
    A = tio.read_dense(args.path)
    if A.dims != (2, 2, 2):
        raise UsageError(f"rank222 needs a 2x2x2 tensor, got dims {_fmt_dims(A.dims)}")
    delta = hyperdeterminant_222(A)
    cls = rank222_classify(A)
    print(f"delta={_fmt(delta)} class={cls}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tenslab",
        description="dense tensor algebra and low-rank decomposition toolbox")
    parser.add_argument("--dense-cap", type=int, default=None,
                        help="max entries any densification may produce "
                             "(default: TENSLAB_DENSE_CAP or 10^8)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="dims, norms and partition sum of a tensor file")
    p.add_argument("path")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("decompose", help="fit cp/hosvd/hooi/tt and write the result")
    p.add_argument("input")
    p.add_argument("--method", required=True, choices=["cp", "hosvd", "hooi", "tt"])
    p.add_argument("--rank", help="comma-separated rank list (arity depends on method)")
    p.add_argument("--tol", type=float, help="relative tolerance instead of ranks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-sweeps", type=int, default=100)
    p.add_argument("--stop-tol", type=float, default=1e-12,
                   help="relative per-sweep objective decrease that stops ALS; 0 runs every sweep")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("reconstruct", help="densify a decomposition file")
    p.add_argument("input")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("error", help="relative l2 error of a decomposition vs a tensor")
    p.add_argument("reference")
    p.add_argument("decomposition")
    p.set_defaults(func=cmd_error)

    p = sub.add_parser("tt", help="in-format tensor-train queries")
    p.add_argument("query", choices=["z", "marginal", "entry"])
    p.add_argument("path")
    p.add_argument("--mode", type=int, help="mode for marginal (1-based)")
    p.add_argument("--index", help="comma-separated 1-based multi-index for entry")
    p.set_defaults(func=cmd_tt)

    p = sub.add_parser("grid", help="discretize a polynomial on a Cartesian grid")
    p.add_argument("--poly", help="polynomial file (lines: coeff e_1 ... e_d)")
    p.add_argument("--builtin", help=f"builtin polynomial: {sorted(_BUILTIN_POLYS)}")
    p.add_argument("--mesh", required=True,
                   help="mesh file, or inline lo:hi:count per mode, comma-separated")
    p.add_argument("--out", required=True)
    p.add_argument("--cp-out", help="also write the term-per-monomial CP sidecar")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("rank222", help="hyperdeterminant classification of a 2x2x2 tensor")
    p.add_argument("path")
    p.set_defaults(func=cmd_rank222)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, tio.FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (NumericError, DenseCapError, np.linalg.LinAlgError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
