"""The four closed-loop workloads: inputs from a seed, one job, its checks.

A workload makes its inputs from the seed and writes its files once; a job
is its fixed sequence of calls into tenslab, the CLI in-process or the
library. Every job of a run does the same work. The checks use this file's
own numpy code and file readers, never tenslab, so the library cannot vouch
for itself. ``check`` raises ``CheckFailed`` or returns the job's relative
error against the workload's reference.
"""
from __future__ import annotations

import contextlib
import io
import math
import struct
from pathlib import Path

import numpy as np


class CheckFailed(Exception):
    pass


def expect(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def run_cli(tl, argv) -> dict[str, str]:
    """Run ``tenslab.cli.main(argv)`` in-process; return its key=value report."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = tl.cli.main([str(a) for a in argv])
    expect(code == 0, f"tenslab {' '.join(map(str, argv))} exited with code {code}")
    return dict(line.split("=", 1) for line in out.getvalue().splitlines() if "=" in line)


# -- file formats, written and read independently of tenslab.io ---------------

def write_dense(path: Path, values: np.ndarray) -> None:
    head = b"DTEN1\n" + struct.pack(f"<I{values.ndim}Q", values.ndim, *values.shape)
    path.write_bytes(head + np.ascontiguousarray(values, dtype="<f8").tobytes())


def read_dense(path: Path) -> np.ndarray:
    data = path.read_bytes()
    expect(data[:6] == b"DTEN1\n", f"{path}: not a DTEN1 file")
    (d,) = struct.unpack_from("<I", data, 6)
    dims = struct.unpack_from(f"<{d}Q", data, 10)
    return np.frombuffer(data, dtype="<f8", offset=10 + 8 * d).reshape(dims)


def read_cp(path: Path) -> tuple[np.ndarray, list[np.ndarray]]:
    data = path.read_bytes()
    expect(data[:5] == b"CPD1\n", f"{path}: not a CPD1 file")
    d, r = struct.unpack_from("<II", data, 5)
    dims = struct.unpack_from(f"<{d}Q", data, 13)
    values = np.frombuffer(data, dtype="<f8", offset=13 + 8 * d)
    weights, pos, factors = values[:r], r, []
    for n in dims:
        factors.append(values[pos:pos + n * r].reshape(n, r))
        pos += n * r
    expect(pos == len(values), f"{path}: {len(values) - pos} trailing values")
    return weights, factors


def cp_dense(weights, factors) -> np.ndarray:
    return np.einsum("a,ia,ja,ka->ijk", weights, *factors)


def rel(a: np.ndarray, b: np.ndarray) -> float:
    """Relative l2 distance of ``a`` from the reference ``b``."""
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


# -- tensor trains in plain numpy: cores of shape (r_left, n, r_right) ---------

def orthonormal_cores(rng, dims, rank) -> list[np.ndarray]:
    """Random train whose cores are left- and right-orthonormal at once.

    Interior slices are random orthogonal matrices over sqrt(n), so every
    unfolding has ``rank`` singular values equal to 1; the first core's
    columns are then scaled by 2..1 so the spectra are graded but stay
    within [1, 2]. The planted ranks are therefore exact and well separated
    from noise.
    """
    d = len(dims)
    cores = []
    for mu, n in enumerate(dims):
        if mu == 0:
            Q = np.linalg.qr(rng.standard_normal((n, rank)))[0]
            cores.append((Q * np.linspace(2.0, 1.0, rank))[None, :, :])
        elif mu == d - 1:
            Q = np.linalg.qr(rng.standard_normal((n, rank)))[0]
            cores.append(Q.T[:, :, None])
        else:
            slices = [np.linalg.qr(rng.standard_normal((rank, rank)))[0] for _ in range(n)]
            cores.append(np.stack(slices, axis=1) / math.sqrt(n))
    return cores


def tt_dense(cores) -> np.ndarray:
    out = cores[0].reshape(cores[0].shape[1], -1)
    for G in cores[1:]:
        out = (out @ G.reshape(G.shape[0], -1)).reshape(-1, G.shape[2])
    return out.reshape([G.shape[1] for G in cores])


def tt_entries(cores, indices) -> np.ndarray:
    """Entries at 1-based multi-indices, one row of ``indices`` each."""
    idx = np.asarray(indices) - 1
    rows = cores[0][0, idx[:, 0], :]
    for mu, G in enumerate(cores[1:], start=1):
        rows = np.einsum("pa,apb->pb", rows, G[:, idx[:, mu], :])
    return rows[:, 0]


def tt_partition(cores) -> float:
    row = np.ones((1, 1))
    for G in cores:
        row = row @ G.sum(axis=1)
    return float(row[0, 0])


def tt_norm(cores) -> float:
    """l2 norm by a left-to-right QR sweep (no squaring, so no cancellation)."""
    carry = np.ones((1, 1))
    for G in cores:
        M = np.tensordot(carry, G, axes=(1, 0))
        carry = np.linalg.qr(M.reshape(-1, M.shape[2]), mode="r")
    return float(np.linalg.norm(carry))


def tt_difference(A, B) -> list[np.ndarray]:
    """Cores of the train A - B (ranks add)."""
    d = len(A)
    cores = []
    for mu, (G, H) in enumerate(zip(A, B)):
        if mu == 0:
            cores.append(np.concatenate([G, -H], axis=2))
        elif mu == d - 1:
            cores.append(np.concatenate([G, H], axis=0))
        else:
            C = np.zeros((G.shape[0] + H.shape[0], G.shape[1], G.shape[2] + H.shape[2]))
            C[:G.shape[0], :, :G.shape[2]] = G
            C[G.shape[0]:, :, G.shape[2]:] = H
            cores.append(C)
    return cores


# -- workloads -----------------------------------------------------------------

class Workload:
    """One workload; BENCHMARK.json records why it is in the benchmark."""

    name = ""

    def __init__(self, tl, seed: int, workdir: Path):
        self.tl = tl
        self.rng = np.random.default_rng([seed, sum(self.name.encode())])
        self.dir = workdir
        self.input_bytes = 0            # bytes of the largest tensor a job handles
        self.input_label = ""

    def counted_callables(self) -> list[tuple[object, str]]:
        """The workload's own callables whose calls count as evaluations."""
        return []

    def noisy(self, A: np.ndarray, level: float) -> np.ndarray:
        """``A`` plus Gaussian noise of exactly ``level`` times its norm."""
        E = self.rng.standard_normal(A.shape)
        return A + E * (level * np.linalg.norm(A) / np.linalg.norm(E))


class CPFit(Workload):
    name = "cp-fit"
    N, RANK, SWEEPS, NOISE = 40, 10, 20, 0.01
    # Column congruence of the planted factors. Collinear factors keep ALS in
    # its slow regime for all 20 sweeps; with well-separated factors it reaches
    # roundoff by about sweep 15, and --stop-tol 0 then stops at the first
    # roundoff-level rise, so the sweep count and the work per job would vary.
    CONGRUENCE = 0.8
    # Job k fits with ALS seed k mod ALS_SEEDS; enough seeds that the worst
    # fit of a run is seen on every input seed.
    ALS_SEEDS = 32
    RANK1_SWEEPS = 10

    def setup(self) -> None:
        n, r, c = self.N, self.RANK, self.CONGRUENCE
        mix = np.linalg.cholesky((1 - c) * np.eye(r) + c * np.ones((r, r))).T
        factors = [np.linalg.qr(self.rng.standard_normal((n, r)))[0] @ mix for _ in range(3)]
        self.F = self.noisy(cp_dense(np.ones(r), factors), self.NOISE)
        self.F_path, self.cpd_path = self.dir / "F.dten", self.dir / "F.cpd"
        write_dense(self.F_path, self.F)
        self.F_tensor = self.tl.DenseTensor(self.F)
        self.input_bytes, self.input_label = self.F.nbytes, "F 40^3"

    def job(self, k: int):
        report = run_cli(self.tl, [
            "decompose", self.F_path, "--method", "cp", "--rank", self.RANK,
            "--max-sweeps", self.SWEEPS, "--stop-tol", 0, "--seed", k % self.ALS_SEEDS,
            "--out", self.cpd_path])
        opts = self.tl.ALSOptions(max_sweeps=self.RANK1_SWEEPS, rel_tol=0.0)
        alpha, xs = self.tl.best_rank_one(self.F_tensor, opts)
        return report, alpha, xs

    def check(self, outcome) -> float:
        report, alpha, xs = outcome
        expect(report.get("sweeps") == str(self.SWEEPS),
               f"cp: reported sweeps={report.get('sweeps')}, expected {self.SWEEPS}")
        err = rel(cp_dense(*read_cp(self.cpd_path)), self.F)
        reported = float(report["rel_error"])
        expect(abs(reported - err) <= 1e-8 * err,
               f"cp: reported rel_error {reported!r}, recomputed from the file {err!r}")
        expect(err < 1.0, f"cp: rel_error {err} is no better than the zero model")
        expect(all(abs(np.linalg.norm(x) - 1.0) < 1e-12 for x in xs),
               "best_rank_one: vectors are not unit")
        expected = float(np.einsum("ijk,i,j,k->", self.F, *xs))
        expect(abs(alpha - expected) <= 1e-10 * np.linalg.norm(self.F),
               f"best_rank_one: alpha {alpha!r} but <F, x1 x2 x3> = {expected!r}")
        return err


class TTCompress(Workload):
    name = "tt-compress"
    NOISE = 1e-3
    TT_DIMS, TT_RANK = (8,) * 7, 8
    TUCKER_N, TUCKER_RANK = 64, 8

    def setup(self) -> None:
        X = tt_dense(orthonormal_cores(self.rng, self.TT_DIMS, self.TT_RANK))
        n, r = self.TUCKER_N, self.TUCKER_RANK
        bases = [np.linalg.qr(self.rng.standard_normal((n, r)))[0] for _ in range(3)]
        Y = np.einsum("abc,ia,jb,kc->ijk", self.rng.standard_normal((r, r, r)), *bases)
        self.X, self.Y = (self.noisy(A, self.NOISE) for A in (X, Y))
        p = {name: self.dir / name for name in
             ("X.dten", "Y.dten", "T.tten", "T2.tten", "Y1.tuck", "Y2.tuck", "B.dten")}
        self.paths = p
        write_dense(p["X.dten"], self.X)
        write_dense(p["Y.dten"], self.Y)
        tt_ranks = ",".join([str(self.TT_RANK)] * (len(self.TT_DIMS) - 1))
        self.calls = [
            ["decompose", p["X.dten"], "--method", "tt", "--rank", tt_ranks, "--out", p["T.tten"]],
            ["decompose", p["X.dten"], "--method", "tt", "--tol", "1e-2", "--out", p["T2.tten"]],
            ["decompose", p["Y.dten"], "--method", "hosvd", "--tol", "1e-2",
             "--out", p["Y1.tuck"]],
            ["decompose", p["Y.dten"], "--method", "hooi", "--rank", f"{r},{r},{r}",
             "--max-sweeps", 5, "--stop-tol", 0, "--out", p["Y2.tuck"]],
            ["reconstruct", p["T.tten"], "--out", p["B.dten"]],
            ["error", p["X.dten"], p["T2.tten"]],
        ]
        self.tt_ranks, self.tucker_ranks = tt_ranks, f"{r},{r},{r}"
        self.input_bytes, self.input_label = self.X.nbytes, "X 8^7"

    def job(self, k: int):
        return [run_cli(self.tl, argv) for argv in self.calls]

    def check(self, reports) -> float:
        tt_rank, tt_tol, hosvd, hooi, _, error = reports
        for what, report, ranks in (("tt --rank", tt_rank, self.tt_ranks),
                                    ("tt --tol", tt_tol, self.tt_ranks),
                                    ("hosvd --tol", hosvd, self.tucker_ranks),
                                    ("hooi", hooi, self.tucker_ranks)):
            expect(report.get("achieved_rank") == ranks,
                   f"{what}: achieved_rank={report.get('achieved_rank')}, planted {ranks}")
        errors = {what: float(report["rel_error"]) for what, report in (
            ("tt --rank", tt_rank), ("tt --tol", tt_tol), ("hosvd --tol", hosvd),
            ("hooi", hooi), ("error", error))}
        for what, err in errors.items():
            expect(0.5 * self.NOISE <= err <= 1.5 * self.NOISE,
                   f"{what}: rel_error {err} is not at the planted noise level {self.NOISE}")
        err_b = rel(read_dense(self.paths["B.dten"]), self.X)
        expect(abs(err_b - errors["tt --rank"]) <= 1e-8 * err_b,
               f"reconstruct: B.dten is {err_b!r} from X, decompose reported "
               f"{errors['tt --rank']!r}")
        return max(err_b, *errors.values())


class TTArith(Workload):
    name = "tt-arith"
    D, N, RANK, PROBES = 16, 16, 8, 200
    EPS = 1e-3                          # norm of the perturbation added to T1, relative
    ROUND_TOL = 1e-8

    def setup(self) -> None:
        dims = (self.N,) * self.D
        c1, c2 = (orthonormal_cores(self.rng, dims, self.RANK) for _ in range(2))
        scale = self.EPS * tt_norm(c1) / tt_norm(c2)
        TT = self.tl.TTTensor
        self.T1, self.T2 = TT(c1), TT(c2)
        self.T2_small = TT([c2[0] * scale] + c2[1:])
        self.probes = self.rng.integers(1, self.N + 1, size=(self.PROBES, self.D))
        self.probe_lists = self.probes.tolist()
        self.products = tt_entries(c1, self.probes) * tt_entries(c2, self.probes)
        hadamard_rank = self.RANK ** 2
        self.input_bytes = self.D * hadamard_rank * self.N * hadamard_rank * 8
        self.input_label = "T1*T2 cores"
        self.checked = None             # (cores of a checked outcome, its norm checks)

    def job(self, k: int):
        tl = self.tl
        S = tl.tt_add(self.T1, self.T2_small)
        H = tl.tt_hadamard(self.T1, self.T2)
        H_round = tl.tt_round(H, rel_tol=self.ROUND_TOL)
        S_round = tl.tt_round(S, ranks=[self.RANK] * (self.D - 1))
        z = tl.tt_partition(H_round)
        marginals = [tl.tt_marginal(H_round, mu).data for mu in range(1, self.D + 1)]
        entries = [tl.tt_entry(H, index) for index in self.probe_lists]
        return S, H, H_round, S_round, z, marginals, entries

    def check(self, outcome) -> float:
        S, H, H_round, S_round, z, marginals, entries = outcome
        scale = float(np.max(np.abs(self.products)))
        entry_err = float(np.max(np.abs(np.asarray(entries) - self.products))) / scale
        expect(entry_err <= 1e-9,
               f"tt_hadamard: entries differ from T1*T2 by {entry_err} of the largest")
        for mu, m in enumerate(marginals, start=1):
            expect(abs(m.sum() - z) <= 1e-9 * (abs(z) + np.abs(m).sum()),
                   f"tt_marginal: mode {mu} sums to {m.sum()!r}, partition is {z!r}")
        expect(S_round.ranks == (self.RANK,) * (self.D - 1),
               f"tt_round: ranks {S_round.ranks}, asked for {self.RANK}")
        # The norm checks cost more than a job, so an outcome identical to one
        # already checked (every job's, on a deterministic program) reuses them.
        cores = [G for T in (S, H, H_round, S_round) for G in T.cores]
        if self.checked is None or len(cores) != len(self.checked[0]) or not all(
                np.array_equal(a, b) for a, b in zip(cores, self.checked[0])):
            self.checked = (cores, self._rounding_errors(S, H, H_round, S_round))
        norm_h, round_err, err = self.checked[1]
        z_exact = tt_partition(H.cores)
        ones_norm = math.sqrt(self.N) ** self.D
        # |<H_round - H, 1>| <= ||H_round - H|| * ||1||
        expect(abs(z - z_exact) <= (round_err + 1e-12) * norm_h * ones_norm,
               f"tt_round: partition moved from {z_exact!r} to {z!r}")
        return max(err, round_err, entry_err)

    def _rounding_errors(self, S, H, H_round, S_round) -> tuple[float, float, float]:
        """``||H||`` and the relative errors of both roundings, checked."""
        norm_h = tt_norm(H.cores)
        round_err = tt_norm(tt_difference(H_round.cores, H.cores)) / norm_h
        expect(round_err <= self.ROUND_TOL,
               f"tt_round: moved H by {round_err} relative, tolerance {self.ROUND_TOL}")
        norm_s = tt_norm(S.cores)
        err = tt_norm(tt_difference(S_round.cores, S.cores)) / norm_s
        # rounding is quasi-optimal: within sqrt(d-1) of the rank-8 train T1,
        # which is EPS * ||T1|| from S
        bound = math.sqrt(self.D - 1) * self.EPS * tt_norm(self.T1.cores) / norm_s
        expect(err <= bound, f"tt_round to rank {self.RANK}: error {err} exceeds {bound}")
        return norm_h, round_err, err


def smooth_field(x, y, z, exp=math.exp):
    """The benchmark's own smooth non-polynomial function on [-1, 1]^3.

    tenslab calls it per point with floats; ``exp=np.exp`` evaluates it on arrays.
    """
    return exp(0.5 * x - 0.25 * y) / (1.0 + 0.3 * (x * x + y * y + z * z))


class FuncGrid(Workload):
    name = "funcgrid"
    MESH, TERMS, MAX_EXP = 40, 4, 3
    DEGREE, POINTS = 10, 500
    CHEB_TOL = 1e-4

    def setup(self) -> None:
        picks = self.rng.choice((self.MAX_EXP + 1) ** 3, size=self.TERMS, replace=False)
        self.exponents = [tuple(int(p) // (self.MAX_EXP + 1) ** k % (self.MAX_EXP + 1)
                                for k in range(3)) for p in picks]
        self.coeffs = (self.rng.uniform(0.5, 2.0, self.TERMS)
                       * self.rng.choice([-1.0, 1.0], self.TERMS))
        self.paths = {name: self.dir / name for name in ("P.txt", "G.dten", "G.cpd")}
        self.paths["P.txt"].write_text("".join(
            f"{float(c)!r} {e[0]} {e[1]} {e[2]}\n" for c, e in zip(self.coeffs, self.exponents)))
        x = np.linspace(0.0, 1.0, self.MESH)
        self.grid_ref = sum(c * np.multiply.outer(np.multiply.outer(x ** a, x ** b), x ** g)
                            for c, (a, b, g) in zip(self.coeffs, self.exponents))
        self.points = self.rng.uniform(-1.0, 1.0, size=(self.POINTS, 3))
        self.field_ref = smooth_field(*self.points.T, exp=np.exp)
        self.field = smooth_field
        mesh = f"0:1:{self.MESH}"
        self.argv = ["grid", "--poly", self.paths["P.txt"], "--mesh", f"{mesh},{mesh},{mesh}",
                     "--out", self.paths["G.dten"], "--cp-out", self.paths["G.cpd"]]
        self.input_bytes, self.input_label = self.grid_ref.nbytes, "G 40^3"

    def counted_callables(self):
        return [(self, "field")]

    def job(self, k: int):
        report = run_cli(self.tl, self.argv)
        coeffs = self.tl.cheb_project(self.field, (self.DEGREE,) * 3)
        values = self.tl.cheb_reconstruct(coeffs, self.points)
        return report, values

    def check(self, outcome) -> float:
        report, values = outcome
        expect(report.get("cp_rank") == str(self.TERMS),
               f"grid: cp_rank={report.get('cp_rank')}, the polynomial has {self.TERMS} terms")
        grid = read_dense(self.paths["G.dten"])
        expect(grid.shape == self.grid_ref.shape, f"grid: dims {grid.shape}")
        grid_err = rel(grid, self.grid_ref)
        expect(grid_err <= 1e-12, f"grid: G.dten is {grid_err} from the polynomial")
        cp_err = rel(cp_dense(*read_cp(self.paths["G.cpd"])), grid)
        expect(cp_err <= 1e-12, f"grid: the CP sidecar is {cp_err} from G.dten")
        cheb_err = rel(np.asarray(values), self.field_ref)
        expect(cheb_err <= self.CHEB_TOL,
               f"chebyshev: values are {cheb_err} from the function, tolerance {self.CHEB_TOL}")
        return max(cheb_err, grid_err, cp_err)


WORKLOADS = {w.name: w for w in (CPFit, TTCompress, TTArith, FuncGrid)}
