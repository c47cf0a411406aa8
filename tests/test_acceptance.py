"""End-to-end acceptance checks, one test per criterion.

Run ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line per
criterion.  Every tolerance is pinned here; nothing is calibrated at
runtime.
"""
import math
from fractions import Fraction

import numpy as np

import tenslab as tl
from tenslab.cli import main as cli_main
from tenslab.cp import RANK2, RANK3
from tenslab.io import write_dense, write_tt


def check(criterion: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[criterion {criterion:02d}] {status} {description}{suffix}")
    assert ok, f"criterion {criterion}: {description}{suffix}"


def slices_222(A1, A2):
    return tl.DenseTensor(np.stack([np.asarray(A1, float), np.asarray(A2, float)],
                                   axis=2))


def test_criterion_01_hyperdeterminant_fixtures():
    rot = slices_222(np.eye(2), [[0.0, -1.0], [1.0, 0.0]])
    dia = slices_222(np.eye(2), np.diag([1.0, 2.0]))
    d_rot = tl.hyperdeterminant_222(rot)
    d_dia = tl.hyperdeterminant_222(dia)
    ok = (abs(d_rot + 4.0) <= 1e-14 and tl.rank222_classify(rot) == RANK3
          and abs(d_dia - 1.0) <= 1e-14 and tl.rank222_classify(dia) == RANK2)
    check(1, "hyperdeterminant classification of the two fixtures", ok,
          f"delta_rot={d_rot}, delta_diag={d_dia}")


def test_criterion_02_typical_rank_plurality():
    rng = np.random.default_rng(222)
    counts = {RANK2: 0, RANK3: 0}
    n = 2000
    for _ in range(n):
        A = rng.standard_normal((2, 2, 2))
        A /= np.linalg.norm(A)
        delta = tl.hyperdeterminant_222(A)
        if delta > 0:
            counts[RANK2] += 1
        elif delta < 0:
            counts[RANK3] += 1
    ok = counts[RANK2] >= 0.10 * n and counts[RANK3] >= 0.10 * n
    check(2, "both 2x2x2 typical ranks occur with frequency >= 10%", ok,
          f"rank2={counts[RANK2] / n:.3f}, rank3={counts[RANK3] / n:.3f}")


def test_criterion_03_tt_exact_on_additive():
    rng = np.random.default_rng(3)
    n = 20
    f, g, h = (rng.standard_normal(n) for _ in range(3))
    A = tl.DenseTensor(f[:, None, None] + g[None, :, None] + h[None, None, :])
    T, _ = tl.tt_svd(A, ranks=(2, 2))
    rel = tl.norm(tl.DenseTensor(A.data - tl.tt_reconstruct(T).data)) / tl.norm(A)
    z = tl.tt_partition(T)
    z_expected = n * n * (f.sum() + g.sum() + h.sum())
    ok = rel <= 1e-10 and abs(z - z_expected) <= 1e-11 * abs(z_expected)
    check(3, "rank-(2,2) TT-SVD is exact on the additive tensor", ok,
          f"rel={rel:.2e}, z rel err={abs(z - z_expected) / abs(z_expected):.2e}")


def test_criterion_04_tt_energy_bookkeeping():
    rng = np.random.default_rng(4)
    ok = True
    worst = 0.0
    for _ in range(20):
        A = tl.DenseTensor(rng.standard_normal((4, 4, 4, 4)))
        T, quality = tl.tt_svd(A, ranks=(2, 2, 2))
        recon = tl.tt_reconstruct(T)
        total = tl.norm(A) ** 2
        split = tl.norm(recon) ** 2 + sum(quality.step_tail_energies)
        retained = quality.global_quality * total
        r1 = abs(total - split) / total
        r2 = abs(tl.norm(recon) ** 2 - retained) / total
        worst = max(worst, r1, r2)
        ok &= r1 <= 1e-8 and r2 <= 1e-8
    check(4, "TT energy splits exactly into kept + tails, kept = prod(theta)", ok,
          f"worst residual {worst:.2e}")


def test_criterion_05_tt_in_format_arithmetic():
    rng = np.random.default_rng(5)
    chain = lambda ranks, dims: tl.tt.TTTensor(
        [rng.standard_normal((r1, n, r2))
         for r1, n, r2 in zip((1,) + ranks, dims, ranks + (1,))])
    dims = (3, 4, 3)
    T = chain((2, 2), dims)
    S = chain((3, 3), dims)
    added, multiplied = tl.tt_add(T, S), tl.tt_hadamard(T, S)
    ok = added.ranks == (5, 5) and multiplied.ranks == (6, 6)
    for _ in range(100):
        idx = tuple(int(rng.integers(1, n + 1)) for n in dims)
        ts = tl.tt_entry(T, idx), tl.tt_entry(S, idx)
        ok &= abs(tl.tt_entry(added, idx) - sum(ts)) <= 1e-11 * max(1, abs(sum(ts)))
        prod = ts[0] * ts[1]
        ok &= abs(tl.tt_entry(multiplied, idx) - prod) <= 1e-11 * max(1, abs(prod))
    padded = tl.tt_add(T, tl.zeros_tt(dims))
    rounded = tl.tt_round(padded, ranks=(2, 2))
    dense_t = tl.tt_reconstruct(T)
    drift = tl.norm(tl.DenseTensor(dense_t.data - tl.tt_reconstruct(rounded).data))
    ok &= rounded.ranks == (2, 2) and drift <= 1e-9 * tl.norm(dense_t)
    check(5, "TT ranks add/multiply, entries match, rounding restores", ok,
          f"rounding drift {drift:.2e}")


def test_criterion_06_cp_tt_sandwich():
    rng = np.random.default_rng(6)
    ok = True
    for _ in range(20):
        cores = [rng.standard_normal((1, 3, 2)), rng.standard_normal((2, 3, 2)),
                 rng.standard_normal((2, 3, 1))]
        T = tl.tt.TTTensor(cores)
        cp = tl.tt_to_cp(T)
        dense = tl.tt_reconstruct(T)
        err = tl.norm(tl.DenseTensor(dense.data - tl.cp_reconstruct(cp).data))
        ok &= cp.rank <= 4 and err <= 1e-10 * max(tl.norm(dense), 1.0)
    for _ in range(20):
        cp = tl.CPDecomposition.from_factors(
            [rng.standard_normal((4, 3)) for _ in range(3)],
            rng.uniform(0.5, 2.0, 3))
        T = tl.cp_to_tt(cp)
        dense = tl.cp_reconstruct(cp)
        err = tl.norm(tl.DenseTensor(dense.data - tl.tt_reconstruct(T).data))
        ok &= T.ranks == (3, 3) and err <= 1e-11 * tl.norm(dense)
    check(6, "tt_to_cp stays within r^2 terms; cp_to_tt hits rank r exactly", ok)


def test_criterion_07_hosvd_structure():
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(5):
        A = tl.DenseTensor(rng.standard_normal((5, 5, 5)))
        tuck, spectra = tl.hosvd(A, (5, 5, 5))
        recon_err = tl.norm(tl.DenseTensor(A.data - tl.tucker_reconstruct(tuck).data))
        ok &= recon_err <= 1e-10 * tl.norm(A)
        for mu in range(1, 4):
            S = tl.matricize(A, mu).data @ tuck.factors[mu - 1]
            sv = spectra[mu - 1]
            G = S.T @ S
            for k in range(5):
                ok &= abs(math.sqrt(G[k, k]) - sv[k]) <= 1e-10 * sv[0]
                for l in range(k + 1, 5):
                    ok &= abs(G[k, l]) <= 1e-10 * max(sv[k] * sv[l], 1e-30)
    check(7, "HOSVD slices are orthogonal with singular-value norms; full rank exact",
          ok)


def test_criterion_08_hooi_dominance():
    rng = np.random.default_rng(8)
    ok = True
    for _ in range(20):
        A = tl.DenseTensor(rng.standard_normal((5, 5, 5)))
        t_hosvd, _ = tl.hosvd(A, (2, 2, 2))
        e_hosvd = tl.norm(tl.DenseTensor(A.data - tl.tucker_reconstruct(t_hosvd).data))
        _, trace = tl.hooi(A, (2, 2, 2), tl.ALSOptions(max_sweeps=25))
        ok &= math.sqrt(trace.final) <= e_hosvd + 1e-12
        slack = 1e-10 * tl.norm(A) ** 2
        sweeps = [trace.initial] + trace.per_sweep
        ok &= all(b <= a + slack for a, b in zip(sweeps, sweeps[1:]))
    check(8, "HOOI error <= HOSVD error with a non-increasing sweep trace", ok)


def test_criterion_09_cp_als_monotone_and_recovers():
    recovered = 0
    monotone = True
    for seed in range(20):
        rng = np.random.default_rng(900 + seed)
        factors = [np.linalg.qr(rng.standard_normal((4, 2)))[0] for _ in range(3)]
        weights = rng.uniform(1.0, 2.0, 2)
        A = tl.cp_product(factors, weights)
        _, trace = tl.cp_als(A, 2, tl.ALSOptions(max_sweeps=50, rel_tol=0.0,
                                                 seed=seed))
        slack = 1e-10 * tl.norm(A) ** 2
        values = [trace.initial] + trace.per_block
        monotone &= all(b <= a + slack for a, b in zip(values, values[1:]))
        if math.sqrt(trace.final) <= 1e-8 * tl.norm(A):
            recovered += 1
    ok = monotone and recovered >= 18
    check(9, "CP-ALS monotone per block; rank-2 synthetics recovered", ok,
          f"recovered {recovered}/20")


def test_criterion_10_border_rank_demonstrator():
    rng = np.random.default_rng(10)
    xs = [rng.standard_normal(3) for _ in range(3)]
    ys = [rng.standard_normal(3) for _ in range(3)]

    def o3(u, v, w):
        return np.einsum("i,j,k->ijk", u, v, w)

    ok = True
    errs = {}
    for k in (1.0, 10.0, 100.0, 200.0, 400.0):
        A, Ak = tl.border_rank_demo(xs, ys, k)
        remainder = (o3(ys[0], ys[1], xs[2]) + o3(ys[0], xs[1], ys[2])
                     + o3(xs[0], ys[1], ys[2])) / k + o3(ys[0], ys[1], ys[2]) / k ** 2
        errs[k] = np.linalg.norm(A.data - Ak.data)
        if k <= 100.0:
            ok &= np.max(np.abs((Ak.data - A.data) - remainder)) <= 1e-12
        ok &= abs(errs[k] - np.linalg.norm(remainder)) <= 1e-12
    ok &= 1.9 <= errs[100.0] / errs[200.0] <= 2.1
    ok &= 1.9 <= errs[200.0] / errs[400.0] <= 2.1
    check(10, "border-rank error matches the closed form and halves with k", ok,
          f"ratio(100/200)={errs[100.0] / errs[200.0]:.4f}")


def test_criterion_11_eckart_young_desk_check():
    n = 10
    ok = True
    full_id = tl.svd(np.eye(n))
    ok &= np.array_equal(full_id.singular_values, np.ones(n))
    for r in range(1, n):
        # the tail identity sum_{a>r} sigma_a^2 = n - r holds exactly;
        # the densified reconstruction agrees up to roundoff
        ok &= full_id.tail_energy(r) == float(n - r)
        res = full_id.truncate(r)
        err_sq = np.linalg.norm(np.eye(n) - res.reconstruct()) ** 2
        ok &= abs(err_sq - (n - r)) <= 1e-12 * (n - r)
    rng = np.random.default_rng(11)
    for _ in range(10):
        M = rng.standard_normal((8, 6))
        full = tl.svd(M)
        for r in (1, 3, 5):
            res = tl.truncated_svd(M, r)
            err_sq = np.linalg.norm(M - res.reconstruct()) ** 2
            tail = float(np.sum(full.singular_values[r:] ** 2))
            ok &= abs(err_sq - tail) <= 1e-9 * max(tail, 1e-30)
    check(11, "identity truncation error is n - r exactly; errors equal sigma tails",
          ok)


def test_criterion_12_discretized_polynomial_rank():
    P = tl.MonomialPoly([(1.0, (2, 0)), (2.0, (1, 1)), (1.0, (0, 2))])
    meshes = [np.linspace(0.0, 1.0, 50), np.linspace(-1.0, 2.0, 50),
              np.sort(np.cos((2 * np.arange(1, 51) - 1) * np.pi / 100))]
    ok = True
    ratios = []
    for pts in meshes:
        grid = tl.CartesianGrid([tl.Mesh(pts), tl.Mesh(pts)])
        dense = tl.discretize(P, grid)
        s = np.linalg.svd(dense.data, compute_uv=False)
        ratios.append(s[3] / s[0])
        ok &= s[3] / s[0] < 1e-10
        cp = tl.poly_discretize_cp(P, grid)
        ok &= cp.rank == 3
        err = tl.norm(tl.DenseTensor(dense.data - tl.cp_reconstruct(cp).data))
        ok &= err <= 1e-11 * tl.norm(dense)
    check(12, "(x+y)^2 has numerical rank 3 on three different meshes", ok,
          f"max sigma4/sigma1 = {max(ratios):.2e}")


def test_criterion_13_chebyshev_projection():
    coeffs = tl.cheb_project(lambda x: x * x, [2])
    ok = bool(np.all(np.abs(coeffs.data - [0.5, 0.0, 0.5]) <= 1e-12))
    c2 = tl.cheb_project(lambda x, y: x * x * y, [3, 3])
    expected = np.zeros((4, 4))
    expected[0, 1] = expected[2, 1] = 0.5
    ok &= bool(np.all(np.abs(c2.data - expected) <= 1e-12))
    rng = np.random.default_rng(13)
    for _ in range(5):
        coeffs_rand = rng.standard_normal((4, 4))
        P = tl.MonomialPoly([(float(coeffs_rand[i, j]), (i, j))
                             for i in range(4) for j in range(4)])
        chat = tl.cheb_project(P, [3, 3])
        pts = rng.uniform(-1, 1, (50, 2))
        recon = tl.cheb_reconstruct(chat, pts)
        exact = np.array([P(x, y) for x, y in pts])
        ok &= bool(np.max(np.abs(recon - exact)) <= 1e-10)
    check(13, "Chebyshev coefficients of x^2 and x^2 y; degree-(3,3) round trip", ok)


def test_criterion_14_algebraic_identities():
    rng = np.random.default_rng(14)
    ok = True
    for _ in range(20):
        A, B = rng.standard_normal((3, 4)), rng.standard_normal((2, 5))
        C, D = rng.standard_normal((4, 2)), rng.standard_normal((5, 3))
        lhs = tl.kronecker(A, B) @ tl.kronecker(C, D)
        rhs = tl.kronecker(A @ C, B @ D)
        ok &= np.linalg.norm(lhs - rhs) <= 1e-10 * max(np.linalg.norm(rhs), 1.0)

        M = rng.standard_normal((5, 3))
        P = tl.pseudo_inverse(M)
        scale = max(np.linalg.norm(M), 1.0)
        ok &= np.linalg.norm(M @ P @ M - M) <= 1e-10 * scale
        ok &= np.linalg.norm(P @ M @ P - P) <= 1e-10 * scale
        ok &= np.linalg.norm((M @ P).T - M @ P) <= 1e-10
        ok &= np.linalg.norm((P @ M).T - P @ M) <= 1e-10

        a, b = rng.standard_normal(4), rng.standard_normal(3)
        lhs_vec = tl.vectorize(tl.tensor_product(a, b)).data
        rhs_vec = tl.kronecker(a.reshape(-1, 1), b.reshape(-1, 1)).reshape(-1)
        ok &= np.max(np.abs(lhs_vec - rhs_vec)) <= 1e-10

        T3 = tl.DenseTensor(rng.standard_normal((3, 3, 3)))
        x, y = rng.standard_normal(3), rng.standard_normal(3)
        red = tl.contract_sequence(T3, [(y, (2,)), (x, (1,))])
        blue = tl.contract_sequence(T3, [(x, (1,)), (y, (2,))])
        joint = tl.contract(T3, tl.tensor_product(x, y), (1, 2))
        ok &= np.max(np.abs(red.data - joint.data)) <= 1e-10
        ok &= np.max(np.abs(blue.data - joint.data)) <= 1e-10

        W = rng.standard_normal((3, 3))
        out = tl.apply_bilinear(tl.structure_tensor_matvec(3, 3),
                                W.reshape(-1), x)
        ok &= np.linalg.norm(out.data - W @ x) <= 1e-10 * max(
            np.linalg.norm(W @ x), 1.0)
    check(14, "mixed-product, Penrose, vec/Kronecker, Hasse, structure tensor", ok)


def test_criterion_15_ball_volumes():
    ok = abs(tl.ball_volume(2, 1) - 2.0) <= 1e-12
    ok &= abs(tl.ball_volume(2, 2) - math.pi) <= 1e-12
    ok &= abs(tl.ball_volume(2, math.inf) - 4.0) <= 1e-12
    for n in range(1, 11):
        ratio = (tl.ball_volume(n, math.inf, exact=True)
                 / tl.ball_volume(n, 1, exact=True))
        ok &= ratio == Fraction(math.factorial(n))
    check(15, "unit-ball volumes in dim 2 and the exact n! volume ratio", ok)


def test_criterion_16_cli_golden(tmp_path, capsys):
    rng = np.random.default_rng(16)
    src = tmp_path / "a.dten"
    write_dense(tl.DenseTensor(rng.standard_normal((3, 3, 3))), src)
    tt_file = tmp_path / "t.tten"
    write_tt(tl.additive_tt([rng.standard_normal(4) for _ in range(3)]), tt_file)
    rot = tmp_path / "rot.dtent"
    write_dense(slices_222(np.eye(2), [[0.0, -1.0], [1.0, 0.0]]), rot)
    poly = tmp_path / "p.txt"
    poly.write_text("1.0 2 0\n2.0 1 1\n1.0 0 2\n")

    commands = [
        ("info", ["info", str(src)], []),
        ("dec-cp", ["decompose", str(src), "--method", "cp", "--rank", "2",
                    "--seed", "5", "--out", str(tmp_path / "cp.cpd")],
         [tmp_path / "cp.cpd"]),
        ("dec-hosvd", ["decompose", str(src), "--method", "hosvd", "--rank",
                       "2,2,2", "--out", str(tmp_path / "h.tuck")],
         [tmp_path / "h.tuck"]),
        ("dec-hooi", ["decompose", str(src), "--method", "hooi", "--rank",
                      "2,2,2", "--out", str(tmp_path / "o.tuck")],
         [tmp_path / "o.tuck"]),
        ("dec-tt", ["decompose", str(src), "--method", "tt", "--rank", "2,2",
                    "--out", str(tmp_path / "t.tten")],
         [tmp_path / "t.tten"]),
        ("recon", ["reconstruct", str(tt_file), "--out", str(tmp_path / "r.dten")],
         [tmp_path / "r.dten"]),
        ("error", ["error", str(src), str(tmp_path / "t.tten")], []),
        ("tt-z", ["tt", "z", str(tt_file)], []),
        ("tt-marg", ["tt", "marginal", str(tt_file), "--mode", "2"], []),
        ("tt-entry", ["tt", "entry", str(tt_file), "--index", "2,1,3"], []),
        ("grid", ["grid", "--poly", str(poly), "--mesh", "0:1:10,0:1:10",
                  "--out", str(tmp_path / "g.dten"),
                  "--cp-out", str(tmp_path / "g.cpd")],
         [tmp_path / "g.dten", tmp_path / "g.cpd"]),
        ("rank222", ["rank222", str(rot)], []),
    ]

    def run_all():
        transcript, artifacts = {}, {}
        for name, argv, out_files in commands:
            code = cli_main(argv)
            out = capsys.readouterr().out
            assert code == 0, (name, out)
            transcript[name] = [line for line in out.splitlines()
                                if not line.startswith("wall_time")]
            for f in out_files:
                artifacts[f] = f.read_bytes()
        return transcript, artifacts

    t1, a1 = run_all()
    t2, a2 = run_all()
    ok = t1 == t2 and set(a1) == set(a2) and all(a1[k] == a2[k] for k in a1)
    check(16, "every CLI command reproduces byte-identical outputs across runs", ok)
