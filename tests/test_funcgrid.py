import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.polynomial import chebyshev as npcheb

from tenslab import (
    CartesianGrid,
    DenseTensor,
    Mesh,
    MonomialPoly,
    affine_rescaled,
    cheb_project,
    cheb_reconstruct,
    chebyshev_eval,
    chebyshev_nodes,
    cp_reconstruct,
    discretize,
    hadamard,
    poly_discretize_cp,
    tensor_product,
)


class TestMeshAndGrid:
    def test_mesh_must_increase(self):
        with pytest.raises(ValueError):
            Mesh([0.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            Mesh([])
        assert len(Mesh([1.5])) == 1

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_mesh_rejects_non_finite_points(self, bad):
        with pytest.raises(ValueError, match=f"mesh point {bad!r} is not finite"):
            Mesh([0.0, bad])
        with pytest.raises(ValueError, match=f"mesh point {bad!r} is not finite"):
            Mesh.uniform(0.0, bad, 5)

    def test_grid_point_one_based(self):
        grid = CartesianGrid([Mesh([0.0, 1.0]), Mesh([5.0, 6.0, 7.0])])
        assert grid.shape == (2, 3)
        assert grid.point((2, 3)) == (1.0, 7.0)

    @pytest.mark.parametrize("index", [(0, 1), (1, 4), (1.5, 1), (1, 2, 1)])
    def test_grid_point_follows_the_dense_index_rule(self, index):
        grid = CartesianGrid([Mesh([0.0, 1.0]), Mesh([5.0, 6.0, 7.0])])
        with pytest.raises(ValueError) as grid_err:
            grid.point(index)
        with pytest.raises(ValueError) as dense_err:
            DenseTensor(np.zeros(grid.shape)).entry(index)
        assert str(grid_err.value) == str(dense_err.value)

    def test_poly_merges_duplicates(self):
        P = MonomialPoly([(1.0, (1, 0)), (2.0, (1, 0)), (1.0, (0, 1))])
        assert P.n_terms == 2
        assert P(2.0, 3.0) == pytest.approx(2.0 * 3 + 3.0)

    def test_poly_cancellation_keeps_zero_poly(self):
        P = MonomialPoly([(1.0, (1,)), (-1.0, (1,))])
        assert P.n_terms == 1
        assert P(5.0) == 0.0

    def test_poly_rejects_bad_terms(self):
        with pytest.raises(ValueError):
            MonomialPoly([(1.0, (1, 0)), (1.0, (1,))])
        with pytest.raises(ValueError):
            MonomialPoly([(1.0, (-1,))])

    def test_poly_rejects_fractional_exponent(self):
        with pytest.raises(ValueError, match=r"exponent tuple \(1\.5, 2\) has a non-integral"):
            MonomialPoly([(1.0, (1.5, 2))])
        assert MonomialPoly([(1.0, (1.0, np.int64(2)))]).terms == [(1.0, (1, 2))]


class TestDiscretize:
    def test_identity_function(self):
        out = discretize(lambda x: x, CartesianGrid([Mesh([1.0, 2.0, 3.0])]))
        np.testing.assert_array_equal(out.data, [1.0, 2.0, 3.0])

    def test_product_becomes_hadamard(self, rng):
        mesh = Mesh(np.sort(rng.uniform(-1, 1, 7)))
        grid = CartesianGrid([mesh, mesh])
        f = MonomialPoly([(1.0, (2, 0)), (0.5, (0, 1))])
        g = MonomialPoly([(2.0, (1, 1)), (1.0, (0, 0))])
        fg = lambda x, y: f(x, y) * g(x, y)
        lhs = discretize(fg, grid)
        rhs = hadamard(discretize(f, grid), discretize(g, grid))
        np.testing.assert_allclose(lhs.data, rhs.data, atol=1e-12)

    def test_tensor_product_of_functions(self, rng):
        mx = Mesh(np.sort(rng.uniform(-1, 1, 5)))
        my = Mesh(np.sort(rng.uniform(-1, 1, 6)))
        f = lambda x: x ** 2 + 1
        g = lambda y: 2 * y
        lhs = discretize(lambda x, y: f(x) * g(y), CartesianGrid([mx, my]))
        rhs = tensor_product(discretize(f, CartesianGrid([mx])),
                             discretize(g, CartesianGrid([my])))
        np.testing.assert_allclose(lhs.data, rhs.data, atol=1e-12)

    def test_failure_carries_grid_point(self):
        def bad(x):
            if x > 1.5:
                raise RuntimeError("boom")
            return x

        with pytest.raises(ValueError, match=r"2\.0"):
            discretize(bad, CartesianGrid([Mesh([1.0, 2.0])]))

    def test_poly_overflow_carries_grid_point(self):
        P = MonomialPoly([(1.0, (3,))])
        with pytest.raises(ValueError, match=r"1e\+200"):
            discretize(P, CartesianGrid([Mesh([1.0, 1e200])]))

    def test_other_callables_are_called_per_point(self):
        # accepts arrays but is not elementwise: one call on the whole grid
        # would return a single number
        mx, my = [0.0, 2.0, 3.0], [1.0, 2.5]
        out = discretize(lambda x, y: np.max([x, y]), CartesianGrid([mx, my]))
        np.testing.assert_array_equal(out.data, np.maximum.outer(mx, my))


class TestPolyCP:
    def test_three_term_square(self):
        P = MonomialPoly([(1.0, (2, 0)), (2.0, (1, 1)), (1.0, (0, 2))])
        for pts in ([0.0, 0.3, 1.0, 2.0], np.linspace(-1, 2, 9)):
            grid = CartesianGrid([Mesh(pts), Mesh(pts)])
            cp = poly_discretize_cp(P, grid)
            assert cp.rank == 3
            dense = discretize(P, grid)
            np.testing.assert_allclose(cp_reconstruct(cp).data, dense.data,
                                       atol=1e-11 * max(1.0, np.abs(dense.data).max()))

    def test_numerical_rank_three(self):
        P = MonomialPoly([(1.0, (2, 0)), (2.0, (1, 1)), (1.0, (0, 2))])
        grid = CartesianGrid([Mesh(np.linspace(0, 1, 50))] * 2)
        s = np.linalg.svd(discretize(P, grid).data, compute_uv=False)
        assert s[3] / s[0] < 1e-10
        assert s[2] / s[0] > 1e-12

    def test_constant_poly_rank_one(self):
        P = MonomialPoly([(3.0, (0, 0, 0))])
        grid = CartesianGrid([Mesh(np.linspace(0, 1, 4))] * 3)
        cp = poly_discretize_cp(P, grid)
        assert cp.rank == 1
        np.testing.assert_allclose(cp_reconstruct(cp).data, np.full((4, 4, 4), 3.0),
                                   atol=1e-13)

    def test_random_five_term(self, rng):
        terms = [(float(rng.standard_normal()),
                  tuple(int(e) for e in rng.integers(0, 4, 3)))
                 for _ in range(5)]
        P = MonomialPoly(terms)
        grid = CartesianGrid([Mesh(np.linspace(-1, 1, 10))] * 3)
        cp = poly_discretize_cp(P, grid)
        assert cp.rank == P.n_terms
        dense = discretize(P, grid)
        np.testing.assert_allclose(cp_reconstruct(cp).data, dense.data,
                                   atol=1e-11 * max(1.0, np.abs(dense.data).max()))
        # CP term count bounds the unfolding rank on any mesh
        s = np.linalg.svd(dense.data.reshape(10, 100), compute_uv=False)
        assert s[min(P.n_terms, 9):].max(initial=0.0) <= 1e-10 * s[0]

    def test_arity_mismatch(self):
        P = MonomialPoly([(1.0, (1, 1))])
        with pytest.raises(ValueError):
            poly_discretize_cp(P, CartesianGrid([Mesh([0.0, 1.0])]))


class TestChebyshevEval:
    def test_low_degrees(self):
        assert chebyshev_eval(0, 0.7) == 1.0
        assert chebyshev_eval(1, 0.3) == pytest.approx(0.3)
        assert chebyshev_eval(2, 0.5) == pytest.approx(-0.5)

    def test_bounded_on_interval(self, rng):
        xs = rng.uniform(-1, 1, 50)
        for n in range(8):
            assert np.all(np.abs(chebyshev_eval(n, xs)) <= 1.0 + 1e-12)

    def test_cosine_identity(self, rng):
        theta = rng.uniform(0, math.pi, 20)
        for n in (3, 5, 8):
            np.testing.assert_allclose(chebyshev_eval(n, np.cos(theta)),
                                       np.cos(n * theta), atol=1e-11)

    def test_discrete_orthogonality(self):
        nodes = chebyshev_nodes(64)
        for m in range(11):
            for n in range(11):
                if m == n:
                    continue
                acc = np.sum(chebyshev_eval(m, nodes) * chebyshev_eval(n, nodes))
                assert abs(acc) / 64 <= 1e-12

    def test_outside_interval_flagged(self):
        with pytest.warns(UserWarning):
            chebyshev_eval(3, 1.5)


class TestChebProject:
    def test_x_squared(self):
        coeffs = cheb_project(lambda x: x * x, [2])
        np.testing.assert_allclose(coeffs.data, [0.5, 0.0, 0.5], atol=1e-13)

    def test_constant(self):
        coeffs = cheb_project(lambda x, y: 4.25, [3, 3])
        expected = np.zeros((4, 4))
        expected[0, 0] = 4.25
        np.testing.assert_allclose(coeffs.data, expected, atol=1e-13)

    def test_x2y_two_nonzeros(self):
        coeffs = cheb_project(lambda x, y: x * x * y, [3, 3])
        expected = np.zeros((4, 4))
        expected[0, 1] = 0.5
        expected[2, 1] = 0.5
        np.testing.assert_allclose(coeffs.data, expected, atol=1e-13)

    def test_power_basis_oracle(self):
        # independent exact 1-D coefficients: numpy's power-to-Chebyshev
        # conversion of x^3 - 0.5 x
        coeffs = cheb_project(lambda x: x ** 3 - 0.5 * x, [4]).data
        expected = np.zeros(5)
        converted = npcheb.poly2cheb([0.0, -0.5, 0.0, 1.0])
        expected[:len(converted)] = converted
        for n in range(5):
            assert coeffs[n] == pytest.approx(expected[n], abs=1e-10)

    def test_accepts_monomial_poly(self):
        P = MonomialPoly([(1.0, (2,))])
        np.testing.assert_allclose(cheb_project(P, [2]).data, [0.5, 0.0, 0.5],
                                   atol=1e-13)


class TestChebReconstruct:
    def test_round_trip_degree_two(self, rng):
        P = MonomialPoly([(float(c), (i, j))
                          for c, (i, j) in zip(rng.standard_normal(4),
                                               [(0, 0), (1, 2), (2, 1), (2, 2)])])
        coeffs = cheb_project(P, [2, 2])
        pts = rng.uniform(-1, 1, (100, 2))
        recon = cheb_reconstruct(coeffs, pts)
        expected = np.array([P(x, y) for x, y in pts])
        np.testing.assert_allclose(recon, expected, atol=1e-10)

    def test_zero_coefficients(self, rng):
        out = cheb_reconstruct(np.zeros((3, 3)), rng.uniform(-1, 1, (5, 2)))
        np.testing.assert_array_equal(out, np.zeros(5))

    def test_single_point(self):
        val = cheb_reconstruct(np.array([0.5, 0.0, 0.5]), np.array([0.3]))
        assert val == pytest.approx(0.09)

    def test_smooth_function_error_decays(self, rng):
        f = lambda x, y: math.exp(x + y)
        pts = np.stack([rng.uniform(-1, 1, 60), rng.uniform(-1, 1, 60)], axis=1)
        exact = np.array([f(x, y) for x, y in pts])
        errors = []
        for r in (4, 8, 12):
            coeffs = cheb_project(f, [r, r])
            errors.append(np.max(np.abs(cheb_reconstruct(coeffs, pts) - exact)))
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < 1e-10


class TestAffineRescale:
    def test_box_mapping(self):
        f = lambda x, y: x + 10 * y
        g = affine_rescaled(f, [(0.0, 2.0), (-4.0, 0.0)])
        assert g(-1.0, -1.0) == pytest.approx(f(0.0, -4.0))
        assert g(1.0, 1.0) == pytest.approx(f(2.0, 0.0))
        assert g(0.0, 0.0) == pytest.approx(f(1.0, -2.0))

    def test_projection_on_shifted_box(self):
        f = lambda x: (x - 3.0) ** 2
        g = affine_rescaled(f, [(2.0, 4.0)])
        coeffs = cheb_project(g, [2])
        np.testing.assert_allclose(coeffs.data, [0.5, 0.0, 0.5], atol=1e-12)

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            affine_rescaled(lambda x: x, [(1.0, 1.0)])


def _pointwise(P, grid):
    out = np.empty(grid.shape)
    for idx in itertools.product(*(range(n) for n in grid.shape)):
        out[idx] = P(*grid.point([i + 1 for i in idx]))
    return out


@st.composite
def _series_and_points(draw):
    d = draw(st.integers(1, 4))
    shape = tuple(draw(st.integers(1, 5)) for _ in range(d))
    size = math.prod(shape)
    C = np.array(draw(st.lists(st.floats(-1, 1), min_size=size, max_size=size)))
    npts = draw(st.integers(1, 12))
    pts = draw(st.lists(st.floats(-1, 1), min_size=npts * d, max_size=npts * d))
    return C.reshape(shape), np.array(pts).reshape(npts, d)


class TestWholeGridPaths:
    """The vectorized paths against per-point and independent references."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_poly_grid_matches_pointwise_calls(self, data):
        d = data.draw(st.integers(1, 4), label="arity")
        mesh = st.lists(st.floats(-2, 2), min_size=1, max_size=4, unique=True).map(sorted)
        grid = CartesianGrid([Mesh(data.draw(mesh)) for _ in range(d)])
        absent = data.draw(st.none() | st.integers(0, d - 1), label="variable in no term")
        exps = st.tuples(*(st.just(0) if mu == absent else st.integers(0, 5)
                           for mu in range(d)))
        terms = data.draw(st.lists(st.tuples(st.floats(-10, 10), exps),
                                   min_size=1, max_size=5))
        if data.draw(st.booleans(), label="zero polynomial"):
            terms += [(-c, e) for c, e in terms]
        P = MonomialPoly(terms)
        out = discretize(P, grid).data
        # bit for bit, signed zeros included
        assert out.tobytes() == _pointwise(P, grid).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(_series_and_points())
    @example((np.array([2.5]), np.array([[0.3]])))
    @example((np.arange(6.0).reshape(2, 1, 3), np.array([[0.1, -0.7, 0.9]])))
    def test_cheb_reconstruct_matches_independent_evaluation(self, case):
        C, pts = case
        cols = list(pts.T)
        if C.ndim == 1:
            expected = npcheb.chebval(cols[0], C)
        elif C.ndim == 2:
            expected = npcheb.chebval2d(*cols, C)
        elif C.ndim == 3:
            expected = npcheb.chebval3d(*cols, C)
        else:
            T = [np.cos(np.outer(np.arccos(x), np.arange(n))) for x, n in zip(cols, C.shape)]
            expected = np.einsum("pa,pb,pc,pe,abce->p", *T, C)
        tol = 1e-13 * np.abs(C).sum()
        np.testing.assert_allclose(cheb_reconstruct(C, pts), expected, rtol=0, atol=tol)
        single = cheb_reconstruct(C, pts[0])
        assert isinstance(single, float)
        assert single == pytest.approx(expected[0], rel=0, abs=tol)

    def test_cheb_reconstruct_memory_bounded(self, rng):
        # contracting all 2000 points at once would hold 2000 * 11**4 values
        C = rng.standard_normal((11,) * 5)
        pts = rng.uniform(-1, 1, (2000, 5))
        tracemalloc.start()
        try:
            cheb_reconstruct(C, pts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * C.nbytes
