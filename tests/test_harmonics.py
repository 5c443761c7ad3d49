"""Random-field layer: basis, samplers, jets, covariance-path simulation.

Quadrature oracles use Gauss-Legendre x uniform-longitude product rules,
which are exact for the polynomial integrands appearing here; sampler laws
are checked against closed-form moments and exact CDFs; derivatives are
checked against value-only finite differences, the analytic Hessian also
against a 4th-order difference stencil on the gradient, and both against
the eigenfunction identity (the surface Laplacian equals -ell(ell+1)
times the field).
"""

import math
import re

import numpy as np
import pytest
from scipy import special, stats

from sphex.harmonics import (
    CoefficientVector,
    FieldSample,
    GramSimulator,
    NonGaussianModel,
    coefficients_csv_text,
    evaluate,
    evaluate_grid,
    read_coefficients_csv,
    sample_gaussian,
    sample_nongaussian,
    sample_radius,
    sample_unit_coefficients,
    stream,
)
from sphex.harmonics import (
    _angles_of,
    _basis_matrix,
    _frame_jet2,
    _jet_rows,
    _legendre_rows,
    _longitude_waves,
    _ring_jet_tables,
    _ring_rows,
    _ring_scan,
    _ring_values,
)
from sphex.specfun import HarmonicLevel, gegenbauer
from sphex.sphere_geom import _unit_vectors, icosphere, iso_latitude_grid


def gl_product(n_theta: int, n_phi: int):
    """Gauss-Legendre x uniform-phi cubature, exact for band-limited data.

    Returns (points (N,3), weights (N,)) normalized so the weights sum to
    one (quadrature against the normalized surface measure).
    """
    x, w = np.polynomial.legendre.leggauss(n_theta)
    theta = np.arccos(x)
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    st = np.sin(theta)
    pts = np.empty((n_theta * n_phi, 3))
    pts[:, 0] = np.outer(st, np.cos(phi)).ravel()
    pts[:, 1] = np.outer(st, np.sin(phi)).ravel()
    pts[:, 2] = np.repeat(x, n_phi)
    weights = np.repeat(w / 2.0, n_phi) / n_phi
    return pts, weights


def at(theta: float, phi: float) -> np.ndarray:
    """The point of S^2 at colatitude theta and longitude phi, as (1, 3)."""
    st = math.sin(theta)
    return np.array([[st * math.cos(phi), st * math.sin(phi), math.cos(theta)]])


def unit_coeffs(level: HarmonicLevel, slot: int) -> CoefficientVector:
    alpha = np.zeros(level.n)
    alpha[slot - 1] = 1.0
    return CoefficientVector(level, alpha)


class TestStream:
    def test_reproducible(self):
        a = stream(7, 3, "x").standard_normal(8)
        b = stream(7, 3, "x").standard_normal(8)
        assert np.array_equal(a, b)

    def test_replicates_differ(self):
        a = stream(7, 0, "x").standard_normal(8)
        b = stream(7, 1, "x").standard_normal(8)
        assert not np.array_equal(a, b)

    def test_purposes_differ(self):
        a = stream(7, 0, "alpha").standard_normal(8)
        b = stream(7, 0, "beta").standard_normal(8)
        assert not np.array_equal(a, b)

    def test_seeds_differ(self):
        a = stream(1, 0, "x").standard_normal(8)
        b = stream(2, 0, "x").standard_normal(8)
        assert not np.array_equal(a, b)


class TestCoefficientVector:
    def test_renormalizes_small_drift(self):
        lv = HarmonicLevel(1, 2)
        a = np.array([1.0 + 1e-9, 0.0, 0.0])
        cv = CoefficientVector(lv, a)
        assert np.linalg.norm(cv.alpha) == pytest.approx(1.0, abs=1e-15)

    def test_rejects_bad_norm(self):
        lv = HarmonicLevel(1, 2)
        with pytest.raises(ValueError):
            CoefficientVector(lv, np.array([2.0, 0.0, 0.0]))

    def test_rejects_bad_shape(self):
        lv = HarmonicLevel(2, 2)
        with pytest.raises(ValueError):
            CoefficientVector(lv, np.array([1.0, 0.0, 0.0]))

    def test_rejects_bad_radius(self):
        lv = HarmonicLevel(1, 2)
        with pytest.raises(ValueError):
            CoefficientVector(lv, np.array([1.0, 0.0, 0.0]), radius=0.0)

    def test_scaled_and_power(self):
        cv = unit_coeffs(HarmonicLevel(2, 2), 1)
        cv2 = cv.scaled(3.0)
        assert cv2.radius == 3.0
        assert cv2.sample_power == 9.0


class TestYlm:
    def test_constant_level(self):
        lv = HarmonicLevel(0, 2)
        for theta, phi in ((0.3, 1.0), (2.0, -2.5)):
            got = evaluate(unit_coeffs(lv, 1), at(theta, phi))[0]
            assert got == pytest.approx(1.0, abs=1e-14)

    def test_addition_theorem(self):
        rng = np.random.default_rng(11)
        for ell in (1, 4, 13, 32):
            lv = HarmonicLevel(ell, 2)
            z = rng.standard_normal((100, 3))
            z /= np.linalg.norm(z, axis=1, keepdims=True)
            basis_sq = np.zeros(100)
            for m in range(1, 2 * ell + 2):
                cv = unit_coeffs(lv, m)
                basis_sq += np.asarray(evaluate(cv, z)) ** 2
            assert np.allclose(basis_sq, 2 * ell + 1, rtol=1e-10)

    def test_orthonormal_gram(self):
        for ell in (1, 4, 10):
            lv = HarmonicLevel(ell, 2)
            pts, w = gl_product(2 * ell + 2, 2 * ell + 2)
            table = np.array([
                np.asarray(evaluate(unit_coeffs(lv, m), pts))
                for m in range(1, 2 * ell + 2)
            ])
            gram = (table * w) @ table.T
            assert np.max(np.abs(gram - np.eye(2 * ell + 1))) < 1e-8

    def test_cross_level_orthogonality(self):
        pts, w = gl_product(14, 14)
        a = np.asarray(evaluate(unit_coeffs(HarmonicLevel(3, 2), 2), pts))
        b = np.asarray(evaluate(unit_coeffs(HarmonicLevel(5, 2), 2), pts))
        assert abs(float((a * b) @ w)) < 1e-10

    def test_d3_unsupported(self):
        with pytest.raises(ValueError):
            evaluate(unit_coeffs(HarmonicLevel(2, 3), 1), np.array([1.0, 0, 0, 0]))


class TestEvaluate:
    def test_zonal_at_pole(self):
        for ell in (1, 4, 9):
            for radius in (1.0, 2.5):
                lv = HarmonicLevel(ell, 2)
                cv = CoefficientVector(
                    lv, np.eye(lv.n)[0], radius=radius)
                got = evaluate(cv, at(0.0, 0.0))[0]
                assert got == pytest.approx(
                    radius * math.sqrt(2 * ell + 1), rel=1e-12)

    def test_constant_field(self):
        lv = HarmonicLevel(0, 2)
        cv = CoefficientVector(lv, np.array([1.0]), radius=1.7)
        for theta in (0.1, 1.2, 3.0):
            assert evaluate(cv, at(theta, 0.5))[0] == (
                pytest.approx(1.7, rel=1e-14))

    def test_parseval(self):
        rng = stream(3, 0, "parseval")
        for ell in (2, 8, 32):
            lv = HarmonicLevel(ell, 2)
            cv = sample_gaussian(lv, rng)
            pts, w = gl_product(ell + 1, 2 * ell + 1)
            vals = np.asarray(evaluate(cv, pts))
            norm = math.sqrt(float((vals * vals) @ w))
            assert norm == pytest.approx(cv.radius, abs=1e-6 * cv.radius)

    @pytest.mark.parametrize("shape", [(3,), (4, 2), (2, 4)])
    def test_refuses_points_not_n_by_3(self, shape):
        cv = unit_coeffs(HarmonicLevel(2, 2), 1)
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            evaluate(cv, np.ones(shape))

    def test_refuses_points_off_the_unit_sphere(self):
        cv = unit_coeffs(HarmonicLevel(2, 2), 1)
        pts = np.array([[0.0, 0.0, 1.0], [1.0, 1.0, 1.0]])
        with pytest.raises(ValueError, match=re.escape(repr(math.sqrt(3.0)))):
            evaluate(cv, pts)
        # rounding-level drift is accepted
        evaluate(cv, np.array([[0.0, 0.0, 1.0 + 1e-9]]))

    def test_grid_ring_path_matches_pointwise(self):
        rng = stream(4, 0, "ringpath")
        grid = iso_latitude_grid(700)
        for ell in (0, 3, 11):
            cv = sample_gaussian(HarmonicLevel(ell, 2), rng)
            fast = evaluate_grid(cv, grid)
            slow = np.asarray(evaluate(cv, grid.points))
            assert np.allclose(fast, slow, atol=1e-11 * cv.radius)

    @pytest.mark.parametrize("ell", [0, 1, 3, 24])
    def test_ring_values_equal_grid_evaluation(self, ell):
        # grid evaluation is the lattice product: tables built on a grid's
        # rings give its evaluate_grid values bit for bit
        cv = sample_gaussian(HarmonicLevel(ell, 2), stream(4, ell, "ringvalues"))
        grid = iso_latitude_grid(max(20 * ell * ell, 4))
        tables = _ring_jet_tables(ell, *grid.rings)
        assert np.array_equal(_ring_values(cv, tables), evaluate_grid(cv, grid))

    @pytest.mark.parametrize("n_phi", [101, 102])
    def test_ring_scan_at_odd_and_even_longitude_counts(self, n_phi):
        # the inverse-FFT scan at n_phi longitudes over a full turn, on the
        # rings of iso_latitude_grid(20 ell^2) at ell=16 (whose rings carry
        # 101), against per-point evaluation: an odd count has no Nyquist
        # bin, and every non-zonal order still takes n_phi / 2 as its weight
        ell = 16
        cv = sample_gaussian(HarmonicLevel(ell, 2), stream(4, n_phi, "ringscan"))
        thetas = iso_latitude_grid(20 * ell * ell).rings[0]
        phis = 2.0 * math.pi * np.arange(n_phi) / n_phi
        scan = _ring_scan(cv, _ring_rows(ell, thetas), n_phi)
        ref = evaluate(cv, _unit_vectors(np.repeat(thetas, n_phi),
                                         np.tile(phis, thetas.size)))
        assert np.abs(scan - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_grid_tables_reused_across_fields(self):
        # one grid serves fields of interleaved degrees, including the
        # constant and the degree-1 tables; every value must equal the
        # evaluation on a freshly built copy of the grid, bit for bit, and
        # a repeated degree must find its tables already on the grid
        rng = stream(4, 1, "ringreuse")
        shared = iso_latitude_grid(900)
        previous = None
        for ell in (3, 3, 0, 0, 11, 1, 1, 3, 24, 24, 11):
            cv = sample_gaussian(HarmonicLevel(ell, 2), rng)
            held = shared._ring_tables.get(ell)
            reused = evaluate_grid(cv, shared)
            fresh = evaluate_grid(cv, iso_latitude_grid(900))
            assert np.array_equal(reused, fresh)
            assert list(shared._ring_tables) == [ell]
            assert (held is not None) == (ell == previous)
            if held is not None:
                assert shared._ring_tables[ell] is held
            previous = ell


class TestSamplers:
    def test_unit_coefficients_moments(self):
        lv = HarmonicLevel(3, 2)  # n = 7
        rng = stream(10, 0, "unit")
        draws = np.array([sample_unit_coefficients(lv, rng).alpha
                          for _ in range(10_000)])
        assert np.allclose(np.linalg.norm(draws, axis=1), 1.0, atol=1e-12)
        n = lv.n
        # coordinate variance 1/n; Var(alpha_1^2) = 2(n-1)/(n^2 (n+2))
        se = math.sqrt(2 * (n - 1) / (n * n * (n + 2.0)) / draws.shape[0])
        assert np.all(np.abs(draws.var(axis=0) - 1.0 / n) < 4 * se)
        # sign symmetry: mean of each coordinate is 0 within 3 sigma
        mean_se = math.sqrt(1.0 / n / draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0)) < 3 * mean_se)

    def test_radius_mean(self):
        lv = HarmonicLevel(8, 2)  # n = 17
        rng = stream(11, 0, "radius")
        r2 = np.array([sample_radius(lv, rng) ** 2 for _ in range(100_000)])
        band = 4.0 * math.sqrt(2.0 / lv.n) / math.sqrt(len(r2))
        assert abs(float(r2.mean()) - 1.0) < band

    def test_radius_chi_square_ks(self):
        lv = HarmonicLevel(6, 2)  # n = 13
        rng = stream(12, 0, "radius.ks")
        r2 = np.array([sample_radius(lv, rng) ** 2 for _ in range(10_000)])
        ks = stats.kstest(lv.n * r2, stats.chi2(lv.n).cdf)
        assert ks.statistic < 0.01

    def test_radius_concentration_large_n(self):
        lv = HarmonicLevel(500_000, 2)  # n = 1_000_001
        rng = stream(13, 0, "radius.big")
        r = sample_radius(lv, rng)
        assert abs(r * r - 1.0) < 0.01

    def test_gaussian_coefficient_covariance(self):
        lv = HarmonicLevel(2, 2)  # n = 5
        rng = stream(14, 0, "gauss.cov")
        draws = np.array([
            (lambda c: c.radius * c.alpha)(sample_gaussian(lv, rng))
            for _ in range(10_000)
        ])
        n = lv.n
        cov = draws.T @ draws / draws.shape[0]
        se_diag = math.sqrt(2.0) / n / math.sqrt(draws.shape[0])
        se_off = 1.0 / n / math.sqrt(draws.shape[0])
        err = np.abs(cov - np.eye(n) / n)
        assert np.all(np.diag(err) < 4 * se_diag)
        off = err[~np.eye(n, dtype=bool)]
        assert np.all(off < 4 * se_off)

    def test_field_value_unit_variance(self):
        lv = HarmonicLevel(4, 2)
        rng = stream(15, 0, "gauss.value")
        p = at(1.1, 0.4)
        vals = np.array([
            evaluate(sample_gaussian(lv, rng), p)[0] for _ in range(10_000)
        ])
        se = math.sqrt(2.0 / len(vals))
        assert abs(float(vals.var()) - 1.0) < 4 * se

    def test_rotation_invariance(self):
        # mean and variance of the field value do not depend on the point
        lv = HarmonicLevel(3, 2)
        rng = stream(16, 0, "rotinv")
        pts = np.vstack([at(t, p) for t, p in ((0.2, 0.0), (0.9, 2.0), (1.5, -1.0),
                                                (2.4, 0.7), (3.0, 1.9))])
        draws = np.array([
            np.asarray(evaluate(sample_gaussian(lv, rng), pts))
            for _ in range(10_000)
        ])
        n_draws = draws.shape[0]
        assert np.all(np.abs(draws.mean(axis=0)) < 3.0 / math.sqrt(n_draws))
        assert np.all(np.abs(draws.var(axis=0) - 1.0)
                      < 3.0 * math.sqrt(2.0 / n_draws))


def fd_hessian(cv, t0: float, p0: float) -> np.ndarray:
    """Covariant frame Hessian by 4th-order differencing of the gradient.

    The finite-difference route, kept only as an oracle for the analytic
    jet.  The step is 1e-4 * pi / ell, so the theta stencil stays on one
    side of the pole for colatitudes above 2e-4 * pi / ell; close to a pole
    its accuracy drops to about 1e-6 of the Hessian scale.
    """
    h = 1e-4 * math.pi / max(cv.level.ell, 1)
    offs = np.array([-2.0, -1.0, 1.0, 2.0]) * h
    th = np.concatenate([t0 + offs, np.full(4, t0), [t0]])
    ph = np.concatenate([np.full(4, p0), p0 + offs, [p0]])
    g = np.column_stack(_frame_jet2(cv, th, ph)[1:3])
    w = np.array([1.0, -8.0, 8.0, -1.0]) / (12.0 * h)
    d_theta = w @ g[0:4]      # d/dtheta of (g_t, g_p)
    d_phi = w @ g[4:8]        # d/dphi of (g_t, g_p)
    g_t, g_p = g[8]
    sin_t = math.sin(t0)
    cot_t = math.cos(t0) / sin_t
    h_tp = 0.5 * (d_theta[1] + d_phi[0] / sin_t - cot_t * g_p)
    h_pp = d_phi[1] / sin_t + cot_t * g_t
    return np.array([[d_theta[0], h_tp], [h_tp, h_pp]])


def jet_at(cv, t0: float, p0: float) -> tuple[np.ndarray, np.ndarray]:
    """Frame gradient and covariant frame Hessian at one point, by ``_frame_jet2``."""
    _, g_t, g_p, h_tt, h_tp, h_pp = (
        q[0] for q in _frame_jet2(cv, np.array([t0]), np.array([p0])))
    return np.array([g_t, g_p]), np.array([[h_tt, h_tp], [h_tp, h_pp]])


def legendre_rows_degree_major(ell: int, x: np.ndarray, depth: int) -> list:
    """The degree-major (N, ell+1) recurrence, kept as an oracle.

    ``harmonics._legendre_rows`` must reproduce each of its rows bit for
    bit, at the row's degree.
    """
    x = np.asarray(x, dtype=float)
    n_pts = x.shape[0]
    sx = np.sqrt(np.maximum(0.0, 1.0 - x * x))
    prev = np.zeros((n_pts, ell + 1))
    prev[:, 0] = 1.0
    if ell == 0:
        return [prev] + [np.zeros((n_pts, 1)) for _ in range(depth - 1)]
    cur = np.zeros((n_pts, ell + 1))
    cur[:, 0] = math.sqrt(3.0) * x
    cur[:, 1] = math.sqrt(1.5) * sx
    prev2 = np.zeros((n_pts, ell + 1))
    for n in range(2, ell + 1):
        nn = float(n)
        m = np.arange(0, n - 1, dtype=float)
        a = np.sqrt((4.0 * nn * nn - 1.0) / (nn * nn - m * m))
        b = np.sqrt(
            ((2.0 * nn + 1.0) * ((nn - 1.0) ** 2 - m * m))
            / ((2.0 * nn - 3.0) * (nn * nn - m * m))
        )
        nxt = prev2
        nxt[:, : n - 1] = a * (x[:, None] * cur[:, : n - 1]) - b * prev[:, : n - 1]
        nxt[:, n - 1] = math.sqrt(2.0 * nn + 1.0) * x * cur[:, n - 1]
        nxt[:, n] = math.sqrt((2.0 * nn + 1.0) / (2.0 * nn)) * sx * cur[:, n - 1]
        if n > 2:
            nxt[:, n + 1 :] = 0.0
        prev2, prev, cur = prev, cur, nxt
    return [cur, prev, prev2][:depth]


class TestLegendreKernel:
    @pytest.mark.parametrize("ell", [0, 1, 2, 3, 8, 24, 64, 256])
    @pytest.mark.parametrize("n_pts", [1, 5, 2049])
    @pytest.mark.parametrize("depth", [1, 3])
    def test_bit_identical_to_degree_major(self, ell, n_pts, depth):
        # row k of the oracle at degree ell is the degree ell - k recurrence
        rng = np.random.default_rng(1000 * ell + n_pts)
        x = rng.uniform(-1.0, 1.0, n_pts)
        x[: min(n_pts, 3)] = (1.0, -1.0, 0.0)[: min(n_pts, 3)]
        want = legendre_rows_degree_major(ell, x, depth)
        for k in range(min(depth, ell + 1)):
            got = _legendre_rows(ell - k, x)
            assert got.shape == (n_pts, ell - k + 1)
            assert got.flags.c_contiguous
            assert np.array_equal(got, want[k][:, : ell - k + 1])

    def test_jet_does_not_depend_on_blocks(self):
        # 5000 points span three blocks; each point's jet must not depend
        # on the block it lands in or on its neighbours
        cv = sample_gaussian(HarmonicLevel(9, 2), stream(20, 2, "blocks"))
        rng = np.random.default_rng(22)
        theta = np.arccos(rng.uniform(-1.0, 1.0, 5000))
        phi = rng.uniform(-math.pi, math.pi, 5000)
        whole = _frame_jet2(cv, theta, phi)
        backwards = _frame_jet2(cv, theta[::-1], phi[::-1])
        for w, b in zip(whole, backwards):
            assert w.shape == (5000,)
            assert np.array_equal(w, b[::-1])
        for i in (2047, 2048, 4999):
            single = _frame_jet2(cv, theta[i : i + 1], phi[i : i + 1])
            for w, one in zip(whole, single):
                assert np.array_equal(w[i : i + 1], one)


class TestJetRows:
    # colatitudes near both chart poles, where sqrt(1 - x^2) and a division
    # by sin theta would lose digits, plus generic ones
    PROBE = np.concatenate([
        [1e-3, 0.05, 0.3, 0.4, 1.0, math.pi / 2, 2.2, 3.1, math.pi - 1e-3],
        np.random.default_rng(28).uniform(0.0, math.pi, 200),
    ])

    def test_degree_one_closed_forms(self):
        # P_bar_{1,0} = sqrt(3) cos t and P_bar_{1,1} = sqrt(3/2) sin t; the
        # rows hold to a few ulps at every colatitude (the derivative
        # recurrence with its 1/sin t was off by 2.3e-11 at t = 1e-3)
        theta = np.array([1e-3, 0.3, math.pi / 2, math.pi - 1e-3])
        c, s = math.sqrt(3.0) * np.cos(theta), math.sqrt(1.5) * np.sin(theta)
        want = ([c, s], [-math.sqrt(3.0) * np.sin(theta), math.sqrt(1.5) * np.cos(theta)],
                [-c, -s])
        for got, w in zip(_jet_rows(1, theta, depth=3), want):
            assert np.max(np.abs(got - np.column_stack(w))) <= 1e-15

    @pytest.mark.parametrize("ell", [1, 2, 24, 256])
    def test_addition_theorem_derivative(self, ell):
        # sum_m (2 - delta_m0) P_bar_m^2 = 2 ell + 1 at every theta, so the
        # theta-derivative sum_m (2 - delta_m0) P_bar_m dP_bar_m vanishes;
        # measured at most 2.6 ell eps relative to ell (2 ell + 1), against
        # 24-500 ell eps for the derivative recurrence
        p, d = _jet_rows(ell, self.PROBE, depth=2)
        w = np.full(ell + 1, 2.0)
        w[0] = 1.0
        residual = np.abs((p * d) @ w) / (ell * (2 * ell + 1))
        assert residual.max() <= 10 * ell * np.finfo(float).eps


def basis_matrix_per_point(ell: int, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """The basis with Legendre rows and longitude tables at every point."""
    p_l = _jet_rows(ell, theta, depth=1)[0]
    basis = np.empty((theta.shape[0], 2 * ell + 1))
    basis[:, 0] = p_l[:, 0]
    if ell > 0:
        ang = phi[:, None] * np.arange(1, ell + 1)[None, :]
        basis[:, 1::2] = math.sqrt(2.0) * p_l[:, 1:] * np.cos(ang)
        basis[:, 2::2] = math.sqrt(2.0) * p_l[:, 1:] * np.sin(ang)
    return basis


class TestBasisMatrix:
    @pytest.mark.parametrize("points", ["icosphere", "rings", "random"])
    @pytest.mark.parametrize("ell", [0, 1, 7, 64])
    def test_bit_identical_to_per_point(self, points, ell):
        # rows are computed per distinct colatitude and tables per distinct
        # longitude; the gathered matrix must be the per-point one exactly
        if points == "icosphere":
            pts = icosphere(4).vertices
        elif points == "rings":
            pts = iso_latitude_grid(3000).points
        else:
            pts = np.random.default_rng(ell).standard_normal((2000, 3))
            pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        theta, phi = _angles_of(pts)
        assert np.array_equal(_basis_matrix(ell, theta, phi),
                              basis_matrix_per_point(ell, theta, phi))


class TestLongitudeWaves:
    @pytest.mark.parametrize("ell", [1, 2, 24, 256])
    def test_matches_libm_lattice(self, ell):
        # exp(i m phi) by angle addition against libm's cos and sin of
        # m phi: the error grows with the order m (and with |phi|, through
        # the rounding of m phi in the reference)
        rng = np.random.default_rng(ell)
        phi = np.concatenate([
            rng.uniform(-2 * math.pi, 4 * math.pi, 2000),
            [0.0, math.pi / 2, math.pi, -math.pi, 2 * math.pi],
        ])
        m = np.arange(1, ell + 1, dtype=float)
        waves = _longitude_waves(phi, ell)
        assert waves.shape == (phi.size, ell)
        ang = phi[:, None] * m
        err = np.maximum(np.abs(waves.real - np.cos(ang)),
                         np.abs(waves.imag - np.sin(ang)))
        eps = np.finfo(float).eps
        assert np.all(err <= eps * m * (1.0 + np.abs(phi)[:, None]))


class TestJets:
    def test_gradient_vs_value_fd(self):
        lv = HarmonicLevel(8, 2)
        cv = sample_gaussian(lv, stream(20, 0, "jets"))
        rng = np.random.default_rng(21)
        theta = rng.uniform(0.25, math.pi - 0.25, size=100)
        phi = rng.uniform(-math.pi, math.pi, size=100)
        h = 1e-5
        tol = 1e-6 * lv.ell * cv.radius

        def f(t, p):
            return evaluate(cv, at(t, p))[0]

        _, g_t, g_p, *_ = _frame_jet2(cv, theta, phi)
        for i, (t, p) in enumerate(zip(theta, phi)):
            # 4th-order central differences in each angle
            w = np.array([1.0, -8.0, 8.0, -1.0]) / (12 * h)
            offs = np.array([-2 * h, -h, h, 2 * h])
            f_t = float(w @ [f(t + o, p) for o in offs])
            f_p = float(w @ [f(t, p + o) for o in offs])
            assert g_t[i] == pytest.approx(f_t, abs=tol)
            assert g_p[i] == pytest.approx(f_p / math.sin(t), abs=tol)

    def test_hessian_vs_value_fd(self):
        # covariant Hessian from values only, as an independent route
        lv = HarmonicLevel(6, 2)
        cv = sample_gaussian(lv, stream(22, 0, "hess"))
        h = 1e-3

        def f(t, p):
            return evaluate(cv, at(t, p))[0]

        for t0, p0 in ((0.8, 0.3), (1.4, -2.0), (2.2, 1.1)):
            _, hess = jet_at(cv, t0, p0)
            f_tt = (f(t0 + h, p0) - 2 * f(t0, p0) + f(t0 - h, p0)) / h**2
            f_pp = (f(t0, p0 + h) - 2 * f(t0, p0) + f(t0, p0 - h)) / h**2
            f_tp = (f(t0 + h, p0 + h) - f(t0 + h, p0 - h)
                    - f(t0 - h, p0 + h) + f(t0 - h, p0 - h)) / (4 * h * h)
            f_t = (f(t0 + h, p0) - f(t0 - h, p0)) / (2 * h)
            f_p = (f(t0, p0 + h) - f(t0, p0 - h)) / (2 * h)
            st, ct = math.sin(t0), math.cos(t0)
            oracle_tt = f_tt
            oracle_tp = (f_tp - (ct / st) * f_p) / st
            oracle_pp = f_pp / st**2 + (ct / st) * f_t
            scale = max(1.0, abs(oracle_tt), abs(oracle_pp))
            assert hess[0, 0] == pytest.approx(oracle_tt, abs=2e-3 * scale)
            assert hess[0, 1] == pytest.approx(oracle_tp, abs=2e-3 * scale)
            assert hess[1, 1] == pytest.approx(oracle_pp, abs=2e-3 * scale)
            assert hess[0, 1] == hess[1, 0]

    def test_laplacian_eigenvalue_identity(self):
        # trace of the covariant Hessian must equal -ell(ell+1) f
        for ell in (2, 5, 9):
            lv = HarmonicLevel(ell, 2)
            cv = sample_gaussian(lv, stream(23, ell, "lap"))
            lam = ell * (ell + 1)
            for t0, p0 in ((0.7, 0.0), (1.3, 2.2), (2.5, -0.8)):
                _, hess = jet_at(cv, t0, p0)
                val = evaluate(cv, at(t0, p0))[0]
                assert float(np.trace(hess)) == pytest.approx(
                    -lam * val, abs=1e-3 * lam * cv.radius)

    def test_hessian_vs_gradient_fd(self):
        for ell in (1, 3, 8, 17):
            lv = HarmonicLevel(ell, 2)
            cv = sample_gaussian(lv, stream(25, ell, "hess-fd"))
            rng = np.random.default_rng(ell)
            theta = rng.uniform(0.05, math.pi - 0.05, size=20)
            phi = rng.uniform(-math.pi, math.pi, size=20)
            scale = ell * (ell + 1) * cv.radius
            for t0, p0 in zip(theta, phi):
                _, hess = jet_at(cv, t0, p0)
                np.testing.assert_allclose(
                    hess, fd_hessian(cv, t0, p0), rtol=0, atol=1e-9 * scale)

    def test_hessian_near_poles(self):
        # the analytic jet stays accurate right up to the polar band, where
        # the difference stencil itself is the weaker route; the Laplacian
        # identity holds there to near rounding
        for ell in (5, 12, 24):
            lv = HarmonicLevel(ell, 2)
            cv = sample_gaussian(lv, stream(26, ell, "hess-pole"))
            lam = ell * (ell + 1)
            scale = lam * cv.radius
            for t0 in (2e-4, 1e-3, math.pi - 1e-3):
                for p0 in (0.0, 1.1, -2.5):
                    _, hess = jet_at(cv, t0, p0)
                    np.testing.assert_allclose(
                        hess, fd_hessian(cv, t0, p0), rtol=0, atol=1e-5 * scale)
                    assert float(np.trace(hess)) == pytest.approx(
                        -lam * evaluate(cv, at(t0, p0))[0],
                        abs=1e-7 * scale)

    def test_constant_field_jets(self):
        lv = HarmonicLevel(0, 2)
        cv = CoefficientVector(lv, np.array([1.0]), radius=2.0)
        grad, hess = jet_at(cv, 1.0, 0.5)
        assert np.allclose(grad, 0.0, atol=1e-12)
        assert np.allclose(hess, 0.0, atol=1e-9)


def basis_covariance(level: HarmonicLevel, x, y) -> float:
    """E[T(x) T(y)] from the explicit basis.

    Gaussian coefficients have covariance I/n, so the ensemble covariance
    is the mean over the slots of Y_m(x) Y_m(y).
    """
    pts = np.vstack([x, y])
    vals = np.array([evaluate(unit_coeffs(level, m), pts)
                     for m in range(1, level.n + 1)])
    return float(np.mean(vals[:, 0] * vals[:, 1]))


class TestCovariance:
    # the covariance function of the ensemble is gegenbauer(ell, d, <x, y>)
    def test_diagonal_is_one(self):
        lv = HarmonicLevel(7, 2)
        p = at(0.8, 0.1)[0]
        assert gegenbauer(lv.ell, lv.dim, p @ p) == pytest.approx(1.0, abs=1e-12)
        assert basis_covariance(lv, p, p) == pytest.approx(1.0, abs=1e-12)

    def test_equals_legendre_d2(self):
        lv = HarmonicLevel(5, 2)
        x = at(0.0, 0.0)[0]
        for theta in (0.2, 1.0, 2.8):
            y = at(theta, 0.0)[0]
            coef = np.zeros(6)
            coef[5] = 1.0
            expected = np.polynomial.legendre.legval(math.cos(theta), coef)
            assert gegenbauer(lv.ell, lv.dim, x @ y) == pytest.approx(
                expected, abs=1e-12)
            assert basis_covariance(lv, x, y) == pytest.approx(expected, abs=1e-12)

    def test_equals_gegenbauer_general_d(self):
        lv = HarmonicLevel(4, 5)
        x = np.eye(6)[0]
        y = (np.eye(6)[0] + np.eye(6)[1]) / math.sqrt(2)
        lam = (lv.dim - 1) / 2.0
        expected = (special.eval_gegenbauer(lv.ell, lam, 1 / math.sqrt(2))
                    / special.eval_gegenbauer(lv.ell, lam, 1.0))
        assert gegenbauer(lv.ell, lv.dim, x @ y) == pytest.approx(expected, abs=1e-14)

    def test_monte_carlo_two_points(self):
        lv = HarmonicLevel(4, 2)
        x = at(0.9, 0.0)[0]
        y = at(1.7, 1.2)[0]
        sim = GramSimulator(lv, np.vstack([x, y]))
        rng = stream(30, 0, "cov.mc")
        draws = np.array([sim.sample(sample_gaussian(lv, rng)).values
                          for _ in range(10_000)])
        target = gegenbauer(lv.ell, lv.dim, x @ y)
        est = float(np.mean(draws[:, 0] * draws[:, 1]))
        se = math.sqrt((1.0 + target**2) / draws.shape[0])
        assert abs(est - target) < 4 * se


class TestSimulateField:
    def test_single_point_standard_normal(self):
        lv = HarmonicLevel(5, 3)
        pt = np.eye(4)[0]
        sim = GramSimulator(lv, pt[None, :])
        rng = stream(31, 0, "marginal")
        vals = np.array([sim.sample(sample_gaussian(lv, rng)).values[0]
                         for _ in range(10_000)])
        ks = stats.kstest(vals, stats.norm.cdf)
        assert ks.statistic < 0.02

    def test_refuses_a_single_vector(self):
        # one point is a (1, d+1) array; a bare vector is not read as one
        with pytest.raises(ValueError, match=re.escape("got shape (4,)")):
            GramSimulator(HarmonicLevel(5, 3), np.eye(4)[0])

    def test_refuses_points_off_the_sphere(self):
        pts = np.vstack([np.eye(4)[:2], np.ones(4), np.eye(4)[2:]])
        with pytest.raises(ValueError, match=re.escape("point of norm 2.0")):
            GramSimulator(HarmonicLevel(5, 3), pts)
        # rounding-level drift is accepted
        GramSimulator(HarmonicLevel(5, 3), np.eye(4) * (1.0 + 1e-9))

    def test_refuses_coefficients_of_another_level(self):
        sim = GramSimulator(HarmonicLevel(2, 3), np.eye(4))
        with pytest.raises(ValueError, match="for a simulator of"):
            sim.sample(sample_gaussian(HarmonicLevel(4, 2), stream(34, 0, "lv")))

    def test_antipodal_odd_ell_anticorrelated(self):
        lv = HarmonicLevel(7, 2)
        x = at(1.0, 0.5)[0]
        sim = GramSimulator(lv, np.vstack([x, -x]))
        s = sim.sample(sample_gaussian(lv, stream(32, 0, "anti")))
        assert s.values[1] == pytest.approx(-s.values[0], abs=1e-5)

    def test_reproducible(self):
        lv = HarmonicLevel(3, 2)
        pts = iso_latitude_grid(30).points
        cv = sample_gaussian(lv, stream(33, 5, "repro"))
        a = GramSimulator(lv, pts).sample(cv)
        b = GramSimulator(lv, pts).sample(cv)
        assert np.array_equal(a.values, b.values)

    def test_sample_weights_come_from_the_grid_or_are_uniform(self):
        lv = HarmonicLevel(2, 2)
        grid = iso_latitude_grid(30)
        cv = sample_gaussian(lv, stream(36, 0, "w"))
        assert GramSimulator(lv, grid).sample(cv).weights is grid.weights
        s = GramSimulator(lv, grid.points).sample(cv)
        assert np.array_equal(s.weights, np.full(len(grid), 1 / len(grid)))

    def test_explicit_sample_kind(self):
        cv = sample_gaussian(HarmonicLevel(3, 2), stream(35, 0, "exp"))
        grid = iso_latitude_grid(50)
        vals, w = FieldSample.explicit(cv, grid)
        assert vals.shape == (len(grid),)
        assert np.array_equal(w, grid.weights)


class TestNonGaussian:
    def test_parse_forms(self):
        m = NonGaussianModel.parse("gaussian")
        assert m.family == "scale_mixture" and m.atoms == (1.0,)
        m = NonGaussianModel.parse("mixture:0.5,1.5")
        assert m.atoms == (0.5, 1.5) and m.probs == (0.5, 0.5)
        m = NonGaussianModel.parse("mixture:0.5@0.25,1.5@0.75")
        assert m.probs == (0.25, 0.75)
        m = NonGaussianModel.parse("student:8")
        assert m.family == "heavy_tail" and m.dof == 8.0

    def test_parse_errors(self):
        for bad in ("nonsense", "mixture:-1,2", "student:2", "frob:1",
                    "mixture:0.5@0.2,1.5@0.2"):
            with pytest.raises(ValueError):
                NonGaussianModel.parse(bad)

    def test_identity_mixture_reduces_to_gaussian(self):
        lv = HarmonicLevel(4, 2)
        model = NonGaussianModel.parse("gaussian")
        c1, power = sample_nongaussian(model, lv, stream(40, 2, "ng"))
        c2 = sample_gaussian(lv, stream(40, 2, "ng"))
        assert np.array_equal(c1.alpha, c2.alpha)
        assert c1.radius == c2.radius
        assert power == c2.radius**2

    def test_mixture_mean_power(self):
        lv = HarmonicLevel(2, 2)
        model = NonGaussianModel.parse("mixture:0.5,1.5")
        rng = stream(41, 0, "ng.power")
        powers = np.array([
            sample_nongaussian(model, lv, rng)[1] for _ in range(10_000)
        ])
        # E[xi^2] = 1.25, Var = E[xi^4] E[R^4] - 1.25^2 with E[R^4] = 1 + 2/n
        var = 2.5625 * (1.0 + 2.0 / lv.n) - 1.25**2
        se = math.sqrt(var / len(powers))
        assert abs(float(powers.mean()) - 1.25) < 4 * se

    def test_normalized_vector_unit(self):
        lv = HarmonicLevel(3, 2)
        rng = stream(42, 0, "ng.norm")
        for spec_text in ("mixture:0.5,1.5", "student:6"):
            model = NonGaussianModel.parse(spec_text)
            for _ in range(50):
                coeffs, power = sample_nongaussian(model, lv, rng)
                assert np.linalg.norm(coeffs.alpha) == pytest.approx(
                    1.0, abs=1e-12)
                assert power == pytest.approx(coeffs.radius**2, rel=1e-12)

    def test_student_mean_power(self):
        lv = HarmonicLevel(4, 2)
        model = NonGaussianModel.parse("student:8")
        rng = stream(43, 0, "ng.student")
        powers = np.array([
            sample_nongaussian(model, lv, rng)[1] for _ in range(20_000)
        ])
        assert float(powers.mean()) == pytest.approx(1.0, abs=0.02)


def write_text(tmp_path, text: str) -> str:
    path = tmp_path / "coeffs.csv"
    path.write_text(text)
    return str(path)


class TestCoefficientsCsv:
    def test_round_trip_exact(self, tmp_path):
        cv = sample_gaussian(HarmonicLevel(6, 2), stream(50, 0, "csv"))
        back = read_coefficients_csv(write_text(tmp_path, coefficients_csv_text(cv)))
        assert back.level == cv.level
        assert back.radius == cv.radius
        assert np.array_equal(back.alpha, cv.alpha)

    def test_text_form(self, tmp_path):
        cv = unit_coeffs(HarmonicLevel(1, 2), 2)
        text = coefficients_csv_text(cv)
        assert text.splitlines()[0] == "ell,d,radius,m,alpha"
        assert read_coefficients_csv(write_text(tmp_path, text)).level.ell == 1

    def test_missing_slot_rejected(self, tmp_path):
        text = "ell,d,radius,m,alpha\n2,2,1,1,1.0\n"
        with pytest.raises(ValueError):
            read_coefficients_csv(write_text(tmp_path, text))

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            read_coefficients_csv(write_text(tmp_path, "ell,d,radius,m,alpha\n"))

    def test_bad_slot_rejected(self, tmp_path):
        text = "ell,d,radius,m,alpha\n0,2,1,7,1.0\n"
        with pytest.raises(ValueError):
            read_coefficients_csv(write_text(tmp_path, text))
