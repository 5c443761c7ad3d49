"""Special-function layer: exact combinatorics, recurrences, asymptotics.

Oracles used here are independent of the implementation routes: big-integer
binomial identities for dimensions, numpy/scipy classical polynomials and
Bessel functions, closed-form Gaussian integrals for the critical-value
tails, and finite differences for derivative ladders.
"""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import special as sps

from sphex.harmonics import GeometryError, GramSimulator
from sphex.specfun import (
    _KERNEL_BLOCK,
    CriticalKind,
    HarmonicLevel,
    bessel_j,
    cdf_derivative,
    critical_density,
    critical_tail,
    eigenspace_dim,
    gaussian,
    gegenbauer,
    gegenbauer_hilb,
)
from sphex.sphere_geom import quasi_uniform_grid


def dim_oracle(ell: int, d: int) -> int:
    """Independent route: harmonic polynomials = homogeneous minus divergence.

    In ambient dimension D = d + 1 the degree-ell harmonic polynomials
    number C(ell+D-1, ell) - C(ell+D-3, ell-2).
    """
    D = d + 1
    first = math.comb(ell + D - 1, ell)
    second = math.comb(ell + D - 3, ell - 2) if ell >= 2 else 0
    return first - second


class TestEigenspaceDim:
    def test_examples(self):
        assert eigenspace_dim(3, 2) == 7
        assert eigenspace_dim(0, 5) == 1
        assert eigenspace_dim(2, 3) == 9

    def test_d2_closed_form(self):
        for ell in range(0, 200):
            assert eigenspace_dim(ell, 2) == (2 * ell + 1 if ell else 1)

    def test_d3_closed_form(self):
        for ell in range(0, 60):
            assert eigenspace_dim(ell, 3) == (ell + 1) ** 2

    def test_binomial_identity_oracle(self):
        for d in range(2, 17):
            for ell in range(0, 65):
                assert eigenspace_dim(ell, d) == dim_oracle(ell, d)

    def test_integer_type(self):
        v = eigenspace_dim(40, 7)
        assert isinstance(v, int) and not isinstance(v, bool)

    def test_large_ell_ratio(self):
        for d in (2, 3, 4):
            n = eigenspace_dim(256, d)
            ratio = n * math.factorial(d - 1) / (2 * 256 ** (d - 1))
            assert 0.9 <= ratio <= 1.1

    def test_large_dim_ratio(self):
        # for fixed ell the dimension grows like d^ell / ell!
        for ell in (2, 3, 4):
            n = eigenspace_dim(ell, 500)
            ratio = n * math.factorial(ell) / 500**ell
            assert 0.95 <= ratio <= 1.1

    def test_overflow_signalled(self):
        with pytest.raises(OverflowError):
            eigenspace_dim(100, 200)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            eigenspace_dim(-1, 2)
        with pytest.raises(ValueError):
            eigenspace_dim(3, 1)
        with pytest.raises(ValueError):
            eigenspace_dim(2.0, 2)
        with pytest.raises(ValueError):
            eigenspace_dim(True, 2)


class TestHarmonicLevel:
    def test_fields(self):
        lv = HarmonicLevel(5, 3)
        assert lv.n == eigenspace_dim(5, 3)

    def test_default_dim(self):
        assert HarmonicLevel(4).dim == 2

    def test_invalid(self):
        with pytest.raises(ValueError):
            HarmonicLevel(-1, 2)
        with pytest.raises(ValueError):
            HarmonicLevel(2, 1)


class TestGegenbauer:
    def test_normalization_at_one(self):
        for d in range(2, 8):
            for ell in (0, 1, 2, 5, 17):
                assert gegenbauer(ell, d, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_example_legendre(self):
        assert gegenbauer(2, 2, 0.5) == pytest.approx(-0.125, abs=1e-15)

    def test_degree_one_is_identity(self):
        for d in range(2, 11):
            for t in np.linspace(-1, 1, 9):
                assert gegenbauer(1, d, float(t)) == pytest.approx(float(t), abs=1e-14)

    def test_d2_legendre_oracle(self):
        t = np.linspace(-1, 1, 201)
        for ell in (0, 1, 2, 3, 7, 12, 25):
            coef = np.zeros(ell + 1)
            coef[ell] = 1.0
            expected = np.polynomial.legendre.legval(t, coef)
            got = gegenbauer(ell, 2, t)
            assert np.allclose(got, expected, atol=1e-12)

    def test_d3_chebyshev_oracle(self):
        # G_{l;3}(cos t) = sin((l+1)t) / ((l+1) sin t) = U_l(cos t)/(l+1)
        t = np.linspace(-0.999, 0.999, 101)
        for ell in (1, 2, 5, 10):
            expected = sps.eval_chebyu(ell, t) / (ell + 1)
            assert np.allclose(gegenbauer(ell, 3, t), expected, atol=1e-12)

    def test_general_d_scipy_oracle(self):
        t = np.linspace(-1, 1, 101)
        for d in (4, 5, 8):
            lam = (d - 1) / 2.0
            for ell in (1, 2, 6, 11):
                norm = sps.eval_gegenbauer(ell, lam, 1.0)
                expected = sps.eval_gegenbauer(ell, lam, t) / norm
                assert np.allclose(gegenbauer(ell, d, t), expected, atol=1e-10)

    def test_bounded_by_one(self):
        t = np.linspace(-1, 1, 10_001)
        for d in (2, 3, 6):
            for ell in (3, 50, 200):
                assert np.max(np.abs(gegenbauer(ell, d, t))) <= 1.0 + 1e-12

    def test_discrete_orthogonality(self):
        # quadrature against the weight (1-t^2)^((d-2)/2), which is the
        # Gegenbauer weight with parameter (d-1)/2
        for d in (2, 3, 5):
            nodes, weights = sps.roots_gegenbauer(80, (d - 1) / 2.0)
            table = np.array([gegenbauer(l, d, nodes) for l in range(31)])
            gram = (table * weights) @ table.T
            off = gram - np.diag(np.diag(gram))
            assert np.max(np.abs(off)) < 1e-8

    def test_domain_error(self):
        with pytest.raises(ValueError):
            gegenbauer(3, 2, 1.1)
        with pytest.raises(ValueError):
            gegenbauer(3, 2, -1.0001)

    def test_clipping_tolerance(self):
        # round-off just past the endpoints is forgiven
        assert gegenbauer(3, 2, 1.0 + 1e-12) == pytest.approx(1.0)


def gegenbauer_unblocked(ell: int, dim: int, t):
    """The whole-array recurrence ``gegenbauer`` ran before blocking, an oracle.

    ``specfun.gegenbauer`` must reproduce it bit for bit: the same
    floating-point operations per element, only the buffers differ.
    """
    arr = np.asarray(t, dtype=float)
    scalar = arr.ndim == 0
    if np.any(np.abs(arr) > 1.0 + 1e-9):
        bad = np.max(np.abs(arr))
        raise ValueError(f"|t| must be <= 1 (max |t| = {bad:.3e})")
    x = np.clip(arr, -1.0, 1.0)
    if ell == 0:
        out = np.ones_like(x)
        return float(out) if scalar else out
    prev = np.ones_like(x)
    cur = x.copy()
    for k in range(2, ell + 1):
        nxt = ((2 * k + dim - 3) * x * cur - (k - 1) * prev) / (k + dim - 2)
        prev, cur = cur, nxt
    return float(cur) if scalar else cur


def _kernel_inputs(seed: int) -> list:
    """Arguments that start, end and straddle blocks, in several layouts."""
    b = _KERNEL_BLOCK
    rng = np.random.default_rng(seed)

    def cosines(shape):
        # includes the endpoints, 0 and round-off just past +-1 (clipped)
        t = rng.uniform(-1.0, 1.0, shape)
        t.flat[:5] = (1.0, -1.0, 0.0, 1.0 + 1e-10, -1.0 - 1e-10)[: t.size]
        return t

    flat = [cosines(n) for n in (0, 1, b - 1, b, b + 1, 3 * b + 5)]
    square = cosines((200, 300))
    return flat + [square, square.T, square[::3, 1::2], cosines(2 * b)[::2]]


class TestGegenbauerKernel:
    @pytest.mark.parametrize("ell", [0, 1, 2, 3, 8, 16, 64])
    @pytest.mark.parametrize("dim", [2, 3, 4, 7])
    def test_bit_identical_to_unblocked(self, ell, dim):
        for t in _kernel_inputs(100 * ell + dim):
            got = gegenbauer(ell, dim, t)
            want = gegenbauer_unblocked(ell, dim, t)
            assert got.shape == t.shape
            assert got.flags.c_contiguous
            assert np.array_equal(got, want)
        got = gegenbauer(ell, dim, 0.3)
        assert type(got) is float
        assert got == gegenbauer_unblocked(ell, dim, 0.3)

    @pytest.mark.parametrize("value", [1.1, -1.1])
    def test_refused_in_last_partial_block(self, value):
        t = np.zeros(3 * _KERNEL_BLOCK + 5)
        t[-1] = value
        with pytest.raises(ValueError) as info:
            gegenbauer(5, 3, t)
        assert str(info.value) == "|t| must be <= 1 (max |t| = 1.100e+00)"

    def test_refusal_reports_the_whole_input(self):
        # the bad value is in the first block, the largest in a later one
        t = np.zeros(3 * _KERNEL_BLOCK + 5)
        t[0], t[-2] = 1.01, -1.5
        with pytest.raises(ValueError, match=r"max \|t\| = 1\.500e\+00\)$"):
            gegenbauer(5, 3, t)

    def test_nan_as_unblocked(self):
        t = np.linspace(-1.0, 1.0, 2 * _KERNEL_BLOCK + 7)
        t[[0, _KERNEL_BLOCK, -1]] = np.nan
        for ell in (0, 1, 5):
            want = gegenbauer_unblocked(ell, 3, t)
            assert np.array_equal(gegenbauer(ell, 3, t), want, equal_nan=True)
        # a NaN is not refused, so the reported maximum is NaN, as before
        t[-2] = 1.1
        with pytest.raises(ValueError, match=r"max \|t\| = nan\)$"):
            gegenbauer(5, 3, t)

    def test_round_off_clipped_in_every_block(self):
        t = np.full(3 * _KERNEL_BLOCK + 5, 1.0 + 1e-12)
        assert np.all(gegenbauer(7, 3, t) == 1.0)
        assert np.all(gegenbauer(7, 3, -t) == -1.0)

    def test_peak_memory_is_the_output(self):
        t = np.random.default_rng(5).uniform(-1.0, 1.0, (1500, 1500))
        tracemalloc.start()
        try:
            out = gegenbauer(16, 3, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + 2 * 2**20

    def test_gram_simulator_factor(self):
        # d=3, l=4: n=25 << 600 points, so the factor stops at rank n, and
        # L L^T is the whole-array Gram
        level = HarmonicLevel(4, 3)
        pts = _unit_rows(6, 600)
        sim = GramSimulator(level, pts)
        assert sim.rank == level.n and sim.factor.shape == (600, level.n)
        assert sim.residual <= 1e-9
        np.testing.assert_allclose(sim.factor @ sim.factor.T, _gram_oracle(level, pts),
                                   rtol=0, atol=1e-12)


def _unit_rows(seed: int, count: int, dim: int = 3) -> np.ndarray:
    pts = np.random.default_rng(seed).standard_normal((count, dim + 1))
    return pts / np.linalg.norm(pts, axis=1)[:, None]


def _gram_oracle(level: HarmonicLevel, pts: np.ndarray) -> np.ndarray:
    """The whole-array Gram G(<x_i, x_j>) by the unblocked kernel."""
    return gegenbauer_unblocked(level.ell, level.dim, np.clip(pts @ pts.T, -1.0, 1.0))


class TestGramSimulatorFactor:
    def test_peak_memory_is_the_factor(self):
        # the factor is built one kernel column at a time: no N x N array,
        # only the N x n factor (1 MB here) and a few length-N columns
        pts = quasi_uniform_grid(3, 1500).points
        tracemalloc.start()
        try:
            sim = GramSimulator(HarmonicLevel(8, 3), pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= sim.factor.nbytes + 2**20
        assert peak < 1500 * 1500 * 8 / 10

    def test_fewer_points_than_n_leave_columns_zero(self):
        # 10 points for n = 25: the Gram has full rank 10, the factor is
        # exact after 10 steps and its last 15 columns stay zero
        level = HarmonicLevel(4, 3)
        pts = _unit_rows(9, 10)
        sim = GramSimulator(level, pts)
        assert sim.rank == 10 and not sim.factor[:, 10:].any()
        np.testing.assert_allclose(sim.factor @ sim.factor.T, _gram_oracle(level, pts),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("count", [2, 300])
    def test_repeated_points_refused(self, count):
        pts = _unit_rows(8, count)
        pts[-1] = pts[0]
        with pytest.raises(GeometryError, match="points repeat"):
            GramSimulator(HarmonicLevel(4, 3), pts)


class TestGegenbauerHilb:
    def test_mid_colatitude_accuracy_d2(self):
        theta = 0.3
        exact = gegenbauer(100, 2, math.cos(theta))
        approx = gegenbauer_hilb(100, 2, theta)
        assert abs(approx - exact) <= 2e-2 * abs(exact)

    def test_mid_colatitude_accuracy_d3(self):
        theta = 1.0
        exact = gegenbauer(50, 3, math.cos(theta))
        approx = gegenbauer_hilb(50, 3, theta)
        assert abs(approx - exact) <= 5e-2 * max(abs(exact), 1e-3)

    def test_small_theta_limit(self):
        for d in (2, 3, 4):
            for ell in (4, 16, 64):
                assert gegenbauer_hilb(ell, d, 1e-7) == pytest.approx(1.0, abs=1e-6)

    def test_sup_error_decreases_with_ell(self):
        # uniform error over [1/ell, pi/2] shrinks as ell doubles
        sups = []
        for ell in (64, 128, 256):
            thetas = np.linspace(1.0 / ell, math.pi / 2, 400)
            exact = gegenbauer(ell, 2, np.cos(thetas))
            approx = np.array([gegenbauer_hilb(ell, 2, float(t)) for t in thetas])
            sups.append(np.max(np.abs(approx - exact)))
        assert sups[0] > sups[1] > sups[2]

    def test_domain(self):
        for theta in (0.0, 2.0, math.nan):
            with pytest.raises(ValueError):
                gegenbauer_hilb(10, 2, theta)

    def test_error_budget_regimes(self):
        # away from the pole the remainder of the Bessel main term scales
        # like sqrt(theta) * ell^{-3/2}; at theta = 1 it stays within 50
        # times that budget
        ell = 64
        exact = gegenbauer(ell, 2, math.cos(1.0))
        approx = gegenbauer_hilb(ell, 2, 1.0)
        assert abs(approx - exact) <= 50 * 64**-1.5


class TestBesselJ:
    def test_trivial_origin(self):
        assert bessel_j(0, 0.0) == 1.0
        assert bessel_j(1, 0.0) == 0.0
        assert bessel_j(2.5, 0.0) == 0.0

    def test_closed_form_half_order(self):
        x = math.pi / 2
        assert bessel_j(0.5, x) == pytest.approx(2.0 / math.pi, rel=1e-12)
        for x in (0.3, 2.0, 15.0, 40.0):
            expected = math.sqrt(2.0 / (math.pi * x)) * math.sin(x)
            assert bessel_j(0.5, x) == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_example_j1(self):
        assert bessel_j(1, 1.0) == pytest.approx(0.4400505857449335, rel=1e-12)

    def test_scipy_oracle_sweep(self):
        # orders above the argument included: J_20(13) and J_49.5(30) lie
        # where an upward order recurrence is unstable
        orders = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 5.0, 7.5, 12.0, 20.0, 49.5]
        xs = np.concatenate([np.linspace(0.01, 11.9, 40), np.linspace(12.0, 80, 40),
                             [13.0, 30.0]])
        for nu in orders:
            expected = sps.jv(nu, xs)
            got = np.array([bessel_j(nu, float(x)) for x in xs])
            assert np.allclose(got, expected, rtol=1e-12, atol=1e-300), nu

    def test_domain_error(self):
        with pytest.raises(ValueError):
            bessel_j(1, -0.5)
        with pytest.raises(ValueError):
            bessel_j(-1.0, 2.0)
        with pytest.raises(ValueError):
            bessel_j(math.nan, 2.0)
        with pytest.raises(ValueError):
            bessel_j(1, np.array([1.0, math.nan]))


class TestGaussian:
    def test_point_values(self):
        g = gaussian(0.0)
        assert g.pdf == pytest.approx(0.3989422804014327, rel=1e-14)
        assert g.cdf == 0.5
        assert g.tail == 0.5

    def test_u1_cdf(self):
        # quadrature oracle for Phi(1)
        from scipy.integrate import quad

        oracle, _ = quad(lambda t: math.exp(-t * t / 2) / math.sqrt(2 * math.pi),
                         -40, 1)
        assert gaussian(1.0).cdf == pytest.approx(oracle, abs=1e-12)
        assert gaussian(1.0).cdf == pytest.approx(0.8413447, abs=5e-8)

    def test_extreme_tail(self):
        assert gaussian(40.0).tail < 1e-300

    def test_complementarity(self):
        for u in np.linspace(-8, 8, 33):
            g = gaussian(float(u))
            assert g.cdf + g.tail == pytest.approx(1.0, abs=1e-15)

    def test_array_input(self):
        u = np.array([-1.0, 0.0, 2.0])
        g = gaussian(u)
        assert g.pdf.shape == (3,)
        assert np.all(np.diff(g.cdf) > 0)


class TestCdfDerivative:
    def test_first_is_pdf(self):
        for u in (-2.0, 0.0, 1.3):
            assert cdf_derivative(1, u) == pytest.approx(gaussian(u).pdf, rel=1e-14)

    def test_second_at_zero(self):
        assert cdf_derivative(2, 0.0) == 0.0

    def test_fd_ladder(self):
        # d/du of the (q-1)-th derivative is the q-th derivative
        h = 1e-5
        for q in (2, 3, 4):
            for u in (-1.5, 0.3, 1.0):
                fd = (cdf_derivative(q - 1, u + h) - cdf_derivative(q - 1, u - h)) / (2 * h)
                assert cdf_derivative(q, u) == pytest.approx(fd, abs=5e-7)

    def test_fd_of_cdf_direct(self):
        # 4th-order central differences of Phi itself, q <= 4 on [-4, 4]
        h = 1e-2
        stencil = np.array([1.0, -8.0, 8.0, -1.0]) / (12 * h)
        offsets = np.array([-2 * h, -h, h, 2 * h])
        for u in np.linspace(-4, 4, 17):
            vals = np.array([gaussian(float(u + o)).cdf for o in offsets])
            assert cdf_derivative(1, float(u)) == pytest.approx(
                float(stencil @ vals), abs=1e-6)

    def test_third_at_one_matches_fd(self):
        h = 1e-2
        stencil = np.array([1.0, -8.0, 8.0, -1.0]) / (12 * h)
        offsets = np.array([-2 * h, -h, h, 2 * h])
        vals = np.array([cdf_derivative(2, 1.0 + float(o)) for o in offsets])
        assert cdf_derivative(3, 1.0) == pytest.approx(float(stencil @ vals), abs=1e-6)

    def test_hermite_oracle(self):
        # probabilists' Hermite via numpy's hermite_e basis
        from numpy.polynomial import hermite_e

        for q in range(1, 8):
            coef = np.zeros(q)
            coef[q - 1] = 1.0
            for u in (-2.0, 0.5, 3.0):
                expected = (-1.0) ** (q - 1) * hermite_e.hermeval(u, coef) * gaussian(u).pdf
                assert cdf_derivative(q, u) == pytest.approx(expected, rel=1e-12, abs=1e-300)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            cdf_derivative(0, 1.0)


SQRT3 = math.sqrt(3.0)


class TestCriticalDensity:
    def test_saddle_at_zero(self):
        assert critical_density(CriticalKind.SADDLE, 0.0) == pytest.approx(
            0.3989422804014327, rel=1e-13)

    def test_critical_at_zero(self):
        assert critical_density(CriticalKind.CRITICAL, 0.0) == pytest.approx(
            0.3989422804014327, rel=1e-13)

    def test_sum_rule(self):
        for u in np.linspace(-3, 3, 25):
            s = critical_density("saddle", float(u)) + critical_density(
                "extremum", float(u))
            assert critical_density("critical", float(u)) == pytest.approx(
                s, rel=1e-12)

    def test_total_masses(self):
        from scipy.integrate import quad

        for kind, total in (("critical", 2 / SQRT3), ("extremum", 1 / SQRT3),
                            ("saddle", 1 / SQRT3)):
            mass, _ = quad(lambda t, k=kind: critical_density(k, t), -40, 40)
            assert mass == pytest.approx(total, abs=1e-9)

    def test_nonnegative(self):
        for u in np.linspace(-5, 5, 101):
            for kind in ("critical", "extremum", "saddle"):
                assert critical_density(kind, float(u)) >= 0.0

    def test_min_max_rejected(self):
        with pytest.raises(ValueError):
            critical_density(CriticalKind.MINIMUM, 0.0)
        with pytest.raises(ValueError):
            critical_density("maximum", 0.0)


class TestCriticalTail:
    def test_closed_form_oracle(self):
        # an independent route: quadrature of the density over [u, 40]
        from scipy.integrate import quad

        for kind in ("critical", "extremum", "saddle"):
            for u in (-2.0, -0.5, 0.0, 0.7, 1.0, 2.5):
                mass, _ = quad(lambda t, k=kind: critical_density(k, t), u, 40,
                               epsabs=1e-13, epsrel=1e-13, limit=200)
                assert critical_tail(kind, u) == pytest.approx(mass, rel=1e-12,
                                                               abs=1e-14)

    def test_identity_extremum_minus_saddle(self):
        for u in (-1.0, 0.0, 1.0, 2.0):
            diff = critical_tail("extremum", u) - critical_tail("saddle", u)
            assert diff == pytest.approx(u * gaussian(u).pdf, abs=1e-9)
        assert critical_tail("extremum", 1.0) - critical_tail("saddle", 1.0) == (
            pytest.approx(0.2419707, abs=1e-6))

    def test_full_masses_at_minus_infinity(self):
        assert critical_tail("critical", -40.0) == pytest.approx(2 / SQRT3, abs=1e-9)
        assert critical_tail("extremum", -40.0) == pytest.approx(1 / SQRT3, abs=1e-9)
        assert critical_tail("saddle", -40.0) == pytest.approx(1 / SQRT3, abs=1e-9)

    def test_empty_tail(self):
        for kind in ("critical", "extremum", "saddle"):
            assert critical_tail(kind, 40.0) == 0.0
            assert critical_tail(kind, math.inf) == 0.0

    def test_infinite_and_nan_levels(self):
        assert critical_tail("critical", -math.inf) == 2 / SQRT3
        assert critical_tail("saddle", -math.inf) == 1 / SQRT3
        assert math.isnan(critical_tail("saddle", math.nan))

    def test_min_max_rejected(self):
        for kind in ("minimum", CriticalKind.MAXIMUM):
            with pytest.raises(ValueError):
                critical_tail(kind, 40.0)

    def test_monotone_nonincreasing(self):
        u = np.linspace(-4, 4, 33)
        for kind in ("critical", "extremum", "saddle"):
            vals = [critical_tail(kind, float(x)) for x in u]
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
