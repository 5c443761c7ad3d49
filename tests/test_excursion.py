"""Excursion functionals: volumes, value-law distance, critical points, EPC.

The critical-point machinery is checked against three independent
oracles: degree-1 fields (closed form: one max, one min at +-sqrt(3)r),
degree-2 fields (quadratic forms: critical values are the eigenvalues of
an explicit traceless 3x3 matrix), and zonal fields (1-d Legendre
analysis of the critical parallels).
"""

import csv
import io
import math

import numpy as np
import pytest

from sphex import excursion, harmonics
from sphex.excursion import (
    CriticalPointSet,
    count_above,
    euler_characteristic_mesh,
    euler_characteristic_morse,
    excursion_volume,
    export_critical_points_csv,
    find_critical_points,
    kolmogorov_distance,
    sup_norm,
)
from sphex.harmonics import (
    CoefficientVector,
    FieldSample,
    GeometryError,
    evaluate,
    evaluate_grid,
    frame_gradient,
    sample_gaussian,
    stream,
)
from sphex.specfun import CriticalKind, HarmonicLevel, _normal_cdf, gaussian
from sphex.sphere_geom import SpherePoint, icosphere, iso_latitude_grid


def zonal_coeffs(ell: int, radius: float = 1.0) -> CoefficientVector:
    level = HarmonicLevel(ell, 2)
    alpha = np.zeros(level.n)
    alpha[0] = 1.0
    return CoefficientVector(level, alpha, radius)


def quadratic_form_matrix(cv: CoefficientVector) -> np.ndarray:
    """Degree-2 fields are quadratic forms x^T M x; assemble M explicitly."""
    a0, ac1, as1, ac2, as2 = cv.alpha
    s5, s15 = math.sqrt(5.0), math.sqrt(15.0)
    m = np.array([
        [-a0 * s5 / 2 + ac2 * s15 / 2, as2 * s15 / 2, ac1 * s15 / 2],
        [as2 * s15 / 2, -a0 * s5 / 2 - ac2 * s15 / 2, as1 * s15 / 2],
        [ac1 * s15 / 2, as1 * s15 / 2, a0 * s5],
    ])
    return cv.radius * m


class TestExcursionVolume:
    def test_hand_case(self):
        values = np.array([-1.0, 0.0, 2.0, 3.0])
        weights = np.array([0.25, 0.25, 0.25, 0.25])
        assert excursion_volume((values, weights), 0.0) == 0.75
        assert excursion_volume((values, weights), 2.5) == 0.25
        assert excursion_volume((values, weights), -5.0) == 1.0
        assert excursion_volume((values, weights), 3.5) == 0.0

    def test_scalar_vs_array_route(self):
        # the two code paths (direct dot vs sorted prefix sums) must agree
        # exactly, including at tied values
        rng = np.random.default_rng(5)
        values = np.round(rng.standard_normal(500), 1)  # force ties
        weights = rng.uniform(0.5, 1.5, size=500)
        weights /= weights.sum()
        levels = np.concatenate([values[:50], [-10.0, 0.0, 10.0]])
        batch = excursion_volume((values, weights), levels)
        for u, vol in zip(levels, batch):
            # the routes sum in different orders; agreement is to rounding
            assert vol == pytest.approx(
                excursion_volume((values, weights), float(u)), abs=1e-12)
        # each route is individually deterministic
        assert np.array_equal(batch, excursion_volume((values, weights), levels))

    def test_short_array_is_the_scalar_route(self):
        # up to four levels are counted one by one, so each entry is the
        # scalar result bit for bit, whatever the array's shape
        rng = np.random.default_rng(7)
        values = rng.standard_normal(3000)
        weights = np.full(3000, 1.0 / 3000)
        for levels in ([0.0], [-1.0, 0.0, 1.0], [[-0.5, 0.2], [0.7, 2.0]]):
            batch = excursion_volume((values, weights), levels)
            assert batch.shape == np.shape(levels)
            for u, vol in zip(np.ravel(levels), batch.ravel()):
                assert vol == excursion_volume((values, weights), float(u))

    def test_monotone_in_u(self):
        rng = np.random.default_rng(6)
        values = rng.standard_normal(1000)
        weights = np.full(1000, 1e-3)
        u = np.linspace(-3, 3, 61)
        vols = excursion_volume((values, weights), u)
        assert np.all(np.diff(vols) <= 0)

    def test_field_sample_input(self):
        cv = sample_gaussian(HarmonicLevel(4, 2), stream(1, 0, "vol"))
        grid = iso_latitude_grid(2000)
        s = FieldSample.explicit(cv, grid)
        direct = excursion_volume((s.values, s.weights), 0.3)
        assert excursion_volume(s, 0.3) == direct

    def test_constant_field(self):
        lv = HarmonicLevel(0, 2)
        cv = CoefficientVector(lv, np.array([1.0]), radius=2.0)
        s = FieldSample.explicit(cv, iso_latitude_grid(100))
        # full measure up to the weight-sum rounding of the grid itself
        assert excursion_volume(s, 1.9) == pytest.approx(1.0, abs=1e-10)
        assert excursion_volume(s, 2.1) == 0.0

    def test_monte_carlo_mean_at_zero(self):
        # symmetric law: mean excursion volume at u = 0 is exactly 1/2
        level = HarmonicLevel(16, 2)
        grid = iso_latitude_grid(40 * 16 * 16)
        reps = 2000
        vols = np.empty(reps)
        for r in range(reps):
            cv = sample_gaussian(level, stream(7, r, "vol.mc"))
            vols[r] = excursion_volume(FieldSample.explicit(cv, grid), 0.0)
        se = float(vols.std(ddof=1)) / math.sqrt(reps)
        assert abs(float(vols.mean()) - 0.5) < 4 * se


class TestKolmogorovDistance:
    def test_constant_zero_field(self):
        values = np.zeros(10)
        weights = np.full(10, 0.1)
        assert kolmogorov_distance((values, weights)) == pytest.approx(0.5)

    def test_brute_force_oracle(self):
        # check the sorted two-sided sweep against a dense grid scan
        rng = np.random.default_rng(8)
        values = rng.standard_normal(200)
        weights = rng.uniform(0.1, 1.0, 200)
        weights /= weights.sum()
        got = kolmogorov_distance((values, weights))
        grid = np.sort(np.concatenate([values - 1e-9, values, values + 1e-9,
                                       np.linspace(-5, 5, 2001)]))
        emp = np.array([np.sum(weights[values <= g]) for g in grid])
        brute = float(np.max(np.abs(emp - gaussian(grid).cdf)))
        assert got == pytest.approx(brute, abs=1e-7)
        assert got >= brute - 1e-12

    def test_quantile_ranks(self):
        from scipy.stats import norm

        for n in (10, 100, 1000):
            values = norm.ppf((np.arange(1, n + 1) - 0.5) / n)
            weights = np.full(n, 1.0 / n)
            ks = kolmogorov_distance((values, weights))
            assert ks == pytest.approx(0.5 / n, abs=1e-12)

    def test_scale_parameter(self):
        rng = np.random.default_rng(9)
        values = rng.standard_normal(300)
        weights = np.full(300, 1 / 300)
        base = kolmogorov_distance((values, weights))
        for c in (0.5, 2.0, 10.0):
            scaled = kolmogorov_distance((values * c, weights), scale=c)
            assert scaled == pytest.approx(base, abs=1e-14)

    def test_bounds(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            values = rng.standard_normal(50)
            weights = np.full(50, 0.02)
            ks = kolmogorov_distance((values, weights))
            assert 0.0 <= ks <= 1.0

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            kolmogorov_distance((np.zeros(3), np.full(3, 1 / 3)), scale=0.0)

    def test_decreasing_in_ell(self):
        means = []
        for ell in (4, 16):
            level = HarmonicLevel(ell, 2)
            grid = iso_latitude_grid(40 * ell * ell)
            ks = [
                kolmogorov_distance(FieldSample.explicit(
                    sample_gaussian(level, stream(11, r, f"kol:{ell}")), grid))
                for r in range(60)
            ]
            means.append(float(np.mean(ks)))
        assert means[1] < means[0]


def argsort_kolmogorov(values, weights, scale=1.0):
    """``kolmogorov_distance`` as it was before the equal-weight path."""
    order = np.argsort(values, kind="stable")
    v = values[order] / scale
    cum = np.cumsum(weights[order])
    cum /= cum[-1]
    phi = _normal_cdf(v)
    d_plus = float(np.max(cum - phi))
    d_minus = float(np.max(phi - np.concatenate([[0.0], cum[:-1]])))
    return max(d_plus, d_minus)


def argsort_volumes(values, weights, u_arr):
    """The sort route of ``excursion_volume`` before the equal-weight path."""
    order = np.argsort(values, kind="stable")
    v_sorted = values[order]
    prefix = np.concatenate([[0.0], np.cumsum(weights[order])])
    idx = np.searchsorted(v_sorted, u_arr, side="left")
    return prefix[-1] - prefix[idx]


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestSortedMass:
    """Both sort-based functionals give the argsort route's bits.

    Equal weights take a plain sort and an unpermuted cumulative sum;
    every other weight vector takes the stable argsort.  Each case compares
    the public functionals with the reference copies above, bit for bit
    (``tobytes``, so a flipped sign of zero would show too).
    """

    LEVELS = np.array([-np.inf, -2.0, -0.5, -0.0, 0.0, 0.3, 1.0, 2.5, np.inf])

    def assert_matches_reference(self, values, weights, levels=None):
        levels = self.LEVELS if levels is None else levels
        for scale in (1.0, 0.5, 3.0):
            assert same_bits(kolmogorov_distance((values, weights), scale=scale),
                             argsort_kolmogorov(values, weights, scale))
        assert same_bits(excursion_volume((values, weights), levels),
                         argsort_volumes(values, weights, levels))

    @pytest.mark.parametrize("ell", [1, 2, 8, 33])
    def test_random_fields_on_a_grid(self, ell):
        grid = iso_latitude_grid(max(100, 20 * ell * ell))
        assert np.all(grid.weights == grid.weights[0])
        for rep in range(3):
            cv = sample_gaussian(HarmonicLevel(ell, 2), stream(41, rep, f"sm:{ell}"))
            sample = FieldSample.explicit(cv, grid)
            levels = np.concatenate([self.LEVELS, sample.values[::97]])
            self.assert_matches_reference(sample.values, sample.weights, levels)
            assert kolmogorov_distance(sample) == argsort_kolmogorov(
                sample.values, sample.weights)

    def test_many_ties(self):
        rng = np.random.default_rng(12)
        for decimals in (0, 1, 2):
            values = np.round(rng.standard_normal(4000), decimals)
            levels = np.concatenate([self.LEVELS, values[:40]])
            self.assert_matches_reference(values, np.full(4000, 1 / 4000), levels)
            self.assert_matches_reference(values, np.full(4000, 0.1), levels)

    def test_signed_zeros_and_infinities(self):
        rng = np.random.default_rng(13)
        values = rng.choice([0.0, -0.0, np.inf, -np.inf, 1.5, -1.5], size=501)
        values[:4] = [0.0, -0.0, -0.0, 0.0]
        self.assert_matches_reference(values, np.full(501, 1 / 501))
        zeros = np.where(np.arange(64) % 3 == 0, -0.0, 0.0)
        self.assert_matches_reference(zeros, np.full(64, 1 / 64))

    def test_single_value(self):
        for value in (-1.25, 0.0, -0.0, 7.0, np.inf):
            self.assert_matches_reference(np.array([value]), np.array([1.0]))
            self.assert_matches_reference(np.array([value]), np.array([0.3]))

    def test_weights_one_ulp_apart_take_the_argsort(self):
        # a plain cumulative sum on these weights differs from the permuted
        # one in the last bits, so only the argsort route matches
        rng = np.random.default_rng(14)
        n = 3000
        values = rng.standard_normal(n)
        w = 1.0 / 3.0
        weights = np.full(n, w)
        weights[rng.choice(n, n // 2, replace=False)] = np.nextafter(w, 1.0)
        order = np.argsort(values, kind="stable")
        assert not same_bits(np.cumsum(weights), np.cumsum(weights[order]))
        sorted_values, cum = excursion._sorted_mass(values, weights)
        assert same_bits(sorted_values, values[order])
        assert same_bits(cum, np.cumsum(weights[order]))
        levels = np.concatenate([self.LEVELS, values[:40]])
        self.assert_matches_reference(values, weights, levels)

    def test_unequal_and_degenerate_weights(self):
        rng = np.random.default_rng(15)
        values = np.round(rng.standard_normal(800), 1)
        self.assert_matches_reference(values, rng.uniform(0.5, 1.5, 800))
        # all-zero weights of mixed sign compare equal but are not the
        # same bits, so they too take the argsort
        zeros = np.where(np.arange(800) % 2 == 0, -0.0, 0.0)
        order = np.argsort(values, kind="stable")
        assert same_bits(excursion._sorted_mass(values, zeros)[1],
                         np.cumsum(zeros[order]))
        assert same_bits(excursion_volume((values, zeros), self.LEVELS),
                         argsort_volumes(values, zeros, self.LEVELS))


class TestSampleValidation:
    """Both functionals refuse samples the sort routes would misread."""

    @staticmethod
    def calls(values, weights):
        yield lambda: kolmogorov_distance((values, weights))
        yield lambda: excursion_volume((values, weights), 0.0)
        yield lambda: excursion_volume((values, weights), [-1.0, 0.0])
        yield lambda: excursion_volume((values, weights), np.linspace(-1, 1, 5))

    @pytest.mark.parametrize("values, weights, message", [
        (np.array([0.1, -0.4, 1.2]), np.full(5, 0.2), "3 values but 5 weights"),
        (np.array([0.1, -0.4, 1.2, 0.0, 2.0]), np.full(3, 1 / 3),
         "5 values but 3 weights"),
        (np.array([]), np.array([]), "empty"),
        (np.zeros((2, 3)), np.full((2, 3), 1 / 6), "1-D"),
        (np.zeros(6), np.full((2, 3), 1 / 6), "1-D"),
        (np.float64(0.5), np.float64(1.0), "1-D"),
        (np.array([0.0, 1.0, 2.0]), np.array([1.0, -1.0, 0.5]), "non-negative"),
        (np.array([0.0, 1.0]), np.array([np.nan, 1.0]), "non-negative"),
        (np.array([0.0, 1.0]), np.array([np.inf, 1.0]), "finite"),
    ])
    def test_rejected(self, values, weights, message):
        for call in self.calls(values, weights):
            with pytest.raises(ValueError, match=message):
                call()

    def test_field_sample_is_checked_too(self):
        sample = FieldSample(values=np.zeros(3), weights=np.full(5, 0.2))
        with pytest.raises(ValueError, match="3 values but 5 weights"):
            kolmogorov_distance(sample)

    # [1e308, 1e308]: finite weights whose sum overflows, which numpy warns of
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("weights", [[0.0, 0.0], [0.0, -0.0], [1e308, 1e308]])
    def test_no_distance_without_a_finite_positive_total(self, weights):
        # such a measure has no distribution function to compare
        with pytest.raises(ValueError, match="finite positive total"):
            kolmogorov_distance(([0.0, 1.0], weights))

    def test_zero_measure_has_zero_volumes(self):
        assert excursion_volume(([0.0, 1.0], [0.0, 0.0]), 0.5) == 0.0

    def test_lists_are_accepted(self):
        assert kolmogorov_distance(([0.0, 1.0], [0.5, 0.5])) == argsort_kolmogorov(
            np.array([0.0, 1.0]), np.array([0.5, 0.5]))


class TestFindCriticalPointsDegreeOne:
    def test_closed_form(self):
        # a degree-1 field is sqrt(3) r <v, x>: two critical points at +-v
        rng = stream(12, 0, "deg1")
        for radius in (1.0, 3.0):
            cv = sample_gaussian(HarmonicLevel(1, 2), rng)
            cv = CoefficientVector(cv.level, cv.alpha, radius)
            cps = find_critical_points(cv)
            assert not cps.degenerate_flag
            assert len(cps) == 2
            vals = sorted(p.value for p in cps.points)
            expect = math.sqrt(3.0) * radius
            assert vals[0] == pytest.approx(-expect, rel=1e-9)
            assert vals[1] == pytest.approx(expect, rel=1e-9)
            kinds = {p.kind for p in cps.points}
            assert kinds == {CriticalKind.MINIMUM, CriticalKind.MAXIMUM}
            # antipodal positions
            x0, x1 = (p.position.coords for p in cps.points)
            assert np.allclose(x0, -x1, atol=1e-8)


class TestFindCriticalPointsDegreeTwo:
    def test_eigenvalue_oracle(self):
        for rep in (0, 1, 2):
            cv = sample_gaussian(HarmonicLevel(2, 2), stream(13, rep, "deg2"))
            m = quadratic_form_matrix(cv)
            # the matrix really does reproduce the field (oracle self-check)
            rng = np.random.default_rng(rep)
            pts = rng.standard_normal((20, 3))
            pts /= np.linalg.norm(pts, axis=1, keepdims=True)
            quad = np.einsum("ni,ij,nj->n", pts, m, pts)
            assert np.allclose(quad, np.asarray(evaluate(cv, pts)), atol=1e-12)

            eigs = np.sort(np.linalg.eigvalsh(m))
            cps = find_critical_points(cv)
            assert not cps.degenerate_flag
            assert len(cps) == 6
            values = np.sort([p.value for p in cps.points])
            assert np.allclose(values, np.repeat(eigs, 2), atol=1e-8)
            counts = cps.counts()
            assert counts == {"minimum": 2, "maximum": 2, "saddle": 2}
            # saddles carry the middle eigenvalue
            for p in cps.points:
                if p.kind is CriticalKind.SADDLE:
                    assert p.value == pytest.approx(eigs[1], abs=1e-8)


class TestFindCriticalPointsZonal:
    def test_zonal_degree_four(self):
        # P4' roots: cos(theta) in {0, +-sqrt(3/7)}, plus the two poles
        cv = zonal_coeffs(4)
        cps = find_critical_points(cv)
        assert cps.degenerate_flag  # circles of critical points: not Morse
        root = math.sqrt(3.0 / 7.0)
        parallels = np.array([s * math.acos(c) for s, c in
                              [(1, 1.0), (1, root), (1, 0.0), (1, -root),
                               (1, -1.0)]])
        found_thetas = np.array([p.position.theta for p in cps.points])
        # every found point sits on one of the critical parallels
        dist = np.min(np.abs(found_thetas[:, None] - parallels[None, :]),
                      axis=1)
        assert np.all(dist < 1e-6)
        # and every parallel is represented
        cover = np.min(np.abs(found_thetas[:, None] - parallels[None, :]),
                       axis=0)
        assert np.all(cover < 1e-6)
        # found values match the 1-d Legendre oracle 3 * P4(cos theta)
        coef = np.zeros(5)
        coef[4] = 1.0
        for p in cps.points:
            expect = 3.0 * np.polynomial.legendre.legval(
                math.cos(p.position.theta), coef)
            assert p.value == pytest.approx(float(expect), abs=1e-8)


class TestFindCriticalPointsGeneric:
    def test_morse_equality_multi_seed(self):
        level = HarmonicLevel(8, 2)
        for rep in range(5):
            cv = sample_gaussian(level, stream(14, rep, "morse"))
            cps = find_critical_points(cv)
            assert not cps.degenerate_flag
            c = cps.counts()
            assert c["minimum"] - c["saddle"] + c["maximum"] == 2

    def test_gradient_residual_invariant(self):
        cv = sample_gaussian(HarmonicLevel(6, 2), stream(15, 0, "resid"))
        cps = find_critical_points(cv)
        bound = 1e-8 * cv.level.ell * cv.radius
        pts = np.array([p.position.coords for p in cps.points])
        g = frame_gradient(cv, pts)
        for i, p in enumerate(cps.points):
            assert p.gradient_residual < bound
            assert float(np.hypot(g[i, 0], g[i, 1])) < 10 * bound

    def test_scale_invariance(self):
        cv = sample_gaussian(HarmonicLevel(5, 2), stream(16, 0, "scale"))
        base = find_critical_points(cv)
        base_pos = sorted(tuple(np.round(p.position.coords, 9))
                          for p in base.points)
        for c in (0.5, 2.0, 10.0):
            scaled = find_critical_points(cv.scaled(c))
            assert len(scaled) == len(base)
            pos = sorted(tuple(np.round(p.position.coords, 9))
                         for p in scaled.points)
            for a, b in zip(base_pos, pos):
                assert np.allclose(a, b, atol=1e-7)
            vals_base = sorted(p.value for p in base.points)
            vals_scaled = sorted(p.value for p in scaled.points)
            assert np.allclose(np.array(vals_scaled),
                               c * np.array(vals_base), rtol=1e-9)

    def test_domain_errors(self):
        lv = HarmonicLevel(0, 2)
        with pytest.raises(ValueError):
            find_critical_points(CoefficientVector(lv, np.array([1.0])))
        lv3 = HarmonicLevel(2, 3)
        alpha = np.zeros(lv3.n)
        alpha[0] = 1.0
        with pytest.raises(ValueError):
            find_critical_points(CoefficientVector(lv3, alpha))


class TestSeedRings:
    @pytest.mark.parametrize("ell", [1, 2, 7, 24])
    def test_ring_path_matches_pointwise_jet(self, ell):
        # the first Newton iteration synthesizes the jet on the seed rings;
        # it must agree with the pointwise jet at every seed, the first and
        # last rings (largest 1/sin theta) included, to rounding scaled by
        # the derivative order j of each output
        (seed_t, seed_p), tables = excursion._seed_rings(ell)
        thetas, phis = iso_latitude_grid(40 * ell * ell).rings
        assert np.array_equal(seed_t, np.repeat(thetas, phis.size))
        assert np.array_equal(seed_p, np.tile(phis, thetas.size))
        for rep in range(2):
            cv = sample_gaussian(HarmonicLevel(ell, 2), stream(23, rep, "rings"))
            ring = harmonics._ring_jet2(cv, tables)
            pointwise = harmonics._frame_jet2(cv, seed_t, seed_p)
            for j, r_out, p_out in zip((0, 1, 1, 2, 2, 2), ring, pointwise):
                assert r_out.shape == seed_t.shape
                err = np.abs(r_out - p_out).reshape(thetas.size, phis.size)
                tol = 1e-12 * cv.radius * ell**j
                assert err[0].max() <= tol and err[-1].max() <= tol
                assert err.max() <= tol

    def test_seed_cache_follows_the_degree(self):
        # the seed rings and their tables are kept for the last degree only;
        # a degree sequence 8, 12, 8 must find what fresh searches find
        def search(ell, rep):
            cv = sample_gaussian(HarmonicLevel(ell, 2), stream(24, rep, "cache"))
            cps = find_critical_points(cv)
            return (
                [p.position.coords.tolist() for p in cps.points],
                [p.value for p in cps.points],
                [p.kind for p in cps.points],
                cps.rotation_attempts,
            )

        runs = [search(ell, rep) for rep, ell in enumerate((8, 12, 8))]
        for rep, ell in enumerate((8, 12, 8)):
            excursion._seed_rings.cache_clear()
            assert runs[rep] == search(ell, rep)


@pytest.fixture(scope="module")
def cps():
    cv = sample_gaussian(HarmonicLevel(7, 2), stream(17, 0, "count"))
    out = find_critical_points(cv)
    assert not out.degenerate_flag
    return out


@pytest.fixture(scope="module")
def epc_sample():
    cv = sample_gaussian(HarmonicLevel(8, 2), stream(18, 1, "epc"))
    cps = find_critical_points(cv)
    assert not cps.degenerate_flag
    return cv, cps


class TestCountAbove:
    def test_partition_identity(self, cps):
        for u in (-math.inf, -1.0, 0.0, 0.5, 2.0):
            total = count_above(cps, u, CriticalKind.CRITICAL)
            ext = count_above(cps, u, CriticalKind.EXTREMUM)
            sad = count_above(cps, u, CriticalKind.SADDLE)
            assert total == ext + sad
            mins = count_above(cps, u, CriticalKind.MINIMUM)
            maxs = count_above(cps, u, CriticalKind.MAXIMUM)
            assert ext == mins + maxs

    def test_extremes(self, cps):
        top = max(p.value for p in cps.points)
        assert count_above(cps, top + 1.0) == 0
        assert count_above(cps) == len(cps)

    def test_string_kinds(self, cps):
        assert count_above(cps, 0.0, "critical") == count_above(
            cps, 0.0, CriticalKind.CRITICAL)

    def test_monotone_in_u(self, cps):
        u = np.linspace(-3, 3, 25)
        counts = [count_above(cps, float(x)) for x in u]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_scale_invariance(self, cps):
        # counts computed from a rescaled field at rescaled levels agree
        cv = sample_gaussian(HarmonicLevel(7, 2), stream(17, 0, "count"))
        for c in (0.5, 2.0, 10.0):
            scaled = find_critical_points(cv.scaled(c))
            for u in (-1.0, 0.0, 1.0):
                assert count_above(scaled, c * u) == count_above(cps, u)


class TestEulerCharacteristic:
    def test_limits(self, epc_sample):
        _, cps = epc_sample
        bottom = min(p.value for p in cps.points)
        top = max(p.value for p in cps.points)
        assert euler_characteristic_morse(cps, bottom - 1.0) == 2
        assert euler_characteristic_morse(cps, top + 1.0) == 0

    def test_equals_signed_sum(self, epc_sample):
        _, cps = epc_sample
        for u in (-1.5, 0.0, 0.7):
            manual = sum(
                -1 if p.kind is CriticalKind.SADDLE else 1
                for p in cps.points if p.value >= u
            )
            assert euler_characteristic_morse(cps, u) == manual

    def test_degenerate_rejected(self):
        cps = CriticalPointSet(level=HarmonicLevel(4, 2), points=[],
                               degenerate_flag=True)
        with pytest.raises(GeometryError):
            euler_characteristic_morse(cps, 0.0)

    def test_mesh_limits(self, epc_sample):
        cv, _ = epc_sample
        mesh = icosphere(3)
        vals = np.asarray(evaluate(cv, mesh.vertices))
        assert euler_characteristic_mesh(cv, mesh, float(vals.min()) - 1) == 2
        assert euler_characteristic_mesh(cv, mesh, float(vals.max()) + 1) == 0

    def test_mesh_matches_morse(self, epc_sample):
        cv, cps = epc_sample
        mesh = icosphere(6)
        for u in (-1.0, 0.0, 1.0):
            assert euler_characteristic_mesh(cv, mesh, u) == (
                euler_characteristic_morse(cps, u))

    def test_mesh_values_input(self, epc_sample):
        cv, _ = epc_sample
        mesh = icosphere(2)
        vals = np.asarray(evaluate(cv, mesh.vertices))
        assert euler_characteristic_mesh(vals, mesh, 0.2) == (
            euler_characteristic_mesh(cv, mesh, 0.2))
        with pytest.raises(ValueError):
            euler_characteristic_mesh(vals[:-1], mesh, 0.2)


class TestSupNorm:
    def test_zonal_exact(self):
        value, arg = sup_norm(zonal_coeffs(4))
        assert value == pytest.approx(3.0, abs=1e-8)
        assert abs(arg.coords[2]) == pytest.approx(1.0, abs=1e-4)

    def test_constant_field(self):
        lv = HarmonicLevel(0, 2)
        for c in (0.5, 4.0):
            cv = CoefficientVector(lv, np.array([1.0]), radius=c)
            value, _ = sup_norm(cv)
            assert value == pytest.approx(c, rel=1e-12)

    def test_degree_one_exact(self):
        cv = sample_gaussian(HarmonicLevel(1, 2), stream(19, 0, "sup1"))
        value, arg = sup_norm(cv)
        assert value == pytest.approx(math.sqrt(3.0) * cv.radius, rel=1e-10)
        # argmax is the direction of the coefficient vector (up to sign)
        assert abs(evaluate(cv, arg)) == pytest.approx(value, rel=1e-10)

    def test_at_least_grid_max(self):
        grid = iso_latitude_grid(40 * 36)
        for rep in range(4):
            cv = sample_gaussian(HarmonicLevel(6, 2), stream(20, rep, "supg"))
            s = FieldSample.explicit(cv, grid)
            value, _ = sup_norm(cv, grid=grid)
            assert value >= float(np.max(np.abs(s.values))) - 1e-12

    def test_reused_grid_matches_fresh_grid(self):
        # the grid keeps its ring tables between calls; interleaved degrees
        # on one grid must give what a freshly built grid gives
        shared = iso_latitude_grid(40 * 64)
        for rep, ell in enumerate((5, 0, 8, 1, 5, 8)):
            cv = sample_gaussian(HarmonicLevel(ell, 2), stream(20, rep, "supreuse"))
            reused = sup_norm(cv, grid=shared)
            fresh = sup_norm(cv, grid=iso_latitude_grid(40 * 64))
            assert reused[0] == fresh[0]
            assert np.array_equal(reused[1].coords, fresh[1].coords)

    def test_refine_improves_or_matches(self):
        cv = sample_gaussian(HarmonicLevel(9, 2), stream(21, 0, "supr"))
        grid = iso_latitude_grid(40 * 81)
        assert sup_norm(cv, grid)[0] >= np.max(np.abs(evaluate_grid(cv, grid)))

    def test_d3_rejected(self):
        lv = HarmonicLevel(2, 3)
        alpha = np.zeros(lv.n)
        alpha[0] = 1.0
        with pytest.raises(ValueError):
            sup_norm(CoefficientVector(lv, alpha))


class TestExportCsv:
    def test_round_trip_parse(self):
        cv = sample_gaussian(HarmonicLevel(4, 2), stream(22, 0, "export"))
        cps = find_critical_points(cv)
        buf = io.StringIO()
        export_critical_points_csv(cps, buf)
        rows = list(csv.DictReader(io.StringIO(buf.getvalue())))
        assert len(rows) == len(cps)
        kinds = {r["kind"] for r in rows}
        assert kinds <= {"minimum", "maximum", "saddle"}
        for row, p in zip(rows, cps.points):
            assert float(row["value"]) == pytest.approx(p.value, rel=1e-15)
            pos = np.array([float(row["x"]), float(row["y"]), float(row["z"])])
            assert np.allclose(pos, p.position.coords)
