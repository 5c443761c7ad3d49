"""Excursion functionals: volumes, value-law distance, critical points, EPC.

The critical-point machinery is checked against three independent
oracles: degree-1 fields (closed form: one max, one min at +-sqrt(3)r),
degree-2 fields (quadratic forms: critical values are the eigenvalues of
an explicit traceless 3x3 matrix), and zonal fields (1-d Legendre
analysis of the critical parallels).
"""

import bisect
import csv
import dataclasses
import hashlib
import io
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.spatial import cKDTree

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
    sample_gaussian,
    stream,
)
from sphex.specfun import CriticalKind, HarmonicLevel, _normal_cdf, gaussian
from sphex.sphere_geom import (
    _unit_vectors,
    icosphere,
    iso_latitude_grid,
    quasi_uniform_grid,
)


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

    # [1e308, 1e308]: finite weights whose sum overflows
    @pytest.mark.parametrize("weights", [[0.0, 0.0], [0.0, -0.0], [1e308, 1e308]])
    def test_no_distance_without_a_finite_positive_total(self, weights):
        # such a measure has no distribution function to compare
        with pytest.raises(ValueError, match="finite positive total"):
            kolmogorov_distance(([0.0, 1.0], weights))

    def test_overflowing_total_is_refused_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                kolmogorov_distance(([0.0, 1.0], [1e308, 1e308]))
        assert str(info.value) == (
            "the weights must have a finite positive total, got inf")

    @pytest.mark.parametrize("levels", [0.5, [-1.0, 0.5], np.linspace(-1, 1, 6)])
    def test_overflowing_total_has_no_volumes(self, levels):
        # refused on the count route (up to four levels) and the sorted
        # route alike, before numpy can warn about the overflow; a total
        # just inside the float range is still answered
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite total, got inf"):
                excursion_volume(([0.0, 1.0], [1e308, 1e308]), levels)
            vols = excursion_volume(([0.0, 1.0], [1e308, 5e307]), levels)
        expected = np.where(np.asarray(levels) <= 0.0, 1.5e308, 5e307)
        assert np.allclose(vols, expected, rtol=1e-15, atol=0)

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
            vals = np.sort(cps.values)
            expect = math.sqrt(3.0) * radius
            assert vals[0] == pytest.approx(-expect, rel=1e-9)
            assert vals[1] == pytest.approx(expect, rel=1e-9)
            assert sorted(cps.index.tolist()) == [0, 2]  # a minimum and a maximum
            # antipodal positions
            x0, x1 = cps.points
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
            values = np.sort(cps.values)
            assert np.allclose(values, np.repeat(eigs, 2), atol=1e-8)
            counts = cps.counts()
            assert counts == {"minimum": 2, "maximum": 2, "saddle": 2}
            # saddles carry the middle eigenvalue
            saddle_values = cps.values[cps.index == 1]
            assert np.allclose(saddle_values, eigs[1], atol=1e-8)


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
        found_thetas = np.arccos(np.clip(cps.points[:, 2], -1.0, 1.0))
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
        expect = 3.0 * np.polynomial.legendre.legval(cps.points[:, 2], coef)
        assert np.allclose(cps.values, expect, atol=1e-8, rtol=0)


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
        x, y, z = cps.points.T
        _, g_t, g_p, *_ = harmonics._frame_jet2(
            cv, np.arccos(np.clip(z, -1.0, 1.0)), np.arctan2(y, x))
        assert np.all(cps.residuals < bound)
        assert np.all(np.hypot(g_t, g_p) < 10 * bound)

    def test_scale_invariance(self):
        cv = sample_gaussian(HarmonicLevel(5, 2), stream(16, 0, "scale"))
        base = find_critical_points(cv)
        base_pos = sorted(tuple(np.round(x, 9)) for x in base.points)
        for c in (0.5, 2.0, 10.0):
            scaled = find_critical_points(cv.scaled(c))
            assert len(scaled) == len(base)
            pos = sorted(tuple(np.round(x, 9)) for x in scaled.points)
            for a, b in zip(base_pos, pos):
                assert np.allclose(a, b, atol=1e-7)
            assert np.allclose(np.sort(scaled.values),
                               c * np.sort(base.values), rtol=1e-9)

    @pytest.mark.parametrize("ell", [7, 8, 16])
    def test_critical_set_is_antipodal(self, ell):
        # f(-x) = (-1)^ell f(x), so every critical point has its antipode in
        # the set at value (-1)^ell f; for odd ell the antipode of a maximum
        # is a minimum and vice versa, and saddles stay saddles
        sign = (-1) ** ell
        for rep in range(2):
            cv = sample_gaussian(HarmonicLevel(ell, 2), stream(25, rep, "parity"))
            cps = find_critical_points(cv)
            assert not cps.degenerate_flag
            xyz = cps.points
            gap = np.linalg.norm(xyz[:, None, :] + xyz[None, :, :], axis=2)
            partner = gap.argmin(axis=1)
            assert gap[np.arange(len(cps)), partner].max() < 1e-7
            assert np.array_equal(np.sort(partner), np.arange(len(cps)))
            value_gap = np.abs(cps.values[partner] - sign * cps.values)
            assert value_gap.max() <= 1e-9 * cv.radius
            mirrored = cps.index if sign > 0 else 2 - cps.index
            assert np.array_equal(cps.index[partner], mirrored)

    def test_close_saddle_extremum_pairs_are_kept(self):
        # replicate 19 of TestCriticalGolden's epc cell at ell=8 has two
        # saddle/maximum pairs 0.155/ell apart; a 0.2/ell merge dropped a
        # point of each, so every rotation failed the Morse count
        cv = sample_gaussian(HarmonicLevel(8, 2), stream(2015, 19, "epc:ell=8"))
        cps = find_critical_points(cv)
        assert not cps.degenerate_flag
        c = cps.counts()
        assert c["minimum"] - c["saddle"] + c["maximum"] == 2

    def test_saddle_minimum_pair_inside_the_merge_radius_is_kept(self):
        # this ell=16 field has a saddle/minimum pair 0.0095/ell apart, and
        # its antipodal copy; merging roots within 0.02/ell across Morse
        # indices joined each pair, so every rotation counted 78 - 156 + 78
        cv = sample_gaussian(HarmonicLevel(16, 2), stream(5090, 0, "cmp"))
        cps = find_critical_points(cv)
        assert not cps.degenerate_flag
        assert cps.rotation_attempts == 1
        assert cps.counts() == {"minimum": 80, "saddle": 156, "maximum": 78}
        saddles = cps.points[cps.index == 1]
        minima = cps.points[cps.index == 0]
        gap = np.linalg.norm(saddles[:, None, :] - minima[None, :, :], axis=2)
        assert np.count_nonzero(gap < 0.02 / 16) == 2

    def test_domain_errors(self):
        lv = HarmonicLevel(0, 2)
        with pytest.raises(ValueError):
            find_critical_points(CoefficientVector(lv, np.array([1.0])))
        lv3 = HarmonicLevel(2, 3)
        alpha = np.zeros(lv3.n)
        alpha[0] = 1.0
        with pytest.raises(ValueError):
            find_critical_points(CoefficientVector(lv3, alpha))


# the 7-smooth integers (no prime factor above 7) below 4096, ascending
SEVEN_SMOOTH = sorted(
    k for k in (2**a * 3**b * 5**c * 7**d for a in range(12) for b in range(8)
                for c in range(6) for d in range(5))
    if k < 4096
)


def smallest_7_smooth_at_least(n: int) -> int:
    return SEVEN_SMOOTH[bisect.bisect_left(SEVEN_SMOOTH, n)]


def lattice_ell_delta(ell: int) -> float:
    """ell times the covering radius of ``_seed_rings(ell)`` with antipodes:
    the half-diagonal (sqrt(2)/2) pi ell / n of a lattice cell, n rings over
    [0, pi] and 2 n longitudes."""
    (_, phis), _ = excursion._seed_rings(ell)
    return math.sqrt(2.0) / 2.0 * math.pi * ell / (phis.size // 2)


class TestSeedRings:
    @pytest.mark.parametrize("ell", [1, 2, 7, 24])
    def test_ring_path_matches_pointwise_jet(self, ell):
        # the first Newton iteration synthesizes the jet on the seed rings;
        # it must agree with the pointwise jet at every seed, the first and
        # last rings (largest 1/sin theta) included, to rounding scaled by
        # the derivative order j of each output.  The seeds are the upper
        # half of the lattice with spacing h = pi/n, n the smallest 7-smooth
        # integer >= ceil(pi ell / 0.7): rings at (j + 1/2) h up to pi/2, the
        # equator ring included when n is odd, and longitudes at k h over a
        # full turn
        (seed_thetas, seed_phis), rows = excursion._seed_rings(ell)
        n = smallest_7_smooth_at_least(math.ceil(math.pi * ell / 0.7))
        h = math.pi / n
        thetas = (np.arange(n) + 0.5) * h
        thetas = thetas[thetas <= math.pi / 2 + 1e-12]
        phis = np.arange(2 * n) * h
        assert np.array_equal(seed_thetas, thetas)
        assert np.array_equal(seed_phis, phis)
        seed_t, seed_p = np.repeat(thetas, phis.size), np.tile(phis, thetas.size)
        for rep in range(2):
            cv = sample_gaussian(HarmonicLevel(ell, 2), stream(23, rep, "rings"))
            ring = harmonics._ring_jet2(cv, rows, phis.size)
            pointwise = harmonics._frame_jet2(cv, seed_t, seed_p)
            # the value-only synthesis sup_norm scans with
            values = harmonics._ring_scan(cv, rows, phis.size)
            assert np.abs(values - ring[0]).max() <= 1e-12 * cv.radius
            for j, r_out, p_out in zip((0, 1, 1, 2, 2, 2), ring, pointwise):
                assert r_out.shape == seed_t.shape
                err = np.abs(r_out - p_out).reshape(thetas.size, phis.size)
                tol = 1e-12 * cv.radius * ell**j
                assert err[0].max() <= tol and err[-1].max() <= tol
                assert err.max() <= tol

    @pytest.mark.parametrize("ell", [1, 2, 3, 16, 64, 256])
    def test_scan_matches_pointwise_evaluate(self, ell):
        # the sup-norm scan, one inverse FFT per ring, against the per-point
        # basis product of ``evaluate`` at every seed's (theta, phi), within
        # 1e-12 radius.  Up to ell=64 ``evaluate`` itself, from the seeds'
        # unit vectors, holds the same tolerance; at ell=256 the arccos that
        # recovers theta from a unit vector near the pole is off by about
        # eps / sin theta, 1.1e-11 radius on the first ring whatever the
        # synthesis, so there the reference takes the angles directly.  At
        # ell=256 (1.3M seeds) the check covers every seed of every eighth
        # ring, the last ring and the first two
        (thetas, phis), rows = excursion._seed_rings(ell)
        n = smallest_7_smooth_at_least(math.ceil(math.pi * ell / 0.7))
        assert phis.size == 2 * n
        cv = sample_gaussian(HarmonicLevel(ell, 2), stream(11, 0, "sup"))
        scan = harmonics._ring_scan(cv, rows, phis.size).reshape(thetas.size, -1)
        picked = np.arange(thetas.size)
        if ell == 256:
            picked = np.union1d(picked[::8], [1, thetas.size - 1])
        for start in range(0, picked.size, 4):
            chunk = picked[start : start + 4]
            seed_t = np.repeat(thetas[chunk], phis.size)
            seed_p = np.tile(phis, chunk.size)
            basis = harmonics._basis_matrix(ell, seed_t, seed_p)
            refs = [cv.radius * (basis @ cv.alpha)]
            if ell <= 64:
                refs.append(evaluate(cv, _unit_vectors(seed_t, seed_p)))
            for ref in refs:
                assert np.abs(scan[chunk].ravel() - ref).max() <= 1e-12 * cv.radius

    def test_lattice_size_rule(self):
        # the seed lattice's n is the smallest 7-smooth integer >= pi ell /
        # 0.7, so the longitude FFT over 2 n points is fast; it rounds up
        # the plain ceil(pi ell / 0.7) by at most 7%, and not at all at the
        # degrees the golden, export and covering tests use
        unchanged = {1, 2, 3, 4, 6, 7, 8, 10, 12, 16, 24, 32, 64}
        for ell in range(1, 513):
            n = excursion._seed_lattice_size(ell)
            plain = math.ceil(math.pi * ell / 0.7)
            assert n in SEVEN_SMOOTH
            assert n == smallest_7_smooth_at_least(plain)
            assert n >= math.pi * ell / 0.7
            assert n / plain <= 1.07
            if ell in unchanged:
                assert n == plain
        assert excursion._seed_lattice_size(128) == 576
        assert excursion._seed_lattice_size(256) == 1152

    @pytest.mark.parametrize("r", [5, 9, 11, 86])
    def test_lattice_spares_the_retry(self, r):
        # with seeds sparse in theta near the chart pole these ell=24 fields
        # missed critical points there and failed the Morse count on the
        # first rotation (r = 86 at |z| = 0.961, where the 40 ell^2 grid's
        # rings were far apart); the lattice finds them on the first attempt
        cv = sample_gaussian(HarmonicLevel(24, 2), stream(5000 + r, 0, "cmp"))
        cps = find_critical_points(cv)
        assert cps.rotation_attempts == 1
        assert not cps.degenerate_flag

    @pytest.mark.parametrize("ell", [2, 24, 64])
    def test_covering_radius(self, ell):
        # the farthest of 400k Fibonacci probes from every seed and antipode
        # is within the closed form, which keeps the sup-norm seed fraction
        # under the Bernstein bound
        (thetas, phis), _ = excursion._seed_rings(ell)
        seeds = _unit_vectors(np.repeat(thetas, phis.size), np.tile(phis, thetas.size))
        chord, _ = cKDTree(np.vstack([seeds, -seeds])).query(
            quasi_uniform_grid(2, 400_000).points)
        probe = ell * 2.0 * math.asin(chord.max() / 2.0)
        ell_delta = lattice_ell_delta(ell)
        assert probe <= ell_delta <= 0.495
        assert excursion._SUP_SEED_FRACTION <= 1.0 - ell_delta**2 / 2.0

    def test_seeds_with_a_capped_first_step_are_dropped(self):
        # a seed whose undamped first Newton step exceeds the pi/(2 ell)
        # cap starts outside every root's quadratic basin; the search drops
        # it, and such seeds are most of the rings
        ell = 16
        cv = sample_gaussian(HarmonicLevel(ell, 2), stream(5000, 0, "cmp"))
        (thetas, phis), rows = excursion._seed_rings(ell)
        seed_t, seed_p = np.repeat(thetas, phis.size), np.tile(phis, thetas.size)
        jet = harmonics._ring_jet2(cv, rows, phis.size)
        _, g_t, g_p, h_tt, h_tp, h_pp = jet
        hess = np.stack([np.stack([h_tt, h_tp], -1), np.stack([h_tp, h_pp], -1)], -1)
        step = np.linalg.solve(hess, -np.stack([g_t, g_p], -1)[..., None])[..., 0]
        far = np.linalg.norm(step, axis=1) > 0.5 * math.pi / ell
        assert 0.5 < far.mean() < 0.9
        for subset, found in ((far, False), (~far, True)):
            roots, _ = excursion._newton_roots(
                cv, seed_t[subset], seed_p[subset], tuple(j[subset] for j in jet))
            assert (roots.size > 0) is found

    # Morse counts and rotation attempts at the parent of the first-step
    # filter (the cmp fields) and of the capped-step filter on every
    # iteration (the sweep fields and ell=13 r=178, whose first rotation
    # misses a shallow maximum next to a saddle)
    @pytest.mark.parametrize("ell, seed, purpose, counts, attempts", [
        (16, 5000, "cmp", (82, 158, 78), 1),
        (16, 5002, "cmp", (84, 160, 78), 1),
        (16, 5003, "cmp", (76, 156, 82), 1),
        (16, 5007, "cmp", (74, 148, 76), 1),
        (24, 5000, "cmp", (184, 352, 170), 1),
        (24, 5001, "cmp", (164, 332, 170), 1),
        (24, 5005, "cmp", (170, 346, 178), 1),
        (13, 5178, "cmp", (47, 92, 47), 2),
        (16, 7000, "sweep", (80, 154, 76), 1),
        (16, 7004, "sweep", (76, 158, 84), 1),
    ])
    def test_capped_step_filter_keeps_the_counts(self, ell, seed, purpose, counts,
                                                 attempts):
        cv = sample_gaussian(HarmonicLevel(ell, 2), stream(seed, 0, purpose))
        cps = find_critical_points(cv)
        assert cps.rotation_attempts == attempts
        assert not cps.degenerate_flag
        c = cps.counts()
        assert (c["minimum"], c["saddle"], c["maximum"]) == counts

    def test_iterates_are_thinned_after_every_step(self, monkeypatch):
        # every jet after the seeds' is evaluated on iterates that round to
        # distinct points on the 0.05/ell quantum, the first one included
        ell = 16
        cv = sample_gaussian(HarmonicLevel(ell, 2), stream(5000, 0, "cmp"))
        (thetas, phis), rows = excursion._seed_rings(ell)
        seed_t, seed_p = np.repeat(thetas, phis.size), np.tile(phis, thetas.size)
        calls = []
        jet2 = harmonics._frame_jet2

        def recording(coeffs, theta, phi):
            calls.append(_unit_vectors(theta, phi))
            return jet2(coeffs, theta, phi)

        monkeypatch.setattr(harmonics, "_frame_jet2", recording)
        excursion._newton_roots(cv, seed_t, seed_p, harmonics._ring_jet2(cv, rows, phis.size))
        assert len(calls) > 2
        for xyz in calls:
            keys = np.round(xyz / (0.05 / ell)).astype(np.int64)
            assert np.unique(keys, axis=0).shape[0] == keys.shape[0]

    def test_seed_cache_follows_the_degree(self):
        # the seed rings and their tables are kept for the last degree only;
        # a degree sequence 8, 12, 8 must find what fresh searches find
        def search(ell, rep):
            cv = sample_gaussian(HarmonicLevel(ell, 2), stream(24, rep, "cache"))
            cps = find_critical_points(cv)
            return (
                cps.points.tolist(),
                cps.values.tolist(),
                cps.index.tolist(),
                cps.rotation_attempts,
            )

        runs = [search(ell, rep) for rep, ell in enumerate((8, 12, 8))]
        for rep, ell in enumerate((8, 12, 8)):
            excursion._seed_rings.cache_clear()
            assert runs[rep] == search(ell, rep)


def empty_set() -> CriticalPointSet:
    """A set with no points, as an attempt whose Newton search found nothing."""
    return CriticalPointSet(HarmonicLevel(4, 2), np.empty((0, 3)), np.empty(0),
                            np.empty(0), np.empty((0, 2)), np.empty(0, dtype=int))


# The per-point oracles below are the classification and counting loops the
# package ran before its critical sets became columns.  They read only the
# eigenvalue and value columns, so they check the Morse-index column too.


def oracle_kinds(cps: CriticalPointSet) -> list:
    kinds = []
    for lo, hi in cps.eigs.tolist():
        if hi < 0:
            kinds.append(CriticalKind.MAXIMUM)
        elif lo > 0:
            kinds.append(CriticalKind.MINIMUM)
        else:
            kinds.append(CriticalKind.SADDLE)
    return kinds


def oracle_counts(cps: CriticalPointSet) -> dict:
    out = {"minimum": 0, "maximum": 0, "saddle": 0}
    for kind in oracle_kinds(cps):
        out[kind.value] += 1
    return out


def oracle_count_above(cps: CriticalPointSet, u: float, kind: CriticalKind) -> int:
    if kind is CriticalKind.CRITICAL:
        members = {CriticalKind.MINIMUM, CriticalKind.MAXIMUM, CriticalKind.SADDLE}
    elif kind is CriticalKind.EXTREMUM:
        members = {CriticalKind.MINIMUM, CriticalKind.MAXIMUM}
    else:
        members = {kind}
    return sum(1 for k, v in zip(oracle_kinds(cps), cps.values.tolist())
               if k in members and v >= u)


def oracle_morse(cps: CriticalPointSet, u: float) -> int:
    chi = 0
    for k, v in zip(oracle_kinds(cps), cps.values.tolist()):
        if v >= u:
            chi += -1 if k is CriticalKind.SADDLE else 1
    return chi


@pytest.fixture(scope="module", params=["ell1", "ell2", "ell8", "ell24", "zonal4", "empty"])
def oracle_set(request):
    if request.param == "empty":
        return empty_set()
    if request.param == "zonal4":
        out = find_critical_points(zonal_coeffs(4))
        assert out.degenerate_flag and len(out) > 0
        return out
    ell = int(request.param[3:])
    out = find_critical_points(
        sample_gaussian(HarmonicLevel(ell, 2), stream(27, ell, "oracle")))
    assert not out.degenerate_flag
    return out


def oracle_levels(cps: CriticalPointSet) -> list:
    # a few fixed levels, both infinities, and point values themselves,
    # where ">= u" must count the point
    values = cps.values.tolist()
    return [-math.inf, -1.0, 0.0, 0.5, math.inf, *values[:: max(1, len(values) // 12)]]


class TestCountsAgainstPerPointOracle:
    def test_one_row_per_point(self, oracle_set):
        k = len(oracle_set)
        assert oracle_set.points.shape == (k, 3)
        assert oracle_set.eigs.shape == (k, 2)
        for column in (oracle_set.values, oracle_set.residuals, oracle_set.index):
            assert column.shape == (k,)

    def test_index_column(self, oracle_set):
        morse_index = {CriticalKind.MINIMUM: 0, CriticalKind.SADDLE: 1,
                       CriticalKind.MAXIMUM: 2}
        assert oracle_set.index.tolist() == [
            morse_index[k] for k in oracle_kinds(oracle_set)]

    def test_counts(self, oracle_set):
        assert oracle_set.counts() == oracle_counts(oracle_set)

    def test_count_above(self, oracle_set):
        for u in oracle_levels(oracle_set):
            for kind in CriticalKind:
                assert count_above(oracle_set, u, kind) == oracle_count_above(
                    oracle_set, u, kind)

    def test_morse(self, oracle_set):
        # the zonal set is flagged degenerate and refused; its points still
        # check the arithmetic once the flag is cleared
        morse_set = dataclasses.replace(oracle_set, degenerate_flag=False)
        for u in oracle_levels(oracle_set):
            assert euler_characteristic_morse(morse_set, u) == oracle_morse(
                oracle_set, u)


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
        assert count_above(cps, cps.values.max() + 1.0) == 0
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
        assert euler_characteristic_morse(cps, cps.values.min() - 1.0) == 2
        assert euler_characteristic_morse(cps, cps.values.max() + 1.0) == 0

    def test_equals_signed_sum(self, epc_sample):
        _, cps = epc_sample
        for u in (-1.5, 0.0, 0.7):
            assert euler_characteristic_morse(cps, u) == oracle_morse(cps, u)

    def test_degenerate_rejected(self):
        cps = empty_set()
        cps.degenerate_flag = True
        with pytest.raises(GeometryError):
            euler_characteristic_morse(cps, 0.0)

    def test_mesh_limits(self, epc_sample):
        cv, _ = epc_sample
        mesh = icosphere(3)
        vals = np.asarray(evaluate(cv, mesh.vertices))
        assert euler_characteristic_mesh(cv, mesh, float(vals.min()) - 1) == 2
        assert euler_characteristic_mesh(cv, mesh, float(vals.max()) + 1) == 0

    def test_mesh_levels_at_once_equal_one_by_one(self, epc_sample):
        cv, _ = epc_sample
        mesh = icosphere(4)
        levels = np.array([-2.0, -1.0, -0.3, 0.0, 0.4, 1.0, 2.5])
        chis = euler_characteristic_mesh(cv, mesh, levels)
        assert chis.shape == levels.shape and chis.dtype.kind == "i"
        assert chis.tolist() == [
            euler_characteristic_mesh(cv, mesh, float(u)) for u in levels]
        assert type(euler_characteristic_mesh(cv, mesh, 0.0)) is int
        assert euler_characteristic_mesh(cv, mesh, levels[:0]).shape == (0,)

    @pytest.mark.parametrize("nan_vertex", [False, True])
    def test_mesh_by_minima_equals_all_vertices_form(self, epc_sample, monkeypatch,
                                                      nan_vertex):
        # an edge or face joins the subcomplex when every one of its
        # vertices is >= u, counted here simplex by simplex.  The levels
        # include vertex values, where ">= u" must count the vertex, and a
        # NaN level; a NaN vertex value keeps out the vertex and every edge
        # and face it is on
        cv, _ = epc_sample
        mesh = icosphere(3)
        vals = evaluate(cv, mesh.vertices)
        if nan_vertex:
            vals[mesh.faces[0, 1]] = math.nan
            monkeypatch.setattr(excursion, "evaluate", lambda *_: vals.copy())
        finite = vals[np.isfinite(vals)]
        levels = [-math.inf, -1.0, 0.0, float(np.median(finite)), float(finite[7]),
                  float(finite.max()), 1.0, math.nan]
        simplices = ([[i] for i in range(vals.size)], mesh.edges.tolist(),
                     mesh.faces.tolist())
        expected = [
            sum((-1) ** dim * sum(all(vals[i] >= u for i in cell) for cell in cells)
                for dim, cells in enumerate(simplices))
            for u in levels
        ]
        assert euler_characteristic_mesh(cv, mesh, np.array(levels)).tolist() == expected
        assert euler_characteristic_mesh(cv, mesh, levels[4]) == expected[4]

    def test_mesh_matches_morse(self, epc_sample):
        cv, cps = epc_sample
        mesh = icosphere(6)
        for u in (-1.0, 0.0, 1.0):
            assert euler_characteristic_mesh(cv, mesh, u) == (
                euler_characteristic_morse(cps, u))


class TestSupNorm:
    def test_zonal_exact(self):
        value, _ = sup_norm(zonal_coeffs(4))
        assert value == pytest.approx(3.0, abs=1e-8)

    def test_zonal_argmax_is_a_unit_array_at_a_pole(self):
        _, arg = sup_norm(zonal_coeffs(4))
        assert isinstance(arg, np.ndarray) and arg.shape == (3,)
        assert np.linalg.norm(arg) == pytest.approx(1.0, abs=1e-15)
        assert np.allclose(np.abs(arg), [0.0, 0.0, 1.0], atol=1e-4)

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
        assert abs(evaluate(cv, arg[None, :])[0]) == pytest.approx(value, rel=1e-10)

    def test_at_least_grid_max(self):
        grid = iso_latitude_grid(40 * 36)
        for rep in range(4):
            cv = sample_gaussian(HarmonicLevel(6, 2), stream(20, rep, "supg"))
            s = FieldSample.explicit(cv, grid)
            value, _ = sup_norm(cv)
            assert value >= float(np.max(np.abs(s.values))) - 1e-12

    def test_refine_improves_or_matches(self):
        cv = sample_gaussian(HarmonicLevel(9, 2), stream(21, 0, "supr"))
        grid = iso_latitude_grid(40 * 81)
        assert sup_norm(cv)[0] >= np.max(np.abs(evaluate_grid(cv, grid)))

    def test_finds_a_maximum_in_the_polar_cap(self):
        # this field peaks at |z| = 0.996, inside the hole a 40 ell^2
        # iso-latitude grid leaves around each pole: polishing that grid's
        # best cell gave 4.1762
        cv = sample_gaussian(HarmonicLevel(16, 2), stream(11, 32, "sup"))
        fine = quasi_uniform_grid(2, 1000 * 16 * 16)
        fine_max = float(np.max(np.abs(evaluate(cv, fine.points))))
        assert fine_max == pytest.approx(5.2983, abs=1e-4)
        assert sup_norm(cv)[0] >= fine_max

    @pytest.mark.parametrize("ell, fields", [(16, 100), (64, 60)])
    def test_within_the_bernstein_bound_of_the_scan(self, ell, fields):
        # the scan maximum M_s is within 1 - (ell delta)^2 / 2 of the sup
        # norm, so sup_norm lies in [M_s, M_s / (1 - (ell delta)^2 / 2)]
        bound = 1.0 - lattice_ell_delta(ell) ** 2 / 2.0
        (_, phis), rows = excursion._seed_rings(ell)
        for r in range(fields):
            cv = sample_gaussian(HarmonicLevel(ell, 2), stream(11, r, "sup"))
            scan = float(np.abs(harmonics._ring_scan(cv, rows, phis.size)).max())
            value, _ = sup_norm(cv)
            assert scan * (1.0 - 1e-12) <= value <= scan / bound

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
        assert [r["kind"] for r in rows] == [k.value for k in oracle_kinds(cps)]
        table = np.array([[float(r[c]) for c in ("x", "y", "z", "value", "residual",
                                                 "eig1", "eig2")] for r in rows])
        assert np.array_equal(table[:, :3], cps.points)
        assert np.array_equal(table[:, 3], cps.values)
        assert np.array_equal(table[:, 4], cps.residuals)
        assert np.array_equal(table[:, 5:], cps.eigs)

    def test_empty_set_is_the_header(self):
        buf = io.StringIO()
        export_critical_points_csv(empty_set(), buf)
        assert buf.getvalue() == "x,y,z,value,kind,residual,eig1,eig2\r\n"

    # sha256 of the value, kind, residual and eigenvalue columns (header
    # included), which do not depend on how the positions are normalized;
    # the ids leave the digests out, so regenerating one keeps the test's name
    @pytest.mark.parametrize("ell, rows, digest", [
        (3, 14, "2bae094b15f613edff7bd6b8402452d09e2e3e403d98580daad76a17be396bae"),
        (8, 82, "b381031cf629b8aae3e106db8253ce7d56593bfbfb17c79d80b474fefc3aeda6"),
        (16, 322, "c0f5d1aa8bb30e660546e1d6ae4531272d3143f5bdd85bbfa8378a87d4154e9d"),
    ], ids=["ell3", "ell8", "ell16"])
    def test_columns_pinned(self, ell, rows, digest):
        cv = sample_gaussian(HarmonicLevel(ell, 2), stream(26, ell, "export"))
        buf = io.StringIO()
        export_critical_points_csv(find_critical_points(cv), buf)
        table = list(csv.reader(io.StringIO(buf.getvalue())))
        assert len(table) == 1 + rows
        text = "\n".join(",".join(r[3:]) for r in table)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


# Prints one digest of pointwise jets (two blocks at ell=24, per-point BLAS
# calls at ell=256), one sup norm and one critical set.
_THREAD_DIGEST = """
import hashlib, math
import numpy as np
from sphex import excursion, harmonics
from sphex.specfun import HarmonicLevel

def field(ell):
    return harmonics.sample_gaussian(HarmonicLevel(ell, 2),
                                     harmonics.stream(28, ell, "threads"))

h = hashlib.sha256()
rng = np.random.default_rng(28)
for ell, n in ((24, 3000), (256, 200)):
    theta = np.arccos(rng.uniform(-1.0, 1.0, n))
    phi = rng.uniform(-math.pi, math.pi, n)
    for q in harmonics._frame_jet2(field(ell), theta, phi):
        h.update(q.tobytes())
value, point = excursion.sup_norm(field(64))
h.update(np.append(point, value).tobytes())
cps = excursion.find_critical_points(field(16))
for q in (cps.points, cps.values, cps.eigs, cps.index):
    h.update(q.tobytes())
print(h.hexdigest())
"""


class TestBlasThreads:
    def test_one_and_two_threads_give_the_same_bits(self):
        # the jet rows are BLAS products, and the campaigns promise the same
        # bytes with 1 or 2 BLAS threads
        package_root = os.path.dirname(os.path.dirname(harmonics.__file__))
        digests = set()
        for n in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=n, OMP_NUM_THREADS=n,
                       PYTHONPATH=os.pathsep.join(
                           filter(None, [package_root, os.environ.get("PYTHONPATH")])))
            child = subprocess.run([sys.executable, "-c", _THREAD_DIGEST],
                                   capture_output=True, text=True, env=env)
            assert child.returncode == 0, child.stderr
            digests.add(child.stdout)
        assert len(digests) == 1
