"""Closed-form bounds and rates: frozen values, identities, domain walls.

Every numeric pin below is recomputed by hand or through scipy.stats
directly (a different route than the module's own helpers), so a silent
transcription slip in any formula shows up as a hard failure rather than
a self-consistent wrong answer.
"""

import inspect
import json
import math

import numpy as np
import pytest
from scipy.stats import chi2, norm

from sphex.specfun import CriticalKind, critical_tail, gaussian
from sphex.theory import (
    REGISTRY,
    BoundReport,
    bad_set_bound,
    bad_set_bound_local,
    borel_tis_tail,
    chi_square_tail_rate,
    cramer_transform,
    critical_count_limit,
    density_ratio_bound,
    epc_limit,
    epc_variance_leading,
    evaluate_bound,
    excursion_mean_limit,
    gkf_epc_expectation,
    kolmogorov_measure_bound,
    kolmogorov_rate_exponents,
    mills,
    sogge_exponent,
    sup_norm_lower_params,
    sup_norm_tail_bound,
)


class TestBadSetBound:
    def test_hand_values(self):
        # 2(1+c)/eps^2 * (1/n + sigma^2) at two regularity constants
        assert bad_set_bound(0.1, 100, 0.01, 1.0) == pytest.approx(8.0, rel=1e-12)
        assert bad_set_bound(0.1, 100, 0.01, 2.0) == pytest.approx(12.0, rel=1e-12)

    def test_monotonicities(self):
        base = bad_set_bound(0.2, 50, 0.05, 1.0)
        assert bad_set_bound(0.4, 50, 0.05, 1.0) < base
        assert bad_set_bound(0.2, 500, 0.05, 1.0) < base
        assert bad_set_bound(0.2, 50, 0.5, 1.0) > base
        assert bad_set_bound(0.2, 50, 0.05, 3.0) > base

    def test_domain(self):
        for eps in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                bad_set_bound(eps, 10, 0.1, 1.0)
        with pytest.raises(ValueError):
            bad_set_bound(0.1, 0, 0.1, 1.0)
        with pytest.raises(ValueError):
            bad_set_bound(0.1, 10, -0.1, 1.0)
        with pytest.raises(ValueError):
            bad_set_bound(0.1, 10, 0.1, 0.0)

    def test_local_refinement_matches_manual(self):
        eps, c, u, n = 0.2, 1.0, 2.0, 64
        profile = lambda x: math.exp(-x * x / 4.0)
        ratio = eps / (1.0 + c)
        tilted = max(
            profile(math.sqrt(1.0 - ratio) * u),
            profile(math.sqrt(1.0 + ratio) * u),
        )
        got = bad_set_bound_local(eps, n, profile, c, u)
        assert got == pytest.approx(bad_set_bound(eps, n, tilted, c), rel=1e-12)
        # a profile decaying in |u| can only tighten the global-sup bound
        assert got <= bad_set_bound(eps, n, profile(0.0), c)

    def test_local_domain(self):
        with pytest.raises(ValueError):
            bad_set_bound_local(1.5, 10, lambda x: 0.1, 1.0, 1.0)
        with pytest.raises(ValueError):
            bad_set_bound_local(0.1, 10, lambda x: 0.1, -1.0, 1.0)


class TestEpcFormulas:
    def test_gkf_hand_value(self):
        # 2(1-Phi(1)) + sqrt(2/pi) * (16*17/2) * phi(1)/2
        want = 2 * norm.sf(1.0) + math.sqrt(2 / math.pi) * 136.0 * (norm.pdf(1.0) / 2)
        got = gkf_epc_expectation(16, 1.0)
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(13.4457, abs=5e-4)

    def test_gkf_limits_in_u(self):
        # far below every level the excursion set is the whole sphere
        assert gkf_epc_expectation(16, -40.0) == pytest.approx(2.0, abs=1e-12)
        assert gkf_epc_expectation(16, 40.0) == pytest.approx(0.0, abs=1e-12)

    def test_gkf_sign_pattern(self):
        # the curvature term is odd in u, so deep negative levels dip below 2
        assert gkf_epc_expectation(8, -1.0) < 2.0
        assert gkf_epc_expectation(8, 1.0) > 0.0

    def test_gkf_domain(self):
        with pytest.raises(ValueError):
            gkf_epc_expectation(0, 1.0)

    def test_epc_limit_is_u_phi(self):
        for u in np.linspace(-4, 4, 33):
            assert epc_limit(float(u)) == pytest.approx(
                float(u) * norm.pdf(u), rel=1e-12, abs=1e-15
            )

    def test_epc_limit_is_tail_difference(self):
        # Morse counting: chi density = extremum tail minus saddle tail
        for u in np.linspace(-3, 3, 25):
            diff = critical_tail(CriticalKind.EXTREMUM, float(u)) - critical_tail(
                CriticalKind.SADDLE, float(u)
            )
            assert epc_limit(float(u)) == pytest.approx(diff, abs=1e-12)

    def test_variance_leading(self):
        assert epc_variance_leading(7, 0.0) == 0.0
        assert epc_variance_leading(12, 1.3) == pytest.approx(
            8.0 * epc_variance_leading(6, 1.3), rel=1e-12
        )
        inner = (2.0**3 + 4.0) ** 2 * norm.pdf(2.0) ** 2
        assert epc_variance_leading(5, 2.0) == pytest.approx(
            inner * inner * 125.0 / (8 * math.pi), rel=1e-12
        )
        with pytest.raises(ValueError):
            epc_variance_leading(0, 1.0)

    def test_mean_limit_and_critical_limit(self):
        for u in (-2.0, 0.0, 0.7, 3.0):
            assert excursion_mean_limit(u) == pytest.approx(norm.sf(u), rel=1e-12)
            assert critical_count_limit("saddle", u) == critical_tail(
                CriticalKind.SADDLE, u
            )
        assert critical_count_limit(CriticalKind.CRITICAL, -40.0) == pytest.approx(
            2.0 / math.sqrt(3.0), rel=1e-12
        )


class TestKolmogorovBounds:
    def test_measure_bound_value(self):
        assert kolmogorov_measure_bound(100, 0.5, 1.0) == pytest.approx(
            0.08, rel=1e-12
        )

    def test_measure_bound_domain(self):
        with pytest.raises(ValueError):
            kolmogorov_measure_bound(0, 0.5, 1.0)
        with pytest.raises(ValueError):
            kolmogorov_measure_bound(10, 0.0, 1.0)
        with pytest.raises(ValueError):
            kolmogorov_measure_bound(10, 0.5, 0.0)

    def test_rate_exponents(self):
        assert kolmogorov_rate_exponents(9, 2) == (1.0 / 3.0, 3.0)
        assert kolmogorov_rate_exponents(6, 4) == (1.0, 2.0)
        with pytest.raises(ValueError):
            kolmogorov_rate_exponents(0, 2)
        with pytest.raises(ValueError):
            kolmogorov_rate_exponents(3, 1)


class TestSupNorm:
    def test_tail_bound_pair(self):
        threshold, prob = sup_norm_tail_bound(1.0, 1.0, 100)
        assert prob == pytest.approx(0.01, rel=1e-12)
        assert threshold == pytest.approx(
            (1.0 + math.sqrt(2.0)) * math.sqrt(math.log(100.0)), rel=1e-12
        )

    def test_tail_bound_domain(self):
        with pytest.raises(ValueError):
            sup_norm_tail_bound(0.0, 1.0, 10)
        with pytest.raises(ValueError):
            sup_norm_tail_bound(1.0, -1.0, 10)
        with pytest.raises(ValueError):
            sup_norm_tail_bound(1.0, 1.0, 1)

    def test_lower_params_threshold(self):
        k_max, interval = sup_norm_lower_params(0.0, 2)
        assert k_max == pytest.approx(math.sqrt(2.0 / 26.0), rel=1e-12)
        assert interval is not None and interval[0] == 0.0
        assert interval[1] == pytest.approx(1.0 / 13.0, rel=1e-12)
        # the admissible window closes exactly at K = K_max
        assert sup_norm_lower_params(k_max, 2)[1] is None
        assert sup_norm_lower_params(0.99 * k_max, 2)[1] is not None

    def test_lower_params_dimension_limit(self):
        k_inf = math.sqrt(1.0 / 12.0)
        assert sup_norm_lower_params(0.0, 10**9)[0] == pytest.approx(
            k_inf, rel=1e-6
        )
        assert k_inf == pytest.approx(0.288675, abs=1e-6)

    def test_lower_params_domain(self):
        with pytest.raises(ValueError):
            sup_norm_lower_params(0.1, 1)
        with pytest.raises(ValueError):
            sup_norm_lower_params(-0.1, 2)

    def test_borel_tis(self):
        e_sup = 1.7
        t = e_sup + math.sqrt(2.0 * math.log(100.0))
        assert borel_tis_tail(t, e_sup) == pytest.approx(0.01, rel=1e-12)
        with pytest.raises(ValueError):
            borel_tis_tail(e_sup, e_sup)
        with pytest.raises(ValueError):
            borel_tis_tail(e_sup - 0.1, e_sup)


class TestChiSquareRates:
    def test_cramer_values(self):
        assert cramer_transform(1.0) == 0.0
        assert cramer_transform(2.0) == pytest.approx(
            0.5 * (1.0 - math.log(2.0)), rel=1e-12
        )
        assert cramer_transform(2.0) == pytest.approx(0.153426, abs=1e-6)
        assert cramer_transform(0.0) == math.inf
        assert cramer_transform(-1.0) == math.inf

    def test_cramer_convex_with_minimum_at_one(self):
        xs = np.linspace(0.05, 4.0, 80)
        vals = [cramer_transform(float(x)) for x in xs]
        for a, m, b in zip(vals, vals[1:], vals[2:]):
            assert m <= 0.5 * (a + b) + 1e-12
        assert all(v > 0 for x, v in zip(xs, vals) if abs(x - 1) > 1e-9)

    def test_tail_rate_pair(self):
        upper, exact = chi_square_tail_rate(1.5, 400)
        assert upper == pytest.approx(
            math.exp(-400 * cramer_transform(1.5)), rel=1e-12
        )
        assert exact == pytest.approx(float(chi2.sf(600.0, df=400)), rel=1e-12)
        # Chernoff direction: the rate bound dominates the exact tail
        assert upper >= exact

    def test_exact_rate_approaches_cramer(self):
        lam = cramer_transform(1.5)
        rates = []
        for n in (100, 200, 400, 800):
            _, exact = chi_square_tail_rate(1.5, n)
            rates.append(-math.log(exact) / n)
        assert all(a > b for a, b in zip(rates, rates[1:]))
        assert all(r > lam for r in rates)
        # at n = 400 the exact rate still sits ~15.4% above the limit rate
        assert rates[2] == pytest.approx(0.054527, abs=1e-5)
        assert 0.14 < rates[2] / lam - 1.0 < 0.16

    def test_tail_rate_domain(self):
        with pytest.raises(ValueError):
            chi_square_tail_rate(1.0, 10)
        with pytest.raises(ValueError):
            chi_square_tail_rate(0.8, 10)
        with pytest.raises(ValueError):
            chi_square_tail_rate(1.5, 0)


class TestMills:
    def test_hand_values(self):
        lower, upper = mills(1.0)
        assert upper == pytest.approx(2.0 * norm.pdf(1.0), rel=1e-12)
        assert upper == pytest.approx(0.483941, abs=1e-6)
        assert lower == pytest.approx(norm.pdf(1.0), rel=1e-12)

    def test_sandwich_brackets_doubled_tail(self):
        for z in np.logspace(-1, 1, 40):
            lower, upper = mills(float(z))
            target = 2.0 * gaussian(float(z)).tail
            assert lower <= target <= upper

    def test_tightens_in_the_tail(self):
        lower, upper = mills(10.0)
        assert upper / lower == pytest.approx(1.01, rel=1e-3)

    def test_domain(self):
        with pytest.raises(ValueError):
            mills(0.0)
        with pytest.raises(ValueError):
            mills(-2.0)


class TestSoggeExponent:
    def test_reference_points(self):
        assert sogge_exponent(4.0) == pytest.approx(0.125, rel=1e-12)
        assert sogge_exponent(math.inf) == pytest.approx(0.5, rel=1e-12)

    def test_continuous_at_kink(self):
        small = 0.5 * (0.5 - 1.0 / 6.0)
        large = 2.0 * (0.5 - 1.0 / 6.0) - 0.5
        assert small == pytest.approx(1.0 / 6.0, rel=1e-12)
        assert large == pytest.approx(1.0 / 6.0, rel=1e-12)
        assert sogge_exponent(6.0) == pytest.approx(1.0 / 6.0, rel=1e-12)
        assert sogge_exponent(6.0 - 1e-9) == pytest.approx(1.0 / 6.0, abs=1e-9)
        assert sogge_exponent(6.0 + 1e-9) == pytest.approx(1.0 / 6.0, abs=1e-9)

    def test_monotone(self):
        ps = [2.1, 3.0, 4.0, 5.5, 6.0, 8.0, 16.0, 100.0, math.inf]
        vals = [sogge_exponent(p) for p in ps]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            sogge_exponent(2.0)
        with pytest.raises(ValueError):
            sogge_exponent(1.0)


class TestDensityRatioBound:
    def test_hand_value(self):
        # 2 * (1/(0.1 * 0.125) + 1/(100 * 0.25)) = 2 * (80 + 0.04)
        assert density_ratio_bound(0.5, 100, 0.1, 2.0) == pytest.approx(
            160.08, rel=1e-12
        )

    def test_domain(self):
        with pytest.raises(ValueError):
            density_ratio_bound(0.0, 100, 0.1, 2.0)
        with pytest.raises(ValueError):
            density_ratio_bound(0.5, 0, 0.1, 2.0)
        with pytest.raises(ValueError):
            density_ratio_bound(0.5, 100, 0.0, 2.0)
        with pytest.raises(ValueError):
            density_ratio_bound(0.5, 100, 0.1, 0.0)


class TestRegistryAndReports:
    def test_registry_shape(self):
        assert len(REGISTRY) >= 15
        for name, (fn, anchor) in REGISTRY.items():
            assert callable(fn)
            assert anchor.strip()
            # every argument is named and required, so the signature alone
            # says what ``evaluate_bound`` and the command line must supply
            for param in inspect.signature(fn).parameters.values():
                assert param.default is inspect.Parameter.empty, (name, param)
                assert param.kind not in (
                    inspect.Parameter.VAR_POSITIONAL,
                    inspect.Parameter.VAR_KEYWORD,
                ), (name, param)

    def test_integer_arguments_from_annotations(self):
        from sphex.theory import _int_args

        found = {name: _int_args(fn) for name, (fn, _) in REGISTRY.items()}
        assert {name: set(v) for name, v in found.items() if v} == {
            "badset": {"n"},
            "gkf-epc": {"ell"},
            "epc-var": {"ell"},
            "kol-bound": {"n"},
            "kol-rate": {"ell", "dim"},
            "supnorm-tail": {"ell"},
            "supnorm-lower": {"dim"},
            "ldp": {"n"},
            "density-ratio": {"n"},
        }

    def test_evaluate_bound_matches_direct_call(self):
        report = evaluate_bound("badset", epsilon=0.1, n=100, sigma_sq=0.01, c=1.0)
        assert report.bound_value == pytest.approx(8.0, rel=1e-12)
        assert report.name == "badset"
        assert report.inputs["n"] == 100
        assert isinstance(report.inputs["n"], int)

    def test_evaluate_bound_tuple_flattening(self):
        ldp = evaluate_bound("ldp", a=1.5, n=400)
        assert ldp.bound_value == pytest.approx(
            chi_square_tail_rate(1.5, 400)[0], rel=1e-12
        )
        lower = evaluate_bound("supnorm-lower", K=0.1, dim=2)
        assert lower.bound_value == pytest.approx(math.sqrt(2.0 / 26.0), rel=1e-12)

    def test_evaluate_bound_nonnumeric_kind(self):
        report = evaluate_bound("critical-limit", kind="saddle", u=0.0)
        assert report.bound_value == pytest.approx(
            critical_tail(CriticalKind.SADDLE, 0.0), rel=1e-12
        )
        assert "kind" not in report.inputs

    def test_evaluate_bound_errors(self):
        with pytest.raises(KeyError):
            evaluate_bound("no-such-bound", x=1.0)
        with pytest.raises(ValueError):
            evaluate_bound("badset", epsilon=0.1, n=100)

    def test_report_validation(self):
        with pytest.raises(ValueError):
            BoundReport("x", {}, -0.5, "anchor")
        with pytest.raises(ValueError):
            BoundReport("x", {}, 0.5, "")
        with pytest.raises(ValueError):
            BoundReport("x", {}, math.nan, "anchor")
        # cramer is +inf for x <= 0, a valid (vacuous) value
        assert BoundReport("x", {}, math.inf, "anchor").bound_value == math.inf

    def test_report_json_round_trip(self):
        report = evaluate_bound("mills", z=1.0)
        blob = json.loads(report.to_json())
        assert blob["name"] == "mills"
        assert blob["anchor"] == report.anchor
        assert blob["bound_value"] == pytest.approx(report.bound_value)
        assert blob["inputs"] == {"z": 1.0}
