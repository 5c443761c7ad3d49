"""Monte Carlo harness: configs, determinism, record schema, estimators.

The heavier statistical claims live in the acceptance module; here the
campaigns run at toy sizes and the assertions target the plumbing that
the acceptance run then relies on — bit-reproducibility, stream
independence between cells, exact theory columns, and the CSV/JSON
output contract.
"""

import dataclasses
import hashlib
import json
import math
import re
import weakref

import numpy as np
import pytest
from scipy.stats import binomtest

from sphex import harness, theory
from sphex.excursion import kolmogorov_distance
from sphex.harmonics import sample_gaussian, stream
from sphex.harness import (
    CSV_HEADER,
    KINDS,
    ExperimentConfig,
    RateFit,
    fit_rate,
    mesh_agreement,
    parse_config_file,
    run_config_file,
    run_experiment,
    wilson_interval,
    write_rates_csv,
    write_record_csv,
    write_sidecar_json,
)
from sphex.specfun import eigenspace_dim


def small_config(**overrides) -> ExperimentConfig:
    base = dict(
        kind="variance_scaling",
        ell_list=[2, 3, 4],
        seed=42,
        replicates=40,
        grid_density=8,
        u_list=[0.0, 1.0],
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def csv_lines_without_seconds(path) -> list[str]:
    with open(path) as fh:
        return [line.rstrip("\n").rsplit(",", 1)[0] for line in fh]


class TestConfigValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            small_config(kind="bogus")

    def test_ell_list_rules(self):
        with pytest.raises(ValueError):
            small_config(ell_list=[])
        with pytest.raises(ValueError):
            small_config(ell_list=[4, 4])
        with pytest.raises(ValueError):
            small_config(ell_list=[8, 2])

    def test_ldp_rules(self):
        with pytest.raises(ValueError):
            small_config(kind="ldp", n_list=None)
        with pytest.raises(ValueError):
            small_config(kind="ldp", n_list=[200, 100])
        with pytest.raises(ValueError):
            small_config(kind="ldp", n_list=[100, 200], a=1.0)
        cfg = small_config(kind="ldp", n_list=[100, 200], a=1.5)
        assert cfg.n_list == [100, 200]

    def test_scalar_rules(self):
        with pytest.raises(ValueError):
            small_config(replicates=29)
        with pytest.raises(ValueError):
            small_config(dim=1)
        with pytest.raises(ValueError):
            small_config(grid_density=0)
        with pytest.raises(ValueError):
            small_config(u_list=[])
        with pytest.raises(ValueError):
            small_config(centering="center-of-mass")
        with pytest.raises(ValueError):
            small_config(kind="nongaussian", model=None)
        with pytest.raises(ValueError):
            small_config(epsilon_sweep=[1.0, -0.5])

    def test_epsilon_rule(self):
        cfg = small_config(epsilon_rule="const:0.25")
        assert cfg.epsilon_base(10) == 0.25
        assert cfg.epsilon_base(1000) == 0.25
        cfg = small_config(epsilon_rule="pow:3.0")
        assert cfg.epsilon_base(27) == pytest.approx(1.0, rel=1e-12)
        for bad in ("pow", "xyz:1", "const:-1", "const:"):
            with pytest.raises(ValueError):
                small_config(epsilon_rule=bad)

    def test_config_hash_tracks_fields(self):
        a, b = small_config(), small_config()
        assert a.config_hash() == b.config_hash()
        assert small_config(seed=43).config_hash() != a.config_hash()
        assert re.fullmatch(r"[0-9a-f]{16}", a.config_hash())


class TestRateFit:
    def test_recovers_exact_power_law(self):
        pairs = [(float(x), 2.5 * float(x) ** -0.7) for x in (2, 4, 8, 16, 32)]
        fit = fit_rate(pairs)
        assert fit.slope == pytest.approx(-0.7, rel=1e-10)
        assert fit.intercept == pytest.approx(math.log(2.5), rel=1e-10)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert len(fit.points) == 5

    def test_input_walls(self):
        with pytest.raises(ValueError):
            fit_rate([(1.0, 1.0), (2.0, 0.5)])
        with pytest.raises(ValueError):
            fit_rate([(1.0, 1.0), (2.0, -0.5), (3.0, 0.2)])
        with pytest.raises(ValueError):
            fit_rate([(2.0, 1.0), (2.0, 0.5), (2.0, 0.2)])

    def test_ratefit_validation(self):
        with pytest.raises(ValueError):
            RateFit(1.0, 0.0, 0.5, [(0.0, 0.0)])
        with pytest.raises(ValueError):
            RateFit(1.0, 0.0, 1.5, [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)])
        fit = RateFit(1.0, 0.0, -1e-12, [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)])
        assert fit.r_squared == 0.0


class TestWilson:
    def test_matches_scipy(self):
        for k, n in ((0, 50), (3, 50), (25, 50), (50, 50), (7, 200), (0, 100)):
            lo, hi = wilson_interval(k, n)
            ci = binomtest(k, n).proportion_ci(confidence_level=0.95,
                                               method="wilson")
            assert lo == pytest.approx(ci.low, abs=1e-12)
            assert hi == pytest.approx(ci.high, abs=1e-12)
            if k == 0:
                assert lo == 0.0
            if k == n:
                assert hi == 1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            wilson_interval(0, 0)


@pytest.fixture(scope="module")
def variance_record():
    return run_experiment(small_config())


@pytest.fixture(scope="module")
def bad_set_record():
    cfg = small_config(
        kind="bad_set",
        ell_list=[3],
        replicates=60,
        u_list=[-0.5, 0.0, 0.5],
        epsilon_rule="const:0.02",
        epsilon_sweep=[0.5, 1.0, 2.0],
    )
    return run_experiment(cfg)


@pytest.fixture(scope="module")
def kol_record():
    cfg = small_config(
        kind="kol_decay",
        ell_list=[2, 3, 4],
        replicates=40,
        epsilon_rule="const:0.05",
    )
    return run_experiment(cfg)


@pytest.fixture(scope="module")
def supnorm_record():
    cfg = small_config(
        kind="supnorm", ell_list=[2, 3, 4], replicates=30, grid_density=10
    )
    return run_experiment(cfg)


@pytest.fixture(scope="module")
def ldp_record():
    cfg = small_config(
        kind="ldp", n_list=[100, 200, 400], replicates=4000, a=1.5
    )
    return run_experiment(cfg)


class TestVarianceScaling:

    def test_row_inventory(self, variance_record):
        kinds = {(r.kind, r.ell, r.u) for r in variance_record.rows}
        for ell in (2, 3, 4):
            for u in (0.0, 1.0):
                assert ("variance_scaling", ell, u) in kinds
                assert ("variance_scaling_mean", ell, u) in kinds
        assert len(variance_record.rows) == 12

    def test_theory_column_exact(self, variance_record):
        for row in variance_record.rows:
            if row.kind == "variance_scaling_mean":
                assert row.theory == theory.excursion_mean_limit(row.u)
            else:
                assert row.theory is None

    def test_rate_points_use_dimension(self, variance_record):
        assert [p[0] for p in variance_record.rate_points] == [5.0, 7.0, 9.0]
        assert variance_record.fit is not None
        assert "variance_slope" in variance_record.constants
        assert "variance_r_squared" in variance_record.constants

    def test_estimates_sane(self, variance_record):
        for row in variance_record.rows:
            if row.kind == "variance_scaling_mean" and row.u == 0.0:
                # centered level: mean volume is 1/2 to within a few SE
                assert abs(row.estimate - 0.5) < 5 * row.stderr + 1e-3


class TestDeterminism:
    def test_rerun_is_byte_identical_modulo_seconds(self, tmp_path):
        cfg = small_config()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_record_csv(run_experiment(cfg), str(a))
        write_record_csv(run_experiment(cfg), str(b))
        assert csv_lines_without_seconds(a) == csv_lines_without_seconds(b)

    def test_seed_changes_rows(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_record_csv(run_experiment(small_config(seed=1)), str(a))
        write_record_csv(run_experiment(small_config(seed=2)), str(b))
        assert csv_lines_without_seconds(a) != csv_lines_without_seconds(b)

    def test_ell_cells_do_not_share_streams(self):
        joint = run_experiment(small_config(ell_list=[2, 4], u_list=[0.0]))
        alone = run_experiment(small_config(ell_list=[4], u_list=[0.0]))
        pick = lambda rec, kind: next(
            r for r in rec.rows if r.kind == kind and r.ell == 4
        )
        for kind in ("variance_scaling", "variance_scaling_mean"):
            assert pick(joint, kind).estimate == pick(alone, kind).estimate
            assert pick(joint, kind).stderr == pick(alone, kind).stderr

    def test_u_cells_share_samples(self):
        narrow = run_experiment(small_config(u_list=[0.0]))
        wide = run_experiment(small_config(u_list=[-1.0, 0.0, 1.0]))
        pick = lambda rec: next(
            r for r in rec.rows
            if r.kind == "variance_scaling" and r.ell == 3 and r.u == 0.0
        )
        assert pick(narrow).estimate == pick(wide).estimate


class TestBadSet:

    def test_exceedance_monotone_in_epsilon(self, bad_set_record):
        for u in (-0.5, 0.0, 0.5):
            rows = sorted(
                (r for r in bad_set_record.rows if r.kind == "bad_set" and r.u == u),
                key=lambda r: r.epsilon,
            )
            assert len(rows) == 3
            fracs = [r.estimate for r in rows]
            assert all(a >= b for a, b in zip(fracs, fracs[1:]))

    def test_theory_column_recomputes(self, bad_set_record):
        info = bad_set_record.constants["per_ell"]["3"]
        n = eigenspace_dim(3, 2)
        for row in bad_set_record.rows:
            want = theory.bad_set_bound(
                row.epsilon, n, info["sigma_sq_sup"], info["c_hat"]
            )
            assert row.theory == pytest.approx(want, rel=1e-12)

    def test_constants_inventory(self, bad_set_record):
        info = bad_set_record.constants["per_ell"]["3"]
        assert set(info["pilot_mean"]) == {"-0.5", "0.0", "0.5"}
        assert len(info["wilson_intervals"]) == 9
        assert len(info["local_bounds"]) == 9
        assert isinstance(info["vacuous_bound"], bool)

    def test_epsilon_capped_below_one(self):
        cfg = small_config(
            kind="bad_set",
            ell_list=[2],
            replicates=30,
            u_list=[0.0],
            epsilon_rule="const:0.9",
            epsilon_sweep=[5.0],
        )
        bad_set_record = run_experiment(cfg)
        row = next(r for r in bad_set_record.rows if r.kind == "bad_set")
        assert row.epsilon == 1.0 - 1e-9
        assert row.estimate == 0.0  # a [0,1]-valued statistic cannot exceed it


class TestKolDecay:

    def test_theory_column_is_power_law(self, kol_record):
        for row in kol_record.rows:
            if row.kind == "kol_decay":
                assert row.theory == pytest.approx(
                    float(row.ell) ** (-1.0 / 3.0), rel=1e-12
                )

    def test_exceedance_bound_column(self, kol_record):
        for row in kol_record.rows:
            if row.kind == "kol_decay_exceedance":
                n = eigenspace_dim(row.ell, 2)
                assert row.theory == pytest.approx(
                    theory.kolmogorov_measure_bound(n, row.epsilon, 1.0),
                    rel=1e-12,
                )

    def test_fit_and_constants(self, kol_record):
        assert kol_record.fit is not None
        assert kol_record.constants["theory_exponent"] == pytest.approx(-1.0 / 3.0)
        assert "kol_slope" in kol_record.constants
        # K_hat is the largest exceedance * n * eps^3 over the exceedance
        # rows in row order, with the ell of the first row attaining it
        best = None
        for r in kol_record.rows:
            if r.kind == "kol_decay_exceedance":
                val = r.estimate * eigenspace_dim(r.ell, r.dim) * r.epsilon**3
                if best is None or val > best[0]:
                    best = (val, r.ell)
        constants = kol_record.constants
        assert (constants["K_hat"], constants["K_hat_ell"]) == best

    def test_distance_decreases(self, kol_record):
        means = [r.estimate for r in kol_record.rows if r.kind == "kol_decay"]
        assert means[0] > means[-1]

    def test_vacuous_eps_listed(self, kol_record):
        # const:0.05 never reaches 1
        for entry in kol_record.constants["per_ell"].values():
            assert entry["vacuous_eps"] == []
        # pow:3.0 gives eps = 3 n^(-1/3): n = 17, 25 at ell 8, 12 (eps >= 1
        # at the first multiplier), n = 33 at ell 16 (eps = 0.935, 1.871)
        record = run_experiment(small_config(
            kind="kol_decay", ell_list=[8, 12, 16], replicates=30,
            epsilon_rule="pow:3.0", epsilon_sweep=[1.0, 2.0],
        ))
        per_ell = record.constants["per_ell"]
        assert per_ell["8"]["vacuous_eps"] == ["eps=1.16673", "eps=2.33347"]
        assert per_ell["12"]["vacuous_eps"] == ["eps=1.02599", "eps=2.05197"]
        assert per_ell["16"]["vacuous_eps"] == ["eps=1.8706"]
        for ell, entry in per_ell.items():
            assert set(entry["vacuous_eps"]) <= set(entry["wilson_intervals"])
        vacuous_rows = [r for r in record.rows
                        if r.kind == "kol_decay_exceedance" and r.epsilon >= 1.0]
        assert len(vacuous_rows) == 5
        assert all(r.estimate == 0.0 for r in vacuous_rows)

    def test_d3_cell_frees_its_simulator_before_the_next(self, monkeypatch):
        # each simulator holds an N x n factor, so two alive at once double
        # the peak memory of a d >= 3 sweep
        built, alive_at_build = [], []

        class TrackedSimulator(harness.GramSimulator):
            def __init__(self, level, points):
                alive_at_build.append(sum(ref() is not None for ref in built))
                super().__init__(level, points)
                built.append(weakref.ref(self))

        monkeypatch.setattr(harness, "GramSimulator", TrackedSimulator)
        run_experiment(small_config(kind="kol_decay", ell_list=[2, 3, 4], dim=3,
                                    replicates=30))
        assert alive_at_build == [0, 0, 0]

    def test_d3_fields_are_the_factor_times_each_replicates_normals(self, monkeypatch):
        # field r is sqrt(n) radius L @ alpha of the Gaussian coefficients
        # drawn from replicate r's own stream
        sims, fields = [], []

        class TrackedSimulator(harness.GramSimulator):
            def __init__(self, level, points):
                super().__init__(level, points)
                sims.append(self)

        def recording_distance(sample):
            fields.append(sample.values)
            return kolmogorov_distance(sample)

        monkeypatch.setattr(harness, "GramSimulator", TrackedSimulator)
        monkeypatch.setattr(harness, "kolmogorov_distance", recording_distance)
        config = small_config(kind="kol_decay", ell_list=[2, 3], dim=3, replicates=30)
        run_experiment(config)
        assert len(fields) == 60
        for ell, sim, cell_fields in zip(config.ell_list, sims, (fields[:30], fields[30:])):
            for rep, values in enumerate(cell_fields):
                rng = stream(config.seed, rep, f"kol_decay:ell={ell}")
                cv = sample_gaussian(sim.level, rng)
                expected = math.sqrt(sim.level.n) * cv.radius * (sim.factor @ cv.alpha)
                np.testing.assert_allclose(values, expected, rtol=0, atol=1e-12)

    def test_d3_sidecar_certifies_each_factor(self):
        record = run_experiment(small_config(kind="kol_decay", ell_list=[2, 3, 4],
                                             dim=3, replicates=30))
        for ell, entry in record.constants["per_ell"].items():
            assert entry["rank"] == eigenspace_dim(int(ell), 3)
            assert 0.0 <= entry["residual"] <= 1e-9


class TestSupnorm:

    def test_row_kinds(self, supnorm_record):
        kinds = [r.kind for r in supnorm_record.rows]
        assert kinds.count("supnorm") == 3
        assert kinds.count("supnorm_tail") == 3
        assert kinds.count("supnorm_lower") == 3

    def test_m_hat_is_max_normalized_mean(self, supnorm_record):
        by_hand = max(
            r.estimate / math.sqrt(math.log(r.ell))
            for r in supnorm_record.rows
            if r.kind == "supnorm"
        )
        assert supnorm_record.constants["M_hat"] == pytest.approx(by_hand, rel=1e-12)

    def test_tail_rows_use_run_constant(self, supnorm_record):
        m_hat = supnorm_record.constants["M_hat"]
        for row in supnorm_record.rows:
            if row.kind == "supnorm_tail":
                threshold, bound = theory.sup_norm_tail_bound(m_hat, 1.0, row.ell)
                assert row.epsilon == pytest.approx(threshold, rel=1e-12)
                assert row.theory == pytest.approx(bound, rel=1e-12)

    def test_lower_threshold_inside_window(self, supnorm_record):
        k_max, _ = theory.sup_norm_lower_params(0.0, 2)
        assert supnorm_record.constants["K_lower"] == pytest.approx(0.9 * k_max)


class TestLdp:

    def test_row_schema(self, ldp_record):
        assert [r.ell for r in ldp_record.rows] == [100, 200, 400]
        for row in ldp_record.rows:
            assert row.kind == "ldp"
            assert row.dim == 0
            assert row.u == 1.5
            assert row.theory == pytest.approx(
                theory.cramer_transform(1.5), rel=1e-12
            )

    def test_rates_track_exact_values(self, ldp_record):
        for row in ldp_record.rows:
            info = ldp_record.constants["per_n"][str(row.ell)]
            assert row.estimate == pytest.approx(
                info["exact_rate"], abs=5 * row.stderr + 1e-4
            )
            # Chernoff bound stays above the exact probability
            assert info["upper_probability_bound"] >= info["exact_probability"]

    def test_rates_decrease_toward_limit(self, ldp_record):
        rates = [r.estimate for r in ldp_record.rows]
        lam = ldp_record.constants["lambda_star"]
        assert all(a > b for a, b in zip(rates, rates[1:]))
        assert all(r > lam for r in rates)


class TestNonGaussian:
    def test_identity_model_reproduces_baseline(self):
        cfg = small_config(
            kind="nongaussian",
            ell_list=[3],
            replicates=60,
            u_list=[0.0, 1.0],
            model="mixture:1",
        )
        record = run_experiment(cfg)
        model = next(r for r in record.rows if r.kind == "nongaussian")
        base = next(r for r in record.rows if r.kind == "nongaussian_baseline")
        # matched streams: the unit mixture consumes identical draws, so
        # the deviation samples agree bitwise, not just statistically
        assert model.estimate == base.estimate
        assert model.stderr == base.stderr
        info = record.constants["per_ell"]["3"]
        assert info["ks_stat"] == 0.0
        assert info["ks_pvalue"] == 1.0
        assert info["frac_model_within_q95"] >= 0.95


class TestCriticalCampaigns:
    def test_critical_density_rows(self):
        cfg = small_config(
            kind="critical_density",
            ell_list=[2],
            replicates=30,
            u_list=[-40.0, 0.0],
        )
        record = run_experiment(cfg)
        labels = {r.kind for r in record.rows}
        assert labels == {
            "critical_density_c",
            "critical_density_e",
            "critical_density_s",
        }
        kind_of = {"c": "critical", "e": "extremum", "s": "saddle"}
        for row in record.rows:
            want = theory.critical_count_limit(
                kind_of[row.kind.rsplit("_", 1)[1]], row.u
            )
            assert row.theory == pytest.approx(want, rel=1e-12)
        # every nondegenerate degree-2 field has exactly 2 minima, 2 saddles
        # and 2 maxima, so the u -> -inf densities are deterministic: 6/4,
        # 4/4 and 2/4 with zero spread
        deep = {r.kind: r for r in record.rows if r.u == -40.0}
        assert deep["critical_density_c"].estimate == 1.5
        assert deep["critical_density_e"].estimate == 1.0
        assert deep["critical_density_s"].estimate == 0.5
        assert all(r.stderr == 0.0 for r in deep.values())
        # counts partition at every level: critical = extremum + saddle
        mid = {r.kind: r for r in record.rows if r.u == 0.0}
        assert mid["critical_density_c"].estimate == pytest.approx(
            mid["critical_density_e"].estimate
            + mid["critical_density_s"].estimate,
            abs=1e-12,
        )

    def test_epc_rows_and_exact_checks(self):
        cfg = small_config(
            kind="epc", ell_list=[3], replicates=30, u_list=[-1.0, 1.0]
        )
        record = run_experiment(cfg)
        assert record.constants["exact_check_failures"] == 0
        rows = [r for r in record.rows if r.kind == "epc"]
        assert {r.u for r in rows} == {-1.0, 1.0}
        for row in rows:
            assert row.theory == pytest.approx(theory.epc_limit(row.u), rel=1e-12)

    def test_degenerate_fraction_guard(self, monkeypatch):
        class _AlwaysDegenerate:
            degenerate_flag = True

        monkeypatch.setattr(
            "sphex.harness.find_critical_points",
            lambda coeffs: _AlwaysDegenerate(),
        )
        with pytest.raises(RuntimeError, match="degenerate"):
            run_experiment(
                small_config(kind="epc", ell_list=[2], replicates=30,
                             u_list=[0.0])
            )


class TestMeshAgreement:
    def test_smoke(self):
        out = mesh_agreement(5, (-1.0, 0.0, 1.0), samples=6, subdivision=5,
                             seed=11)
        assert set(out) == {"agreement", "cells", "degenerate"}
        assert out["cells"] == 3 * (6 - out["degenerate"])
        assert 0.0 <= out["agreement"] <= 1.0
        assert out["agreement"] >= 2.0 / 3.0


class TestPersistence:

    def test_csv_schema(self, variance_record, tmp_path):
        path = tmp_path / "out.csv"
        write_record_csv(variance_record, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(variance_record.rows)
        for line in lines[1:]:
            cells = line.split(",")
            assert len(cells) == 11
            float(cells[5]); float(cells[6])  # estimate, stderr parse
            assert re.fullmatch(r"\d+\.\d{3}", cells[10])  # seconds format

    def test_float_format_round_trips(self, variance_record, tmp_path):
        path = tmp_path / "out.csv"
        write_record_csv(variance_record, str(path))
        lines = path.read_text().splitlines()[1:]
        for row, line in zip(variance_record.rows, lines):
            cells = line.split(",")
            assert float(cells[5]) == row.estimate
            assert float(cells[6]) == row.stderr
            if row.theory is not None:
                assert float(cells[7]) == row.theory

    def test_sidecar_contents_and_determinism(self, variance_record, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_sidecar_json(variance_record, str(a))
        write_sidecar_json(variance_record, str(b))
        assert a.read_bytes() == b.read_bytes()
        blob = json.loads(a.read_text())
        assert set(blob) == {
            "kind", "config_hash", "seed", "version", "constants", "fit"
        }
        assert blob["kind"] == "variance_scaling"
        assert blob["config_hash"] == variance_record.config_hash
        assert blob["fit"]["slope"] == variance_record.fit.slope

    def test_rates_csv_only_with_fit(self, variance_record, tmp_path):
        path = tmp_path / "rates.csv"
        assert write_rates_csv(variance_record, str(path)) is True
        lines = path.read_text().splitlines()
        assert lines[0] == "x,y,fit_slope,fit_intercept"
        assert len(lines) == 1 + len(variance_record.rate_points)
        short = run_experiment(small_config(ell_list=[2], u_list=[0.0]))
        assert short.fit is None
        assert write_rates_csv(short, str(tmp_path / "no.csv")) is False
        assert not (tmp_path / "no.csv").exists()


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(
            "[variance_scaling]\n"
            "ell_list = 2, 4, 8\n"
            "u_list = -1.0, 0.0, 1.0\n"
            "seed = 7\n"
            "replicates = 50\n"
            "grid_density = 12\n"
            "epsilon_rule = const:0.1\n"
            "epsilon_sweep = 0.5, 1.0\n"
            "centering = analytic\n"
            "\n"
            "[ldp]\n"
            "n_list = 100, 200, 400\n"
            "a = 1.5\n"
            "seed = 7\n"
            "replicates = 1000\n"
        )
        configs = parse_config_file(str(path))
        assert [c.kind for c in configs] == ["variance_scaling", "ldp"]
        vs, ldp = configs
        assert vs.ell_list == [2, 4, 8]
        assert vs.u_list == [-1.0, 0.0, 1.0]
        assert vs.epsilon_rule == "const:0.1"
        assert vs.centering == "analytic"
        assert ldp.n_list == [100, 200, 400]
        assert ldp.a == 1.5

    def test_every_field_round_trips(self, tmp_path):
        config = ExperimentConfig(
            kind="kol_decay", ell_list=[3, 5], seed=11, replicates=40, dim=3,
            u_list=[-0.5, 0.25], grid_density=7, model="student:5",
            epsilon_rule="const:0.2", epsilon_sweep=[0.5, 2.0],
            centering="analytic", n_list=[10, 20], a=2.5, grid_cap=1234,
        )
        lines = [f"[{config.kind}]"]
        for f in dataclasses.fields(config):
            value = getattr(config, f.name)
            default = (f.default if f.default_factory is dataclasses.MISSING
                       else f.default_factory())
            assert value != default, f"{f.name} keeps its default"
            if f.name != "kind":
                text = ", ".join(map(str, value)) if isinstance(value, list) else value
                lines.append(f"{f.name} = {text}")
        path = tmp_path / "exp.ini"
        path.write_text("\n".join(lines) + "\n")
        assert parse_config_file(str(path)) == [config]

    def test_error_paths(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            parse_config_file(str(tmp_path / "missing.ini"))
        empty = tmp_path / "empty.ini"
        empty.write_text("")
        with pytest.raises(ValueError, match="no experiments"):
            parse_config_file(str(empty))
        bad_key = tmp_path / "key.ini"
        bad_key.write_text("[epc]\nell_list = 2\nseed = 1\nreplicates = 30\nfoo = 1\n")
        with pytest.raises(ValueError, match="unknown config key"):
            parse_config_file(str(bad_key))
        kind_key = tmp_path / "kind.ini"  # the section name is the kind
        kind_key.write_text("[epc]\nkind = epc\nell_list = 2\nseed = 1\nreplicates = 30\n")
        with pytest.raises(ValueError, match="unknown config key 'kind' in \\[epc\\]"):
            parse_config_file(str(kind_key))
        bad_section = tmp_path / "sect.ini"
        bad_section.write_text("[warp_drive]\nseed = 1\n")
        with pytest.raises(ValueError, match="unknown experiment kind"):
            parse_config_file(str(bad_section))
        no_ells = tmp_path / "noells.ini"
        no_ells.write_text("[epc]\nseed = 1\nreplicates = 30\n")
        with pytest.raises(ValueError, match="requires ell_list"):
            parse_config_file(str(no_ells))

    def test_run_config_file(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(
            "[variance_scaling]\n"
            "ell_list = 2, 3, 4\n"
            "seed = 5\n"
            "replicates = 30\n"
            "grid_density = 4\n"
        )
        out = tmp_path / "out"
        written = run_config_file(str(path), str(out))
        names = sorted(p.rsplit("/", 1)[1] for p in written)
        assert names == [
            "variance_scaling.csv",
            "variance_scaling.json",
            "variance_scaling_rates.csv",
        ]
        blob = json.loads((out / "variance_scaling.json").read_text())
        assert blob["seed"] == 5
        override = run_config_file(str(path), str(tmp_path / "out2"),
                                   seed_override=9)
        blob2 = json.loads(
            (tmp_path / "out2" / "variance_scaling.json").read_text()
        )
        assert blob2["seed"] == 9
        assert blob2["config_hash"] != blob["config_hash"]


class TestCriticalGolden:
    """Byte contract of the critical-point campaigns at a fixed seed.

    The CSV (minus the ``seconds`` column) and the JSON sidecar of small
    epc and critical_density campaigns are pinned by SHA-256.  Both are
    built from integer critical-point counts and closed-form limits, so
    the digests do not depend on BLAS rounding; any change to how critical
    points are found or classified that moves a single count shows here.
    """

    GOLDEN = {
        "epc.csv": (
            "ed3af2edf1b23c933d927149457879a2f459b13e664ee014247fc66e88b687c1"
        ),
        "epc.json": (
            "5a357f349dc68ad4f0789df350efb45b3baa04ad331b64e6d52d24530c0b1226"
        ),
        "critical_density.csv": (
            "8b0f8dc806aa5ca8b500eb93522d871bd8b1c26f180aefbbb6eccb6a729bf6dd"
        ),
        "critical_density.json": (
            "122f00440e4ade73812d72d116333dc696bf86628aa102e95181626d7b1dd621"
        ),
    }

    def test_outputs_match_pinned_digests(self, tmp_path):
        path = tmp_path / "golden.ini"
        path.write_text(
            "".join(
                f"[{kind}]\n"
                "ell_list = 6, 8, 10\n"
                "u_list = -1.0, 0.0, 1.0\n"
                "seed = 2015\n"
                "replicates = 30\n\n"
                for kind in ("epc", "critical_density")
            )
        )
        out = tmp_path / "out"
        run_config_file(str(path), str(out))
        digests = {}
        for name in self.GOLDEN:
            if name.endswith(".csv"):
                blob = "\n".join(csv_lines_without_seconds(out / name)).encode()
            else:
                blob = (out / name).read_bytes()
            digests[name] = hashlib.sha256(blob).hexdigest()
        assert digests == self.GOLDEN


class TestGridGolden:
    """Byte contract of the grid campaigns at a fixed seed.

    The record CSVs (minus the ``seconds`` column), the JSON sidecars and
    the rate CSVs (which carry no timing) of small variance_scaling,
    kol_decay and supnorm campaigns are pinned by SHA-256.  They depend on
    every value ``evaluate_grid`` returns, so any change to the arithmetic
    of grid evaluation, of the replicate loop or of the functionals shows
    here.  At these degrees the digests are the same with 1 or 2 BLAS
    threads.
    """

    GOLDEN = {
        "variance_scaling.csv": (
            "e412d3d3772a99aab11bd8be945db5276616eadbc922232cd10c3151e7f4c616"
        ),
        "variance_scaling.json": (
            "ce2444621b7ce1115fb531bf04977d921930700d1b1a1e8f754af6dd085317dd"
        ),
        "variance_scaling_rates.csv": (
            "3631eba932c182a2473d50a2f7a04d377f655c27c9bca54635c34d9a85686e29"
        ),
        "kol_decay.csv": (
            "648fa997acacfd1ce7209eb64944afa288e0ea8bb011b01c58da9188a69d758a"
        ),
        "kol_decay.json": (
            "f902b61440d6f7e0acd4460d9763fc43d83fcfcf764a783996caffc94aea57a7"
        ),
        "kol_decay_rates.csv": (
            "25b9a15546280adc888c306c6b44094843851ee07060016e7ddffd87fe2a83de"
        ),
        "supnorm.csv": (
            "15c67799f9beb8416c649d22c9a70dac947445d926aa2ab8c1cb1cd592c9d9e9"
        ),
        "supnorm.json": (
            "f7330d6a777e8a83001bce50ce640cb1d239ca14750b0d6a46261022f9e9d25f"
        ),
    }

    def test_outputs_match_pinned_digests(self, tmp_path):
        path = tmp_path / "golden.ini"
        sections = {
            "variance_scaling": "u_list = -1.0, 0.0, 1.0\n",
            "kol_decay": "",
            "supnorm": "",
        }
        path.write_text(
            "".join(
                f"[{kind}]\n"
                "ell_list = 8, 12, 16\n"
                f"{extra}"
                "seed = 2015\n"
                "replicates = 30\n\n"
                for kind, extra in sections.items()
            )
        )
        out = tmp_path / "out"
        written = run_config_file(str(path), str(out))
        assert sorted(p.rsplit("/", 1)[1] for p in written) == sorted(self.GOLDEN)
        digests = {}
        for name in self.GOLDEN:
            if name.endswith("_rates.csv") or name.endswith(".json"):
                blob = (out / name).read_bytes()
            else:
                blob = "\n".join(csv_lines_without_seconds(out / name)).encode()
            digests[name] = hashlib.sha256(blob).hexdigest()
        assert digests == self.GOLDEN


class TestSolidGolden:
    """Byte contract of a d=3 kol_decay campaign at a fixed seed.

    The record CSV (minus the ``seconds`` column), the JSON sidecar and the
    rate CSV of a 400-point S^3 campaign are pinned by SHA-256, so a change
    to the banded point set, the pivoted factor or how a replicate draws
    its coefficients shows here.  The digests are the same with 1 or 2
    BLAS threads.
    """

    GOLDEN = {
        "kol_decay.csv": (
            "a80258e986044f23e6fd8868b802073b0734dafca59e32fc50235d13dea06f2a"
        ),
        "kol_decay.json": (
            "8087bc037be0584560f3e9ff5ca2a77565bfa9123e60e641c72131456a7e0f82"
        ),
        "kol_decay_rates.csv": (
            "8dd988fcecd544d26b5b580ff4342848e34915aeecf25d047da662722dd261ac"
        ),
    }

    def test_outputs_match_pinned_digests(self, tmp_path):
        path = tmp_path / "golden.ini"
        path.write_text("[kol_decay]\nell_list = 4, 6, 8\ndim = 3\ngrid_cap = 400\n"
                        "seed = 2015\nreplicates = 30\n")
        out = tmp_path / "out"
        written = run_config_file(str(path), str(out))
        assert sorted(p.rsplit("/", 1)[1] for p in written) == sorted(self.GOLDEN)
        digests = {}
        for name in self.GOLDEN:
            if name.endswith("_rates.csv") or name.endswith(".json"):
                blob = (out / name).read_bytes()
            else:
                blob = "\n".join(csv_lines_without_seconds(out / name)).encode()
            digests[name] = hashlib.sha256(blob).hexdigest()
        assert digests == self.GOLDEN


class TestExceedanceGolden:
    """Byte contract of the bad_set, nongaussian and ldp campaigns.

    The record CSVs (minus the ``seconds`` column) and the JSON sidecars
    of small campaigns are pinned by SHA-256, so a change to how a cell
    counts exceedances, builds its rows or fills its Wilson intervals
    shows here.  None of these kinds writes a rate CSV.  The digests are
    the same with 1 or 2 BLAS threads.
    """

    GOLDEN = {
        "bad_set.csv": (
            "673c7442cd3c0581de690f9542b90d17b1596f0965c7614b605aab792a0539b0"
        ),
        "bad_set.json": (
            "bd72c6088c39aa93994172c7f8e7e6bc3a96c2e0ff3a5ab61b176b2d2386e1c2"
        ),
        "nongaussian.csv": (
            "148f516cd098207a9a8d5c1335448c3798a5cb393be92cbf79dd4c54e6893cdb"
        ),
        "nongaussian.json": (
            "70e5005765a8776766a5e3ecbf6c0884ef3175854a9b7798537e50136c34d6db"
        ),
        "ldp.csv": (
            "f829b2f3cd3ec29fb4775b2b944f5d7caaa0bcd60ddf7e78eb3a8049861f00e5"
        ),
        "ldp.json": (
            "f6c597349203f4eb70195afc7688e49ef851646a954876498cb1b7209a0f2621"
        ),
    }

    def test_outputs_match_pinned_digests(self, tmp_path):
        path = tmp_path / "golden.ini"
        sections = {
            "bad_set": "ell_list = 8, 12, 16\nu_list = -1.0, 0.0, 1.0\n",
            "nongaussian": (
                "model = student:5\n"
                "ell_list = 8, 12, 16\nu_list = -1.0, 0.0, 1.0\n"
            ),
            "ldp": "n_list = 10, 20, 40\n",
        }
        path.write_text(
            "".join(
                f"[{kind}]\n{extra}seed = 2015\nreplicates = 30\n\n"
                for kind, extra in sections.items()
            )
        )
        out = tmp_path / "out"
        written = run_config_file(str(path), str(out))
        assert sorted(p.rsplit("/", 1)[1] for p in written) == sorted(self.GOLDEN)
        digests = {}
        for name in self.GOLDEN:
            if name.endswith(".json"):
                blob = (out / name).read_bytes()
            else:
                blob = "\n".join(csv_lines_without_seconds(out / name)).encode()
            digests[name] = hashlib.sha256(blob).hexdigest()
        assert digests == self.GOLDEN
