"""Seeded Monte Carlo campaigns over the excursion statistics.

Eight experiment kinds reproduce the desk-scale-checkable claims:
``variance_scaling`` (excursion volume variance against eigenspace
dimension), ``bad_set`` (measure of coefficient vectors whose functional
strays from the Gaussian mean), ``kol_decay`` (Kolmogorov distance decay),
``supnorm`` (sup-norm sandwich and constant estimation), ``ldp``
(chi-square radius large deviations), ``nongaussian`` (rescaled limits
under perturbed coefficient laws), ``epc`` (excursion Euler
characteristic) and ``critical_density`` (critical point counts per kind).

Reproducibility contract: every replicate derives its generator from
``harmonics.stream(seed, replicate, purpose)`` where the purpose string
names the kind and cell, so cells may run in any order (or in parallel)
without changing a single draw, and rerunning a config bit-reproduces
every estimate.  A cell's samples are shared across the levels in
``u_list`` (common random numbers); distinct kinds and distinct ell never
share a stream.

Each run emits one CSV of records (fixed header, %.17g floats), a JSON
sidecar carrying the config hash and estimated constants, and, for kinds
with a power-law prediction, a ``rates.csv`` with the fitted slope.  The
``seconds`` column records measured wall time and is therefore the one
column excluded from byte-identity comparisons between repeated runs.
Each (kind, ell) cell also logs its replicate rate at INFO level on the
``sphex`` logger; nothing else depends on it.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import json
import logging
import math
import time
from dataclasses import dataclass, field, fields as dataclass_fields, replace
from typing import (
    Callable, Optional, Sequence, Union, get_args, get_origin, get_type_hints,
)

import numpy as np
from scipy.stats import ks_2samp

from . import theory
from .excursion import (
    CriticalPointSet,
    count_above,
    excursion_volume,
    find_critical_points,
    kolmogorov_distance,
    euler_characteristic_morse,
    euler_characteristic_mesh,
    sup_norm,
)
from .harmonics import (
    CoefficientVector,
    FieldSample,
    GramSimulator,
    NonGaussianModel,
    sample_gaussian,
    sample_nongaussian,
    sample_unit_coefficients,
    stream,
)
from .specfun import CriticalKind, HarmonicLevel, eigenspace_dim, gaussian
from .sphere_geom import SphereGrid, icosphere, iso_latitude_grid, quasi_uniform_grid

__all__ = [
    "ExperimentConfig",
    "ExperimentRecord",
    "RateFit",
    "RecordRow",
    "fit_rate",
    "mesh_agreement",
    "parse_config_file",
    "run_config_file",
    "run_experiment",
    "wilson_interval",
    "write_rates_csv",
    "write_record_csv",
    "write_sidecar_json",
    "KINDS",
]

_log = logging.getLogger("sphex")


@dataclass
class ExperimentConfig:
    """Parameters of one campaign.

    ``epsilon_rule`` is either ``const:<value>`` or ``pow:<s>`` meaning
    epsilon = s * n^(-1/3) at eigenspace dimension n; ``epsilon_sweep``
    lists multipliers applied to the rule's epsilon (bad_set and kol_decay
    report one exceedance row per multiplier).  ``centering`` selects
    whether bad_set deviations are measured from the pilot Gaussian mean
    or from the analytic limit 1 - Phi(u).  ``n_list`` (degrees of
    freedom) and ``a`` (threshold) apply to the ldp kind only, which has
    no sphere in it; its rows store n in the ell column.  Only kol_decay
    runs on S^d for d >= 3; the other sphere kinds use the explicit S^2
    basis.  ``grid_cap`` bounds the point count of d >= 3 simulations,
    where factorizing the Gram matrix is the limiting cost.
    """

    kind: str
    ell_list: list[int]
    seed: int
    replicates: int
    dim: int = 2
    u_list: list[float] = field(default_factory=lambda: [0.0])
    grid_density: int = 20
    model: Optional[str] = None
    epsilon_rule: str = "pow:3.0"
    epsilon_sweep: list[float] = field(default_factory=lambda: [1.0])
    centering: str = "pilot"
    n_list: Optional[list[int]] = None
    a: float = 1.5
    grid_cap: int = 8000

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if self.kind == "ldp":
            if not self.n_list:
                raise ValueError("ldp requires n_list")
            if any(b <= a for a, b in zip(self.n_list, self.n_list[1:])):
                raise ValueError("n_list must be strictly increasing")
            if self.a <= 1.0:
                raise ValueError("ldp threshold a must exceed 1")
        else:
            if not self.ell_list:
                raise ValueError("ell_list must be nonempty")
            if any(b <= a for a, b in zip(self.ell_list, self.ell_list[1:])):
                raise ValueError("ell_list must be strictly increasing")
            if self.kind == "supnorm" and self.ell_list[0] < 2:
                raise ValueError("supnorm needs ell >= 2: it scales by sqrt(log ell)")
        if self.replicates < 30:
            raise ValueError(
                "replicates must be >= 30 for standard errors to mean anything"
            )
        if self.dim < 2:
            raise ValueError(f"dim must be >= 2, got {self.dim}")
        if self.dim != 2 and self.kind not in ("kol_decay", "ldp"):
            raise ValueError(
                f"{self.kind} needs dim = 2: it uses the explicit basis on S^2"
            )
        if self.grid_density < 1:
            raise ValueError("grid_density must be positive")
        if not self.u_list:
            raise ValueError("u_list must be nonempty")
        if self.centering not in ("pilot", "analytic"):
            raise ValueError(f"centering must be pilot|analytic, got {self.centering}")
        if self.kind == "nongaussian" and not self.model:
            raise ValueError("nongaussian requires a model")
        if not self.epsilon_sweep or any(s <= 0 for s in self.epsilon_sweep):
            raise ValueError("epsilon_sweep multipliers must be positive")
        _parse_epsilon_rule(self.epsilon_rule)  # validates

    def epsilon_base(self, n: int) -> float:
        mode, value = _parse_epsilon_rule(self.epsilon_rule)
        if mode == "const":
            return value
        return value * float(n) ** (-1.0 / 3.0)

    def config_hash(self) -> str:
        payload = {f.name: getattr(self, f.name) for f in dataclass_fields(self)}
        blob = json.dumps(payload, sort_keys=True, default=str).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def _parse_epsilon_rule(rule: str) -> tuple[str, float]:
    mode, _, value = rule.partition(":")
    if mode not in ("const", "pow") or not value:
        raise ValueError(
            f"epsilon_rule must be 'const:<eps>' or 'pow:<s>', got {rule!r}"
        )
    v = float(value)
    if v <= 0:
        raise ValueError("epsilon_rule value must be positive")
    return mode, v


@dataclass
class RecordRow:
    kind: str
    dim: int
    ell: int
    u: Optional[float]
    epsilon: Optional[float]
    estimate: float
    stderr: float
    theory: Optional[float]
    replicates: int
    degenerate: int
    seconds: float


@dataclass
class RateFit:
    slope: float
    intercept: float
    r_squared: float
    points: list[tuple[float, float]]

    def __post_init__(self) -> None:
        if len(self.points) < 3:
            raise ValueError("a rate fit needs at least 3 points")
        if not -1e-9 <= self.r_squared <= 1.0 + 1e-9:
            raise ValueError(f"r_squared out of range: {self.r_squared}")
        self.r_squared = min(max(self.r_squared, 0.0), 1.0)


@dataclass
class ExperimentRecord:
    config: ExperimentConfig
    config_hash: str
    rows: list[RecordRow]
    constants: dict
    rate_points: list[tuple[float, float]] = field(default_factory=list)
    fit: Optional[RateFit] = None


def fit_rate(pairs: Sequence[tuple[float, float]]) -> RateFit:
    """Ordinary least squares of log y on log x, closed form."""
    if len(pairs) < 3:
        raise ValueError("need at least 3 (x, y) pairs")
    if any(x <= 0 or y <= 0 for x, y in pairs):
        raise ValueError("all pairs must be positive for a log-log fit")
    lx = np.log([p[0] for p in pairs])
    ly = np.log([p[1] for p in pairs])
    mx, my = lx.mean(), ly.mean()
    sxx = float(np.sum((lx - mx) ** 2))
    if sxx == 0.0:
        raise ValueError("x values must not all coincide")
    slope = float(np.sum((lx - mx) * (ly - my)) / sxx)
    intercept = float(my - slope * mx)
    resid = ly - (intercept + slope * lx)
    ss_tot = float(np.sum((ly - my) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return RateFit(slope, intercept, r2, list(zip(lx.tolist(), ly.tolist())))


def wilson_interval(successes: int, total: int, z: float = 1.959963984540054
                    ) -> tuple[float, float]:
    """Wilson 95% (by default) confidence interval for a binomial fraction."""
    if total < 1:
        raise ValueError("total must be >= 1")
    p = successes / total
    z2 = z * z
    denom = 1.0 + z2 / total
    center = (p + z2 / (2 * total)) / denom
    half = z * math.sqrt(p * (1 - p) / total + z2 / (4 * total * total)) / denom
    # exact at 0 and at total successes, where center -/+ half leaves rounding
    lower = 0.0 if successes == 0 else max(0.0, center - half)
    upper = 1.0 if successes == total else min(1.0, center + half)
    return lower, upper


def _mean_se(x: np.ndarray) -> tuple[float, float]:
    n = x.shape[0]
    return float(np.mean(x)), float(np.std(x, ddof=1) / math.sqrt(n))


def _var_se(x: np.ndarray) -> tuple[float, float]:
    """Unbiased sample variance and its fourth-moment standard error."""
    n = x.shape[0]
    s2 = float(np.var(x, ddof=1))
    centered = x - np.mean(x)
    m4 = float(np.mean(centered**4))
    var_of_var = (m4 - s2 * s2 * (n - 3) / (n - 1)) / n
    return s2, math.sqrt(max(var_of_var, 0.0))


def _sphere_grid(config: ExperimentConfig, ell: int) -> SphereGrid:
    return iso_latitude_grid(max(4, config.grid_density * ell * ell))


def _replicates(seed: int, count: int, purpose: str,
                measure: Callable[[np.random.Generator], object]) -> list:
    """``measure(stream(seed, rep, purpose))`` for each replicate ``rep``.

    This is the replicate loop of every campaign, so what a replicate draws
    never depends on anything else the run does.
    """
    return [measure(stream(seed, rep, purpose)) for rep in range(count)]


def _critical_replicates(
    seed: int, count: int, purpose: str, level: HarmonicLevel
) -> tuple[list[tuple[CoefficientVector, CriticalPointSet]], int]:
    """The (coefficients, critical set) pairs of Gaussian replicates whose
    set is not degenerate, and the number of degenerate replicates."""

    def measure(rng: np.random.Generator) -> tuple:
        coeffs = sample_gaussian(level, rng)
        return coeffs, find_critical_points(coeffs)

    fields = _replicates(seed, count, purpose, measure)
    sound = [(coeffs, cps) for coeffs, cps in fields if not cps.degenerate_flag]
    return sound, len(fields) - len(sound)


class _Cell:
    """One (kind, ell) cell of a campaign, writing rows into its record.

    The cell owns its level, clock and degenerate count.  The clock runs
    from construction until ``stop`` or the first row; its reading fills
    the ``seconds`` column and, with the replicate rate, one INFO line on
    the ``sphex`` logger.  ldp has no sphere: its cells are keyed by n,
    which its rows store in the ell column with d = 0.
    """

    def __init__(self, record: ExperimentRecord, ell: int):
        config = record.config
        sphere = config.kind != "ldp"
        self.config = config
        self.ell = ell
        self.dim = config.dim if sphere else 0
        self.level = HarmonicLevel(ell, config.dim) if sphere else None
        self.name = f"{config.kind} {'ell' if sphere else 'n'}={ell}"
        self.degenerate = 0
        self.seconds: Optional[float] = None
        self._rows = record.rows
        self._t0 = time.perf_counter()

    def replicates(self, purpose: str,
                   measure: Callable[[np.random.Generator], object]) -> np.ndarray:
        config = self.config
        return np.array(_replicates(config.seed, config.replicates, purpose, measure))

    def on_grid(self, purpose: str, grid: SphereGrid,
                draw: Callable[[HarmonicLevel, np.random.Generator], CoefficientVector],
                functional: Callable[[CoefficientVector, FieldSample], object]
                ) -> np.ndarray:
        """Replicates that draw a field, sample it on ``grid`` and pass the
        coefficients and the sample to ``functional``."""

        def measure(rng: np.random.Generator) -> object:
            coeffs = draw(self.level, rng)
            return functional(coeffs, FieldSample.explicit(coeffs, grid))

        return self.replicates(purpose, measure)

    def critical_sets(self) -> list[CriticalPointSet]:
        """Critical sets of the cell's Gaussian fields, degenerate ones left out."""
        kind, replicates = self.config.kind, self.config.replicates
        sound, self.degenerate = _critical_replicates(
            self.config.seed, replicates, f"{kind}:ell={self.ell}", self.level
        )
        if self.degenerate > 0.2 * replicates:
            raise RuntimeError(
                f"{kind}: {self.degenerate}/{replicates} replicates degenerate at "
                f"ell={self.ell}; geometry is unreliable at this seeding density"
            )
        return [cps for _, cps in sound]

    def stop(self) -> None:
        if self.seconds is None:
            self.seconds = time.perf_counter() - self._t0
            count = self.config.replicates
            _log.info("%s: %d replicates in %.3f s (%.1f replicates/s)", self.name,
                      count, self.seconds, count / max(self.seconds, 1e-9))

    def row(self, kind: str, u: Optional[float], epsilon: Optional[float],
            estimate: float, stderr: float, theory_value: Optional[float]) -> None:
        self.stop()
        self._rows.append(RecordRow(
            kind, self.dim, self.ell, u, epsilon, estimate, stderr,
            theory_value, self.config.replicates, self.degenerate, self.seconds,
        ))

    def exceedance(self, kind: str, u: Optional[float], threshold: float,
                   exceeds: np.ndarray, theory_value: Optional[float]
                   ) -> tuple[float, float]:
        """Row of the fraction flagged in ``exceeds``; returns its Wilson interval."""
        total = self.config.replicates
        count = int(np.count_nonzero(exceeds))
        frac = count / total
        # sample std of 0/1 draws over sqrt(n), with the unbiased variance
        se = math.sqrt(frac * (1.0 - frac) / (total - 1))
        self.row(kind, u, threshold, frac, se, theory_value)
        return wilson_interval(count, total)


# ---------------------------------------------------------------------------
# kind implementations
# ---------------------------------------------------------------------------


def _run_variance_scaling(record: ExperimentRecord) -> None:
    config = record.config
    u_arr = list(config.u_list)
    for ell in config.ell_list:
        cell = _Cell(record, ell)
        vols = cell.on_grid(
            f"variance_scaling:ell={ell}", _sphere_grid(config, ell), sample_gaussian,
            lambda coeffs, sample: excursion_volume(sample, u_arr),
        )
        per_u_var = []
        for j, u in enumerate(u_arr):
            mean, mean_se = _mean_se(vols[:, j])
            var, var_se = _var_se(vols[:, j])
            per_u_var.append(var)
            cell.row("variance_scaling", u, None, var, var_se, None)
            cell.row("variance_scaling_mean", u, None, mean, mean_se,
                     theory.excursion_mean_limit(u))
        record.rate_points.append((float(cell.level.n), max(per_u_var)))
    if len(record.rate_points) >= 3:
        record.fit = fit_rate(record.rate_points)
        record.constants["variance_slope"] = record.fit.slope
        record.constants["variance_r_squared"] = record.fit.r_squared


def _fit_regularity_constant(u_list: Sequence[float], psi: np.ndarray) -> float:
    """Estimate of the regularity constant from the pilot mean curve.

    The constant bounds (1 + |u|)|d/du E g(T, u)|; the derivative is taken
    by central differences on the u grid.  Falls back to 1 when the grid
    is too coarse to differentiate.
    """
    u = np.asarray(u_list, dtype=float)
    if u.shape[0] < 3:
        return 1.0
    order = np.argsort(u)
    u_s, psi_s = u[order], psi[order]
    deriv = np.gradient(psi_s, u_s)
    c = float(np.max(np.abs(deriv) * (1.0 + np.abs(u_s))))
    return max(c, 0.05)


def _run_bad_set(record: ExperimentRecord) -> None:
    config = record.config
    per_ell = record.constants["per_ell"] = {}
    u_arr = list(config.u_list)
    eps_ceiling = 1.0 - 1e-9
    for ell in config.ell_list:
        cell = _Cell(record, ell)
        grid = _sphere_grid(config, ell)
        # Gaussian-ensemble pilot mean and variance of the volume functional
        pilot = cell.on_grid(
            f"bad_set.pilot:ell={ell}", grid, sample_gaussian,
            lambda coeffs, sample: excursion_volume(sample, u_arr),
        )
        psi_hat, var_hat = pilot.mean(axis=0), pilot.var(axis=0, ddof=1)
        sigma_sq_sup = float(np.max(var_hat))
        c_hat = _fit_regularity_constant(u_arr, psi_hat)
        center = (
            psi_hat
            if config.centering == "pilot"
            else np.array([theory.excursion_mean_limit(u) for u in u_arr])
        )
        devs = cell.on_grid(
            f"bad_set.main:ell={ell}", grid, sample_unit_coefficients,
            lambda coeffs, sample: np.abs(excursion_volume(sample, u_arr) - center),
        )
        n = cell.level.n
        eps_base = config.epsilon_base(n)
        local_bounds = {}
        sigma_interp = _variance_interpolant(u_arr, var_hat)
        wilson = {}
        for j, u in enumerate(u_arr):
            for mult in config.epsilon_sweep:
                # the functional is [0, 1]-valued, so the bound's domain
                # caps usable epsilon just below 1
                eps = min(max(mult * eps_base, 1e-12), eps_ceiling)
                key = f"u={u:g},eps={eps:.6g}"
                wilson[key] = cell.exceedance(
                    "bad_set", u, eps, devs[:, j] > eps,
                    theory.bad_set_bound(eps, n, sigma_sq_sup, c_hat),
                )
                local_bounds[key] = theory.bad_set_bound_local(
                    eps, n, sigma_interp, c_hat, u
                )
        per_ell[str(ell)] = {
            "c_hat": c_hat,
            "sigma_sq_sup": sigma_sq_sup,
            "pilot_mean": dict(zip(map(str, u_arr), psi_hat.tolist())),
            "pilot_var": dict(zip(map(str, u_arr), var_hat.tolist())),
            "local_bounds": local_bounds,
            "wilson_intervals": wilson,
            "vacuous_bound": bool(
                theory.bad_set_bound(
                    min(max(config.epsilon_base(n), 1e-12), eps_ceiling),
                    n, sigma_sq_sup, c_hat,
                ) > 1.0
            ),
        }


def _variance_interpolant(u_list: Sequence[float],
                          var_hat: np.ndarray) -> Callable[[float], float]:
    u = np.asarray(u_list, dtype=float)
    order = np.argsort(u)
    u_s, v_s = u[order], np.asarray(var_hat)[order]

    def sigma_sq_at(x: float) -> float:
        return float(np.interp(x, u_s, v_s))

    return sigma_sq_at


def _run_kol_decay(record: ExperimentRecord) -> None:
    config = record.config
    per_ell = record.constants["per_ell"] = {}
    rate_ell, _ = theory.kolmogorov_rate_exponents(config.ell_list[0], config.dim)
    for ell in config.ell_list:
        cell = _Cell(record, ell)
        entry = per_ell[str(ell)] = {}
        purpose = f"kol_decay:ell={ell}"
        if config.dim == 2:
            dists = cell.on_grid(
                purpose, _sphere_grid(config, ell), sample_gaussian,
                lambda coeffs, sample: kolmogorov_distance(sample),
            )
        else:
            n_pts = min(config.grid_density * ell**config.dim, config.grid_cap)
            sim = GramSimulator(cell.level, quasi_uniform_grid(config.dim, n_pts))
            dists = cell.replicates(
                purpose, lambda rng: kolmogorov_distance(sim.sample(rng))
            )
            entry["jitter"] = sim.jitter
            del sim  # free its N x N factor before the next cell's Gram is built
        mean, se = _mean_se(dists)
        cell.row("kol_decay", None, None, mean, se, float(ell) ** (-rate_ell))
        n = cell.level.n
        eps_base = config.epsilon_base(n)
        wilson = entry["wilson_intervals"] = {}
        # a Kolmogorov distance never exceeds 1, so an exceedance row at
        # eps >= 1 is 0 by construction; list those rows as vacuous
        vacuous = entry["vacuous_eps"] = []
        for mult in config.epsilon_sweep:
            eps = mult * eps_base
            key = f"eps={eps:.6g}"
            wilson[key] = cell.exceedance(
                "kol_decay_exceedance", None, eps, dists > eps,
                theory.kolmogorov_measure_bound(n, eps, 1.0),
            )
            if eps >= 1.0:
                vacuous.append(key)
        record.rate_points.append((float(ell), mean))
    if len(record.rate_points) >= 3:
        record.fit = fit_rate(record.rate_points)
        record.constants["kol_slope"] = record.fit.slope
        record.constants["theory_exponent"] = -rate_ell
    # K_hat: the largest exceedance * n * eps^3, first row wins a tie
    record.constants["K_hat"], record.constants["K_hat_ell"] = max(
        ((row.estimate * eigenspace_dim(row.ell, row.dim) * row.epsilon**3, row.ell)
         for row in record.rows if row.kind == "kol_decay_exceedance"),
        key=lambda pair: pair[0],
    )


def _run_supnorm(record: ExperimentRecord) -> None:
    config = record.config
    constants = record.constants
    constants["per_ell"] = {}
    beta = 1.0
    k_max, _ = theory.sup_norm_lower_params(0.0, config.dim)
    k_lower = 0.9 * k_max
    cells = []
    for ell in config.ell_list:
        cell = _Cell(record, ell)
        grid = iso_latitude_grid(max(40, config.grid_density) * ell * ell)

        def sup_and_radius(rng: np.random.Generator) -> tuple[float, float]:
            coeffs = sample_gaussian(cell.level, rng)
            return sup_norm(coeffs, grid=grid)[0], coeffs.radius

        sups, radii = cell.replicates(f"supnorm:ell={ell}", sup_and_radius).T
        cell.stop()
        cells.append((cell, sups, sups / radii))
    # two-pass: the tail threshold uses the run's own estimated constant
    ratios = [float(np.mean(s)) / math.sqrt(math.log(c.ell)) for c, s, _ in cells]
    m_hat = max(ratios)
    for (cell, sups, sups_h), ratio in zip(cells, ratios):
        ell = cell.ell
        mean, se = _mean_se(sups)
        cell.row("supnorm", None, None, mean, se, None)
        threshold, tail_bound = theory.sup_norm_tail_bound(m_hat, beta, ell)
        tail = cell.exceedance("supnorm_tail", None, threshold,
                               sups >= threshold, tail_bound)
        low_threshold = k_lower * math.sqrt(math.log(ell))
        lower = cell.exceedance("supnorm_lower", None, low_threshold,
                                sups_h < low_threshold, None)
        constants["per_ell"][str(ell)] = {
            "mean_over_sqrt_log": ratio,
            "tail_wilson": tail,
            "lower_wilson": lower,
        }
        record.rate_points.append((float(ell), mean))
    constants["M_hat"] = m_hat
    constants["M_hat_ell"] = config.ell_list[ratios.index(m_hat)]
    constants["K_lower"] = k_lower


def _run_ldp(record: ExperimentRecord) -> None:
    """Importance-sampled chi-square tail rates.

    The target events have probabilities down to ~1e-10 at the largest n,
    far beyond plain Monte Carlo at any desk-scale replicate count, so the
    sampler tilts the chi-square by theta* = (1 - 1/a)/2 (the exponential
    change of measure whose mean sits exactly on the threshold n*a) and
    reweights; the estimator is unbiased for P(R^2 >= a) and its rate
    -log(P)/n concentrates tightly around the finite-n exact rate.
    """
    config = record.config
    constants = record.constants
    constants["per_n"] = {}
    a = config.a
    theta = (1.0 - 1.0 / a) / 2.0
    lam_star = theory.cramer_transform(a)
    assert config.n_list is not None
    for n in config.n_list:
        cell = _Cell(record, n)
        rng = stream(config.seed, 0, f"ldp:n={n}")
        x = rng.gamma(n / 2.0, 2.0 * a, size=config.replicates)
        logw = (n / 2.0) * math.log(a) - theta * x
        w = np.exp(logw) * (x >= n * a)
        p_hat = float(np.mean(w))
        p_se = float(np.std(w, ddof=1) / math.sqrt(config.replicates))
        rate = -math.log(p_hat) / n
        rate_se = p_se / (p_hat * n)
        cell.row("ldp", a, None, rate, rate_se, lam_star)
        upper, exact = theory.chi_square_tail_rate(a, n)
        constants["per_n"][str(n)] = {
            "p_hat": p_hat,
            "p_se": p_se,
            "exact_probability": exact,
            "exact_rate": -math.log(exact) / n,
            "upper_probability_bound": upper,
        }
    constants["lambda_star"] = lam_star
    constants["theta_tilt"] = theta


def _run_nongaussian(record: ExperimentRecord) -> None:
    config = record.config
    assert config.model is not None
    model = NonGaussianModel.parse(config.model)
    per_ell = record.constants["per_ell"] = {}
    u_arr = np.asarray(config.u_list, dtype=float)
    for ell in config.ell_list:
        cell = _Cell(record, ell)
        grid = _sphere_grid(config, ell)
        # model and baseline share one stream per replicate (matched runs):
        # the baseline consumes the same draws the model's Gaussian core
        # does, so a unit perturbation reproduces the baseline exactly and
        # genuine perturbations are compared pairwise on common noise
        purpose = f"nongaussian:ell={ell}"
        dev_model = cell.on_grid(
            purpose, grid,
            lambda level, rng: sample_nongaussian(model, level, rng)[0],
            lambda coeffs, sample: _max_deviation(
                sample, u_arr, math.sqrt(coeffs.sample_power)
            ),
        )
        dev_base = cell.on_grid(
            purpose, grid, sample_gaussian,
            lambda coeffs, sample: _max_deviation(sample, u_arr, coeffs.radius),
        )
        m_mean, m_se = _mean_se(dev_model)
        b_mean, b_se = _mean_se(dev_base)
        cell.row("nongaussian", None, None, m_mean, m_se, None)
        cell.row("nongaussian_baseline", None, None, b_mean, b_se, None)
        q95 = float(np.quantile(dev_base, 0.95))
        ks = ks_2samp(dev_model, dev_base)
        per_ell[str(ell)] = {
            "baseline_q95": q95,
            "frac_model_within_q95": float(np.mean(dev_model <= q95)),
            "ks_stat": float(ks.statistic),
            "ks_pvalue": float(ks.pvalue),
        }


def _max_deviation(sample: FieldSample, u_arr: np.ndarray, scale: float) -> float:
    """Largest gap between the excursion volumes and the N(0, scale^2) tail."""
    target = gaussian(u_arr / scale).tail
    return float(np.max(np.abs(excursion_volume(sample, u_arr) - target)))


def _run_epc(record: ExperimentRecord) -> None:
    config = record.config
    constants = record.constants
    constants.update(per_ell={}, exact_check_failures=0)
    for ell in config.ell_list:
        cell = _Cell(record, ell)
        sets = cell.critical_sets()
        for cps in sets:
            top = max(p.value for p in cps.points)
            if euler_characteristic_morse(cps, -40.0) != 2:
                constants["exact_check_failures"] += 1
            if euler_characteristic_morse(cps, top + 1.0) != 0:
                constants["exact_check_failures"] += 1
        for u in config.u_list:
            chis = [euler_characteristic_morse(cps, u) / ell**2 for cps in sets]
            mean, se = _mean_se(np.array(chis))
            cell.row("epc", u, None, mean, se, theory.epc_limit(u))
        constants["per_ell"][str(ell)] = {
            "gkf_reference": {
                str(u): theory.gkf_epc_expectation(ell, u) for u in config.u_list
            },
            "mean_total_critical": float(
                np.mean([count_above(cps) for cps in sets])
            ),
        }


def _run_critical_density(record: ExperimentRecord) -> None:
    config = record.config
    kind_map = (
        ("critical_density_c", CriticalKind.CRITICAL),
        ("critical_density_e", CriticalKind.EXTREMUM),
        ("critical_density_s", CriticalKind.SADDLE),
    )
    per_ell = record.constants["per_ell"] = {}
    for ell in config.ell_list:
        cell = _Cell(record, ell)
        sets = cell.critical_sets()
        for label, ckind in kind_map:
            for u in config.u_list:
                counts = [count_above(cps, u, ckind) / ell**2 for cps in sets]
                mean, se = _mean_se(np.array(counts))
                cell.row(label, u, None, mean, se,
                         theory.critical_count_limit(ckind, u))
        per_ell[str(ell)] = {
            "degenerate_fraction": cell.degenerate / config.replicates,
        }


_RUNNERS = {
    "variance_scaling": _run_variance_scaling,
    "bad_set": _run_bad_set,
    "kol_decay": _run_kol_decay,
    "supnorm": _run_supnorm,
    "ldp": _run_ldp,
    "nongaussian": _run_nongaussian,
    "epc": _run_epc,
    "critical_density": _run_critical_density,
}

KINDS = tuple(_RUNNERS)


def run_experiment(config: ExperimentConfig) -> ExperimentRecord:
    """Run one campaign and return its record (rows, constants, rate fit)."""
    record = ExperimentRecord(config, config.config_hash(), [], {})
    _RUNNERS[config.kind](record)
    return record


def mesh_agreement(
    ell: int,
    u_list: Sequence[float],
    samples: int,
    subdivision: int,
    seed: int,
) -> dict:
    """Fraction of (sample, u) cells where Morse and mesh EPC agree.

    Cross-validates the critical-point route against the combinatorial
    vertex-threshold route on an icosphere.  Degenerate samples are
    excluded and reported.
    """
    mesh = icosphere(subdivision)
    sound, degenerate = _critical_replicates(
        seed, samples, f"mesh_agreement:ell={ell}", HarmonicLevel(ell, 2)
    )
    agree = sum(
        euler_characteristic_morse(cps, u) == euler_characteristic_mesh(coeffs, mesh, u)
        for coeffs, cps in sound
        for u in u_list
    )
    total = len(sound) * len(u_list)
    return {
        "agreement": agree / total if total else 0.0,
        "cells": total,
        "degenerate": degenerate,
    }


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

CSV_HEADER = "kind,d,ell,u,epsilon,estimate,stderr,theory,replicates,degenerate,seconds"


def _fmt_opt(x: Optional[float]) -> str:
    return "" if x is None else format(x, ".17g")


def write_record_csv(record: ExperimentRecord, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER.split(","))
        for row in record.rows:
            writer.writerow([
                row.kind,
                row.dim,
                row.ell,
                _fmt_opt(row.u),
                _fmt_opt(row.epsilon),
                format(row.estimate, ".17g"),
                format(row.stderr, ".17g"),
                _fmt_opt(row.theory),
                row.replicates,
                row.degenerate,
                format(row.seconds, ".3f"),
            ])


def write_sidecar_json(record: ExperimentRecord, path: str) -> None:
    from . import __version__

    payload = {
        "kind": record.config.kind,
        "config_hash": record.config_hash,
        "seed": record.config.seed,
        "version": __version__,
        "constants": record.constants,
    }
    if record.fit is not None:
        payload["fit"] = {
            "slope": record.fit.slope,
            "intercept": record.fit.intercept,
            "r_squared": record.fit.r_squared,
        }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_rates_csv(record: ExperimentRecord, path: str) -> bool:
    """Write plot data when the kind carries a rate fit; returns whether it did."""
    if record.fit is None or not record.rate_points:
        return False
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["x", "y", "fit_slope", "fit_intercept"])
        for x, y in record.rate_points:
            writer.writerow([
                format(x, ".17g"),
                format(y, ".17g"),
                format(record.fit.slope, ".17g"),
                format(record.fit.intercept, ".17g"),
            ])
    return True


def _field_parser(hint) -> Callable[[str], object]:
    """How an INI value becomes a value of a field annotated ``hint``."""
    if get_origin(hint) is Union:  # Optional[X] parses as X
        hint = next(a for a in get_args(hint) if a is not type(None))
    if get_origin(hint) is list:
        (item,) = get_args(hint)
        return lambda raw: [item(tok) for tok in raw.split(",") if tok.strip()]
    return lambda raw: hint(raw.strip())


def parse_config_file(path: str) -> list[ExperimentConfig]:
    """Parse an INI config: one section per experiment kind.

    Section names are the kind; keys are exactly the ExperimentConfig
    field names (unknown keys are an error, misspellings should fail
    loudly rather than silently fall back to defaults).  Each value is
    parsed by the field's annotation: ``list[T]`` as comma-separated T.
    """
    hints = get_type_hints(ExperimentConfig)
    del hints["kind"]  # the section name
    parsers = {name: _field_parser(hint) for name, hint in hints.items()}
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise FileNotFoundError(f"config file not found: {path}")
    configs = []
    for section in parser.sections():
        if section not in KINDS:
            raise ValueError(
                f"unknown experiment kind [{section}]; expected one of {KINDS}"
            )
        kwargs: dict = {"kind": section}
        for key, raw in parser.items(section):
            if key not in parsers:
                raise ValueError(f"unknown config key {key!r} in [{section}]")
            kwargs[key] = parsers[key](raw)
        if "ell_list" not in kwargs:
            kwargs["ell_list"] = kwargs.get("n_list", [])
            if section != "ldp":
                raise ValueError(f"[{section}] requires ell_list")
        configs.append(ExperimentConfig(**kwargs))
    if not configs:
        raise ValueError(f"config file {path} defines no experiments")
    return configs


def run_config_file(path: str, out_dir: str,
                    seed_override: Optional[int] = None) -> list[str]:
    """Run every section of a config file, writing outputs into out_dir.

    Produces <kind>.csv, <kind>.json and (when a rate fit exists)
    <kind>_rates.csv per section; returns the paths written.
    """
    import os

    configs = parse_config_file(path)
    os.makedirs(out_dir, exist_ok=True)
    written: list[str] = []
    for config in configs:
        if seed_override is not None:
            config = replace(config, seed=seed_override)
        record = run_experiment(config)
        base = os.path.join(out_dir, config.kind)
        csv_path = base + ".csv"
        write_record_csv(record, csv_path)
        written.append(csv_path)
        json_path = base + ".json"
        write_sidecar_json(record, json_path)
        written.append(json_path)
        rates_path = base + "_rates.csv"
        if write_rates_csv(record, rates_path):
            written.append(rates_path)
    return written
