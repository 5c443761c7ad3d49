"""Closed-form bounds, rates and reference constants.

Pure functions only; the Monte Carlo harness populates its ``theory``
columns exclusively through this module so experiment output is always
comparable against a single transcription of each bound.  Formulas are
kept in their literal form even where they are loose or suspected of a
constant anomaly (noted in the relevant docstrings); experiments flag
vacuous values rather than silently repairing them.

Universal constants that the underlying inequalities do not pin down (the
Kolmogorov-bound constant K, the sup-norm constant M, the regularity
constant c) appear as parameters everywhere and are estimated empirically
by the harness, never hard-coded.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, get_type_hints

from scipy.stats import chi2 as _chi2

from .specfun import CriticalKind, critical_tail, gaussian

__all__ = [
    "BoundReport",
    "bad_set_bound",
    "bad_set_bound_local",
    "borel_tis_tail",
    "chi_square_tail_rate",
    "cramer_transform",
    "critical_count_limit",
    "density_ratio_bound",
    "epc_limit",
    "epc_variance_leading",
    "evaluate_bound",
    "excursion_mean_limit",
    "gkf_epc_exact",
    "gkf_epc_expectation",
    "REGISTRY",
    "kolmogorov_measure_bound",
    "kolmogorov_rate_exponents",
    "mills",
    "sogge_exponent",
    "sup_norm_lower_params",
    "sup_norm_tail_bound",
]

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


@dataclass(frozen=True)
class BoundReport:
    """A named bound evaluation with its inputs and citation anchor."""

    name: str
    inputs: Mapping[str, float]
    bound_value: float
    anchor: str

    def __post_init__(self) -> None:
        if not self.anchor:
            raise ValueError("citation anchor must be nonempty")
        # limits such as epc-limit at u < 0 are negative, and cramer may
        # be inf; only NaN carries no value
        if math.isnan(self.bound_value):
            raise ValueError("bound_value is NaN")


def bad_set_bound(epsilon: float, n: int, sigma_sq: float, c: float) -> float:
    """Chebyshev-type measure bound for the bad set of a regular functional.

    Bounds the measure of coefficient vectors whose excursion functional
    deviates from the Gaussian-ensemble mean by more than epsilon:

        2 (1 + c) / epsilon^2 * (1/n + sigma^2),

    where n is the eigenspace dimension, sigma^2 the supremum of the
    Gaussian-ensemble variance of the functional, and c the regularity
    constant of the family (estimated, not universal).  epsilon must lie
    in (0, 1): the functional is [0, 1]-valued so larger deviations are
    void.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    if sigma_sq < 0:
        raise ValueError(f"sigma_sq must be >= 0, got {sigma_sq}")
    if c <= 0:
        raise ValueError(f"c must be positive, got {c}")
    return 2.0 * (1.0 + c) / (epsilon * epsilon) * (1.0 / n + sigma_sq)


def bad_set_bound_local(
    epsilon: float,
    n: int,
    sigma_sq_at: Callable[[float], float],
    c: float,
    u: float,
) -> float:
    """Level-local refinement of ``bad_set_bound``.

    Replaces the global variance supremum by the maximum of the variance
    at the two tilted levels u_minus/u_plus = sqrt(1 -/+ epsilon/(1+c)) * u,
    so the bound tightens wherever the variance profile decays in |u|.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    if c <= 0:
        raise ValueError(f"c must be positive, got {c}")
    ratio = epsilon / (1.0 + c)
    if ratio >= 1.0:
        raise ValueError("epsilon/(1+c) must be < 1 for the tilted levels")
    u_minus = math.sqrt(1.0 - ratio) * u
    u_plus = math.sqrt(1.0 + ratio) * u
    sigma_sq = max(float(sigma_sq_at(u_minus)), float(sigma_sq_at(u_plus)))
    return bad_set_bound(epsilon, n, sigma_sq, c)


def gkf_epc_expectation(ell: int, u: float) -> float:
    """Kinematic-formula reference value for the expected excursion EPC on S^2.

    Returns 2 (1 - Phi(u)) + sqrt(2/pi) * (ell (ell + 1) / 2) * (u phi(u) / 2),
    kept exactly in this form as the package's reference transcription.
    Note the ell^2-normalized large-ell limit of the second term differs
    from the Morse-identity limit u phi(u) (see ``epc_limit``) by a
    constant factor; rate experiments compare against ``epc_limit`` and
    report this value alongside, never blended.  The measurements do not
    match it: the Morse-count mean over 600 fields at ell = 4, u = 1 is
    5.150 +- 0.05, where this form gives 1.283 (``gkf_epc_exact`` 5.157).
    """
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")
    g = gaussian(u)
    return 2.0 * g.tail + _SQRT_2_OVER_PI * (ell * (ell + 1.0) / 2.0) * (u * g.pdf / 2.0)


def gkf_epc_exact(ell: int, u: float) -> float:
    """Expected excursion EPC on S^2 of a unit-variance degree-ell field.

    The Gaussian kinematic formula (Adler & Taylor 2007), exact at every ell
    with L_0 = 2, L_2 = 4 pi, lambda_2 = P_ell'(1) = ell (ell + 1) / 2.  The
    measurements match this form: Morse-count means over 600 fields at
    ell = 4, u = -1, 0, 1, 2 are within 0.8 standard errors of it.
    """
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")
    g = gaussian(u)
    return 2.0 * g.tail + ell * (ell + 1.0) * u * g.pdf


def epc_limit(u: float) -> float:
    """Large-ell limit of E[chi(excursion set)] / ell^2 on S^2.

    Equals u phi(u): the difference of the extremum and saddle critical
    value tails (Morse counting), hence also the integral identity
    critical_tail(extremum, u) - critical_tail(saddle, u).
    """
    g = gaussian(u)
    return float(u) * g.pdf


def excursion_mean_limit(u: float) -> float:
    """Large-ell limit of the expected excursion volume: 1 - Phi(u).

    Thin delegation kept here so harness theory columns have a single
    source.
    """
    return gaussian(u).tail


def epc_variance_leading(ell: int, u: float) -> float:
    """Leading variance term for the excursion EPC on S^2 at degree ell.

    Literal transcription: ((u^3 + 2u)^2 phi^2(u))^2 * ell^3 / (8 pi).
    """
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")
    g = gaussian(u)
    inner = (u**3 + 2.0 * u) ** 2 * g.pdf * g.pdf
    return inner * inner * ell**3 / (8.0 * math.pi)


def critical_count_limit(kind: CriticalKind | str, u: float) -> float:
    """Large-ell limit of E[N_kind(u)] / ell^2: the critical value tail mass."""
    return critical_tail(kind, u)


def kolmogorov_measure_bound(n: int, epsilon: float, K: float) -> float:
    """Measure bound K / (n epsilon^3) for {d_Kol > epsilon} at dimension n."""
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if K <= 0:
        raise ValueError(f"K must be positive, got {K}")
    return K / (n * epsilon**3)


def kolmogorov_rate_exponents(ell: int, dim: int) -> tuple[float, float]:
    """Decay exponents of the expected Kolmogorov distance.

    Returns (rate_ell, rate_dim): the distance decays like
    ell^{-(d-1)/3} as ell grows at fixed d, and like d^{-ell/3} as the
    sphere dimension grows at fixed ell.
    """
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    return ((dim - 1) / 3.0, ell / 3.0)


def sup_norm_tail_bound(M: float, beta: float, ell: int) -> tuple[float, float]:
    """Threshold/probability pair for sup-norm concentration.

    P(sup |T| >= (M + sqrt(2 beta)) sqrt(log ell)) <= ell^{-beta}, valid
    once M dominates the expected sup norm on the sqrt(log ell) scale (M
    is an estimated constant, passed in).
    """
    if M <= 0 or beta <= 0:
        raise ValueError("M and beta must be positive")
    if ell < 2:
        raise ValueError(f"ell must be >= 2, got {ell}")
    threshold = (M + math.sqrt(2.0 * beta)) * math.sqrt(math.log(ell))
    return threshold, float(ell) ** (-beta)


def sup_norm_lower_params(
    K: float, dim: int
) -> tuple[float, Optional[tuple[float, float]]]:
    """Admissible parameters for the sup-norm lower bound via separated grids.

    Returns (K_max, alpha_interval) with K_max = sqrt(d / (12 d + 2)); the
    grid exponent alpha must lie in (2 K^2 / d, 1 / (6 d + 1)), which is
    nonempty exactly when 0 <= K < K_max.  An empty interval is returned
    as None.
    """
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    if K < 0:
        raise ValueError(f"K must be >= 0, got {K}")
    k_max = math.sqrt(dim / (12.0 * dim + 2.0))
    lo = 2.0 * K * K / dim
    hi = 1.0 / (6.0 * dim + 1.0)
    if lo >= hi:
        return k_max, None
    return k_max, (lo, hi)


def cramer_transform(x: float) -> float:
    """Cramér transform of the normalized chi-square law: (x - 1 - log x)/2.

    Defined as +infinity for x <= 0; convex on (0, inf) with its unique
    minimum 0 at x = 1.
    """
    x = float(x)
    if x <= 0.0:
        return math.inf
    return 0.5 * (x - 1.0 - math.log(x))


def chi_square_tail_rate(a: float, n: int) -> tuple[float, float]:
    """Large-deviation bound and exact value for P(R^2 >= a), n R^2 ~ chi2(n).

    Returns (upper_rate, exact) with upper_rate = exp(-n Lambda*(a)) and
    exact the chi-square survival function at n*a — an independent oracle
    for the exponential decay rate.
    """
    if a <= 1.0:
        raise ValueError(f"a must be > 1, got {a}")
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    upper = math.exp(-n * cramer_transform(a))
    exact = float(_chi2.sf(n * a, df=n))
    return upper, exact


def borel_tis_tail(t: float, expected_sup: float) -> float:
    """Gaussian concentration tail exp(-(t - E)^2 / 2) for the sup norm.

    Valid only above the expected supremum; t <= expected_sup is a domain
    error because the inequality says nothing there.
    """
    if t <= expected_sup:
        raise ValueError(
            f"t = {t} must exceed expected_sup = {expected_sup}"
        )
    gap = t - expected_sup
    return math.exp(-0.5 * gap * gap)


def mills(z: float) -> tuple[float, float]:
    """Sandwich for the doubled Gaussian tail 2 P(Z >= z) via Mills' ratio.

    Returns (lower, upper) = (2z/(1+z^2) phi(z), 2 phi(z)/z) bracketing
    2 (1 - Phi(z)) for every z > 0.
    """
    if z <= 0:
        raise ValueError(f"z must be positive, got {z}")
    pdf = gaussian(z).pdf
    return 2.0 * z / (1.0 + z * z) * pdf, 2.0 / z * pdf


def sogge_exponent(p: float) -> float:
    """Growth exponent of the L^p norm of spherical eigenfunctions on S^2.

    sigma(p) = (1/2)(1/2 - 1/p) on 2 < p <= 6 and 2(1/2 - 1/p) - 1/2 for
    p >= 6; continuous at p = 6 (value 1/6), with sigma(inf) = 1/2.
    """
    if p != math.inf and p <= 2.0:
        raise ValueError(f"p must be > 2, got {p}")
    inv = 0.0 if p == math.inf else 1.0 / p
    if p >= 6.0:
        return 2.0 * (0.5 - inv) - 0.5
    return 0.5 * (0.5 - inv)


def density_ratio_bound(
    epsilon: float, n: int, sigma_sq: float, density_sup: float
) -> float:
    """Deviation bound for coefficient laws absolutely continuous w.r.t. uniform.

    Literal transcription: density_sup * (1/(sigma^2 epsilon^3) + 1/(n epsilon^2)).
    The sigma^2 sits in the denominator of the first bracket in the source
    inequality; it is kept that way deliberately (experiments flag values
    above 1 as vacuous rather than reinterpreting the formula).
    """
    if epsilon <= 0 or n < 1 or sigma_sq <= 0 or density_sup <= 0:
        raise ValueError("all arguments must be positive")
    return density_sup * (
        1.0 / (sigma_sq * epsilon**3) + 1.0 / (n * epsilon * epsilon)
    )


# Registry used by the command line ``theory`` subcommand: name -> (callable,
# citation anchor).  Argument names are read from each callable's signature,
# and the arguments the command line parses as integers from its ``int``
# annotations (``_int_args``), so a bound is declared exactly once.
REGISTRY: dict[str, tuple[Callable, str]] = {
    "badset": (bad_set_bound, "Chebyshev bound for regular excursion functionals"),
    "gkf-epc": (gkf_epc_expectation, "Gaussian kinematic formula, sphere"),
    "gkf-epc-exact": (gkf_epc_exact, "Gaussian kinematic formula, finite ell"),
    "epc-limit": (epc_limit, "Morse identity for excursion Euler characteristics"),
    "excursion-mean": (excursion_mean_limit, "Gaussian one-point marginal"),
    "epc-var": (epc_variance_leading, "EPC variance leading term"),
    "kol-bound": (kolmogorov_measure_bound, "Kolmogorov distance measure bound"),
    "kol-rate": (kolmogorov_rate_exponents, "Kolmogorov distance decay exponents"),
    "supnorm-tail": (sup_norm_tail_bound, "sup-norm upper tail via Borel-TIS"),
    "supnorm-lower": (sup_norm_lower_params, "sup-norm lower bound parameters"),
    "cramer": (cramer_transform, "Cramér transform, normalized chi-square"),
    "ldp": (chi_square_tail_rate, "chi-square large deviations"),
    "borel-tis": (borel_tis_tail, "Borel-TIS inequality"),
    "mills": (mills, "Mills' ratio sandwich"),
    "sogge": (sogge_exponent, "Sogge L^p eigenfunction exponents"),
    "density-ratio": (density_ratio_bound, "Radon-Nikodym deviation bound"),
    "critical-limit": (critical_count_limit, "Kac-Rice critical value tails"),
}


def _int_args(fn: Callable) -> frozenset[str]:
    """Names of the arguments of ``fn`` annotated ``int``."""
    hints = get_type_hints(fn)
    return frozenset(k for k in inspect.signature(fn).parameters if hints.get(k) is int)


def evaluate_bound(name: str, **kwargs) -> BoundReport:
    """Evaluate a registered bound by name into a ``BoundReport``.

    ``kwargs`` must name every argument of the bound and no other; a
    missing or an unexpected name raises ``ValueError`` naming it.  A
    bound returning a tuple reports its first entry.
    """
    if name not in REGISTRY:
        raise KeyError(f"unknown bound {name!r}; known: {sorted(REGISTRY)}")
    fn, anchor = REGISTRY[name]
    argnames = list(inspect.signature(fn).parameters)
    missing = [a for a in argnames if a not in kwargs]
    if missing:
        raise ValueError(f"{name} missing arguments: {missing}")
    unexpected = [k for k in kwargs if k not in argnames]
    if unexpected:
        raise ValueError(f"{name} unexpected arguments: {unexpected}")
    value = fn(**kwargs)
    flat = value[0] if isinstance(value, tuple) else value
    numeric_inputs = {
        k: v for k, v in kwargs.items() if isinstance(v, (int, float))
    }
    return BoundReport(
        name=name,
        inputs=numeric_inputs,
        bound_value=float(flat),
        anchor=anchor,
    )
