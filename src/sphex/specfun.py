"""Scalar special functions for random spherical eigenfunctions.

This module collects the closed-form ingredients everything else is built
from: eigenspace dimensions of the Laplacian on the d-sphere, normalized
Gegenbauer polynomials and their Bessel-type high-degree approximation,
Bessel functions of real order, Gaussian distribution helpers, and the
limiting densities of critical values for degree-ell eigenfunctions on the
2-sphere with their tails in closed form.

Everything here is deterministic, scalar-or-vectorized, and has no
dependency on the sampling machinery.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.special import erfc, eval_hermitenorm, gammaln, jv

__all__ = [
    "CriticalKind",
    "GaussianValues",
    "HarmonicLevel",
    "bessel_j",
    "cdf_derivative",
    "critical_density",
    "critical_tail",
    "eigenspace_dim",
    "gaussian",
    "gegenbauer",
    "gegenbauer_hilb",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT3 = math.sqrt(3.0)
_MAX_INT64 = 2**63 - 1
_KERNEL_BLOCK = 32768  # elements per block of gegenbauer's recurrence

ArrayLike = Union[float, np.ndarray]


class CriticalKind(enum.Enum):
    """Classification labels for critical points / critical-value densities."""

    CRITICAL = "critical"
    EXTREMUM = "extremum"
    SADDLE = "saddle"
    MINIMUM = "minimum"
    MAXIMUM = "maximum"


def eigenspace_dim(ell: int, dim: int) -> int:
    """Dimension of the degree-``ell`` eigenspace of the Laplacian on S^dim.

    Computed in exact integer arithmetic as

        n = (2*ell + dim - 1) / ell * C(ell + dim - 2, ell - 1)

    for ell >= 1, and n = 1 for ell = 0 (constants).  The division is exact.

    Raises ``OverflowError`` if the result does not fit in a signed 64-bit
    integer, and ``ValueError`` for ell < 0 or dim < 2.
    """
    if not isinstance(ell, (int, np.integer)) or isinstance(ell, bool):
        raise ValueError(f"ell must be an integer, got {ell!r}")
    if not isinstance(dim, (int, np.integer)) or isinstance(dim, bool):
        raise ValueError(f"dim must be an integer, got {dim!r}")
    ell = int(ell)
    dim = int(dim)
    if ell < 0:
        raise ValueError(f"ell must be >= 0, got {ell}")
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    if ell == 0:
        return 1
    num = (2 * ell + dim - 1) * math.comb(ell + dim - 2, ell - 1)
    n, rem = divmod(num, ell)
    if rem:  # pragma: no cover - the division is provably exact
        raise ArithmeticError("eigenspace dimension formula produced a remainder")
    if n > _MAX_INT64:
        raise OverflowError(
            f"eigenspace dimension for ell={ell}, dim={dim} exceeds int64"
        )
    return n


@dataclass(frozen=True)
class HarmonicLevel:
    """A Laplace eigenspace on the unit d-sphere, identified by (ell, dim).

    ``dim`` is the dimension of the sphere itself (so dim=2 is the ordinary
    sphere in R^3).  ``n`` is the eigenspace dimension; the Laplace
    eigenvalue is ell * (ell + dim - 1).
    """

    ell: int
    dim: int = 2

    def __post_init__(self) -> None:
        eigenspace_dim(self.ell, self.dim)  # validates and checks capacity

    @property
    def n(self) -> int:
        return eigenspace_dim(self.ell, self.dim)


def _as_float_array(x: ArrayLike) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def gegenbauer(ell: int, dim: int, t: ArrayLike) -> ArrayLike:
    """Normalized Gegenbauer polynomial G_ell^{(d)}(t) with G(1) = 1.

    This is the covariance function of the normalized random eigenfunction
    ensemble: for dim=2 it reduces to the Legendre polynomial P_ell, for
    dim=3 to the Chebyshev-U ratio U_ell(t) / (ell + 1).  Evaluated by the
    three-term recurrence

        G_0 = 1,   G_1 = t,
        G_k = [ (2k + d - 3) t G_{k-1} - (k - 1) G_{k-2} ] / (k + d - 2),

    which keeps |G| <= 1 on [-1, 1].  ``t`` may be a scalar or array;
    values with |t| > 1 + 1e-9 raise ``ValueError`` (smaller excursions,
    which arise from rounded inner products, are clipped to [-1, 1]).

    The recurrence runs over blocks of ``_KERNEL_BLOCK`` elements of the
    flattened input with in-place ufuncs, so an N x N argument costs one
    C-contiguous output and a few cache-sized buffers; each element sees
    the same floating-point operations in the same order as the formula.
    """
    if ell < 0:
        raise ValueError(f"ell must be >= 0, got {ell}")
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    arr, scalar = _as_float_array(t)
    out = np.empty(arr.shape)
    src = arr.reshape(-1)  # a view unless ``t`` is a non-contiguous array
    dst = out.reshape(-1)
    buffers = np.empty((4, min(src.size, _KERNEL_BLOCK)))
    for start in range(0, src.size, _KERNEL_BLOCK):
        block = src[start : start + _KERNEL_BLOCK]
        x, p, c, s = buffers[:, : block.size]
        if np.any(np.abs(block, out=s) > 1.0 + 1e-9):
            bad = np.max(np.abs(arr))
            raise ValueError(f"|t| must be <= 1 (max |t| = {bad:.3e})")
        np.clip(block, -1.0, 1.0, out=x)
        if ell == 0:
            c.fill(1.0)
        else:
            p.fill(1.0)
            np.copyto(c, x)
        for k in range(2, ell + 1):
            # ((2k + d - 3) * x * cur - (k - 1) * prev) / (k + d - 2)
            np.multiply(2 * k + dim - 3, x, out=s)
            np.multiply(s, c, out=s)
            np.multiply(k - 1, p, out=p)
            np.subtract(s, p, out=p)
            np.divide(p, k + dim - 2, out=p)
            p, c = c, p
        dst[start : start + block.size] = c
    return float(out) if scalar else out


def bessel_j(order: float, x: ArrayLike) -> ArrayLike:
    """Bessel function J_nu(x) of real order nu >= 0 for x >= 0.

    Evaluated by ``scipy.special.jv``.  A negative or NaN order or
    argument raises ``ValueError``.
    """
    if not order >= 0:
        raise ValueError(f"order must be >= 0, got {order}")
    arr, scalar = _as_float_array(x)
    if not np.all(arr >= 0):
        raise ValueError("x must be >= 0")
    vals = jv(order, arr)
    return float(vals) if scalar else vals


def gegenbauer_hilb(ell: int, dim: int, theta: ArrayLike) -> ArrayLike:
    """Bessel main term of the high-degree approximation to G_ell^{(d)}(cos theta).

    For theta in (0, pi/2] and L = ell + (dim - 1)/2,

        G_ell(cos theta) ~ 2^{d/2-1} / C(ell + d/2 - 1, ell)
                            * (sin theta)^{1 - d/2} * a
                            * sqrt(theta / sin theta) * J_{d/2-1}(L theta),

    with a = Gamma(ell + d/2) / (L^{d/2-1} ell!).  The prefactors are
    assembled in log space so large ``ell`` does not overflow.  theta
    outside (0, pi/2] raises ``ValueError``.
    """
    if ell < 0:
        raise ValueError(f"ell must be >= 0, got {ell}")
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    arr, scalar = _as_float_array(theta)
    if not np.all((arr > 0.0) & (arr <= math.pi / 2.0 + 1e-12)):
        raise ValueError("theta must lie in (0, pi/2]")
    big_l = ell + (dim - 1) / 2.0
    nu = dim / 2.0 - 1.0
    # log of 2^nu / C(ell+d/2-1, ell) * Gamma(ell+d/2) / (L^nu * ell!)
    log_binom = gammaln(ell + dim / 2.0) - gammaln(ell + 1.0) - gammaln(dim / 2.0)
    log_a = gammaln(ell + dim / 2.0) - nu * math.log(big_l) - gammaln(ell + 1.0)
    coef = math.exp(nu * math.log(2.0) - log_binom + log_a)
    s = np.sin(arr)
    vals = coef * s ** (-nu) * np.sqrt(arr / s) * bessel_j(nu, big_l * arr)
    return float(vals) if scalar else vals


@dataclass(frozen=True)
class GaussianValues:
    pdf: ArrayLike
    cdf: ArrayLike
    tail: ArrayLike


def _normal_cdf(arr: np.ndarray) -> np.ndarray:
    """Standard normal CDF of a float array, through erfc."""
    return 0.5 * erfc(-arr / math.sqrt(2.0))


def gaussian(u: ArrayLike) -> GaussianValues:
    """Standard normal density, CDF and upper tail, all through erfc.

    Using erfc keeps the tail accurate far into the extremes (tail(40)
    underflows gracefully instead of returning 1 - 1).
    """
    arr, scalar = _as_float_array(u)
    pdf = np.exp(-0.5 * arr * arr) / _SQRT_2PI
    cdf = _normal_cdf(arr)
    tail = _normal_cdf(-arr)
    if scalar:
        return GaussianValues(float(pdf), float(cdf), float(tail))
    return GaussianValues(pdf, cdf, tail)


def cdf_derivative(q: int, u: ArrayLike) -> ArrayLike:
    """q-th derivative of the standard normal CDF, q >= 1.

    d^q/du^q Phi(u) = (-1)^{q-1} He_{q-1}(u) phi(u), with He_k the
    probabilists' Hermite polynomials (``scipy.special.eval_hermitenorm``).
    q = 0 is a domain error: the CDF itself is not a derivative.
    """
    if not isinstance(q, (int, np.integer)) or isinstance(q, bool):
        raise ValueError(f"q must be an integer, got {q!r}")
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    arr, scalar = _as_float_array(u)
    pdf = np.exp(-0.5 * arr * arr) / _SQRT_2PI
    vals = (-1.0) ** (q - 1) * eval_hermitenorm(q - 1, arr) * pdf
    return float(vals) if scalar else vals


def _aggregate_kind(kind: Union[CriticalKind, str]) -> CriticalKind:
    """``kind`` as a CriticalKind that has a limiting density of critical values."""
    if not isinstance(kind, CriticalKind):
        try:
            kind = CriticalKind(str(kind))
        except ValueError:
            raise ValueError(f"unknown critical kind {kind!r}") from None
    if kind in (CriticalKind.MINIMUM, CriticalKind.MAXIMUM):
        raise ValueError(
            f"no limiting density for kind {kind.value!r}; "
            "use critical, extremum or saddle"
        )
    return kind


def critical_density(kind: Union[CriticalKind, str], u: ArrayLike) -> ArrayLike:
    """Limiting density of critical values of normalized eigenfunctions on S^2.

    As ell -> infinity the expected number of critical points of h_ell with
    value in [u, u + du], divided by ell^2, converges to psi_kind(u) du with

        psi_critical(u) = (2 e^{-u^2} + u^2 - 1) phi(u)
        psi_extremum(u) = (e^{-u^2} + u^2 - 1) phi(u)
        psi_saddle(u)   = e^{-u^2} phi(u)

    so psi_critical = psi_extremum + psi_saddle.  These follow from the
    Kac-Rice formula with the exponential law of the conditional Hessian
    determinant.  Their tails over [u, infinity), which ``critical_tail``
    returns, have the closed forms

        saddle a,   extremum a + b,   critical 2a + b,

    with a = (1 - Phi(sqrt(3) u)) / sqrt(3) and b = u phi(u).  The totals
    are 2/sqrt(3) (critical) and 1/sqrt(3) (extrema and saddles each), and
    the Euler-characteristic identity psi_extremum - psi_saddle =
    (u^2 - 1) phi(u) holds exactly.

    Only the aggregate kinds CRITICAL, EXTREMUM, SADDLE have a limiting
    density of this form; MINIMUM / MAXIMUM raise ``ValueError``.
    """
    ck = _aggregate_kind(kind)
    arr, scalar = _as_float_array(u)
    u2 = arr * arr
    base = np.exp(-0.5 * u2) / _SQRT_2PI
    if ck is CriticalKind.CRITICAL:
        vals = (2.0 * np.exp(-u2) + u2 - 1.0) * base
    elif ck is CriticalKind.EXTREMUM:
        vals = (np.exp(-u2) + u2 - 1.0) * base
    else:
        vals = np.exp(-u2) * base
    return float(vals) if scalar else vals


def critical_tail(kind: Union[CriticalKind, str], u: float) -> float:
    """Integral of ``critical_density`` over [u, infinity), in closed form.

    With a = (1 - Phi(sqrt(3) u)) / sqrt(3), the tail of e^{-t^2} phi(t),
    and b = u phi(u), the tail of (t^2 - 1) phi(t), the saddle tail is a,
    the extremum tail a + b and the critical tail 2a + b.
    """
    ck = _aggregate_kind(kind)
    u = float(u)
    a = gaussian(_SQRT3 * u).tail / _SQRT3
    pdf = gaussian(u).pdf
    b = u * pdf if pdf else 0.0  # u phi(u) -> 0 as u -> +-inf
    if ck is CriticalKind.SADDLE:
        return a
    if ck is CriticalKind.EXTREMUM:
        return a + b
    return 2.0 * a + b
