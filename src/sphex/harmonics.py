"""Random eigenfunction ensembles on spheres.

A degree-ell eigenfunction is represented by a unit coefficient vector
alpha on the eigenspace sphere together with a scalar radius; the random
ensembles of interest are alpha uniform (fixed radius 1) and the Gaussian
ensemble, where the radius is an independent normalized chi distributed
amplitude.  On S^2 the real orthonormal basis is explicit and evaluation
reduces to dense linear algebra; in higher dimensions fields are simulated
through their covariance (Gram matrix) at a finite point set.

Basis normalization: all basis functions are orthonormal with respect to
the *normalized* surface measure, so sum_m Y_m(x)^2 equals the eigenspace
dimension and each field value has unit variance under the Gaussian
ensemble.

Randomness discipline: every consumer derives its generator through
``stream(seed, replicate, purpose)``, which keys a counter-based Philox
stream by a stable hash of the purpose label.  Streams for different
purposes or replicates never overlap and results do not depend on the
order in which replicates are drawn.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .specfun import HarmonicLevel, gegenbauer
from .sphere_geom import SphereGrid, SpherePoint, as_point_array

__all__ = [
    "ChartError",
    "CoefficientVector",
    "FieldSample",
    "GeometryError",
    "GramSimulator",
    "NonGaussianModel",
    "coefficients_csv_text",
    "covariance",
    "evaluate",
    "evaluate_grid",
    "frame_gradient",
    "gradient_hessian",
    "read_coefficients_csv",
    "sample_gaussian",
    "sample_nongaussian",
    "sample_radius",
    "sample_unit_coefficients",
    "stream",
    "write_coefficients_csv",
    "ylm",
]

_SQRT2 = math.sqrt(2.0)
_POLE_BAND = 1.0 - 1e-8
_JET_BLOCK = 2048  # points per block of _frame_jet2


class ChartError(ValueError):
    """Raised when an operation needs the polar chart too close to a pole."""


class GeometryError(RuntimeError):
    """Raised on degenerate geometry.

    A covariance Gram matrix that cannot be factorized, or a critical point
    set flagged degenerate, whose Morse count
    ``excursion.euler_characteristic_morse`` refuses.
    """


def stream(
    seed: int, replicate: int = 0, purpose: str = ""
) -> np.random.Generator:
    """Independent Philox stream keyed by (seed, replicate, purpose).

    The purpose label is hashed with blake2b (stable across processes and
    Python versions, unlike the builtin ``hash``) into the spawn key, so
    distinct purposes get provably disjoint counter streams under the same
    campaign seed.
    """
    digest = hashlib.blake2b(purpose.encode("utf-8"), digest_size=8).digest()
    w1 = int.from_bytes(digest[:4], "little")
    w2 = int.from_bytes(digest[4:], "little")
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(w1, w2, int(replicate)))
    return np.random.Generator(np.random.Philox(ss))


# ---------------------------------------------------------------------------
# coefficient vectors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoefficientVector:
    """A field h = radius * sum_m alpha_m Y_m with ||alpha|| = 1.

    ``alpha`` is renormalized on construction; a deviation from unit norm
    beyond 1e-6 raises, smaller drift (accumulated rounding) is absorbed.
    """

    level: HarmonicLevel
    alpha: np.ndarray
    radius: float = 1.0

    def __post_init__(self) -> None:
        a = np.asarray(self.alpha, dtype=float)
        if a.shape != (self.level.n,):
            raise ValueError(
                f"alpha must have length n={self.level.n}, got shape {a.shape}"
            )
        norm = float(np.linalg.norm(a))
        if not math.isfinite(norm) or abs(norm - 1.0) > 1e-6:
            raise ValueError(f"alpha norm {norm!r} is not 1 within 1e-6")
        object.__setattr__(self, "alpha", a / norm)
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise ValueError(f"radius must be positive, got {self.radius}")

    def scaled(self, c: float) -> "CoefficientVector":
        return replace(self, radius=self.radius * c)

    @property
    def sample_power(self) -> float:
        """Squared coefficient norm of the full (radius-scaled) field."""
        return self.radius * self.radius


def sample_unit_coefficients(
    level: HarmonicLevel, rng: np.random.Generator
) -> CoefficientVector:
    """alpha uniform on the unit sphere of the eigenspace, radius 1."""
    z = rng.standard_normal(level.n)
    norm = np.linalg.norm(z)
    while norm == 0.0:  # pragma: no cover - probability zero
        z = rng.standard_normal(level.n)
        norm = np.linalg.norm(z)
    return CoefficientVector(level, z / norm, 1.0)


def sample_radius(level: HarmonicLevel, rng: np.random.Generator) -> float:
    """Amplitude radius R with n R^2 ~ chi-square(n), via a gamma draw."""
    x = rng.gamma(level.n / 2.0, 2.0)
    return math.sqrt(x / level.n)


def sample_gaussian(
    level: HarmonicLevel, rng: np.random.Generator
) -> CoefficientVector:
    """Gaussian ensemble: uniform alpha and independent chi radius.

    Draw order (alpha first, then radius) is part of the reproducibility
    contract for a given stream.
    """
    coeffs = sample_unit_coefficients(level, rng)
    return replace(coeffs, radius=sample_radius(level, rng))


# ---------------------------------------------------------------------------
# explicit basis on S^2
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=8)
def _legendre_coefficients(ell: int) -> tuple[tuple, ...]:
    """Recurrence coefficients (a, b, sqrt(2n+1), sqrt((2n+1)/2n)), n = 2..ell.

    ``a`` and ``b`` are columns over the orders m < n - 1.
    """
    coeffs = []
    for n in range(2, ell + 1):
        nn = float(n)
        m = np.arange(0, n - 1, dtype=float)
        a = np.sqrt((4.0 * nn * nn - 1.0) / (nn * nn - m * m))
        b = np.sqrt(
            ((2.0 * nn + 1.0) * ((nn - 1.0) ** 2 - m * m))
            / ((2.0 * nn - 3.0) * (nn * nn - m * m))
        )
        coeffs.append((
            a[:, None],
            b[:, None],
            math.sqrt(2.0 * nn + 1.0),
            math.sqrt((2.0 * nn + 1.0) / (2.0 * nn)),
        ))
    return tuple(coeffs)


def _legendre_rows(ell: int, x: np.ndarray, depth: int) -> list[np.ndarray]:
    """Fully normalized associated Legendre values at the top ``depth`` degrees.

    Returns ``depth`` arrays of shape (N, ell+1); entry k holds, in column
    m, the value of P_bar_{ell-k, m}(x) (zero where m exceeds the degree).
    The normalization satisfies integral of P_bar^2 over [-1, 1] equal to
    2, so the zonal basis function is exactly P_bar_{ell,0}.

    Each pass of the loop advances all orders m of one degree at once, so
    the interpreter runs O(ell) passes.  The buffers are laid out
    order-major, (ell+1, N): the orders a pass touches form one contiguous
    block, and in-place ufuncs (``out=``) write into the three recycled
    buffers and one scratch buffer instead of allocating a temporary per
    operation.  Each element sees the same floating-point operations in
    the same order as the degree-major (N, ell+1) form, so the values are
    bit-identical to it.  The rows come back as C-contiguous (N, ell+1)
    copies because callers reduce them with ``.sum(axis=1)``, whose
    pairwise summation order follows the memory layout; handing back the
    transposed views would change the last bits of every such sum.
    """
    x = np.asarray(x, dtype=float)
    n_pts = x.shape[0]
    sx = np.sqrt(np.maximum(0.0, 1.0 - x * x))
    if ell == 0:
        return [np.ones((n_pts, 1))] + [np.zeros((n_pts, 1)) for _ in range(depth - 1)]
    prev2 = np.zeros((ell + 1, n_pts))
    prev = np.zeros((ell + 1, n_pts))
    prev[0] = 1.0
    cur = np.zeros((ell + 1, n_pts))
    cur[0] = math.sqrt(3.0) * x
    cur[1] = math.sqrt(1.5) * sx
    scratch = np.empty((ell - 1, n_pts))
    for n, (a, b, c_diag, c_next) in enumerate(_legendre_coefficients(ell), start=2):
        # the oldest buffer holds degree n-3, so its rows above n are
        # already zero; rows 0..n are overwritten below
        nxt = prev2
        low, tmp = nxt[: n - 1], scratch[: n - 1]
        np.multiply(cur[: n - 1], x, out=low)
        low *= a
        np.multiply(prev[: n - 1], b, out=tmp)
        low -= tmp
        np.multiply(x, c_diag, out=nxt[n - 1])
        nxt[n - 1] *= cur[n - 1]
        np.multiply(sx, c_next, out=nxt[n])
        nxt[n] *= cur[n - 1]
        prev2, prev, cur = prev, cur, nxt
    return [np.ascontiguousarray(rows.T) for rows in (cur, prev, prev2)[:depth]]


def _check_s2(level: HarmonicLevel) -> None:
    if level.dim != 2:
        raise ValueError(
            "the explicit basis is only available on S^2; "
            f"got dim={level.dim} (use GramSimulator for higher dimensions)"
        )


def _basis_matrix(ell: int, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Orthonormal real basis values, shape (N, 2*ell+1).

    Column layout (1-based slot index used by ``ylm``): slot 1 is the
    zonal function, slot 2m the cosine harmonic of order m, slot 2m+1 the
    sine harmonic of order m.
    """
    p_l = _legendre_rows(ell, np.cos(theta), depth=1)[0]
    n_pts = theta.shape[0]
    basis = np.empty((n_pts, 2 * ell + 1))
    basis[:, 0] = p_l[:, 0]
    if ell > 0:
        orders = np.arange(1, ell + 1)
        ang = phi[:, None] * orders[None, :]
        scaled = _SQRT2 * p_l[:, 1:]
        basis[:, 1::2] = scaled * np.cos(ang)
        basis[:, 2::2] = scaled * np.sin(ang)
    return basis


def _angles_of(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    z = np.clip(points[:, 2], -1.0, 1.0)
    return np.arccos(z), np.arctan2(points[:, 1], points[:, 0])


def _rotated_coefficients(
    coeffs: CoefficientVector, rot: np.ndarray
) -> CoefficientVector:
    """Coefficients of the pulled-back field g(x) = f(rot @ x).

    Rotations act linearly within each eigenspace, so g has an exact
    coefficient vector at the same level.  It is recovered by projecting
    onto the basis with a Gauss-Legendre (in cos theta) by uniform (in
    phi) product rule; the integrands are products of two degree-ell
    eigenfunctions, for which ell + 1 nodes and 2*ell + 1 angles make the
    quadrature exact, so the result is correct to rounding.  (A plain
    least-squares fit on a generic point set is not safe here: uniform
    phi rings with fewer than 2*ell + 1 angles alias distinct orders.)
    """
    ell = coeffs.level.ell
    nodes, gl_w = np.polynomial.legendre.leggauss(ell + 1)
    n_phi = 2 * ell + 1
    phi = np.arange(n_phi) * (2.0 * math.pi / n_phi)
    theta = np.repeat(np.arccos(nodes), n_phi)
    phi = np.tile(phi, ell + 1)
    weights = np.repeat(gl_w, n_phi) / (2.0 * n_phi)
    st = np.sin(theta)
    pts = np.column_stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)])
    rotated = pts @ rot.T
    rotated /= np.linalg.norm(rotated, axis=1, keepdims=True)
    target = _basis_matrix(ell, *_angles_of(rotated)) @ coeffs.alpha
    basis = _basis_matrix(ell, theta, phi)
    alpha = basis.T @ (weights * target)
    norm = float(np.linalg.norm(alpha))
    return CoefficientVector(coeffs.level, alpha / norm, coeffs.radius)


def ylm(level: HarmonicLevel, m: int, point: Union[SpherePoint, np.ndarray]) -> float:
    """Single real basis function on S^2, slot index m in 1..2*ell+1.

    Slot 1 is zonal; even slots are cosine harmonics of order m//2, odd
    slots >= 3 the matching sine harmonics.
    """
    _check_s2(level)
    if not 1 <= m <= 2 * level.ell + 1:
        raise ValueError(f"m must lie in 1..{2 * level.ell + 1}, got {m}")
    pts = as_point_array(point)
    theta, phi = _angles_of(pts)
    return float(_basis_matrix(level.ell, theta, phi)[0, m - 1])


def evaluate(
    coeffs: CoefficientVector,
    point: Union[SpherePoint, np.ndarray, Sequence[SpherePoint]],
) -> Union[float, np.ndarray]:
    """Evaluate the field at one point or an array of points (S^2 only)."""
    _check_s2(coeffs.level)
    scalar = isinstance(point, SpherePoint) or (
        isinstance(point, np.ndarray) and point.ndim == 1
    )
    pts = as_point_array(point)
    theta, phi = _angles_of(pts)
    basis = _basis_matrix(coeffs.level.ell, theta, phi)
    vals = coeffs.radius * (basis @ coeffs.alpha)
    return float(vals[0]) if scalar else vals


def _ring_tables(grid: SphereGrid, ell: int) -> tuple[np.ndarray, ...]:
    """Ring tables of the separable path, built once per (ell, grid).

    Returns the zonal Legendre column over the rings and, for ell >= 1,
    sqrt(2) P_bar for orders 1..ell over the rings and the cosine and
    sine lattices of those orders over the longitudes.  They depend only
    on the grid and the degree, so they are kept on the grid and every
    later field of the same degree reuses them.  Only the last degree's
    tables are kept: a campaign cell evaluates one degree per grid, and
    a sweep over many degrees on one large grid would otherwise hold a
    table set per degree.
    """
    tables = grid._ring_tables.get(ell)
    if tables is None:
        thetas, phis = grid.rings
        p_l = _legendre_rows(ell, np.cos(thetas), depth=1)[0]
        tables = (p_l[:, 0].copy(),)
        if ell > 0:
            ang = np.arange(1, ell + 1)[:, None] * phis[None, :]
            tables += (_SQRT2 * p_l[:, 1:], np.cos(ang), np.sin(ang))
        grid._ring_tables = {ell: tables}
    return tables


def evaluate_grid(coeffs: CoefficientVector, grid: SphereGrid) -> np.ndarray:
    """Evaluate on a grid, using the separable ring path when available.

    On an iso-latitude product grid the basis factorizes into a Legendre
    table over rings times cosine/sine lattices over longitudes, turning
    evaluation into two matrix products; this is what makes high-degree
    sup-norm and excursion sweeps tractable.  The tables are cached on the
    grid for the degree last evaluated, so evaluating many fields of one
    degree on one grid builds them once.
    """
    _check_s2(coeffs.level)
    if grid.rings is None:
        return evaluate(coeffs, grid.points)
    ell = coeffs.level.ell
    n_phi = grid.rings[1].shape[0]
    tables = _ring_tables(grid, ell)
    a = coeffs.alpha
    if ell == 0:
        return np.repeat(coeffs.radius * a[0] * tables[0], n_phi)
    zonal, scaled, cos_lat, sin_lat = tables
    vals = np.outer(zonal * a[0], np.ones(n_phi))
    vals += (scaled * a[1::2][None, :]) @ cos_lat
    vals += (scaled * a[2::2][None, :]) @ sin_lat
    return coeffs.radius * vals.ravel()


def frame_gradient(
    coeffs: CoefficientVector, points: Union[np.ndarray, Sequence[SpherePoint]]
) -> np.ndarray:
    """Gradient components (g_theta, g_phi) in the orthonormal polar frame.

    Shape (N, 2).  The division by sin(theta) is floored at 1e-12 rather
    than raised on, because batched Newton searches may graze the poles
    transiently; callers needing the strict chart contract should go
    through ``gradient_hessian``.
    """
    _check_s2(coeffs.level)
    pts = as_point_array(points)
    _, g_t, g_p, _, _, _ = _frame_jet2(coeffs, *_angles_of(pts))
    return np.column_stack([g_t, g_p])


def _jet_rows(
    ell: int, theta: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Legendre rows of degree ell and their first two theta-derivatives.

    Returns (x, s, P_bar, dP_bar/dtheta, d2P_bar/dtheta2) with x = cos
    theta, s = sin theta floored at 1e-12, and the three (N, ell+1) rows
    for ell >= 1.  The second derivative comes from differentiating the
    first-derivative recurrence once more, which pulls in the degree
    ell-2 row.  This is the one place the basis is differentiated:
    ``_frame_jet2`` and the ring path ``_ring_jet2`` both read it.
    """
    x = np.cos(theta)
    s = np.maximum(np.sin(theta), 1e-12)
    p_l, p_lm1, p_lm2 = _legendre_rows(ell, x, depth=3)
    orders = np.arange(ell + 1, dtype=float)
    e1 = np.sqrt(
        (2.0 * ell + 1.0) * np.clip(ell * ell - orders**2, 0.0, None)
        / (2.0 * ell - 1.0)
    )
    if ell >= 2:
        e2 = np.sqrt(
            (2.0 * ell - 1.0)
            * np.clip((ell - 1.0) ** 2 - orders**2, 0.0, None)
            / (2.0 * ell - 3.0)
        )
    else:
        e2 = np.zeros(ell + 1)
    s_col = s[:, None]
    x_col = x[:, None]
    d_l = (ell * x_col * p_l - e1[None, :] * p_lm1) / s_col
    d_lm1 = ((ell - 1.0) * x_col * p_lm1 - e2[None, :] * p_lm2) / s_col
    dd_l = (
        -ell * s_col * p_l + ell * x_col * d_l - e1[None, :] * d_lm1
    ) / s_col - (x_col / s_col) * d_l
    return x, s, p_l, d_l, dd_l


def _frame_jet2(
    coeffs: CoefficientVector, theta: np.ndarray, phi: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Value, frame gradient and covariant frame Hessian, all analytic.

    Returns (value, g_theta, g_phi, h_tt, h_tp, h_pp) as flat arrays.  The
    points are worked through in blocks of ``_JET_BLOCK``, which keeps the
    Legendre buffers in cache; every point's arithmetic is independent of
    the others, so the result does not depend on the blocks.
    """
    if theta.shape[0] <= _JET_BLOCK:
        return _frame_jet2_block(coeffs, theta, phi)
    blocks = [
        _frame_jet2_block(coeffs, theta[i : i + _JET_BLOCK], phi[i : i + _JET_BLOCK])
        for i in range(0, theta.shape[0], _JET_BLOCK)
    ]
    return tuple(np.concatenate(parts) for parts in zip(*blocks))


def _frame_jet2_block(
    coeffs: CoefficientVector, theta: np.ndarray, phi: np.ndarray
) -> tuple[np.ndarray, ...]:
    ell = coeffs.level.ell
    r = coeffs.radius
    a = coeffs.alpha
    if ell == 0:
        zero = np.zeros_like(theta)
        return np.full_like(theta, r * a[0]), zero, zero, zero, zero, zero
    x, s, p_l, d_l, dd_l = _jet_rows(ell, theta)
    orders = np.arange(ell + 1, dtype=float)
    ang = phi[:, None] * orders[None, 1:]
    cos_a, sin_a = np.cos(ang), np.sin(ang)
    ac, asn = a[1::2], a[2::2]
    mix = ac * cos_a + asn * sin_a
    mix_d = orders[None, 1:] * (-ac * sin_a + asn * cos_a)
    val = r * (a[0] * p_l[:, 0] + _SQRT2 * (p_l[:, 1:] * mix).sum(axis=1))
    g_t = r * (a[0] * d_l[:, 0] + _SQRT2 * (d_l[:, 1:] * mix).sum(axis=1))
    f_p = r * _SQRT2 * (p_l[:, 1:] * mix_d).sum(axis=1)
    g_p = f_p / s
    h_tt = r * (a[0] * dd_l[:, 0] + _SQRT2 * (dd_l[:, 1:] * mix).sum(axis=1))
    f_tp = r * _SQRT2 * (d_l[:, 1:] * mix_d).sum(axis=1)
    f_pp = -r * _SQRT2 * (p_l[:, 1:] * orders[None, 1:] ** 2 * mix).sum(axis=1)
    h_tp = f_tp / s - (x / s) * g_p
    h_pp = f_pp / (s * s) + (x / s) * g_t
    return val, g_t, g_p, h_tt, h_tp, h_pp


def _ring_jet_tables(
    ell: int, thetas: np.ndarray, phis: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Tables of the jet on an iso-latitude product grid, for ell >= 1.

    Returns cos theta and the floored sin theta over the rings, the jet
    rows (P_bar, dP_bar/dtheta, d2P_bar/dtheta2) over the rings as one
    (3, n_theta, ell+1) array, and the cosine lattices of orders 1..ell
    over the longitudes stacked on the sine lattices, shape (2 ell, n_phi).
    They depend only on the degree and the rings, so a caller that
    evaluates many fields of one degree on one grid builds them once.
    """
    x, s, p_l, d_l, dd_l = _jet_rows(ell, thetas)
    ang = np.arange(1, ell + 1)[:, None] * phis[None, :]
    return x, s, np.stack([p_l, d_l, dd_l]), np.vstack([np.cos(ang), np.sin(ang)])


def _ring_jet2(
    coeffs: CoefficientVector, tables: tuple[np.ndarray, ...]
) -> tuple[np.ndarray, ...]:
    """``_frame_jet2`` at every point of an iso-latitude product grid.

    ``tables`` come from ``_ring_jet_tables`` at the field's degree.  The
    basis factorizes into the ring jet rows times the longitude lattices,
    so the six outputs take one matrix product, as in ``evaluate_grid``.
    They are flat in the grid's ring-major point order and agree with
    ``_frame_jet2`` at the same points up to rounding, since the sums over
    orders run in a different order.
    """
    x, s, jet, lattice = tables
    ell = coeffs.level.ell
    r, a = coeffs.radius, coeffs.alpha
    ac, asn = a[1::2], a[2::2]
    m = np.arange(1, ell + 1, dtype=float)
    p, d, dd = jet[:, :, 1:]
    # (rows, cosine weights, sine weights) of f, f_theta, f_theta_theta,
    # f_phi, f_theta_phi and f_phi_phi, before the frame's 1/sin factors
    terms = (
        (p, ac, asn),
        (d, ac, asn),
        (dd, ac, asn),
        (p, m * asn, -m * ac),
        (d, m * asn, -m * ac),
        (p, -m * m * ac, -m * m * asn),
    )
    left = np.stack([np.hstack([rows * wc, rows * ws]) for rows, wc, ws in terms])
    sums = (left.reshape(-1, 2 * ell) @ lattice).reshape(6, x.shape[0], -1)
    sums *= r * _SQRT2
    zonal = r * a[0] * jet[:, :, :1]
    val, g_t, h_tt = sums[:3] + zonal
    f_p, f_tp, f_pp = sums[3:]
    s_col = s[:, None]
    cot = (x / s)[:, None]
    g_p = f_p / s_col
    h_tp = f_tp / s_col - cot * g_p
    h_pp = f_pp / (s_col * s_col) + cot * g_t
    return tuple(q.ravel() for q in (val, g_t, g_p, h_tt, h_tp, h_pp))


def gradient_hessian(
    coeffs: CoefficientVector, point: Union[SpherePoint, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Frame gradient and covariant Hessian at a single point on S^2.

    Both come from the analytic jet ``_frame_jet2``, with the Hessian's
    components taken in the orthonormal frame (e_theta, e_phi).  Points
    with |cos theta| >= 1 - 1e-8 raise ``ChartError``: the polar chart
    degenerates there and callers are expected to work in a rotated frame
    instead.
    """
    _check_s2(coeffs.level)
    pts = as_point_array(point)
    if pts.shape[0] != 1:
        raise ValueError("gradient_hessian expects a single point")
    theta, phi = _angles_of(pts)
    t0 = float(theta[0])
    if abs(math.cos(t0)) >= _POLE_BAND:
        raise ChartError(
            f"point with |cos theta| = {abs(math.cos(t0)):.12f} is inside the "
            "polar band; rotate the frame before differentiating"
        )
    _, g_t, g_p, h_tt, h_tp, h_pp = _frame_jet2(coeffs, theta, phi)
    grad = np.array([g_t[0], g_p[0]])
    hess = np.array([[h_tt[0], h_tp[0]], [h_tp[0], h_pp[0]]])
    return grad, hess


# ---------------------------------------------------------------------------
# covariance and Gram-based simulation
# ---------------------------------------------------------------------------


def covariance(level: HarmonicLevel, x, y) -> Union[float, np.ndarray]:
    """Ensemble covariance E[T(x) T(y)] = G_ell(<x, y>)."""
    xa = as_point_array(x)
    ya = as_point_array(y)
    dots = np.clip(np.sum(xa * ya, axis=-1), -1.0, 1.0)
    vals = gegenbauer(level.ell, level.dim, dots)
    vals = np.asarray(vals)
    return float(vals[0]) if vals.shape == (1,) else vals


class FieldSample(NamedTuple):
    """A sampled field: its values at a point set and the weights of the points.

    Every functional of a field's value law reads exactly this pair, so a
    plain ``(values, weights)`` tuple is accepted wherever a sample is.
    """

    values: np.ndarray
    weights: np.ndarray

    @classmethod
    def explicit(cls, coeffs: CoefficientVector, grid: SphereGrid) -> "FieldSample":
        """The field with coefficients ``coeffs`` (S^2) sampled on ``grid``."""
        return cls(evaluate_grid(coeffs, grid), grid.weights)


class GramSimulator:
    """Cholesky-based simulator of the Gaussian field at a fixed point set.

    The Gram matrix has rank at most the eigenspace dimension, so for
    point counts beyond that a diagonal jitter is unavoidable; it is
    escalated from 1e-12 by factors of 10 up to 1e-8 and the value used is
    kept in ``jitter``.  Failure beyond the ceiling raises
    ``GeometryError`` (degenerate geometry, e.g. duplicated points).
    Samples carry the grid's weights when ``points`` is a ``SphereGrid``
    and uniform weights otherwise.
    """

    _LADDER = (0.0, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8)

    def __init__(self, level: HarmonicLevel, points) -> None:
        pts = as_point_array(points)
        if pts.shape[1] != level.dim + 1:
            raise ValueError(
                f"points have ambient dimension {pts.shape[1]}, "
                f"expected {level.dim + 1}"
            )
        self.level = level
        self.points = pts
        n_pts = pts.shape[0]
        self.weights = (
            points.weights if isinstance(points, SphereGrid)
            else np.full(n_pts, 1.0 / n_pts)
        )
        gram = gegenbauer(level.ell, level.dim, np.clip(pts @ pts.T, -1.0, 1.0))
        self.jitter = 0.0
        self._chol = None
        for jit in self._LADDER:
            try:
                # the exact diagonal is G(1) = 1; bump it in place instead of
                # materializing an identity matrix next to a large Gram block
                np.fill_diagonal(gram, 1.0 + jit)
                self._chol = np.linalg.cholesky(gram)
                self.jitter = jit
                break
            except np.linalg.LinAlgError:
                continue
        if self._chol is None:
            raise GeometryError(
                "covariance Gram matrix is not positive definite even with "
                "jitter 1e-8; the point set is likely degenerate"
            )

    def sample(self, rng: np.random.Generator) -> FieldSample:
        z = rng.standard_normal(self.points.shape[0])
        return FieldSample(self._chol @ z, self.weights)


# ---------------------------------------------------------------------------
# non-Gaussian perturbations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NonGaussianModel:
    """Coefficient-law perturbations of the Gaussian ensemble.

    ``scale_mixture`` multiplies the Gaussian amplitude by an independent
    discrete factor xi (atoms with probabilities); ``heavy_tail`` draws
    iid Student-t coefficients scaled to unit expected power.  Both keep
    the conditional-on-power law uniform on the coefficient sphere, which
    is what makes the scale-mixture excursion statistics exactly match the
    Gaussian ones after power rescaling.
    """

    family: str
    atoms: tuple[float, ...] = ()
    probs: tuple[float, ...] = ()
    dof: float = 0.0

    @classmethod
    def scale_mixture(
        cls, atoms: Sequence[float], probs: Optional[Sequence[float]] = None
    ) -> "NonGaussianModel":
        atoms = tuple(float(a) for a in atoms)
        if not atoms or any(a <= 0 for a in atoms):
            raise ValueError("mixture atoms must be positive")
        if probs is None:
            probs = tuple(1.0 / len(atoms) for _ in atoms)
        else:
            probs = tuple(float(p) for p in probs)
        if len(probs) != len(atoms) or any(p < 0 for p in probs):
            raise ValueError("probs must be nonnegative, one per atom")
        total = sum(probs)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probs sum to {total}, expected 1")
        return cls(family="scale_mixture", atoms=atoms, probs=probs)

    @classmethod
    def heavy_tail(cls, dof: float) -> "NonGaussianModel":
        if dof <= 2.0:
            raise ValueError("heavy_tail requires dof > 2 (finite variance)")
        return cls(family="heavy_tail", dof=float(dof))

    @classmethod
    def parse(cls, text: str) -> "NonGaussianModel":
        """Parse compact CLI/config syntax.

        ``gaussian``; ``mixture:a1,a2,...`` (equal weights) or
        ``mixture:a1@p1,a2@p2,...``; ``student:dof``.
        """
        text = text.strip()
        if text == "gaussian":
            return cls.scale_mixture((1.0,))
        if ":" not in text:
            raise ValueError(f"cannot parse model spec {text!r}")
        name, _, payload = text.partition(":")
        if name == "mixture":
            atoms, probs, weighted = [], [], False
            for tok in payload.split(","):
                if "@" in tok:
                    a, _, p = tok.partition("@")
                    atoms.append(float(a))
                    probs.append(float(p))
                    weighted = True
                else:
                    atoms.append(float(tok))
            return cls.scale_mixture(atoms, probs if weighted else None)
        if name == "student":
            return cls.heavy_tail(float(payload))
        raise ValueError(f"unknown model family {name!r}")


def sample_nongaussian(
    model: NonGaussianModel, level: HarmonicLevel, rng: np.random.Generator
) -> tuple[CoefficientVector, float]:
    """Draw (coefficients, sample power C~) from a perturbed ensemble.

    For a single-atom mixture no selector variate is consumed, so
    ``scale_mixture([1.0])`` reproduces ``sample_gaussian`` draw for draw
    on the same stream.
    """
    if model.family == "scale_mixture":
        coeffs = sample_gaussian(level, rng)
        if len(model.atoms) == 1:
            xi = model.atoms[0]
        else:
            xi = float(rng.choice(np.array(model.atoms), p=np.array(model.probs)))
        out = coeffs.scaled(xi)
        return out, out.sample_power
    if model.family == "heavy_tail":
        raw = rng.standard_t(model.dof, size=level.n)
        scale = math.sqrt(level.n * model.dof / (model.dof - 2.0))
        raw = raw / scale
        norm = float(np.linalg.norm(raw))
        while norm == 0.0:  # pragma: no cover
            raw = rng.standard_t(model.dof, size=level.n) / scale
            norm = float(np.linalg.norm(raw))
        coeffs = CoefficientVector(level, raw / norm, norm)
        return coeffs, coeffs.sample_power
    raise ValueError(f"unknown model family {model.family!r}")


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------


_CSV_COLUMNS = ("ell", "d", "radius", "m", "alpha")


def write_coefficients_csv(coeffs: CoefficientVector, path_or_file) -> None:
    """Columns ell, d, radius, m, alpha with %.17g floats (exact round trip)."""

    def _write(fh) -> None:
        writer = csv.writer(fh)
        writer.writerow(_CSV_COLUMNS)
        ell, d = coeffs.level.ell, coeffs.level.dim
        r = format(coeffs.radius, ".17g")
        for m, a in enumerate(coeffs.alpha, start=1):
            writer.writerow([ell, d, r, m, format(a, ".17g")])

    if isinstance(path_or_file, (str, bytes)):
        with open(path_or_file, "w", newline="") as fh:
            _write(fh)
    else:
        _write(path_or_file)


def read_coefficients_csv(path_or_file) -> CoefficientVector:
    if isinstance(path_or_file, (str, bytes)):
        with open(path_or_file, newline="") as fh:
            return _read_coeffs(fh)
    return _read_coeffs(path_or_file)


def _read_coeffs(fh) -> CoefficientVector:
    reader = csv.DictReader(fh)
    missing = [c for c in _CSV_COLUMNS if c not in (reader.fieldnames or ())]
    if missing:
        raise ValueError(
            f"coefficient CSV is missing columns: {', '.join(missing)}; "
            f"expected the header {','.join(_CSV_COLUMNS)}"
        )
    rows = list(reader)
    if not rows:
        raise ValueError("coefficient CSV is empty")
    first = {"ell": int(rows[0]["ell"]), "d": int(rows[0]["d"]),
             "radius": float(rows[0]["radius"])}
    level = HarmonicLevel(first["ell"], first["d"])
    alpha = np.zeros(level.n)
    seen = np.zeros(level.n, dtype=bool)
    for row in rows:
        for column, value in first.items():
            if type(value)(row[column]) != value:
                raise ValueError(
                    f"column {column} is {row[column]} on one row but "
                    f"{rows[0][column]} on the first"
                )
        m = int(row["m"])
        if not 1 <= m <= level.n:
            raise ValueError(f"slot index {m} outside 1..{level.n}")
        if seen[m - 1]:
            raise ValueError(f"slot index {m} appears more than once")
        alpha[m - 1] = float(row["alpha"])
        seen[m - 1] = True
    if not seen.all():
        raise ValueError("coefficient CSV is missing slots")
    return CoefficientVector(level, alpha, first["radius"])


def coefficients_csv_text(coeffs: CoefficientVector) -> str:
    buf = io.StringIO()
    write_coefficients_csv(coeffs, buf)
    return buf.getvalue()
