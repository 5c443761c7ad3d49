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
from .sphere_geom import SphereGrid, _unit_vectors

__all__ = [
    "CoefficientVector",
    "FieldSample",
    "GeometryError",
    "GramSimulator",
    "NonGaussianModel",
    "coefficients_csv_text",
    "evaluate",
    "evaluate_grid",
    "read_coefficients_csv",
    "sample_gaussian",
    "sample_nongaussian",
    "sample_radius",
    "sample_unit_coefficients",
    "stream",
]

_SQRT2 = math.sqrt(2.0)
_JET_BLOCK = 2048  # points per block of _frame_jet2
_RANK_TOL = 1e-12  # remaining variance at which GramSimulator stops adding columns


class GeometryError(RuntimeError):
    """Raised on degenerate geometry.

    A simulator's point set with a repeated point, or a critical point set
    flagged degenerate, whose Morse count
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


def _legendre_rows(ell: int, x: np.ndarray) -> np.ndarray:
    """Fully normalized associated Legendre values of degree ell, (N, ell+1).

    Column m holds P_bar_{ell,m}(x), with sin theta taken as
    sqrt(1 - x^2) >= 0.  The normalization satisfies integral of P_bar^2
    over [-1, 1] equal to 2, so the zonal basis function is exactly
    P_bar_{ell,0}.  Each pass of the three-term recurrence advances all
    orders of one degree at once, so the interpreter runs O(ell) passes.
    The one caller is ``_theta_fourier``, which samples the degree once:
    every Legendre value of the basis comes from that table.
    """
    x = np.asarray(x, dtype=float)
    sx = np.sqrt(np.maximum(0.0, 1.0 - x * x))
    prev = np.zeros((x.shape[0], ell + 1))
    prev[:, 0] = 1.0
    if ell == 0:
        return prev
    cur = np.zeros_like(prev)
    cur[:, 0] = math.sqrt(3.0) * x
    cur[:, 1] = math.sqrt(1.5) * sx
    # the recycled buffer holds degree n - 3 (zero above column n - 3), and
    # a pass overwrites columns 0..n, so the columns above n stay zero
    nxt = np.zeros_like(prev)
    for n in range(2, ell + 1):
        nn = float(n)
        m = np.arange(0, n - 1, dtype=float)
        a = np.sqrt((4.0 * nn * nn - 1.0) / (nn * nn - m * m))
        b = np.sqrt(
            ((2.0 * nn + 1.0) * ((nn - 1.0) ** 2 - m * m))
            / ((2.0 * nn - 3.0) * (nn * nn - m * m))
        )
        nxt[:, : n - 1] = a * (x[:, None] * cur[:, : n - 1]) - b * prev[:, : n - 1]
        nxt[:, n - 1] = math.sqrt(2.0 * nn + 1.0) * x * cur[:, n - 1]
        nxt[:, n] = math.sqrt((2.0 * nn + 1.0) / (2.0 * nn)) * sx * cur[:, n - 1]
        prev, cur, nxt = cur, nxt, prev
    return cur


def _check_s2(level: HarmonicLevel) -> None:
    if level.dim != 2:
        raise ValueError(
            "the explicit basis is only available on S^2; "
            f"got dim={level.dim} (use GramSimulator for higher dimensions)"
        )


def _basis_matrix(ell: int, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Orthonormal real basis values, shape (N, 2*ell+1).

    Column layout (1-based slot index, the ``m`` column of the coefficient
    CSV): slot 1 is the zonal function, slot 2m the cosine harmonic of
    order m, slot 2m+1 the sine harmonic of order m.

    The Legendre rows (the P_bar columns of ``_jet_rows``) are computed
    once per distinct colatitude and the cosine/sine tables once per
    distinct longitude, then gathered back per point.  Every element sees
    the arithmetic it would per point, so the matrix is bit-identical to
    the per-point one; mesh vertices and quadrature nodes repeat their
    colatitudes many times over.
    """
    u_theta, at_theta = np.unique(theta, return_inverse=True)
    p_l = _jet_rows(ell, u_theta, depth=1)[0][at_theta]
    n_pts = theta.shape[0]
    basis = np.empty((n_pts, 2 * ell + 1))
    basis[:, 0] = p_l[:, 0]
    if ell > 0:
        u_phi, at_phi = np.unique(phi, return_inverse=True)
        ang = u_phi[:, None] * np.arange(1, ell + 1)[None, :]
        scaled = _SQRT2 * p_l[:, 1:]
        basis[:, 1::2] = scaled * np.cos(ang)[at_phi]
        basis[:, 2::2] = scaled * np.sin(ang)[at_phi]
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
    rotated = _unit_vectors(theta, phi) @ rot.T
    rotated /= np.linalg.norm(rotated, axis=1, keepdims=True)
    target = _basis_matrix(ell, *_angles_of(rotated)) @ coeffs.alpha
    basis = _basis_matrix(ell, theta, phi)
    alpha = basis.T @ (weights * target)
    norm = float(np.linalg.norm(alpha))
    return CoefficientVector(coeffs.level, alpha / norm, coeffs.radius)


def _require_unit(pts: np.ndarray) -> None:
    """Refuse rows of ``pts`` whose norm is off 1 by more than 1e-6."""
    norms = np.linalg.norm(pts, axis=1)
    off = np.abs(norms - 1.0)
    if not np.all(off <= 1e-6):
        raise ValueError("points must be unit vectors within 1e-6, got a "
                         f"point of norm {float(norms[np.argmax(off)])!r}")


def evaluate(coeffs: CoefficientVector, points: np.ndarray) -> np.ndarray:
    """The field's values (N,) at the unit vectors ``points`` (N, 3), on S^2.

    A single point is a (1, 3) array; any other shape, and any norm off 1
    by more than 1e-6, is refused.
    """
    _check_s2(coeffs.level)
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"points must be an (N, 3) array, got shape {pts.shape}")
    _require_unit(pts)
    theta, phi = _angles_of(pts)
    basis = _basis_matrix(coeffs.level.ell, theta, phi)
    return coeffs.radius * (basis @ coeffs.alpha)


def _ring_tables(grid: SphereGrid, ell: int) -> tuple[np.ndarray, ...]:
    """The grid's ``_ring_jet_tables``, kept on the grid for the last degree.

    A campaign cell evaluates many fields of one degree per grid; keeping
    every degree would hold a table set per degree in a sweep on one grid.
    """
    tables = grid._ring_tables.get(ell)
    if tables is None:
        tables = _ring_jet_tables(ell, *grid.rings)
        grid._ring_tables = {ell: tables}
    return tables


def evaluate_grid(coeffs: CoefficientVector, grid: SphereGrid) -> np.ndarray:
    """Evaluate on a grid, using the separable ring path when available.

    On an iso-latitude product grid the basis factorizes into Legendre rows
    over rings times cosine/sine lattices over longitudes, so evaluation is
    two matrix products (``_ring_values``) on the grid's ``_ring_tables``.
    """
    _check_s2(coeffs.level)
    if grid.rings is None:
        return evaluate(coeffs, grid.points)
    return _ring_values(coeffs, _ring_tables(grid, coeffs.level.ell))


@functools.lru_cache(maxsize=1)
def _theta_fourier(ell: int) -> np.ndarray:
    """Fourier table in theta of the degree-ell Legendre rows, last degree only.

    P_bar_{ell,m}(cos theta) is sin^m theta times a polynomial in cos theta
    of degree ell - m, so as a function of theta it is a trigonometric
    polynomial of degree ell: a cosine series for even m, a sine series for
    odd m.  The rfft of 2 ell + 2 equispaced samples over a full turn gives
    the coefficients to rounding.  The recurrence runs once per distinct
    cos theta, at the ell + 2 samples in [0, pi]; the samples at 2 pi -
    theta repeat them with the odd orders flipped, since
    ``_legendre_rows`` takes sin theta as sqrt(1 - x^2) >= 0.  Returns a
    read-only (2 ell + 1, 3, ell + 1) array: row 0 is the constant term,
    rows 1..ell multiply cos k theta and rows ell+1..2 ell multiply
    sin k theta (k = 1..ell, the layout of ``_trig_rows``); the three
    column blocks give P_bar, dP_bar/dtheta and d2P_bar/dtheta2, each
    order m a column.  One degree is kept, since a caller evaluates many
    points or fields of one degree.
    """
    upper = _legendre_rows(ell, np.cos(np.arange(ell + 2) * (math.pi / (ell + 1))))
    lower = upper[ell:0:-1].copy()
    lower[:, 1::2] *= -1.0
    spec = np.fft.rfft(np.vstack([upper, lower]), axis=0)[: ell + 1] / (2 * ell + 2)
    cos_k, sin_k = 2.0 * spec.real[1:], -2.0 * spec.imag[1:]
    k = np.arange(1, ell + 1, dtype=float)[:, None]
    table = np.zeros((2 * ell + 1, 3, ell + 1))
    table[0, 0] = spec.real[0]
    table[1 : ell + 1] = np.stack([cos_k, k * sin_k, -k * k * cos_k], axis=1)
    table[ell + 1 :] = np.stack([sin_k, -k * cos_k, -k * k * sin_k], axis=1)
    table.flags.writeable = False
    return table


def _longitude_waves(phi: np.ndarray, ell: int) -> np.ndarray:
    """exp(i m phi) for m = 1..ell, shape (N, ell), by angle addition.

    Each order is the running product of exp(i phi), so a point costs two
    libm calls instead of 2 ell; the rounding error against cos and sin of
    the rounded m phi grows like m, within m eps (1 + |phi|).  The jet
    takes it at the longitudes and, through ``_trig_rows``, at the
    colatitudes.
    """
    step = np.exp(1j * phi)[:, None]
    return np.cumprod(np.broadcast_to(step, (phi.size, ell)), axis=1)


def _trig_rows(theta: np.ndarray, ell: int) -> np.ndarray:
    """(1, cos k theta, sin k theta) for k = 1..ell, shape (N, 2 ell + 1).

    The rows ``_theta_fourier``'s table multiplies, by angle addition
    (``_longitude_waves``).
    """
    waves = _longitude_waves(theta, ell)
    return np.hstack([np.ones((theta.size, 1)), waves.real, waves.imag])


def _jet_rows(ell: int, theta: np.ndarray, depth: int) -> np.ndarray:
    """Legendre rows of degree ell and their theta-derivatives, per point.

    Returns a (depth, N, ell+1) view: P_bar, then dP_bar/dtheta, then
    d2P_bar/dtheta2, the first ``depth`` of them.  Each is the trig rows
    (``_trig_rows``) times the columns of ``_theta_fourier`` the caller
    needs, with no division by sin theta, so the rows stay accurate at the
    poles.  The product is stacked, one (1, 2 ell + 1) by (2 ell + 1,
    depth (ell+1)) BLAS call per point: a plain 2-D product lets BLAS pick
    its kernel by the batch's shape, so a point's bits would depend on the
    batch it came in.  This is the one place the basis is differentiated:
    ``_frame_jet2`` reads it, and the ring path ``_ring_jet2`` reads the
    same table through ``_ring_rows``.
    """
    table = _theta_fourier(ell)[:, :depth].reshape(2 * ell + 1, -1)
    rows = np.matmul(_trig_rows(theta, ell)[:, None, :], table)
    return rows.reshape(theta.size, depth, ell + 1).transpose(1, 0, 2)


def _frame_jet2(
    coeffs: CoefficientVector, theta: np.ndarray, phi: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Value, frame gradient and covariant frame Hessian, all analytic.

    Returns (value, g_theta, g_phi, h_tt, h_tp, h_pp) as flat arrays.  The
    theta-jet rows come from ``_jet_rows``; the frame's 1/sin theta factors
    in g_phi, h_tp and h_pp are the only divisions, floored at sin theta =
    1e-12.  The points are worked through in blocks of ``_JET_BLOCK``,
    which keeps the row buffers in cache; every point's arithmetic is
    independent of the others, so the result does not depend on the
    blocks.
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
    x = np.cos(theta)
    s = np.maximum(np.sin(theta), 1e-12)
    p_l, d_l, dd_l = _jet_rows(ell, theta, depth=3)
    orders = np.arange(ell + 1, dtype=float)
    waves = _longitude_waves(phi, ell)
    cos_a, sin_a = waves.real, waves.imag
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


def _ring_rows(ell: int, thetas: np.ndarray) -> tuple[np.ndarray, ...]:
    """The ring half of ``_ring_jet_tables``: what the jet needs per ring.

    Returns cos theta and the floored sin theta over the rings, and the jet
    rows (P_bar, dP_bar/dtheta, d2P_bar/dtheta2) over the rings as one
    (3, n_theta, ell+1) array.  The jet rows are the trig rows times
    ``_theta_fourier``'s table, as in ``_jet_rows``, but by one plain
    matrix product: the ring paths need only agree with ``_frame_jet2`` to
    rounding.  The seed lattice of ``excursion._seed_rings`` keeps these
    alone, since its longitudes are equispaced over a full turn and its
    synthesis (``_ring_scan``, ``_ring_jet2``) is an inverse FFT.
    """
    x = np.cos(thetas)
    s = np.maximum(np.sin(thetas), 1e-12)
    rows = _trig_rows(thetas, ell) @ _theta_fourier(ell).reshape(2 * ell + 1, -1)
    jet = rows.reshape(-1, 3, ell + 1).transpose(1, 0, 2)
    return x, s, jet


def _ring_jet_tables(
    ell: int, thetas: np.ndarray, phis: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Tables of the field on an iso-latitude product grid.

    Returns the ``_ring_rows`` of the rings and the cosine lattices of
    orders 1..ell over the longitudes stacked on the sine lattices, shape
    (2 ell, n_phi), which ``_ring_values`` multiplies.  The tables depend
    only on the degree and the rings, so a caller that evaluates many
    fields of one degree on one grid builds them once.
    """
    ang = np.arange(1, ell + 1)[:, None] * phis[None, :]
    lattice = np.empty((2 * ell, phis.size))
    np.cos(ang, out=lattice[:ell])
    np.sin(ang, out=lattice[ell:])
    return (*_ring_rows(ell, thetas), lattice)


def _longitude_weights(coeffs: CoefficientVector, n_phi: int) -> np.ndarray:
    """Weights that make an inverse real FFT of the rows the field on rings.

    ``np.fft.irfft(X, n_phi)`` at phi_k = 2 pi k / n_phi is (X_0 + 2 sum_m
    Re(X_m exp(i m phi_k))) / n_phi, and Re((c - i s) exp(i m phi)) = c cos
    m phi + s sin m phi.  So a ring's spectrum is its Legendre row times
    these weights, order m in bin m: n_phi radius a_0 for the zonal order
    and sqrt(2) (n_phi / 2) radius (a_c - i a_s) for the others, n_phi
    odd or even (n_phi / 2 is exact, so an even count rounds as its
    integer half would).  Returns them as an (ell+1,) complex array; ell <
    n_phi / 2 keeps an even count's Nyquist bin empty.
    """
    r, a = coeffs.radius, coeffs.alpha
    weights = np.empty(a.size // 2 + 1, dtype=complex)
    weights[0] = n_phi * r * a[0]
    weights[1:] = (_SQRT2 * (n_phi / 2) * r) * (a[1::2] - 1j * a[2::2])
    return weights


def _ring_fft(rows: np.ndarray, weights: np.ndarray, n_phi: int) -> np.ndarray:
    """Inverse real FFT over n_phi longitudes of each ring's rows times weights.

    ``rows`` is (n_rings, ell+1).  Returns (n_rings, n_phi): ring j at phi_k
    = 2 pi k / n_phi is the sum over m of rows[j, m] times order m's wave,
    as ``_longitude_weights`` sets it up.
    Each ring is transformed on its own, so no ring's bits depend on the
    others or on the BLAS thread count.
    """
    spec = np.zeros((rows.shape[0], n_phi // 2 + 1), dtype=complex)
    spec[:, : weights.size] = rows * weights
    return np.fft.irfft(spec, n=n_phi, axis=1)


def _ring_scan(
    coeffs: CoefficientVector, rows: tuple[np.ndarray, ...], n_phi: int
) -> np.ndarray:
    """The field on the rings of ``_ring_rows`` at n_phi equispaced longitudes.

    The longitudes are phi_k = 2 pi k / n_phi over a full turn, and the
    values come ring-major.  Each ring is one inverse real FFT
    (``_ring_fft``), which costs O(n_phi log n_phi) per ring against the
    O(ell n_phi) of a lattice product when n_phi has only small prime
    factors (``excursion._seed_rings`` makes it so).  The ``sup_norm`` scan
    reads it.
    """
    weights = _longitude_weights(coeffs, n_phi)
    return _ring_fft(rows[2][0], weights, n_phi).ravel()


def _ring_jet2(
    coeffs: CoefficientVector, rows: tuple[np.ndarray, ...], n_phi: int
) -> tuple[np.ndarray, ...]:
    """``_frame_jet2`` on the rings of ``_ring_rows`` at n_phi longitudes.

    The longitudes are those of ``_ring_scan``, and so is the synthesis:
    one inverse real FFT per ring and output.  The theta-derivatives take
    the derivative rows, and d/dphi multiplies order m's weight by i m.
    The outputs are flat in ring-major point order; the value is
    ``_ring_scan``'s, bit for bit, and all six agree with ``_frame_jet2``
    at the same points up to rounding, since the sums over orders run in a
    different order.  One transform per output keeps each spectrum small
    (a stacked (6, n_rings, n_phi / 2 + 1) one took twice as long at ell =
    24).
    """
    x, s, (p, d, dd) = rows
    weights = _longitude_weights(coeffs, n_phi)
    m = np.arange(weights.size)
    w_p, w_pp = 1j * m * weights, -(m * m) * weights
    # f, f_theta and f_theta_theta, then f_phi, f_theta_phi and f_phi_phi,
    # before the frame's 1/sin factors
    terms = ((p, weights), (d, weights), (dd, weights), (p, w_p), (d, w_p), (p, w_pp))
    val, g_t, h_tt, f_p, f_tp, f_pp = (_ring_fft(r, w, n_phi) for r, w in terms)
    s_col = s[:, None]
    cot = (x / s)[:, None]
    g_p = f_p / s_col
    h_tp = f_tp / s_col - cot * g_p
    h_pp = f_pp / (s_col * s_col) + cot * g_t
    return tuple(q.ravel() for q in (val, g_t, g_p, h_tt, h_tp, h_pp))


def _ring_values(
    coeffs: CoefficientVector, tables: tuple[np.ndarray, ...]
) -> np.ndarray:
    """The field on the product grid of ``_ring_jet_tables``, ring-major.

    ``evaluate_grid`` reads it: a grid's longitudes need not be equispaced
    over a full turn, and its bytes are pinned, so it keeps the two
    lattice products where the seed lattice takes ``_ring_scan``.  Per
    point it rounds as radius * ((zonal + cosine sum) + sine sum);
    addition commutes, so the zonal column is added in place after the
    cosine product.
    """
    _, _, jet, lattice = tables
    ell, a = coeffs.level.ell, coeffs.alpha
    scaled = _SQRT2 * jet[0, :, 1:]
    vals = (scaled * a[1::2]) @ lattice[:ell]
    vals += (jet[0, :, 0] * a[0])[:, None]
    vals += (scaled * a[2::2]) @ lattice[ell:]
    vals *= coeffs.radius
    return vals.ravel()


# ---------------------------------------------------------------------------
# field samples and Gram-based simulation
# ---------------------------------------------------------------------------


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
    """Exact simulator of degree-ell fields at a fixed point set on S^d.

    The fields' covariance at the points, the Gram matrix G(<x_i, x_j>) of
    rank at most the eigenspace dimension n, is factored as G = L L^T into
    an N x n ``factor`` L by a greedy pivoted Cholesky (Harbrecht, Peters &
    Schneider 2012): step k adds the kernel column at the point i of largest
    remaining variance d_i, (G(<x, x_i>) - L[:, :k] L[i, :k]) / sqrt(d_i).
    It stops after min(N, n) steps, or once every d_i is at rounding level
    (``_RANK_TOL``); unfilled columns stay zero.  ``rank`` counts the filled
    columns and ``residual`` sums the d_i, the trace of G - L L^T: together
    they certify the factor.  No N x N array is made.

    ``points`` is a ``SphereGrid``, whose weights the samples carry, or an
    (N, d+1) array of unit vectors, whose samples carry uniform weights;
    norms off 1 by more than 1e-6 raise ``ValueError`` and repeated points
    ``GeometryError``.  L is the orthonormal basis at the points, rotated
    and divided by sqrt(n), so ``sample`` evaluates coefficients through it.
    """

    def __init__(self, level: HarmonicLevel,
                 points: Union[SphereGrid, np.ndarray]) -> None:
        if isinstance(points, SphereGrid):
            pts, weights = points.points, points.weights
        else:
            pts = np.asarray(points, dtype=float)
            if pts.ndim != 2:
                raise ValueError(
                    f"points must be an (N, d+1) array, got shape {pts.shape}"
                )
            weights = np.full(pts.shape[0], 1.0 / pts.shape[0])
        if pts.shape[1] != level.dim + 1:
            raise ValueError(
                f"points have ambient dimension {pts.shape[1]}, "
                f"expected {level.dim + 1}"
            )
        _require_unit(pts)
        n_pts = pts.shape[0]
        if len(np.unique(pts, axis=0)) < n_pts:
            raise GeometryError("points repeat: the point set is degenerate")
        self.level = level
        self.points = pts
        self.weights = weights
        self.factor = np.zeros((n_pts, level.n), order="F")
        diag = np.ones(n_pts)  # G(1) = 1 less the squared rows of the factor
        self.rank = 0
        for k in range(min(n_pts, level.n)):
            i = int(np.argmax(diag))
            if diag[i] <= _RANK_TOL:
                break
            cosines = np.clip(pts @ pts[i], -1.0, 1.0)
            col = gegenbauer(level.ell, level.dim, cosines)
            col -= self.factor[:, :k] @ self.factor[i, :k]
            col /= math.sqrt(diag[i])
            self.factor[:, k] = col
            diag -= col * col
            self.rank = k + 1
        self.residual = float(np.abs(diag).sum())

    def sample(self, coeffs: CoefficientVector) -> FieldSample:
        """The field ``sqrt(n) * radius * (L @ alpha)`` of ``coeffs`` at the points."""
        if coeffs.level != self.level:
            raise ValueError(f"coefficients of {coeffs.level} for a simulator "
                             f"of {self.level}")
        values = math.sqrt(self.level.n) * coeffs.radius * (self.factor @ coeffs.alpha)
        return FieldSample(values, self.weights)


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


def read_coefficients_csv(path) -> CoefficientVector:
    """The coefficient vector in the CSV file at ``path``.

    Refuses with ``ValueError`` a file that lacks a column, has no rows,
    disagrees between rows on ell, d or radius, or whose slots m are not
    1..n each once.
    """
    with open(path, newline="") as fh:
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
    """Columns ell, d, radius, m, alpha with %.17g floats (exact round trip)."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(_CSV_COLUMNS)
    ell, d = coeffs.level.ell, coeffs.level.dim
    r = format(coeffs.radius, ".17g")
    for m, a in enumerate(coeffs.alpha, start=1):
        writer.writerow([ell, d, r, m, format(a, ".17g")])
    return buf.getvalue()
