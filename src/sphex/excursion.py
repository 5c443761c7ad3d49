"""Excursion-set functionals and critical-point analysis on S^2.

The excursion volume of a field sample at level u is the measure of
{f >= u} under the normalized surface measure; its distribution across
samples, compared against the Gaussian tail, is the central object of the
package.  This module also locates and classifies all critical points of
an explicit field by a rotated-seed batched Newton search, which keeps
only the iterates whose every step fits its step cap, with roots merged
within one Morse index.  The Euler characteristic of excursion sets
follows by Morse counting, with an independent combinatorial route
through triangulated meshes.  A critical set is held as columns
(``CriticalPointSet``: positions, values, residuals, Hessian eigenvalues
and Morse index), so every count over it is one array expression.  The
sup norm runs on the same parts: it scans the search's seed lattice,
uniform in theta and phi, and polishes the best seeds with the same
batched Newton.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
from scipy.spatial import cKDTree

from . import harmonics
from .harmonics import CoefficientVector, FieldSample, GeometryError, evaluate
from .specfun import CriticalKind, _normal_cdf
from .sphere_geom import SphereMesh, _unit_vectors

__all__ = [
    "CriticalPointSet",
    "count_above",
    "euler_characteristic_mesh",
    "euler_characteristic_morse",
    "excursion_volume",
    "export_critical_points_csv",
    "find_critical_points",
    "kolmogorov_distance",
    "sup_norm",
]


def excursion_volume(sample: FieldSample, u) -> Union[float, np.ndarray]:
    """Normalized measure of the excursion set {f >= u}.

    ``u`` may be a scalar or an array.  A scalar, and an array of up to
    four levels, is answered by one weighted count per level; a longer
    array sorts the sampled values once (a plain sort when every weight is
    equal, a stable argsort otherwise; see ``_sorted_mass``) and answers
    every level by binary search, which is what the variance sweeps rely
    on.  Summation order is fixed by the count or the sort, so repeated
    calls on identical inputs are bit-identical.

    Raises ``ValueError`` unless values and weights are non-empty 1-D
    arrays of equal length, the weights finite and non-negative with a
    finite total (finite weights can still sum to inf).
    """
    values, weights = _values_weights(sample)
    u_arr = np.asarray(u, dtype=float)
    with np.errstate(over="ignore"):  # an overflowing total is refused below
        if u_arr.size > 4:
            v_sorted, cum = _sorted_mass(values, weights)
            total = cum[-1]
        else:
            total = weights.sum()
    if total == math.inf:
        raise ValueError(f"the weights must have a finite total, got {total}")
    if u_arr.ndim == 0:
        return float(np.dot(weights, (values >= u_arr).astype(float)))
    if u_arr.size <= 4:
        counts = [np.dot(weights, (values >= v).astype(float)) for v in u_arr.flat]
        return np.array(counts).reshape(u_arr.shape)
    prefix = np.concatenate([[0.0], cum])
    idx = np.searchsorted(v_sorted, u_arr, side="left")
    return total - prefix[idx]


def _values_weights(sample: FieldSample) -> tuple[np.ndarray, np.ndarray]:
    values, weights = sample
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if values.ndim != 1 or weights.ndim != 1:
        raise ValueError(
            f"values and weights must be 1-D, got shapes {values.shape} "
            f"and {weights.shape}"
        )
    if values.size != weights.size:
        raise ValueError(f"got {values.size} values but {weights.size} weights")
    if values.size == 0:
        raise ValueError("the sample is empty")
    if not np.all((weights >= 0) & (weights < np.inf)):  # so does a NaN
        raise ValueError("weights must be finite and non-negative")
    return values, weights


def _sorted_mass(
    values: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The values in ascending order and the cumulative weight along them.

    When every weight is the same nonzero number the weight array is
    bit-for-bit constant, so permuting it changes nothing and its
    cumulative sum is taken unpermuted; the values then need only a plain
    sort, whose output is the sequence a stable argsort gives (it may put
    tied 0.0 and -0.0 the other way round, which compare and evaluate
    alike).  Other weights, all-zero ones of mixed sign included, take a
    stable argsort.  Both routes give the bits the argsort would.
    """
    w0 = weights[0]
    if w0 != 0 and np.all(weights == w0):
        return np.sort(values), np.cumsum(weights)
    order = np.argsort(values, kind="stable")
    return values[order], np.cumsum(weights[order])


def kolmogorov_distance(sample: FieldSample, scale: float = 1.0) -> float:
    """Kolmogorov distance between the sampled value law and N(0, scale^2).

    Both one-sided gaps are taken at every jump of the weighted empirical
    CDF (the supremum of |F_emp - Phi| over the whole line is attained at
    a jump, from one side or the other).  The values are ordered by
    ``_sorted_mass``: equal weights, as on the package's grids and point
    sets, need only a plain sort; unequal ones take a stable argsort.

    Raises ``ValueError`` unless values and weights are non-empty 1-D
    arrays of equal length, the weights finite and non-negative with a
    finite positive total (finite weights can still sum to inf).
    """
    if not (scale > 0 and math.isfinite(scale)):
        raise ValueError(f"scale must be positive, got {scale}")
    values, weights = _values_weights(sample)
    with np.errstate(over="ignore"):  # an overflowing total is refused below
        v_sorted, cum = _sorted_mass(values, weights)
    if not 0 < cum[-1] < math.inf:
        raise ValueError(
            f"the weights must have a finite positive total, got {cum[-1]}"
        )
    v = v_sorted / scale
    cum /= cum[-1]
    phi = _normal_cdf(v)
    d_plus = float(np.max(cum - phi))
    d_minus = float(np.max(phi - np.concatenate([[0.0], cum[:-1]])))
    return max(d_plus, d_minus)


# ---------------------------------------------------------------------------
# critical points
# ---------------------------------------------------------------------------


# the kinds in Morse-index order: 0 minimum, 1 saddle, 2 maximum
_MORSE_KINDS = (CriticalKind.MINIMUM, CriticalKind.SADDLE, CriticalKind.MAXIMUM)


@dataclass
class CriticalPointSet:
    """The critical points of one field, one array row per point.

    ``points`` holds the unit positions (K, 3), ``values`` the field
    values, ``residuals`` the gradient norms, ``eigs`` the covariant
    Hessian eigenvalues (K, 2) in ascending order, and ``index`` the Morse
    index: 0 minimum, 1 saddle, 2 maximum.
    """

    level: "harmonics.HarmonicLevel"
    points: np.ndarray
    values: np.ndarray
    residuals: np.ndarray
    eigs: np.ndarray
    index: np.ndarray
    degenerate_flag: bool = False
    rotation_attempts: int = 1

    def __len__(self) -> int:
        return len(self.points)

    def counts(self) -> dict[str, int]:
        per_index = np.bincount(self.index, minlength=3)
        return {k.value: int(n) for k, n in zip(_MORSE_KINDS, per_index)}


# critical-point search: the largest seed lattice spacing times ell (the
# spacing is pi / n for the smallest 7-smooth n >= pi ell / 0.7), dedupe
# radius times ell, Newton iteration cap, and rotations tried before a set
# is flagged
_SEED_STEP_ELL = 0.7
_DEDUPE_RADIUS_ELL = 0.02
_NEWTON_MAX_ITER = 40
_ROTATION_ATTEMPTS = 3
# sup_norm polishes the seeds whose |f| is within this fraction of the scan
# maximum.  Along a great circle a degree-ell field is a trigonometric
# polynomial of degree <= ell, so Bernstein's inequality gives |f| >=
# M (1 - (ell delta)^2 / 2) within distance delta of a maximizer of |f| = M.
# The seeds and their antipodes cover the sphere within the lattice's
# half-diagonal, ell delta = (sqrt(2)/2) pi ell / n <= (sqrt(2)/2) 0.7 <=
# 0.495 (``_seed_rings``; rounding n up to a 7-smooth size only shrinks
# it), so the bound is >= 0.877 at every point
_SUP_SEED_FRACTION = 0.86


def _sample_rotation(coeffs: CoefficientVector, attempt: int) -> np.ndarray:
    """Haar-random rotation determined by the coefficient bytes.

    Keying the stream on alpha alone (not the radius) makes the search
    trajectory of a rescaled field identical to the original's, which is
    what gives exact scale invariance of the detected critical set.
    """
    digest = hashlib.blake2b(coeffs.alpha.tobytes(), digest_size=8).digest()
    ss = np.random.SeedSequence(
        entropy=int.from_bytes(digest, "little"), spawn_key=(attempt,)
    )
    rng = np.random.Generator(np.random.Philox(ss))
    m = rng.standard_normal((3, 3))
    q, r = np.linalg.qr(m)
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _seed_lattice_size(ell: int) -> int:
    """The smallest 7-smooth n >= pi ell / 0.7: the seed lattice's n.

    A 7-smooth number has no prime factor above 7, so the inverse FFT over
    the lattice's 2 n longitudes is fast (at ell = 256, n = 1149 = 3 * 383
    took five times as long as n = 1152).  n = ceil(pi ell / 0.7) itself at
    52 of the degrees 1..512, small ones mostly; elsewhere the rounding
    adds at most 6.2%.
    """
    n = math.ceil(math.pi * ell / _SEED_STEP_ELL)
    while True:
        rest = n
        for p in (2, 3, 5, 7):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return n
        n += 1


@functools.lru_cache(maxsize=1)
def _seed_rings(ell: int) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Newton seed rings of degree ell and their jet rows, last degree only.

    Returns (thetas, phis) and the rows; the seeds are their product in
    ring-major order, seed k at (thetas[k // n_phi], phis[k % n_phi]).
    They are the upper half of a lattice uniform in theta and phi: with n
    the smallest 7-smooth integer >= pi ell / 0.7 (``_seed_lattice_size``)
    and h = pi / n, the rings sit at theta_j = (j + 1/2) h for j <
    ceil(n / 2) (the equator ring included when n is odd) and the
    longitudes at phi_k = k h for k < 2 n.  A lattice cell is at most h by
    h in (theta, phi), and sin theta <= 1, so with their antipodes the
    seeds cover the sphere within the half-diagonal (sqrt(2)/2) h <=
    0.495/ell, pole and equator alike.  A degree-ell field has parity
    (-1)^ell, so ``find_critical_points`` reflects the roots these seeds
    reach instead of seeding the lower half.  The rows
    (``harmonics._ring_rows``) let the first Newton iteration synthesize
    the jet at every seed (``harmonics._ring_jet2``), and ``sup_norm`` scan
    the values (``harmonics._ring_scan``), by one inverse real FFT of 2 n
    points per ring, which the 7-smooth n keeps fast.  One degree is kept,
    since a campaign cell searches many fields of one degree.
    """
    n = _seed_lattice_size(ell)
    h = math.pi / n
    thetas = (np.arange((n + 1) // 2) + 0.5) * h
    phis = np.arange(2 * n) * h
    rows = harmonics._ring_rows(ell, thetas)
    for arr in (thetas, phis, *rows):
        arr.flags.writeable = False
    return (thetas, phis), rows


def _newton_roots(
    coeffs: CoefficientVector,
    seeds_theta: np.ndarray,
    seeds_phi: np.ndarray,
    seed_jet: tuple[np.ndarray, ...],
) -> tuple[np.ndarray, np.ndarray]:
    """Batched Newton iteration on the frame gradient.

    ``seed_jet`` is the ``_frame_jet2`` output at the seeds, which the
    first iteration uses; later iterations evaluate the jet at the
    iterates.  An iterate whose Newton step is longer than pi/(2 ell), on
    any iteration, is outside every root's quadratic basin and is dropped
    there, so every step taken is a full Newton step: an iterate closer to
    the same root takes a shorter one, and the far ones (about 60% of the
    seeds on the first iteration) wander without converging.  After every
    step, iterates that round to one point on a 0.05/ell quantum are
    thinned to the first of them.  An iterate has converged once its
    gradient norm is at most 1e-8 * ell * radius.
    Returns (theta, phi) arrays of converged iterates.  Non-converged,
    escaped or far iterates are silently dropped; completeness is the
    caller's responsibility (seed density plus the Morse-count check).
    """
    ell = coeffs.level.ell
    tol = 1e-8 * ell * coeffs.radius
    theta, phi = seeds_theta, seeds_phi
    step_cap = 0.5 * math.pi / ell
    quantum = 0.05 / ell
    # the thinning key packs the three rounded coordinates, each within
    # [-1/quantum, 1/quantum], into one int64 in base 2 * span + 1
    span = math.ceil(1.0 / quantum)
    base = 2 * span + 1
    converged_t: list[np.ndarray] = []
    converged_p: list[np.ndarray] = []
    blow_up = 50.0 * ell * coeffs.radius * max(ell, 1)
    jet = seed_jet
    for it in range(_NEWTON_MAX_ITER):
        if theta.size == 0:
            break
        if it:
            jet = harmonics._frame_jet2(coeffs, theta, phi)
        _, g_t, g_p, h_tt, h_tp, h_pp = jet
        gnorm = np.hypot(g_t, g_p)
        done = gnorm <= tol
        if np.any(done):
            converged_t.append(theta[done])
            converged_p.append(phi[done])
        keep = ~done & (gnorm < blow_up)  # also drops a NaN gradient
        theta, phi = theta[keep], phi[keep]
        g = np.stack([g_t[keep], g_p[keep]], axis=1)
        det = h_tt[keep] * h_pp[keep] - h_tp[keep] ** 2
        safe = np.abs(det) > 1e-300
        inv_det = np.where(safe, 1.0 / np.where(safe, det, 1.0), 0.0)
        step_t = -inv_det * (h_pp[keep] * g[:, 0] - h_tp[keep] * g[:, 1])
        step_p = -inv_det * (-h_tp[keep] * g[:, 0] + h_tt[keep] * g[:, 1])
        # drop iterates whose Hessian was numerically singular, and those
        # whose step would be capped (a NaN step compares False)
        alive = safe & (np.hypot(step_t, step_p) <= step_cap)
        theta, phi = theta[alive], phi[alive]
        step_t, step_p = step_t[alive], step_p[alive]
        sin_t = np.maximum(np.sin(theta), 1e-12)
        theta = theta + step_t
        phi = phi + step_p / sin_t
        # reflect theta back into [0, pi]
        flip = theta < 0.0
        theta = np.abs(theta)
        over = theta > math.pi
        theta = np.where(over, 2.0 * math.pi - theta, theta)
        phi = np.where(flip | over, phi + math.pi, phi)
        # iterates collapse onto roots quickly; thin near-duplicates to
        # keep the active set small.  The 0.05/ell quantum exceeds the
        # 0.02/ell merge radius, so it may drop an iterate bound for a
        # second root nearby (a maximum 0.0148/ell from a saddle in one
        # ell=16 field)
        key = np.round(_unit_vectors(theta, phi) / quantum).astype(np.int64) + span
        _, first = np.unique((key[:, 0] * base + key[:, 1]) * base + key[:, 2],
                             return_index=True)
        first.sort()
        theta, phi = theta[first], phi[first]
    if not converged_t:
        return np.empty(0), np.empty(0)
    return np.concatenate(converged_t), np.concatenate(converged_p)


def _dedupe_first_wins(points: np.ndarray, radius: float) -> np.ndarray:
    """Indices of representatives after first-wins merging within ``radius``."""
    if points.shape[0] == 0:
        return np.empty(0, dtype=np.int64)
    chord = 2.0 * math.sin(min(radius, math.pi) / 2.0)
    tree = cKDTree(points)
    pairs = tree.query_pairs(chord, output_type="ndarray")
    keep = np.ones(points.shape[0], dtype=bool)
    if pairs.size:
        pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
        for i, j in pairs:
            if keep[i] and keep[j]:
                keep[j if i < j else i] = False
    return np.flatnonzero(keep)


def find_critical_points(coeffs: CoefficientVector) -> CriticalPointSet:
    """Locate and classify all critical points of an explicit field on S^2.

    Seeds a Newton search for zeros of the gradient from the upper half of
    a lattice at most 0.7/ell apart in theta and phi, whose seeds and
    antipodes cover the sphere within 0.495/ell (``_seed_rings``).  A
    degree-ell field satisfies f(-x) = (-1)^ell f(x), so its critical set
    is antipodally symmetric, and Newton commutes with the antipodal map:
    each converged root (theta, phi) is reflected to (pi - theta,
    phi + pi), which finds what seeds on both hemispheres would find at
    half the Newton work.  The search runs on the field
    pulled back by a random rotation drawn deterministically from the
    coefficients, so results never depend on where the field happens to
    sit relative to the chart poles and rescaled coefficients retrace the
    identical trajectory; positions are rotated back on output.  Newton
    runs at most 40 iterations; the first synthesizes the jet on the seed
    rings by inverse FFTs along longitude, from rows kept for the last
    degree searched.  Every iteration drops the iterates whose step is
    longer than the pi/(2 ell) step cap (about 60% of the seeds on the
    first) and thins near-duplicates (see ``_newton_roots``).  The
    roots and their reflections are classified by the eigenvalue signs of
    the analytic covariant Hessian (the same jet that drives Newton, one
    evaluation for all of them), then merged first-wins within 0.02/ell
    among the roots of one Morse index.  Copies of one root share its
    index, while a saddle and an extremum can sit closer than the merge
    radius (0.0095/ell apart in one ell=16 field), so the merge never joins
    points of different index.  The set is accepted only if the Morse count
    #min - #saddle + #max equals 2 with no eigenvalue inside the
    degeneracy floor 1e-6 * ell^2 * radius.  On failure the search
    retries with a fresh rotation, up to 3 attempts in all; persistent
    failure returns the last attempt with ``degenerate_flag`` set.  An
    attempt whose Newton search converges nowhere gives an empty set,
    which fails the Morse count.
    """
    level = coeffs.level
    if level.dim != 2:
        raise ValueError("critical point search requires an explicit field on S^2")
    ell = level.ell
    if ell < 1:
        raise ValueError("constant fields (ell = 0) have no isolated critical points")
    radius = _DEDUPE_RADIUS_ELL / ell
    floor = 1e-6 * ell * ell * coeffs.radius
    (thetas, phis), rows = _seed_rings(ell)
    s_theta, s_phi = np.repeat(thetas, phis.size), np.tile(phis, thetas.size)
    last: Optional[CriticalPointSet] = None
    for attempt in range(_ROTATION_ATTEMPTS):
        # search the pulled-back field f(rot .) so the field's own critical
        # points sit at generic chart locations: the theta-jet rows hold at
        # the chart poles, but the frame's 1/sin theta does not, and Newton
        # in this chart cannot converge there; a fresh rotation per attempt
        # actually moves the field away from them (zonal fields place
        # critical points exactly on the poles otherwise)
        rot = _sample_rotation(coeffs, attempt)
        work = harmonics._rotated_coefficients(coeffs, rot)
        seed_jet = harmonics._ring_jet2(work, rows, phis.size)
        root_t, root_p = _newton_roots(work, s_theta, s_phi, seed_jet)
        # the antipode of a root of the rotated field is a root too: it is
        # where the reflected seed would have converged
        root_t = np.concatenate([root_t, math.pi - root_t])
        root_p = np.concatenate([root_p, root_p + math.pi])
        xyz = _unit_vectors(root_t, root_p)
        values, g_t, g_p, h_tt, h_tp, h_pp = harmonics._frame_jet2(work, root_t, root_p)
        mean = 0.5 * (h_tt + h_pp)
        half_gap = np.sqrt(0.25 * (h_tt - h_pp) ** 2 + h_tp**2)
        eig_lo = mean - half_gap
        eig_hi = mean + half_gap
        index = np.where(eig_hi < 0, 2, np.where(eig_lo > 0, 0, 1))
        # copies of one root share its Morse index; a saddle and an
        # extremum can sit closer than the merge radius
        rep = np.sort(np.concatenate([
            np.flatnonzero(index == k)[_dedupe_first_wins(xyz[index == k], radius)]
            for k in range(3)
        ]))
        # map chart locations back to field positions: g(x) = f(rot x)
        field_xyz = xyz[rep] @ rot.T
        field_xyz /= np.linalg.norm(field_xyz, axis=1, keepdims=True)
        eig_lo, eig_hi = eig_lo[rep], eig_hi[rep]
        degenerate = bool(np.any(np.minimum(np.abs(eig_lo), np.abs(eig_hi)) <= floor))
        last = CriticalPointSet(
            level, field_xyz, values[rep], np.hypot(g_t[rep], g_p[rep]),
            np.column_stack([eig_lo, eig_hi]), index[rep], degenerate, attempt + 1,
        )
        c = last.counts()
        if c["minimum"] - c["saddle"] + c["maximum"] == 2 and not degenerate:
            return last
        last.degenerate_flag = True
    assert last is not None
    return last


def count_above(
    cps: CriticalPointSet,
    u: float = -math.inf,
    kind: Union[CriticalKind, str] = CriticalKind.CRITICAL,
) -> int:
    """Number of critical points of the given kind with value >= u.

    ``critical`` counts everything, ``extremum`` minima and maxima
    together; the specific kinds count themselves.
    """
    if not isinstance(kind, CriticalKind):
        kind = CriticalKind(str(kind))
    above = cps.values >= u
    if kind is CriticalKind.EXTREMUM:
        above &= cps.index != 1
    elif kind is not CriticalKind.CRITICAL:
        above &= cps.index == _MORSE_KINDS.index(kind)
    return int(np.count_nonzero(above))


def euler_characteristic_morse(cps: CriticalPointSet, u: float) -> int:
    """Euler characteristic of {f >= u} by signed Morse counting.

    Each critical point with value >= u contributes (-1)^(2 - morse index)
    on a surface: maxima and minima +1, saddles -1.  Degenerate sets are
    refused: signed counting is only valid for Morse functions.
    """
    if cps.degenerate_flag:
        raise GeometryError(
            "critical point set is flagged degenerate; the Morse count is "
            "unreliable (use the mesh oracle instead)"
        )
    above = cps.values >= u
    saddles = np.count_nonzero(above & (cps.index == 1))
    return int(np.count_nonzero(above) - 2 * saddles)


def euler_characteristic_mesh(
    coeffs: CoefficientVector, mesh: SphereMesh, u
) -> Union[int, np.ndarray]:
    """Euler characteristic of the vertex-threshold subcomplex at level u.

    The field ``coeffs`` is evaluated once at the mesh vertices.  A vertex
    joins the subcomplex when its value is >= u; an edge or face joins
    when all its vertices do, that is when its smallest vertex value is
    >= u (a NaN vertex keeps out its edges and faces either way).  For a
    piecewise-linear interpolant this equals the Euler characteristic of
    the excursion set whenever u is not a vertex value.  A float ``u``
    gives an int; a 1-D array of levels gives an int array, one
    characteristic per level.
    """
    levels = np.asarray(u, dtype=float)
    if levels.ndim > 1:
        raise ValueError(f"u must be a float or a 1-D array, got shape {levels.shape}")
    values = evaluate(coeffs, mesh.vertices)
    # each edge's and face's smallest vertex value, taken one vertex column
    # at a time (a row-wise min over 2 or 3 entries is ten times slower)
    lowest = [values] + [functools.reduce(np.minimum, values[cells.T])
                         for cells in (mesh.edges, mesh.faces)]
    n_v, n_e, n_f = (np.count_nonzero(m >= levels.reshape(-1, 1), axis=1) for m in lowest)
    chi = n_v - n_e + n_f
    return int(chi[0]) if levels.ndim == 0 else chi


def sup_norm(coeffs: CoefficientVector) -> tuple[float, np.ndarray]:
    """Sup norm of the field and a point attaining it, as a (3,) unit array.

    Scans the seed lattice of the critical-point search (``_seed_rings``),
    one inverse real FFT along longitude per ring (``harmonics._ring_scan``);
    since |f(-x)| = |f(x)| its upper hemisphere is enough.  Every point
    lies within 0.495/ell of a seed or its antipode, so by Bernstein's
    inequality the seed nearest a maximizer of |f| has |f| >= 0.877 times
    the sup norm, hence within 0.86 of the scan maximum.  The seeds
    within that fraction, taken in descending order and merged
    first-wins within 1/ell, start one batched Newton search for
    critical points (``_newton_roots``).  The result is the
    largest |f| among the best seed, the roots and the two poles, which
    are evaluated directly since no Newton iteration in this chart
    converges at its own poles; a constant field (ell = 0) is answered
    at the poles alone.  It is never below the best seed's value.
    """
    level = coeffs.level
    if level.dim != 2:
        raise ValueError("sup_norm requires an explicit field on S^2")
    ell = level.ell
    candidates = [np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])]
    if ell >= 1:
        (thetas, phis), rows = _seed_rings(ell)
        size = np.abs(harmonics._ring_scan(coeffs, rows, phis.size))
        top = np.flatnonzero(size >= _SUP_SEED_FRACTION * size.max())
        ring, lon = np.divmod(top[np.argsort(-size[top], kind="stable")], phis.size)
        theta, phi = thetas[ring], phis[lon]
        xyz = _unit_vectors(theta, phi)
        rep = _dedupe_first_wins(xyz, 1.0 / ell)
        theta, phi = theta[rep], phi[rep]
        seed_jet = harmonics._frame_jet2(coeffs, theta, phi)
        root_t, root_p = _newton_roots(coeffs, theta, phi, seed_jet)
        candidates = [xyz[:1], _unit_vectors(root_t, root_p), *candidates]
    points = np.vstack(candidates)
    found = np.abs(evaluate(coeffs, points))
    best = int(np.argmax(found))
    return float(found[best]), points[best]


def export_critical_points_csv(cps: CriticalPointSet, fh) -> None:
    """Write the set to the text file ``fh``, one row per point.

    Columns: position (x, y, z), value, kind, residual, eigenvalues, the
    floats at 17 significant digits.
    """
    writer = csv.writer(fh)
    writer.writerow(["x", "y", "z", "value", "kind", "residual", "eig1", "eig2"])
    floats = np.column_stack([cps.points, cps.values, cps.residuals, cps.eigs])
    for row, k in zip(floats.tolist(), cps.index.tolist()):
        cells = [format(c, ".17g") for c in row]
        writer.writerow([*cells[:4], _MORSE_KINDS[k].value, *cells[4:]])
