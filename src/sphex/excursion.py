"""Excursion-set functionals and critical-point analysis on S^2.

The excursion volume of a field sample at level u is the measure of
{f >= u} under the normalized surface measure; its distribution across
samples, compared against the Gaussian tail, is the central object of the
package.  This module also locates and classifies all critical points of
an explicit field by a rotated-seed batched Newton search, from which the
Euler characteristic of excursion sets follows by Morse counting, with an
independent combinatorial route through triangulated meshes.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np
from scipy.spatial import cKDTree

from . import harmonics
from .harmonics import (
    CoefficientVector,
    FieldSample,
    GeometryError,
    evaluate,
    evaluate_grid,
)
from .specfun import CriticalKind, _normal_cdf
from .sphere_geom import SphereGrid, SphereMesh, SpherePoint, iso_latitude_grid

__all__ = [
    "CriticalPoint",
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
    arrays of equal length and the weights are finite and non-negative.
    """
    values, weights = _values_weights(sample)
    u_arr = np.asarray(u, dtype=float)
    if u_arr.ndim == 0:
        return float(np.dot(weights, (values >= u_arr).astype(float)))
    if u_arr.size <= 4:
        counts = [np.dot(weights, (values >= v).astype(float)) for v in u_arr.flat]
        return np.array(counts).reshape(u_arr.shape)
    v_sorted, cum = _sorted_mass(values, weights)
    prefix = np.concatenate([[0.0], cum])
    idx = np.searchsorted(v_sorted, u_arr, side="left")
    total = prefix[-1]
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


@dataclass(frozen=True)
class CriticalPoint:
    position: SpherePoint
    value: float
    kind: CriticalKind
    gradient_residual: float
    hessian_eigs: tuple[float, float]


@dataclass
class CriticalPointSet:
    level: "harmonics.HarmonicLevel"
    points: list[CriticalPoint] = field(default_factory=list)
    degenerate_flag: bool = False
    rotation_attempts: int = 1

    def __len__(self) -> int:
        return len(self.points)

    def counts(self) -> dict[str, int]:
        out = {"minimum": 0, "maximum": 0, "saddle": 0}
        for p in self.points:
            out[p.kind.value] += 1
        return out


# critical-point search: seed cells per ell^2, dedupe radius times ell,
# Newton iteration cap, and rotations tried before a set is flagged
_SEED_CELLS_PER_ELL2 = 40
_DEDUPE_RADIUS_ELL = 0.2
_NEWTON_MAX_ITER = 40
_ROTATION_ATTEMPTS = 3


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


@functools.lru_cache(maxsize=1)
def _seed_rings(ell: int) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Newton seeds of degree ell and their ring jet tables, last degree only.

    The seeds are the points of an iso-latitude grid of at least 40 ell^2
    cells, in its ring-major order and at its exact ring coordinates; the
    tables let the first Newton iteration synthesize the jet at every
    seed by matrix products (``harmonics._ring_jet2``).  One degree is
    kept, since a campaign cell searches many fields of one degree.
    """
    thetas, phis = iso_latitude_grid(_SEED_CELLS_PER_ELL2 * ell * ell).rings
    seeds = (np.repeat(thetas, phis.size), np.tile(phis, thetas.size))
    tables = harmonics._ring_jet_tables(ell, thetas, phis)
    for arr in (*seeds, *tables):
        arr.flags.writeable = False
    return seeds, tables


def _newton_roots(
    coeffs: CoefficientVector,
    seeds_theta: np.ndarray,
    seeds_phi: np.ndarray,
    seed_jet: tuple[np.ndarray, ...],
    tol: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Batched damped Newton iteration on the frame gradient.

    ``seed_jet`` is the ``_frame_jet2`` output at the seeds, which the
    first iteration uses; later iterations evaluate the jet at the
    iterates.  Returns (theta, phi) arrays of converged iterates.
    Non-converged or escaped seeds are silently dropped; completeness is
    the caller's responsibility (seed density plus the Morse-count check).
    """
    ell = coeffs.level.ell
    theta, phi = seeds_theta, seeds_phi
    step_cap = 0.5 * math.pi / ell
    quantum = 0.05 / ell
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
        keep = ~done & np.isfinite(gnorm) & (gnorm < blow_up)
        theta, phi = theta[keep], phi[keep]
        g = np.stack([g_t[keep], g_p[keep]], axis=1)
        det = h_tt[keep] * h_pp[keep] - h_tp[keep] ** 2
        safe = np.abs(det) > 1e-300
        inv_det = np.where(safe, 1.0 / np.where(safe, det, 1.0), 0.0)
        step_t = -inv_det * (h_pp[keep] * g[:, 0] - h_tp[keep] * g[:, 1])
        step_p = -inv_det * (-h_tp[keep] * g[:, 0] + h_tt[keep] * g[:, 1])
        norm = np.hypot(step_t, step_p)
        damp = np.where(norm > step_cap, step_cap / np.maximum(norm, 1e-300), 1.0)
        # drop seeds whose Hessian was numerically singular
        alive = safe & np.isfinite(norm)
        theta, phi = theta[alive], phi[alive]
        step_t, step_p, damp = step_t[alive], step_p[alive], damp[alive]
        sin_t = np.maximum(np.sin(theta), 1e-12)
        theta = theta + damp * step_t
        phi = phi + damp * step_p / sin_t
        # reflect theta back into [0, pi]
        flip = theta < 0.0
        theta = np.abs(theta)
        over = theta > math.pi
        theta = np.where(over, 2.0 * math.pi - theta, theta)
        phi = np.where(flip | over, phi + math.pi, phi)
        if it >= 2 and it % 2 == 0 and theta.size:
            # iterates collapse onto roots quickly; thin near-duplicates to
            # keep the active set small (well below the dedupe radius)
            key = np.round(
                np.column_stack(
                    [
                        np.sin(theta) * np.cos(phi),
                        np.sin(theta) * np.sin(phi),
                        np.cos(theta),
                    ]
                )
                / quantum
            ).astype(np.int64)
            _, first = np.unique(key, axis=0, return_index=True)
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

    Seeds a Newton search for zeros of the gradient from the centers of an
    iso-latitude grid of at least 40 ell^2 cells.  The search runs on the
    field pulled back by a random rotation drawn deterministically from
    the coefficients, so results never depend on where the field happens
    to sit relative to the chart poles and rescaled coefficients retrace
    the identical trajectory; positions are rotated back on output.
    Newton runs at most 40 iterations; the first evaluates the jet on the
    seed grid's rings by matrix products, from tables kept with the grid
    for the last degree searched.  Converged iterates are merged
    first-wins within 0.2/ell, classified by the eigenvalue signs of the
    analytic covariant Hessian (the same jet that drives Newton), and
    accepted only if the Morse count #min - #saddle + #max equals 2 with
    no eigenvalue inside the degeneracy floor 1e-6 * ell^2 * radius.  On
    failure the search retries with a fresh rotation, up to 3 attempts in
    all; persistent failure returns the last attempt with
    ``degenerate_flag`` set.
    """
    level = coeffs.level
    if level.dim != 2:
        raise ValueError("critical point search requires an explicit field on S^2")
    ell = level.ell
    if ell < 1:
        raise ValueError("constant fields (ell = 0) have no isolated critical points")
    radius = _DEDUPE_RADIUS_ELL / ell
    tol = 1e-8 * ell * coeffs.radius
    floor = 1e-6 * ell * ell * coeffs.radius
    (s_theta, s_phi), tables = _seed_rings(ell)
    last: Optional[CriticalPointSet] = None
    for attempt in range(_ROTATION_ATTEMPTS):
        # search the pulled-back field f(rot .) so the field's own critical
        # points sit at generic chart locations: the Legendre-derivative
        # recurrences degrade right at the chart poles, and a fresh rotation
        # per attempt actually moves the field away from them (zonal fields
        # place critical points exactly on the poles otherwise)
        rot = _sample_rotation(coeffs, attempt)
        work = harmonics._rotated_coefficients(coeffs, rot)
        seed_jet = harmonics._ring_jet2(work, tables)
        root_t, root_p = _newton_roots(work, s_theta, s_phi, seed_jet, tol)
        if root_t.size == 0:
            last = CriticalPointSet(level, [], True, attempt + 1)
            continue
        xyz = np.column_stack(
            [
                np.sin(root_t) * np.cos(root_p),
                np.sin(root_t) * np.sin(root_p),
                np.cos(root_t),
            ]
        )
        rep = _dedupe_first_wins(xyz, radius)
        root_t, root_p, xyz = root_t[rep], root_p[rep], xyz[rep]
        values, g_t, g_p, h_tt, h_tp, h_pp = harmonics._frame_jet2(work, root_t, root_p)
        residuals = np.hypot(g_t, g_p)
        mean = 0.5 * (h_tt + h_pp)
        half_gap = np.sqrt(0.25 * (h_tt - h_pp) ** 2 + h_tp**2)
        eig_lo = mean - half_gap
        eig_hi = mean + half_gap
        # map chart locations back to field positions: g(x) = f(rot x)
        field_xyz = xyz @ rot.T
        field_xyz /= np.linalg.norm(field_xyz, axis=1, keepdims=True)
        degenerate = bool(np.any(np.minimum(np.abs(eig_lo), np.abs(eig_hi)) <= floor))
        pts: list[CriticalPoint] = []
        for k in range(xyz.shape[0]):
            if eig_hi[k] < 0:
                kind = CriticalKind.MAXIMUM
            elif eig_lo[k] > 0:
                kind = CriticalKind.MINIMUM
            else:
                kind = CriticalKind.SADDLE
            pts.append(
                CriticalPoint(
                    position=SpherePoint(field_xyz[k]),
                    value=float(values[k]),
                    kind=kind,
                    gradient_residual=float(residuals[k]),
                    hessian_eigs=(float(eig_lo[k]), float(eig_hi[k])),
                )
            )
        out = CriticalPointSet(level, pts, degenerate, attempt + 1)
        c = out.counts()
        morse_ok = c["minimum"] - c["saddle"] + c["maximum"] == 2
        if morse_ok and not degenerate:
            return out
        out.degenerate_flag = True
        last = out
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
    if kind is CriticalKind.CRITICAL:
        members = {CriticalKind.MINIMUM, CriticalKind.MAXIMUM, CriticalKind.SADDLE}
    elif kind is CriticalKind.EXTREMUM:
        members = {CriticalKind.MINIMUM, CriticalKind.MAXIMUM}
    else:
        members = {kind}
    return sum(1 for p in cps.points if p.kind in members and p.value >= u)


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
    chi = 0
    for p in cps.points:
        if p.value >= u:
            chi += -1 if p.kind is CriticalKind.SADDLE else 1
    return chi


def euler_characteristic_mesh(
    values: Union[CoefficientVector, np.ndarray],
    mesh: SphereMesh,
    u: float,
) -> int:
    """Euler characteristic of the vertex-threshold subcomplex at level u.

    A vertex joins the subcomplex when its value is >= u; an edge or face
    joins when all its vertices do.  For a piecewise-linear interpolant
    this equals the Euler characteristic of the excursion set whenever u
    is not a vertex value.
    """
    if isinstance(values, CoefficientVector):
        vals = evaluate(values, mesh.vertices)
    else:
        vals = np.asarray(values, dtype=float)
        if vals.shape != (len(mesh),):
            raise ValueError("values must be given at every mesh vertex")
    above = vals >= u
    n_v = int(np.count_nonzero(above))
    n_e = int(np.count_nonzero(above[mesh.edges].all(axis=1)))
    n_f = int(np.count_nonzero(above[mesh.faces].all(axis=1)))
    return n_v - n_e + n_f


def sup_norm(
    coeffs: CoefficientVector, grid: Optional[SphereGrid] = None
) -> tuple[float, SpherePoint]:
    """Sup norm of the field and a point attaining it.

    Scans an iso-latitude grid of at least 40 ell^2 cells (or the supplied
    grid, which callers evaluating many replicates should construct once)
    and polishes the best cell with a curvature-aware ascent on the signed
    field.  The returned value is never below the grid maximum.
    """
    level = coeffs.level
    if level.dim != 2:
        raise ValueError("sup_norm requires an explicit field on S^2")
    ell = max(level.ell, 1)
    if grid is None:
        grid = iso_latitude_grid(40 * ell * ell)
    vals = evaluate_grid(coeffs, grid)
    best = int(np.argmax(np.abs(vals)))
    best_val = float(vals[best])
    sign = 1.0 if best_val >= 0 else -1.0
    theta = float(np.arccos(np.clip(grid.points[best, 2], -1.0, 1.0)))
    phi = float(np.arctan2(grid.points[best, 1], grid.points[best, 0]))
    result = abs(best_val)
    arg = SpherePoint(grid.points[best])
    tol = 1e-10 * max(1.0, ell * coeffs.radius)
    step_cap = 0.5 * math.pi / ell
    t, p = theta, phi
    for _ in range(25):
        val, g_t, g_p, h_tt, h_tp, h_pp = harmonics._frame_jet2(
            coeffs, np.array([t]), np.array([p])
        )
        g = np.array([float(g_t[0]), float(g_p[0])])
        if math.hypot(g[0], g[1]) <= tol:
            break
        hess = np.array(
            [[float(h_tt[0]), float(h_tp[0])], [float(h_tp[0]), float(h_pp[0])]]
        )
        # Newton toward a maximum of sign * f; fall back to steepest
        # ascent when the curvature is not usable
        try:
            step = np.linalg.solve(hess, -g)
        except np.linalg.LinAlgError:
            step = sign * g * (0.1 * step_cap / max(np.linalg.norm(g), 1e-300))
        norm = float(np.linalg.norm(step))
        if not math.isfinite(norm):
            break
        if norm > step_cap:
            step *= step_cap / norm
        t = t + float(step[0])
        p = p + float(step[1]) / max(math.sin(t), 1e-12)
        if t < 0:
            t, p = -t, p + math.pi
        elif t > math.pi:
            t, p = 2.0 * math.pi - t, p + math.pi
    final = float(evaluate(coeffs, SpherePoint.from_angles(t, p).coords))
    if abs(final) > result:
        result = abs(final)
        arg = SpherePoint.from_angles(t, p)
    return result, arg


def export_critical_points_csv(cps: CriticalPointSet, path_or_file) -> None:
    """Columns: position (x, y, z), value, kind, residual, eigenvalues."""

    def _write(fh) -> None:
        writer = csv.writer(fh)
        writer.writerow(
            ["x", "y", "z", "value", "kind", "residual", "eig1", "eig2"]
        )
        for p in cps.points:
            row = [format(c, ".17g") for c in p.position.coords]
            row.append(format(p.value, ".17g"))
            row.append(p.kind.value)
            row.append(format(p.gradient_residual, ".17g"))
            row.extend(format(e, ".17g") for e in p.hessian_eigs)
            writer.writerow(row)

    if isinstance(path_or_file, (str, bytes)):
        with open(path_or_file, "w", newline="") as fh:
            _write(fh)
    else:
        _write(path_or_file)
