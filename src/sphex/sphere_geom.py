"""Point sets, quadrature grids and triangulated meshes on spheres.

The evaluation-heavy parts of the package run on structured iso-latitude
grids (rings of constant colatitude with a shared uniform longitude
lattice), which factor the basis evaluation into matrix products.  The
quasi-uniform and separated grids back the well-spaced node constructions,
and the icosphere mesh drives the combinatorial Euler characteristic.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np
from scipy.spatial import cKDTree

__all__ = [
    "PackingError",
    "SphereGrid",
    "SphereMesh",
    "SpherePoint",
    "export_grid_csv",
    "geodesic_dist",
    "icosphere",
    "iso_latitude_grid",
    "quasi_uniform_grid",
    "separated_grid",
]

_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


class PackingError(RuntimeError):
    """Raised when a separated grid cannot meet its separation target."""


@dataclass(frozen=True)
class SpherePoint:
    """A point on the unit sphere S^dim embedded in R^{dim+1}.

    The stored coordinate vector is normalized on construction; input whose
    norm deviates from 1 by more than 1e-6 is rejected rather than silently
    rescaled, since that usually indicates a bug upstream.
    """

    coords: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.coords, dtype=float)
        if c.ndim != 1 or c.shape[0] < 3:
            raise ValueError("coords must be a vector in R^{d+1}, d >= 2")
        norm = float(np.linalg.norm(c))
        if abs(norm - 1.0) > 1e-6:
            raise ValueError(f"coords norm {norm:.8f} is not 1 within 1e-6")
        object.__setattr__(self, "coords", c / norm)

    @classmethod
    def from_angles(cls, theta: float, phi: float) -> "SpherePoint":
        """Point on S^2 at colatitude theta in [0, pi], longitude phi."""
        st = math.sin(theta)
        return cls(np.array([st * math.cos(phi), st * math.sin(phi),
                             math.cos(theta)]))

    @classmethod
    def north_pole(cls, dim: int = 2) -> "SpherePoint":
        c = np.zeros(dim + 1)
        c[-1] = 1.0
        return cls(c)

    @property
    def dim(self) -> int:
        return self.coords.shape[0] - 1

    @property
    def theta(self) -> float:
        """Colatitude on S^2 (angle from the last coordinate axis)."""
        return math.acos(max(-1.0, min(1.0, float(self.coords[-1]))))

    @property
    def phi(self) -> float:
        return math.atan2(float(self.coords[1]), float(self.coords[0]))

    def __array__(self, dtype=None) -> np.ndarray:
        return np.asarray(self.coords, dtype=dtype)


def as_point_array(points: Union[np.ndarray, Sequence[SpherePoint], "SphereGrid"]) -> np.ndarray:
    """Coerce points given in any public form to an (N, d+1) float array."""
    if isinstance(points, SphereGrid):
        return points.points
    if isinstance(points, SpherePoint):
        return points.coords[None, :]
    if isinstance(points, np.ndarray):
        arr = np.atleast_2d(np.asarray(points, dtype=float))
    else:
        arr = np.array([np.asarray(p, dtype=float) for p in points])
    if arr.ndim != 2:
        raise ValueError("points must be an (N, d+1) array or sequence")
    return arr


def geodesic_dist(x: np.ndarray, y: np.ndarray) -> Union[float, np.ndarray]:
    """Geodesic (great-circle) distance between unit vectors.

    Uses 2*arcsin(|x - y| / 2), which stays accurate for nearly parallel
    and nearly antipodal pairs alike.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    chord = np.linalg.norm(x - y, axis=-1)
    return 2.0 * np.arcsin(np.clip(chord / 2.0, 0.0, 1.0))


@dataclass
class SphereGrid:
    """A weighted point set on S^dim.

    ``points`` is an (N, dim+1) array of unit vectors and ``weights`` sums
    to 1, so expectations against the normalized surface measure are plain
    weighted averages.  ``rings`` is set for iso-latitude product grids and
    holds (thetas, phis); evaluation code uses it to take the fast
    separable path, and ``harmonics`` keeps the ring tables it builds from
    them in ``_ring_tables``, keyed by degree, so a grid's rings must not
    change once it has been evaluated on.
    """

    dim: int
    points: np.ndarray
    weights: np.ndarray
    min_separation: float
    rings: Optional[tuple[np.ndarray, np.ndarray]] = None
    _ring_tables: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.points = np.asarray(self.points, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.points.ndim != 2 or self.points.shape[1] != self.dim + 1:
            raise ValueError("points must have shape (N, dim+1)")
        if self.weights.shape != (self.points.shape[0],):
            raise ValueError("weights must be one per point")
        total = float(self.weights.sum())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"weights sum to {total!r}, expected 1")

    def __len__(self) -> int:
        return self.points.shape[0]


def _measured_min_separation(points: np.ndarray) -> float:
    """Geodesic nearest-neighbour distance, measured with a KD-tree."""
    if points.shape[0] < 2:
        return float(math.pi)
    tree = cKDTree(points)
    dist, _ = tree.query(points, k=2)
    chord = float(np.min(dist[:, 1]))
    return 2.0 * math.asin(min(1.0, chord / 2.0))


def _fibonacci_points(count: int) -> np.ndarray:
    i = np.arange(count, dtype=float)
    z = 1.0 - (2.0 * i + 1.0) / count
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = _GOLDEN_ANGLE * i
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def quasi_uniform_grid(dim: int, count: int) -> SphereGrid:
    """Deterministic quasi-uniform point set with equal weights.

    On S^2 this is the Fibonacci spiral.  In higher dimensions there is no
    comparably cheap low-discrepancy construction, so points are drawn iid
    uniform from a generator seeded by (dim, count); the output depends
    only on the inputs.
    """
    if count < 2:
        raise ValueError(f"count must be >= 2, got {count}")
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    if dim == 2:
        pts = _fibonacci_points(count)
    else:
        seed = np.random.SeedSequence(entropy=0x5F3A9C11, spawn_key=(dim, count))
        rng = np.random.Generator(np.random.Philox(seed))
        g = rng.standard_normal((count, dim + 1))
        norms = np.linalg.norm(g, axis=1, keepdims=True)
        while np.any(norms == 0.0):  # pragma: no cover - probability zero
            g = rng.standard_normal((count, dim + 1))
            norms = np.linalg.norm(g, axis=1, keepdims=True)
        pts = g / norms
    w = np.full(count, 1.0 / count)
    return SphereGrid(dim, pts, w, _measured_min_separation(pts))


def iso_latitude_grid(count: int) -> SphereGrid:
    """Equal-area iso-latitude product grid on S^2 with >= count points.

    Rings sit at the colatitudes of equal-measure bands,
    cos(theta_i) = 1 - (2i + 1)/n_theta, each carrying the same uniform
    longitude lattice, so every point has weight 1/N.  The product
    structure is recorded in ``rings`` and enables separable (matrix
    product) evaluation of harmonic expansions.  There are about
    sqrt(count / 2) rings, twice as many longitudes as colatitudes, which
    matches the 2:1 aspect of the (phi, theta) rectangle.
    """
    if count < 4:
        raise ValueError(f"count must be >= 4, got {count}")
    n_theta = max(2, round(math.sqrt(count / 2.0)))
    n_phi = max(3, int(math.ceil(count / n_theta)))
    i = np.arange(n_theta, dtype=float)
    cos_t = 1.0 - (2.0 * i + 1.0) / n_theta
    thetas = np.arccos(np.clip(cos_t, -1.0, 1.0))
    phis = 2.0 * math.pi * np.arange(n_phi, dtype=float) / n_phi
    st = np.sin(thetas)
    pts = np.empty((n_theta * n_phi, 3))
    pts[:, 0] = np.outer(st, np.cos(phis)).ravel()
    pts[:, 1] = np.outer(st, np.sin(phis)).ravel()
    pts[:, 2] = np.repeat(np.cos(thetas), n_phi)
    n_total = n_theta * n_phi
    w = np.full(n_total, 1.0 / n_total)
    # The phi lattices of all rings are aligned, so the nearest neighbour of
    # any point is either the adjacent point on its own ring or the
    # same-longitude point on an adjacent ring; the minimum over those two
    # families is exact and avoids a KD-tree pass on multi-million grids.
    within = 2.0 * np.arcsin(np.abs(st) * math.sin(math.pi / n_phi))
    across = np.diff(thetas)
    min_sep = float(min(within.min(), across.min() if across.size else math.pi))
    return SphereGrid(2, pts, w, min_sep, rings=(thetas, phis))


def separated_grid(ell: int, alpha: float, dim: int = 2) -> SphereGrid:
    """Well-separated node set: ~ell^{dim*alpha} points, separation >= ell^{-alpha}.

    Runs farthest-point (greedy maximin) selection on a fine quasi-uniform
    candidate set until the target cardinality is reached, then verifies
    the separation.  Raises ``PackingError`` if the achieved separation
    falls short, reporting the achieved cardinality.
    """
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    target_sep = float(ell) ** (-alpha)
    k = max(2, round(float(ell) ** (dim * alpha)))
    n_cand = max(64 * k, 2048)
    cand = quasi_uniform_grid(dim, n_cand).points
    chosen = [0]
    # squared chord distance to the selected set, maintained incrementally
    d2 = np.sum((cand - cand[0]) ** 2, axis=1)
    for _ in range(1, k):
        nxt = int(np.argmax(d2))
        chosen.append(nxt)
        d2 = np.minimum(d2, np.sum((cand - cand[nxt]) ** 2, axis=1))
    pts = cand[chosen]
    sep = _measured_min_separation(pts)
    if sep < target_sep:
        raise PackingError(
            f"separated_grid reached {len(chosen)} points but separation "
            f"{sep:.4f} < target {target_sep:.4f} (ell={ell}, alpha={alpha})"
        )
    w = np.full(k, 1.0 / k)
    return SphereGrid(dim, pts, w, sep)


@dataclass
class SphereMesh:
    """Triangulated sphere mesh with explicit edge list.

    ``vertices`` lie on the unit sphere, ``faces`` is an (F, 3) index
    array, ``edges`` an (E, 2) sorted-unique index array.  Construction
    validates V - E + F = 2.
    """

    vertices: np.ndarray
    faces: np.ndarray
    edges: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.vertices = np.asarray(self.vertices, dtype=float)
        self.faces = np.asarray(self.faces, dtype=np.int64)
        pairs = np.vstack([
            self.faces[:, [0, 1]], self.faces[:, [1, 2]], self.faces[:, [0, 2]]
        ])
        pairs.sort(axis=1)
        self.edges = np.unique(pairs, axis=0)
        chi = len(self.vertices) - len(self.edges) + len(self.faces)
        if chi != 2:
            raise ValueError(f"mesh is not a topological sphere (chi = {chi})")

    def __len__(self) -> int:
        return self.vertices.shape[0]

    def max_edge_length(self) -> float:
        a = self.vertices[self.edges[:, 0]]
        b = self.vertices[self.edges[:, 1]]
        return float(np.max(geodesic_dist(a, b)))


def _icosahedron() -> tuple[np.ndarray, np.ndarray]:
    t = (1.0 + math.sqrt(5.0)) / 2.0
    verts = np.array([
        [-1, t, 0], [1, t, 0], [-1, -t, 0], [1, -t, 0],
        [0, -1, t], [0, 1, t], [0, -1, -t], [0, 1, -t],
        [t, 0, -1], [t, 0, 1], [-t, 0, -1], [-t, 0, 1],
    ], dtype=float)
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    faces = np.array([
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ], dtype=np.int64)
    return verts, faces


def icosphere(subdivision: int) -> SphereMesh:
    """Icosahedron subdivided ``subdivision`` times, vertices reprojected.

    Each level splits every triangle in four, so the maximum edge length
    shrinks roughly by half per level (it stays below 3 * 2^-subdivision
    radians).  Levels above 8 (about 1.3M faces) are refused.
    """
    if not 0 <= subdivision <= 8:
        raise ValueError(f"subdivision must be in [0, 8], got {subdivision}")
    verts, faces = _icosahedron()
    for _ in range(subdivision):
        verts, faces = _subdivide(verts, faces)
    return SphereMesh(vertices=verts, faces=faces)


def _subdivide(verts: np.ndarray, faces: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    pairs = np.vstack([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [0, 2]]])
    pairs.sort(axis=1)
    edges, inverse = np.unique(pairs, axis=0, return_inverse=True)
    mid = verts[edges[:, 0]] + verts[edges[:, 1]]
    mid /= np.linalg.norm(mid, axis=1, keepdims=True)
    mid_idx = len(verts) + np.arange(len(edges))
    f = len(faces)
    m01 = mid_idx[inverse[0:f]]
    m12 = mid_idx[inverse[f:2 * f]]
    m02 = mid_idx[inverse[2 * f:3 * f]]
    v0, v1, v2 = faces[:, 0], faces[:, 1], faces[:, 2]
    new_faces = np.concatenate([
        np.column_stack([v0, m01, m02]),
        np.column_stack([v1, m12, m01]),
        np.column_stack([v2, m02, m12]),
        np.column_stack([m01, m12, m02]),
    ])
    return np.vstack([verts, mid]), new_faces


def export_grid_csv(grid: SphereGrid, path: str) -> None:
    """Write a grid as CSV with columns index, coordinates, weight."""
    coord_names = [f"x{k}" for k in range(grid.dim + 1)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", *coord_names, "weight"])
        for idx in range(len(grid)):
            row = [idx]
            row.extend(format(v, ".17g") for v in grid.points[idx])
            row.append(format(grid.weights[idx], ".17g"))
            writer.writerow(row)
