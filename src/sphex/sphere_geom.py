"""Point sets, quadrature grids and triangulated meshes on spheres.

A point set on S^d is a plain (N, d+1) float array of unit vectors; grids
and meshes hold theirs in ``points`` and ``vertices``.  The
evaluation-heavy parts of the package run on structured iso-latitude
grids (rings of constant colatitude with a shared uniform longitude
lattice), which factor the basis evaluation into matrix products.  The
quasi-uniform grid is the point set of the Gram-based simulation on S^d,
and the icosphere mesh drives the combinatorial Euler characteristic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy import special

__all__ = [
    "SphereGrid",
    "SphereMesh",
    "icosphere",
    "iso_latitude_grid",
    "quasi_uniform_grid",
]

_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


@dataclass
class SphereGrid:
    """A weighted point set on S^dim.

    ``points`` is an (N, dim+1) array of unit vectors and ``weights`` sums
    to 1, so expectations against the normalized surface measure are plain
    weighted averages.  ``rings`` is set for iso-latitude product grids and
    holds (thetas, phis); evaluation code uses it to take the fast
    separable path, and ``harmonics`` keeps the last degree's ring tables
    (``_ring_jet_tables``) in ``_ring_tables``, keyed by that degree, so a
    grid's rings must not change once it has been evaluated on.
    """

    dim: int
    points: np.ndarray
    weights: np.ndarray
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


def _fibonacci_points(count: int) -> np.ndarray:
    i = np.arange(count, dtype=float)
    z = 1.0 - (2.0 * i + 1.0) / count
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = _GOLDEN_ANGLE * i
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def _banded_points(dim: int, count: int) -> np.ndarray:
    """``count`` points on S^dim, each of measure 1/count (Leopardi 2006).

    round(pi/h) bands in the polar angle psi, h = (|S^dim| / count)^(1/dim),
    take largest-remainder shares of ``count``; the band edges then move so
    each band's measure (I_u(dim/2, dim/2) at u = (1 - cos psi)/2) is its
    share, and each band holds a banded S^(dim-1) set scaled by sin psi at
    its measure-median.  The recursion ends at the Fibonacci spiral on S^2.
    """
    if dim == 2:
        return _fibonacci_points(count)
    half = dim / 2.0
    area = 2.0 * math.pi ** (half + 0.5) / math.gamma(half + 0.5)
    bands = max(1, round(math.pi / (area / count) ** (1.0 / dim)))
    edges = np.cos(np.arange(bands + 1) * (math.pi / bands))
    share = count * np.diff(special.betainc(half, half, (1.0 - edges) / 2.0))
    counts = np.floor(share).astype(int)
    largest = np.argsort(counts - share, kind="stable")
    counts[largest[:count - counts.sum()]] += 1
    u = special.betaincinv(half, half, (np.cumsum(counts) - counts / 2.0) / count)
    rows = [
        np.column_stack([2.0 * math.sqrt(ui * (1.0 - ui)) * _banded_points(dim - 1, c),
                         np.full(c, 1.0 - 2.0 * ui)])
        for c, ui in zip(counts, u) if c
    ]
    return np.vstack(rows)


def quasi_uniform_grid(dim: int, count: int) -> SphereGrid:
    """Exactly ``count`` points of weight 1/count, a function of the inputs:
    the Fibonacci spiral on S^2, the banded equal-area set on S^d."""
    if count < 2:
        raise ValueError(f"count must be >= 2, got {count}")
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    w = np.full(count, 1.0 / count)
    return SphereGrid(dim, _banded_points(dim, count), w)


def _unit_vectors(theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """The (N, 3) unit vectors at colatitudes ``theta``, longitudes ``phi``."""
    st = np.sin(theta)
    return np.column_stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)])


def iso_latitude_grid(count: int) -> SphereGrid:
    """Equal-area iso-latitude product grid on S^2 with >= count points.

    There are about sqrt(count / 2) rings at the colatitudes of
    equal-measure bands, cos(theta_i) = 1 - (2i + 1)/n_theta, each
    carrying the same uniform longitude lattice of twice as many points,
    which matches the 2:1 aspect of the (phi, theta) rectangle; every
    point has weight 1/N.  The product structure is recorded in ``rings``
    and enables separable (matrix product) evaluation of harmonic
    expansions.
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
    return SphereGrid(2, pts, w, rings=(thetas, phis))


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
        n_v = len(self.vertices)
        if self.faces.size and not 0 <= self.faces.min() <= self.faces.max() < n_v:
            raise ValueError(
                f"face indices must lie in [0, {n_v}), got "
                f"[{self.faces.min()}, {self.faces.max()}]"
            )
        self.edges, _ = _face_edges(self.faces, n_v)
        chi = len(self.vertices) - len(self.edges) + len(self.faces)
        if chi != 2:
            raise ValueError(f"mesh is not a topological sphere (chi = {chi})")

    def __len__(self) -> int:
        return self.vertices.shape[0]


def _face_edges(faces: np.ndarray, n_vertices: int) -> tuple[np.ndarray, np.ndarray]:
    """The sorted unique edges (E, 2) of ``faces`` and, for each of the
    face sides (0,1), (1,2), (0,2) stacked side-major, its edge's row.

    Each side (i, j), i < j, is keyed i * n_vertices + j, so a 1-D unique
    on the keys sorts the edges in the row order ``np.unique(axis=0)``
    gives; the indices must lie in [0, n_vertices).
    """
    pairs = np.vstack([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [0, 2]]])
    pairs.sort(axis=1)
    keys, inverse = np.unique(pairs[:, 0] * n_vertices + pairs[:, 1],
                              return_inverse=True)
    return np.column_stack(np.divmod(keys, n_vertices)), inverse


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
    edges, inverse = _face_edges(faces, len(verts))
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

