"""Point sets and meshes.

Mesh combinatorics are checked against hand-counted icosahedron numbers,
and cubature against the exact normalization of the harmonic basis.
"""

import math

import numpy as np
import pytest

from sphex.harmonics import CoefficientVector, evaluate
from sphex.specfun import HarmonicLevel, gegenbauer
from sphex.sphere_geom import (
    SphereMesh,
    _icosahedron,
    icosphere,
    iso_latitude_grid,
    quasi_uniform_grid,
)


class TestQuasiUniformGrid:
    def test_weights_sum_to_one(self):
        for dim, count in ((2, 137), (3, 64), (4, 33)):
            g = quasi_uniform_grid(dim, count)
            assert abs(float(g.weights.sum()) - 1.0) < 1e-12
            assert np.all(g.weights >= 0)

    def test_constant_quadrature(self):
        g = quasi_uniform_grid(2, 500)
        assert float(g.weights @ np.ones(len(g))) == pytest.approx(1.0, abs=1e-12)

    def test_points_on_sphere(self):
        for dim in (2, 3):
            g = quasi_uniform_grid(dim, 200)
            norms = np.linalg.norm(g.points, axis=1)
            assert np.allclose(norms, 1.0, atol=1e-12)

    def test_determinism(self):
        for dim in (2, 3):
            a = quasi_uniform_grid(dim, 101)
            b = quasi_uniform_grid(dim, 101)
            assert np.array_equal(a.points, b.points)
            assert np.array_equal(a.weights, b.weights)

    def test_ylm_square_quadrature(self):
        # normalization oracle: the basis functions are unit-variance
        # against the uniform measure
        for ell in (2, 5, 16):
            g = quasi_uniform_grid(2, 20 * ell * ell)
            level = HarmonicLevel(ell, 2)
            for m in (1, 2, ell + 1, 2 * ell + 1):
                slot = CoefficientVector(level, np.eye(level.n)[m - 1])
                vals = evaluate(slot, g.points)
                assert float(g.weights @ vals**2) == pytest.approx(1.0, abs=1e-2)

    def test_zonal_equidistribution(self):
        # zonal harmonics have zero mean; Fibonacci quadrature should see it
        x0 = np.array([0.0, 0.0, 1.0])
        for ell in (2, 7, 16):
            count = 4000
            g = quasi_uniform_grid(2, count)
            t = np.clip(g.points @ x0, -1.0, 1.0)
            val = float(g.weights @ gegenbauer(ell, 2, t))
            assert abs(val) <= 5.0 * ell / math.sqrt(count)

    @pytest.mark.parametrize("dim", [3, 4, 5])
    @pytest.mark.parametrize("count", [2, 7, 400, 5000])
    def test_banded_set_is_count_distinct_unit_points(self, dim, count):
        g = quasi_uniform_grid(dim, count)
        assert g.points.shape == (count, dim + 1)
        assert len(np.unique(g.points, axis=0)) == count
        np.testing.assert_allclose(np.linalg.norm(g.points, axis=1), 1.0,
                                   rtol=0, atol=1e-12)
        assert np.all(g.weights == 1.0 / count)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            quasi_uniform_grid(2, 1)
        with pytest.raises(ValueError):
            quasi_uniform_grid(1, 10)


class TestIsoLatitudeGrid:
    def test_structure(self):
        g = iso_latitude_grid(2000)
        assert len(g) >= 2000
        assert g.rings is not None
        thetas, phis = g.rings
        assert len(thetas) * len(phis) == len(g)

    def test_equal_weights(self):
        g = iso_latitude_grid(300)
        assert np.allclose(g.weights, 1.0 / len(g))

    def test_band_quadrature(self):
        # equal-area bands integrate smooth zonal functions decently
        g = iso_latitude_grid(20000)
        z = g.points[:, 2]
        assert float(g.weights @ z**2) == pytest.approx(1.0 / 3.0, abs=1e-3)


def row_unique_edges(faces):
    pairs = np.vstack([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [0, 2]]])
    pairs.sort(axis=1)
    edges, inverse = np.unique(pairs, axis=0, return_inverse=True)
    return edges, inverse.ravel()


def row_unique_subdivide(verts, faces):
    edges, inverse = row_unique_edges(faces)
    mid = verts[edges[:, 0]] + verts[edges[:, 1]]
    mid /= np.linalg.norm(mid, axis=1, keepdims=True)
    m01, m12, m02 = (len(verts) + inverse).reshape(3, -1)
    v0, v1, v2 = faces.T
    new_faces = np.concatenate([
        np.column_stack([v0, m01, m02]),
        np.column_stack([v1, m12, m01]),
        np.column_stack([v2, m02, m12]),
        np.column_stack([m01, m12, m02]),
    ])
    return np.vstack([verts, mid]), new_faces


class TestIcosphere:
    def test_base_combinatorics(self):
        m = icosphere(0)
        assert len(m.vertices) == 12
        assert len(m.edges) == 30
        assert len(m.faces) == 20

    def test_face_quadrupling(self):
        assert len(icosphere(3).faces) == 20 * 4**3

    def test_euler_characteristic_all_levels(self):
        for s in range(0, 5):
            m = icosphere(s)
            assert len(m.vertices) - len(m.edges) + len(m.faces) == 2

    def test_vertices_on_sphere(self):
        m = icosphere(2)
        assert np.allclose(np.linalg.norm(m.vertices, axis=1), 1.0, atol=1e-12)

    def test_edge_length_bound(self):
        for s in (0, 1, 2, 3, 4):
            m = icosphere(s)
            chord = np.linalg.norm(
                m.vertices[m.edges[:, 0]] - m.vertices[m.edges[:, 1]], axis=1)
            assert np.max(2.0 * np.arcsin(chord / 2.0)) < 3.0 * 2.0 ** -s

    def test_edges_and_subdivision_match_a_row_unique_oracle(self):
        # the edge dedupe keys each sorted pair as i * V + j; it must give
        # the vertices, faces and edges of np.unique over rows exactly
        verts, faces = _icosahedron()
        for s in range(7):
            m = icosphere(s)
            assert np.array_equal(m.vertices, verts)
            assert np.array_equal(m.faces, faces)
            assert np.array_equal(m.edges, row_unique_edges(faces)[0])
            verts, faces = row_unique_subdivide(verts, faces)

    @pytest.mark.parametrize("bad", [-1, 12])
    def test_mesh_refuses_face_indices_out_of_range(self, bad):
        verts, faces = _icosahedron()
        faces[3, 1] = bad
        with pytest.raises(ValueError, match=r"face indices must lie in \[0, 12\)"):
            SphereMesh(verts, faces)

    def test_capacity_guard(self):
        with pytest.raises(ValueError):
            icosphere(9)
        with pytest.raises(ValueError):
            icosphere(-1)

