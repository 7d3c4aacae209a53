"""Exactness of the simplex quadrature rules against closed-form moments."""

import math

import numpy as np
import pytest

from divcurl.mesh import build_domain, build_structured_tet_mesh
from divcurl.quadrature import (
    TET_REF_MEASURE,
    TRI_REF_MEASURE,
    map_to_tetrahedra,
    map_to_triangles,
    tetrahedron_rule,
    triangle_rule,
)


def tet_moment(a, b, c):
    # reference-tet monomial integral: a! b! c! / (a+b+c+3)!
    return (
        math.factorial(a)
        * math.factorial(b)
        * math.factorial(c)
        / math.factorial(a + b + c + 3)
    )


def tri_moment(a, b):
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 6, 8])
def test_tet_rule_exactness(degree):
    pts, wts = tetrahedron_rule(degree)
    assert wts.sum() == pytest.approx(TET_REF_MEASURE, rel=1e-14)
    assert np.all(wts > 0)
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            for c in range(degree + 1 - a - b):
                got = np.sum(wts * pts[:, 0] ** a * pts[:, 1] ** b * pts[:, 2] ** c)
                assert got == pytest.approx(tet_moment(a, b, c), rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 7])
def test_tri_rule_exactness(degree):
    pts, wts = triangle_rule(degree)
    assert wts.sum() == pytest.approx(TRI_REF_MEASURE, rel=1e-14)
    assert np.all(wts > 0)
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            got = np.sum(wts * pts[:, 0] ** a * pts[:, 1] ** b)
            assert got == pytest.approx(tri_moment(a, b), rel=1e-12, abs=1e-15)


def test_degree_below_one_rejected():
    with pytest.raises(ValueError):
        tetrahedron_rule(0)
    with pytest.raises(ValueError):
        triangle_rule(-1)


def test_mapping_scales_with_volume():
    pts, wts = tetrahedron_rule(2)
    verts = np.array([[[1.0, 1.0, 1.0], [3.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]])
    phys = map_to_tetrahedra(pts, verts)
    vol = abs(np.linalg.det(verts[0, 1:] - verts[0, 0])) / 6.0
    # integral of 1 over the tet
    assert vol * wts.sum() / TET_REF_MEASURE == pytest.approx(vol)
    # integral of x: centroid identity
    got = np.sum(wts * phys[0, :, 0]) * vol / TET_REF_MEASURE / vol
    assert got == pytest.approx(verts[0, :, 0].mean())


def _einsum_map(points, verts):
    """The affine map by its einsum definition."""
    edges = verts[:, 1:, :] - verts[:, :1, :]
    return verts[:, None, 0, :] + np.einsum("kr,trd->tkd", points, edges)


def test_maps_equal_einsum_definition_on_lattice():
    m = build_structured_tet_mesh(build_domain(3), 4)
    pts = tetrahedron_rule(4)[0]
    tets = m.vertices[m.tets]
    assert np.array_equal(map_to_tetrahedra(pts, tets), _einsum_map(pts, tets))
    tpts = triangle_rule(4)[0]
    faces = m.vertices[m.faces]
    assert np.array_equal(map_to_triangles(tpts, faces), _einsum_map(tpts, faces))


def test_maps_match_einsum_definition_off_lattice():
    rng = np.random.default_rng(17)
    for mapping, pts, shape in (
        (map_to_tetrahedra, tetrahedron_rule(4)[0], (200, 4, 3)),
        (map_to_triangles, triangle_rule(4)[0], (200, 3, 3)),
    ):
        verts = rng.uniform(-1.0, 1.0, shape)
        got, want = mapping(pts, verts), _einsum_map(pts, verts)
        assert got.shape == want.shape == (200, len(pts), 3)
        assert np.abs(got - want).max() <= 1e-15 * np.abs(verts).max()
