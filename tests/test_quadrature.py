"""Exactness of the simplex quadrature rules against closed-form moments."""

import math

import numpy as np
import pytest
from scipy.special import roots_jacobi

from divcurl.quadrature import (
    TET_REF_MEASURE,
    TRI_REF_MEASURE,
    gauss_points,
    simplex_rule,
)

from invariants import mesh_at


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


def _line(m, alpha):
    """m-point Gauss-Jacobi rule for (1-t)^alpha f(t) over [0, 1]."""
    x, w = roots_jacobi(m, alpha, 0.0)
    return 0.5 * (x + 1.0), w * 0.5 ** (alpha + 1)


def _triangle_reference(degree):
    """The triangle rule written out: x = u (1 - v), y = v."""
    m = max(1, (degree + 2) // 2)
    (u, wu), (v, wv) = _line(m, 0), _line(m, 1)
    U, V = np.meshgrid(u, v, indexing="ij")
    pts = np.column_stack([(U * (1.0 - V)).ravel(), V.ravel()])
    return pts, np.outer(wu, wv).ravel()


def _tetrahedron_reference(degree):
    """The tet rule written out: x = u (1 - v)(1 - w), y = v (1 - w), z = w."""
    m = max(1, (degree + 2) // 2)
    (u, wu), (v, wv), (w, ww) = _line(m, 0), _line(m, 1), _line(m, 2)
    U, V, W = np.meshgrid(u, v, w, indexing="ij")
    pts = np.column_stack(
        [
            (U * (1.0 - V) * (1.0 - W)).ravel(),
            (V * (1.0 - W)).ravel(),
            W.ravel(),
        ]
    )
    return pts, np.einsum("i,j,k->ijk", wu, wv, ww).ravel()


@pytest.mark.parametrize("degree", range(1, 13))
def test_rules_equal_explicit_constructions_bitwise(degree):
    # the loads, projections and errors are pinned bit for bit elsewhere;
    # the one recursion must give the two hand-written rules exactly
    for dim, reference in ((2, _triangle_reference), (3, _tetrahedron_reference)):
        pts, wts = simplex_rule(dim, degree)
        want_pts, want_wts = reference(degree)
        assert pts.shape == want_pts.shape and wts.shape == want_wts.shape
        assert np.array_equal(pts, want_pts)
        assert np.array_equal(wts, want_wts)


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 6, 8])
def test_tet_rule_exactness(degree):
    pts, wts = simplex_rule(3, degree)
    assert wts.sum() == pytest.approx(TET_REF_MEASURE, rel=1e-14)
    assert np.all(wts > 0)
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            for c in range(degree + 1 - a - b):
                got = np.sum(wts * pts[:, 0] ** a * pts[:, 1] ** b * pts[:, 2] ** c)
                assert got == pytest.approx(tet_moment(a, b, c), rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 7])
def test_tri_rule_exactness(degree):
    pts, wts = simplex_rule(2, degree)
    assert wts.sum() == pytest.approx(TRI_REF_MEASURE, rel=1e-14)
    assert np.all(wts > 0)
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            got = np.sum(wts * pts[:, 0] ** a * pts[:, 1] ** b)
            assert got == pytest.approx(tri_moment(a, b), rel=1e-12, abs=1e-15)


def test_degree_below_one_rejected():
    with pytest.raises(ValueError):
        simplex_rule(3, 0)
    with pytest.raises(ValueError):
        simplex_rule(2, -1)
    # a bool or a non-integer is no degree, even where it equals one that
    # is cached; a numpy integer is one
    simplex_rule(3, 1)
    for degree in (True, 2.5, 4.0, np.float64(4)):
        with pytest.raises(ValueError):
            simplex_rule(3, degree)
    for got, want in zip(simplex_rule(3, np.int64(4)), simplex_rule(3, 4)):
        assert np.array_equal(got, want)
    tet = np.eye(4, 3)[None]
    with pytest.raises(ValueError):
        gauss_points(tet, 0)
    with pytest.raises(ValueError):
        gauss_points(tet[:, :3], -1)


def test_mapping_scales_with_volume():
    verts = np.array([[[1.0, 1.0, 1.0], [3.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]])
    phys, wts = gauss_points(verts, 2)
    vol = abs(np.linalg.det(verts[0, 1:] - verts[0, 0])) / 6.0
    # integral of 1 over the tet
    assert vol * wts.sum() / TET_REF_MEASURE == pytest.approx(vol)
    # integral of x: centroid identity
    got = np.sum(wts * phys[0, :, 0]) * vol / TET_REF_MEASURE / vol
    assert got == pytest.approx(verts[0, :, 0].mean())


def test_face_mapping_scales_with_area():
    verts = np.array([[[1.0, 1.0, 1.0], [3.0, 1.0, 1.0], [1.0, 1.0, 4.0]]])
    phys, wts = gauss_points(verts, 2)
    e1, e2 = verts[0, 1:] - verts[0, 0]
    area = 0.5 * np.linalg.norm(np.cross(e1, e2))
    # integral of 1 over the triangle
    assert area * wts.sum() / TRI_REF_MEASURE == pytest.approx(area)
    # integral of z: centroid identity
    got = np.sum(wts * phys[0, :, 2]) / TRI_REF_MEASURE
    assert got == pytest.approx(verts[0, :, 2].mean())


def _einsum_map(points, verts):
    """The affine map by its einsum definition."""
    edges = verts[:, 1:, :] - verts[:, :1, :]
    return verts[:, None, 0, :] + np.einsum("kr,trd->tkd", points, edges)


def test_maps_equal_einsum_definition_on_lattice():
    m = mesh_at(3, 4)
    for verts, dim in ((m.vertices[m.tets], 3), (m.vertices[m.faces], 2)):
        phys, wts = gauss_points(verts, 4)
        pts, want_wts = simplex_rule(dim, 4)
        assert np.array_equal(wts, want_wts)
        assert np.array_equal(phys, _einsum_map(pts, verts))


def test_maps_match_einsum_definition_off_lattice():
    rng = np.random.default_rng(17)
    for dim, shape in ((3, (200, 4, 3)), (2, (200, 3, 3))):
        verts = rng.uniform(-1.0, 1.0, shape)
        pts = simplex_rule(dim, 4)[0]
        got, want = gauss_points(verts, 4)[0], _einsum_map(pts, verts)
        assert got.shape == want.shape == (200, len(pts), 3)
        assert np.abs(got - want).max() <= 1e-15 * np.abs(verts).max()
