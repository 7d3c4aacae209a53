"""Batched weak gradient/curl kernels and the cell projection."""

import numpy as np
import pytest

from divcurl import weak_ops
from divcurl.mesh import tet_geometry
from divcurl.weak_ops import project_field, weak_curl, weak_gradient

from invariants import commutativity_defect, kernel_identity_defect, mesh_at

REF = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


@pytest.fixture
def ref_geom():
    return tet_geometry(REF[None])


def test_gradient_of_constant_trace_vanishes(ref_geom):
    grad = weak_gradient(ref_geom, np.ones((1, 4)))
    assert np.abs(grad).max() < 1e-14


def test_gradient_single_face(ref_geom):
    # trace 1 on the face x=0 (opposite vertex (1,0,0), local index 1)
    vb = np.zeros((1, 4))
    vb[0, 1] = 1.0
    assert np.allclose(weak_gradient(ref_geom, vb), [[-3.0, 0.0, 0.0]])


def test_gradient_commutes_for_affine(ref_geom):
    # traces of w = x + 2y + 3z are its face-centroid values
    coeff = np.array([1.0, 2.0, 3.0])
    fcent = np.array([REF[[j for j in range(4) if j != i]].mean(axis=0) for i in range(4)])
    assert np.allclose(weak_gradient(ref_geom, (fcent @ coeff)[None]), coeff, atol=1e-13)


def test_curl_zero_trace(ref_geom):
    curl = weak_curl(ref_geom, np.zeros((1, 4, 3)))
    assert np.abs(curl).max() == 0.0


def test_curl_single_face_basis_identity(ref_geom):
    # trace w tangent to face i gives curl 3 w x grad(zeta_i)
    rng = np.random.default_rng(3)
    normals, grad = ref_geom.normals[0], ref_geom.grad_bary[0]
    for i in range(4):
        w = rng.standard_normal(3)
        w -= (w @ normals[i]) * normals[i]
        psib = np.zeros((1, 4, 3))
        psib[0, i] = w
        got = weak_curl(ref_geom, psib)[0]
        assert np.allclose(got, 3.0 * np.cross(w, grad[i]), atol=1e-12)


def test_curl_of_constant_field_vanishes(ref_geom):
    c = np.array([0.4, -0.2, 1.1])
    normals = ref_geom.normals[0]
    psib = c - np.einsum("fd,d->f", normals, c)[:, None] * normals
    curl = weak_curl(ref_geom, psib[None])
    assert np.abs(curl).max() < 1e-13


def test_curl_rejects_non_tangential(ref_geom):
    psib = np.zeros((1, 4, 3))
    psib[0, 0] = ref_geom.normals[0, 0]
    with pytest.raises(ValueError):
        weak_curl(ref_geom, psib)


def assert_face_weights_cancel(m):
    """The two tets of an interior face carry opposite face weights |F| n_F,
    so their surface terms in the coupling block cancel exactly; the
    weights of one tet close, so constant traces have zero gradient."""
    geom = m.geometry
    total = np.zeros((m.num_faces, 3))
    np.add.at(total, m.tet_faces, geom.areas[:, :, None] * geom.normals)
    interior = m.face_tets[:, 1] >= 0
    assert np.all(total[interior] == 0.0)
    assert np.linalg.norm(total[~interior], axis=1).min() > 0.0  # not vacuous
    assert np.abs(weak_gradient(geom, np.ones((m.num_tets, 4)))).max() < 1e-12


def test_sign_consistency():
    for example in range(1, 8):
        assert_face_weights_cancel(mesh_at(example, 2))


def test_sign_consistency_off_lattice(jittered_mesh):
    # on lattice meshes normals recomputed per tet also cancel exactly, so
    # only a jittered mesh shows that both tets read one shared face normal
    rng = np.random.default_rng(3)
    for example, n in ((1, 3), (4, 4)):
        lattice, m = jittered_mesh(example, n, rng)
        assert m.geometry.volumes.min() > 0.0
        assert np.abs(m.face_normals - lattice.face_normals).max() > 1e-3
        assert_face_weights_cancel(m)


def test_kernels_linear_in_traces():
    rng = np.random.default_rng(11)
    m = mesh_at(3, 2)
    geom = m.geometry
    a, b = rng.standard_normal((2, m.num_tets, 4))
    ga, gb = weak_gradient(geom, a), weak_gradient(geom, b)
    assert np.allclose(weak_gradient(geom, 2.0 * a - 3.0 * b), 2.0 * ga - 3.0 * gb)
    # tangential traces: project random vectors onto each face plane
    pa, pb = rng.standard_normal((2, m.num_tets, 4, 3))
    n = geom.normals
    pa -= np.einsum("tfd,tfd->tf", pa, n)[:, :, None] * n
    pb -= np.einsum("tfd,tfd->tf", pb, n)[:, :, None] * n
    ca, cb = weak_curl(geom, pa), weak_curl(geom, pb)
    assert np.allclose(weak_curl(geom, 2.0 * pa - 3.0 * pb), 2.0 * ca - 3.0 * cb)


def test_cell_projection_values():
    # cell averages of 5, x and x^2, exact at quadrature degree 4; the
    # mean of x^2 over a tet is (sum x_i^2 + (sum x_i)^2) / 20
    m = mesh_at(1, 1)
    got = project_field(
        lambda p: np.column_stack([np.full(len(p), 5.0), p[:, 0], p[:, 0] ** 2]), m
    )
    x = m.vertices[m.tets][:, :, 0]  # (nt, 4)
    assert np.allclose(got[:, 0], 5.0, atol=1e-13)
    assert np.allclose(got[:, 1], x.mean(axis=1), atol=1e-13)
    want = ((x**2).sum(axis=1) + x.sum(axis=1) ** 2) / 20.0
    assert np.allclose(got[:, 2], want, atol=1e-13)


def test_project_field_on_mesh():
    m = mesh_at(1, 2)
    qu = project_field(lambda p: p, m)
    centroids = m.vertices[m.tets].mean(axis=1)
    assert np.allclose(qu, centroids, atol=1e-13)
    const = project_field(lambda p: np.tile([2.0, -1.0, 0.5], (len(p), 1)), m)
    assert np.allclose(const, [2.0, -1.0, 0.5])


def test_commutativity_property_random_affine():
    # weak kernels of projected affine fields equal the projected exact
    # derivative fields; a tighter bound than acceptance criterion 2
    assert commutativity_defect(np.random.default_rng(20240817), 200) < 1e-12


# deliberate fault injection: the invariant checks read the kernels off
# divcurl.weak_ops at call time, so a sign error in a kernel must push its
# defects past the bounds the suite holds the true kernels to


def test_commutativity_catches_flipped_gradient(monkeypatch):
    assert commutativity_defect(np.random.default_rng(1), 25) < 1e-12
    monkeypatch.setattr(
        weak_ops, "weak_gradient", lambda geom, vb: -weak_gradient(geom, vb)
    )
    assert commutativity_defect(np.random.default_rng(1), 25) > 1e-11


def test_invariants_catch_flipped_curl(monkeypatch):
    cube = mesh_at(1, 1)
    assert kernel_identity_defect(cube, np.random.default_rng(1)) < 1e-12
    monkeypatch.setattr(
        weak_ops, "weak_curl", lambda geom, psib: -weak_curl(geom, psib)
    )
    assert commutativity_defect(np.random.default_rng(1), 25) > 1e-11
    assert kernel_identity_defect(cube, np.random.default_rng(1)) > 1e-12
