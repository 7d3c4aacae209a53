"""The weak gradient and weak curl read off the coupling block, and the
cell projection."""

import numpy as np
import pytest
import scipy.sparse as sparse

from divcurl import assembly
from divcurl.weak_ops import project_field

from invariants import (
    commutativity_defect,
    coupled_kernels,
    jittered_mesh,
    kernel_identity_defect,
    mesh_at,
    one_tet,
    random_tets,
    simplex,
)

REF = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


@pytest.fixture
def ref():
    return one_tet(REF)


def kernels(mesh, v=None, psi=None):
    """(grad_w v as lamb traces, curl_w psi, grad_w v as sb traces) on
    the mesh's tets for one set of face values (nf,) and vectors (nf, 3),
    eps = I; either defaults to zero."""
    v = np.zeros(mesh.num_faces) if v is None else v
    psi = np.zeros((mesh.num_faces, 3)) if psi is None else psi
    return [k[0] for k in coupled_kernels(mesh, np.eye(3), v[None], psi[None])]


def test_gradient_of_constant_trace_vanishes(ref):
    grad, _, grad_s = kernels(ref, np.ones(4))
    assert max(np.abs(grad).max(), np.abs(grad_s).max()) < 1e-14


def test_gradient_single_face(ref):
    # trace 1 on the face x=0 (opposite vertex (1,0,0), local index 1)
    vb = np.zeros(4)
    vb[ref.tet_faces[0, 1]] = 1.0
    for grad in kernels(ref, vb)[::2]:
        assert np.allclose(grad, [[-3.0, 0.0, 0.0]], rtol=0.0, atol=1e-14)


def test_gradient_commutes_for_affine(ref):
    # traces of w = x + 2y + 3z are its face-centroid values
    coeff = np.array([1.0, 2.0, 3.0])
    fcent = ref.vertices[ref.faces].mean(axis=1)
    for grad in kernels(ref, fcent @ coeff)[::2]:
        assert np.allclose(grad, coeff, atol=1e-13)


def test_curl_zero_trace(ref):
    assert np.abs(kernels(ref)[1]).max() == 0.0


def test_curl_single_face_basis_identity(ref):
    # trace w tangent to face i gives curl 3 w x grad(zeta_i)
    rng = np.random.default_rng(3)
    grad = simplex(ref)[1][0]
    for i in range(4):
        face, normal = ref.tet_faces[0, i], ref.geometry.normals[0, i]
        w = rng.standard_normal(3)
        w -= (w @ normal) * normal
        psi = np.zeros((4, 3))
        psi[face] = w
        curl = kernels(ref, psi=psi)[1][0]
        assert np.allclose(curl, 3.0 * np.cross(w, grad[i]), atol=1e-12)


def test_curl_of_constant_field_vanishes(ref):
    # the Gram solve takes the tangential part of c on each face
    c = np.array([0.4, -0.2, 1.1])
    assert np.abs(kernels(ref, psi=np.tile(c, (4, 1)))[1]).max() < 1e-13


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
    for grad in kernels(m, np.ones(m.num_faces))[::2]:
        assert np.abs(grad).max() < 1e-12


def test_sign_consistency():
    for example in range(1, 8):
        assert_face_weights_cancel(mesh_at(example, 2))


def test_sign_consistency_off_lattice():
    # on lattice meshes normals recomputed per tet also cancel exactly, so
    # only a jittered mesh shows that both tets read one shared face normal
    rng = np.random.default_rng(3)
    for example, n in ((1, 3), (4, 4)):
        lattice, m = jittered_mesh(example, n, rng)
        assert m.geometry.volumes.min() > 0.0
        assert np.abs(m.face_normals - lattice.face_normals).max() > 1e-3
        assert_face_weights_cancel(m)


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


def jittered_meshes(rng):
    """The 1/h = 2 meshes of problems 1-7 with interior vertices moved by
    up to 0.2 h, so that no two tets are congruent."""
    return [jittered_mesh(example, 2, rng, 0.2)[1] for example in range(1, 8)]


def test_commutativity_property_random_affine():
    # the kernels of projected affine fields equal the projected exact
    # derivative fields; a tighter bound than acceptance criterion 2,
    # whose random tets have skinny faces
    rng = np.random.default_rng(20240817)
    assert commutativity_defect(jittered_meshes(rng), rng, 20) < 1e-12


# deliberate fault injection: the invariant checks read B off
# divcurl.assembly at call time, so a sign error in one of its blocks must
# push their defects past the bounds the suite holds the true B to


def flip_rows(monkeypatch, block):
    """Make ``assembly.assemble_Bh`` negate the rows of ``block`` of B."""
    true_Bh = assembly.assemble_Bh

    def flipped(mesh, eps, dofmap):
        sign = np.ones(dofmap.total)
        sign[dofmap.block(block)] = -1.0
        return (sparse.diags(sign) @ true_Bh(mesh, eps, dofmap)).tocsr()

    monkeypatch.setattr(assembly, "assemble_Bh", flipped)


def test_commutativity_catches_flipped_gradient(monkeypatch):
    cube = mesh_at(1, 1)
    meshes = random_tets(np.random.default_rng(1), 5) + [cube]
    assert commutativity_defect(meshes, np.random.default_rng(1), 5) < 1e-12
    for block in ("lamb", "q0"):  # the lamb-u and the q0-sb block
        with monkeypatch.context() as patch:
            flip_rows(patch, block)
            assert commutativity_defect(meshes, np.random.default_rng(1), 5) > 1e-11
            assert kernel_identity_defect(cube, np.random.default_rng(1)) > 1e-12


def test_invariants_catch_flipped_curl(monkeypatch):
    cube = mesh_at(1, 1)
    meshes = random_tets(np.random.default_rng(1), 5) + [cube]
    assert kernel_identity_defect(cube, np.random.default_rng(1)) < 1e-12
    flip_rows(monkeypatch, "qb")
    assert commutativity_defect(meshes, np.random.default_rng(1), 5) > 1e-11
    assert kernel_identity_defect(cube, np.random.default_rng(1)) > 1e-12
