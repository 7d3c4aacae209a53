"""Mesh construction: counts, topology, geometry identities, boundary tags."""

import numpy as np
import pytest

from divcurl.invariants import kernel_identity_defect
from divcurl.mesh import (
    MeshError,
    build_domain,
    build_structured_tet_mesh,
    tet_geometry,
    write_vtk,
)


def test_unknown_example_rejected():
    with pytest.raises(MeshError):
        build_domain(8)


def test_domain_families():
    assert build_domain(1).family == "unit_cube"
    assert build_domain(2).family == "unit_cube"
    assert build_domain(3).family == "lshaped_prism"
    dom4 = build_domain(4)
    assert dom4.family == "cube_with_cavity"
    assert dom4.num_boundary_components == 2
    assert build_domain(5).betti1 == 1
    assert build_domain(6).betti1 == 2
    assert build_domain(7) == build_domain(5)


def test_unit_cube_counts():
    m1 = build_structured_tet_mesh(build_domain(1), 1)
    assert (m1.num_tets, m1.num_vertices, m1.num_faces) == (6, 8, 18)
    assert len(m1.boundary_faces) == 12
    assert np.all(m1.face_tags[m1.boundary_faces] == 0)

    m2 = build_structured_tet_mesh(build_domain(1), 2)
    assert (m2.num_tets, m2.num_vertices) == (48, 27)
    # every cube contributes 6 equal-volume tets
    assert np.allclose(m2.geometry.volumes, (0.5**3) / 6.0)


def test_toroid_counts():
    # 8 active cells at n=2: 3x3 ring minus the hole cell, one layer
    m = build_structured_tet_mesh(build_domain(5), 2)
    assert m.num_tets == 6 * 8
    assert m.domain.num_boundary_components == 1


def test_face_incidence_counts():
    m = build_structured_tet_mesh(build_domain(3), 2)
    assert set(np.unique(m.face_tet_count)) == {1, 2}
    boundary = m.face_tet_count == 1
    assert np.all(m.face_tags[boundary] >= 0)
    assert np.all(m.face_tags[~boundary] == -1)


def test_cavity_classification():
    n = 4
    m = build_structured_tet_mesh(build_domain(4), n)
    # cavity surface: 6 unit squares, 2 n^2 triangles each
    assert np.count_nonzero(m.face_tags == 1) == 12 * n * n
    # outer box surface: 6 faces of edge 2
    assert np.count_nonzero(m.face_tags == 0) == 6 * 2 * (2 * n) ** 2
    # partition: every boundary face has exactly one tag
    assert np.count_nonzero(m.face_tags >= 0) == len(m.boundary_faces)


def test_classification_rejects_mismatched_domain():
    from divcurl.mesh import DomainSpec, classify_boundary_faces

    m = build_structured_tet_mesh(build_domain(5), 2)
    # same bounding box but no hole: the hole's lateral faces match no
    # component surface
    fake = DomainSpec("unit_cube", m.domain.lo, m.domain.hi)
    with pytest.raises(MeshError):
        classify_boundary_faces(m, fake)


def test_alignment_precondition():
    for ex in (4, 5, 6, 7):
        with pytest.raises(MeshError):
            build_structured_tet_mesh(build_domain(ex), 1)
        build_structured_tet_mesh(build_domain(ex), 2)


def test_closed_surface_identity():
    m = build_structured_tet_mesh(build_domain(5), 2)
    geom = m.geometry
    residual = np.einsum("tf,tfd->td", geom.areas, geom.normals)
    assert np.abs(residual).max() < 1e-12


def test_refinement_scaling():
    dom = build_domain(1)
    m1 = build_structured_tet_mesh(dom, 2)
    m2 = build_structured_tet_mesh(dom, 4)
    assert m2.h == pytest.approx(m1.h / 2.0)
    assert m2.face_areas.max() == pytest.approx(m1.face_areas.max() / 4.0)
    assert m2.num_tets == 8 * m1.num_tets


def test_reference_tet_geometry():
    verts = np.array(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    )
    geom = tet_geometry(verts[None])
    assert geom.volumes[0] == pytest.approx(1.0 / 6.0)
    assert np.allclose(geom.grad_bary[0, 0], [-1.0, -1.0, -1.0])
    # face opposite the origin: area sqrt(3)/2, normal (1,1,1)/sqrt(3)
    assert geom.areas[0, 0] == pytest.approx(np.sqrt(3.0) / 2.0)
    assert np.allclose(geom.normals[0, 0], np.ones(3) / np.sqrt(3.0))
    assert geom.diameters[0] == pytest.approx(np.sqrt(2.0))


def test_simplex_identity_all_elements():
    # |F_i| n_i = -3 |T| grad(zeta_i), closed face weights and the
    # single-face curl identity on every element
    m = build_structured_tet_mesh(build_domain(6), 2)
    geom = m.geometry
    weights = geom.areas[:, :, None] * geom.normals
    assert np.abs(weights + 3.0 * geom.volumes[:, None, None] * geom.grad_bary).max() < 1e-12
    assert kernel_identity_defect(m, np.random.default_rng(0)) < 1e-12
    # the mesh record agrees with the free-standing geometry of its tets:
    # the same code for volumes, gradients and diameters, and areas and
    # normals shared per face
    free = tet_geometry(m.vertices[m.tets])
    for name in ("volumes", "grad_bary", "diameters"):
        assert np.array_equal(getattr(geom, name), getattr(free, name))
    assert np.allclose(geom.areas, free.areas, rtol=1e-14, atol=0.0)
    assert np.allclose(geom.normals, free.normals, rtol=0.0, atol=1e-14)


def test_degenerate_tet_rejected():
    flat = np.array(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]]
    )
    with pytest.raises(MeshError):
        tet_geometry(flat[None])
    # callers orient their tets: a negative volume is rejected too
    inverted = np.array(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]
    )
    with pytest.raises(MeshError):
        tet_geometry(inverted[None])


def test_vtk_export(tmp_path):
    m = build_structured_tet_mesh(build_domain(1), 1)
    path = tmp_path / "mesh.vtk"
    write_vtk(
        m,
        str(path),
        {"field": np.arange(m.num_tets, dtype=float),
         "vec": np.ones((m.num_tets, 3))},
    )
    text = path.read_text()
    assert "UNSTRUCTURED_GRID" in text
    assert f"POINTS {m.num_vertices} double" in text
    assert "VECTORS vec double" in text
    assert text.count("\n10") >= m.num_tets - 1  # VTK_TETRA cell type
    with pytest.raises(ValueError):
        write_vtk(m, str(path), {"bad": np.ones((2, 2))})
