"""Mesh construction: counts, topology, geometry identities, boundary tags."""

import hashlib
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from scipy import ndimage

from divcurl.assembly import build_dof_map
from divcurl.mesh import (
    DomainSpec,
    Mesh,
    MeshError,
    build_structured_tet_mesh,
    tet_geometry,
    write_vtk,
)
from divcurl.problems import make_problem

from invariants import (
    kernel_identity_defect,
    mesh_at,
    lattice_order_defects,
    patch_test_defects,
    system_defects,
)


# SHA-256 of the integer and lattice-coordinate arrays of the built-in
# meshes at 1/h = 2, 4, 8.  These arrays are integers or lo + ijk / n, so
# they are bit-stable on any CPU; the LAPACK-derived geometry stays out.
_DIGEST_FILE = Path(__file__).parent / "data" / "mesh_digests.json"
_DIGEST_ARRAYS = (
    "vertices", "vertex_ijk", "tets", "faces", "tet_faces", "face_tets", "face_tags",
)


def _mesh_digests(example: int, n: int) -> dict:
    m = mesh_at(example, n)
    return {
        name: hashlib.sha256(np.ascontiguousarray(getattr(m, name)).tobytes()).hexdigest()
        for name in _DIGEST_ARRAYS
    }


_RECORDED = json.loads(_DIGEST_FILE.read_text())


@pytest.mark.parametrize("key", sorted(_RECORDED))
def test_mesh_arrays_match_recorded_digests(key):
    example, n = (int(part) for part in key.split("/"))
    assert _mesh_digests(example, n) == _RECORDED[key]


@pytest.mark.parametrize("n", (2, 4))
@pytest.mark.parametrize(
    "example, components, betti1",
    [(1, 1, 0), (2, 1, 0), (3, 1, 0), (4, 2, 0), (5, 1, 1), (6, 1, 2), (7, 1, 1)],
)
def test_topology_from_mesh(example, components, betti1, n):
    m = mesh_at(example, n)
    assert m.num_boundary_components == components
    assert m.betti1 == betti1


def test_unit_cube_counts():
    m1 = mesh_at(1, 1)
    assert (m1.num_tets, m1.num_vertices, m1.num_faces) == (6, 8, 18)
    assert len(m1.boundary_faces) == 12
    assert np.all(m1.face_tags[m1.boundary_faces] == 0)

    m2 = mesh_at(1, 2)
    assert (m2.num_tets, m2.num_vertices) == (48, 27)
    # every cube contributes 6 equal-volume tets
    assert np.allclose(m2.geometry.volumes, (0.5**3) / 6.0)


def test_toroid_counts():
    # 8 active cells at n=2: 3x3 ring minus the hole cell, one layer
    m = mesh_at(5, 2)
    assert m.num_tets == 6 * 8


def test_face_incidence_counts():
    m = mesh_at(3, 2)
    counts = np.bincount(m.tet_faces.ravel(), minlength=m.num_faces)
    assert set(np.unique(counts)) == {1, 2}
    boundary = m.face_tets[:, 1] < 0
    assert np.array_equal(counts == 1, boundary)
    assert np.all(m.face_tags[boundary] >= 0)
    assert np.all(m.face_tags[~boundary] == -1)


def test_cavity_classification():
    n = 4
    m = mesh_at(4, n)
    # cavity surface: 6 unit squares, 2 n^2 triangles each
    assert np.count_nonzero(m.face_tags == 1) == 12 * n * n
    # outer box surface: 6 faces of edge 2
    assert np.count_nonzero(m.face_tags == 0) == 6 * 2 * (2 * n) ** 2
    # partition: every boundary face has exactly one tag
    assert np.count_nonzero(m.face_tags >= 0) == len(m.boundary_faces)


def test_pinched_boundary_rejected():
    low = ((0.0, 0.0, 0.0), (0.5, 0.5, 0.5))
    diagonal = (low, ((0.5, 0.5, 0.0), (1.0, 1.0, 0.5)))
    # two cells meeting along one edge: four boundary faces share it
    slab = DomainSpec((0.0, 0.0, 0.0), (1.0, 1.0, 0.5), diagonal)
    with pytest.raises(MeshError, match="edge"):
        build_structured_tet_mesh(slab, 2)
    # the same pinch under a layer that joins the two cells
    cube = DomainSpec((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), diagonal)
    with pytest.raises(MeshError, match="edge"):
        build_structured_tet_mesh(cube, 2)
    # two notches meeting at the centre: no edge is pinched, the vertex is
    corners = (low, ((0.5, 0.5, 0.5), (1.0, 1.0, 1.0)))
    notched = DomainSpec((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), corners)
    with pytest.raises(MeshError, match="vertex"):
        build_structured_tet_mesh(notched, 2)


def test_empty_input_rejected():
    cube = make_problem(1).domain
    # a bool or a non-integer is no resolution, as 0 is none
    for n in (0, True, 2.0, "2", None):
        with pytest.raises(MeshError, match="n must be an integer >= 1"):
            build_structured_tet_mesh(cube, n)
    assert build_structured_tet_mesh(cube, np.int64(2)).num_tets == 48
    covered = DomainSpec(cube.lo, cube.hi, ((cube.lo, cube.hi),))
    with pytest.raises(MeshError, match="no cells"):
        build_structured_tet_mesh(covered, 2)


def test_three_tets_on_one_face_rejected():
    # the face (0, 1, 2) is shared by three tets
    vertices = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                         [0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1.0, 1.0, 1.0]])
    tets = np.array([[0, 1, 2, 3], [0, 1, 2, 4], [0, 1, 2, 5]])
    with pytest.raises(MeshError, match="non-manifold face incidence"):
        Mesh(vertices, np.zeros((6, 3), dtype=np.int64), tets)


def test_split_domain_rejected():
    slab = ((0.0, 0.0, 0.5), (1.0, 1.0, 1.0))
    split = DomainSpec((0.0, 0.0, 0.0), (1.0, 1.0, 1.5), (slab,))
    with pytest.raises(MeshError, match="connected"):
        build_structured_tet_mesh(split, 2)


@pytest.mark.parametrize(
    "box, clipped",
    [
        # reaching past the low and high sides of the bounding box
        (((-0.5, -1.0, 0.5), (1.0, 0.5, 3.0)), ((0.0, 0.0, 0.5), (1.0, 0.5, 2.0))),
        (((1.0, 1.5, -2.0), (2.5, 4.0, 1.0)), ((1.0, 1.5, 0.0), (2.0, 2.0, 1.0))),
        # entirely outside, below and above
        (((-1.0, -1.0, -1.0), (-0.5, -0.5, -0.5)), None),
        (((2.5, 0.0, 0.0), (3.0, 1.0, 1.0)), None),
        # past any int64 lattice index, which used to warn in a cast
        (((0.0, 0.0, 0.0), (1e30, 1.0, 1.0)), ((0.0, 0.0, 0.0), (2.0, 1.0, 1.0))),
    ],
)
def test_excluded_box_clipped_to_bounding_box(box, clipped):
    def mesh(*boxes):
        domain = DomainSpec((0.0, 0.0, 0.0), (2.0, 2.0, 2.0), boxes)
        return build_structured_tet_mesh(domain, 2)

    got, want = mesh(box), mesh(clipped) if clipped else mesh()
    for name in _DIGEST_ARRAYS:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


@pytest.mark.parametrize(
    "box",
    [
        # inverted on one axis, flat on one axis: unchecked, each removes nothing
        ((0.5, 0.0, 0.0), (0.0, 1.0, 1.0)),
        ((0.0, 0.0, 0.5), (1.0, 1.0, 0.5)),
        # not a pair of 3-vectors: unchecked, numpy raises or misreads them
        ((0.0, 0.0), (1.0, 1.0, 1.0)),
        ((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (2.0, 2.0, 2.0)),
        (0.0, 0.0, 0.0, 1.0, 1.0, 1.0),
    ],
)
def test_malformed_excluded_box_rejected(box):
    domain = DomainSpec((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (box,))
    with pytest.raises(MeshError, match="not a pair of 3-vectors lo < hi"):
        build_structured_tet_mesh(domain, 2)


_UNIT = ((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))


@pytest.mark.parametrize(
    "domain",
    [
        # the bounding box is checked as an excluded box is: each of these
        # used to raise numpy's own error, or warn in a cast
        DomainSpec((0, 0), (1, 1)),
        DomainSpec(("a", 0, 0), (1, 1, 1)),
        DomainSpec(None, (1, 1, 1)),
        DomainSpec((0.0, 0.0, np.nan), (1.0, 1.0, 1.0)),
        DomainSpec((0.0, 0.0, 0.0), (1.0, np.inf, 1.0)),
        DomainSpec((-np.inf, 0.0, 0.0), (1.0, 1.0, 1.0)),
        # and an excluded box must have finite corners too
        DomainSpec(*_UNIT, (((0.0, 0.0, 0.0), (0.5, np.nan, 0.5)),)),
        DomainSpec(*_UNIT, (((0.0, -np.inf, 0.0), (0.5, 0.5, 0.5)),)),
        DomainSpec(*_UNIT, (((0.0, 0.0, 0.0), (np.inf, 0.5, 0.5)),)),
    ],
    ids=("2-vectors", "a-string", "none", "nan", "inf", "minus-inf",
         "excluded-nan", "excluded-minus-inf", "excluded-inf"),
)
def test_malformed_box_rejected_without_a_warning(domain):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MeshError, match="not a pair of 3-vectors lo < hi"):
            build_structured_tet_mesh(domain, 2)


def test_mesh_too_large_to_index_rejected():
    # checked before any cast or allocation: an int64 numbers neither the
    # vertices of the 1/h = 10**30 lattice nor the face keys of 2**21
    # vertices; the zero arrays below are never written
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MeshError, match=r"more than 2\*\*63 - 1 vertices"):
            build_structured_tet_mesh(make_problem(1).domain, 10**30)
    tet = np.array([[0, 1, 2, 3]])
    with pytest.raises(MeshError, match=r"at most 2\*\*21 - 1"):
        Mesh(np.zeros((2**21, 3)), np.zeros((2**21, 3), dtype=np.int64), tet)
    # one vertex fewer is still numbered
    vertices = np.zeros((2**21 - 1, 3))
    vertices[[1, 2, 3], [0, 1, 2]] = 1.0
    m = Mesh(vertices, np.zeros((2**21 - 1, 3), dtype=np.int64), tet)
    assert m.num_faces == len(m.boundary_faces) == 4


_LATTICE = 6  # cells per axis of [0, 3]^3 at n = 2


@st.composite
def _lattice_boxes(draw):
    """1 to 3 boxes in lattice units, each kept off the bounding box with
    even odds, so that cavities are common."""
    boxes = []
    for _ in range(draw(st.integers(1, 3))):
        inner = draw(st.booleans())
        coord = st.integers(1, _LATTICE - 1) if inner else st.integers(0, _LATTICE)
        ends = [sorted(draw(st.lists(coord, min_size=2, max_size=2, unique=True)))
                for _ in range(3)]
        boxes.append(tuple(zip(*ends)))
    return boxes


def _box_union(boxes) -> DomainSpec:
    """[0, 3]^3 minus ``boxes``, given in lattice units at n = 2; it holds
    two cavities, two tunnels or one of each."""
    halves = tuple(tuple(tuple(c / 2 for c in end) for end in box) for box in boxes)
    return DomainSpec((0.0, 0.0, 0.0), (3.0, 3.0, 3.0), halves)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_lattice_boxes())
def test_topology_on_random_box_unions(boxes):
    excluded = np.zeros((_LATTICE,) * 3, dtype=bool)
    for lo, hi in boxes:
        excluded[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]] = True
    domain = _box_union(boxes)
    try:
        m = build_structured_tet_mesh(domain, 2)
    except MeshError:  # empty, split or pinched
        reject()

    # cavities: clusters of excluded cells that keep off the bounding box
    clusters, count = ndimage.label(excluded)
    touching = np.unique(np.concatenate(
        [np.take(clusters, i, axis=a).ravel() for a in range(3) for i in (0, -1)]
    ))
    cavities = set(range(1, count + 1)) - set(touching)
    assert m.num_boundary_components - 1 == len(cavities)

    # Euler characteristic of the solid over all its tet edges
    pairs = m.tets[:, [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]].reshape(-1, 2)
    num_edges = len(np.unique(np.sort(pairs, axis=1), axis=0))
    euler = m.num_vertices - num_edges + m.num_faces - m.num_tets
    assert euler == 1 - m.betti1 + (m.num_boundary_components - 1)

    # the tags partition the boundary faces, the bounding box is exterior
    boundary = m.face_tets[:, 1] < 0
    assert np.all(m.face_tags[~boundary] == -1)
    assert set(m.face_tags[boundary]) == set(range(m.num_boundary_components))
    ijk = m.vertex_ijk[m.faces]
    on_box = np.any(np.all((ijk == 0) | (ijk == _LATTICE), axis=1), axis=1)
    assert np.all(m.face_tags[on_box] == 0)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(_lattice_boxes())
def test_system_invariants_on_random_box_unions(boxes):
    # exact symmetry, PSD stabilizers and the constant patch test on
    # domains with cavities and tunnels, not only the five built-in ones
    try:
        m = build_structured_tet_mesh(_box_union(boxes), 2)
    except MeshError:  # empty, split or pinched
        reject()
    asymmetry, min_energy = system_defects(np.random.default_rng(0), 5, m)
    assert asymmetry == 0.0
    assert min_energy >= -1e-12
    # the facts the direct solve's lattice order rests on, checked before
    # the patch test solves through every front
    defects = lattice_order_defects(m, build_dof_map(m))
    assert not any(defects.values()), defects
    assert max(patch_test_defects(m)) <= 1e-10


@pytest.mark.parametrize(
    "excluded, components, betti1",
    [
        # two cavities
        ((((0.5, 0.5, 0.5), (1, 1, 1)), ((2, 2, 2), (2.5, 2.5, 2.5))), 3, 0),
        # two tunnels
        ((((0.5, 0.5, 0), (1, 1, 3)), ((2, 2, 0), (2.5, 2.5, 3))), 1, 2),
        # a tunnel and a cavity
        ((((0.5, 0.5, 0), (1, 1, 3)), ((2, 2, 1), (2.5, 2.5, 2))), 2, 1),
    ],
    ids=("two-cavities", "two-tunnels", "tunnel-and-cavity"),
)
def test_two_holes_in_a_box_union(excluded, components, betti1):
    domain = DomainSpec((0.0, 0.0, 0.0), (3.0, 3.0, 3.0), excluded)
    m = build_structured_tet_mesh(domain, 2)
    assert (m.num_boundary_components, m.betti1) == (components, betti1)
    defects = lattice_order_defects(m, build_dof_map(m))
    assert not any(defects.values()), defects
    assert max(patch_test_defects(m)) <= 1e-10


def test_alignment_precondition():
    for ex in (4, 5, 6, 7):
        with pytest.raises(MeshError):
            mesh_at(ex, 1)
        mesh_at(ex, 2)
    # a corner 1e-5 off the lattice is rejected, not snapped onto it; a
    # relative tolerance would scale with the coordinate and let it pass
    off_box = DomainSpec((0, 0, 0), (6, 6, 1), excluded=(((5.00005, 5, 0), (6, 6, 1)),))
    off_hi = DomainSpec((0, 0, 0), (3.00002, 1, 1))
    for dom in (off_box, off_hi):
        with pytest.raises(MeshError):
            build_structured_tet_mesh(dom, 2)


def test_closed_surface_identity():
    m = mesh_at(5, 2)
    geom = m.geometry
    residual = np.einsum("tf,tfd->td", geom.areas, geom.normals)
    assert np.abs(residual).max() < 1e-12


def test_refinement_scaling():
    m1 = mesh_at(1, 2)
    m2 = mesh_at(1, 4)
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
    m = mesh_at(6, 2)
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
    m = mesh_at(1, 1)
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
