"""Structured tetrahedral meshes of axis-aligned box-union domains.

A domain is a bounding box minus a list of axis-aligned excluded boxes.
The mesh is built by slicing the box into cubes of edge 1/n and splitting
every cube into the same 6 tetrahedra around its main diagonal, which
yields a conforming, shape-regular partition with globally consistent
face identities.

Conventions
-----------
* Tet local face i is the face opposite local vertex i.
* A face is identified by its sorted vertex triple.  Its stored normal is
  the outward normal of the lowest-index incident tet; the other incident
  tet carries sign -1 in ``tet_face_signs``.
* Boundary tags: -1 interior, 0 the exterior component, i >= 1 the i-th
  cavity surface.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DomainSpec",
    "Mesh",
    "MeshError",
    "TetGeometry",
    "build_domain",
    "build_structured_tet_mesh",
    "classify_boundary_faces",
    "tet_geometry",
    "write_vtk",
    "INTERIOR",
]

INTERIOR = -1

# The 6 tetrahedra of the cube split share the main diagonal; walking the
# cube edges in each axis permutation order gives equal volumes 1/6 and
# face triangulations that match between neighbouring cubes.
_CUBE_PERMUTATIONS = (
    (0, 1, 2),
    (0, 2, 1),
    (1, 0, 2),
    (1, 2, 0),
    (2, 0, 1),
    (2, 1, 0),
)

# local face i = vertices of the tet omitting local vertex i
_FACE_VERTICES = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])


class MeshError(Exception):
    """Invalid mesh construction input or inconsistent topology."""


@dataclass(frozen=True)
class DomainSpec:
    """Axis-aligned box-union computational domain.

    Attributes
    ----------
    family : str
        One of ``unit_cube``, ``lshaped_prism``, ``cube_with_cavity``,
        ``toroid_1hole``, ``toroid_2holes``.
    lo, hi : tuple of float
        Bounding box corners.
    excluded : tuple of (lo, hi) box pairs
        Boxes removed from the bounding box.
    cavity_indices : tuple of int
        Positions in ``excluded`` that are strictly interior boxes; each
        one contributes a separate boundary component Gamma_i.
    betti1 : int
        Number of independent tunnels (0 unless toroidal).
    """

    family: str
    lo: tuple
    hi: tuple
    excluded: tuple = ()
    cavity_indices: tuple = ()
    betti1: int = 0

    @property
    def num_cavities(self) -> int:
        return len(self.cavity_indices)

    @property
    def num_boundary_components(self) -> int:
        return 1 + self.num_cavities

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Vectorized open-domain membership test for (N, 3) points."""
        pts = np.atleast_2d(points)
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        inside = np.all((pts > lo) & (pts < hi), axis=1)
        for blo, bhi in self.excluded:
            in_box = np.all((pts >= np.asarray(blo)) & (pts <= np.asarray(bhi)), axis=1)
            inside &= ~in_box
        return inside


def _unit_cube() -> DomainSpec:
    return DomainSpec("unit_cube", (0.0, 0.0, 0.0), (1.0, 1.0, 1.0))


def _lshaped_prism() -> DomainSpec:
    # (-1,1)^2 x (0,1) minus the quadrant x>=0, y<=0
    return DomainSpec(
        "lshaped_prism",
        (-1.0, -1.0, 0.0),
        (1.0, 1.0, 1.0),
        excluded=(((0.0, -1.0, 0.0), (1.0, 0.0, 1.0)),),
    )


def _cube_with_cavity() -> DomainSpec:
    return DomainSpec(
        "cube_with_cavity",
        (-1.5, -1.5, -1.5),
        (0.5, 0.5, 0.5),
        excluded=(((-1.0, -1.0, -1.0), (0.0, 0.0, 0.0)),),
        cavity_indices=(0,),
    )


def _toroid_1hole() -> DomainSpec:
    # square annulus extruded in z; the hole runs through the full height
    return DomainSpec(
        "toroid_1hole",
        (-1.0, -1.0, 0.0),
        (0.5, 0.5, 0.5),
        excluded=(((-0.5, -0.5, 0.0), (0.0, 0.0, 0.5)),),
        betti1=1,
    )


def _toroid_2holes() -> DomainSpec:
    return DomainSpec(
        "toroid_2holes",
        (-1.0, -1.0, 0.0),
        (1.5, 1.5, 0.5),
        excluded=(
            ((-0.5, -0.5, 0.0), (0.0, 0.0, 0.5)),
            ((0.5, -0.5, 0.0), (1.0, 0.0, 0.5)),
        ),
        betti1=2,
    )


_EXAMPLE_DOMAINS = {
    1: _unit_cube,
    2: _unit_cube,
    3: _lshaped_prism,
    4: _cube_with_cavity,
    5: _toroid_1hole,
    6: _toroid_2holes,
    7: _toroid_1hole,
}


def build_domain(example_id: int) -> DomainSpec:
    """Return the computational domain of benchmark problem 1..7."""
    try:
        return _EXAMPLE_DOMAINS[example_id]()
    except KeyError:
        raise MeshError(f"unknown example id {example_id}, expected 1..7") from None


@dataclass(frozen=True)
class TetGeometry:
    """Geometry of a batch of N tetrahedra.

    ``grad_bary[t, i]`` is the gradient of the barycentric coordinate of
    local vertex i, and local face i (opposite vertex i) has area
    ``areas[t, i]`` and outward unit normal ``normals[t, i]``.  The face
    weights ``areas[..., None] * normals`` (|F| n_F) are what the weak
    kernels and the coupling block sum.
    """

    volumes: np.ndarray  # (N,)
    grad_bary: np.ndarray  # (N, 4, 3)
    areas: np.ndarray  # (N, 4)
    normals: np.ndarray  # (N, 4, 3) outward
    diameters: np.ndarray  # (N,)


def _triangle_areas(tri: np.ndarray) -> np.ndarray:
    """Areas of triangles given as (..., 3, 3) vertex arrays."""
    cross = np.cross(tri[..., 1, :] - tri[..., 0, :], tri[..., 2, :] - tri[..., 0, :])
    return 0.5 * np.linalg.norm(cross, axis=-1)


def _solid_geometry(verts: np.ndarray) -> tuple:
    """Volumes, barycentric gradients, outward unit normals -grad/|grad|
    and diameters of positively oriented (N, 4, 3) tets."""
    vol6 = np.linalg.det(verts[:, 1:, :] - verts[:, :1, :])
    if np.any(vol6 <= 0):
        raise MeshError("non-positive tet volume (degenerate or negatively oriented)")
    ones = np.ones((len(verts), 4, 1))
    M = np.concatenate([ones, verts], axis=2)  # rows (1, x, y, z)
    grad = np.linalg.inv(M)[:, 1:4, :].transpose(0, 2, 1)
    pair_i, pair_j = np.triu_indices(4, k=1)
    edge_vec = verts[:, pair_i, :] - verts[:, pair_j, :]
    diameters = np.linalg.norm(edge_vec, axis=2).max(axis=1)
    normals = -grad / np.linalg.norm(grad, axis=2)[:, :, None]
    return vol6 / 6.0, grad, normals, diameters


def tet_geometry(verts) -> TetGeometry:
    """Geometry of free-standing tets with vertices ``verts`` (N, 4, 3);
    raises :class:`MeshError` on a non-positive volume (callers orient
    their tets)."""
    verts = np.asarray(verts, dtype=float)
    volumes, grad, normals, diameters = _solid_geometry(verts)
    areas = _triangle_areas(verts[:, _FACE_VERTICES])
    return TetGeometry(volumes, grad, areas, normals, diameters)


class Mesh:
    """Conforming tetrahedral mesh with shared-face topology.

    Instances are produced by :func:`build_structured_tet_mesh` and are
    immutable by convention; all fields are plain numpy arrays safe to
    share across threads; ``geometry`` is the :class:`TetGeometry` of its tets.
    """

    def __init__(self, domain, n, vertices, vertex_ijk, tets):
        self.domain = domain
        self.n = n
        self.vertices = vertices
        self.vertex_ijk = vertex_ijk
        self.tets = tets
        self._build_faces()
        self._build_geometry()
        self.face_tags = classify_boundary_faces(self, domain)

    # -- topology -----------------------------------------------------

    def _build_faces(self):
        nt = len(self.tets)
        all_faces = self.tets[:, _FACE_VERTICES]  # (nt, 4, 3)
        all_faces = np.sort(all_faces.reshape(-1, 3), axis=1)
        faces, first, inverse = np.unique(
            all_faces, axis=0, return_index=True, return_inverse=True
        )
        # renumber faces by order of first appearance to keep mesh-order
        # determinism rather than lexicographic vertex order
        order = np.argsort(first, kind="stable")
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        self.faces = faces[order]
        self.tet_faces = rank[inverse].reshape(nt, 4)

        counts = np.bincount(self.tet_faces.ravel(), minlength=len(self.faces))
        if counts.max() > 2 or counts.min() < 1:
            raise MeshError("non-manifold face incidence")
        self.face_tet_count = counts

        # the two incident tets per face (second = -1 on the boundary),
        # first = lowest tet index
        nf = len(self.faces)
        face_tets = np.full((nf, 2), -1, dtype=np.int64)
        tet_ids = np.repeat(np.arange(nt), 4)
        flat = self.tet_faces.ravel()
        order = np.argsort(flat, kind="stable")  # per-face groups, tets ascending
        sorted_faces = flat[order]
        sorted_tets = tet_ids[order]
        starts = np.searchsorted(sorted_faces, np.arange(nf))
        face_tets[:, 0] = sorted_tets[starts]
        second = counts == 2
        face_tets[second, 1] = sorted_tets[starts[second] + 1]
        self.face_tets = face_tets

    def _build_geometry(self):
        volumes, grad, outward, diameters = _solid_geometry(self.vertices[self.tets])
        fverts = self.vertices[self.faces]
        self.face_areas = _triangle_areas(fverts)
        self.face_centroids = fverts.mean(axis=1)

        # canonical face normal := outward normal of the first incident tet
        nf = len(self.faces)
        t0 = self.face_tets[:, 0]
        loc0 = np.argmax(self.tet_faces[t0] == np.arange(nf)[:, None], axis=1)
        self.face_normals = outward[t0, loc0]

        dots = np.einsum(
            "tfd,tfd->tf", outward, self.face_normals[self.tet_faces]
        )
        if not np.allclose(np.abs(dots), 1.0, atol=1e-10):
            raise MeshError("inconsistent face orientation")
        self.tet_face_signs = np.where(dots > 0, 1, -1).astype(np.int8)

        # per-tet areas and normals come from the shared face arrays, so
        # the two tets of an interior face carry opposite face weights
        areas = self.face_areas[self.tet_faces]
        signs = self.tet_face_signs[:, :, None].astype(float)
        normals = self.face_normals[self.tet_faces] * signs
        self.geometry = TetGeometry(volumes, grad, areas, normals, diameters)

    # -- convenience --------------------------------------------------

    @property
    def num_tets(self) -> int:
        return len(self.tets)

    @property
    def num_faces(self) -> int:
        return len(self.faces)

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def h(self) -> float:
        """Mesh size: the largest element diameter."""
        return float(self.geometry.diameters.max())

    @property
    def boundary_faces(self) -> np.ndarray:
        return np.flatnonzero(self.face_tet_count == 1)


def _lattice_counts(domain: DomainSpec, n: int) -> np.ndarray:
    lo = np.asarray(domain.lo)
    hi = np.asarray(domain.hi)
    counts = (hi - lo) * n
    rounded = np.rint(counts).astype(np.int64)
    if not np.allclose(counts, rounded, atol=1e-9) or np.any(rounded < 1):
        raise MeshError(
            f"resolution n={n} does not fit the bounding box extents {hi - lo}"
        )
    return rounded


def _box_lattice(domain: DomainSpec, box, n: int) -> tuple:
    """Excluded-box corners in lattice units; errors if off-lattice."""
    lo = np.asarray(domain.lo)
    blo = (np.asarray(box[0]) - lo) * n
    bhi = (np.asarray(box[1]) - lo) * n
    ilo = np.rint(blo).astype(np.int64)
    ihi = np.rint(bhi).astype(np.int64)
    if not (np.allclose(blo, ilo, atol=1e-9) and np.allclose(bhi, ihi, atol=1e-9)):
        raise MeshError(
            f"excluded box {box} is not aligned with the n={n} lattice; "
            "use an even number of cells per unit length"
        )
    return ilo, ihi


def build_structured_tet_mesh(domain: DomainSpec, n: int) -> Mesh:
    """Mesh a box-union domain with 6 tets per lattice cube of edge 1/n.

    Parameters
    ----------
    domain : DomainSpec
    n : int
        Cells per unit length; must place all excluded-box corners on the
        lattice (the half-unit features of the toroidal and cavity domains
        need an even n).

    Returns
    -------
    Mesh
    """
    if n < 1:
        raise MeshError(f"n must be >= 1, got {n}")
    counts = _lattice_counts(domain, n)
    nx, ny, nz = (int(c) for c in counts)
    boxes = [_box_lattice(domain, box, n) for box in domain.excluded]

    # active cells: lattice cells not inside any excluded box
    ii, jj, kk = np.meshgrid(
        np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij"
    )
    active = np.ones((nx, ny, nz), dtype=bool)
    for ilo, ihi in boxes:
        inside = (
            (ii >= ilo[0]) & (ii < ihi[0])
            & (jj >= ilo[1]) & (jj < ihi[1])
            & (kk >= ilo[2]) & (kk < ihi[2])
        )
        active &= ~inside
    cells = np.column_stack([a[active] for a in (ii, jj, kk)])
    if len(cells) == 0:
        raise MeshError("domain contains no cells at this resolution")

    def vid(i, j, k):
        return (i * (ny + 1) + j) * (nz + 1) + k

    # 6 tets per cell (consecutive in mesh order): walk cube edges in each
    # axis permutation order
    tets = np.empty((len(cells) * 6, 4), dtype=np.int64)
    for p, perm in enumerate(_CUBE_PERMUTATIONS):
        steps = np.zeros((4, 3), dtype=np.int64)
        for m, axis in enumerate(perm):
            steps[m + 1] = steps[m]
            steps[m + 1, axis] += 1
        corners = cells[:, None, :] + steps[None, :, :]  # (nc, 4, 3)
        tets[p::6] = vid(corners[..., 0], corners[..., 1], corners[..., 2])

    # fix orientation: odd permutations produce negative volumes
    lo = np.asarray(domain.lo)
    full_ijk = np.stack(
        np.meshgrid(
            np.arange(nx + 1), np.arange(ny + 1), np.arange(nz + 1), indexing="ij"
        ),
        axis=-1,
    ).reshape(-1, 3)
    full_xyz = lo + full_ijk / float(n)
    verts_t = full_xyz[tets]
    vol6 = np.linalg.det(verts_t[:, 1:] - verts_t[:, :1])
    flip = vol6 < 0
    tets[flip, 2], tets[flip, 3] = tets[flip, 3].copy(), tets[flip, 2].copy()

    # drop unused lattice vertices and renumber
    used = np.zeros(len(full_xyz), dtype=bool)
    used[tets.ravel()] = True
    remap = -np.ones(len(full_xyz), dtype=np.int64)
    remap[used] = np.arange(used.sum())
    return Mesh(domain, n, full_xyz[used], full_ijk[used], remap[tets])


def classify_boundary_faces(mesh: Mesh, domain: DomainSpec) -> np.ndarray:
    """Tag every face: -1 interior, 0 exterior boundary, i >= 1 cavity i.

    Classification uses exact integer lattice coordinates; a boundary face
    matching no component surface raises :class:`MeshError`.
    """
    n = mesh.n
    counts = _lattice_counts(domain, n)
    tags = np.full(mesh.num_faces, INTERIOR, dtype=np.int16)
    bfaces = mesh.boundary_faces
    ijk = mesh.vertex_ijk[mesh.faces[bfaces]]  # (nb, 3, 3)

    def on_plane(axis, value):
        return np.all(ijk[:, :, axis] == value, axis=1)

    on_bbox = np.zeros(len(bfaces), dtype=bool)
    for axis in range(3):
        on_bbox |= on_plane(axis, 0)
        on_bbox |= on_plane(axis, counts[axis])

    assigned = np.zeros(len(bfaces), dtype=bool)
    cavity_rank = 0
    for idx, box in enumerate(domain.excluded):
        ilo, ihi = _box_lattice(domain, box, n)
        on_box = np.zeros(len(bfaces), dtype=bool)
        within = np.all(
            (ijk >= ilo[None, None, :]) & (ijk <= ihi[None, None, :]), axis=(1, 2)
        )
        for axis in range(3):
            on_box |= within & (
                on_plane(axis, ilo[axis]) | on_plane(axis, ihi[axis])
            )
        if idx in domain.cavity_indices:
            cavity_rank += 1
            tags[bfaces[on_box & ~assigned]] = cavity_rank
        else:
            tags[bfaces[on_box & ~assigned]] = 0
        assigned |= on_box

    tags[bfaces[on_bbox & ~assigned]] = 0
    assigned |= on_bbox
    if not np.all(assigned):
        raise MeshError(
            f"{np.count_nonzero(~assigned)} boundary faces match no "
            "component surface (mesh/domain mismatch)"
        )
    return tags


def write_vtk(mesh: Mesh, path: str, cell_data: dict | None = None) -> None:
    """Write the mesh (legacy ASCII VTK unstructured grid) with optional
    per-cell scalar/vector fields.

    Vector fields must have shape (num_tets, 3), scalars (num_tets,).
    """
    lines = [
        "# vtk DataFile Version 3.0",
        "divcurl mesh",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {mesh.num_vertices} double",
    ]
    lines += [" ".join(f"{c:.16g}" for c in p) for p in mesh.vertices]
    nt = mesh.num_tets
    lines.append(f"CELLS {nt} {5 * nt}")
    lines += ["4 " + " ".join(str(v) for v in t) for t in mesh.tets]
    lines.append(f"CELL_TYPES {nt}")
    lines += ["10"] * nt
    if cell_data:
        lines.append(f"CELL_DATA {nt}")
        for name, values in cell_data.items():
            arr = np.asarray(values, dtype=float)
            if arr.ndim == 2 and arr.shape == (nt, 3):
                lines.append(f"VECTORS {name} double")
                lines += [" ".join(f"{c:.16g}" for c in v) for v in arr]
            elif arr.shape == (nt,):
                lines.append(f"SCALARS {name} double 1")
                lines.append("LOOKUP_TABLE default")
                lines += [f"{v:.16g}" for v in arr]
            else:
                raise ValueError(f"cell field {name!r} has shape {arr.shape}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
