"""Structured tetrahedral meshes of axis-aligned box-union domains.

A domain is a bounding box minus a list of axis-aligned excluded boxes.
The mesh is built by slicing the box into cubes of edge 1/n and splitting
every cube into the same 6 tetrahedra around its main diagonal (the Kuhn
or Freudenthal split), which yields a conforming, shape-regular partition
with globally consistent face identities.

Conventions
-----------
* The tet of axis order pi walks the cube edges along pi[0], pi[1],
  pi[2]; its volume has the sign of pi, so the odd axis orders swap their
  last two corners and every tet is positively oriented.
* Tet local face i is the face opposite local vertex i.
* A face is identified by its sorted vertex triple.  ``face_tets[:, 0]``
  is the tet where the face first appears in mesh order, the lowest-index
  incident tet, and the stored normal is its outward normal; the other
  incident tet's outward normal is its negative.
* Boundary tags: -1 interior, 0 the exterior component, i >= 1 the i-th
  cavity surface.  The components and the first Betti number are read
  off the mesh's own boundary surface, never declared.
"""

from dataclasses import dataclass
from numbers import Integral

import numpy as np
import scipy.sparse as sparse
from scipy.sparse.csgraph import connected_components

__all__ = [
    "DomainSpec",
    "Mesh",
    "MeshError",
    "TetGeometry",
    "build_domain",
    "build_structured_tet_mesh",
    "tet_geometry",
    "write_vtk",
    "INTERIOR",
]

INTERIOR = -1

# The 6 tetrahedra of the cube split share the main diagonal; walking the
# cube edges in each axis order gives equal volumes 1/6 and face
# triangulations that match between neighbouring cubes.  Corner offsets
# per axis order (0,1,2), (0,2,1), (1,0,2), (1,2,0), (2,0,1), (2,1,0); the
# odd orders have their last two corners swapped to orient them positively.
_KUHN_CORNERS = np.array([
    [[0, 0, 0], [1, 0, 0], [1, 1, 0], [1, 1, 1]],
    [[0, 0, 0], [1, 0, 0], [1, 1, 1], [1, 0, 1]],
    [[0, 0, 0], [0, 1, 0], [1, 1, 1], [1, 1, 0]],
    [[0, 0, 0], [0, 1, 0], [0, 1, 1], [1, 1, 1]],
    [[0, 0, 0], [0, 0, 1], [1, 0, 1], [1, 1, 1]],
    [[0, 0, 0], [0, 0, 1], [1, 1, 1], [0, 1, 1]],
])

# local face i = vertices of the tet omitting local vertex i
_FACE_VERTICES = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])
# the three edges of a triangle, as local vertex pairs
_EDGE_ENDS = np.array([[0, 1], [0, 2], [1, 2]])


class MeshError(Exception):
    """Invalid mesh construction input or inconsistent topology."""


@dataclass(frozen=True)
class DomainSpec:
    """Axis-aligned box-union computational domain.

    Only :func:`build_structured_tet_mesh` reads the fields.

    Attributes
    ----------
    lo, hi : tuple of float
        Bounding box corners.
    excluded : tuple of (lo, hi) pairs of 3-vectors, lo < hi
        Boxes removed from the bounding box; :func:`build_structured_tet_mesh`
        raises :class:`MeshError` on any other.  Cavities and tunnels are
        not declared: the mesh finds them (``Mesh.face_tags``,
        ``Mesh.betti1``).
    """

    lo: tuple
    hi: tuple
    excluded: tuple = ()


_UNIT_CUBE = DomainSpec((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
# square annulus extruded in z; the hole runs through the full height
_TOROID_1HOLE = DomainSpec(
    (-1.0, -1.0, 0.0), (0.5, 0.5, 0.5),
    excluded=(((-0.5, -0.5, 0.0), (0.0, 0.0, 0.5)),),
)
_EXAMPLE_DOMAINS = {
    1: _UNIT_CUBE,
    2: _UNIT_CUBE,
    # (-1,1)^2 x (0,1) minus the quadrant x>=0, y<=0
    3: DomainSpec(
        (-1.0, -1.0, 0.0), (1.0, 1.0, 1.0),
        excluded=(((0.0, -1.0, 0.0), (1.0, 0.0, 1.0)),),
    ),
    4: DomainSpec(
        (-1.5, -1.5, -1.5), (0.5, 0.5, 0.5),
        excluded=(((-1.0, -1.0, -1.0), (0.0, 0.0, 0.0)),),
    ),
    5: _TOROID_1HOLE,
    6: DomainSpec(
        (-1.0, -1.0, 0.0), (1.5, 1.5, 0.5),
        excluded=(
            ((-0.5, -0.5, 0.0), (0.0, 0.0, 0.5)),
            ((0.5, -0.5, 0.0), (1.0, 0.0, 0.5)),
        ),
    ),
    7: _TOROID_1HOLE,
}


def _numeric(value, kind):
    """``isinstance(value, kind)``, false for a bool: ``bool`` is an
    ``Integral`` and a ``Real``, but not a numeric setting."""
    return isinstance(value, kind) and not isinstance(value, bool)


def build_domain(example_id: int) -> DomainSpec:
    """Return the computational domain of benchmark problem 1..7.

    The specs are frozen and shared: every call for one problem returns
    the same object, and problems 1, 2 and 5, 7 share theirs.  An id that
    is a bool or not an integer raises :class:`MeshError`, as one out of
    range does.
    """
    if not _numeric(example_id, Integral) or example_id not in _EXAMPLE_DOMAINS:
        raise MeshError(f"unknown example id {example_id!r}, expected 1..7")
    return _EXAMPLE_DOMAINS[example_id]


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
    ``face_tags``, ``num_boundary_components`` and ``betti1`` are read off
    the boundary surface of the tets themselves.
    """

    def __init__(self, vertices, vertex_ijk, tets):
        self.vertices = vertices
        self.vertex_ijk = vertex_ijk
        self.tets = tets
        first = self._build_faces()
        self._build_geometry(first)
        self._build_boundary_topology()

    # -- topology -----------------------------------------------------

    def _build_faces(self) -> np.ndarray:
        """Number the faces by first appearance and return, per face, the
        slot 4 t + i of its first appearance as local face i of tet t."""
        nt = len(self.tets)
        all_faces = self.tets[:, _FACE_VERTICES]  # (nt, 4, 3)
        all_faces = np.sort(all_faces.reshape(-1, 3), axis=1)
        # one integer key per sorted triple; its order is lexicographic,
        # and ravel_multi_index raises rather than overflow int64
        key = np.ravel_multi_index(all_faces.T, (len(self.vertices),) * 3)
        _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
        # renumber faces by order of first appearance to keep mesh-order
        # determinism rather than lexicographic vertex order
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        first = first[order]
        self.faces = all_faces[first]
        self.tet_faces = rank[inverse].reshape(nt, 4)

        counts = np.bincount(self.tet_faces.ravel(), minlength=len(self.faces))
        if counts.max() > 2 or counts.min() < 1:
            raise MeshError("non-manifold face incidence")
        self.face_tet_count = counts

        # the two incident tets per face: the first appearance, which is
        # the lowest tet index, then the other one (-1 on the boundary)
        last = np.zeros(len(self.faces), dtype=np.int64)
        np.maximum.at(last, self.tet_faces.ravel(), np.arange(4 * nt) // 4)
        self.face_tets = np.column_stack([first // 4, np.where(counts == 2, last, -1)])
        return first

    def _build_geometry(self, first: np.ndarray):
        volumes, grad, outward, diameters = _solid_geometry(self.vertices[self.tets])
        self.face_areas = _triangle_areas(self.vertices[self.faces])

        # canonical face normal := outward normal of the first incident tet
        self.face_normals = outward.reshape(-1, 3)[first]

        # per-tet areas and normals come from the shared face arrays, so
        # the two tets of an interior face carry opposite face weights:
        # sign +1 in the face's first incident tet, -1 in the other
        areas = self.face_areas[self.tet_faces]
        mine = self.face_tets[self.tet_faces, 0] == np.arange(len(self.tets))[:, None]
        signs = np.where(mine, 1.0, -1.0)[:, :, None]
        normals = self.face_normals[self.tet_faces] * signs
        self.geometry = TetGeometry(volumes, grad, areas, normals, diameters)

    def _build_boundary_topology(self):
        """Tag the boundary components and count them and the tunnels.

        Boundary faces are joined across shared edges.  The component
        with a face on the lowest lattice x plane is the exterior (tag 0);
        the cavities follow as 1, 2, ... in order of their first face.  On
        one connected solid bounded by closed surfaces, chi(Omega) =
        chi(boundary) / 2 = b0 - b1 + b2 with b0 = 1 and b2 = components
        - 1, which gives b1.  A pinched boundary (an edge outside exactly
        two boundary faces, or sheets meeting at a vertex) breaks that
        formula and a split solid leaves a lam0 null mode that no pin
        fixes, so both raise :class:`MeshError`.
        """
        bfaces = self.boundary_faces
        nb = len(bfaces)
        tri = self.faces[bfaces]  # sorted vertex triples
        ends = tri[:, _EDGE_ENDS]  # (nb, 3, 2), lower vertex first
        _, edge = np.unique(
            ends[..., 0] * self.num_vertices + ends[..., 1], return_inverse=True
        )
        edge = edge.ravel()
        ne = edge.max() + 1
        if np.any(np.bincount(edge) != 2):
            raise MeshError(
                "pinched boundary: an edge does not lie in exactly two boundary faces"
            )
        # the face corners at one vertex, joined across the edges they share,
        # form one ring per sheet of the surface through that vertex
        slots = np.argsort(edge, kind="stable").reshape(ne, 2)  # 3 * face + edge
        corners = 3 * (slots // 3)[:, :, None] + _EDGE_ENDS[slots % 3]  # (ne, 2, 2)
        rings = sparse.coo_matrix(
            (np.ones(2 * ne), (corners[:, 0].ravel(), corners[:, 1].ravel())),
            shape=(3 * nb, 3 * nb),
        )
        num_boundary_vertices = len(np.unique(tri))
        if connected_components(rings, directed=False)[0] != num_boundary_vertices:
            raise MeshError("pinched boundary: surface sheets meet at a vertex")

        nt = self.num_tets
        inner = self.face_tets[self.face_tet_count == 2]
        adjacency = sparse.coo_matrix(
            (np.ones(len(inner)), (inner[:, 0], inner[:, 1])), shape=(nt, nt)
        )
        if connected_components(adjacency, directed=False)[0] != 1:
            raise MeshError("the tets do not form one connected piece")

        faces_edges = sparse.coo_matrix(
            (np.ones(3 * nb), (np.repeat(np.arange(nb), 3), nb + edge)),
            shape=(nb + ne, nb + ne),
        )
        ncomp, labels = connected_components(faces_edges, directed=False)
        labels = labels[:nb]
        first = np.unique(labels, return_index=True)[1]  # first face per component
        xlow = np.all(self.vertex_ijk[tri, 0] == self.vertex_ijk[:, 0].min(), axis=1)
        first[labels[np.argmax(xlow)]] = -1  # the exterior comes first
        self.face_tags = np.full(self.num_faces, INTERIOR, dtype=np.int16)
        self.face_tags[bfaces] = np.argsort(np.argsort(first))[labels]
        self.num_boundary_components = int(ncomp)
        self.betti1 = int(ncomp - (num_boundary_vertices - ne + nb) // 2)

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


def _lattice_index(points, domain: DomainSpec, n: int):
    """Lattice indices of ``points`` at n cells per unit length, counted
    from ``domain.lo``; None if any point is off the lattice."""
    scaled = (np.asarray(points) - np.asarray(domain.lo)) * n
    index = np.rint(scaled).astype(np.int64)
    return index if np.allclose(scaled, index, rtol=0.0, atol=1e-9) else None


def build_structured_tet_mesh(domain: DomainSpec, n: int) -> Mesh:
    """Mesh a box-union domain with 6 tets per lattice cube of edge 1/n.

    Parameters
    ----------
    domain : DomainSpec
    n : int
        Cells per unit length; must place all excluded-box corners on the
        lattice (the half-unit features of the toroidal and cavity domains
        need an even n).  A bool or a non-integer raises
        :class:`MeshError`, as ``n < 1`` does.

    Returns
    -------
    Mesh
    """
    if not _numeric(n, Integral) or n < 1:
        raise MeshError(f"n must be an integer >= 1, got {n!r}")
    counts = _lattice_index(domain.hi, domain, n)
    if counts is None or np.any(counts < 1):
        extents = np.asarray(domain.hi) - np.asarray(domain.lo)
        raise MeshError(
            f"resolution n={n} does not fit the bounding box extents {extents}"
        )

    # active cells: the lattice cells outside every excluded box; a box
    # reaching past the bounding box is clipped to it
    active = np.ones(counts, dtype=bool)
    for box in domain.excluded:
        try:
            lo, hi = np.asarray(box, dtype=float)
            valid = lo.shape == (3,) and np.all(lo < hi)  # NaN fails too
        except (TypeError, ValueError):  # ragged, not numbers, or not a pair
            valid = False
        if not valid:
            raise MeshError(f"excluded box {box} is not a pair of 3-vectors lo < hi")
        ends = _lattice_index(box, domain, n)
        if ends is None:
            raise MeshError(
                f"excluded box {box} is not aligned with the n={n} lattice; "
                "use an even number of cells per unit length"
            )
        active[tuple(map(slice, *np.clip(ends, 0, counts)))] = False
    cells = np.argwhere(active)
    if len(cells) == 0:
        raise MeshError("domain contains no cells at this resolution")

    # 6 tets per cell (consecutive in mesh order); number the lattice
    # vertices they use in lattice order
    shape = tuple(counts + 1)
    corners = cells[:, None, None, :] + _KUHN_CORNERS  # (nc, 6, 4, 3)
    lattice_ids = np.ravel_multi_index(tuple(np.moveaxis(corners, -1, 0)), shape)
    used, tets = np.unique(lattice_ids.ravel(), return_inverse=True)
    ijk = np.column_stack(np.unravel_index(used, shape))
    return Mesh(np.asarray(domain.lo) + ijk / float(n), ijk, tets.reshape(-1, 4))


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
