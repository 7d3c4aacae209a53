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

import math
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
    "build_structured_tet_mesh",
    "tet_geometry",
    "write_vtk",
    "INTERIOR",
]

INTERIOR = -1
_INDEX_MAX = 2**63 - 1  # vertex and lattice numbers are int64

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
        Bounding box corners: finite 3-vectors, lo < hi.
    excluded : tuple of (lo, hi) pairs of finite 3-vectors, lo < hi
        Boxes removed from the bounding box.  On any other box, bounding
        or excluded, :func:`build_structured_tet_mesh` raises
        :class:`MeshError`.  Cavities and tunnels are not declared: the
        mesh finds them (``Mesh.face_tags``, ``Mesh.betti1``).
    """

    lo: tuple
    hi: tuple
    excluded: tuple = ()


def _numeric(value, kind):
    """``isinstance(value, kind)``, false for a bool: ``bool`` is an
    ``Integral`` and a ``Real``, but not a numeric setting."""
    return isinstance(value, kind) and not isinstance(value, bool)


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
        nv, nt = len(self.vertices), len(self.tets)
        # one int64 key per sorted triple, lexicographic in its order
        if nv**3 > _INDEX_MAX:
            raise MeshError(f"{nv} vertices: the face key numbers at most 2**21 - 1")
        all_faces = self.tets[:, _FACE_VERTICES]  # (nt, 4, 3)
        all_faces = np.sort(all_faces.reshape(-1, 3), axis=1)
        key = np.ravel_multi_index(all_faces.T, (nv,) * 3)
        _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
        # renumber faces by order of first appearance to keep mesh-order
        # determinism rather than lexicographic vertex order
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        first = first[order]
        self.faces = all_faces[first]
        self.tet_faces = rank[inverse].reshape(nt, 4)

        if np.bincount(self.tet_faces.ravel()).max() > 2:
            raise MeshError("non-manifold face incidence")

        # the two incident tets per face: the first appearance, which is
        # the lowest tet index, then the other one (-1 on the boundary)
        last = np.zeros(len(self.faces), dtype=np.int64)
        np.maximum.at(last, self.tet_faces.ravel(), np.arange(4 * nt) // 4)
        lowest = first // 4
        self.face_tets = np.column_stack([lowest, np.where(last > lowest, last, -1)])
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
        inner = self.face_tets[self.face_tets[:, 1] >= 0]
        adjacency = sparse.coo_matrix(
            (np.ones(len(inner)), (inner[:, 0], inner[:, 1])), shape=(nt, nt)
        )
        if connected_components(adjacency, directed=False)[0] != 1:
            raise MeshError("the tets do not form one connected piece")

        # the two boundary faces of each edge join the surface components
        pairs = slots // 3
        neighbours = sparse.coo_matrix(
            (np.ones(ne), (pairs[:, 0], pairs[:, 1])), shape=(nb, nb)
        )
        ncomp, labels = connected_components(neighbours, directed=False)
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
        return np.flatnonzero(self.face_tets[:, 1] < 0)


def _box(corners, name: str) -> np.ndarray:
    """The (2, 3) float corners lo, hi: finite 3-vectors, lo < hi, or MeshError."""
    try:
        box = np.asarray(corners, dtype=float)
        if box.shape == (2, 3) and np.isfinite(box).all() and all(box[0] < box[1]):
            return box
    except (TypeError, ValueError):  # ragged, not numbers, or not a pair
        pass
    raise MeshError(f"{name} {corners} is not a pair of 3-vectors lo < hi")


def _lattice_index(points, lo: np.ndarray, n: int):
    """Lattice indices of ``points`` at n cells per unit length, counted
    from ``lo``, as whole floats; None if any point is off the lattice."""
    scaled = (points - lo) * n
    index = np.rint(scaled)
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
        :class:`MeshError`, as ``n < 1`` does, and so does a lattice of
        more vertices than an int64 numbers or a mesh of 2**21 or more.

    Returns
    -------
    Mesh
    """
    if not _numeric(n, Integral) or n < 1:
        raise MeshError(f"n must be an integer >= 1, got {n!r}")
    lo, hi = _box((domain.lo, domain.hi), "bounding box")
    extents = hi - lo
    # count the lattice vertices in Python integers before any cast
    if np.any(extents >= _INDEX_MAX / n) or math.prod(
        round(e * n) + 1 for e in extents.tolist()
    ) > _INDEX_MAX:
        raise MeshError(f"the n={n} lattice has more than 2**63 - 1 vertices")
    counts = _lattice_index(hi, lo, n)
    if counts is None or np.any(counts < 1):
        raise MeshError(
            f"resolution n={n} does not fit the bounding box extents {extents}"
        )
    counts = counts.astype(np.int64)

    # active cells: the lattice cells outside every excluded box; a box
    # reaching past the bounding box is clipped to it
    active = np.ones(counts, dtype=bool)
    for box in domain.excluded:
        ends = _lattice_index(_box(box, "excluded box"), lo, n)
        if ends is None:
            raise MeshError(
                f"excluded box {box} is not aligned with the n={n} lattice; "
                "use an even number of cells per unit length"
            )
        active[tuple(map(slice, *np.clip(ends, 0, counts).astype(np.int64)))] = False
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
    return Mesh(lo + ijk / float(n), ijk, tets.reshape(-1, 4))


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
