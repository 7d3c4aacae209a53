"""Degree-of-freedom maps and assembly of the primal-dual saddle system.

Unknowns per mesh entity (lowest-order element):

    block   entity   count   local   meaning
    -----   ------   -----   -----   -------
    lam0    tet      1       yes     scalar multiplier, interior value
    lamb    face     1               scalar multiplier, trace value
    q0      tet      3       yes     vector multiplier, interior value
    qb      face     2               vector multiplier trace, coefficients on
                                     the two unit tangent vectors of the face
    u       tet      3               primal vector field
    s0      tet      1       yes     auxiliary scalar, interior value
    sb      face     1               auxiliary scalar, trace value

A local block (``LOCAL_BLOCKS``) couples only with its own tet and that
tet's faces: the stabilizers join an interior value to the traces on its
four faces, and B joins q0 to sb.  So the free rows and columns of the
local blocks form a block-diagonal matrix, one block per tet: lam0 a
positive 1x1, q0 an SPD 3x3 (a sum of four tangential projectors) and s0
a negative 1x1.

Raw numbering is deterministic: blocks in the order above, tets before
faces, both in mesh order.  The global matrix has the symmetric block
form

    [ S1   B  ]        S1 = face stabilizer on (lam, q)   (PSD)
    [ B^T  -S2]        S2 = face stabilizer on s          (PSD)

where B couples (u, s) into the multiplier test equations through the
weak gradient and weak curl kernels; the (u, u) block is identically
zero.

Constraints are recorded, not eliminated: trace values of q vanish on the
whole boundary, traces of s vanish on the exterior boundary component and
are held at zero on every cavity component during the base solve (a
post-processing step recovers the cavity constants), and one lam0 value
is pinned to fix the mean.

The stabilizer weights are fixed at the paper's rho1 = rho2 = rho3 = 1 and
gamma = -1 (``STABILIZER``): S1 scales each face term by h_T^-1 and S2 by
h_T^-gamma = h_T.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse

from .mesh import Mesh
from .problems import ProblemSpec
from .quadrature import TET_REF_MEASURE, TRI_REF_MEASURE
from .weak_ops import gauss_blocks

__all__ = [
    "DofMap",
    "GlobalSystem",
    "LOCAL_BLOCKS",
    "build_dof_map",
    "assemble_s1",
    "assemble_s2",
    "assemble_Bh",
    "assemble_rhs",
    "assemble_global",
    "STABILIZER",
]

# the weights the stabilizers are built with, as the report header names them
STABILIZER = {"rho1": 1.0, "rho2": 1.0, "rho3": 1.0, "gamma_exp": -1.0}

_BLOCKS = ("lam0", "lamb", "q0", "qb", "u", "s0", "sb")
_PER_ENTITY = {"lam0": 1, "lamb": 1, "q0": 3, "qb": 2, "u": 3, "s0": 1, "sb": 1}
_TET_BLOCKS = ("lam0", "q0", "u", "s0")
LOCAL_BLOCKS = ("lam0", "q0", "s0")


@dataclass
class DofMap:
    """Raw numbering, face tangent bases, and constraint records.

    Who reads each field: every stage numbers by ``offsets`` and
    ``total``; S1 and B read ``tangents``; the reduction, ``expand`` and
    the condensation read ``free``, the raw DoFs left after dropping the
    boundary qb and sb and the pinned lam0; the condensation reads
    ``num_tets`` and ``num_faces``; the solver reads ``cavity_faces``
    (the cavity fit) and ``pinned_lam0`` (a diagnostic).
    """

    num_tets: int
    num_faces: int
    offsets: dict
    total: int
    tangents: np.ndarray  # (nf, 2, 3) unit edge directions from vertex 0
    free: np.ndarray  # (num_free,) raw indices, ascending
    cavity_faces: dict  # component id -> face index array
    pinned_lam0: int

    @property
    def num_free(self) -> int:
        return len(self.free)

    def block(self, name: str) -> slice:
        start, stop = self.offsets[name]
        return slice(start, stop)

    def index(self, name: str, entity, comp=0):
        """Raw index of DoF ``comp`` of ``entity`` in block ``name``."""
        start, _ = self.offsets[name]
        return start + _PER_ENTITY[name] * np.asarray(entity) + comp

    def per_dof(self, tet_values, face_values) -> np.ndarray:
        """Spread per-tet and per-face values over the raw DoF numbering."""
        out = np.empty(self.total, dtype=np.result_type(tet_values, face_values))
        for name, (start, stop) in self.offsets.items():
            source = tet_values if name in _TET_BLOCKS else face_values
            out[start:stop] = np.repeat(source, _PER_ENTITY[name])
        return out


def build_dof_map(mesh: Mesh) -> DofMap:
    """Number all degrees of freedom and record the boundary constraints."""
    nt, nf = mesh.num_tets, mesh.num_faces
    offsets = {}
    pos = 0
    for name in _BLOCKS:
        count = _PER_ENTITY[name] * (nt if name in _TET_BLOCKS else nf)
        offsets[name] = (pos, pos + count)
        pos += count
    total = pos

    fverts = mesh.vertices[mesh.faces]  # faces store sorted vertex triples
    t1 = fverts[:, 1] - fverts[:, 0]
    t2 = fverts[:, 2] - fverts[:, 0]
    t1 /= np.linalg.norm(t1, axis=1)[:, None]
    t2 /= np.linalg.norm(t2, axis=1)[:, None]
    tangents = np.stack([t1, t2], axis=1)

    fixed = np.zeros(total, dtype=bool)
    bnd = mesh.face_tags >= 0
    qb0, _ = offsets["qb"]
    for j in (0, 1):
        fixed[qb0 + 2 * np.flatnonzero(bnd) + j] = True
    sb0, _ = offsets["sb"]
    fixed[sb0 + np.flatnonzero(bnd)] = True

    cavity_faces = {}
    for comp in range(1, mesh.num_boundary_components):
        cavity_faces[comp] = np.flatnonzero(mesh.face_tags == comp)

    pinned = offsets["lam0"][0]
    fixed[pinned] = True

    free = np.flatnonzero(~fixed)
    return DofMap(nt, nf, offsets, total, tangents, free, cavity_faces, pinned)


def _csr_from_triplets(blocks, n) -> sparse.csr_matrix:
    """Duplicate-summing COO -> CSR of broadcastable (rows, cols, vals)
    blocks.

    The summation order of duplicates is left to scipy, which is safe
    because no (row, col) of S1, S2 or B gets more than two triplets:
    only face-face entries collect from two tets, one each.  A sum of
    two floats is commutative in IEEE arithmetic (a + b == b + a
    exactly), so every entry is the same whatever the order, and
    mirrored entries, which have the same two addends, keep symmetry
    exact.  ``tests/test_assembly.py`` checks the two-triplet bound.

    Each block is broadcast straight into its slice of one preallocated
    buffer per array, with int32 indices where ``n`` allows.
    """
    shapes = [np.broadcast_shapes(*(np.shape(a) for a in block)) for block in blocks]
    bounds = np.cumsum([0] + [np.prod(shape, dtype=int) for shape in shapes])
    index = np.int32 if n <= np.iinfo(np.int32).max else np.int64
    buffers = (np.empty(bounds[-1], index), np.empty(bounds[-1], index),
               np.empty(bounds[-1]))
    for block, shape, start, stop in zip(blocks, shapes, bounds, bounds[1:]):
        for buffer, part in zip(buffers, block):
            np.copyto(buffer[start:stop].reshape(shape), part)
    rows, cols, vals = buffers
    return sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


def _jump_blocks(cell, face, w):
    """Triplets of sum_F w_F (x0 - xb_F)(y0 - yb_F) for cell DoFs (nt,),
    their face DoFs (nt, 4) and weights w (nt, 4)."""
    return [
        (cell, cell, w.sum(axis=1)),
        (cell[:, None], face, -w),
        (face, cell[:, None], -w),
        (face, face, w),
    ]


def assemble_s1(mesh: Mesh, dofmap: DofMap) -> sparse.csr_matrix:
    """Face stabilizer on the multiplier block (lam, q); symmetric PSD.

    Per element: h_T^-1 [ |F| (lam0-lamb)(phi0-phib)
                        + |F| ((q0-qb) x n).((psi0-psib) x n) ]
    summed over the 4 faces (rho1 = rho2 = 1); the cross product with the
    unit normal acts as the tangential projector, so only tangential parts
    of q0 are penalized.
    """
    geom = mesh.geometry
    nt = mesh.num_tets
    tf = mesh.tet_faces
    area = geom.areas  # (nt, 4)
    hinv = 1.0 / geom.diameters  # (nt,)
    tets = np.arange(nt)

    lam0 = dofmap.index("lam0", tets)  # (nt,)
    lamb = dofmap.index("lamb", tf)  # (nt, 4)
    w = hinv[:, None] * area  # (nt, 4)
    blocks = _jump_blocks(lam0, lamb, w)

    # q part: projector P = I - n n^T per tet face (sign-independent),
    # tangent basis T (3x2) per face
    n = geom.normals
    P = np.eye(3) - n[:, :, :, None] * n[:, :, None, :]  # (nt, 4, 3, 3)
    T = dofmap.tangents.transpose(0, 2, 1)  # (nf, 3, 2)
    G = np.einsum("fdi,fdj->fij", T, T)  # (nf, 2, 2) Gram

    q0 = dofmap.index("q0", tets[:, None], np.arange(3)[None, :])  # (nt, 3)
    qb = dofmap.index(
        "qb", tf[:, :, None], np.arange(2)[None, None, :]
    )  # (nt, 4, 2)

    pq0 = np.einsum("tf,tfcd->tcd", w, P)  # (nt, 3, 3)
    cross = -w[:, :, None, None] * T[tf]  # (nt, 4, 3, 2)
    gram = w[:, :, None, None] * G[tf]  # (nt, 4, 2, 2)
    blocks += [
        (q0[:, :, None], q0[:, None, :], pq0),
        (q0[:, None, :, None], qb[:, :, None, :], cross),
        (qb[:, :, None, :], q0[:, None, :, None], cross),
        (qb[:, :, :, None], qb[:, :, None, :], gram),
    ]
    return _csr_from_triplets(blocks, dofmap.total)


def assemble_s2(mesh: Mesh, dofmap: DofMap) -> sparse.csr_matrix:
    """Face stabilizer on the s block; symmetric PSD.

    Per element: h_T |F| (s0-sb)(r0-rb) summed over the 4 faces, the
    paper's rho3 h_T^-gamma |F| with rho3 = 1 and gamma = -1.  gamma = -1
    keeps the auxiliary-field error decaying at first order on smooth
    benchmarks; larger exponents over-damp it.
    """
    s0 = dofmap.index("s0", np.arange(mesh.num_tets))
    sb = dofmap.index("sb", mesh.tet_faces)
    w = mesh.geometry.diameters[:, None] * mesh.geometry.areas
    return _csr_from_triplets(_jump_blocks(s0, sb, w), dofmap.total)


def assemble_Bh(mesh: Mesh, eps: np.ndarray, dofmap: DofMap) -> sparse.csr_matrix:
    """Coupling block B: rows on (lam, q), columns on (u, s).

    At lowest order the weak kernels reduce to per-face surface terms:

        (u, eps grad_w phi)_T   = sum_F |F| phib_F  u . (eps n_F)
        (u, curl_w psi)_T       = -sum_F |F| u . (psib_F x n_F)
        (psi0, eps grad_w s)_T  = sum_F |F| sb_F  psi0 . (eps n_F)

    with n_F the per-tet outward normal, so interior-face contributions
    cancel between the two incident tets; each entry is |T| times a
    :mod:`divcurl.weak_ops` kernel of a unit face trace.
    """
    nt = mesh.num_tets
    tf = mesh.tet_faces
    area = mesh.geometry.areas
    n_out = mesh.geometry.normals  # (nt, 4, 3)
    eps_n = np.einsum("cd,tfd->tfc", eps, n_out)  # (nt, 4, 3)
    tets = np.arange(nt)

    lamb = dofmap.index("lamb", tf)  # (nt, 4)
    u = dofmap.index("u", tets[:, None], np.arange(3)[None, :])  # (nt, 3)
    q0 = dofmap.index("q0", tets[:, None], np.arange(3)[None, :])
    qb = dofmap.index("qb", tf[:, :, None], np.arange(2)[None, None, :])
    sb = dofmap.index("sb", tf)

    v1 = area[:, :, None] * eps_n  # (nt, 4, 3)
    T = dofmap.tangents[tf]  # (nt, 4, 2, 3)
    txn = np.cross(T, n_out[:, :, None, :])  # (nt, 4, 2, 3)
    v2 = -area[:, :, None, None] * txn
    blocks = [
        (lamb[:, :, None], u[:, None, :], v1),
        (qb[:, :, :, None], u[:, None, None, :], v2),
        (q0[:, None, :], sb[:, :, None], v1),
    ]
    return _csr_from_triplets(blocks, dofmap.total)


def assemble_rhs(
    problem: ProblemSpec, mesh: Mesh, dofmap: DofMap, quad_degree: int = 4
) -> np.ndarray:
    """Load vector: g against psi0, -f against phi0, phi1 against phib on
    the boundary, integrated one block of simplices at a time."""
    F = np.zeros(dofmap.total)
    lam0, lamb = F[dofmap.block("lam0")], F[dofmap.block("lamb")]
    q0 = F[dofmap.block("q0")].reshape(-1, 3)

    scale = mesh.geometry.volumes / TET_REF_MEASURE
    for tets, points, wts in gauss_blocks(mesh.vertices, mesh.tets, quad_degree):
        fvals = problem.f(points).reshape(-1, len(wts))
        lam0[tets] = -scale[tets] * (fvals @ wts)
        gvals = problem.g(points).reshape(-1, len(wts), 3)
        q0[tets] = scale[tets, None] * np.einsum("k,tkd->td", wts, gvals)

    bfaces = mesh.boundary_faces
    tris, fscale = mesh.faces[bfaces], mesh.face_areas[bfaces] / TRI_REF_MEASURE
    for block, points, wts in gauss_blocks(mesh.vertices, tris, quad_degree):
        faces = bfaces[block]
        # canonical normal of a boundary face is the domain outward normal
        norms = np.repeat(mesh.face_normals[faces], len(wts), axis=0)
        p1 = problem.phi1(points, norms).reshape(-1, len(wts))
        lamb[faces] = fscale[block] * (p1 @ wts)
    return F


@dataclass
class GlobalSystem:
    """Assembled saddle-point system over the raw numbering.

    ``A`` keeps rows/columns for constrained DoFs; ``reduced`` hands the
    solver the free subsystem (all constraint values are zero, so no
    lifting is needed).  The stabilizers are not kept apart: S1 is the
    diagonal block of ``A`` on the multiplier DoFs, raw indices
    ``[0, offsets["u"][0])``, and -S2 its block on the s DoFs,
    ``[offsets["s0"][0], total)``; the semi-norms of :mod:`divcurl.analysis`
    read them there.
    """

    A: sparse.csr_matrix
    F: np.ndarray
    dofmap: DofMap
    mesh: Mesh

    def reduced(self):
        """Free-DoF system (A_ff, F_f)."""
        free = self.dofmap.free
        return self.A[free][:, free], self.F[free]

    def expand(self, x_free: np.ndarray) -> np.ndarray:
        x = np.zeros(self.dofmap.total)
        x[self.dofmap.free] = x_free
        return x


def assemble_global(
    problem: ProblemSpec,
    mesh: Mesh,
    quad_degree: int = 4,
) -> GlobalSystem:
    """Assemble the full system [[S1, B], [B^T, -S2]] and load vector.

    The blocks are built and added one at a time, S1 first since its
    triplets are the largest scratch, and each is freed once added.  Their
    sparsity patterns are disjoint and a sum drops explicit zeros, so the
    order of the sum does not change a bit of ``A``.
    """
    dofmap = build_dof_map(mesh)
    A = assemble_s1(mesh, dofmap)
    B = assemble_Bh(mesh, problem.eps, dofmap)
    A = A + B
    A = A + B.T
    del B
    A = A - assemble_s2(mesh, dofmap)
    F = assemble_rhs(problem, mesh, dofmap, quad_degree)
    return GlobalSystem(A, F, dofmap, mesh)
