"""Invariant checks shared by the test modules.

Each function measures properties of the discretization or of a solver
and returns their defects; callers compare each with their own tolerance.
Only here do tests read a solver's internals.  The assembly functions are
looked up on :mod:`divcurl.assembly` at call time, so a block replaced
there is the block that gets checked; the weak kernels are read off the
coupling block of ``assemble_Bh``.
"""

import itertools

import numpy as np
import scipy.sparse as sparse
from scipy.sparse.csgraph import connected_components

from divcurl import assembly, problems, solver
from divcurl.analysis import error_u, triple_norm_dual, triple_norm_s
from divcurl.assembly import assemble_global, build_dof_map
from divcurl.condense import Condensed, _ruiz_scale
from divcurl.mesh import Mesh, build_structured_tet_mesh
from divcurl.quadrature import gauss_points

__all__ = [
    "mesh_at",
    "one_tet",
    "random_tets",
    "jittered_mesh",
    "simplex",
    "coupled_kernels",
    "system_at",
    "constant_problem",
    "commutativity_defect",
    "kernel_identity_defect",
    "patch_test_defects",
    "system_defects",
    "lattice_order_defects",
    "frontal_defects",
    "condensed_defects",
    "problem_variants",
    "oracle_points",
    "load_oracle_defect",
]


def _relative_defect(got: np.ndarray, want: np.ndarray) -> float:
    """Largest row-wise max|got - want| / max(1, max|want|)."""
    scale = np.maximum(np.abs(want).max(axis=1), 1.0)
    return float((np.abs(got - want).max(axis=1) / scale).max())


# a full coefficient, so that the gradient checks read every entry of eps
_EPS = np.array([[3.0, 0.5, 0.0], [0.5, 2.0, 0.2], [0.0, 0.2, 1.0]])


def simplex(mesh: Mesh) -> tuple:
    """Volumes (nt,) and barycentric gradients grad(zeta_i) (nt, 4, 3) of
    the mesh's tets, from the inverse of the rows (1, x, y, z) of their
    vertices; the mesh's own geometry is not read."""
    M = np.concatenate([np.ones((mesh.num_tets, 4, 1)), mesh.vertices[mesh.tets]], axis=2)
    return np.linalg.det(M) / 6.0, np.linalg.inv(M)[:, 1:, :].transpose(0, 2, 1)


def coupled_kernels(mesh: Mesh, eps, v: np.ndarray, psi: np.ndarray) -> tuple:
    """The weak kernels read off the coupling block B per tet, each
    (k, nt, 3): eps grad_w of the face values ``v`` (k, nf) as lamb traces,
    (B^T x)[u_T] / |T|; curl_w of the tangential parts of the face vectors
    ``psi`` (k, nf, 3) as qb traces, the same; and eps grad_w of ``v`` as
    sb traces, (B x)[q0_T] / |T|.  The qb coefficients of psi on the
    face's ``dofmap.tangents`` come from their 2x2 Gram solve."""
    dm = build_dof_map(mesh)
    B = assembly.assemble_Bh(mesh, eps, dm)
    T = dm.tangents  # (nf, 2, 3)
    gram = np.einsum("fid,fjd->fij", T, T)
    coeffs = np.linalg.solve(gram, np.einsum("fid,kfd->kfi", T, psi)[..., None])
    k = len(v)
    x, y = np.zeros((dm.total, 2 * k)), np.zeros((dm.total, k))
    x[dm.block("lamb"), :k] = v.T
    x[dm.block("qb"), k:] = coeffs.reshape(k, -1).T
    y[dm.block("sb")] = v.T
    volumes = simplex(mesh)[0]

    def per_tet(z, block):
        return z[dm.block(block)].T.reshape(-1, mesh.num_tets, 3) / volumes[:, None]

    up = B.T @ x
    return per_tet(up[:, :k], "u"), per_tet(up[:, k:], "u"), per_tet(B @ y, "q0")


def commutativity_defect(meshes, rng: np.random.Generator, fields: int) -> float:
    """Worst relative defect of the commuting-projection property for
    ``fields`` random affine v and psi on each of ``meshes``, with the
    kernels read off B (:func:`coupled_kernels`) and a full eps.

    The weak gradient of the face averages of v is grad v, in both of B's
    gradient blocks, and the weak curl of the tangential face averages of
    psi is curl psi.  The face average of an affine field is its value at
    the face centroid.
    """
    worst = 0.0
    for mesh in meshes:
        cent = mesh.vertices[mesh.faces].mean(axis=1)  # (nf, 3)
        a, b = rng.standard_normal(fields), rng.standard_normal((fields, 3))
        C, d = rng.standard_normal((fields, 3, 3)), rng.standard_normal((fields, 3))
        curl = (C - C.transpose(0, 2, 1))[:, [2, 0, 1], [1, 2, 0]]  # axial vector
        psi = np.einsum("kcd,fd->kfc", C, cent) + d[:, None, :]
        kernels = coupled_kernels(mesh, _EPS, a[:, None] + b @ cent.T, psi)
        for got, want in zip(kernels, (b @ _EPS.T, curl, b @ _EPS.T)):
            want = np.broadcast_to(want[:, None], got.shape).reshape(-1, 3)
            worst = max(worst, _relative_defect(got.reshape(-1, 3), want))
    return worst


def kernel_identity_defect(mesh: Mesh, rng: np.random.Generator, eps=_EPS) -> float:
    """Worst relative defect of the kernels read off B against closed
    forms in the barycentric gradients of :func:`simplex`, on random face
    values v and tangential face vectors psi, the first v constant:

        eps grad_w v = -3 sum_i v_{F_i} eps grad(zeta_i)   (both blocks)
        curl_w psi   =  3 sum_i psi_{F_i} x grad(zeta_i)

    Both hold exactly when |F_i| n_i = -3 |T| grad(zeta_i), and the first
    makes the gradient of constant face values zero."""
    _, grad = simplex(mesh)
    tf, n = mesh.tet_faces, mesh.face_normals
    v = rng.standard_normal((4, mesh.num_faces))
    v[0] = 1.0
    psi = rng.standard_normal((4, mesh.num_faces, 3))
    psi -= np.einsum("kfd,fd->kf", psi, n)[..., None] * n
    grad_v = -3.0 * np.einsum("kti,tid->ktd", v[:, tf], grad) @ eps.T
    curl = 3.0 * np.cross(psi[:, tf], grad).sum(axis=2)
    return max(
        _relative_defect(got.reshape(-1, 3), want.reshape(-1, 3))
        for got, want in zip(coupled_kernels(mesh, eps, v, psi), (grad_v, curl, grad_v))
    )


def mesh_at(example: int, n: int) -> Mesh:
    """The 1/h = ``n`` mesh of built-in problem ``example``'s domain."""
    return build_structured_tet_mesh(problems.make_problem(example).domain, n)


def one_tet(verts) -> Mesh:
    """The mesh of the single tet ``verts`` (4, 3); :class:`MeshError`
    unless it is positively oriented."""
    return Mesh(np.asarray(verts, float), np.zeros((4, 3), np.int64), np.arange(4)[None])


def random_tets(rng: np.random.Generator, count: int) -> list:
    """``count`` one-tet meshes with vertices in [-1, 1]^3 and volume >= 1e-3."""
    meshes = []
    while len(meshes) < count:
        verts = rng.uniform(-1.0, 1.0, (4, 3))
        vol = np.linalg.det(verts[1:] - verts[:1]) / 6.0
        if abs(vol) >= 1e-3:
            meshes.append(one_tet(verts if vol > 0 else verts[[0, 1, 3, 2]]))
    return meshes


def jittered_mesh(example: int, n: int, rng: np.random.Generator, a: float = 0.05):
    """(lattice, jittered): the 1/h = ``n`` mesh of built-in problem
    ``example``, and the same tets with every vertex off the boundary moved
    by uniform(-a, a) / n per coordinate, so that no face normal, area or
    quadrature point is a lattice value.  ``Mesh`` rejects a tet that the
    jitter turns over."""
    lattice = mesh_at(example, n)
    boundary = np.zeros(lattice.num_vertices, dtype=bool)
    boundary[lattice.faces[lattice.boundary_faces].ravel()] = True
    jitter = rng.uniform(-a, a, (lattice.num_vertices, 3)) / n
    jitter[boundary] = 0.0
    return lattice, Mesh(lattice.vertices + jitter, lattice.vertex_ijk, lattice.tets)


def system_at(example, n: int):
    """The assembled system of built-in problem ``example``, or of the
    :class:`~divcurl.problems.ProblemSpec` ``example``, on its 1/h = ``n``
    mesh, which is ``system.mesh``."""
    spec = problems.make_problem(example) if isinstance(example, int) else example
    return assemble_global(spec, build_structured_tet_mesh(spec.domain, n))


def constant_problem(value, eps) -> problems.ProblemSpec:
    """The constant field ``value`` with coefficient ``eps`` on the unit
    cube, or assembled on any mesh; its loads f and g are zero."""
    value = np.asarray(value, dtype=float)
    return problems.ProblemSpec(
        np.asarray(eps, float),
        problems.make_problem(1).domain,
        lambda p: np.broadcast_to(value, (len(p), 3)).copy(),
        lambda p: np.zeros(len(p)), lambda p: np.zeros_like(p),
    )


def patch_test_defects(mesh: Mesh | None = None) -> tuple:
    """(e_u, larger dual semi-norm) of the direct solve, cavity constants
    recovered, for a constant field with eps = diag(3, 2, 1) on ``mesh``
    (default: the unit cube at 1/h = 2); the scheme reproduces constants,
    so both vanish up to round-off."""
    mesh = mesh_at(1, 2) if mesh is None else mesh
    spec = constant_problem([1.0, -2.0, 0.5], np.diag([3.0, 2.0, 1.0]))
    system = assemble_global(spec, mesh)
    sol = solver.recover_cavity_constants(system, solver.solve(system, "direct"))
    duals = max(triple_norm_dual(system, sol), triple_norm_s(system, sol))
    return error_u(spec, sol.u, mesh), duals


def system_defects(mesh: Mesh | None = None, rng=None, samples: int = 0) -> tuple:
    """(largest |A - A^T| entry, smallest lambda_min / lambda_max over S1
    and S2) with problem 1's coefficient on ``mesh`` (default: the unit
    cube at 1/h = 2).  The eigenvalues are LAPACK's, of each connected
    block of a stabilizer's nonzero rows and columns in turn.

    Given ``rng`` and ``samples``, the second value is instead the smallest
    x^T S x over that many standard normal x: a gross check for meshes
    whose dense spectrum takes seconds, which misses a small negative
    eigenvalue."""
    mesh = mesh_at(1, 2) if mesh is None else mesh
    spec = constant_problem(0.0, problems.make_problem(1).eps)
    system = assemble_global(spec, mesh)
    asym = (system.A - system.A.T).tocoo()
    asymmetry = float(np.abs(asym.data).max()) if asym.nnz else 0.0
    stabilizers = [assemble(mesh, system.dofmap)
                   for assemble in (assembly.assemble_s1, assembly.assemble_s2)]
    if samples:
        x = rng.standard_normal((samples, system.dofmap.total))
        energy = min(np.einsum("sk,ks->s", x, S @ x.T).min() for S in stabilizers)
        return asymmetry, float(energy)
    ratios = []
    for S in stabilizers:
        support = np.flatnonzero(S.getnnz(axis=1))
        S = S[support][:, support]
        num, label = connected_components(S, directed=False)
        blocks = [np.flatnonzero(label == i) for i in range(num)]
        eigs = np.concatenate([np.linalg.eigvalsh(S[b][:, b].toarray()) for b in blocks])
        ratios.append(eigs.min() / eigs.max())
    return asymmetry, float(min(ratios))


def lattice_order_defects(mesh: Mesh, dofmap) -> dict:
    """Counts of breaches of the facts the direct solve's lattice order
    rests on; each is 0 when they hold.

    - ``face_before_tet``: faces whose nested-dissection group precedes
      their tet's; each face must lie in its tet's leaf or a later
      separator, which puts a tet's group at most its third face's;
    - ``u_off_third_face``: tets whose ``u`` is not in the front of the
      ``lamb`` (always free) of their third face in group order;
    - ``wide_off_plane``: groups of over ``_LEAF_SIZE`` entities that do
      not lie in one lattice plane, as only a separator may;
    - ``raw_order_broken``: free DoFs that follow a higher raw index within
      a front, which must keep the raw order, multipliers first.
    """
    ijk = mesh.vertex_ijk
    keys = np.concatenate(
        [3 * ijk[mesh.tets].sum(axis=1), 4 * ijk[mesh.faces].sum(axis=1)]
    )
    groups = solver._lattice_groups(keys)
    tet_group, face_group = groups[: mesh.num_tets], groups[mesh.num_tets :]
    tet_face_group = face_group[mesh.tet_faces]
    third = np.take_along_axis(
        mesh.tet_faces, np.argsort(tet_face_group, axis=1, kind="stable"), axis=1
    )[:, 2]

    p, bounds = solver._lattice_permutation(mesh, dofmap)
    front = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))  # by position
    front_of = np.full(dofmap.total, -1)  # by raw DoF; -1 if constrained
    front_of[dofmap.free[p]] = front
    tets = np.arange(mesh.num_tets)
    u_front = front_of[dofmap.index("u", tets[:, None], np.arange(3))]
    third_front = front_of[dofmap.index("lamb", third)]

    wide_off_plane = 0
    for g in np.flatnonzero(np.bincount(groups) > solver._LEAF_SIZE):
        k = keys[groups == g]
        wide_off_plane += not np.any(np.all(k == k[0], axis=0) & (k[0] % 12 == 0))
    raw = dofmap.free[p]
    return {
        "face_before_tet": int((tet_face_group < tet_group[:, None]).sum()),
        "u_off_third_face": int((u_front != third_front[:, None]).any(axis=1).sum()),
        "wide_off_plane": int(wide_off_plane),
        "raw_order_broken": int(((np.diff(raw) < 0) & (np.diff(front) == 0)).sum()),
    }


def frontal_defects(system) -> dict:
    """Counts of breaches of the facts ``_FrontalFactor(system)`` rests
    on; each is 0 when they hold.  In the positions of the order p of
    ``_lattice_permutation``, with the scale s of ``_ruiz_scale``:

    - ``scale``: entries of the factor's scale other than s;
    - ``entry_count``: kept entries that are not the nonzeros of a front's
      pivot columns from its first pivot down, once each, and the reverse;
    - ``entry_value``: kept entries other than bitwise (s_i * s_j) * a_ij;
    - ``pivot_mirror``: pivot-block entries whose mirror differs;
    - ``update_rows``: fronts of a float64 factor with ``PIVOT_GROWTH_LIMIT
      = inf`` that delay, or whose update rows are not the rows below their
      pivots that their pivot columns reach in the filled graph;
    - ``nnz``: |nnz - sum k (k + r)| over its fronts of k pivots and r
      update rows.
    """
    A_ff = system.reduced()[0]
    s = _ruiz_scale(A_ff, A_ff.diagonal())
    p, bounds = solver._lattice_permutation(system.mesh, system.dofmap)
    n, num = len(p), len(bounds) - 1
    lu = solver._FrontalFactor(system)

    # A_ff is exactly symmetric, so row c of B is column c of the permuted matrix
    B = A_ff[p][:, p]
    col = np.repeat(np.arange(n), np.diff(B.indptr))
    start = bounds[np.repeat(np.arange(num), np.diff(bounds))]
    keep = (B.indices >= start[col]) & (B.data != 0)
    row, col = B.indices[keep], col[keep]
    want_key, want = col * n + row, (s[p[row]] * s[p[col]]) * B.data[keep]
    front = np.repeat(np.arange(num), np.diff(lu.entry_start))
    got_row, got_col = lu.entry_row.astype(np.int64), bounds[front] + lu.entry_col
    got_key, value = got_col * n + got_row, lu.entry_value
    _, i, j = np.intersect1d(want_key, got_key, return_indices=True)
    pivot = got_row < bounds[front + 1]
    P = sparse.csr_matrix((value[pivot], (got_row[pivot], got_col[pivot])), (n, n))
    defects = {
        "scale": int((lu.scale != s).sum()),
        "entry_count": len(got_key) + len(want_key) - 2 * len(i),
        "entry_value": int((want[i] != value[j]).sum()),
        "pivot_mirror": (P != P.T).nnz,
    }

    filled = B.toarray() != 0
    for k in range(n):  # symbolic Gaussian elimination
        below = k + 1 + np.flatnonzero(filled[k + 1 :, k])
        filled[np.ix_(below, below)] = True
    limit = solver.PIVOT_GROWTH_LIMIT
    solver.PIVOT_GROWTH_LIMIT = np.inf
    try:
        lu.factor("float64")
    finally:
        solver.PIVOT_GROWTH_LIMIT = limit
    wrong, nnz = lu.delayed + abs(len(lu.blocks) - num), 0
    for a, e, (pivots, up, _, _) in zip(bounds[:-1], bounds[1:], lu.blocks):
        rows = e + np.flatnonzero(filled[e:, a:e].any(axis=1))
        wrong += pivots != slice(a, e) or not np.array_equal(up, rows)
        nnz += (e - a) * (e - a + len(rows))
    return {**defects, "update_rows": int(wrong), "nnz": int(abs(lu.nnz - nnz))}


def condensed_defects(system) -> dict:
    """Defects of ``Condensed(system)`` against its definition through
    the dense Schur complement S of the local unknowns; counts are 0 and
    relative defects near round-off when the facts hold.  With R its
    frame, s its scale, q the unit vector of 1/s on the lamb positions,
    f its shift, P = I + f q q^T and one random z:

    - ``frame``: the largest |R_F^T G_F R_F - I| over the free faces,
      R_F the frame's 2x2 block on the face's qb pair and G_F the Gram
      matrix of its ``dofmap.tangents``, or |R - I| off those blocks;
    - ``product``, ``b``: ``@ z`` and ``b`` against P s R^T S R s P z and
      P s R^T (F_G - A_GL A_LL^-1 F_L), R on the G positions;
    - ``projection``: P z by ``np.einsum`` against the dense product;
    - ``solution_g``: G entries of ``solution(z)`` other than bitwise
      R s P z, R applied by the frame's own product;
    - ``local_rows``: its largest local-row residual over the largest |F|;
    - ``raw_residual``: free rows where the residual ``solve`` reads, of
      the assembled matrix, is not bitwise that of ``A_ff``;
    - ``ruiz_low``, ``ruiz_high``: how far the largest |entry| of a row of
      s R^T A_GG R s with diag(R^T S R) on its diagonal lies below 0.9 or
      above 1;
    - ``q``: the held q's largest relative defect;
    - ``shift``: |(1 + f)^2 mu - 1|, mu = q^T s R^T S R s q, or inf
      unless f > -1.
    """
    A_ff, F_f = system.reduced()
    S = Condensed(system)
    nG = len(S.b)
    GL = np.argsort(S.order)  # the free index of each position, G then L
    G, L = GL[:nG], GL[nG:]
    dm = system.dofmap

    def positions(name):
        """G-then-L positions of the free DoFs of block ``name``, and
        which of the block's raw DoFs are free."""
        raw = np.arange(*dm.offsets[name])
        free = np.isin(raw, dm.free)
        return S.order[np.searchsorted(dm.free, raw[free])], free

    R = S.frame
    pairs, free = positions("qb")
    pairs = pairs.reshape(-1, 2)
    T = dm.tangents[free.reshape(-1, 2)[:, 0]]
    R_F = np.asarray(R[np.repeat(pairs, 2, axis=1).ravel(), np.tile(pairs, 2).ravel()])
    R_F = R_F.reshape(-1, 2, 2)
    gram = np.einsum("fid,fjd->fij", T, T)
    pair = np.full(R.shape[0], -1)
    pair[pairs] = np.arange(len(pairs))[:, None]
    off = (R - sparse.identity(R.shape[0])).tocoo()
    outside = (pair[off.row] != pair[off.col]) | (pair[off.row] < 0)
    frame = max(
        np.abs(R_F.transpose(0, 2, 1) @ gram @ R_F - np.eye(2)).max(),
        np.abs(off.data[outside]).max(initial=0.0),
    )
    A = (R.T @ A_ff[GL][:, GL] @ R).toarray()
    F = R.T @ F_f[GL]
    D_inv = np.linalg.inv(A[nG:, nG:])
    schur = A[:nG, :nG] - A[:nG, nG:] @ D_inv @ A[nG:, :nG]
    s = S.scale
    # the Ruiz band of R^T A_GG R with the complement's diagonal
    P = A[:nG, :nG].copy()
    np.fill_diagonal(P, np.diag(schur))
    largest = np.abs(s[:, None] * P * s).max(axis=1)
    lamb, _ = positions("lamb")
    q = np.zeros(nG)
    q[lamb] = 1.0 / s[lamb]
    q /= np.linalg.norm(q)
    mu = q @ (s * (schur @ (s * q)))
    P = np.eye(nG) + S.shift * np.outer(q, q)
    z = np.random.default_rng(7).standard_normal(nG)
    product = P @ (s * (schur @ (s * (P @ z))))
    b = P @ (s * (F[:nG] - A[:nG, nG:] @ D_inv @ F[nG:]))
    x = S.solution(z)
    y = z.copy()
    # the dot of _project, summed by einsum, not BLAS, so the bits agree
    y[lamb] += S.shift * np.einsum("i,i", S.q, z[lamb]) * S.q
    r = F_f - A_ff @ x
    raw = system.F - system.A @ system.expand(x)
    return {
        "frame": float(frame),
        "product": float(np.abs(S @ z - product).max() / np.abs(product).max()),
        "b": float(np.abs(S.b - b).max() / np.abs(b).max()),
        "projection": float(np.abs(y - P @ z).max() / np.abs(y).max()),
        "solution_g": int((x[G] != R[:nG, :nG] @ (s * y)).sum()),
        "local_rows": float(np.abs(r[L]).max() / np.abs(F_f).max()),
        "raw_residual": int((raw[dm.free] != r).sum()),
        "ruiz_low": float(max(0.9 - largest.min(), 0.0)),
        "ruiz_high": float(max(largest.max() - 1.0, 0.0)),
        "q": float((np.abs(S.q - q[lamb]) / np.abs(q[lamb])).max()),
        "shift": float(abs((1 + S.shift) ** 2 * mu - 1)) if S.shift > -1 else np.inf,
    }


def problem_variants(example: int) -> list:
    """Built-in problem ``example`` at every allowed parameter value."""
    allowed = problems._PARAMETERS.get(example, {})
    return [
        problems.make_problem(example, **dict(zip(allowed, values)))
        for values in itertools.product(*allowed.values())
    ]


def oracle_points(spec, n: int = 2, away: float = 0.1) -> np.ndarray:
    """The degree-4 Gauss points of the 1/h = ``n`` mesh of the problem's
    domain, where ``assemble_rhs`` evaluates f and g, that lie at least
    ``away`` from every singular axis and point.  They are interior by
    construction, so central differences never straddle the boundary."""
    mesh = build_structured_tet_mesh(spec.domain, n)
    points = gauss_points(mesh.vertices[mesh.tets], 4)[0].reshape(-1, 3)
    keep = np.ones(len(points), dtype=bool)
    for x0, y0 in spec.singular_axes:
        keep &= np.hypot(points[:, 0] - x0, points[:, 1] - y0) >= away
    for p0 in spec.singular_points:
        keep &= np.linalg.norm(points - np.asarray(p0), axis=1) >= away
    return points[keep]


def load_oracle_defect() -> float:
    """Worst scaled finite-difference defect of the built-in problems, at
    every parameter value, at their ``oracle_points``: the f and g loads
    against the exact field, and div g, which solvable data keeps at zero."""
    worst = 0.0
    for example in range(1, 8):
        for spec in problem_variants(example):
            devs = problems.finite_difference_check(spec, oracle_points(spec))
            worst = max(worst, *devs.values())
    return worst
