"""Invariant checks shared by the test modules.

Each function measures properties of the discretization or of a solver
and returns their defects; callers compare each with their own tolerance.
Only here do tests read a solver's internals.  The weak kernels are looked
up on :mod:`divcurl.weak_ops` at call time, so a kernel replaced there is
the kernel that gets checked.
"""

import itertools

import numpy as np
import scipy.sparse as sparse

from divcurl import problems, solver, weak_ops
from divcurl.analysis import error_u, triple_norm_dual, triple_norm_s
from divcurl.assembly import assemble_global, assemble_s1, assemble_s2
from divcurl.condense import Condensed, _ruiz_scale
from divcurl.mesh import Mesh, build_structured_tet_mesh, tet_geometry
from divcurl.quadrature import gauss_points

__all__ = [
    "mesh_at",
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


def commutativity_defect(rng: np.random.Generator, trials: int) -> float:
    """Worst relative defect of the commuting-projection property on
    ``trials`` random tets with vertices in [-1, 1]^3 and volume >= 1e-3.

    For affine v and psi, the weak gradient of the face averages of v is
    grad v, and the weak curl of the tangential face averages of psi is
    curl psi.  The face average of an affine field is its value at the
    face centroid.
    """
    verts = np.empty((0, 4, 3))
    while len(verts) < trials:
        batch = rng.uniform(-1.0, 1.0, (trials, 4, 3))
        vol = np.linalg.det(batch[:, 1:] - batch[:, :1]) / 6.0
        batch[vol < 0] = batch[vol < 0][:, [0, 1, 3, 2]]  # orient
        verts = np.concatenate([verts, batch[np.abs(vol) >= 1e-3]])
    verts = verts[:trials]
    geom = tet_geometry(verts)
    fcent = (verts.sum(axis=1)[:, None, :] - verts) / 3.0  # face i omits vertex i

    a, b = rng.standard_normal(trials), rng.standard_normal((trials, 3))
    vb = a[:, None] + np.einsum("tfd,td->tf", fcent, b)
    worst = _relative_defect(weak_ops.weak_gradient(geom, vb), b)

    C, d = rng.standard_normal((trials, 3, 3)), rng.standard_normal((trials, 3))
    curl = (C - C.transpose(0, 2, 1))[:, [2, 0, 1], [1, 2, 0]]  # axial vector
    psib = np.einsum("tcd,tfd->tfc", C, fcent) + d[:, None, :]
    n = geom.normals
    psib -= np.einsum("tfd,tfd->tf", psib, n)[:, :, None] * n
    return max(worst, _relative_defect(weak_ops.weak_curl(geom, psib), curl))


def kernel_identity_defect(mesh: Mesh, rng: np.random.Generator) -> float:
    """Worst relative defect of two kernel identities on every tet:
    constant traces have zero weak gradient, and a random tangential
    trace w on face i alone has weak curl 3 w x grad(zeta_i), which holds
    exactly when |F_i| n_i = -3 |T| grad(zeta_i)."""
    geom = mesh.geometry
    worst = np.abs(weak_ops.weak_gradient(geom, np.ones((mesh.num_tets, 4)))).max()
    for i in range(4):
        w = rng.standard_normal((mesh.num_tets, 3))
        n_i = geom.normals[:, i]
        w -= np.einsum("td,td->t", w, n_i)[:, None] * n_i
        psib = np.zeros((mesh.num_tets, 4, 3))
        psib[:, i] = w
        want = 3.0 * np.cross(w, geom.grad_bary[:, i])
        worst = max(worst, _relative_defect(weak_ops.weak_curl(geom, psib), want))
    return float(worst)


def mesh_at(example: int, n: int) -> Mesh:
    """The 1/h = ``n`` mesh of built-in problem ``example``'s domain."""
    return build_structured_tet_mesh(problems.make_problem(example).domain, n)


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


def system_defects(
    rng: np.random.Generator, samples: int, mesh: Mesh | None = None
) -> tuple:
    """(largest |A - A^T| entry, smallest x^T S x over S1 and S2) with
    problem 1's coefficient on ``mesh`` (default: the unit cube at
    1/h = 2), for ``samples`` standard normal vectors x."""
    mesh = mesh_at(1, 2) if mesh is None else mesh
    spec = constant_problem(0.0, problems.make_problem(1).eps)
    system = assemble_global(spec, mesh)
    asym = (system.A - system.A.T).tocoo()
    asymmetry = float(np.abs(asym.data).max()) if asym.nnz else 0.0
    x = rng.standard_normal((samples, system.dofmap.total))
    stabilizers = (assemble_s1(mesh, system.dofmap), assemble_s2(mesh, system.dofmap))
    energy = min(np.einsum("sk,ks->s", x, S @ x.T).min() for S in stabilizers)
    return asymmetry, float(energy)


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
    relative defects near round-off when the facts hold.  With s its
    scale, q the unit vector of 1/s on the lamb positions, f its shift,
    P = I + f q q^T and one random z:

    - ``product``, ``b``: ``@ z`` and ``b`` against P s S s P z and
      P s (F_G - A_GL A_LL^-1 F_L);
    - ``projection``: P z by ``np.einsum`` against the dense product;
    - ``solution_g``: G entries of ``solution(z)`` other than bitwise s P z;
    - ``local_rows``: its largest local-row residual over the largest |F|;
    - ``raw_residual``: free rows where the residual ``solve`` reads, of
      the assembled matrix, is not bitwise that of ``A_ff``;
    - ``ruiz_low``, ``ruiz_high``: how far the largest |entry| of a row of
      s A_GG s with diag(S) on its diagonal lies below 0.9 or above 1;
    - ``q``: the held q's largest relative defect;
    - ``shift``: |(1 + f)^2 mu - 1|, mu = q^T s S s q, or inf unless f > -1.
    """
    A_ff, F_f = system.reduced()
    S = Condensed(system)
    nG = len(S.b)
    GL = np.argsort(S.order)  # the free index of each position, G then L
    G, L = GL[:nG], GL[nG:]
    A = A_ff[GL][:, GL].toarray()
    D_inv = np.linalg.inv(A[nG:, nG:])
    schur = A[:nG, :nG] - A[:nG, nG:] @ D_inv @ A[nG:, :nG]
    s = S.scale
    # the Ruiz band of A_GG with the complement's diagonal
    P = A[:nG, :nG].copy()
    np.fill_diagonal(P, np.diag(schur))
    largest = np.abs(s[:, None] * P * s).max(axis=1)
    dm = system.dofmap
    lamb = S.order[np.searchsorted(dm.free, np.arange(*dm.offsets["lamb"]))]
    q = np.zeros(nG)
    q[lamb] = 1.0 / s[lamb]
    q /= np.linalg.norm(q)
    mu = q @ (s * (schur @ (s * q)))
    P = np.eye(nG) + S.shift * np.outer(q, q)
    z = np.random.default_rng(7).standard_normal(nG)
    product = P @ (s * (schur @ (s * (P @ z))))
    b = P @ (s * (F_f[G] - A[:nG, nG:] @ D_inv @ F_f[L]))
    x = S.solution(z)
    y = z.copy()
    # the dot of _project, summed by einsum, not BLAS, so the bits agree
    y[lamb] += S.shift * np.einsum("i,i", S.q, z[lamb]) * S.q
    r = F_f - A_ff @ x
    raw = system.F - system.A @ system.expand(x)
    return {
        "product": float(np.abs(S @ z - product).max() / np.abs(product).max()),
        "b": float(np.abs(S.b - b).max() / np.abs(b).max()),
        "projection": float(np.abs(y - P @ z).max() / np.abs(y).max()),
        "solution_g": int((x[G] != s * y).sum()),
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
