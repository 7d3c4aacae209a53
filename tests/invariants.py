"""Invariant checks shared by the test modules.

Each function measures one property of the discretization and returns
its defect; callers compare the defect with their own tolerance.  The
weak kernels are looked up on :mod:`divcurl.weak_ops` at call time, so a
kernel replaced there is the kernel that gets checked.
"""

import itertools

import numpy as np

from divcurl import problems, solver, weak_ops
from divcurl.analysis import solve_level
from divcurl.assembly import assemble_global, assemble_s1, assemble_s2
from divcurl.mesh import (
    DomainSpec,
    Mesh,
    build_domain,
    build_structured_tet_mesh,
    tet_geometry,
)
from divcurl.quadrature import gauss_points

__all__ = [
    "constant_problem",
    "commutativity_defect",
    "kernel_identity_defect",
    "patch_test_defects",
    "system_defects",
    "lattice_order_defects",
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


def constant_problem(
    value, eps, domain: DomainSpec | None = None
) -> problems.ProblemSpec:
    """The constant field ``value`` with coefficient ``eps`` on ``domain``
    (default: the unit cube); its loads f and g are zero."""
    value = np.asarray(value, dtype=float)
    return problems.ProblemSpec(
        np.asarray(eps, float),
        build_domain(1) if domain is None else domain,
        lambda p: np.broadcast_to(value, (len(p), 3)).copy(),
        lambda p: np.zeros(len(p)), lambda p: np.zeros_like(p),
    )


def patch_test_defects(domain: DomainSpec | None = None) -> tuple:
    """(e_u, larger dual semi-norm) of the direct solve for a constant
    field with eps = diag(3, 2, 1) on ``domain`` (default: the unit cube)
    at 1/h = 2; the scheme reproduces constants, so both vanish up to
    round-off."""
    spec = constant_problem([1.0, -2.0, 0.5], np.diag([3.0, 2.0, 1.0]), domain)
    row = solve_level(spec, 2, "direct").row
    return row["err_u"], max(row["tnorm_dual"], row["tnorm_s"])


def system_defects(
    rng: np.random.Generator, samples: int, domain: DomainSpec | None = None
) -> tuple:
    """(largest |A - A^T| entry, smallest x^T S x over S1 and S2) of
    problem 1 on ``domain`` (default: its own unit cube) at 1/h = 2, for
    ``samples`` standard normal vectors x."""
    spec = problems.make_problem(1)
    mesh = build_structured_tet_mesh(spec.domain if domain is None else domain, 2)
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
