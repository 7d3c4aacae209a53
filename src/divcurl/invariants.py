"""Invariant checks shared by ``divcurl --selftest`` and the test suite.

Each function measures one property of the discretization and returns
its defect; callers compare the defect with their own tolerance.  The
weak kernels are looked up on :mod:`divcurl.weak_ops` at call time, so a
kernel replaced there is the kernel that gets checked.
"""

import numpy as np

from . import problems, weak_ops
from .analysis import error_u, triple_norm_dual, triple_norm_s
from .assembly import assemble_global
from .mesh import Mesh, build_domain, build_structured_tet_mesh, tet_geometry
from .solver import solve

__all__ = [
    "commutativity_defect",
    "kernel_identity_defect",
    "patch_test_defects",
    "system_defects",
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


def patch_test_defects() -> tuple:
    """(e_u, larger dual semi-norm) of the direct solve for a constant
    field with eps = diag(3, 2, 1) on the unit cube at 1/h = 2; the scheme
    reproduces constants, so both vanish up to round-off."""
    value = np.array([1.0, -2.0, 0.5])
    spec = problems.ProblemSpec(
        0, "constant_patch", np.diag([3.0, 2.0, 1.0]), build_domain(1),
        lambda p: np.broadcast_to(value, (len(p), 3)).copy(),
        lambda p: np.zeros(len(p)), lambda p: np.zeros_like(p), "constant",
    )
    mesh = build_structured_tet_mesh(spec.domain, 2)
    system = assemble_global(spec, mesh)
    sol = solve(system, method="direct")
    duals = max(triple_norm_dual(system, sol), triple_norm_s(system, sol))
    return error_u(spec, sol.u, mesh), duals


def system_defects(rng: np.random.Generator, samples: int) -> tuple:
    """(largest |A - A^T| entry, smallest x^T S x over S1 and S2) of
    problem 1 at 1/h = 2, for ``samples`` standard normal vectors x."""
    spec = problems.make_problem(1)
    system = assemble_global(spec, build_structured_tet_mesh(spec.domain, 2))
    asym = (system.A - system.A.T).tocoo()
    asymmetry = float(np.abs(asym.data).max()) if asym.nnz else 0.0
    x = rng.standard_normal((samples, system.dofmap.total))
    energy = min(
        np.einsum("sk,ks->s", x, S @ x.T).min() for S in (system.S1, system.S2)
    )
    return asymmetry, float(energy)


def load_oracle_defect(rng: np.random.Generator, count: int = 100) -> float:
    """Worst scaled finite-difference deviation of the f and g loads of
    the built-in problems at ``count`` random interior points each."""
    worst = 0.0
    for example in range(1, 8):
        spec = problems.make_problem(example)
        points = problems.sample_interior_points(spec, count, rng)
        devs = problems.finite_difference_check(spec, points)
        worst = max(worst, devs["f"], devs["g"])
    return worst
