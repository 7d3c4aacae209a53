"""Linear solvers for the saddle-point system and cavity-constant recovery."""

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from .assembly import GlobalSystem

__all__ = [
    "SolutionFields",
    "SolverError",
    "solve",
    "recover_cavity_constants",
    "DIRECT_DOF_LIMIT",
]

# beyond this many free unknowns the automatic method switches to MINRES;
# the LU fill grows like n^(4/3) at about 9.5 bytes of peak memory per entry
# with the float32 factor: the study of problem 4 at 1/h = 2, 4, 8 (340k
# free, 104M fill) runs in 8-9 s direct with a 0.98 GB peak, against 52 s
# and 0.3 GB by MINRES (2-core machine)
DIRECT_DOF_LIMIT = 400_000


class SolverError(RuntimeError):
    """Factorization breakdown or iteration failure; carries diagnostics."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


@dataclass
class SolutionFields:
    """Solution coefficients over the raw numbering plus diagnostics.

    Constrained DoFs carry their constraint values exactly (zero after the
    base solve; cavity traces are overwritten by the recovered constants).
    """

    x: np.ndarray
    dofmap: object
    diagnostics: dict = field(default_factory=dict)
    cavity_constants: dict = field(default_factory=dict)

    @property
    def u(self):
        """The primal field, one vector per tet (num_tets, 3)."""
        return self.x[self.dofmap.block("u")].reshape(-1, 3)


def _equilibration_scale(system: GlobalSystem, A_ff: sparse.csr_matrix):
    """Symmetric Jacobi scaling 1/sqrt(max(|diag|, h_loc^3)).

    The primal block has an exactly zero diagonal, so it is floored at the
    local element-volume scale h^3, which balances the coupling entries
    (surface terms of size h^2) against the stabilizer diagonal (size h).
    Both solver paths work on D^-1/2 A D^-1/2.
    """
    dm = system.dofmap
    h_of_tet = system.mesh.geometry.diameters
    h_of_face = h_of_tet[system.mesh.face_tets[:, 0]]
    floor = dm.per_dof(h_of_tet, h_of_face)[dm.free] ** 3
    d = np.maximum(np.abs(A_ff.diagonal()), floor)
    return 1.0 / np.sqrt(d)


_LEAF_SIZE = 16  # entities per leaf group; 8 to 24 give the same fill, 32 more
_PRIMAL_BLOCKS = ("u", "s0", "sb")


def _lattice_groups(keys: np.ndarray) -> np.ndarray:
    """Nested-dissection group ordinal of each entity.

    ``keys`` (N, 3) are exact integer centroids in 1/12-lattice units, so
    the entities on the lattice plane ``x_a = c`` are those with key
    ``12 c``.  Faces lie inside one lattice plane or cross none, and every
    coupling stays within one tet and its four faces, so the faces in a
    lattice plane separate the entities on either side exactly.  Each set
    is split at the plane nearest the middle of its longest axis; groups
    are numbered left, right, then separator, down to leaves of
    ``_LEAF_SIZE`` entities.
    """
    groups = np.empty(len(keys), dtype=np.int64)
    counter = 0

    def split(idx):
        nonlocal counter
        if len(idx) > _LEAF_SIZE:
            k = keys[idx]
            lo, hi = k.min(axis=0), k.max(axis=0)
            for axis in np.argsort(lo - hi, kind="stable"):  # longest first
                first, last = -(-lo[axis] // 12) * 12, hi[axis] // 12 * 12
                if first > last:
                    continue
                # the lattice plane nearest the middle, inside [lo, hi]: the
                # separator or one side is non-empty, so every split shrinks
                mid = (lo[axis] + hi[axis] + 12) // 24 * 12
                plane = min(max(mid, first), last)
                side = k[:, axis]
                split(idx[side < plane])
                split(idx[side > plane])
                idx = idx[side == plane]
                break
        if len(idx):
            groups[idx] = counter
            counter += 1

    split(np.arange(len(keys)))
    return groups


def _lattice_permutation(mesh, dofmap) -> np.ndarray:
    """Fill-reducing order of the free DoFs for the direct solve.

    Nested dissection of the structured mesh's tets and faces by lattice
    planes (George, SIAM J. Numer. Anal. 10, 1973).  Within each group,
    multiplier DoFs come before primal ones.  The (u, u) block is zero, so
    each tet's ``u`` joins the group of the third of its four faces in
    elimination order (or its tet's group, if later).  Every face lies in
    its tet's leaf or in a later separator, so ``u`` leaves its leaf only
    when two of its faces lie on separators; waiting for the fourth face
    would put the ``u`` of every tet touching a plane into that plane's
    separator and double the fill.  Three faces are likely enough because
    three face normals of a tet span R^3; a two-face rule, measured, fills
    more and pivots off the diagonal.  Returns ``p`` with ``A_ff[p][:, p]``
    the reordered matrix.
    """
    ijk = mesh.vertex_ijk
    keys = np.concatenate(
        [3 * ijk[mesh.tets].sum(axis=1), 4 * ijk[mesh.faces].sum(axis=1)]
    )
    groups = _lattice_groups(keys)
    tet_group, face_group = groups[: mesh.num_tets], groups[mesh.num_tets :]
    dof_group = dofmap.per_dof(tet_group, face_group)
    third_face = np.sort(face_group[mesh.tet_faces], axis=1)[:, 2]
    u_group = np.maximum(tet_group, third_face)
    dof_group[dofmap.block("u")] = np.repeat(u_group, 3)
    primal = np.zeros(dofmap.total, dtype=bool)
    for name in _PRIMAL_BLOCKS:
        primal[dofmap.block(name)] = True
    free = dofmap.free
    return np.lexsort((free, primal[free], dof_group[free]))


# MINRES drives the true relative residual to min(tol, MINRES_TARGET), below
# the 1e-8 acceptance: the cavity least-squares fit of
# recover_cavity_constants amplifies the solve error, and on problem 4 at
# 1/h=4 the cavity constant deviates from the direct value by 3.2e-6 at a
# 1e-9 stop, 5.4e-7 at 1e-10 and 4.8e-8 at 1e-11
MINRES_TARGET = 1e-11

# the direct path refines a float32 factor in float64 until the true
# relative residual reaches min(tol, REFINE_TARGET), within REFINE_STEPS
# corrections after the first solve; problems 1-7 at 1/h <= 8 take 2 or 3
REFINE_TARGET = 1e-13
REFINE_STEPS = 8


def _minres(A, b, residual, target, max_iter):
    """MINRES on symmetric ``A`` from a zero start (Paige & Saunders, 1975).

    The Lanczos and Givens recurrences carry ``|phibar| = ||b - A y||``.
    When it reaches the threshold (first ``target * ||b||``), ``residual(y)``
    gives the true relative residual; above ``target`` the threshold is
    tightened and the same Lanczos sequence continues.  At most ``max_iter``
    iterations in all.  Returns ``(y, iterations, residuals checked)``.
    """
    beta = np.linalg.norm(b)
    v_old, v = np.zeros_like(b), b / beta
    w_old, w, y = np.zeros_like(b), np.zeros_like(b), np.zeros_like(b)
    cs, sn, dbar, eps_next, phibar = -1.0, 0.0, 0.0, 0.0, beta
    threshold, history = target * beta, []
    for k in range(1, max_iter + 1):
        p = A @ v - beta * v_old
        alpha = v @ p
        p -= alpha * v
        beta = np.linalg.norm(p)
        # the previous rotation acts on column k of the Lanczos matrix
        eps, delta = eps_next, cs * dbar + sn * alpha
        gbar, eps_next, dbar = sn * dbar - cs * alpha, sn * beta, -cs * beta
        gamma = np.hypot(gbar, beta)
        cs, sn = gbar / gamma, beta / gamma
        phi, phibar = cs * phibar, sn * phibar
        w_old, w = w, (v - eps * w_old - delta * w) / gamma
        y += phi * w
        if beta == 0.0 or abs(phibar) <= threshold:
            history.append(residual(y))
            # beta = 0: the Krylov space is invariant and y is exact; a NaN
            # residual stops the run too
            if beta == 0.0 or not history[-1] > target:
                break
            threshold *= 0.5 * target / history[-1]
        v_old, v = v, p / beta
    else:
        history.append(residual(y))
    return y, k, history


def solve(
    system: GlobalSystem,
    method: str = "auto",
    tol: float | None = None,
    max_iter: int | None = None,
) -> SolutionFields:
    """Solve the reduced system and return all solution fields.

    method "direct" factorizes with a sparse pivoted LU (the assembled
    matrix is symmetric indefinite) in the lattice nested-dissection
    order of :func:`_lattice_permutation`.  The factor is float32, which
    has the fill of a float64 one at two thirds of its memory; float64
    iterative refinement (Langou et al., SC 2006) then corrects the
    solution from the true residual until the true relative residual
    reaches ``min(tol, REFINE_TARGET)``.  If the float32 factor breaks
    down, a correction fails to halve the residual, or ``REFINE_STEPS``
    corrections do not suffice, the matrix is refactored in float64 and
    solved once.  The diagnostics record ``factor_dtype`` and
    ``refine_steps`` (float32 corrections after the first solve).

    "minres" runs one diagonally preconditioned MINRES (:func:`_minres`)
    until the true relative residual reaches ``min(tol, MINRES_TARGET)``,
    within ``max_iter`` iterations in all (default 60,000); "auto" picks
    direct up to ``DIRECT_DOF_LIMIT`` free unknowns and MINRES beyond.

    Either way the true relative residual must reach ``tol`` (default
    1e-10 direct, 1e-8 MINRES), or :class:`SolverError` is raised with
    the diagnostics.
    """
    if method not in ("auto", "direct", "minres"):
        raise ValueError(f"unknown solver method {method!r}")
    if tol is not None and not 0.0 < tol < 1.0:
        raise ValueError("tolerance must be in (0, 1)")
    if max_iter is not None and max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    A_ff, F_f = system.reduced()
    n = len(F_f)
    if method == "auto":
        method = "direct" if n <= DIRECT_DOF_LIMIT else "minres"

    fnorm = np.linalg.norm(F_f)
    t0 = time.perf_counter()
    diagnostics = {"method": method, "num_free": n}
    if fnorm == 0.0:
        diagnostics.update(relative_residual=0.0, solve_seconds=0.0)
        return SolutionFields(system.expand(np.zeros(n)), system.dofmap, diagnostics)

    scale = _equilibration_scale(system, A_ff)
    S = sparse.diags(scale)
    A_s = (S @ A_ff @ S).tocsc()
    F_s = scale * F_f
    # tol and max_iter are positive if set
    accept = tol or (1e-10 if method == "direct" else 1e-8)

    def residual(y):
        """True residual F_f - A_ff x at x = scale * y, and its relative norm."""
        r = F_f - A_ff @ (scale * y)
        return r, float(np.linalg.norm(r) / fnorm)

    if method == "direct":
        target = min(accept, REFINE_TARGET)
        p = _lattice_permutation(system.mesh, system.dofmap)

        def factor(dtype):
            return spla.splu(
                A_s[p][:, p].astype(dtype),
                permc_spec="NATURAL",
                diag_pivot_thresh=0.1,
                options={"SymmetricMode": True},
            )

        y, rel, steps, dtype = np.zeros(n), 1.0, 0, "float32"
        try:
            lu = factor(np.float32)
        except RuntimeError:  # a float32 pivot broke down; refactor below
            lu = None
        if lu is not None:
            r = F_f
            # the first solve from y = 0, then up to REFINE_STEPS corrections
            for steps in range(REFINE_STEPS + 1):
                # S r is the residual of the scaled system; normalising it
                # before the cast keeps a tiny residual from underflowing
                r_s = (scale * r)[p]
                r_norm = np.linalg.norm(r_s)
                y[p] += r_norm * lu.solve((r_s / r_norm).astype(np.float32))
                prev, (r, rel) = rel, residual(y)
                if rel <= target or not rel <= 0.5 * prev:
                    break
            if not rel <= target:
                lu = None  # stalled or out of steps; refactor below
        if lu is None:
            dtype = "float64"
            try:
                lu = factor(np.float64)
                y[p] = lu.solve(F_s[p])
            except RuntimeError as exc:  # singular factor reports pivot location
                raise SolverError(
                    f"direct factorization failed: {exc}", diagnostics
                ) from exc
            rel = residual(y)[1]
        diagnostics.update(fill_nnz=int(lu.nnz), factor_dtype=dtype, refine_steps=steps)
    else:
        target = min(accept, MINRES_TARGET)
        y, iterations, history = _minres(
            A_s, F_s, lambda y: residual(y)[1], target, max_iter or 60_000
        )
        rel = history[-1]
        diagnostics.update(iterations=iterations, residual_history=history)
    diagnostics.update(relative_residual=rel, solve_seconds=time.perf_counter() - t0)
    if not rel <= accept:  # NaN fails too
        raise SolverError(
            f"{method} solve residual {rel:.3e} exceeds {accept:.1e}", diagnostics
        )
    return SolutionFields(system.expand(scale * y), system.dofmap, diagnostics)


def recover_cavity_constants(
    system: GlobalSystem, base: SolutionFields
) -> SolutionFields:
    """Recover the constant trace value on each cavity component.

    The base solve holds the cavity traces at zero; the constants minimize
    the full-system residual || A (x + sum_i a_i S_i) - F ||_2, where S_i
    is 1 on the sb trace DoFs of cavity i and 0 elsewhere (A S_i sums those
    columns of A), a small dense least-squares problem.  Without cavities
    this is an identity pass-through.
    """
    dm = system.dofmap
    if not dm.cavity_faces:
        return base
    comps = sorted(dm.cavity_faces)
    cols = [dm.index("sb", dm.cavity_faces[c]) for c in comps]
    A, F = system.A, system.F
    x = base.x
    AS = np.column_stack([A[:, ci] @ np.ones(len(ci)) for ci in cols])
    resid = F - A @ x
    G = AS.T @ AS
    b = AS.T @ resid
    try:
        coeffs = np.linalg.solve(G, b)
        ok = np.all(np.isfinite(coeffs))
    except np.linalg.LinAlgError:
        ok = False
    if not ok:
        coeffs = np.zeros(len(comps))
    x_new = x.copy()
    for ci, a in zip(cols, coeffs):
        x_new[ci] += a
    before = float(np.linalg.norm(resid))
    after = float(np.linalg.norm(F - A @ x_new))
    if after > before:  # ill-conditioned fit; keep the base solution
        ok, coeffs, x_new, after = False, np.zeros(len(comps)), x.copy(), before
    diag = dict(base.diagnostics)
    diag["raw_residual_before"] = before
    diag["raw_residual_after"] = after
    diag["cavity_recovery_ok"] = bool(ok)
    constants = {c: float(a) for c, a in zip(comps, coeffs)}
    return SolutionFields(x_new, base.dofmap, diag, constants)
