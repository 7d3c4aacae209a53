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
# the LU fill of the saddle matrix grows superlinearly and leaves the
# desk-memory budget near 2e5 unknowns
DIRECT_DOF_LIMIT = 200_000


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

    def _block(self, name, comps=1):
        v = self.x[self.dofmap.block(name)]
        return v.reshape(-1, comps) if comps > 1 else v

    @property
    def u(self):
        return self._block("u", 3)

    @property
    def s0(self):
        return self._block("s0")

    @property
    def sb(self):
        return self._block("sb")

    @property
    def lam0(self):
        return self._block("lam0")

    @property
    def lamb(self):
        return self._block("lamb")

    @property
    def q0(self):
        return self._block("q0", 3)

    @property
    def qb(self):
        return self._block("qb", 2)


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
    hvec = np.empty(dm.total)
    for name, per, source in (
        ("lam0", 1, h_of_tet),
        ("q0", 3, h_of_tet),
        ("u", 3, h_of_tet),
        ("s0", 1, h_of_tet),
        ("lamb", 1, h_of_face),
        ("qb", 2, h_of_face),
        ("sb", 1, h_of_face),
    ):
        hvec[dm.block(name)] = np.repeat(source, per)
    floor = hvec[dm.free] ** 3
    d = np.maximum(np.abs(A_ff.diagonal()), floor)
    return 1.0 / np.sqrt(d)


def solve(
    system: GlobalSystem,
    method: str = "auto",
    tol: float | None = None,
    max_iter: int | None = None,
) -> SolutionFields:
    """Solve the reduced system and return all solution fields.

    method "direct" factorizes with a sparse pivoted LU (the assembled
    matrix is symmetric indefinite); "minres" runs diagonally
    preconditioned MINRES; "auto" picks direct up to
    ``DIRECT_DOF_LIMIT`` free unknowns and MINRES beyond.

    The relative residual must reach ``tol`` (default 1e-10 direct,
    1e-8 MINRES) or :class:`SolverError` is raised.
    """
    A_ff, F_f = system.reduced()
    n = len(F_f)
    if method == "auto":
        method = "direct" if n <= DIRECT_DOF_LIMIT else "minres"
    if method not in ("direct", "minres"):
        raise ValueError(f"unknown solver method {method!r}")

    fnorm = np.linalg.norm(F_f)
    t0 = time.perf_counter()
    diagnostics = {"method": method, "num_free": n}
    if fnorm == 0.0:
        x_f = np.zeros(n)
        diagnostics.update(relative_residual=0.0, solve_seconds=0.0)
        return SolutionFields(system.expand(x_f), system.dofmap, diagnostics)

    scale = _equilibration_scale(system, A_ff)
    S = sparse.diags(scale)
    A_s = (S @ A_ff @ S).tocsc()
    F_s = scale * F_f

    if method == "direct":
        accept = 1e-10 if tol is None else tol
        try:
            lu = spla.splu(A_s, permc_spec="COLAMD")
            x_f = scale * lu.solve(F_s)
        except RuntimeError as exc:  # singular factor reports pivot location
            raise SolverError(f"direct factorization failed: {exc}") from exc
        rel = float(np.linalg.norm(A_ff @ x_f - F_f) / fnorm)
        diagnostics.update(
            relative_residual=rel,
            fill_nnz=int(lu.nnz),
            solve_seconds=time.perf_counter() - t0,
        )
        if not np.isfinite(rel) or rel > accept:
            raise SolverError(
                f"direct solve residual {rel:.3e} exceeds {accept:.1e}",
                diagnostics,
            )
    else:
        accept = 1e-8 if tol is None else tol
        if not 0.0 < accept < 1.0:
            raise ValueError("iterative tolerance must be in (0, 1)")
        maxiter = max_iter if max_iter is not None else 60_000
        history = []
        total_iters = 0
        y = np.zeros(n)
        rel = np.inf
        # refinement rounds push past MINRES's stagnation near its own
        # stopping estimate; each round solves for the current defect
        for _ in range(4):
            r_s = F_s - A_s @ y
            count = [0]

            def track(_xk):
                count[0] += 1

            dy, info = spla.minres(
                A_s, r_s, rtol=1e-10, maxiter=maxiter, callback=track
            )
            y = y + dy
            total_iters += count[0]
            x_f = scale * y
            rel = float(np.linalg.norm(A_ff @ x_f - F_f) / fnorm)
            history.append(rel)
            if rel <= accept or info != 0:
                break
        x_f = scale * y
        diagnostics.update(
            relative_residual=rel,
            iterations=total_iters,
            residual_history=history,
            solve_seconds=time.perf_counter() - t0,
        )
        if rel > accept:
            raise SolverError(
                f"MINRES stalled at residual {rel:.3e} after {total_iters} "
                f"iterations (target {accept:.1e})",
                diagnostics,
            )
    return SolutionFields(system.expand(x_f), system.dofmap, diagnostics)


def recover_cavity_constants(
    system: GlobalSystem, base: SolutionFields
) -> SolutionFields:
    """Recover the constant trace value on each cavity component.

    The base solve holds the cavity traces at zero; the constants minimize
    the full-system residual || A (x + sum_i a_i S_i) - F ||_2 over the
    cavity indicator vectors S_i, a small dense least-squares problem.
    On a domain without cavities this is an identity pass-through.
    """
    indicators = system.indicators
    if not indicators:
        return base
    comps = sorted(indicators)
    A, F = system.A, system.F
    x = base.x
    AS = np.column_stack([A @ indicators[c] for c in comps])
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
    for c, a in zip(comps, coeffs):
        x_new += a * indicators[c]
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
