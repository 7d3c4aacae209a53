"""Linear solvers for the saddle-point system and cavity-constant recovery."""

import time
from dataclasses import dataclass, field

import numpy as np
# unused here, but perfbench/tracing.py times scipy calls through this name
import scipy.sparse.linalg as spla

from .assembly import GlobalSystem
from .condense import Condensed, _ruiz_scale

__all__ = [
    "SolutionFields",
    "SolverError",
    "solve",
    "recover_cavity_constants",
    "DIRECT_DOF_LIMIT",
]

# beyond this many free unknowns the automatic method switches to MINRES;
# the multifrontal factor stores 4-byte entries with no index, and their
# number grows like n^(4/3): the study of problem 4 at 1/h = 2, 4, 8 (340k
# free, 78M factor entries) runs in about 2.4 s direct with a 0.60 GB
# peak, against 7.1-7.4 s and 0.21 GB by MINRES on the shifted
# Ruiz-equilibrated condensed system (11 s without the shift, 15 s with
# a Jacobi scale; one fresh process each, 2-core machine)
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


_LEAF_SIZE = 16  # entities per leaf group; 8 to 24 give the same fill, 32 more


def _lattice_groups(keys: np.ndarray) -> np.ndarray:
    """Nested-dissection group ordinal of each entity.

    ``keys`` (N, 3) are exact integer centroids in 1/12-lattice units, so
    the entities on the lattice plane ``x_a = c`` are those with key
    ``12 c``.  Faces lie inside one lattice plane or cross none, and every
    coupling stays within one tet and its four faces, so the faces in a
    lattice plane separate the entities on either side exactly.  Each set
    is split at the plane nearest the middle of its longest axis, or kept
    whole if that axis holds none, as no set of over ``_LEAF_SIZE``
    entities of a lattice mesh does; groups are numbered left, right, then
    separator, down to leaves of ``_LEAF_SIZE`` entities.
    """
    groups = np.empty(len(keys), dtype=np.int64)
    num = 0

    def split(idx):
        """Number the groups of ``idx``, its separator last."""
        nonlocal num
        if len(idx) > _LEAF_SIZE:
            k = keys[idx]
            lo, hi = k.min(axis=0), k.max(axis=0)
            axis = np.argmax(hi - lo)
            first, last = -(-lo[axis] // 12) * 12, hi[axis] // 12 * 12
            if first <= last:
                # the lattice plane nearest the middle, inside [lo, hi]: the
                # separator or one side is non-empty, so every split shrinks
                mid = (lo[axis] + hi[axis] + 12) // 24 * 12
                plane = min(max(mid, first), last)
                side = k[:, axis]
                split(idx[side < plane])
                split(idx[side > plane])
                idx = idx[side == plane]
        if len(idx):
            groups[idx] = num
            num += 1

    split(np.arange(len(keys)))
    return groups


def _lattice_permutation(mesh, dofmap):
    """Fill-reducing order of the free DoFs for the direct solve.

    Nested dissection of the structured mesh's tets and faces by lattice
    planes (George, SIAM J. Numer. Anal. 10, 1973).  DoFs keep their raw
    order within a group, which is immaterial: :class:`_FrontalFactor`
    inverts each pivot block whole.  The (u, u) block is zero, so each
    tet's ``u`` joins the group of the third of its four faces in
    elimination order.  Every face lies in its tet's leaf or in a later
    separator, so ``u`` leaves its leaf only when two of its faces lie on
    separators; waiting for the fourth face would put the ``u`` of every
    tet touching a plane into that plane's separator and double the fill.
    Three faces are likely enough because three face normals of a tet span
    R^3; a two-face rule, measured, fills more and pivots off the diagonal.
    Returns ``p`` with ``A_ff[p][:, p]`` the reordered matrix and the
    ``bounds`` of the groups that hold free DoFs (group ``f`` is
    ``p[bounds[f]:bounds[f + 1]]``).
    """
    ijk = mesh.vertex_ijk
    keys = np.concatenate(
        [3 * ijk[mesh.tets].sum(axis=1), 4 * ijk[mesh.faces].sum(axis=1)]
    )
    groups = _lattice_groups(keys)
    tet_group, face_group = groups[: mesh.num_tets], groups[mesh.num_tets :]
    dof_group = dofmap.per_dof(tet_group, face_group)
    third_face = np.sort(face_group[mesh.tet_faces], axis=1)[:, 2]
    dof_group[dofmap.block("u")] = np.repeat(third_face, 3)
    group = dof_group[dofmap.free]
    p = np.argsort(group, kind="stable")
    first = np.flatnonzero(np.diff(group[p], prepend=-1))
    return p, np.append(first, len(p))


# a front whose pivot block P has an inverse with an entry above this
# passes its variables to its parent front (a delayed pivot); a root
# front has no parent.  :class:`_FrontalFactor` equilibrates the entries
# it reads to a largest |entry| near 1 in every row: on problems 1-7 at
# 1/h <= 8 the healthy blocks have |P^-1| <= 5.76, and the one exactly
# singular block (problems 5 and 7 at 1/h = 2) reads 8.4e6 in float32
# and 4.5e15 in float64.
PIVOT_GROWTH_LIMIT = 1e4


class _FrontalFactor:
    """Multifrontal block LDL^T of a system's ``A_ff``, one front per
    lattice group of :func:`_lattice_permutation`, in permuted positions.

    :meth:`factor` is the numeric phase.  Each front's sorted row list is
    its pivots and its own rows, joined with the row lists its children
    pass up: the pivots that delayed children hold, all earlier, come
    first, and the rows past its own pivots are its update rows.  So the
    list is the front's column of the filled matrix, and its parent is
    the front of its first update row (Liu, SIAM Review 34, 1992).  Each
    front is assembled dense in ``dtype`` from its pivot columns and the
    Schur complements of its children (extend-add), every row landing
    where one search in that list puts it, and its pivot block ``P`` is
    inverted.  It stores ``P^-1`` and ``L21 = F21 P^-1`` (``F12 =
    F21^T``, so there is no ``U`` and no per-entry index) and passes
    ``F22 - L21 F21^T`` to its parent.  Fronts whose pivot blocks are
    bitwise equal share one ``P^-1``.  A front whose ``P^-1`` fails the
    growth test passes its whole front instead, and the parent eliminates
    those variables first (Duff & Reid, ACM TOMS 9, 1983); a root front
    has no update row and no parent, and keeps any finite ``P^-1``.  The
    dense work stays in numpy, whose BLAS the refinement loop also uses:
    alternating two BLAS libraries stalls both thread pools.  ``nnz``
    counts the entries of every front's ``P^-1`` and ``L21``, a shared
    ``P^-1`` once for each front that uses it, and ``delayed`` the
    delayed fronts.
    """

    def __init__(self, system: GlobalSystem):
        """Symbolic phase of the multifrontal factor: one front per lattice group.

        It reduces ``system`` itself, and drops ``A_ff`` once it has read it.
        It reads the scaled matrix ``diag(scale) A_ff diag(scale)``, with the
        max-norm ``scale`` of :func:`~divcurl.condense._ruiz_scale`, without
        forming it: each entry it keeps is ``(scale[i] * scale[j]) * a_ij``,
        the same product for (j, i), so what it keeps is exactly as symmetric
        as ``A_ff``; a row of ``A_ff`` with no nonzero entry raises
        ``LinAlgError``.  Front ``f`` eliminates the permuted positions
        ``bounds[f]:bounds[f+1]`` (its pivots) in the order of
        :func:`_lattice_permutation`.  ``A_ff`` is exactly symmetric, so the
        rows of ``A_ff[p]`` are the columns of the permuted matrix.  Each
        entry keeps its permuted row and its column among its front's pivots;
        ``rows`` holds, per front, the rows of its entries below its pivots,
        sorted and once each (front ``f``'s are ``row_start[f]:row_start[f+1]``,
        its entries ``entry_start[f]:entry_start[f+1]``, and row ``k`` is the
        free DoF ``order[k]``); the numeric phase joins them with the rows that
        each front's children pass up, and reads the front's parent from the
        result.  The entry values stay float64, so that one symbolic phase
        serves a factor of either precision.  ``entry_row`` and ``entry_col``
        are int32.
        """
        A_ff = system.reduced()[0]
        self.scale = scale = _ruiz_scale(A_ff, A_ff.diagonal())
        p, bounds = _lattice_permutation(system.mesh, system.dofmap)
        self.order, self.bounds = p, bounds
        n, num = len(p), len(bounds) - 1
        front = np.repeat(np.arange(num), np.diff(bounds))  # of each permuted position
        # int32 positions halve the memory traffic of the passes over entries
        inv = np.empty(n, dtype=np.int32)
        inv[p] = np.arange(n, dtype=np.int32)
        B = A_ff[p]
        del A_ff
        count = np.diff(B.indptr)
        row = inv[B.indices]
        # a front reads its pivot columns from its first pivot down
        start = bounds[front].astype(np.int32)
        keep = row >= np.repeat(start, count)
        self.entry_col = np.repeat(np.arange(n, dtype=np.int32) - start, count)[keep]
        f = np.repeat(front.astype(np.int32), count)[keep]
        self.entry_value = (
            np.repeat(scale[p], count)[keep] * scale[B.indices[keep]] * B.data[keep]
        )
        self.entry_row = row = row[keep]
        self.entry_start = np.searchsorted(f, np.arange(num + 1))
        off = row >= bounds[1:][f]
        # (front, row) pairs as keys front * n + row, sorted and once each
        keys = np.sort(f[off].astype(np.int64) * n + row[off])
        row_front, self.rows = np.divmod(keys[np.diff(keys, prepend=-1) != 0], n)
        self.row_start = np.searchsorted(row_front, np.arange(num + 1))

    def factor(self, dtype):
        """Numeric phase in ``dtype``; it drops any earlier factor first."""
        bounds, rows, row_start = self.bounds, self.rows, self.row_start
        entry_row, entry_col = self.entry_row, self.entry_col
        value, start = self.entry_value, self.entry_start
        self.blocks, self.nnz, self.delayed = [], 0, 0
        # front -> [(rows, matrix, delayed pivots)]: a child's Schur
        # complement on its update rows, or a delayed front on its pivots
        # and then its update rows
        waiting = {}
        # congruent fronts of the lattice assemble bitwise-equal pivot
        # blocks (724 of 903 on problem 4 at 1/h = 4), which share one
        # inverse: LAPACK's small inverses dominate the factor otherwise
        inverses = {}
        for f in range(len(bounds) - 1):
            s, e = bounds[f], bounds[f + 1]
            # its pivots, then the rows of its own entries below them; a
            # front with children joins their row lists and sorts
            index = np.append(np.arange(s, e), rows[row_start[f] : row_start[f + 1]])
            k = e - s
            children = waiting.pop(f, [])
            if children:
                index = np.sort(np.concatenate([index] + [w for w, _, _ in children]))
                index = index[np.append(True, index[1:] != index[:-1])]
                k += sum(held for _, _, held in children)
            pivots, up, m = index[:k], index[k:], len(index)
            own = slice(start[f], start[f + 1])  # its pivot-column entries
            at = np.searchsorted(index, entry_row[own])
            F = np.zeros((m, m), dtype=dtype)
            # its own pivots follow the held ones; the assignment rounds the
            # float64 values as astype would
            F[at, k - (e - s) + entry_col[own]] = value[own]
            for where, S, _ in children:
                at = np.searchsorted(index, where)
                flat = at[:, None] * m + at
                np.add.at(F.reshape(-1), flat.ravel(), S.ravel())
            P, F21 = F[:k, :k], F[k:, :k]
            key = P.tobytes()
            Pinv = inverses.get(key)
            if Pinv is None:
                try:
                    Pinv = np.linalg.inv(P)
                except np.linalg.LinAlgError:
                    Pinv = P * np.nan
                inverses[key] = Pinv
            # the front of its first update row; a root front has none
            parent = bounds.searchsorted(up[0], "right") - 1 if m > k else -1
            if parent < 0:
                if not np.isfinite(Pinv).all():
                    raise SolverError(f"the pivot block of root front {f} is singular")
            elif not np.abs(Pinv).max() <= PIVOT_GROWTH_LIMIT:  # NaN fails too
                F[:k, k:] = F21.T
                waiting.setdefault(parent, []).append((index, F, k))
                self.delayed += 1
                continue
            L21 = F21 @ Pinv
            S = L21 @ F21.T
            np.subtract(F[k:, k:], S, out=S)
            if parent >= 0:
                waiting.setdefault(parent, []).append((up, S, 0))
            # a front that holds no delayed pivot keeps its own as a slice,
            # which stores nothing and indexes without a copy
            self.blocks.append((pivots if k > e - s else slice(s, e), up, Pinv, L21))
            self.nnz += Pinv.size + L21.size

    def solve(self, b):
        """Solve with the factor; ``b`` and the result are in its dtype."""
        x = b.copy()
        for pivots, up, Pinv, L21 in self.blocks:
            xp = x[pivots]
            x[up] -= L21 @ xp
            x[pivots] = Pinv @ xp
        for pivots, up, Pinv, L21 in reversed(self.blocks):
            x[pivots] -= L21.T @ x[up]
        return x

    def refine(self, system, residual, diagnostics):
        """Solve ``system`` by float32 refinement, else in float64, as
        :func:`solve` describes, reading ``residual``; fill the factor's
        four ``diagnostics`` and return the free DoFs' ``x``, ``r`` and the
        true relative residual.  A float64 factor that breaks down raises."""
        free, scale, order = system.dofmap.free, self.scale, self.order
        for dtype in ("float32", "float64"):
            try:
                self.factor(dtype)
            except RuntimeError:  # a root pivot block broke down
                if dtype == "float64":
                    raise
                continue
            diagnostics.update(
                delayed_fronts=self.delayed, fill_nnz=self.nnz, factor_dtype=dtype
            )
            y, rel, r = np.zeros(len(order)), 1.0, system.F
            # the first solve from y = 0, then up to REFINE_STEPS corrections
            for steps in range(REFINE_STEPS + 1):
                # S r is the residual of the scaled system; normalising it
                # before the cast keeps a tiny residual from underflowing
                r_s = (scale * r[free])[order]
                r_norm = np.linalg.norm(r_s)
                y[order] += r_norm * self.solve((r_s / r_norm).astype(dtype))
                prev = rel
                r, rel = residual(scale * y)
                if rel <= REFINE_TARGET or not rel <= 0.5 * prev:
                    break
            diagnostics["refine_steps"] = steps
            if rel <= REFINE_TARGET:
                break
        return scale * y, r, rel


# the true relative residual each method must reach, or solve raises
ACCEPT = {"direct": 1e-10, "minres": 1e-8}

# on a mesh with a cavity MINRES drives the true relative residual to
# MINRES_TARGET, below its 1e-8 acceptance, where it stops otherwise: the
# cavity least-squares fit of recover_cavity_constants amplifies the solve
# error, and on problem 4 at 1/h=4 the cavity constant of the condensed
# iteration deviates from the direct value by 1.4e-6 (relative) at a 1e-9
# stop, 2.0e-7 at 1e-10 and 1.4e-8 at 1e-11
MINRES_TARGET = 1e-11

# the direct path refines its factor's solves in float64 until the true
# relative residual reaches REFINE_TARGET, within REFINE_STEPS
# corrections after the first solve; from the float32 factor, problems 1-7
# at 1/h <= 8 take 2 or 3, and a float64 factor's first solve suffices
REFINE_TARGET = 1e-13
REFINE_STEPS = 8

# the most MINRES iterations one solve takes in all, however often it
# tightens its threshold; problem 4 at 1/h = 16 takes 7335
MINRES_MAX_ITER = 60_000


def _minres(A, b, residual, target, max_iter):
    """MINRES on symmetric ``A`` from a zero start (Paige & Saunders, 1975).

    The Lanczos and Givens recurrences carry ``|phibar| = ||b - A y||``.
    When it reaches the threshold (first ``target * ||b||``), ``residual(y)``
    gives the true relative residual; above ``target`` the threshold is
    tightened and the same Lanczos sequence continues.  At most ``max_iter``
    iterations in all.  Returns ``(y, iterations, residuals checked)``; a
    zero ``b`` returns y = 0 after 0 iterations.  The vectors are updated
    in place through one scratch vector, so an iteration allocates only
    what ``A @ v`` returns, which becomes the next Lanczos vector.  The
    dots are ``np.einsum`` sums, not BLAS calls: a threaded BLAS dot
    slows the vector update after it several times over on two cores.
    """
    y = np.zeros_like(b)
    beta = np.sqrt(np.einsum("i,i", b, b))
    if beta == 0.0:
        return y, 0, [residual(y)]
    v_old, v = np.zeros_like(b), b * (1.0 / beta)
    w_old, w, t = np.zeros_like(b), np.zeros_like(b), np.empty_like(b)
    cs, sn, dbar, eps_next, phibar = -1.0, 0.0, 0.0, 0.0, beta
    threshold, history = target * beta, []
    for k in range(1, max_iter + 1):
        p = A @ v
        p -= np.multiply(v_old, beta, out=t)
        alpha = np.einsum("i,i", v, p)
        p -= np.multiply(v, alpha, out=t)
        beta = np.sqrt(np.einsum("i,i", p, p))
        # the previous rotation acts on column k of the Lanczos matrix
        eps, delta = eps_next, cs * dbar + sn * alpha
        gbar, eps_next, dbar = sn * dbar - cs * alpha, sn * beta, -cs * beta
        gamma = np.hypot(gbar, beta)
        cs, sn = gbar / gamma, beta / gamma
        phi, phibar = cs * phibar, sn * phibar
        # (v - eps w_old - delta w) / gamma, in the storage of w_old
        w_old *= -eps
        w_old += v
        w_old -= np.multiply(w, delta, out=t)
        w_old *= 1.0 / gamma
        w_old, w = w, w_old
        y += np.multiply(w, phi, out=t)
        if beta == 0.0 or not abs(phibar) > threshold:
            history.append(residual(y))
            # beta = 0: the Krylov space is invariant and y is exact; a NaN
            # recurrence or residual stops the run too
            if beta == 0.0 or not history[-1] > target:
                break
            threshold *= 0.5 * target / history[-1]
        p *= 1.0 / beta
        v_old, v = v, p
    else:
        history.append(residual(y))
    return y, k, history


def solve(system: GlobalSystem, method: str = "auto") -> SolutionFields:
    """Solve the reduced system and return all solution fields.

    method "direct" factorizes the Ruiz-equilibrated matrix (symmetric
    indefinite; :func:`~divcurl.condense._ruiz_scale`, the scale of the
    MINRES path) in float32 with a multifrontal block LDL^T
    (:class:`_FrontalFactor`) whose fronts are the lattice
    nested-dissection groups of :func:`_lattice_permutation`; the scale is
    applied to each entry as the symbolic phase (its constructor) reads it
    from ``A_ff``, so no scaled copy is formed.  It stores 4 bytes per
    factor entry and no index; float64 iterative refinement (Langou et
    al., SC 2006) then corrects the solution from the true residual until
    the true relative residual reaches ``REFINE_TARGET``.  If
    the float32 factor breaks down, a correction fails to halve the
    residual, or ``REFINE_STEPS`` corrections do not suffice, it is
    dropped and the same fronts, from the one symbolic phase, are factored
    in float64 and solved from zero by the same loop.  The diagnostics
    record, for the factor used, ``factor_dtype``, ``refine_steps``
    (corrections after its first solve), ``fill_nnz`` (its entries) and
    ``delayed_fronts`` (fronts whose pivot block failed its test and moved
    to the parent front).  A row of ``A_ff`` that the equilibration cannot
    scale raises :class:`SolverError` before the factor.

    "minres" eliminates each tet's interior unknowns exactly and runs one
    MINRES (:func:`_minres`) on the Ruiz-equilibrated Schur complement of
    the others, shifted to lift the constant-lambda mode and applied
    matrix-free (:class:`~divcurl.condense.Condensed`, which holds the
    scaled entries of ``A_ff`` in place of it).  A singular tet
    block, or a row that the equilibration cannot scale, raises
    :class:`SolverError` before the iteration.  It stops when the true
    relative residual of the full system reaches ``ACCEPT["minres"]``, or
    ``MINRES_TARGET`` on a mesh with a cavity, whose constants
    :func:`recover_cavity_constants` fits from the solution, within
    ``MINRES_MAX_ITER`` iterations in all; ``iterations`` counts those of
    the condensed system.
    "auto" picks direct up to ``DIRECT_DOF_LIMIT`` free unknowns and MINRES
    beyond.

    Both methods read the true residual from one product with the
    assembled matrix, r = F - A x over the raw numbering; the true
    relative residual is ||r_f|| / ||F_f|| over the free rows f, and it
    must reach the method's ``ACCEPT``, or :class:`SolverError` is raised
    with the diagnostics; a load that is not finite, or whose norm
    overflows, raises it before any factor or iteration.  The diagnostics
    of either method hold ``load_incompatibility``, r / ||F_f|| in the row
    that the lam0 pin drops: up to the free rows' residual it is
    F.v / ||F_f||, v the constant-lambda null vector of ``system.A``.
    A zero free load returns x = 0 without it.
    """
    if method not in ("auto", "direct", "minres"):
        raise ValueError(f"unknown solver method {method!r}")
    free, n = system.dofmap.free, system.dofmap.num_free
    if method == "auto":
        method = "direct" if n <= DIRECT_DOF_LIMIT else "minres"

    t0 = time.perf_counter()
    diagnostics = {"method": method, "num_free": n}
    with np.errstate(over="ignore"):  # an overflowing norm is raised below
        fnorm = np.linalg.norm(system.F[free])
    if not np.isfinite(fnorm):  # so is a NaN or infinite entry
        raise SolverError("the load is not finite, or its norm overflows", diagnostics)
    if fnorm == 0.0:
        diagnostics.update(relative_residual=0.0, solve_seconds=0.0)
        return SolutionFields(system.expand(np.zeros(n)), system.dofmap, diagnostics)

    def residual(x_free):
        """r = F - A x, x being ``x_free`` on the free DoFs and zero on the
        constrained ones, and the true relative residual ||r_f|| / ||F_f||."""
        r = system.F - system.A @ system.expand(x_free)
        return r, float(np.linalg.norm(r[free]) / fnorm)

    if method == "direct":
        try:
            x, r, rel = _FrontalFactor(system).refine(system, residual, diagnostics)
        except (RuntimeError, np.linalg.LinAlgError) as exc:
            raise SolverError(
                f"direct factorization failed: {exc}", diagnostics
            ) from exc
    else:
        try:
            condensed = Condensed(system)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"condensation failed: {exc}", diagnostics) from exc
        target = MINRES_TARGET if system.dofmap.cavity_faces else ACCEPT["minres"]
        y, iterations, history = _minres(
            condensed, condensed.b, lambda z: residual(condensed.solution(z))[1],
            target, MINRES_MAX_ITER,
        )
        x = condensed.solution(y)
        r, rel = residual(x)
        diagnostics.update(iterations=iterations, residual_history=history)
    diagnostics.update(
        relative_residual=rel,
        load_incompatibility=float(r[system.dofmap.pinned_lam0] / fnorm),
        solve_seconds=time.perf_counter() - t0,
    )
    accept = ACCEPT[method]
    if not rel <= accept:  # NaN fails too
        raise SolverError(
            f"{method} solve residual {rel:.3e} exceeds {accept:.1e}", diagnostics
        )
    return SolutionFields(system.expand(x), system.dofmap, diagnostics)


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
