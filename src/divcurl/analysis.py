"""Error quantities, convergence reports, and the per-level pipeline.

The exact multiplier and auxiliary fields of the continuous problem
vanish, so their errors in the stabilizer semi-norms equal the computed
fields themselves:

    tnorm(lam, q) = sqrt(x^T S1 x),    tnorm(s) = sqrt(x^T S2 x).

Both read the global matrix: S1 is its (lam, q) diagonal block and -S2
its (s, s) block.
"""

import csv
import io
import time
from dataclasses import dataclass, field

import numpy as np

from . import assembly, mesh as meshmod, solver
from .assembly import GlobalSystem
from .mesh import Mesh
from .problems import ProblemError, ProblemSpec, evaluate
from .quadrature import TET_REF_MEASURE
from .solver import SolutionFields
from .weak_ops import gauss_blocks, project_field

__all__ = [
    "error_u",
    "error_Qu",
    "cell_error_norms",
    "triple_norm_dual",
    "triple_norm_s",
    "convergence_rates",
    "ConvergenceReport",
    "Level",
    "LevelError",
    "solve_level",
    "ERROR_COLUMNS",
]

ERROR_COLUMNS = ("err_u", "err_Qu", "tnorm_dual", "tnorm_s")


def _weighted_sq(d: np.ndarray, eps: np.ndarray) -> np.ndarray:
    return ((d @ eps) * d).sum(axis=-1)


def _exact_cells(problem, u_h, mesh, degree):
    """Per-element squared weighted errors of ``u_h`` by Gauss quadrature,
    and the cell averages of the exact field, (num_tets,) and (num_tets, 3).

    ``exact_u`` is evaluated one block of tets at a time, so the scratch
    stays at the size of a block and not of the mesh."""
    cellsq, qu = np.empty(mesh.num_tets), np.empty((mesh.num_tets, 3))
    for tets, points, wts in gauss_blocks(mesh.vertices, mesh.tets, degree):
        uex = evaluate("exact_u", problem.exact_u, points, (3,))
        uex = uex.reshape(-1, len(wts), 3)
        diff = uex - u_h[tets, None, :]
        cellsq[tets] = np.einsum("k,tk->t", wts, _weighted_sq(diff, problem.eps))
        qu[tets] = np.einsum("k,tkd->td", wts, uex)
    cellsq *= mesh.geometry.volumes / TET_REF_MEASURE
    qu /= TET_REF_MEASURE
    return cellsq, qu


def _Qu_error(problem, qu, u_h, mesh) -> float:
    sq = _weighted_sq(qu - u_h, problem.eps)
    return float(np.sqrt(np.sum(mesh.geometry.volumes * sq)))


def error_u(
    problem: ProblemSpec, u_h: np.ndarray, mesh: Mesh, quad_degree: int = 4
) -> float:
    """Coefficient-weighted L2 distance between the exact field and the
    piecewise-constant solution, by Gauss quadrature per element."""
    cellsq, _ = _exact_cells(problem, u_h, mesh, quad_degree)
    return float(np.sqrt(np.maximum(cellsq.sum(), 0.0)))


def cell_error_norms(
    problem: ProblemSpec, u_h: np.ndarray, mesh: Mesh, quad_degree: int = 4
) -> np.ndarray:
    """Per-element weighted error norms (for field plots)."""
    cellsq, _ = _exact_cells(problem, u_h, mesh, quad_degree)
    return np.sqrt(np.maximum(cellsq, 0.0))


def error_Qu(
    problem: ProblemSpec, u_h: np.ndarray, mesh: Mesh, quad_degree: int = 4
) -> float:
    """Weighted L2 distance between the cell-average projection of the
    exact field and the solution; the integrand is piecewise constant, so
    the quadrature only enters through the projection.

    This replaces :func:`error_u` as the headline metric when unbounded
    derivatives near a singular edge would make the plain error
    quadrature-dominated (problems 3 and 4).
    """
    qu = project_field(problem.exact_u, mesh, quad_degree)
    return _Qu_error(problem, qu, u_h, mesh)


def _block_energy(system: GlobalSystem, x: np.ndarray, start: int, stop: int) -> float:
    """y^T A y for y equal to ``x`` on the raw DoFs [start, stop), zero
    elsewhere.  On a diagonal block of ``A`` this is bitwise the product
    with the block alone: the other terms are exact zeros."""
    y = np.zeros_like(x)
    y[start:stop] = x[start:stop]
    return float(y @ (system.A @ y))


def triple_norm_dual(system: GlobalSystem, sol: SolutionFields) -> float:
    """Stabilizer semi-norm of the multiplier pair: sqrt(x^T S1 x), with
    S1 the (lam, q) diagonal block of ``A``."""
    q = _block_energy(system, sol.x, 0, system.dofmap.offsets["u"][0])
    return float(np.sqrt(max(q, 0.0)))


def triple_norm_s(system: GlobalSystem, sol: SolutionFields) -> float:
    """Stabilizer semi-norm of the auxiliary field: sqrt(x^T S2 x), with
    -S2 the (s, s) diagonal block of ``A``."""
    dm = system.dofmap
    # 0.0 - e negates exactly and keeps a zero energy +0.0
    q = 0.0 - _block_energy(system, sol.x, dm.offsets["s0"][0], dm.total)
    return float(np.sqrt(max(q, 0.0)))


def convergence_rates(errors) -> list:
    """log2 reduction factors between consecutive levels with h halved.

    Entries are ``None`` where a level has zero error (rate undefined).
    """
    rates = []
    for coarse, fine in zip(errors[:-1], errors[1:]):
        if coarse is None or fine is None or coarse <= 0.0 or fine <= 0.0:
            rates.append(None)
        else:
            rates.append(float(np.log2(coarse / fine)))
    return rates


@dataclass
class ConvergenceReport:
    """Per-refinement errors and log2 rates for one problem.

    Rows are dicts with keys ``inv_h, h, num_tets, num_free`` plus the
    four error columns of ``ERROR_COLUMNS`` and optional solver metadata.
    """

    example: int
    params: dict = field(default_factory=dict)
    rows: list = field(default_factory=list)
    failure: dict | None = None

    def add_row(self, **row):
        self.rows.append(row)

    def rates(self, column: str) -> list:
        return convergence_rates([row.get(column) for row in self.rows])

    def _cells(self, value: str, rate: str, blank: str):
        """Yield each row and its error cells: each error column in format
        ``value``, then its rate in format ``rate`` (``blank`` if undefined)."""
        rates = {col: [None] + self.rates(col) for col in ERROR_COLUMNS}
        for i, row in enumerate(self.rows):
            cells = []
            for col in ERROR_COLUMNS:
                r = rates[col][i]
                cells += [format(row[col], value),
                          blank if r is None else format(r, rate)]
            yield row, cells

    def to_markdown(self) -> str:
        header = ["1/h"]
        for col in ERROR_COLUMNS:
            header += [col, "rate"]
        out = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
        for row, cells in self._cells(".6e", ".2f", "--"):
            out.append("| " + " | ".join([f"{row['inv_h']:g}", *cells]) + " |")
        meta = [f"problem {self.example}"]
        meta += [f"{k}={v}" for k, v in self.params.items()]
        if self.failure:
            meta.append(f"FAILED at level {self.failure.get('inv_h')}: "
                        f"{self.failure.get('message')}")
        return "\n".join(out + ["", "; ".join(meta), ""])

    def to_csv(self) -> str:
        """Stable schema: example, inv_h, h, num_tets, num_free, the four
        error columns each followed by its rate, cavity constant, solver
        residual."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        cols = ["example", "inv_h", "h", "num_tets", "num_free"]
        for col in ERROR_COLUMNS:
            cols += [col, f"rate_{col}"]
        cols += ["cavity_c1", "solver_residual"]
        writer.writerow(cols)
        for row, cells in self._cells(".12e", ".12e", ""):
            c1 = row.get("cavity_c1")
            writer.writerow([
                self.example,
                f"{row['inv_h']:g}",
                f"{row['h']:.12e}",
                row["num_tets"],
                row["num_free"],
                *cells,
                "" if c1 is None else f"{c1:.12e}",
                f"{row.get('solver_residual', float('nan')):.6e}",
            ])
        return buf.getvalue()


class LevelError(Exception):
    """A refinement level failed in ``stage`` (mesh, assemble, solve or
    errors); the original error is the ``__cause__``."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(str(cause))
        self.stage = stage


@dataclass
class Level:
    """One solved refinement level; ``qu`` holds the cell averages of the
    exact field and ``row`` is the level's report row."""

    mesh: Mesh
    system: GlobalSystem
    sol: SolutionFields
    qu: np.ndarray
    cell_errors: np.ndarray
    row: dict


def solve_level(
    problem: ProblemSpec,
    n: int,
    solver_method: str = "auto",
    quad_degree: int = 4,
) -> Level:
    """Mesh at 1/h = ``n``, assemble, solve, recover the cavity constants
    and measure the errors.

    ``exact_u`` is evaluated once at each Gauss point, one block of tets at
    a time; ``err_u``, the cell errors, ``qu`` and ``err_Qu`` all derive
    from that one pass."""
    t0 = time.perf_counter()
    stage = "mesh"
    try:
        msh = meshmod.build_structured_tet_mesh(problem.domain, n)
        stage = "assemble"
        system = assembly.assemble_global(problem, msh, quad_degree=quad_degree)
        stage = "solve"
        sol = solver.solve(system, method=solver_method)
        sol = solver.recover_cavity_constants(system, sol)
        stage = "errors"
        cellsq, qu = _exact_cells(problem, sol.u, msh, quad_degree)
        cells = np.sqrt(np.maximum(cellsq, 0.0))
        row = {
            "inv_h": n,
            "h": msh.h,
            "num_tets": msh.num_tets,
            "num_free": system.dofmap.num_free,
            "err_u": float(np.sqrt(np.maximum(cellsq.sum(), 0.0))),
            "err_Qu": _Qu_error(problem, qu, sol.u, msh),
            "tnorm_dual": triple_norm_dual(system, sol),
            "tnorm_s": triple_norm_s(system, sol),
            "solver_residual": sol.diagnostics.get("relative_residual"),
            "seconds": time.perf_counter() - t0,
        }
        if sol.cavity_constants:
            diag = sol.diagnostics
            row["cavity_c1"] = sol.cavity_constants.get(1)
            row["residual_before_recovery"] = diag.get("raw_residual_before")
            row["residual_after_recovery"] = diag.get("raw_residual_after")
    except (meshmod.MeshError, ProblemError, solver.SolverError, MemoryError) as exc:
        raise LevelError(stage, exc) from exc
    return Level(msh, system, sol, qu, cells, row)
