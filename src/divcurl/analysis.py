"""Error quantities, convergence reports, and discrete harmonic fields.

The exact multiplier and auxiliary fields of the continuous problem
vanish, so their errors in the stabilizer semi-norms equal the computed
fields themselves:

    tnorm(lam, q) = sqrt(x^T S1 x),    tnorm(s) = sqrt(x^T S2 x).
"""

import csv
import io
import warnings
from dataclasses import dataclass, field

import numpy as np

from .assembly import GlobalSystem, assemble_global
from .mesh import Mesh
from .problems import ProblemSpec
from .quadrature import TET_REF_MEASURE, map_to_tetrahedra, tetrahedron_rule
from .solver import SolutionFields, recover_cavity_constants, solve
from .weak_ops import project_field

__all__ = [
    "error_u",
    "error_Qu",
    "cell_error_norms",
    "triple_norm_dual",
    "triple_norm_s",
    "convergence_rates",
    "ConvergenceReport",
    "extract_discrete_harmonic",
    "ERROR_COLUMNS",
]

ERROR_COLUMNS = ("err_u", "err_Qu", "tnorm_dual", "tnorm_s")


def _weighted_sq(d: np.ndarray, eps: np.ndarray) -> np.ndarray:
    return np.einsum("...d,de,...e->...", d, eps, d)


def _cell_sq_errors(problem, u_h, mesh, quad_degree) -> np.ndarray:
    """Per-element squared weighted errors by Gauss quadrature."""
    pts, wts = tetrahedron_rule(quad_degree)
    phys = map_to_tetrahedra(pts, mesh.vertices[mesh.tets])
    uex = problem.exact_u(phys.reshape(-1, 3)).reshape(mesh.num_tets, -1, 3)
    diff = uex - u_h[:, None, :]
    cellsq = np.einsum("k,tk->t", wts, _weighted_sq(diff, problem.eps))
    return cellsq * (mesh.geometry.volumes / TET_REF_MEASURE)


def error_u(
    problem: ProblemSpec, u_h: np.ndarray, mesh: Mesh, quad_degree: int = 4
) -> float:
    """Coefficient-weighted L2 distance between the exact field and the
    piecewise-constant solution, by Gauss quadrature per element."""
    cellsq = _cell_sq_errors(problem, u_h, mesh, quad_degree)
    return float(np.sqrt(np.maximum(cellsq.sum(), 0.0)))


def cell_error_norms(
    problem: ProblemSpec, u_h: np.ndarray, mesh: Mesh, quad_degree: int = 4
) -> np.ndarray:
    """Per-element weighted error norms (for field plots)."""
    return np.sqrt(np.maximum(_cell_sq_errors(problem, u_h, mesh, quad_degree), 0.0))


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
    diff = qu - u_h
    volumes = mesh.geometry.volumes
    return float(np.sqrt(np.sum(volumes * _weighted_sq(diff, problem.eps))))


def triple_norm_dual(system: GlobalSystem, sol: SolutionFields) -> float:
    """Stabilizer semi-norm of the multiplier pair: sqrt(x^T S1 x)."""
    q = float(sol.x @ (system.S1 @ sol.x))
    return float(np.sqrt(max(q, 0.0)))


def triple_norm_s(system: GlobalSystem, sol: SolutionFields) -> float:
    """Stabilizer semi-norm of the auxiliary field: sqrt(x^T S2 x)."""
    q = float(sol.x @ (system.S2 @ sol.x))
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

    def errors(self, column: str) -> list:
        return [row.get(column) for row in self.rows]

    def rates(self, column: str) -> list:
        return convergence_rates(self.errors(column))

    def _table(self):
        header = ["1/h"]
        for col in ERROR_COLUMNS:
            header += [col, "rate"]
        body = []
        rates = {col: self.rates(col) for col in ERROR_COLUMNS}
        for i, row in enumerate(self.rows):
            line = [f"{row['inv_h']:g}"]
            for col in ERROR_COLUMNS:
                line.append(f"{row[col]:.6e}")
                r = rates[col][i - 1] if i > 0 else None
                line.append("--" if r is None else f"{r:.2f}")
            body.append(line)
        return header, body

    def to_markdown(self) -> str:
        header, body = self._table()
        out = ["| " + " | ".join(header) + " |"]
        out.append("|" + "---|" * len(header))
        out += ["| " + " | ".join(line) + " |" for line in body]
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
        rates = {col: self.rates(col) for col in ERROR_COLUMNS}
        for i, row in enumerate(self.rows):
            line = [
                self.example,
                f"{row['inv_h']:g}",
                f"{row['h']:.12e}",
                row["num_tets"],
                row["num_free"],
            ]
            for col in ERROR_COLUMNS:
                line.append(f"{row[col]:.12e}")
                r = rates[col][i - 1] if i > 0 else None
                line.append("" if r is None else f"{r:.12e}")
            c1 = row.get("cavity_c1")
            line.append("" if c1 is None else f"{c1:.12e}")
            line.append(f"{row.get('solver_residual', float('nan')):.6e}")
            writer.writerow(line)
        return buf.getvalue()

    def write_csv(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_csv())

    def write_markdown(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_markdown())


def extract_discrete_harmonic(
    problem: ProblemSpec,
    mesh: Mesh,
    solver_method: str = "auto",
    quad_degree: int = 4,
    **stab_params,
):
    """Discrete harmonic field with vanishing normal trace.

    Solves the primal-dual system for the loads induced by the problem's
    generator field u and returns ``eta = Q_h u - u_h`` (per-tet vectors)
    together with the solution and system.  On a simply connected domain
    the field is a discretization artifact and decays under refinement; a
    warning is issued in that case.
    """
    if problem.domain.betti1 == 0:
        warnings.warn(
            "domain is simply connected: the harmonic field vanishes in "
            "the limit",
            stacklevel=2,
        )
    system = assemble_global(problem, mesh, quad_degree=quad_degree, **stab_params)
    sol = solve(system, method=solver_method)
    sol = recover_cavity_constants(system, sol)
    qu = project_field(problem.exact_u, mesh, quad_degree)
    return qu - sol.u, sol, system
