"""Batch convergence-study driver.

Runs a refinement ladder for one of the built-in problems, reports the
error table, and optionally exports CSV / Markdown / VTK artifacts.

Exit codes: 0 success, 1 solver failure, 2 invalid configuration,
3 selftest failure.
"""

import argparse
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import analysis, assembly, mesh as meshmod, problems, solver, weak_ops
from .invariants import (
    commutativity_defect,
    kernel_identity_defect,
    load_oracle_defect,
    patch_test_defects,
    system_defects,
)

__all__ = ["RunConfig", "ConfigError", "run_study", "selftest", "main"]


class ConfigError(ValueError):
    """Invalid run configuration."""


@dataclass
class RunConfig:
    """Validated study configuration (see module docstring for the CLI)."""

    example: int
    refinements: tuple = (2, 4, 8)
    rho1: float = 1.0
    rho2: float = 1.0
    rho3: float = 1.0
    gamma_exp: float = -1.0
    quad_degree: int = 4
    solver: str = "auto"
    tol: float | None = None
    csv: str | None = None
    md: str | None = None
    vtk: str | None = None
    gamma: float | None = None
    beta: float | None = None
    problem_spec: object = None  # filled by validate()

    def validate(self):
        if self.example not in range(1, 8):
            raise ConfigError(f"example must be 1..7, got {self.example}")
        refs = tuple(int(n) for n in self.refinements)
        if len(refs) < 1 or any(n < 1 for n in refs):
            raise ConfigError(f"bad refinement ladder {refs}")
        for a, b in zip(refs[:-1], refs[1:]):
            if b != 2 * a:
                raise ConfigError(
                    f"refinements must double at each level, got {refs}"
                )
        self.refinements = refs
        for name in ("rho1", "rho2", "rho3"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.gamma_exp < -1:
            raise ConfigError("gamma-exp must be >= -1")
        if self.quad_degree < 1:
            raise ConfigError("quad-degree must be >= 1")
        if self.solver not in ("auto", "direct", "minres"):
            raise ConfigError(f"unknown solver {self.solver!r}")
        if self.tol is not None and not 0 < self.tol < 1:
            raise ConfigError("tol must be in (0, 1)")
        params = {}
        if self.gamma is not None:
            params["gamma"] = self.gamma
        if self.beta is not None:
            params["beta"] = self.beta
        try:
            spec = problems.make_problem(self.example, **params)
        except problems.ProblemError as exc:
            raise ConfigError(str(exc)) from exc
        self.problem_spec = spec
        return self


def run_study(config: RunConfig):
    """Mesh, assemble, solve, and measure every refinement level.

    Returns a :class:`ConvergenceReport`; a failing level is recorded on
    the report and later levels are skipped, completed levels are kept.
    """
    problem = config.problem_spec or config.validate().problem_spec
    report = analysis.ConvergenceReport(
        example=config.example,
        params={
            **problem.params,
            "rho1": config.rho1,
            "rho2": config.rho2,
            "rho3": config.rho3,
            "gamma_exp": config.gamma_exp,
            "quad_degree": config.quad_degree,
        },
    )
    vtk_payload = None
    for n in config.refinements:
        t0 = time.perf_counter()
        stage = "mesh"
        try:
            msh = meshmod.build_structured_tet_mesh(problem.domain, n)
            stage = "assemble"
            system = assembly.assemble_global(
                problem,
                msh,
                rho1=config.rho1,
                rho2=config.rho2,
                rho3=config.rho3,
                gamma_exp=config.gamma_exp,
                quad_degree=config.quad_degree,
            )
            stage = "solve"
            sol = solver.solve(system, method=config.solver, tol=config.tol)
            sol = solver.recover_cavity_constants(system, sol)
            stage = "errors"
            row = {
                "inv_h": n,
                "h": msh.h,
                "num_tets": msh.num_tets,
                "num_free": system.dofmap.num_free,
                "err_u": analysis.error_u(problem, sol.u, msh, config.quad_degree),
                "err_Qu": analysis.error_Qu(problem, sol.u, msh, config.quad_degree),
                "tnorm_dual": analysis.triple_norm_dual(system, sol),
                "tnorm_s": analysis.triple_norm_s(system, sol),
                "solver_residual": sol.diagnostics.get("relative_residual"),
                "seconds": time.perf_counter() - t0,
            }
            if sol.cavity_constants:
                row["cavity_c1"] = sol.cavity_constants.get(1)
                row["residual_before_recovery"] = sol.diagnostics.get(
                    "raw_residual_before"
                )
                row["residual_after_recovery"] = sol.diagnostics.get(
                    "raw_residual_after"
                )
            report.add_row(**row)
            if config.vtk:
                vtk_payload = (msh, problem, sol, system)
        except (meshmod.MeshError, solver.SolverError, MemoryError) as exc:
            report.failure = {"inv_h": n, "stage": stage, "message": str(exc)}
            break
    if config.csv:
        report.write_csv(config.csv)
    if config.md:
        report.write_markdown(config.md)
    if config.vtk and vtk_payload is not None:
        _write_fields_vtk(config.vtk, *vtk_payload, quad_degree=config.quad_degree)
    return report


def _write_fields_vtk(path, msh, problem, sol, system, quad_degree=4):
    qu = weak_ops.project_field(problem.exact_u, msh, quad_degree)
    data = {
        "u_h": sol.u,
        "Qu": qu,
        "cell_error": analysis.cell_error_norms(problem, sol.u, msh, quad_degree),
    }
    if problem.domain.betti1 > 0:
        data["eta_h"] = qu - sol.u
    meshmod.write_vtk(msh, path, data)


# -- selftest -----------------------------------------------------------


def selftest(seed: int = 20240901) -> bool:
    """Run the :mod:`divcurl.invariants` checks, one status line each."""
    rng = np.random.default_rng(seed)
    cube = meshmod.build_structured_tet_mesh(meshmod.build_domain(1), 1)

    def symmetric_psd():
        asymmetry, min_energy = system_defects(rng, 20)
        return asymmetry == 0.0 and min_energy >= -1e-12

    suites = [
        ("kernel identities", lambda: kernel_identity_defect(cube, rng) < 1e-12),
        ("projection commutativity", lambda: commutativity_defect(rng, 200) < 1e-11),
        ("patch test", lambda: max(patch_test_defects()) <= 1e-8),
        ("system symmetry and semidefiniteness", symmetric_psd),
        ("finite-difference load oracle", lambda: load_oracle_defect(rng) < 1e-5),
    ]
    all_ok = True
    for name, fn in suites:
        try:
            ok, note = bool(fn()), ""
        except Exception as exc:  # a crashing suite is a failing suite
            ok, note = False, f": {exc}"
        print(f"[{'ok' if ok else 'FAIL'}] {name}{note}")
        all_ok &= ok
    return all_ok


# -- argument handling ---------------------------------------------------


def _parse_config_file(path) -> dict:
    """key = value lines; '#' starts a comment; lists are comma separated."""
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            out[key.replace("-", "_")] = value
    return out


_INT_KEYS = {"example", "quad_degree"}
_FLOAT_KEYS = {"rho1", "rho2", "rho3", "gamma_exp", "tol", "gamma", "beta"}
_STR_KEYS = {"solver", "csv", "md", "vtk"}


def _coerce(key, value):
    try:
        if key == "refinements":
            return tuple(int(tok) for tok in str(value).replace(",", " ").split())
        if key in _INT_KEYS:
            return int(value)
        if key in _FLOAT_KEYS:
            return float(value)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {value!r}") from exc
    if key in _STR_KEYS:
        return str(value)
    raise ConfigError(f"unknown configuration key {key!r}")


def _build_parser():
    p = argparse.ArgumentParser(
        prog="divcurl",
        description="Convergence studies for the primal-dual weak Galerkin "
        "div-curl solver.",
    )
    p.add_argument("--example", type=int, help="problem id 1..7")
    p.add_argument(
        "--refinements",
        type=int,
        nargs="+",
        help="cells per unit length per level (default 2 4 8, each double "
        "the previous)",
    )
    p.add_argument("--rho1", type=float, help="multiplier stabilizer weight")
    p.add_argument("--rho2", type=float, help="vector stabilizer weight")
    p.add_argument("--rho3", type=float, help="auxiliary stabilizer weight")
    p.add_argument(
        "--gamma-exp", type=float, dest="gamma_exp",
        help="auxiliary stabilizer mesh-power (>= -1, default -1)",
    )
    p.add_argument("--quad-degree", type=int, dest="quad_degree")
    p.add_argument("--solver", choices=("auto", "direct", "minres"))
    p.add_argument("--tol", type=float, help="solver residual acceptance")
    p.add_argument("--csv", help="write the report as CSV")
    p.add_argument("--md", help="write the report as a Markdown table")
    p.add_argument("--vtk", help="write solution fields (finest level)")
    p.add_argument("--gamma", type=float, help="singularity exponent (problem 5)")
    p.add_argument("--beta", type=float, help="smooth-part strength (problem 7)")
    p.add_argument("--seed", type=int, default=20240901, help="--selftest seed")
    p.add_argument("--config", help="key = value file; flags take precedence")
    p.add_argument(
        "--selftest", action="store_true", help="run invariant checks and exit"
    )
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.selftest:
        return 0 if selftest(args.seed) else 3

    try:
        settings = {}
        if args.config:
            for key, raw in _parse_config_file(args.config).items():
                settings[key] = _coerce(key, raw)
        for key in (
            "example refinements rho1 rho2 rho3 gamma_exp quad_degree "
            "solver tol csv md vtk gamma beta".split()
        ):
            value = getattr(args, key)
            if value is not None:
                settings[key] = value
        if "example" not in settings:
            raise ConfigError("--example is required (or provide it in --config)")
        config = RunConfig(**settings).validate()
    except (ConfigError, TypeError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    report = run_study(config)
    print(report.to_markdown())
    if report.failure:
        print(
            f"level 1/h={report.failure['inv_h']} failed during "
            f"{report.failure['stage']}: {report.failure['message']}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
