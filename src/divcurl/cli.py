"""Batch convergence-study driver.

Runs a refinement ladder for one of the built-in problems, reports the
error table, and optionally exports CSV / Markdown / VTK artifacts.

Exit codes: 0 success, 1 solver failure, 2 invalid configuration.
"""

import argparse
import dataclasses
import os
import sys
from numbers import Integral

from . import analysis, assembly, mesh as meshmod, problems
from .mesh import _numeric

__all__ = ["RunConfig", "ConfigError", "run_study", "main"]


class ConfigError(ValueError):
    """Invalid run configuration."""


@dataclasses.dataclass
class RunConfig:
    """Validated study configuration (see module docstring for the CLI)."""

    example: int
    refinements: tuple = (2, 4, 8)
    quad_degree: int = 4
    solver: str = "auto"
    csv: str | None = None
    md: str | None = None
    vtk: str | None = None
    gamma: float | None = None
    beta: float | None = None
    problem_spec: object = None  # filled by validate()

    def validate(self):
        try:
            refs = tuple(self.refinements)
        except TypeError:
            raise ConfigError(f"bad refinement ladder {self.refinements!r}") from None
        if not refs or not all(_numeric(n, Integral) and n >= 1 for n in refs):
            raise ConfigError(f"bad refinement ladder {refs}")
        refs = tuple(map(int, refs))
        for a, b in zip(refs[:-1], refs[1:]):
            if b != 2 * a:
                raise ConfigError(
                    f"refinements must double at each level, got {refs}"
                )
        self.refinements = refs
        if not (_numeric(self.quad_degree, Integral) and self.quad_degree >= 1):
            raise ConfigError("quad-degree must be an integer >= 1")
        if self.solver not in ("auto", "direct", "minres"):
            raise ConfigError(f"unknown solver {self.solver!r}")
        for name in ("csv", "md", "vtk"):
            path = getattr(self, name)
            parent = os.path.dirname(path or "") or "."
            if path and (os.path.isdir(path) or not os.path.isdir(parent)):
                raise ConfigError(f"{name}: cannot write a file at {path!r}")
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
            **problem.params, **assembly.STABILIZER, "quad_degree": config.quad_degree
        },
    )
    vtk_fields = None
    for n in config.refinements:
        try:
            level = analysis.solve_level(problem, n, config.solver, config.quad_degree)
        except analysis.LevelError as exc:
            report.failure = {"inv_h": n, "stage": exc.stage, "message": str(exc)}
            break
        report.add_row(**level.row)
        if config.vtk:
            data = {"u_h": level.sol.u, "Qu": level.qu, "cell_error": level.cell_errors}
            if level.mesh.betti1 > 0:
                data["eta_h"] = level.qu - level.sol.u
            vtk_fields = level.mesh, data
        del level  # free this level's system before the next one is built
    for path, text in ((config.csv, report.to_csv), (config.md, report.to_markdown)):
        if path:
            with open(path, "w") as fh:
                fh.write(text())
    if vtk_fields is not None:
        meshmod.write_vtk(vtk_fields[0], config.vtk, vtk_fields[1])
    return report


# -- argument handling ---------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports a bad flag or value as a ConfigError instead of exiting."""

    def error(self, message):
        raise ConfigError(message)


# the study settings, which flags and --config keys name alike
_SETTINGS = {f.name for f in dataclasses.fields(RunConfig)} - {"problem_spec"}


def _config_tokens(path) -> list:
    """Flag tokens for the key = value lines of ``path``; '#' starts a comment."""
    tokens = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, eq, value = (part.strip() for part in line.partition("="))
            name = key.replace("-", "_")
            if not eq or name not in _SETTINGS:
                raise ConfigError(f"{path}:{lineno}: unknown setting in {line!r}")
            flag = "--" + name.replace("_", "-")
            if name == "refinements":
                tokens += [flag, *value.replace(",", " ").split()]
            else:
                tokens.append(f"{flag}={value}")
    return tokens


def _build_parser():
    p = _Parser(
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
    p.add_argument("--quad-degree", type=int, dest="quad_degree")
    p.add_argument("--solver", choices=("auto", "direct", "minres"))
    p.add_argument("--csv", help="write the report as CSV")
    p.add_argument("--md", help="write the report as a Markdown table")
    p.add_argument("--vtk", help="write solution fields (last completed level)")
    p.add_argument("--gamma", type=float, help="singularity exponent (problem 5)")
    p.add_argument("--beta", type=float, help="smooth-part strength (problem 7)")
    p.add_argument("--config", help="key = value file; flags take precedence")
    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # argparse keeps a flag's last value, so the flags win
            args = parser.parse_args(_config_tokens(args.config) + argv)
        settings = {
            k: v for k, v in vars(args).items() if k in _SETTINGS and v is not None
        }
        if "example" not in settings:
            raise ConfigError("--example is required (or provide it in --config)")
        config = RunConfig(**settings).validate()
    except (ConfigError, OSError, UnicodeDecodeError) as exc:
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
