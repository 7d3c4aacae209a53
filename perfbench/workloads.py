"""The three benchmark workloads, their seeded variants and their checks.

``ladder_auto`` and ``ladder_minres`` run the same three refinement
studies through ``divcurl.cli.run_study`` (default solver and MINRES);
``discretize_fine`` meshes, assembles and projects six problems at
1/h = 8 without solving.  Every callable of divcurl is looked up on its
module at call time so that the tracer's wrappers, when installed, see
the call.

A seed permutes the order of the studies and picks problem 7's beta from
{1, 5}.  Beta changes only the loads, so the cost is the same; each beta
has its own reference values in ``references.json``.

A pass is made of units, one study or one stage of a discretized problem
each, and records each unit's seconds.  ``best_seconds`` sums, over the
units, the fastest time each unit took in the passes of a run.
"""

import dataclasses
import json
import math
import os
import random
import time
import traceback

import numpy as np

import divcurl.analysis
import divcurl.assembly
import divcurl.cli
import divcurl.mesh
import divcurl.problems
import divcurl.weak_ops
from run import WORKLOADS

REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")

# (example, refinements); problem 7's beta comes from the seed, and the
# problem-7 study also exports the finest level as VTK.  A pass takes
# 6 to 10 s, so a run repeats every study at least three times.
LADDER_STUDIES = ((1, (3, 6)), (4, (2, 4)), (7, (2, 4)))
# A pass takes under 2 s, so a run repeats every stage often enough for its
# fastest time to be steady.  Problem 4 is left out: at 1/h = 8 it would
# have about 340k unknowns, seven times problem 1's, and fill the pass.
DISCRETIZE_PROBLEMS = (1, 2, 3, 5, 6, 7)
DISCRETIZE_N = 8
# each stage of a discretized problem is timed as a unit of its own
DISCRETIZE_STAGES = ("mesh", "assemble", "reduce", "project", "error_u", "error_Qu")
QUAD_DEGREE = 4

# rate windows of tests/test_acceptance.py: example -> (column, lo, hi)
RATE_WINDOWS = {
    1: ("err_u", 0.85, 1.15),
    4: ("err_Qu", 0.55, 0.75),
    7: ("err_Qu", -math.inf, 0.3),  # the harmonic defect stalls the error
}
RESIDUAL_LIMIT = {"direct": 1e-10, "minres": 1e-8}
COUNT_KEYS = ("num_tets", "num_free", "nnz")
# A MINRES solve stops at relative residual 1e-8 and the direct one reruns
# byte for byte; either solver path stays within these of the seed.
VALUE_RTOL = 1e-6
VALUE_ATOL = 1e-12


def variant(seed, count):
    """(beta, permutation of ``count`` studies) chosen by ``seed``."""
    rng = random.Random(seed)
    beta = rng.choice((1.0, 5.0))
    return beta, rng.sample(range(count), count)


def study_key(example, beta):
    return f"p{example}_beta{beta:g}" if example == 7 else f"p{example}"


@dataclasses.dataclass
class Level:
    """Outcome of one refinement level of one pass."""

    key: str
    inv_h: int
    values: dict
    method: str | None = None
    error: str | None = None


@dataclasses.dataclass
class PassResult:
    seconds: float
    free_dofs: int
    levels: list
    units: dict  # study key, or "<problem key>.<stage>" -> seconds


def best_seconds(results):
    """Sum over the units of each unit's fastest time in ``results``.

    On a shared machine other tenants only ever add time, so the fastest
    repeat of a unit is the steadiest estimate of its cost.
    """
    best = {}
    for r in results:
        for key, seconds in r.units.items():
            best[key] = min(seconds, best.get(key, seconds))
    return sum(best.values())


class Plan:
    """Validated inputs of one workload variant, built once per process."""

    def __init__(self, workload, seed, out_dir):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        fine = workload == "discretize_fine"
        self.beta, perm = variant(
            seed, len(DISCRETIZE_PROBLEMS if fine else LADDER_STUDIES)
        )
        self.vtk_path = os.path.join(out_dir, f"fields_{os.getpid()}.vtk")
        if fine:
            self.items = [
                (
                    study_key(ex, self.beta),
                    divcurl.problems.make_problem(
                        ex, **({"beta": self.beta} if ex == 7 else {})
                    ),
                )
                for ex in (DISCRETIZE_PROBLEMS[i] for i in perm)
            ]
            return
        solver = "auto" if workload == "ladder_auto" else "minres"
        self.items = []
        for ex, refs in (LADDER_STUDIES[i] for i in perm):
            config = divcurl.cli.RunConfig(
                example=ex,
                refinements=refs,
                solver=solver,
                beta=self.beta if ex == 7 else None,
                vtk=self.vtk_path if ex == 7 else None,
            ).validate()
            self.items.append((study_key(ex, self.beta), config))

    def run_pass(self, tracer):
        """Run every level once; the time covers only calls into divcurl."""
        tracer.probe = []
        if self.workload == "discretize_fine":
            return self._discretize_pass(tracer)
        return self._ladder_pass(tracer)

    # -- ladders ---------------------------------------------------------

    def _ladder_pass(self, tracer):
        free, levels, units = 0, [], {}
        for key, config in self.items:
            if tracer.enabled:
                config = dataclasses.replace(
                    config, problem_spec=tracer.wrap_problem(config.problem_spec)
                )
            if config.vtk and os.path.exists(config.vtk):
                os.remove(config.vtk)  # the check must see this pass's file
            start = len(tracer.probe)
            t0 = time.perf_counter()
            try:
                report = divcurl.cli.run_study(config)
            except Exception:  # a crashing study fails all of its levels
                units[key] = time.perf_counter() - t0
                err = traceback.format_exc(limit=3)
                levels += [Level(key, n, {}, error=err) for n in config.refinements]
                continue
            units[key] = time.perf_counter() - t0
            levels += self._ladder_levels(key, config, report, tracer.probe[start:])
            free += sum(row["num_free"] for row in report.rows)
        return PassResult(sum(units.values()), free, levels, units)

    def _ladder_levels(self, key, config, report, events):
        reduces = [e for e in events if e[0] == "reduce"]
        solves = [e for e in events if e[0] == "solve"]
        levels = []
        for i, n in enumerate(config.refinements):
            if i >= len(report.rows):
                fail = report.failure or {"message": "level not reached"}
                levels.append(Level(key, n, {}, error=f"run_study: {fail}"))
                continue
            row = report.rows[i]
            values = {k: row.get(k) for k in (
                "num_tets", "num_free", "err_u", "err_Qu", "tnorm_dual",
                "tnorm_s", "cavity_c1", "solver_residual",
            )}
            method = None
            if i < len(reduces) and i < len(solves):
                values["nnz"] = reduces[i][2]
                method = solves[i][1]
            levels.append(Level(key, n, values, method))
        if config.vtk and report.failure is None:
            levels[-1].values["vtk_eta_h"] = _vtk_has_eta(config.vtk)
        return levels

    # -- discretization only ---------------------------------------------

    def _discretize_pass(self, tracer):
        free, levels, units = 0, [], {}
        mesh, asm = divcurl.mesh, divcurl.assembly
        weak, ana = divcurl.weak_ops, divcurl.analysis
        for key, spec in self.items:
            if tracer.enabled:
                spec = tracer.wrap_problem(spec)
            marks = [time.perf_counter()]
            try:
                msh = mesh.build_structured_tet_mesh(spec.domain, DISCRETIZE_N)
                marks.append(time.perf_counter())
                system = asm.assemble_global(spec, msh, quad_degree=QUAD_DEGREE)
                marks.append(time.perf_counter())
                A_ff, F_f = system.reduced()
                marks.append(time.perf_counter())
                qu = weak.project_field(spec.exact_u, msh, QUAD_DEGREE)
                marks.append(time.perf_counter())
                err_u = ana.error_u(spec, qu, msh, QUAD_DEGREE)
                marks.append(time.perf_counter())
                err_Qu = ana.error_Qu(spec, qu, msh, QUAD_DEGREE)
            except Exception:
                err = traceback.format_exc(limit=3)
                levels.append(Level(key, DISCRETIZE_N, {}, error=err))
                continue
            finally:
                marks.append(time.perf_counter())
                for stage, a, b in zip(DISCRETIZE_STAGES, marks, marks[1:]):
                    units[f"{key}.{stage}"] = b - a
            free += A_ff.shape[0]
            asym = (A_ff - A_ff.T).tocoo()
            values = {
                "num_tets": msh.num_tets,
                "num_free": A_ff.shape[0],
                "nnz": int(A_ff.nnz),
                "rhs_norm": float(np.linalg.norm(F_f)),
                "err_u": err_u,
                "err_Qu": err_Qu,
                "asym_max": float(np.abs(asym.data).max()) if asym.nnz else 0.0,
            }
            levels.append(Level(key, DISCRETIZE_N, values))
            del msh, system, A_ff, F_f, qu, asym
        return PassResult(sum(units.values()), free, levels, units)


def _vtk_has_eta(path):
    if not os.path.exists(path):
        return False
    with open(path) as fh:
        return "VECTORS eta_h double" in fh.read()


# -- checks -----------------------------------------------------------------


def load_references():
    with open(REFERENCES) as fh:
        return json.load(fh)


def check_levels(workload, levels, references):
    """Names of failed checks per level, in level order (empty = passed)."""
    refs = references[workload]
    out = []
    for lvl in levels:
        if lvl.error is not None:
            out.append([f"raised: {lvl.error.strip().splitlines()[-1]}"])
            continue
        ref = refs.get(lvl.key, {}).get(str(lvl.inv_h))
        if ref is None:
            out.append([f"no reference for {lvl.key} 1/h={lvl.inv_h}"])
            continue
        out.append(_check_values(lvl, ref))
    _check_rates(levels, out)
    return out


def _check_values(lvl, ref):
    bad = []
    got = lvl.values
    for name, want in ref.items():
        have = got.get(name)
        if name in COUNT_KEYS:
            ok = have == want
        elif want is None:
            ok = have is None
        elif isinstance(want, bool):
            ok = have is want
        elif name == "asym_max":
            ok = have == 0.0
        else:
            ok = have is not None and math.isclose(
                have, want, rel_tol=VALUE_RTOL, abs_tol=VALUE_ATOL
            )
        if not ok:
            bad.append(f"{name}={have!r} (reference {want!r})")
    if "solver_residual" in got:
        limit = RESIDUAL_LIMIT.get(lvl.method)
        res = got["solver_residual"]
        if limit is None or res is None or not res <= limit:
            bad.append(f"solver_residual={res!r} over {limit!r} ({lvl.method})")
    return bad


def _check_rates(levels, out):
    by_study = {}
    for i, lvl in enumerate(levels):
        by_study.setdefault(lvl.key, []).append(i)
    for key, idx in by_study.items():
        example = int(key[1])
        if example not in RATE_WINDOWS or len(idx) < 2:
            continue
        col, lo, hi = RATE_WINDOWS[example]
        for a, b in zip(idx[:-1], idx[1:]):
            coarse = levels[a].values.get(col)
            fine = levels[b].values.get(col)
            if not coarse or not fine:
                continue  # the level itself already failed
            rate = math.log2(coarse / fine)
            if not lo <= rate <= hi:
                out[b].append(f"rate {col}={rate:.3f} outside [{lo}, {hi}]")
