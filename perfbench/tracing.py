"""Spans around the public functions of each divcurl module.

The tracer records one span per call of a wrapped function: its name, its
start and end (``time.perf_counter``) and the index of the enclosing span.
Spans stay in memory; ``layer_metrics`` turns one pass worth of spans and
counts into the per-layer metrics of the benchmark.

Every wrapper is installed where the caller looks the name up: a module
attribute (``divcurl.assembly.assemble_s1`` is read by ``assemble_global``
at call time), the ``GlobalSystem.reduced`` class attribute, and a proxy
in place of ``divcurl.solver.spla`` so that ``splu`` and ``minres`` are
timed without patching scipy for anyone else.  ``uninstall`` restores
every original object.

The problem callables (``exact_u``, ``f``, ``g`` and the boundary field
behind ``phi1``) cannot be patched in a module; ``wrap_problem`` returns a
copy of a ``ProblemSpec`` whose callables are wrapped.
"""

import dataclasses
import functools
import os
import time

# (module, attribute, span name); the span name's prefix is its layer
MODULE_TARGETS = (
    ("divcurl.mesh", "build_structured_tet_mesh", "mesh.build"),
    ("divcurl.mesh", "write_vtk", "mesh.write_vtk"),
    ("divcurl.assembly", "build_dof_map", "assembly.dofmap"),
    ("divcurl.assembly", "assemble_s1", "assembly.s1"),
    ("divcurl.assembly", "assemble_s2", "assembly.s2"),
    ("divcurl.assembly", "assemble_Bh", "assembly.bh"),
    ("divcurl.assembly", "assemble_rhs", "assembly.rhs"),
    ("divcurl.assembly", "assemble_global", "assembly.global"),
    ("divcurl.weak_ops", "project_field", "weak_ops.project"),
    ("divcurl.analysis", "project_field", "weak_ops.project"),
    ("divcurl.analysis", "error_u", "analysis.error_u"),
    ("divcurl.analysis", "error_Qu", "analysis.error_Qu"),
    ("divcurl.analysis", "cell_error_norms", "analysis.cell_error"),
    ("divcurl.analysis", "triple_norm_dual", "analysis.tnorm"),
    ("divcurl.analysis", "triple_norm_s", "analysis.tnorm"),
    ("divcurl.solver", "solve", "solver.solve"),
    ("divcurl.solver", "recover_cavity_constants", "solver.recover"),
    ("divcurl.cli", "run_study", "cli.run_study"),
)


class _ScipyProxy:
    """Stands in for ``scipy.sparse.linalg`` inside ``divcurl.solver``."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """Span and counter store; ``enabled`` False records nothing.

    When disabled the installed wrappers still append the results of
    ``GlobalSystem.reduced`` and ``solver.solve`` to ``probe``, so that
    untraced runs can check the matrix size and the solver method of
    every level.
    """

    def __init__(self):
        self.enabled = False
        self.spans = []  # [name, start, end, parent]
        self.counts = {}
        self.probe = []  # ("reduce", free, nnz) / ("solve", method, residual)
        self._stack = []
        self._saved = []

    # -- recording -----------------------------------------------------

    def reset(self):
        self.spans, self.counts, self.probe, self._stack = [], {}, [], []

    def count(self, name, value=1):
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + value

    def maxcount(self, name, value):
        if self.enabled:
            self.counts[name] = max(self.counts.get(name, value), value)

    def wrap(self, name, fn, after=None):
        """Time ``fn`` as span ``name``; ``after(result, args)`` runs
        outside the span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                out = fn(*args, **kwargs)
            else:
                parent = self._stack[-1] if self._stack else -1
                idx = len(self.spans)
                self.spans.append([name, time.perf_counter(), None, parent])
                self._stack.append(idx)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    self.spans[idx][2] = time.perf_counter()
                    self._stack.pop()
            if after is not None:
                after(out, args)
            return out

        return wrapper

    # -- installation --------------------------------------------------

    def _patch(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, full=True):
        """Wrap every target, or with ``full`` False only the two the
        level checks read (``GlobalSystem.reduced`` and ``solver.solve``)."""
        import importlib

        import divcurl.assembly
        import divcurl.solver

        for modname, attr, name in MODULE_TARGETS:
            if not full and name != "solver.solve":
                continue
            mod = importlib.import_module(modname)
            after = {
                "mesh.write_vtk": self._after_write_vtk,
                "solver.solve": self._after_solve,
            }.get(name)
            self._patch(mod, attr, self.wrap(name, getattr(mod, attr), after))
        gs = divcurl.assembly.GlobalSystem
        self._patch(
            gs, "reduced", self.wrap("assembly.reduce", gs.reduced, self._after_reduce)
        )
        if not full:
            return
        spla = divcurl.solver.spla
        proxy = _ScipyProxy(
            spla,
            splu=self.wrap("solver.splu", spla.splu, self._after_splu),
            minres=self.wrap("solver.minres", spla.minres, self._after_minres),
        )
        self._patch(divcurl.solver, "spla", proxy)

    def uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def wrap_problem(self, spec):
        """Copy of ``spec`` whose callables count as the problems layer.

        ``phi1`` reads ``normal_trace_field or exact_u``; the copy always
        sets ``normal_trace_field`` so that boundary data counts as a load
        and not as an evaluation of the exact field.
        """

        def exact_points(out, args):
            self.count("problems.exact_u_calls")
            self.count("problems.exact_u_points", len(args[0]))

        return dataclasses.replace(
            spec,
            exact_u=self.wrap("problems.exact_u", spec.exact_u, exact_points),
            f=self.wrap("problems.loads", spec.f),
            g=self.wrap("problems.loads", spec.g),
            normal_trace_field=self.wrap(
                "problems.loads", spec.normal_trace_field or spec.exact_u
            ),
        )

    # -- counters read from results ------------------------------------

    def _after_write_vtk(self, _out, args):
        self.count("mesh.vtk_bytes", os.path.getsize(args[1]))

    def _after_reduce(self, out, _args):
        A_ff, _ = out
        self.probe.append(("reduce", A_ff.shape[0], int(A_ff.nnz)))
        self.count("assembly.free_dofs", A_ff.shape[0])
        self.count("assembly.nnz", int(A_ff.nnz))

    def _after_solve(self, sol, _args):
        diag = sol.diagnostics
        self.probe.append(("solve", diag["method"], diag.get("relative_residual")))
        self.count("solver.minres_iters", diag.get("iterations", 0))
        if diag.get("relative_residual") is not None:
            self.maxcount("solver.max_rel_residual", diag["relative_residual"])
        if diag["method"] == "minres":
            # one CSR product per iteration: 8 B value + 4 B column index
            nnz = next(e[2] for e in reversed(self.probe) if e[0] == "reduce")
            self.count(
                "solver.minres_matvec_bytes_computed",
                12 * nnz * diag.get("iterations", 0),
            )

    def _after_splu(self, lu, _args):
        self.count("solver.fill_nnz", int(lu.nnz))

    def _after_minres(self, _out, _args):
        self.count("solver.refine_rounds")


def _self_times(spans):
    """Duration minus the time covered by direct child spans."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _) in enumerate(spans)]


def covered_seconds(spans, layers):
    """Wall time covered by spans of ``layers``, counting nested spans of
    those layers once."""
    inside = [False] * len(spans)
    total = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        mine = name.split(".", 1)[0] in layers
        outer = parent >= 0 and inside[parent]
        inside[i] = mine or outer
        if mine and not outer:
            total += end - start
    return total


def layer_metrics(spans, counts):
    """Per-layer metrics of one pass.

    ``<layer>.<function>_s`` is the total time inside that function,
    child spans included; ``*_self_s`` subtracts the child spans.
    """
    total = {}
    selfs = {}
    for (name, start, end, _), own in zip(spans, _self_times(spans)):
        total[name] = total.get(name, 0.0) + end - start
        selfs[name] = selfs.get(name, 0.0) + own
    t = total.get
    m = {
        "mesh.build_s": t("mesh.build", 0.0),
        "mesh.write_vtk_s": t("mesh.write_vtk", 0.0),
        "assembly.dofmap_s": t("assembly.dofmap", 0.0),
        "assembly.s1_s": t("assembly.s1", 0.0),
        "assembly.s2_s": t("assembly.s2", 0.0),
        "assembly.bh_s": t("assembly.bh", 0.0),
        "assembly.rhs_s": t("assembly.rhs", 0.0),
        "assembly.global_self_s": selfs.get("assembly.global", 0.0),
        "assembly.reduce_s": t("assembly.reduce", 0.0),
        "problems.exact_u_s": t("problems.exact_u", 0.0),
        "problems.loads_s": t("problems.loads", 0.0),
        "weak_ops.project_s": t("weak_ops.project", 0.0),
        "solver.solve_s": t("solver.solve", 0.0),
        "solver.self_s": selfs.get("solver.solve", 0.0),
        "solver.splu_s": t("solver.splu", 0.0),
        "solver.minres_s": t("solver.minres", 0.0),
        "solver.recover_s": t("solver.recover", 0.0),
        "analysis.error_u_s": t("analysis.error_u", 0.0),
        "analysis.error_Qu_s": t("analysis.error_Qu", 0.0),
        "analysis.cell_error_s": t("analysis.cell_error", 0.0),
        "analysis.tnorm_s": t("analysis.tnorm", 0.0),
        "cli.run_study_self_s": selfs.get("cli.run_study", 0.0),
    }
    for name in (
        "mesh.vtk_bytes",
        "assembly.free_dofs",
        "assembly.nnz",
        "problems.exact_u_calls",
        "problems.exact_u_points",
        "solver.fill_nnz",
        "solver.minres_iters",
        "solver.refine_rounds",
        "solver.max_rel_residual",
        "solver.minres_matvec_bytes_computed",
    ):
        m[name] = counts.get(name, 0)
    m["solver.fill_ratio"] = (
        m["solver.fill_nnz"] / m["assembly.nnz"] if m["assembly.nnz"] else 0.0
    )
    # LU factor: 8 B value + 4 B row index per stored entry
    m["solver.factor_bytes_computed"] = 12 * m["solver.fill_nnz"]
    return m
