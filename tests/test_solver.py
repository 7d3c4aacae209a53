"""Linear solves, the iterative path, and cavity-constant recovery."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from divcurl import solver
from divcurl.analysis import error_u, solve_level, triple_norm_dual, triple_norm_s
from divcurl.assembly import LOCAL_BLOCKS, GlobalSystem, assemble_global
from divcurl.condense import Condensed, _ruiz_scale
from divcurl.problems import make_problem
from divcurl.solver import SolverError, recover_cavity_constants, solve

from invariants import (
    condensed_defects,
    constant_problem,
    frontal_defects,
    jittered_mesh,
    lattice_order_defects,
    patch_test_defects,
    system_at,
    system_defects,
)


def test_zero_load_gives_zero_solution():
    sol = solve(system_at(constant_problem([0.0, 0.0, 0.0], np.eye(3)), 2))
    assert np.abs(sol.x).max() == 0.0
    assert sol.diagnostics["relative_residual"] == 0.0


def test_patch_test_constant_field():
    # eps = diag(100, 1, 1/100) is a real input whose float32 first solve
    # misses the tolerance, so the direct solve refactors in float64
    for eps, n, dtype in (
        (np.diag([3.0, 2.0, 1.0]), 2, "float32"),
        (np.diag([100.0, 1.0, 0.01]), 4, "float64"),
    ):
        spec = constant_problem([1.0, -2.0, 0.5], eps)
        system = system_at(spec, n)
        sol = solve(system, method="direct")
        assert sol.diagnostics["factor_dtype"] == dtype
        assert sol.diagnostics["relative_residual"] <= solver.ACCEPT["direct"]
        assert error_u(spec, sol.u, system.mesh) <= 1e-8
        assert triple_norm_dual(system, sol) <= 1e-8
        assert triple_norm_s(system, sol) <= 1e-8
        assert np.abs(sol.u - [1.0, -2.0, 0.5]).max() < 1e-10


def test_smoke_problem1():
    sol = solve(system_at(1, 4), method="direct")
    assert sol.diagnostics["relative_residual"] <= 1e-10
    assert np.isfinite(sol.u).all()


def test_direct_deterministic():
    for example in (1, 5):  # problem 5 delays a front at 1/h = 2
        system = system_at(example, 2)
        x1 = solve(system, method="direct").x
        x2 = solve(system, method="direct").x
        assert np.array_equal(x1, x2)


def scaled_matrix(system):
    """The matrix the direct solve factors, entry (i, j) of ``A_ff`` times
    ``s[i] * s[j]`` in CSR form, and the scale ``s`` of ``_ruiz_scale``."""
    A_ff, _ = system.reduced()
    s = _ruiz_scale(A_ff, A_ff.diagonal())
    A_s = A_ff.copy()
    A_s.data = (np.repeat(s, np.diff(A_ff.indptr)) * s[A_ff.indices]) * A_ff.data
    return A_s, s


@pytest.mark.parametrize("example", range(1, 8))
def test_equilibrated_matrix_is_exactly_symmetric(example):
    # the symbolic phase keeps each entry of the pivot columns, from the
    # front's first pivot down, scaled as (scale[i] * scale[j]) * a_ij
    system = system_at(example, 2)
    A_ff, _ = system.reduced()
    assert (A_ff != A_ff.T).nnz == 0  # so the rows of A_ff[p] are its columns
    # the scale of the MINRES path: every row of s A_ff s has its largest
    # entry in [0.85, 1] (0.862 at the least)
    largest = abs(scaled_matrix(system)[0]).max(axis=1).toarray()
    assert largest.min() >= 0.85
    assert largest.max() <= 1 + 1e-15  # a few rounding errors above 1
    defects = frontal_defects(system)
    for fact in ("scale", "entry_count", "entry_value", "pivot_mirror"):
        assert defects[fact] == 0, defects


@pytest.mark.parametrize(
    "example, n",
    [
        *(pytest.param(e, 2, id=str(e)) for e in range(1, 8)),
        pytest.param(1, 3, id="1-odd"),
    ],
)
def test_lattice_permutation_orders_u_after_three_faces(example, n):
    system = system_at(example, n)
    m, dm = system.mesh, system.dofmap
    defects = lattice_order_defects(m, dm)
    assert not any(defects.values()), defects
    p, bounds = solver._lattice_permutation(m, dm)
    assert np.array_equal(np.sort(p), np.arange(dm.num_free))
    assert bounds[0] == 0 and bounds[-1] == dm.num_free
    assert np.all(np.diff(bounds) > 0)
    # position in the factor order of each raw DoF; -1 for constrained ones
    pos = np.full(dm.total, -1)
    pos[dm.free[p]] = np.arange(dm.num_free)
    tets = np.arange(m.num_tets)
    u_pos = pos[dm.index("u", tets[:, None], np.arange(3))]
    assert u_pos.min() >= 0
    faces = m.tet_faces
    # latest free multiplier (lamb, qb) of each of a tet's four faces
    multipliers = [dm.index("lamb", faces), *(dm.index("qb", faces, c) for c in (0, 1))]
    last_multiplier = pos[np.array(multipliers)].max(axis=0)
    faces_before_u = (last_multiplier < u_pos.min(axis=1)[:, None]).sum(axis=1)
    assert faces_before_u.min() >= 3


def test_lattice_groups_keep_a_set_without_a_plane_whole():
    # x spans 1..11 in 1/12-lattice units and holds no plane; y is shorter
    # and crosses the plane y = 12, which is not tried
    keys = np.stack(
        [np.arange(1, 12).repeat(2), np.resize([11, 12, 13], 22), np.full(22, 5)],
        axis=1,
    )
    groups = solver._lattice_groups(keys)
    assert np.array_equal(groups, np.zeros(22))


def test_lattice_order_beats_colamd_fill():
    system = system_at(1, 4)
    fill = solve(system, method="direct").diagnostics["fill_nnz"]
    A_s = scaled_matrix(system)[0]
    colamd = spla.splu(A_s.tocsc(), permc_spec="COLAMD")
    assert fill < colamd.nnz


def test_lattice_order_halves_fill():
    # eliminating u after its fourth face instead stores 926,061 entries
    assert solve(system_at(1, 4), method="direct").diagnostics["fill_nnz"] < 700_000


# fill_nnz of the direct solve by 1/h and problem 1-7; problems 5 and 7
# delay one front at 1/h = 2
FILL_NNZ = {
    n: dict(zip(range(1, 8), fill))
    for n, fill in (
        (2, (63_209, 63_209, 213_323, 535_181, 56_693, 181_316, 56_693)),
        (4, (688_433, 688_433, 2_417_539, 6_220_401, 625_245, 2_016_384, 625_245)),
    )
}


@pytest.mark.parametrize("example", range(1, 8))
def test_direct_solve_accurate_despite_zero_u_block(example):
    for n in (2, 4):
        system = system_at(example, n)
        sol = solve(system, method="direct")
        d = sol.diagnostics
        assert d["factor_dtype"] == "float32"
        assert 1 <= d["refine_steps"] <= 3
        assert d["relative_residual"] <= 1e-13
        # at 1/h = 2 one pivot block of problems 5 and 7 is exactly
        # singular, so that front passes its pivots to its parent
        if example in (5, 7) and n == 2:
            assert d["delayed_fronts"] >= 1
        else:
            assert d["delayed_fronts"] == 0
        assert d["fill_nnz"] == FILL_NNZ[n][example]
        if n == 2:
            A_ff, F_f = system.reduced()
            ref = spla.spsolve(A_ff.tocsc(), F_f, permc_spec="COLAMD")
            x_f = sol.x[system.dofmap.free]
            assert np.linalg.norm(x_f - ref) <= 1e-10 * np.linalg.norm(ref)


def test_failed_factorization_keeps_diagnostics(monkeypatch):
    system = system_at(1, 2)

    def singular(lu, dtype):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(solver._FrontalFactor, "factor", singular)
    with pytest.raises(SolverError, match="exactly singular") as info:
        solve(system, method="direct")
    assert info.value.diagnostics["method"] == "direct"
    assert info.value.diagnostics["num_free"] == system.dofmap.num_free


class NoisyFloat32Solves:
    """Makes each solve with a float32 factor off by a relative
    ``amplitude`` of noise, and counts those solves; a float64 factor's
    solves stay exact."""

    def __init__(self, monkeypatch, amplitude):
        self.solves, rng = 0, np.random.default_rng(0)
        exact = solver._FrontalFactor.solve

        def solve(lu, b):
            out = exact(lu, b)
            if b.dtype != np.float32:
                return out
            self.solves += 1
            noise = rng.standard_normal(out.shape).astype(out.dtype)
            return out * (1 + amplitude * noise)

        monkeypatch.setattr(solver._FrontalFactor, "solve", solve)


def patch_float32_factor(monkeypatch, float32_factor):
    """Route the float32 numeric phase through ``float32_factor(factor,
    lu)``, ``factor`` the unpatched method; the float64 one runs as usual."""
    factor = solver._FrontalFactor.factor

    def routed(lu, dtype):
        if dtype == "float32":
            return float32_factor(factor, lu)
        return factor(lu, dtype)

    monkeypatch.setattr(solver._FrontalFactor, "factor", routed)


def float64_reference(system):
    """Solution and L+U fill of SuperLU in float64, in the direct path's order.

    SuperLU is an independent factorization, the reference that the
    frontal factor is checked against in either precision.
    """
    _, F_f = system.reduced()
    A_s, scale = scaled_matrix(system)
    p, _ = solver._lattice_permutation(system.mesh, system.dofmap)
    lu = spla.splu(
        A_s[p][:, p].tocsc(),
        permc_spec="NATURAL",
        diag_pivot_thresh=0.1,
        options={"SymmetricMode": True},
    )
    y = np.empty(len(F_f))
    y[p] = lu.solve((scale * F_f)[p])
    return scale * y, lu.nnz


def test_float32_factor_matches_float64_fill_and_solution():
    system = system_at(4, 4)
    sol = solve(system, method="direct")
    diagnostics = sol.diagnostics
    assert diagnostics["factor_dtype"] == "float32"
    assert 1 <= diagnostics["refine_steps"] <= solver.REFINE_STEPS
    assert diagnostics["relative_residual"] <= 1e-13
    x64, nnz64 = float64_reference(system)
    # 4-byte entries, fewer of them than SuperLU's L and U in the same order
    assert diagnostics["fill_nnz"] == FILL_NNZ[4][4] < nnz64
    x_f = sol.x[system.dofmap.free]
    assert np.linalg.norm(x_f - x64) <= 1e-10 * np.linalg.norm(x64)


def test_refinement_survives_a_tiny_load():
    # a 1e-36 load leaves residuals below float32's smallest normal number
    # (1.2e-38) unless each correction's right-hand side is normalised
    # before the cast; unnormalised, the refinement stalls from 1e-33 down
    system = system_at(1, 2)
    tiny = dataclasses.replace(system, F=1e-36 * system.F)
    sol = solve(tiny, method="direct")
    assert sol.diagnostics["factor_dtype"] == "float32"
    assert sol.diagnostics["relative_residual"] <= 1e-13
    x = 1e-36 * solve(system, method="direct").x
    assert np.linalg.norm(sol.x - x) <= 1e-12 * np.linalg.norm(x)


def assert_float64_fallback(system, sol, example):
    """The float64 frontal factor's first solve, checked against SuperLU;
    ``system`` is problem ``example`` at 1/h = 2."""
    d = sol.diagnostics
    assert d["factor_dtype"] == "float64" and d["refine_steps"] == 0
    assert d["fill_nnz"] == FILL_NNZ[2][example]
    assert d["relative_residual"] <= 1e-13
    x64 = float64_reference(system)[0]
    x_f = sol.x[system.dofmap.free]
    assert np.linalg.norm(x_f - x64) <= 1e-12 * np.linalg.norm(x64)


@pytest.mark.parametrize(
    "amplitude, dtype, steps",
    [
        (1e-3, "float32", None),  # refinement absorbs the error
        (0.1, "float64", solver.REFINE_STEPS),  # too slow for the budget
        (0.3, "float64", 0),  # the first solve fails to halve the residual
        (np.nan, "float64", 0),  # the first solve is not finite
    ],
)
def test_noisy_float32_factor_falls_back_to_float64(
    monkeypatch, amplitude, dtype, steps
):
    system = system_at(1, 2)
    noisy = NoisyFloat32Solves(monkeypatch, amplitude)
    sol = solve(system, method="direct")
    if dtype == "float64":
        # the float32 corrections made before the factor was dropped
        assert noisy.solves == 1 + steps
        assert_float64_fallback(system, sol, 1)
    else:
        assert sol.diagnostics["factor_dtype"] == "float32"
        assert sol.diagnostics["relative_residual"] <= 1e-13
        assert sol.diagnostics["fill_nnz"] == FILL_NNZ[2][1]


def test_nonfinite_float64_solve_raises_with_diagnostics(monkeypatch):
    # a solve that is not finite in either precision: the float32 factor
    # is dropped, and the float64 one raises instead of returning NaN
    system = system_at(1, 2)
    monkeypatch.setattr(
        solver._FrontalFactor, "solve", lambda lu, b: np.full_like(b, np.nan)
    )
    with pytest.raises(SolverError, match="float64 solve is not finite") as info:
        solve(system, method="direct")
    d = info.value.diagnostics
    assert d["factor_dtype"] == "float64" and d["num_free"] == system.dofmap.num_free


def test_float32_factor_failure_falls_back_to_float64(monkeypatch):
    system = system_at(1, 2)

    def singular(factor, lu):
        raise RuntimeError("Factor is exactly singular")

    patch_float32_factor(monkeypatch, singular)
    assert_float64_fallback(system, solve(system, method="direct"), 1)


def test_float64_fallback_reuses_the_symbolic_phase(monkeypatch):
    # a float32 factor that breaks down after its numeric phase: the
    # float64 refactor reads the same symbolic phase, which orders once
    system = system_at(1, 2)
    orders, factored, permutation = [], [], solver._lattice_permutation

    def counted(*args):
        orders.append(args)
        return permutation(*args)

    def breaks_down(factor, lu):
        factor(lu, "float32")
        factored.append(lu)
        raise RuntimeError("the root pivot block is singular")

    monkeypatch.setattr(solver, "_lattice_permutation", counted)
    patch_float32_factor(monkeypatch, breaks_down)
    sol = solve(system, method="direct")
    assert len(orders) == 1 and len(factored) == 1
    assert_float64_fallback(system, sol, 1)


@pytest.mark.parametrize(
    "example, method, amplitude",
    [
        # problem 4 has a cavity, and problem 5 delays a front at 1/h = 2
        *((e, m, None) for e in (1, 4, 5) for m in ("direct", "minres")),
        (5, "direct", 0.3),  # a float64 refactor
    ],
)
def test_each_level_reduces_and_solves_once(monkeypatch, example, method, amplitude):
    # perfbench pairs level i with the i-th call of GlobalSystem.reduced
    # (for its nnz) and of solver.solve (for its method), so one call more
    # or less shifts every later level
    calls, reduced, solve_once = [], GlobalSystem.reduced, solver.solve

    def counted_reduced(system):
        calls.append("reduced")
        return reduced(system)

    def counted_solve(*args, **kwargs):
        calls.append("solve")
        return solve_once(*args, **kwargs)

    monkeypatch.setattr(GlobalSystem, "reduced", counted_reduced)
    monkeypatch.setattr(solver, "solve", counted_solve)
    if amplitude:
        NoisyFloat32Solves(monkeypatch, amplitude)
    level = solve_level(make_problem(example), 2, method)
    assert sorted(calls) == ["reduced", "solve"]
    if amplitude:
        assert level.sol.diagnostics["factor_dtype"] == "float64"


def test_float64_refactor_delays_pivots_too(monkeypatch):
    # problem 5 at 1/h = 2 has an exactly singular pivot block, which the
    # float64 factor passes to its parent front as the float32 one does
    system = system_at(5, 2)
    NoisyFloat32Solves(monkeypatch, 0.3)
    sol = solve(system, method="direct")
    assert sol.diagnostics["delayed_fronts"] >= 1
    assert_float64_fallback(system, sol, 5)


def test_pivots_delayed_to_the_root_are_solved_there(monkeypatch):
    # with no growth allowed every pivot block with a parent fails its
    # test and passes its variables up; the root front has no parent, so
    # it keeps its finite inverse and eliminates them all, with no update
    # row: 22 delayed fronts and 719^2 entries on problem 1 at 1/h = 2
    system = system_at(1, 2)
    fronts = len(solver._lattice_permutation(system.mesh, system.dofmap)[1]) - 1
    monkeypatch.setattr(solver, "PIVOT_GROWTH_LIMIT", 0.0)
    d = solve(system, method="direct").diagnostics
    assert d["factor_dtype"] == "float32" and d["delayed_fronts"] == fronts - 1
    assert d["fill_nnz"] == system.dofmap.num_free**2
    assert d["relative_residual"] <= 1e-13


def test_singular_root_raises_with_diagnostics(monkeypatch):
    # a zero matrix, its sparsity kept, has no row the equilibration can
    # scale; under a unit scale every pivot block is singular, so every
    # front delays and the root's inverse is not finite in either precision
    system = system_at(1, 2)
    zero = dataclasses.replace(system, A=0.0 * system.A)
    for match in ("no entry to scale it by", "root front"):
        with pytest.raises(SolverError, match=match) as info:
            solve(zero, method="direct")
        d = info.value.diagnostics
        assert d["method"] == "direct" and d["num_free"] == system.dofmap.num_free
        monkeypatch.setattr(solver, "_ruiz_scale", lambda A, _: np.ones(A.shape[0]))


def test_chains_of_delayed_fronts_keep_the_factor_accurate(monkeypatch):
    # a limit below the healthy |P^-1| of up to 5.76 delays about half of
    # the fronts, some into parents that delay again
    system = system_at(4, 2)
    monkeypatch.setattr(solver, "PIVOT_GROWTH_LIMIT", 5.0)
    sol = solve(system, method="direct")
    d = sol.diagnostics
    assert d["factor_dtype"] == "float32" and d["delayed_fronts"] >= 30
    assert 1 <= d["refine_steps"] <= 3 and d["relative_residual"] <= 1e-13
    x64 = float64_reference(system)[0]
    x_f = sol.x[system.dofmap.free]
    assert np.linalg.norm(x_f - x64) <= 1e-10 * np.linalg.norm(x64)


@pytest.mark.parametrize("example", range(1, 8))
def test_symbolic_fronts_match_the_filled_graph(example):
    # the update rows of each front are the rows below its pivots that its
    # pivot columns reach in the filled graph of the permuted matrix; with
    # no front delayed, a front of k pivots and r update rows stores
    # k (k + r) entries
    defects = frontal_defects(system_at(example, 2))
    assert defects["update_rows"] == defects["nnz"] == 0, defects


def _assert_minres_matches_direct(spec, system):
    sd = solve(system, method="direct")
    si = solve(system, method="minres")
    assert si.diagnostics["relative_residual"] <= 1e-8
    m = system.mesh
    assert error_u(spec, sd.u, m) == pytest.approx(error_u(spec, si.u, m), abs=1e-6)
    for norm in (triple_norm_dual, triple_norm_s):
        assert norm(system, sd) == pytest.approx(norm(system, si), abs=1e-6)
    if m.num_boundary_components > 1:  # a cavity constant amplifies the solve error
        constants = [
            recover_cavity_constants(system, sol).cavity_constants[1]
            for sol in (sd, si)
        ]
        assert constants[1] == pytest.approx(constants[0], rel=1e-6)


@pytest.mark.parametrize("example", range(1, 8))
def test_minres_matches_direct(example):
    spec = make_problem(example)
    _assert_minres_matches_direct(spec, system_at(spec, 2))


@pytest.mark.parametrize("example", (1, 3, 4, 6))
def test_invariants_on_jittered_meshes(example):
    # no two tets of a jittered lattice are congruent, yet the lattice's
    # facts hold: exact symmetry, PSD stabilizers, the patch test, the
    # direct solve's order and its agreement with MINRES
    _, mesh = jittered_mesh(example, 2, np.random.default_rng(30))
    asymmetry, min_ratio = system_defects(mesh)
    assert asymmetry == 0.0
    assert min_ratio >= -1e-12
    assert max(patch_test_defects(mesh)) <= 1e-10
    spec = make_problem(example)
    system = assemble_global(spec, mesh)
    defects = lattice_order_defects(mesh, system.dofmap)
    assert not any(defects.values()), defects
    _assert_minres_matches_direct(spec, system)


@pytest.mark.parametrize("example", range(1, 8))
def test_local_blocks_are_block_diagonal_per_tet(example):
    system = system_at(example, 2)
    m, dm = system.mesh, system.dofmap
    A_ff, _ = system.reduced()
    tet = dm.per_dof(np.arange(m.num_tets), np.full(m.num_faces, -1))[dm.free]
    name = np.full(dm.total, -1)
    for i, block in enumerate(LOCAL_BLOCKS):
        name[dm.block(block)] = i
    name = name[dm.free]
    L = np.flatnonzero(name >= 0)
    A_LL = A_ff[L][:, L].tocoo()
    # each entry joins two DoFs of one local block of one tet
    assert np.array_equal(tet[L][A_LL.row], tet[L][A_LL.col])
    assert np.array_equal(name[L][A_LL.row], name[L][A_LL.col])
    # lam0 a positive 1x1, q0 an SPD 3x3 and s0 a negative 1x1 per tet
    for i, sign in enumerate((1.0, 1.0, -1.0)):
        at = L[name[L] == i]  # tet by tet, k DoFs each
        k = len(at) // len(np.unique(tet[at]))
        sub = A_ff[at][:, at].tocoo()
        blocks = np.zeros((len(at) // k, k, k))
        blocks[sub.row // k, sub.row % k, sub.col % k] = sub.data
        eigenvalues = sign * np.linalg.eigvalsh(blocks)
        assert eigenvalues.min() > 1e-8 * eigenvalues.max()


@pytest.mark.parametrize("example", [1, 4, 7])
def test_condensed_product_is_the_schur_complement(example):
    # the Ruiz band is [0.9, 1] up to a few rounding errors above 1; the
    # solution's G part and the residual solve reads hold bitwise.  The
    # assembled load is zero on the qb rows, where the frame rotates b,
    # so a random load is checked too
    system = system_at(example, 2)
    loaded = dataclasses.replace(
        system, F=np.random.default_rng(5).standard_normal(len(system.F))
    )
    bounds = dict(frame=1e-15, product=1e-12, b=1e-12, projection=1e-15)
    bounds.update(solution_g=0, q=1e-15)
    bounds.update(local_rows=1e-12, raw_residual=0, shift=1e-10)
    bounds.update(ruiz_low=0.0, ruiz_high=1e-15)
    for case in (system, loaded):
        defects = condensed_defects(case)
        assert set(defects) == set(bounds)
        for fact, bound in bounds.items():
            assert defects[fact] <= bound, (fact, defects)


@pytest.mark.parametrize(
    ("example", "n", "skinny", "most"),
    [
        pytest.param(1, 3, False, 300, id="1-3"),
        pytest.param(4, 2, False, 500, id="4-2"),
        pytest.param(1, 4, True, 485, id="1-4-skinny"),
    ],
)
def test_minres_iterations_on_the_equilibrated_complement(example, n, skinny, most):
    # to the 1e-11 stop, the Jacobi-scaled complement took 898 and 975
    # iterations, the Ruiz-equilibrated one 703 and 751, and shifted as
    # well 613 and 630; problem 1, which fits no cavity constant, stops at
    # the 1e-8 acceptance, after 476 on the qb edge pairs and 288 in their
    # orthonormal frame (problem 4: 630 and 479).  The jittered mesh's qb
    # Gram matrices reach condition number 26, and its 782 iterations on
    # the edge pairs fall to 463 in the frame
    lattice, jittered = jittered_mesh(example, n, np.random.default_rng(30), a=0.2)
    system = assemble_global(make_problem(example), jittered if skinny else lattice)
    assert solve(system, method="minres").diagnostics["iterations"] <= most


@pytest.mark.parametrize("example", [1, 4, 7])
def test_minres_stops_at_its_acceptance_unless_a_cavity_constant_is_fitted(example):
    system = system_at(example, 2)
    assert bool(system.dofmap.cavity_faces) == (example == 4)
    diagnostics = solve(system, method="minres").diagnostics
    if example == 4:  # the cavity fit needs the tighter stop
        assert diagnostics["relative_residual"] <= solver.MINRES_TARGET
        return
    assert diagnostics["relative_residual"] <= solver.ACCEPT["minres"]
    # 185 and 211 iterations, against 241 and 247 to MINRES_TARGET
    condensed = Condensed(system)
    _, iterations, history = solver._minres(
        condensed, condensed.b, true_residual(system, condensed.solution),
        solver.MINRES_TARGET, solver.MINRES_MAX_ITER,
    )
    assert history[-1] <= solver.MINRES_TARGET
    assert diagnostics["iterations"] < iterations


@pytest.mark.parametrize(
    ("block", "method"),
    [
        pytest.param(block, method, id=block + suffix)
        for method, suffix in (("minres", ""), ("direct", "-direct"))
        for block in ("u", "s0")
    ],
)
def test_unscalable_condensed_system_raises(block, method):
    # a zeroed u DoF leaves a row of A_ff, and of the complement, with no
    # entry to scale it by; a zeroed s0 DoF leaves its row of A_ff empty
    # too, and its tet's 1x1 block singular
    system = system_at(1, 2)
    dof = system.dofmap.index(block, 0)
    assert dof in system.dofmap.free
    keep = np.ones(system.dofmap.total)
    keep[dof] = 0.0
    system.A = sparse.diags(keep) @ system.A @ sparse.diags(keep)
    failure = "condensation" if method == "minres" else "direct factorization"
    with pytest.raises(SolverError, match=failure + " failed") as info:
        solve(system, method=method)
    assert info.value.diagnostics == {"method": method, "num_free": 719}


def test_minres_holds_little_beyond_A_ff():
    # problem 4 at 1/h = 4: iterating on a scaled copy of A_ff peaks at
    # 2.96 times the bytes of A_ff, and condensed pieces kept beside A_ff
    # at 3.99; a condensed operator that holds the only copy reads 2.34,
    # and 2.65 with the Schur diagonal taken from a scipy entrywise product;
    # its orthonormal qb frame reads 2.36 built and applied after A_ff is
    # freed, and 2.57 built before
    system = system_at(4, 4)
    A_ff, _ = system.reduced()
    size = A_ff.data.nbytes + A_ff.indices.nbytes + A_ff.indptr.nbytes
    del A_ff
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        solve(system, method="minres")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before <= 3 * size


def relative_residual(A, b):
    return lambda y: float(np.linalg.norm(A @ y - b) / np.linalg.norm(b))


def indefinite_matrix():
    """A random symmetric 60 x 60 matrix with eigenvalues of both signs, and b."""
    rng = np.random.default_rng(7)
    Q, _ = np.linalg.qr(rng.standard_normal((60, 60)))
    eigs = rng.choice([-1.0, 1.0], 60) * rng.uniform(0.5, 2.0, 60)
    A = (Q * eigs) @ Q.T
    return (A + A.T) / 2, rng.standard_normal(60)


def test_minres_matches_dense_solve():
    A, b = indefinite_matrix()
    y, iterations, history = solver._minres(
        A, b, relative_residual(A, b), 1e-11, 1000
    )
    assert history[-1] == relative_residual(A, b)(y) <= 1e-11
    assert iterations <= 60
    assert np.allclose(y, np.linalg.solve(A, b), rtol=0, atol=1e-9)


def reference_minres(A, b, residual, target, max_iter):
    """``solver._minres`` written with a new array for every vector update;
    its dots are the same einsum sums."""
    beta = np.sqrt(np.einsum("i,i", b, b))
    v_old, v = np.zeros_like(b), b / beta
    w_old, w, y = np.zeros_like(b), np.zeros_like(b), np.zeros_like(b)
    cs, sn, dbar, eps_next, phibar = -1.0, 0.0, 0.0, 0.0, beta
    threshold, history = target * beta, []
    for k in range(1, max_iter + 1):
        p = A @ v - beta * v_old
        alpha = np.einsum("i,i", v, p)
        p -= alpha * v
        beta = np.sqrt(np.einsum("i,i", p, p))
        eps, delta = eps_next, cs * dbar + sn * alpha
        gbar, eps_next, dbar = sn * dbar - cs * alpha, sn * beta, -cs * beta
        gamma = np.hypot(gbar, beta)
        cs, sn = gbar / gamma, beta / gamma
        phi, phibar = cs * phibar, sn * phibar
        w_old, w = w, (v - eps * w_old - delta * w) / gamma
        y += phi * w
        if beta == 0.0 or not abs(phibar) > threshold:
            history.append(residual(y))
            if beta == 0.0 or not history[-1] > target:
                break
            threshold *= 0.5 * target / history[-1]
        v_old, v = v, p / beta
    else:
        history.append(residual(y))
    return y, k, history


class CountedProducts:
    """``A`` that counts its products; ``checks`` holds the count at each
    true-residual check."""

    def __init__(self, A, residual):
        self.A, self._residual = A, residual
        self.products, self.checks = 0, []

    def __matmul__(self, v):
        self.products += 1
        return self.A @ v

    def residual(self, y):
        self.checks.append(self.products)
        return self._residual(y)


def true_residual(system, solution):
    """The true relative residual that solve checks, of the free DoFs
    ``solution(y)``: ||(F - A x)_f|| / ||F_f|| over the free rows f, whose
    entries are bitwise those of F_f - A_ff x (``condensed_defects``)."""
    residual = relative_residual(*system.reduced())
    return lambda y: residual(solution(y))


@pytest.mark.parametrize("case", ["dense", "condensed"])
def test_in_place_minres_matches_the_reference(case):
    if case == "dense":
        A, b = indefinite_matrix()
        residual = relative_residual(A, b)
    else:
        system = system_at(1, 3)
        A = Condensed(system)
        b, residual = A.b, true_residual(system, A.solution)
    b_before = b.copy()
    runs = []
    for minres in (solver._minres, reference_minres):
        counted = CountedProducts(A, residual)
        y, iterations, history = minres(counted, b, counted.residual, 1e-11, 5000)
        assert np.array_equal(b, b_before)
        assert history[-1] <= 1e-11
        runs.append((y, counted.checks[0]))
    (y, first), (y_ref, first_ref) = runs
    # the recurrences reach the first threshold together, give or take one
    # iteration: on the condensed system both at 378, where the true
    # residual reads 9.0e-12 and 8.8e-12
    assert abs(first - first_ref) <= 1
    assert np.linalg.norm(y - y_ref) <= 1e-10 * np.linalg.norm(y_ref)


def test_minres_on_a_zero_load_returns_zero():
    A = np.diag([1.0, 2.0, -3.0])
    b = np.zeros(3)
    checked = []

    def residual(y):
        checked.append(y.copy())
        return float(np.linalg.norm(A @ y - b))

    # filterwarnings = error turns a 0/0 RuntimeWarning into a failure
    y, iterations, history = solver._minres(A, b, residual, 1e-11, 100)
    assert iterations == 0
    assert np.array_equal(y, np.zeros(3))
    assert history == [0.0] and len(checked) == 1


@pytest.mark.parametrize("b_kind", ["eigenvector", "all_modes"])
def test_minres_exact_krylov_termination(b_kind):
    # k = 4 distinct eigenvalues: the Krylov space of any b has dimension <= 4
    d = np.repeat([-3.0, -1.0, 2.0, 5.0], 10)
    A = sparse.diags(d).tocsr()
    b = np.zeros(40)
    if b_kind == "eigenvector":  # beta = 0 exactly after one step
        b[0] = 1.0
    else:
        b[:] = np.random.default_rng(1).uniform(1.0, 2.0, 40)
    with np.errstate(all="raise"):
        y, iterations, history = solver._minres(
            A, b, relative_residual(A, b), 1e-11, 100
        )
    assert iterations <= (1 if b_kind == "eigenvector" else 4)
    assert history[-1] <= 1e-11
    assert np.allclose(y, b / d, rtol=1e-10, atol=0)


@pytest.mark.parametrize("method", ["direct", "minres"])
@pytest.mark.parametrize("example", [1, 4, 7])
def test_reported_residuals_are_those_of_the_assembled_matrix(example, method):
    # both numbers are read off r = F - A x over the raw numbering, for the
    # x that solve returns (before any cavity recovery)
    system = system_at(example, 2)
    sol = solve(system, method=method)
    dm, d = system.dofmap, sol.diagnostics
    r = system.F - system.A @ sol.x
    fnorm = np.linalg.norm(system.F[dm.free])
    assert d["relative_residual"] == pytest.approx(
        np.linalg.norm(r[dm.free]) / fnorm, rel=1e-12, abs=0
    )
    assert d["load_incompatibility"] == pytest.approx(
        r[dm.pinned_lam0] / fnorm, rel=1e-12, abs=0
    )
    if method == "minres":  # the last check of the iteration is that residual
        assert d["relative_residual"] == d["residual_history"][-1]


@pytest.mark.parametrize("example", range(1, 8))
def test_load_incompatibility_is_the_load_on_constant_lambda(example):
    # constant lambda (lam0 = lamb = 1) is a null vector v of the symmetric
    # A, so v.r = F.v for any x, r = F - A x: the dropped row's residual is
    # F.v less the residuals of the free lam0 and lamb rows, whatever the
    # method's own residual: on problems 1-7 both methods meet this within
    # 1.1e-15, while MINRES misses F.v / ||F_f|| by up to 1.2e-9
    system = system_at(example, 2)
    dm = system.dofmap
    v = np.zeros(dm.total)
    v[dm.block("lam0")] = v[dm.block("lamb")] = 1.0
    assert np.abs(system.A @ v).max() <= 1e-16
    free_lambda = v.astype(bool)
    free_lambda[dm.pinned_lam0] = False
    fnorm = np.linalg.norm(system.F[dm.free])
    for method in ("direct", "minres"):
        sol = solve(system, method=method)
        r = system.F - system.A @ sol.x
        expected = (system.F @ v - r[free_lambda].sum()) / fnorm
        assert sol.diagnostics["load_incompatibility"] == pytest.approx(
            expected, rel=0, abs=1e-14
        )


def test_minres_max_iter_bounds_whole_solve(monkeypatch):
    system = system_at(1, 3)
    monkeypatch.setattr(solver, "MINRES_MAX_ITER", 800)
    try:
        diagnostics = solve(system, method="minres").diagnostics
    except SolverError as exc:
        diagnostics = exc.diagnostics
    assert 0 < diagnostics["iterations"] <= 800
    assert len(diagnostics["residual_history"]) >= 1


def test_auto_picks_minres_above_the_direct_limit(monkeypatch):
    system = system_at(1, 2)
    n = system.dofmap.num_free
    for limit, method in ((n - 1, "minres"), (n, "direct")):
        monkeypatch.setattr(solver, "DIRECT_DOF_LIMIT", limit)
        diagnostics = solve(system).diagnostics
        assert diagnostics["method"] == method
        assert diagnostics["relative_residual"] <= solver.ACCEPT[method]


def test_unknown_method_rejected():
    with pytest.raises(ValueError):
        solve(system_at(1, 1), method="cg")
    # the method is checked before the zero-load early return
    zero = system_at(constant_problem([0.0, 0.0, 0.0], np.eye(3)), 1)
    with pytest.raises(ValueError, match="unknown"):
        solve(zero, method="cg")


@pytest.mark.parametrize("method", ["direct", "minres"])
# 1e200 is finite, but its square overflows the norm of the load
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
def test_nonfinite_load_raises_before_the_solve(monkeypatch, method, bad):
    system = system_at(1, 2)
    system.F[system.dofmap.free[0]] = bad

    def unreachable(*args):
        raise AssertionError("a factor or an iteration started")

    monkeypatch.setattr(solver, "_lattice_permutation", unreachable)
    monkeypatch.setattr(solver, "_minres", unreachable)
    # filterwarnings = error turns an escaping RuntimeWarning into a failure
    with pytest.raises(SolverError, match="load is not finite") as info:
        solve(system, method=method)
    assert info.value.diagnostics == {"method": method, "num_free": 719}


def test_nan_matrix_entry_stops_minres_at_once():
    system = system_at(1, 2)
    system.A.data[100] = np.nan
    assert np.isnan(system.reduced()[0].data).any()  # the entry is free
    # the NaN recurrence checks the true residual, which stops the run
    with pytest.raises(SolverError, match="residual nan") as info:
        solve(system, method="minres")
    assert info.value.diagnostics["iterations"] == 1


def test_missed_tolerance_raises_with_diagnostics(monkeypatch):
    system = system_at(1, 2)
    # no solve reaches 1e-300: refinement stalls and the float64 fallback
    # misses it too
    monkeypatch.setitem(solver.ACCEPT, "direct", 1e-300)
    monkeypatch.setattr(solver, "REFINE_TARGET", 1e-300)
    with pytest.raises(SolverError, match="residual") as info:
        solve(system, method="direct")
    d = info.value.diagnostics
    assert d["factor_dtype"] == "float64"
    assert d["fill_nnz"] == 63_209  # the frontal factor's entries
    assert np.isfinite(d["relative_residual"])
    assert 0.0 < d["relative_residual"] < 1e-13
    monkeypatch.setattr(solver, "MINRES_MAX_ITER", 5)
    with pytest.raises(SolverError, match="residual") as info:
        solve(system, method="minres")
    d = info.value.diagnostics
    assert d["iterations"] == 5
    assert len(d["residual_history"]) >= 1
    assert d["relative_residual"] == pytest.approx(0.419, abs=0.01)


def test_recovery_passthrough_simply_connected():
    system = system_at(1, 2)
    sol = solve(system)
    sol2 = recover_cavity_constants(system, sol)
    assert sol2 is sol


def test_cavity_recovery_problem4():
    system = system_at(4, 2)
    base = solve(system)
    sol = recover_cavity_constants(system, base)
    assert set(sol.cavity_constants) == {1}
    c1 = sol.cavity_constants[1]
    assert np.isfinite(c1)
    after = sol.diagnostics["raw_residual_after"]
    before = sol.diagnostics["raw_residual_before"]
    assert after <= before
    # one-variable least squares: c1 = (S^T A r) / (S^T A^T A S)
    dm = system.dofmap
    S = np.zeros(dm.total)
    S[dm.index("sb", dm.cavity_faces[1])] = 1.0
    AS = system.A @ S
    r = system.F - system.A @ base.x
    assert c1 == pytest.approx((AS @ r) / (AS @ AS), rel=1e-12)
    # the recovered constant lands on the cavity trace values
    sb = sol.x[system.dofmap.block("sb")]
    assert np.allclose(sb[system.mesh.face_tags == 1], c1)
