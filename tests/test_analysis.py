"""Error norms, rates, reports, and harmonic-field extraction."""

import dataclasses

import numpy as np
import pytest

from divcurl.analysis import (
    ConvergenceReport,
    cell_error_norms,
    convergence_rates,
    error_Qu,
    error_u,
    solve_level,
)
from divcurl.mesh import DomainSpec, build_structured_tet_mesh
from divcurl.problems import ProblemSpec, make_problem
from divcurl.weak_ops import project_field

from invariants import constant_problem, system_at


def test_error_u_zero_for_projection_of_constant():
    spec = constant_problem([1.0, 2.0, 3.0], np.eye(3))
    m = build_structured_tet_mesh(spec.domain, 2)
    u_h = project_field(spec.exact_u, m)
    assert error_u(spec, u_h, m) < 1e-12


def test_error_u_weighted_constant_mismatch():
    # eps = 4 I and a unit constant error: ||eps^(1/2) e|| = 2 sqrt(|Omega|)
    spec = constant_problem([0.0, 0.0, 0.0], 4.0 * np.eye(3))
    m = build_structured_tet_mesh(spec.domain, 2)
    u_h = np.zeros((m.num_tets, 3))
    u_h[:, 0] = 1.0
    assert error_u(spec, u_h, m) == pytest.approx(2.0)


def test_error_Qu_identities():
    spec = make_problem(1)
    m = build_structured_tet_mesh(spec.domain, 2)
    qu = project_field(spec.exact_u, m)
    assert error_Qu(spec, qu, m) == 0.0
    # a single-cell unit defect contributes sqrt(|T| eps_00)
    u_h = qu.copy()
    u_h[0, 0] += 1.0
    assert error_Qu(spec, u_h, m) == pytest.approx(np.sqrt(m.geometry.volumes[0] * 3.0))


def test_cell_error_norms_sum():
    spec = make_problem(1)
    m = build_structured_tet_mesh(spec.domain, 2)
    u_h = project_field(spec.exact_u, m)
    cells = cell_error_norms(spec, u_h, m)
    assert cells.shape == (m.num_tets,)
    assert np.sqrt(np.sum(cells**2)) == pytest.approx(error_u(spec, u_h, m))


def test_weighted_mean_minimizes_cell_error():
    # per cell, with constant eps, the weighted norm of (u - c) over
    # constants c is minimized by the plain cell mean
    spec = make_problem(1)
    m = build_structured_tet_mesh(spec.domain, 1)
    qu = project_field(spec.exact_u, m, degree=6)
    base = error_u(spec, qu, m, quad_degree=6)
    rng = np.random.default_rng(2)
    for _ in range(20):
        pert = qu + 1e-3 * rng.standard_normal(qu.shape)
        assert error_u(spec, pert, m, quad_degree=6) >= base


def test_convergence_rates():
    assert convergence_rates([4.0, 1.0]) == [2.0]
    assert convergence_rates([1.0, 1.0]) == [0.0]
    assert convergence_rates([1.64e-1, 8.16e-2])[0] == pytest.approx(1.007, abs=5e-3)
    assert convergence_rates([1.0, 0.0]) == [None]
    assert convergence_rates([1.0]) == []


def test_report_serialization():
    rep = ConvergenceReport(example=1, params={"rho1": 1.0})
    rep.add_row(inv_h=2, h=0.87, num_tets=48, num_free=719,
                err_u=4.0, err_Qu=2.0, tnorm_dual=1.0, tnorm_s=0.5,
                solver_residual=1e-12)
    rep.add_row(inv_h=4, h=0.43, num_tets=384, num_free=5951,
                err_u=2.0, err_Qu=1.0, tnorm_dual=0.5, tnorm_s=0.25,
                solver_residual=1e-12)
    md = rep.to_markdown()
    assert "| 1/h |" in md
    assert "1.00" in md  # the rate column
    lines = rep.to_csv().splitlines()
    assert lines[0].startswith("example,inv_h,h,num_tets,num_free,err_u,rate_err_u")
    assert len(lines) == 3
    assert rep.rates("err_u") == [1.0]


def test_report_text_pinned():
    # a cavity constant on some rows, a zero error (undefined rate: "--" in
    # Markdown, blank in CSV), a row without a solver residual and a failure
    rep = ConvergenceReport(example=4, params={"rho1": 1.0, "quad_degree": 4})
    rep.add_row(inv_h=2, h=0.5, num_tets=48, num_free=719,
                err_u=0.25, err_Qu=0.125, tnorm_dual=1.0, tnorm_s=0.5,
                solver_residual=1e-12, cavity_c1=-0.75)
    rep.add_row(inv_h=4, h=0.25, num_tets=384, num_free=5951,
                err_u=0.0, err_Qu=0.0625, tnorm_dual=0.5, tnorm_s=0.125)
    rep.add_row(inv_h=8, h=0.125, num_tets=3072, num_free=46000,
                err_u=0.03125, err_Qu=0.03125, tnorm_dual=0.125, tnorm_s=0.0625,
                solver_residual=3.5e-14, cavity_c1=0.5)
    rep.failure = {"inv_h": 16, "stage": "solve", "message": "out of memory"}
    assert rep.to_csv() == (
        "example,inv_h,h,num_tets,num_free,err_u,rate_err_u,err_Qu,rate_err_Qu,"
        "tnorm_dual,rate_tnorm_dual,tnorm_s,rate_tnorm_s,cavity_c1,solver_residual\n"
        "4,2,5.000000000000e-01,48,719,2.500000000000e-01,,1.250000000000e-01,,"
        "1.000000000000e+00,,5.000000000000e-01,,-7.500000000000e-01,1.000000e-12\n"
        "4,4,2.500000000000e-01,384,5951,0.000000000000e+00,,6.250000000000e-02,"
        "1.000000000000e+00,5.000000000000e-01,1.000000000000e+00,"
        "1.250000000000e-01,2.000000000000e+00,,nan\n"
        "4,8,1.250000000000e-01,3072,46000,3.125000000000e-02,,3.125000000000e-02,"
        "1.000000000000e+00,1.250000000000e-01,2.000000000000e+00,"
        "6.250000000000e-02,1.000000000000e+00,5.000000000000e-01,3.500000e-14\n"
    )
    assert rep.to_markdown() == (
        "| 1/h | err_u | rate | err_Qu | rate | tnorm_dual | rate | tnorm_s | rate |\n"
        "|---|---|---|---|---|---|---|---|---|\n"
        "| 2 | 2.500000e-01 | -- | 1.250000e-01 | -- | 1.000000e+00 | -- "
        "| 5.000000e-01 | -- |\n"
        "| 4 | 0.000000e+00 | -- | 6.250000e-02 | 1.00 | 5.000000e-01 | 1.00 "
        "| 1.250000e-01 | 2.00 |\n"
        "| 8 | 3.125000e-02 | -- | 3.125000e-02 | 1.00 | 1.250000e-01 | 2.00 "
        "| 6.250000e-02 | 1.00 |\n"
        "\n"
        "problem 4; rho1=1.0; quad_degree=4; FAILED at level 16: out of memory\n"
    )


def eta_norm(level):
    """L2 norm of the discrete harmonic field Q_h u - u_h of a level."""
    eta = level.qu - level.sol.u
    vols = level.mesh.geometry.volumes
    return np.sqrt(np.sum(vols * np.einsum("td,td->t", eta, eta)))


@pytest.mark.parametrize("example", [1, 4, 7])
def test_level_errors_match_error_functions(example):
    # solve_level derives its errors from one evaluation of the exact
    # field; they are bitwise those of the standalone functions
    spec = make_problem(example)
    level = solve_level(spec, 2)
    u_h, m = level.sol.u, level.mesh
    assert level.row["err_u"] == error_u(spec, u_h, m)
    assert level.row["err_Qu"] == error_Qu(spec, u_h, m)
    assert np.array_equal(level.cell_errors, cell_error_norms(spec, u_h, m))
    assert np.array_equal(level.qu, project_field(spec.exact_u, m))


def test_cavity_found_on_undeclared_domain():
    # problem 4's box, given only as a bounding box and an excluded box:
    # the mesh finds the cavity, so its constant is still recovered
    spec = make_problem(4)
    dom = spec.domain
    custom = DomainSpec(dom.lo, dom.hi, dom.excluded)
    row = solve_level(dataclasses.replace(spec, domain=custom), 2).row
    want = solve_level(spec, 2).row
    del row["seconds"], want["seconds"]
    assert row["cavity_c1"] is not None
    assert row == want


def test_custom_problem_from_keyword_fields():
    # README's recipe: a domain is its boxes, a problem its coefficient,
    # domain, exact field and loads.  A constant field on a cube with an
    # undeclared cavity passes the patch test.
    value = np.array([1.0, -2.0, 0.5])
    domain = DomainSpec(
        lo=(0.0, 0.0, 0.0),
        hi=(1.5, 1.5, 1.5),
        excluded=(((0.5, 0.5, 0.5), (1.0, 1.0, 1.0)),),
    )
    spec = ProblemSpec(
        eps=np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]]),
        domain=domain,
        exact_u=lambda p: np.broadcast_to(value, (len(p), 3)).copy(),
        f=lambda p: np.zeros(len(p)),
        g=lambda p: np.zeros_like(p),
    )
    level = solve_level(spec, 2)
    assert level.mesh.num_boundary_components == 2
    assert level.row["err_u"] <= 1e-10
    assert max(level.row["tnorm_dual"], level.row["tnorm_s"]) <= 1e-10


def test_extraction_small_on_simply_connected():
    level = solve_level(make_problem(1), 2)
    assert (level.qu - level.sol.u).shape == (level.mesh.num_tets, 3)
    # the defect is the projection error of the solve, small for smooth data
    assert eta_norm(level) < 0.5


def test_extraction_decays_on_simply_connected():
    spec = make_problem(1)
    norms = [eta_norm(solve_level(spec, n)) for n in (2, 4)]
    assert norms[1] < 0.75 * norms[0]


def test_combined_multiplier_norms_decrease():
    # past the coarsest level, the summed stabilizer semi-norms shrink by
    # at least 1.8x per halving of h on the smooth benchmark
    from divcurl.analysis import triple_norm_dual, triple_norm_s
    from divcurl.solver import solve

    sums = []
    for n in (4, 8):
        system = system_at(1, n)
        sol = solve(system)
        sums.append(triple_norm_dual(system, sol) + triple_norm_s(system, sol))
    assert sums[0] / sums[1] >= 1.8


def test_extraction_persists_on_toroid():
    spec = make_problem(7, beta=1.0)
    norms = [eta_norm(solve_level(spec, n)) for n in (2, 4)]
    # harmonic defect levels off instead of vanishing
    assert norms[1] > 0.5 * norms[0]
    assert norms[1] > 0.4
