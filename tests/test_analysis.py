"""Error norms, rates, reports, and harmonic-field extraction."""

import numpy as np
import pytest

from divcurl.analysis import (
    ConvergenceReport,
    cell_error_norms,
    convergence_rates,
    error_Qu,
    error_u,
    extract_discrete_harmonic,
)
from divcurl.mesh import build_domain, build_structured_tet_mesh
from divcurl.problems import ProblemSpec, make_problem
from divcurl.weak_ops import project_field


def field_problem(u, eps, domain=None):
    return ProblemSpec(
        0, "field", np.asarray(eps, float), domain or build_domain(1),
        u, lambda p: np.zeros(len(p)), lambda p: np.zeros_like(p), "x",
    )


def test_error_u_zero_for_projection_of_constant():
    spec = field_problem(lambda p: np.tile([1.0, 2.0, 3.0], (len(p), 1)), np.eye(3))
    m = build_structured_tet_mesh(spec.domain, 2)
    u_h = project_field(spec.exact_u, m)
    assert error_u(spec, u_h, m) < 1e-12


def test_error_u_weighted_constant_mismatch():
    # eps = 4 I and a unit constant error: ||eps^(1/2) e|| = 2 sqrt(|Omega|)
    spec = field_problem(lambda p: np.zeros_like(p), 4.0 * np.eye(3))
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


def test_report_serialization(tmp_path):
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
    csv_path = tmp_path / "report.csv"
    rep.write_csv(str(csv_path))
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("example,inv_h,h,num_tets,num_free,err_u,rate_err_u")
    assert len(lines) == 3
    assert rep.rates("err_u") == [1.0]


def test_extraction_warns_on_simply_connected():
    spec = make_problem(1)
    m = build_structured_tet_mesh(spec.domain, 2)
    with pytest.warns(UserWarning):
        eta, sol, system = extract_discrete_harmonic(spec, m)
    assert eta.shape == (m.num_tets, 3)
    # the defect is the projection error of the solve, small for smooth data
    nrm = np.sqrt(np.sum(m.geometry.volumes * np.einsum("td,td->t", eta, eta)))
    assert nrm < 0.5


def test_extraction_decays_on_simply_connected():
    spec = make_problem(1)
    norms = []
    for n in (2, 4):
        m = build_structured_tet_mesh(spec.domain, n)
        with pytest.warns(UserWarning):
            eta, _, _ = extract_discrete_harmonic(spec, m)
        norms.append(np.sqrt(np.sum(m.geometry.volumes * np.einsum("td,td->t", eta, eta))))
    assert norms[1] < 0.75 * norms[0]


def test_combined_multiplier_norms_decrease():
    # past the coarsest level, the summed stabilizer semi-norms shrink by
    # at least 1.8x per halving of h on the smooth benchmark
    from divcurl.analysis import triple_norm_dual, triple_norm_s
    from divcurl.assembly import assemble_global
    from divcurl.solver import solve

    spec = make_problem(1)
    sums = []
    for n in (4, 8):
        m = build_structured_tet_mesh(spec.domain, n)
        system = assemble_global(spec, m)
        sol = solve(system)
        sums.append(triple_norm_dual(system, sol) + triple_norm_s(system, sol))
    assert sums[0] / sums[1] >= 1.8


def test_extraction_persists_on_toroid():
    spec = make_problem(7, beta=1.0)
    norms = []
    for n in (2, 4):
        m = build_structured_tet_mesh(spec.domain, n)
        eta, sol, system = extract_discrete_harmonic(spec, m)
        norms.append(np.sqrt(np.sum(m.geometry.volumes * np.einsum("td,td->t", eta, eta))))
    # harmonic defect levels off instead of vanishing
    assert norms[1] > 0.5 * norms[0]
    assert norms[1] > 0.4
