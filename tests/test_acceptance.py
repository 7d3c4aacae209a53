"""Acceptance suite: one test per criterion, each printing a PASS line
with the measured quantities.

Criteria 4-9 drive the full study pipeline with default parameters and
assert convergence-rate windows; exact error magnitudes are not asserted
(they scale with the stabilizer constants, rates are the contract).
"""

import time

import numpy as np

from divcurl.analysis import error_u, triple_norm_dual, triple_norm_s
from divcurl.assembly import assemble_global
from divcurl.cli import RunConfig, run_study
from divcurl.invariants import (
    commutativity_defect,
    load_oracle_defect,
    patch_test_defects,
    system_defects,
)
from divcurl.mesh import build_structured_tet_mesh
from divcurl.problems import ProblemSpec, make_problem
from divcurl.solver import solve


def report_line(num, text):
    print(f"PASS criterion {num}: {text}")


def ladder(example, refinements, **kw):
    config = RunConfig(example=example, refinements=refinements, **kw).validate()
    report = run_study(config)
    assert report.failure is None, report.failure
    return report


def in_window(rates, lo, hi):
    return all(r is not None and lo <= r <= hi for r in rates)


def test_criterion_1_patch_test():
    t0 = time.perf_counter()
    eu, duals = patch_test_defects()
    elapsed = time.perf_counter() - t0
    assert eu <= 1e-8 and duals <= 1e-8
    assert elapsed < 5.0
    report_line(1, f"patch test e_u={eu:.2e}, dual norms<={duals:.2e}, {elapsed:.2f}s")


def test_criterion_2_commutativity_property():
    t0 = time.perf_counter()
    worst = commutativity_defect(np.random.default_rng(20240901), 1000)
    elapsed = time.perf_counter() - t0
    assert worst < 1e-11
    assert elapsed < 5.0
    report_line(2, f"commutativity on 1000 random affine fields, worst={worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_load_oracle():
    t0 = time.perf_counter()
    worst = load_oracle_defect(np.random.default_rng(20240902), 100)
    assert worst < 1e-5
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report_line(3, f"load oracle max deviation {worst:.2e}, {elapsed:.2f}s")


def test_criterion_4_smooth_cube_rates():
    t0 = time.perf_counter()
    report = ladder(1, (2, 4, 8))
    ru = report.rates("err_u")
    rs = report.rates("tnorm_s")
    elapsed = time.perf_counter() - t0
    assert in_window(ru, 0.85, 1.15), ru
    assert in_window(rs, 0.8, 1.2), rs
    assert elapsed < 180.0
    report_line(4, f"problem 1 rates e_u={[f'{r:.2f}' for r in ru]}, "
                   f"e_s={[f'{r:.2f}' for r in rs]}, {elapsed:.1f}s")


def test_criterion_5_lshape_rates():
    t0 = time.perf_counter()
    report = ladder(3, (2, 4, 8))
    rq = report.rates("err_Qu")
    rd = report.rates("tnorm_dual")
    rs = report.rates("tnorm_s")
    elapsed = time.perf_counter() - t0
    assert in_window(rq, 0.6, 0.85), rq
    assert in_window(rd, 0.5, 0.75), rd
    assert in_window(rs, 0.5, 0.75), rs
    assert elapsed < 300.0
    report_line(5, f"problem 3 rates e_Qu={[f'{r:.2f}' for r in rq]}, "
                   f"dual={[f'{r:.2f}' for r in rd]}, e_s={[f'{r:.2f}' for r in rs]}, {elapsed:.1f}s")


def test_criterion_6_cavity_rates_and_recovery():
    t0 = time.perf_counter()
    report = ladder(4, (2, 4, 8))
    rq = report.rates("err_Qu")
    elapsed = time.perf_counter() - t0
    assert in_window(rq, 0.55, 0.75), rq
    for row in report.rows:
        assert np.isfinite(row["cavity_c1"])
        assert row["residual_after_recovery"] <= row["residual_before_recovery"]
    assert elapsed < 300.0
    c1 = report.rows[-1]["cavity_c1"]
    report_line(6, f"problem 4 rates e_Qu={[f'{r:.2f}' for r in rq]}, c1={c1:.3e}, {elapsed:.1f}s")


def test_criterion_7_toroid_singular_rates():
    report = ladder(5, (2, 4, 8), gamma=2.0 / 3.0)
    ru = report.rates("err_u")
    assert in_window(ru, 0.5, 0.8), ru
    report_smooth = ladder(5, (2, 4, 8), gamma=1.25)
    ru_s = report_smooth.rates("err_u")
    assert in_window(ru_s, 0.85, 1.1), ru_s
    report_line(7, f"problem 5 rates e_u gamma=2/3 {[f'{r:.2f}' for r in ru]}, "
                   f"gamma=5/4 {[f'{r:.2f}' for r in ru_s]}")


def test_criterion_8_two_hole_toroid_rates():
    report = ladder(6, (2, 4, 8))
    ru = report.rates("err_u")
    assert in_window(ru, 0.45, 0.65), ru
    report_line(8, f"problem 6 rates e_u={[f'{r:.2f}' for r in ru]}")


def test_criterion_9_harmonic_pollution(tmp_path):
    vtk = tmp_path / "harmonic.vtk"
    config = RunConfig(example=7, beta=1.0, refinements=(2, 4, 8), vtk=str(vtk)).validate()
    report = run_study(config)
    assert report.failure is None
    rq = report.rates("err_Qu")
    rd = report.rates("tnorm_dual")
    rs = report.rates("tnorm_s")
    assert rq[-1] <= 0.3, rq  # no convergence: harmonic defect dominates
    assert rd[-1] >= 0.55, rd
    assert rs[-1] >= 0.55, rs
    text = vtk.read_text()
    assert "VECTORS eta_h double" in text
    report_line(9, f"problem 7 e_Qu rate 4->8 {rq[-1]:.2f} (stall), "
                   f"dual {rd[-1]:.2f}, e_s {rs[-1]:.2f}, harmonic field exported")


def test_criterion_10_system_sanity():
    asymmetry, min_energy = system_defects(np.random.default_rng(7), 100)
    assert asymmetry == 0.0
    assert min_energy >= -1e-12
    spec = make_problem(1)
    m = build_structured_tet_mesh(spec.domain, 2)
    zero_spec = ProblemSpec(
        0, "zero", spec.eps, spec.domain,
        lambda p: np.zeros_like(p), lambda p: np.zeros(len(p)),
        lambda p: np.zeros_like(p), "zero",
    )
    zero_system = assemble_global(zero_spec, m)
    sol = solve(zero_system)
    assert np.abs(sol.x).max() == 0.0
    report_line(10, "matrix exactly symmetric, stabilizers PSD, homogeneous solve zero")


def test_criterion_11_solver_cross_check():
    spec = make_problem(1)
    worst = 0.0
    for n in (2, 4):
        m = build_structured_tet_mesh(spec.domain, n)
        system = assemble_global(spec, m)
        sd = solve(system, method="direct")
        si = solve(system, method="minres")
        worst = max(
            worst,
            abs(error_u(spec, sd.u, m) - error_u(spec, si.u, m)),
            abs(triple_norm_dual(system, sd) - triple_norm_dual(system, si)),
            abs(triple_norm_s(system, sd) - triple_norm_s(system, si)),
        )
    assert worst <= 1e-6
    report_line(11, f"direct vs MINRES error norms agree to {worst:.2e}")
