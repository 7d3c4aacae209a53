"""Study driver: configuration handling, artifacts, determinism, exit codes."""

import numpy as np
import pytest

from divcurl.cli import ConfigError, RunConfig, main, run_study


def test_config_validation():
    RunConfig(example=1, refinements=(2, 4)).validate()
    with pytest.raises(ConfigError):
        RunConfig(example=9).validate()
    with pytest.raises(ConfigError):
        RunConfig(example=1, refinements=(2, 3)).validate()
    with pytest.raises(ConfigError):
        RunConfig(example=1, rho1=-1.0).validate()
    with pytest.raises(ConfigError):
        RunConfig(example=1, gamma_exp=-2.0).validate()
    with pytest.raises(ConfigError):
        RunConfig(example=1, solver="gauss").validate()
    with pytest.raises(ConfigError):
        RunConfig(example=5, gamma=0.11).validate()


def test_run_study_small(tmp_path):
    csv = tmp_path / "out.csv"
    md = tmp_path / "out.md"
    vtk = tmp_path / "fields.vtk"
    config = RunConfig(
        example=1, refinements=(2, 4), csv=str(csv), md=str(md), vtk=str(vtk)
    ).validate()
    report = run_study(config)
    assert report.failure is None
    assert len(report.rows) == 2
    rate = report.rates("err_u")[0]
    assert 0.8 < rate < 1.3
    assert csv.exists() and md.exists() and vtk.exists()
    text = vtk.read_text()
    assert "VECTORS u_h double" in text
    assert "SCALARS cell_error double" in text


def test_run_study_emits_harmonic_field(tmp_path):
    vtk = tmp_path / "toroid.vtk"
    config = RunConfig(example=7, refinements=(2,), vtk=str(vtk)).validate()
    report = run_study(config)
    assert report.failure is None
    assert "VECTORS eta_h double" in vtk.read_text()


def test_csv_reruns_identical(tmp_path):
    paths = []
    for tag in ("a", "b"):
        csv = tmp_path / f"{tag}.csv"
        config = RunConfig(
            example=1, refinements=(2,), solver="direct", csv=str(csv)
        ).validate()
        run_study(config)
        paths.append(csv.read_bytes())
    assert paths[0] == paths[1]


def test_main_exit_codes(tmp_path):
    assert main(["--example", "1", "--refinements", "2"]) == 0
    assert main(["--example", "12"]) == 2
    assert main(["--example", "1", "--refinements", "2", "3"]) == 2
    assert main([]) == 2  # example is required
    assert main(["--selftest", "--seed", "5"]) == 0


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_text(
        "# convergence study\n"
        "example = 1\n"
        "refinements = 2,4\n"
        "rho1 = 2.0\n"
    )
    csv = tmp_path / "o.csv"
    code = main(
        ["--config", str(cfg), "--refinements", "2", "--csv", str(csv)]
    )
    assert code == 0
    lines = csv.read_text().splitlines()
    assert len(lines) == 2  # header + the single flag-override level
    bad = tmp_path / "bad.cfg"
    bad.write_text("whatisthis\n")
    assert main(["--config", str(bad)]) == 2
    unknown = tmp_path / "unk.cfg"
    unknown.write_text("nope = 3\n")
    assert main(["--config", str(unknown)]) == 2
    # the seed only drives --selftest; it is no study setting
    seeded = tmp_path / "seed.cfg"
    seeded.write_text("example = 1\nrefinements = 2\nseed = 1\n")
    assert main(["--config", str(seeded)]) == 2


def test_report_contains_cavity_constant():
    config = RunConfig(example=4, refinements=(2,)).validate()
    report = run_study(config)
    row = report.rows[0]
    assert np.isfinite(row["cavity_c1"])
    assert row["residual_after_recovery"] <= row["residual_before_recovery"]


def test_selftest_catches_mutated_kernel(monkeypatch, capsys):
    # deliberate fault injection: a sign error in the gradient kernel must
    # trip the commutativity check and fail the selftest with exit code 3
    from divcurl import weak_ops
    from divcurl.invariants import commutativity_defect

    assert commutativity_defect(np.random.default_rng(1), 25) < 1e-11
    true_kernel = weak_ops.weak_gradient
    monkeypatch.setattr(
        weak_ops, "weak_gradient", lambda geom, vb: -true_kernel(geom, vb)
    )
    assert commutativity_defect(np.random.default_rng(1), 25) > 1e-11
    capsys.readouterr()
    assert main(["--selftest", "--seed", "5"]) == 3
    out = capsys.readouterr().out
    assert "[FAIL] projection commutativity" in out
    assert out.count("[ok]") == 4


def test_solver_failure_exit_code(monkeypatch, capsys):
    from divcurl import cli
    from divcurl.solver import SolverError

    def boom(system, method="auto", tol=None, max_iter=None):
        raise SolverError("injected failure")

    monkeypatch.setattr(cli.solver, "solve", boom)
    code = main(["--example", "1", "--refinements", "2", "4"])
    assert code == 1
    err = capsys.readouterr().err
    assert "injected failure" in err and "solve" in err
