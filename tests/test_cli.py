"""Study driver: configuration handling, artifacts, determinism, exit codes."""

import csv
import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import divcurl
from divcurl import analysis
from divcurl.cli import ConfigError, RunConfig, main, run_study


def test_config_validation():
    RunConfig(example=1, refinements=(2, 4)).validate()
    with pytest.raises(ConfigError):
        RunConfig(example=9).validate()
    with pytest.raises(ConfigError):
        RunConfig(example=1, refinements=(2, 3)).validate()
    with pytest.raises(ConfigError):
        RunConfig(example=1, solver="gauss").validate()
    with pytest.raises(ConfigError):
        RunConfig(example=5, gamma=0.11).validate()
    # a fraction is not truncated to an integer
    for bad in (dict(refinements=(2.9,)), dict(refinements=(2, 4.0)),
                dict(quad_degree=2.5)):
        with pytest.raises(ConfigError):
            RunConfig(example=1, **bad).validate()
    assert RunConfig(example=1, refinements=(np.int64(2),)).validate().refinements == (2,)
    # a value of the wrong type is a configuration error, not a TypeError
    for bad in (dict(refinements=2), dict(example=1.0), dict(example="1"),
                dict(example=5, gamma="2/3"), dict(example=True),
                dict(quad_degree=True), dict(refinements=(True,))):
        with pytest.raises(ConfigError):
            RunConfig(**{"example": 1, **bad}).validate()


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
    # the header names the fixed stabilizer as the settings once did
    assert md.read_text().endswith(
        "\nproblem 1; rho1=1.0; rho2=1.0; rho3=1.0; gamma_exp=-1.0; quad_degree=4\n"
    )
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


GOLDEN = Path(__file__).parent / "data" / "direct_refinements_2_4.csv"


def _rows(path, example):
    with open(path, newline="") as fh:
        return [row for row in csv.DictReader(fh) if row["example"] == str(example)]


@pytest.mark.parametrize("example", range(1, 8))
def test_direct_rows_match_recorded(tmp_path, example):
    # `divcurl --example E --refinements 2 4 --solver direct` against rows
    # recorded before the discretization kernels were rewritten; the
    # tolerance leaves room for other BLAS builds, not for a changed scheme
    out = tmp_path / "out.csv"
    args = ["--example", str(example), "--refinements", "2", "4"]
    assert main(args + ["--solver", "direct", "--csv", str(out)]) == 0
    got, want = _rows(out, example), _rows(GOLDEN, example)
    assert len(got) == len(want) == 2
    assert list(got[0]) == list(want[0])
    for g, w in zip(got, want):
        for col in w:
            if col == "solver_residual":
                assert float(g[col]) <= 1e-10
            elif w[col] == "" or g[col] == "":
                assert g[col] == w[col], col
            else:
                assert float(g[col]) == pytest.approx(float(w[col]), rel=1e-10), col


def test_main_exit_codes(tmp_path):
    assert main(["--example", "1", "--refinements", "2"]) == 0
    assert main(["--example", "12"]) == 2
    assert main(["--example", "1", "--refinements", "2", "3"]) == 2
    assert main([]) == 2  # example is required
    assert main(["--selftest"]) == 2  # the invariant checks live in the tests
    assert main(["--seed", "5"]) == 2
    undecodable = tmp_path / "latin1.cfg"
    undecodable.write_bytes(b"example = 1\nrefinements = 2\xff\n")
    assert main(["--config", str(undecodable)]) == 2


def test_output_path_in_missing_directory(tmp_path, monkeypatch, capsys):
    # an output path is checked, up to its parent directory, before any
    # level runs
    missing = tmp_path / "no_such_dir"
    for name in ("csv", "md", "vtk"):
        for path in (missing / "out", tmp_path):
            with pytest.raises(ConfigError, match=name):
                RunConfig(example=1, **{name: str(path)}).validate()
    RunConfig(example=1, csv="bare_name.csv").validate()  # the working directory

    def no_levels(*args, **kwargs):
        raise AssertionError("a level ran")

    monkeypatch.setattr(analysis, "solve_level", no_levels)
    capsys.readouterr()
    args = ["--example", "1", "--refinements", "2", "4"]
    assert main(args + ["--csv", str(missing / "t.csv")]) == 2
    assert "configuration error:" in capsys.readouterr().err
    assert not missing.exists()


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "study.cfg"
    cfg.write_text(
        "# convergence study\n"
        "example = 1\n"
        "refinements = 2,4\n"
        "solver = direct\n"
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
    # seed and selftest are no study settings, in a file or as flags
    seeded = tmp_path / "seed.cfg"
    seeded.write_text("example = 1\nrefinements = 2\nseed = 1\n")
    assert main(["--config", str(seeded)]) == 2
    # the flags' own parser reads every value; a bad flag, key or value
    # is a configuration error, not an argparse exit
    for line in (
        "example = abc",
        "solver = gauss",
        "refinements =",
        "config = x",
        "selftest = 1",
    ):
        bad.write_text(f"example = 1\nrefinements = 2\n{line}\n")
        capsys.readouterr()
        assert main(["--config", str(bad)]) == 2, line
        assert "configuration error" in capsys.readouterr().err, line
    assert main(["--example", "1", "--bogus"]) == 2
    assert "configuration error" in capsys.readouterr().err
    # a negative value reaches the problem's own check, not argparse
    bad.write_text("example = 7\nrefinements = 2\nbeta = -1\n")
    capsys.readouterr()
    assert main(["--config", str(bad)]) == 2
    assert "beta must be one of" in capsys.readouterr().err
    # a hyphenated key, a trailing comment, space-separated refinements and
    # a path with a space; the CSV equals the one of the same flags
    spaced = tmp_path / "with space"
    spaced.mkdir()
    cfg.write_text(
        "example = 1\n"
        "refinements = 2 4\n"
        "quad-degree = 3  # one below the default\n"
        "solver = direct\n"
        f"csv = {spaced / 'o.csv'}\n"
    )
    assert main(["--config", str(cfg)]) == 0
    flags = tmp_path / "flags.csv"
    args = ["--example", "1", "--refinements", "2", "4", "--quad-degree", "3"]
    assert main(args + ["--solver", "direct", "--csv", str(flags)]) == 0
    assert (spaced / "o.csv").read_bytes() == flags.read_bytes()


def test_removed_tol_setting_is_a_configuration_error(tmp_path, capsys):
    # each solver method accepts a fixed residual; no flag or key sets it
    assert main(["--example", "1", "--refinements", "2", "--tol", "1e-9"]) == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err
    cfg = tmp_path / "tol.cfg"
    cfg.write_text("example = 1\nrefinements = 2\ntol = 1e-9\n")
    assert main(["--config", str(cfg)]) == 2
    assert "unknown setting" in capsys.readouterr().err


def test_removed_stabilizer_settings_are_configuration_errors(tmp_path, capsys):
    # rho1 = rho2 = rho3 = 1 and gamma = -1 are fixed in the assembly
    cfg = tmp_path / "stab.cfg"
    for flag, key in (("--rho1", "rho1"), ("--rho2", "rho2"), ("--rho3", "rho3"),
                      ("--gamma-exp", "gamma-exp")):
        assert main(["--example", "1", "--refinements", "2", flag, "1"]) == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        cfg.write_text(f"example = 1\nrefinements = 2\n{key} = 1\n")
        assert main(["--config", str(cfg)]) == 2
        assert "unknown setting" in capsys.readouterr().err
    spec = divcurl.make_problem(1)
    m = divcurl.build_structured_tet_mesh(spec.domain, 1)
    for name in ("rho1", "rho2", "rho3", "gamma_exp"):
        with pytest.raises(TypeError, match=name):
            divcurl.assemble_global(spec, m, **{name: 1.0})


def test_report_contains_cavity_constant():
    config = RunConfig(example=4, refinements=(2,)).validate()
    report = run_study(config)
    row = report.rows[0]
    assert np.isfinite(row["cavity_c1"])
    assert row["residual_after_recovery"] <= row["residual_before_recovery"]


def test_solver_failure_exit_code(monkeypatch, capsys):
    from divcurl import solver

    def boom(system, method="auto"):
        raise solver.SolverError("injected failure")

    monkeypatch.setattr(solver, "solve", boom)
    code = main(["--example", "1", "--refinements", "2", "4"])
    assert code == 1
    err = capsys.readouterr().err
    assert "injected failure" in err and "solve" in err


def test_exact_field_evaluated_once_per_level(tmp_path):
    # problem 7 drives its boundary data by its own normal trace field, so
    # every exact_u call comes from the error evaluation; the VTK export
    # reuses the last level's fields
    calls = []
    spec = divcurl.make_problem(7, beta=1.0)

    def counted(points):
        calls.append(len(points))
        return spec.exact_u(points)

    config = RunConfig(
        example=7,
        refinements=(2, 4),
        beta=1.0,
        vtk=str(tmp_path / "toroid.vtk"),
        problem_spec=dataclasses.replace(spec, exact_u=counted),
    )
    report = run_study(config)
    assert report.failure is None and len(report.rows) == 2
    assert len(calls) == 2


@pytest.mark.parametrize("fault", ["shape", "nonfinite"])
@pytest.mark.parametrize(
    "name, example, stage",
    [
        ("f", 1, "assemble"),
        ("g", 1, "assemble"),
        ("normal_trace_field", 7, "assemble"),
        ("exact_u", 1, "assemble"),  # the boundary data reads it
        ("exact_u", 7, "errors"),  # its boundary data has a field of its own
    ],
)
def test_bad_problem_callable_fails_its_level(name, example, stage, fault):
    # one value too few, or a NaN at the last point, fails the level with
    # a ProblemError naming the callable, where it used to escape run_study
    # or report a non-finite load at the solve
    spec = divcurl.make_problem(example)
    good = getattr(spec, name)

    def bad(points):
        values = np.array(good(points))
        if fault == "shape":
            return values[:-1]
        values[-1] = np.nan
        return values

    spec = dataclasses.replace(spec, **{name: bad})
    config = RunConfig(example=example, refinements=(2, 4), problem_spec=spec)
    report = run_study(config)
    assert report.rows == []
    assert report.failure["inv_h"] == 2 and report.failure["stage"] == stage
    message = report.failure["message"]
    if fault == "shape":
        shapes = re.fullmatch(
            rf"{name} returned values of shape \((\d+),( 3|)\), expected \((\d+),\2\)",
            message,
        )
        assert int(shapes[1]) == int(shapes[3]) - 1, message
    else:
        assert message.startswith(f"{name} is not finite at the point [")


def test_failure_stage_mesh(tmp_path, capsys):
    # the cavity of problem 4 is not aligned with the 1/h = 1 lattice
    vtk = tmp_path / "f.vtk"
    config = RunConfig(example=4, refinements=(1, 2), vtk=str(vtk)).validate()
    report = run_study(config)
    assert report.failure["inv_h"] == 1
    assert report.failure["stage"] == "mesh"
    assert report.rows == [] and not vtk.exists()
    assert main(["--example", "4", "--refinements", "1", "2"]) == 1
    assert "failed during mesh" in capsys.readouterr().err


def test_malformed_or_huge_domain_fails_its_level_at_the_mesh(capsys):
    # a bounding box of 2-vectors used to escape run_study as numpy's
    # broadcasting error, and a lattice too large to index as "array is
    # too big"
    box = divcurl.DomainSpec((0, 0), (1, 1))
    spec = dataclasses.replace(divcurl.make_problem(1), domain=box)
    report = run_study(RunConfig(example=1, refinements=(2,), problem_spec=spec))
    assert report.failure["stage"] == "mesh"
    assert "is not a pair of 3-vectors lo < hi" in report.failure["message"]
    for excluded in (None, 5):  # each used to escape as a TypeError
        domain = divcurl.DomainSpec((0, 0, 0), (1, 1, 1), excluded)
        spec = dataclasses.replace(divcurl.make_problem(1), domain=domain)
        report = run_study(RunConfig(example=1, refinements=(2,), problem_spec=spec))
        assert report.failure["stage"] == "mesh"
        assert "is not a sequence" in report.failure["message"]
    assert main(["--example", "1", "--refinements", str(2**40)]) == 1
    assert "failed during mesh" in capsys.readouterr().err


def test_failure_stage_solve_keeps_completed_level(tmp_path, monkeypatch):
    from divcurl import solver

    true_solve, calls = solver.solve, []

    def second_fails(system, **kwargs):
        calls.append(system.dofmap.num_free)
        if len(calls) == 2:
            raise solver.SolverError("injected failure")
        return true_solve(system, **kwargs)

    monkeypatch.setattr(solver, "solve", second_fails)
    vtk = tmp_path / "f.vtk"
    config = RunConfig(example=1, refinements=(2, 4), vtk=str(vtk)).validate()
    report = run_study(config)
    assert len(report.rows) == 1
    assert report.failure["inv_h"] == 4
    assert report.failure["stage"] == "solve"
    assert report.failure["message"] == "injected failure"
    assert "CELLS 48 " in vtk.read_text()  # the 1/h = 2 mesh


def test_module_entry_point_imports_cleanly():
    # the package must not import divcurl.cli itself, or ``python -m``
    # warns that the module was found in sys.modules before it ran
    src = str(Path(divcurl.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "divcurl.cli", "--help"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
