"""Benchmark problem definitions: exact fields, loads, and the
finite-difference oracle that validates every derived load formula."""

import dataclasses

import numpy as np
import pytest

from divcurl.problems import (
    ProblemError,
    cyl_coords,
    finite_difference_check,
    make_problem,
)

from invariants import oracle_points, problem_variants


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(20240815)


def P(*xyz):
    return np.array([xyz], dtype=float)


def test_coefficient_matrices():
    assert np.allclose(make_problem(1).eps, np.diag([3.0, 2.0, 1.0]))
    for ex in range(2, 8):
        assert np.allclose(make_problem(ex).eps, np.eye(3))


def test_problem1_values():
    spec = make_problem(1)
    assert np.allclose(spec.exact_u(P(0.5, 0.5, 0.5))[0], [0.5, 0.5, 0.5])
    assert spec.f(P(0.0, 0.0, 0.3))[0] == pytest.approx(np.pi + 6.0)
    x, y = 0.3, 0.8
    g = spec.g(P(x, y, 0.1))[0]
    assert np.allclose(
        g, [0.0, 0.0, 2.0 * np.pi * np.sin(np.pi * x) * np.sin(np.pi * y)]
    )


def test_problem3_loads_vanish():
    spec = make_problem(3)
    pts = oracle_points(spec)
    assert np.abs(spec.f(pts)).max() == 0.0
    assert np.abs(spec.g(pts)).max() == 0.0


def test_problem3_field_blowup():
    spec = make_problem(3)
    # |u| grows like r^(-1/3) toward the reentrant edge
    r1 = np.linalg.norm(spec.exact_u(P(1e-3, 1e-3, 0.5))[0])
    r2 = np.linalg.norm(spec.exact_u(P(1e-6, 1e-6, 0.5))[0])
    assert r2 / r1 == pytest.approx(10.0, rel=0.05)
    # boundary ray theta = 0
    assert np.allclose(spec.exact_u(P(1.0, 0.0, 0.5))[0], [2.0 / 3.0, 0.0, 0.0])


def test_problem4_radial_field():
    spec = make_problem(4)
    r = 0.37
    u = spec.exact_u(P(r, 0.0, 0.0))[0]
    assert np.allclose(u, [(1.0 / 6.0) * r ** (-5.0 / 6.0), 0.0, 0.0])
    assert spec.f(P(r, 0.0, 0.0))[0] == pytest.approx((7.0 / 36.0) * r ** (-11.0 / 6.0))
    assert np.abs(spec.g(P(0.2, -0.3, 0.1))).max() == 0.0


def test_problem5_curl_magnitude_matches_polar_form():
    # g_z = (alpha^2 - gamma^2) r^(gamma-2) sin(alpha theta), alpha = 2
    gamma = 2.0 / 3.0
    spec = make_problem(5, gamma=gamma)
    pts = oracle_points(spec)
    r = np.hypot(pts[:, 0], pts[:, 1])
    theta = np.arctan2(pts[:, 1], pts[:, 0])
    expected = (4.0 - gamma**2) * r ** (gamma - 2.0) * np.sin(2.0 * theta)
    assert np.allclose(spec.g(pts)[:, 2], expected, rtol=1e-12)
    assert np.abs(spec.f(pts)).max() == 0.0


def test_problem7_combines_rotation():
    spec5 = make_problem(5, gamma=2.0 / 3.0)
    spec7 = make_problem(7, beta=1.0)
    pts = oracle_points(spec7)
    diff = spec7.exact_u(pts) - spec5.exact_u(pts)
    x, y = pts[:, 0], pts[:, 1]
    assert np.allclose(diff[:, 0], np.sin(np.pi * x) * np.cos(np.pi * y))
    assert np.allclose(diff[:, 1], -np.sin(np.pi * y) * np.cos(np.pi * x))
    # normal data is driven by the potential part alone
    normals = np.tile([0.0, 0.0, 1.0], (len(pts), 1))
    assert np.allclose(
        spec7.phi1(pts, normals),
        np.einsum("nd,nd->n", spec5.exact_u(pts), normals),
    )


def test_cyl_coords_conventions():
    r, th = cyl_coords(np.array([[1.0, 0.0, 0.2], [0.0, -1.0, 0.2]]))
    assert np.allclose(r, 1.0)
    assert th[0] == pytest.approx(0.0, abs=1e-14)
    assert th[1] == pytest.approx(1.5 * np.pi)
    with pytest.raises(ValueError):
        cyl_coords(np.array([[0.0, 0.0, 1.0]]))


def test_parameter_validation():
    with pytest.raises(ProblemError):
        make_problem(0)
    with pytest.raises(ProblemError):
        make_problem(5, gamma=0.9)
    with pytest.raises(ProblemError):
        make_problem(7, beta=2.0)
    with pytest.raises(ProblemError):
        make_problem(1, gamma=1.0)
    with pytest.raises(ProblemError):
        make_problem(5, beta=1.0)
    with pytest.raises(ProblemError):
        make_problem(7, gamma=1.0)
    with pytest.raises(ProblemError):
        make_problem(6, gamma=0.5)
    with pytest.raises(ProblemError):
        make_problem(8)
    # a non-integer or bool id, a non-numeric or bool parameter
    for bad_id in (1.0, True, "1", None):
        with pytest.raises(ProblemError):
            make_problem(bad_id)
    for bad in ("x", None, True, [1.0], np.array(1.0)):
        with pytest.raises(ProblemError):
            make_problem(5, gamma=bad)
    make_problem(5, gamma=1.0)
    make_problem(7, beta=5.0)
    make_problem(7, gamma=2.0 / 3.0)
    assert make_problem(5).params["gamma"] == 2.0 / 3.0
    assert make_problem(7).params["beta"] == 1.0


@pytest.mark.parametrize(
    "eps",
    [
        np.eye(2),  # unchecked, the assembly raises a bare ValueError
        np.diag([3.0, np.inf, 1.0]),
        np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),  # err_u 4
        -np.eye(3),  # err_Qu is nan
    ],
    ids=["2x2", "infinite", "asymmetric", "negative"],
)
def test_eps_must_be_symmetric_positive_definite(eps):
    # checked on construction, and again by dataclasses.replace
    with pytest.raises(ProblemError, match="symmetric positive definite 3x3"):
        dataclasses.replace(make_problem(1), eps=eps)
    contrast = np.diag([1e6, 1.0, 1e-6])
    assert dataclasses.replace(make_problem(1), eps=contrast).eps is contrast


def test_phi1_antisymmetry(rng):
    spec = make_problem(1)
    pts = oracle_points(spec)
    n = rng.standard_normal(pts.shape)
    n /= np.linalg.norm(n, axis=1)[:, None]
    assert np.allclose(spec.phi1(pts, -n), -spec.phi1(pts, n))


@pytest.mark.parametrize("example", range(1, 8))
def test_load_oracle(example):
    # central differences of the exact field reproduce the closed-form
    # loads at every parameter value, away from the singular sets
    for spec in problem_variants(example):
        devs = finite_difference_check(spec, oracle_points(spec))
        assert devs["f"] < 1e-5, spec.params
        assert devs["g"] < 1e-5, spec.params
        assert devs["div_g"] < 1e-5, spec.params
