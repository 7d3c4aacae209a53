"""Built-in benchmark problems: coefficient, exact field, and loads.

Each problem prescribes an exact vector field u and a symmetric positive
definite coefficient matrix; the volume loads and the normal boundary
data are the hand-derived closed forms

    f = div(eps u),   g = curl u,   phi1 = (eps u) . n.

Every load formula is cross-validated by the central-difference oracle in
:func:`finite_difference_check`; the branch conventions for the singular
corner potentials are recorded below.

Corner potentials
-----------------
Problems 2, 5, 6 and 7 use potentials of the form r^gamma sin(2 theta)
about a vertical axis.  Since sin(2 theta) = 2 x y / r^2 is single valued,
these are implemented as rational expressions with no branch cut; the
derivative formulas are (with rr = x^2 + y^2)

    w   = 2 x y rr^(gamma/2 - 1)
    w_x = 2 y rr^(gamma/2 - 2) (rr + (gamma - 2) x^2)
    w_y = 2 x rr^(gamma/2 - 2) (rr + (gamma - 2) y^2)
    -Lap w = (4 - gamma^2) r^(gamma-2) sin(2 theta)
           = 2 (4 - gamma^2) x y rr^(gamma/2 - 2).

Problem 3 uses r^(2/3) sin(2 theta / 3) on the L-shaped cross-section,
with theta in [0, 2 pi) measured counterclockwise from the positive
x-axis; the branch cut lies in the excluded quadrant.  The rotated
gradient of that potential is (2/3) r^(-1/3) (cos(theta/3), sin(theta/3), 0).
"""

from dataclasses import dataclass, field
from numbers import Integral, Real

import numpy as np

from .mesh import DomainSpec, _numeric, build_domain

__all__ = [
    "ProblemSpec",
    "ProblemError",
    "evaluate",
    "make_problem",
    "cyl_coords",
    "finite_difference_check",
]

# quadrature/evaluation points never sit on a singular axis for lattice
# meshes; the floor only guards against accidental exact hits
_R2_FLOOR = 1e-28


class ProblemError(ValueError):
    """Unknown problem id or invalid parameter combination."""


@dataclass(frozen=True)
class ProblemSpec:
    """A div-curl problem on a box-union domain.

    ``exact_u``, ``f`` and ``g`` are vectorized callables mapping (N, 3)
    point arrays to (N, 3), (N,) and (N, 3) values.  ``eps`` is a constant
    symmetric positive definite 3x3 matrix, kept as a float array; any
    other raises :class:`ProblemError`.

    Who reads each field: the mesh reads ``domain``; the assembly reads
    ``eps`` (into B) and the loads ``f``, ``g`` and :meth:`phi1`, which
    takes ``normal_trace_field``, else ``exact_u``; the errors read
    ``exact_u`` and ``eps``; the report header reads ``params``.  No
    solver stage reads ``singular_axes`` or ``singular_points``: they
    keep a load check's points off the singular sets
    (``tests/invariants.py::oracle_points``).
    """

    eps: np.ndarray
    domain: DomainSpec
    exact_u: callable
    f: callable
    g: callable
    params: dict = field(default_factory=dict)
    singular_axes: tuple = ()  # (x0, y0) of vertical singular edges
    singular_points: tuple = ()  # isolated singular points
    normal_trace_field: callable = None  # boundary field, defaults to exact_u

    def __post_init__(self):
        eps = np.asarray(self.eps, dtype=float)
        if eps.shape == (3, 3) and np.isfinite(eps).all() and (eps == eps.T).all():
            try:
                np.linalg.cholesky(eps)
                object.__setattr__(self, "eps", eps)
                return
            except np.linalg.LinAlgError:
                pass
        raise ProblemError(
            f"eps must be a symmetric positive definite 3x3 matrix, got {eps.tolist()}"
        )

    def phi1(self, points: np.ndarray, normals: np.ndarray) -> np.ndarray:
        """Normal boundary data (eps u_b) . n for unit normals.

        ``u_b`` is ``exact_u`` unless ``normal_trace_field`` overrides it
        (problem 7 drives the boundary with the vector-potential part
        only, which is what leaves a harmonic defect in the solution).
        """
        name = "normal_trace_field" if self.normal_trace_field else "exact_u"
        ub = evaluate(name, getattr(self, name), points, (3,))
        return np.einsum("nd,nd->n", ub @ self.eps.T, normals)


def evaluate(name: str, func, points: np.ndarray, shape: tuple) -> np.ndarray:
    """``func(points)`` as a float array of shape ``(len(points), *shape)``.

    Values of another shape, or one that is not finite, raise
    :class:`ProblemError` naming the callable ``name``, with both shapes
    or the first point whose value is not finite.
    """
    values = np.asarray(func(points), dtype=float)
    want = (len(points), *shape)
    if values.shape != want:
        raise ProblemError(
            f"{name} returned values of shape {values.shape}, expected {want}"
        )
    finite = np.isfinite(values)
    if not finite.all():
        bad = np.flatnonzero(~finite.reshape(len(points), -1).all(axis=1))[0]
        raise ProblemError(f"{name} is not finite at the point {points[bad].tolist()}")
    return values


def cyl_coords(points: np.ndarray):
    """Cylindrical (r, theta) about the z-axis, theta in [0, 2 pi).

    The cut runs along the positive x-axis (L-shaped domain convention,
    the cut lies in the excluded quadrant).

    Raises ``ValueError`` on the axis (r = 0).
    """
    pts = np.atleast_2d(points)
    x, y = pts[:, 0], pts[:, 1]
    r = np.hypot(x, y)
    if np.any(r == 0.0):
        raise ValueError("cylindrical angle undefined on the axis r = 0")
    theta = np.arctan2(y, x)
    return r, np.where(theta < 0.0, theta + 2.0 * np.pi, theta)


def _corner_potential(gamma: float, center=(0.0, 0.0)):
    """w = r^gamma sin(2 theta) about a vertical axis, and its derivatives.

    Returns callables w(pts), wx(pts), wy(pts), neg_lap(pts): the
    potential, its rotated gradient field and that field's curl strength.
    """
    cx, cy = center

    def parts(pts):
        x = pts[:, 0] - cx
        y = pts[:, 1] - cy
        rr = np.maximum(x * x + y * y, _R2_FLOOR)
        return x, y, rr

    def w(pts):
        x, y, rr = parts(pts)
        return 2.0 * x * y * rr ** (0.5 * gamma - 1.0)

    def wx(pts):
        x, y, rr = parts(pts)
        return 2.0 * y * rr ** (0.5 * gamma - 2.0) * (rr + (gamma - 2.0) * x * x)

    def wy(pts):
        x, y, rr = parts(pts)
        return 2.0 * x * rr ** (0.5 * gamma - 2.0) * (rr + (gamma - 2.0) * y * y)

    def neg_lap(pts):
        x, y, rr = parts(pts)
        return 2.0 * (4.0 - gamma * gamma) * x * y * rr ** (0.5 * gamma - 2.0)

    return w, wx, wy, neg_lap


def _rotating_field(pts, beta=1.0):
    x, y = pts[:, 0], pts[:, 1]
    out = np.zeros_like(pts)
    out[:, 0] = beta * np.sin(np.pi * x) * np.cos(np.pi * y)
    out[:, 1] = -beta * np.sin(np.pi * y) * np.cos(np.pi * x)
    return out


def _problem_1():
    eps = np.diag([3.0, 2.0, 1.0])

    def exact_u(pts):
        u = _rotating_field(pts)
        return u + pts

    def f(pts):
        x, y = pts[:, 0], pts[:, 1]
        return np.pi * np.cos(np.pi * x) * np.cos(np.pi * y) + 6.0

    def g(pts):
        x, y = pts[:, 0], pts[:, 1]
        out = np.zeros_like(pts)
        out[:, 2] = 2.0 * np.pi * np.sin(np.pi * x) * np.sin(np.pi * y)
        return out

    return ProblemSpec(eps, build_domain(1), exact_u, f, g)


def _problem_2():
    gamma = 2.0 / 3.0
    w, wx, wy, _ = _corner_potential(gamma)

    def exact_u(pts):
        x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
        out = np.empty_like(pts)
        out[:, 0] = x * (1.0 - x)
        out[:, 1] = y * (1.0 - y)
        out[:, 2] = w(pts) * z * (1.0 - z)
        return out

    def f(pts):
        x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
        return (1.0 - 2.0 * x) + (1.0 - 2.0 * y) + w(pts) * (1.0 - 2.0 * z)

    def g(pts):
        z = pts[:, 2]
        out = np.empty_like(pts)
        out[:, 0] = wy(pts) * z * (1.0 - z)
        out[:, 1] = -wx(pts) * z * (1.0 - z)
        out[:, 2] = 0.0
        return out

    return ProblemSpec(
        np.eye(3), build_domain(2), exact_u, f, g, singular_axes=((0.0, 0.0),)
    )


def _problem_3():
    def exact_u(pts):
        r, theta = cyl_coords(pts)
        scale = (2.0 / 3.0) * r ** (-1.0 / 3.0)
        out = np.zeros_like(pts)
        out[:, 0] = scale * np.cos(theta / 3.0)
        out[:, 1] = scale * np.sin(theta / 3.0)
        return out

    def f(pts):
        return np.zeros(len(pts))

    def g(pts):
        return np.zeros_like(pts)

    return ProblemSpec(
        np.eye(3), build_domain(3), exact_u, f, g, singular_axes=((0.0, 0.0),)
    )


def _problem_4():
    def exact_u(pts):
        rr = np.maximum(np.einsum("nd,nd->n", pts, pts), _R2_FLOOR)
        return pts * (rr ** (-11.0 / 12.0) / 6.0)[:, None]

    def f(pts):
        rr = np.maximum(np.einsum("nd,nd->n", pts, pts), _R2_FLOOR)
        return (7.0 / 36.0) * rr ** (-11.0 / 12.0)

    def g(pts):
        return np.zeros_like(pts)

    return ProblemSpec(
        np.eye(3), build_domain(4), exact_u, f, g, singular_points=((0.0, 0.0, 0.0),)
    )


def _toroid_curl_problem(example, gammas, centers, beta=0.0):
    derivs = [_corner_potential(gam, c) for gam, c in zip(gammas, centers)]

    def potential_part(pts):
        out = np.zeros_like(pts)
        for _, wx, wy, _ in derivs:
            out[:, 0] += wy(pts)
            out[:, 1] -= wx(pts)
        return out

    def exact_u(pts):
        out = potential_part(pts)
        if beta:
            out += _rotating_field(pts, beta)
        return out

    def f(pts):
        return np.zeros(len(pts))

    def g(pts):
        x, y = pts[:, 0], pts[:, 1]
        out = np.zeros_like(pts)
        for *_, neg_lap in derivs:
            out[:, 2] += neg_lap(pts)
        if beta:
            out[:, 2] += 2.0 * np.pi * beta * np.sin(np.pi * x) * np.sin(np.pi * y)
        return out

    params = {"alpha": 2.0, "beta": beta}
    if len(gammas) == 1:
        params["gamma"] = gammas[0]
    else:
        params.update({"gamma1": gammas[0], "gamma2": gammas[1]})
    # With a smooth rotational part added (beta > 0) the normal boundary
    # data is driven by the vector-potential part alone.  The volume loads
    # still derive from the full field, so around the tunnel the solution
    # acquires a harmonic defect of size proportional to beta instead of
    # tracking the full field; that defect is the discrete harmonic field
    # this benchmark extracts.
    return ProblemSpec(
        np.eye(3), build_domain(example), exact_u, f, g,
        params=params,
        singular_axes=tuple(centers),
        normal_trace_field=potential_part if beta else None,
    )


# the values each problem parameter may take, the default first
_PARAMETERS = {
    5: {"gamma": (2.0 / 3.0, 5.0 / 4.0, 1.0)},
    7: {"gamma": (2.0 / 3.0,), "beta": (1.0, 5.0)},
}

_BUILDERS = {
    1: _problem_1,
    2: _problem_2,
    3: _problem_3,
    4: _problem_4,
    5: lambda gamma: _toroid_curl_problem(5, (gamma,), ((0.0, 0.0),)),
    6: lambda: _toroid_curl_problem(6, (0.5, 2.0 / 3.0), ((0.0, 0.0), (1.0, 0.0))),
    7: lambda gamma, beta: _toroid_curl_problem(7, (gamma,), ((0.0, 0.0),), beta=beta),
}


def make_problem(example_id: int, **params) -> ProblemSpec:
    """Build benchmark problem 1..7.

    Parameters
    ----------
    example_id : int
    gamma : float, optional
        Singularity exponent of problem 5 (one of 2/3, 5/4, 1; default
        2/3) and of problem 7 (2/3 only).
    beta : float, optional
        Strength of the smooth rotational part of problem 7 (1 or 5;
        default 1).

    Problems 1-4 and 6 take no parameters.  A value matches an allowed one
    to a relative 1e-9; anything else raises :class:`ProblemError`.
    """
    if not _numeric(example_id, Integral) or example_id not in _BUILDERS:
        raise ProblemError(f"unknown example id {example_id!r}, expected 1..7")
    allowed = _PARAMETERS.get(example_id, {})
    extra = set(params) - set(allowed)
    if extra:
        raise ProblemError(f"problem {example_id} has no parameter {sorted(extra)}")
    values = {}
    for name, choices in allowed.items():
        value = params.get(name, choices[0])
        if not _numeric(value, Real):
            raise ProblemError(f"{name} must be a number, got {value!r}")
        match = [c for c in choices if np.isclose(value, c, rtol=1e-9, atol=1e-12)]
        if not match:
            raise ProblemError(f"{name} must be one of {choices}, got {value}")
        values[name] = match[0]
    return _BUILDERS[example_id](**values)


# -- verification helpers ---------------------------------------------


def _fd_jacobian(func, pts: np.ndarray, step: float) -> np.ndarray:
    """Central-difference Jacobian d(func)_j / d x_i, shape (N, 3, ncomp)."""
    cols = []
    for axis in range(3):
        plus = pts.copy()
        plus[:, axis] += step
        minus = pts.copy()
        minus[:, axis] -= step
        cols.append((func(plus) - func(minus)) / (2.0 * step))
    return np.stack(cols, axis=1)


def finite_difference_check(
    problem: ProblemSpec, points: np.ndarray, step: float = 1e-5
) -> dict:
    """Validate the closed-form loads against central differences of u.

    Returns max scaled deviations {"f": ..., "g": ..., "div_g": ...}:
    f and g against central differences of u, scaled by max(1, |exact
    load|) pointwise, and the central-difference divergence of g, which
    must vanish for solvable data, scaled by max(1, |g|).
    """
    eps = problem.eps

    def eps_u(pts):
        return problem.exact_u(pts) @ eps.T

    jac_eu = _fd_jacobian(eps_u, points, step)  # (N, 3, 3), [n, i, j] = d_i (eps u)_j
    fd_f = np.einsum("nii->n", jac_eu)
    f_exact = problem.f(points)
    err_f = np.abs(fd_f - f_exact) / np.maximum(1.0, np.abs(f_exact))

    jac_u = _fd_jacobian(problem.exact_u, points, step)
    fd_g = np.stack(
        [
            jac_u[:, 1, 2] - jac_u[:, 2, 1],
            jac_u[:, 2, 0] - jac_u[:, 0, 2],
            jac_u[:, 0, 1] - jac_u[:, 1, 0],
        ],
        axis=1,
    )
    g_exact = problem.g(points)
    scale = np.maximum(1.0, np.linalg.norm(g_exact, axis=1))
    err_g = np.linalg.norm(fd_g - g_exact, axis=1) / scale
    div_g = np.einsum("nii->n", _fd_jacobian(problem.g, points, step))
    return {
        "f": float(err_f.max()),
        "g": float(err_g.max()),
        "div_g": float(np.max(np.abs(div_g) / scale)),
    }

