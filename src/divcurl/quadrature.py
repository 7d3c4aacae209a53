"""Gauss quadrature on reference simplices.

Stroud's conical-product (Duffy) construction turns Gauss-Jacobi line
rules into a rule of any polynomial exactness degree, by one recursion
for triangles and tetrahedra alike.  Weights sum to the measure of the
reference simplex (1/2 for the unit triangle, 1/6 for the unit tet).
"""

from functools import lru_cache, reduce
from numbers import Integral

import numpy as np
from scipy.special import roots_jacobi

__all__ = ["simplex_rule", "gauss_points", "TRI_REF_MEASURE", "TET_REF_MEASURE"]

TRI_REF_MEASURE = 0.5
TET_REF_MEASURE = 1.0 / 6.0


@lru_cache(maxsize=None, typed=True)
def simplex_rule(dim: int, degree: int):
    """Points (k, dim) and weights (k,) of the rule exact to total
    ``degree``, an integer >= 1, on the simplex spanned by the origin and
    the ``dim`` unit coordinate points.  The cache is typed, so a bool or
    float degree is checked and not served the rule of an equal int."""
    if isinstance(degree, bool) or not isinstance(degree, Integral) or degree < 1:
        raise ValueError(f"quadrature degree must be an int >= 1, got {degree!r}")
    # m-point Gauss-Jacobi is exact for 1-D polynomials up to degree 2m-1;
    # line j integrates against (1 - t)^j over [0, 1]
    m = max(1, (degree + 2) // 2)
    lines = [roots_jacobi(m, j, 0.0) for j in range(dim)]
    grids = np.meshgrid(*(0.5 * (x + 1.0) for x, _ in lines), indexing="ij")
    # x_i = t_i (1 - t_{i+1}) ... (1 - t_{dim-1}), Jacobian prod_j (1 - t_j)^j
    coords = []
    for i, t in enumerate(grids):
        for later in grids[i + 1:]:
            t = t * (1.0 - later)
        coords.append(t.ravel())
    weights = (w * 0.5 ** (j + 1) for j, (_, w) in enumerate(lines))
    return np.column_stack(coords), reduce(np.multiply.outer, weights).ravel()


def gauss_points(verts: np.ndarray, degree: int):
    """Physical Gauss points (n, k, 3) of the n triangles or tets
    ``verts`` (n, dim + 1, 3), and the reference weights (k,).

    Point k of simplex s is ``v0 + sum_r points[k, r] (v_r - v0)``,
    computed as one batched matrix product with the edge vectors, several
    times faster than the same sum written as an einsum.  The two forms
    agree to a few ulps on any simplices, and bit for bit on the built-in
    lattice meshes at 1/h = 2, 4, 8, where every product is exact.  The
    offset ``v0`` is added in place into the product, which holds the
    only array of the result's size.
    """
    points, wts = simplex_rule(verts.shape[1] - 1, degree)
    edges = verts[:, 1:, :] - verts[:, :1, :]
    phys = points @ edges
    phys += verts[:, None, 0, :]
    return phys, wts
