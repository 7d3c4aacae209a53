"""Gauss quadrature on reference triangles and tetrahedra.

Rules are generated by the conical-product (Duffy) construction from
Gauss-Jacobi line rules, so a rule of any polynomial exactness degree is
available.  Points are returned in reference coordinates and weights sum
to the measure of the reference simplex (1/2 for the unit triangle,
1/6 for the unit tetrahedron).
"""

from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi

__all__ = [
    "triangle_rule",
    "tetrahedron_rule",
    "map_to_triangles",
    "map_to_tetrahedra",
    "TRI_REF_MEASURE",
    "TET_REF_MEASURE",
]

TRI_REF_MEASURE = 0.5
TET_REF_MEASURE = 1.0 / 6.0


def _gauss_jacobi_01(m: int, alpha: int):
    """Nodes/weights for integral of (1-t)^alpha f(t) over [0, 1]."""
    x, w = roots_jacobi(m, alpha, 0.0)
    t = 0.5 * (x + 1.0)
    return t, w * 0.5 ** (alpha + 1)


def _num_1d_points(degree: int) -> int:
    # m-point Gauss-Jacobi is exact for 1-D polynomials up to degree 2m-1
    return max(1, (degree + 2) // 2)


@lru_cache(maxsize=None)
def triangle_rule(degree: int):
    """Quadrature rule on the reference triangle (0,0), (1,0), (0,1).

    Parameters
    ----------
    degree : int
        Total polynomial degree integrated exactly (>= 1).

    Returns
    -------
    points : (k, 2) ndarray
    weights : (k,) ndarray, summing to 1/2.
    """
    if degree < 1:
        raise ValueError(f"quadrature degree must be >= 1, got {degree}")
    m = _num_1d_points(degree)
    u, wu = _gauss_jacobi_01(m, 0)
    v, wv = _gauss_jacobi_01(m, 1)
    # x = u (1 - v), y = v with Jacobian (1 - v)
    U, V = np.meshgrid(u, v, indexing="ij")
    pts = np.column_stack([(U * (1.0 - V)).ravel(), V.ravel()])
    wts = np.outer(wu, wv).ravel()
    return pts, wts


@lru_cache(maxsize=None)
def tetrahedron_rule(degree: int):
    """Quadrature rule on the reference tetrahedron with vertices at the
    origin and the three unit coordinate points.

    Returns
    -------
    points : (k, 3) ndarray
    weights : (k,) ndarray, summing to 1/6.
    """
    if degree < 1:
        raise ValueError(f"quadrature degree must be >= 1, got {degree}")
    m = _num_1d_points(degree)
    u, wu = _gauss_jacobi_01(m, 0)
    v, wv = _gauss_jacobi_01(m, 1)
    w, ww = _gauss_jacobi_01(m, 2)
    # x = u (1 - v)(1 - w), y = v (1 - w), z = w, Jacobian (1 - v)(1 - w)^2
    U, V, W = np.meshgrid(u, v, w, indexing="ij")
    pts = np.column_stack(
        [
            (U * (1.0 - V) * (1.0 - W)).ravel(),
            (V * (1.0 - W)).ravel(),
            W.ravel(),
        ]
    )
    wts = np.einsum("i,j,k->ijk", wu, wv, ww).ravel()
    return pts, wts


def map_to_tetrahedra(points: np.ndarray, verts: np.ndarray) -> np.ndarray:
    """Map reference points into physical tetrahedra.

    Physical point k of tet t is ``v0 + sum_r points[k, r] (v_r - v0)``,
    computed as one batched matrix product ``points @ edges``, several
    times faster than the same sum written as an einsum.  The two forms
    agree to a few ulps on any tets, and bit for bit on the built-in
    lattice meshes at 1/h = 2, 4, 8, where every product is exact.

    Parameters
    ----------
    points : (k, 3) reference coordinates.
    verts : (nt, 4, 3) tetrahedron vertices.

    Returns
    -------
    (nt, k, 3) physical coordinates.
    """
    edges = verts[:, 1:, :] - verts[:, :1, :]
    return verts[:, None, 0, :] + points @ edges


def map_to_triangles(points: np.ndarray, verts: np.ndarray) -> np.ndarray:
    """Map (k, 2) reference points into (nf, 3, 3) triangles, giving (nf, k, 3)."""
    edges = verts[:, 1:, :] - verts[:, :1, :]
    return verts[:, None, 0, :] + points @ edges
