"""Batched weak Galerkin kernels for the lowest-order element.

A weak function on a tet carries an interior value and one trace value per
face.  Testing the defining integration-by-parts identities against
constant fields gives closed forms for the discrete weak gradient and
weak curl of piecewise-constant weak functions:

    grad_w v      =  (1/|T|) sum_F  v_b,F |F| n_F
    curl_w psi    = -(1/|T|) sum_F  |F| (psi_b,F x n_F)

with n_F the outward unit normal.  The interior value does not enter at
this order, so the kernels take the face traces of a batch of N tets
only.  Face trace vectors live in the face plane as global 3-vectors.

All kernels and projections are pure functions of their arguments and
safe to call concurrently.
"""

import numpy as np

from .mesh import TetGeometry
from .quadrature import TET_REF_MEASURE, gauss_points

__all__ = [
    "weak_gradient",
    "weak_curl",
    "project_field",
    "gauss_blocks",
    "BLOCK_TETS",
    "TANGENT_TOL",
]

TANGENT_TOL = 1e-12


def weak_gradient(geom: TetGeometry, vb: np.ndarray) -> np.ndarray:
    """(N, 3) weak gradients of the scalar face traces ``vb`` (N, 4)."""
    weighted = geom.areas * np.asarray(vb, dtype=float)
    return np.einsum("tf,tfd->td", weighted, geom.normals) / geom.volumes[:, None]


def weak_curl(geom: TetGeometry, psib: np.ndarray) -> np.ndarray:
    """(N, 3) weak curls of the tangential face traces ``psib`` (N, 4, 3).

    Raises ``ValueError`` when a face trace has a normal component larger
    than ``TANGENT_TOL`` relative to its magnitude.
    """
    psib = np.asarray(psib, dtype=float)
    normal_part = np.abs(np.einsum("tfd,tfd->tf", psib, geom.normals))
    scale = np.maximum(np.linalg.norm(psib, axis=2), 1.0)
    if np.any(normal_part > TANGENT_TOL * scale):
        raise ValueError("face trace is not tangential to the face plane")
    return -np.einsum(
        "tf,tfd->td", geom.areas, np.cross(psib, geom.normals)
    ) / geom.volumes[:, None]


# simplices per block of the quadrature loop: at degree 4 a block's field
# values take 1.3 MB, where the whole mesh's would scale with it
BLOCK_TETS = 2048


def gauss_blocks(vertices, simplices, degree: int):
    """Yield ``(block, points, weights)`` for each block of ``BLOCK_TETS``
    ``simplices`` (n, dim + 1) of ``vertices``: the block's slice, its
    Gauss points (b k, 3), simplex by simplex, and the weights (k,)."""
    for start in range(0, len(simplices), BLOCK_TETS):
        block = slice(start, start + BLOCK_TETS)
        points, wts = gauss_points(vertices[simplices[block]], degree)
        yield block, points.reshape(-1, 3), wts


def project_field(u, mesh, degree: int = 4) -> np.ndarray:
    """Elementwise L2 projection of a vector field onto cell constants.

    Returns the (num_tets, 3) array of cell averages of ``u``.
    """
    qu = np.empty((mesh.num_tets, 3))
    for tets, points, wts in gauss_blocks(mesh.vertices, mesh.tets, degree):
        vals = np.asarray(u(points), dtype=float).reshape(-1, len(wts), 3)
        qu[tets] = np.einsum("k,tkd->td", wts, vals)
    qu /= TET_REF_MEASURE
    return qu
