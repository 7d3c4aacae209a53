"""The Gauss-point block loop of every integral, and the cell projection.

Both are pure functions of their arguments and safe to call concurrently.
"""

import numpy as np

from .problems import evaluate
from .quadrature import TET_REF_MEASURE, gauss_points

__all__ = ["project_field", "gauss_blocks", "BLOCK_TETS"]


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

    Returns the (num_tets, 3) array of cell averages of ``u``; values of
    ``u`` that are not one finite 3-vector per point raise
    :class:`~divcurl.problems.ProblemError`.
    """
    qu = np.empty((mesh.num_tets, 3))
    for tets, points, wts in gauss_blocks(mesh.vertices, mesh.tets, degree):
        vals = evaluate("u", u, points, (3,)).reshape(-1, len(wts), 3)
        qu[tets] = np.einsum("k,tkd->td", wts, vals)
    qu /= TET_REF_MEASURE
    return qu
