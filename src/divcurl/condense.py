"""Static condensation of the element-local unknowns for the iterative solve.

Each tet's interior unknowns (``assembly.LOCAL_BLOCKS``) couple only with
that tet and its faces, so they are eliminated exactly, tet by tet, and
MINRES iterates on the Schur complement of the other unknowns.
"""

import numpy as np
import scipy.sparse as sparse

from .assembly import LOCAL_BLOCKS, GlobalSystem


def _inverses(blocks):
    """Inverses of definite blocks (m, k, k) by Gauss-Jordan elimination.

    Definite blocks need no pivoting.  Plain numpy, since the MINRES path
    calls no LAPACK routine otherwise, and the first call of one maps
    0.4-0.8 MB more of the library into the process.
    """
    k = blocks.shape[1]
    work = np.concatenate([blocks, np.broadcast_to(np.eye(k), blocks.shape)], axis=2)
    for i in range(k):
        work[:, i] /= work[:, i, i, None]
        for j in range(k):
            if j != i:
                work[:, j] -= work[:, j, i, None] * work[:, i]
    return work[:, :, k:]


def _jacobi_scale(system: GlobalSystem, diagonal, rows=slice(None)):
    """Jacobi scaling 1/sqrt(max(|diagonal|, h_loc^3)) of the free DoFs ``rows``.

    The primal block has an exactly zero diagonal, so it is floored at the
    local element-volume scale h^3, which balances the coupling entries
    (surface terms of size h^2) against the stabilizer diagonal (size h).
    """
    dm = system.dofmap
    h_of_tet = system.mesh.geometry.diameters
    h_of_face = h_of_tet[system.mesh.face_tets[:, 0]]
    floor = dm.per_dof(h_of_tet, h_of_face)[dm.free[rows]] ** 3
    return 1.0 / np.sqrt(np.maximum(np.abs(diagonal), floor))


class Condensed:
    """The Jacobi-scaled Schur complement of the local unknowns, matrix-free.

    The free DoFs split into the local ones, L (``assembly.LOCAL_BLOCKS``),
    and the rest, G.  A_LL = D is block diagonal, one 1x1 or 3x3 block per
    tet and local block, so D^-1 takes one batched inverse per block name
    (static condensation: Cockburn, Gopalakrishnan & Lazarov, SIAM J.
    Numer. Anal. 47, 2009).  The complement S = A_GG - A_GL D^-1 A_LG is
    scaled by s = ``_jacobi_scale(system, diag(S), G)``, the direct path's
    Jacobi scaling of the DoFs G for that diagonal; diag(A_GL D^-1 A_LG)
    is the column sums of the entrywise product A_LG * (D^-1 A_LG).
    ``self @ y`` is s S s y, and an iterate y stands for x_G = s y and
    x_L = D^-1 (F_L - A_LG x_G) = g + C y, with g = D^-1 F_L and
    C = -D^-1 A_LG s.  S is not formed, since it has more entries than
    ``A_ff`` (1.39 times on problem 4 at 1/h = 4): a product multiplies C
    by y, then the rows G of ``A_ff`` by [s y; C y].

    It reduces ``system`` itself (one call of ``GlobalSystem.reduced``)
    and frees ``A_ff`` once it holds ``A_G``, the rows G of ``A_ff`` with
    the columns G first, then L, and ``D``, the block A_LL.  ``A_ff`` is
    exactly symmetric, so A_LG = A_GL^T and the two hold every entry of
    the true residual.
    """

    def __init__(self, system: GlobalSystem):
        dm = system.dofmap
        A_ff, self.F_f = system.reduced()
        n = len(self.F_f)
        local = np.zeros(dm.total, dtype=bool)
        for name in LOCAL_BLOCKS:
            local[dm.block(name)] = True
        local = local[dm.free]
        G, L = np.flatnonzero(~local), np.flatnonzero(local)
        nG, nL = len(G), len(L)
        # the position of each free DoF in the order G, then L
        self.order = order = np.empty(n, dtype=A_ff.indices.dtype)
        order[G] = np.arange(nG)
        order[L] = np.arange(nG, n)
        position = np.full(dm.total, -1)
        position[dm.free] = np.arange(n)
        at, blocks = [], []  # the L positions of each tet's block, its entries
        for name in LOCAL_BLOCKS:
            free = position[dm.block(name)].reshape(dm.num_tets, -1)
            free = free[(free >= 0).all(axis=1)]  # drops the pinned lam0
            k = free.shape[1]
            block = A_ff[np.repeat(free, k, axis=1).ravel(), np.tile(free, k).ravel()]
            blocks.append(np.asarray(block).reshape(-1, k, k))
            at.append(order[free] - nG)
        del local, position
        diagonal = A_ff.diagonal()[G]
        A_LG = A_ff[L][:, G]
        self.A_G = A_ff[G]
        del A_ff
        self.A_G.indices = order[self.A_G.indices]
        inverses = [_inverses(block) for block in blocks]

        def block_diagonal(values):
            """The L x L matrix with the blocks ``values`` at ``at``."""
            rows = [np.repeat(a, a.shape[1], axis=1).ravel() for a in at]
            cols = [np.tile(a, a.shape[1]).ravel() for a in at]
            values = np.concatenate([v.ravel() for v in values])
            return sparse.csr_matrix(
                (values, (np.concatenate(rows), np.concatenate(cols))), (nL, nL)
            )

        self.D, Dinv = block_diagonal(blocks), block_diagonal(inverses)
        self.C = Dinv @ A_LG
        diagonal -= np.asarray(A_LG.multiply(self.C).sum(axis=0)).ravel()
        self.scale = _jacobi_scale(system, diagonal, G)
        self.C.data *= -self.scale[self.C.indices]
        self.g = Dinv @ self.F_f[L]
        x = np.concatenate([np.zeros(nG), self.g])
        self.b = self.scale * (self.F_f[G] - self.A_G @ x)

    def __matmul__(self, y):
        return self.scale * (self.A_G @ np.concatenate([self.scale * y, self.C @ y]))

    def _expand(self, y):
        """[x_G; x_L] of the iterate ``y``."""
        return np.concatenate([self.scale * y, self.g + self.C @ y])

    def solution(self, y):
        """The free DoFs of the iterate ``y``, in the order of ``A_ff``."""
        return self._expand(y)[self.order]

    def residual(self, y):
        """True relative residual of the iterate ``y`` in the full system."""
        x, nG = self._expand(y), len(y)
        # the rows L: A_LG x_G + D x_L, with A_LG x_G read from A_GL^T
        Ax_L = (self.A_G.T @ x[:nG])[nG:] + self.D @ x[nG:]
        r = self.F_f - np.concatenate([self.A_G @ x, Ax_L])[self.order]
        return float(np.linalg.norm(r) / np.linalg.norm(self.F_f))
