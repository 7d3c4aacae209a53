"""Static condensation of the element-local unknowns for the iterative solve.

Each tet's interior unknowns (``assembly.LOCAL_BLOCKS``) couple only with
that tet and its faces, so they are eliminated exactly, tet by tet, and
MINRES iterates on the Schur complement of the other unknowns, with each
face's qb pair in an orthonormal frame.
"""

import numpy as np

from .assembly import LOCAL_BLOCKS, GlobalSystem, _csr_from_triplets

# sweeps of the Ruiz scale: on problems 1, 2 and 4-7 at 1/h <= 4, MINRES
# takes the fewest iterations in all after 3; 2 take 1.5% more, 4 take
# 1.9% more and 10 take 6.4% more
RUIZ_SWEEPS = 3


def _ruiz_scale(A_G, diagonal):
    """Symmetric max-norm equilibration of the G block of ``A_G``.

    ``A_G`` holds the rows G with the columns G first (``len(diagonal)``
    of them), then L (none, if ``A_G`` is square); its own diagonal is
    replaced by ``diagonal``.  Each of ``RUIZ_SWEEPS`` sweeps divides
    every d_i by the square root of the largest |d_i a_ij d_j| in row i
    (Ruiz, RAL-TR-2001-034; Knight, Ruiz & Ucar, SIAM J. Matrix Anal.
    Appl. 35, 2014), which leaves every entry of the scaled block at most
    1 in absolute value.  A row whose largest entry is zero cannot be
    scaled, and raises ``LinAlgError``.
    """
    nG = len(diagonal)
    count = np.diff(A_G.indptr)
    rows = np.repeat(np.arange(nG, dtype=A_G.indices.dtype), count)
    on_diagonal = np.flatnonzero(A_G.indices == rows)
    del rows
    nonempty = count > 0  # reduceat would read the next row for an empty one
    starts = A_G.indptr[:-1][nonempty]
    d = np.zeros(A_G.shape[1])  # zero on the columns L, which it ignores
    d[:nG] = 1.0
    for _ in range(RUIZ_SWEEPS):
        scratch = d[A_G.indices]
        scratch *= A_G.data
        np.abs(scratch, out=scratch)
        scratch[on_diagonal] = 0.0
        largest = np.abs(diagonal) * d[:nG]
        rowmax = np.maximum.reduceat(scratch, starts)
        del scratch  # before the next sweep gathers its own
        largest[nonempty] = np.maximum(rowmax, largest[nonempty], out=rowmax)
        del rowmax
        largest *= d[:nG]
        if not largest.all():  # a NaN passes, and stops the iteration later
            raise np.linalg.LinAlgError(
                f"row {np.flatnonzero(largest == 0)[0]} has no entry to scale it by"
            )
        d[:nG] /= np.sqrt(largest)
    return d[:nG]


def _frame(tangents, pairs, n):
    """R, n x n: the identity, but on each qb pair ``pairs`` (k, 2) of a
    face with ``tangents`` (k, 2, 3) t1, t2, the Gram-Schmidt frame
    R_F = [[1, -c/nu], [0, 1/nu]], c = t1.t2 and nu = (1 - c^2)^(1/2).
    R_F a is the pair of coefficients on t1, t2 of the trace a1 e1 + a2 e2
    in the orthonormal e1 = t1, e2 = (t2 - c t1) / nu, so R_F^T G_F R_F = I
    for the Gram matrix G_F of t1, t2."""
    first, second = pairs.T
    t1, t2 = tangents.transpose(1, 0, 2)
    c = np.einsum("fd,fd->f", t1, t2)
    inverse_nu = 1.0 / np.sqrt(1.0 - c * c)
    diagonal = np.ones(n)
    diagonal[second] = inverse_nu
    at = np.arange(n)
    return _csr_from_triplets([(at, at, diagonal), (first, second, -c * inverse_nu)], n)


class Condensed:
    """The Ruiz-equilibrated, shifted Schur complement of the local
    unknowns, in an orthonormal frame of each face's qb pair.

    The free DoFs split into the local ones, L (``assembly.LOCAL_BLOCKS``),
    and the rest, G.  ``dofmap.tangents`` writes a face's qb trace on the
    unit edge directions t1, t2 from its lowest vertex, whose Gram matrix
    G_F has condition number 3.7, 5.8 or 9.9 on a Kuhn face and more on
    a skinny one (26 on problem 1's mesh at 1/h = 4 jittered by 0.2 h).
    The diagonal scale and the rank-one shift below cannot undo that 2x2
    coupling, so the system is first written in the Gram-Schmidt frame:
    ``frame`` is R, n x n in the order G, then L, the identity but on
    each free face's qb pair, where it is the R_F of :func:`_frame`, with
    R_F^T G_F R_F = I (a block-diagonal congruence; Benzi, Golub &
    Liesen, Acta Numerica 14, 2005).  Below, A_GG, A_GL, A_LG and S are
    the blocks of R^T A_ff R, whose products drop the exact zeros they
    make (``A_G`` holds 16% fewer entries on problem 4 at 1/h = 4); a
    ``ladder_minres`` pass takes about a quarter fewer iterations than on
    the edge pairs.  The frame lives here, not in ``build_dof_map``:
    orthonormal ``dofmap.tangents`` would change the pattern of the
    assembled ``A``, since ``assemble_global``'s sums drop its new exact
    zeros, and the direct path and the recorded system digests read ``A``.

    A_LL = D is block diagonal, one 1x1 or 3x3 block per tet and local
    block, so D^-1 takes one ``np.linalg.inv`` per block name (static
    condensation: Cockburn, Gopalakrishnan & Lazarov, SIAM J. Numer.
    Anal. 47, 2009).  The complement S = A_GG - A_GL D^-1 A_LG is scaled
    by s = ``_ruiz_scale(A_G, diag(S))``, a max-norm equilibration of
    A_GG with diag(S) on its diagonal, the equilibration the direct path
    applies to all of ``A_ff``.  It costs the product nothing, and MINRES
    takes 16-29% fewer iterations (problems 1-7, 1/h <= 8) than with a
    Jacobi scale, which has to floor the zero ``u`` diagonal.
    diag(A_GL D^-1 A_LG) is the column sums of the entrywise product
    A_LG * (D^-1 A_LG), summed over the pattern of D^-1 A_LG.

    The pin of one lam0 leaves the constant-lambda mode as one isolated
    small eigenvalue of s S s; its vector is nearly q, the unit vector of
    1/s on the lamb positions of G, which the frame leaves alone.
    ``self @ z`` is P s S s P z with
    P = I + f q q^T and f = |mu|^(-1/2) - 1, mu = q^T s S s q, which moves
    the Rayleigh quotient of q to 1 (a rank-one deflation in the sense of
    Frank & Vuik, SIAM J. Sci. Comput. 23, 2001); P is SPD, since
    f > -1.  An iterate z stands for y = P z, x_G = R s y and
    x_L = D^-1 (F_L - A_LG s y) = g + C y, with g = D^-1 F_L and
    C = -D^-1 A_LG s, and ``b`` is P s (R^T F_G - A_GL g).  S is not
    formed, since it has more entries than ``A_ff`` (1.39 times on
    problem 4 at 1/h = 4): ``A_G`` holds the rows G scaled by s, their
    columns G scaled by s too, and a product multiplies C by y, then
    ``A_G`` by [y; C y].  Its dots are ``np.einsum`` sums, as in
    :func:`~divcurl.solver._minres`, and R is applied by scipy's sparse
    products, so neither a product nor the frame calls BLAS.

    It reduces ``system`` itself (one call of ``GlobalSystem.reduced``)
    and frees ``A_ff`` once it holds the rows G and the block A_LG, and
    only then builds and applies the frame, one product at a time;
    ``A_G``'s columns are G first, then L.
    :func:`~divcurl.solver.solve` reads the true residual of
    ``solution(z)`` from one product with the assembled matrix.
    """

    def __init__(self, system: GlobalSystem):
        dm = system.dofmap
        A_ff, F_f = system.reduced()
        n = len(F_f)
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
        inverses = []  # D^-1 as triplets: each tet's block inverse, at its L
        for name in LOCAL_BLOCKS:
            free = position[dm.block(name)].reshape(dm.num_tets, -1)
            free = free[(free >= 0).all(axis=1)]  # drops the pinned lam0
            k = free.shape[1]
            block = A_ff[np.repeat(free, k, axis=1).ravel(), np.tile(free, k).ravel()]
            at = order[free] - nG
            inverse = np.linalg.inv(np.asarray(block).reshape(-1, k, k))
            inverses.append((at[:, :, None], at[:, None, :], inverse))
        # lam0 is local and every lamb is free, so lamb is the first block
        # of G; the slice costs a product two short dots and two short axpys
        lamb = slice(0, dm.num_faces)
        qb = position[dm.block("qb")].reshape(-1, 2)
        faces = np.flatnonzero(qb[:, 0] >= 0)  # a pair is free or fixed whole
        pairs = order[qb[faces]]
        del local, position, qb
        A_LG = A_ff[L][:, G]
        self.A_G = A_ff[G]
        del A_ff
        # built after A_ff is freed, whose slicing is the peak of the
        # solve: a frame alive there lifts it by its own bytes
        self.frame = R = _frame(dm.tangents[faces], pairs, n)
        del faces, pairs
        R_GT = R[:nG, :nG].T.tocsr()
        # one product a statement, so that each frees the matrix it rotates
        A_LG = A_LG @ R_GT.T
        self.A_G.indices = order[self.A_G.indices]
        self.A_G = R_GT @ self.A_G
        self.A_G = self.A_G @ R
        diagonal = self.A_G.diagonal()

        Dinv = _csr_from_triplets(inverses, nL)
        del inverses
        self.C = Dinv @ A_LG
        self.g = Dinv @ F_f[L]
        del Dinv
        # the column sums of A_LG * C over C's pattern, A_LG read there
        count = np.diff(self.C.indptr)
        rows = np.repeat(np.arange(nL, dtype=self.C.indices.dtype), count)
        product = np.asarray(A_LG[rows, self.C.indices]).ravel()
        del A_LG, rows, count
        product *= self.C.data
        diagonal -= np.bincount(self.C.indices, weights=product, minlength=nG)
        del product
        s = self.scale = _ruiz_scale(self.A_G, diagonal)
        self.C.data *= -s[self.C.indices]
        # fold s into the rows, then into the columns G, one nnz scratch each
        self.A_G.data *= np.repeat(s, np.diff(self.A_G.indptr))
        self.A_G.data *= np.concatenate([s, np.ones(nL)])[self.A_G.indices]
        self._x = np.empty(nG + nL)  # [y; C y] of a product
        self.lamb, self.shift = lamb, 0.0
        self.q = 1.0 / s[lamb]
        self.q /= np.sqrt(np.einsum("i,i", self.q, self.q))
        z = np.zeros(nG)
        z[lamb] = self.q
        mu = np.einsum("i,i", self.q, (self @ z)[lamb])  # q^T s S s q, as f = 0 yet
        self.shift = abs(mu) ** -0.5 - 1.0
        self._x[:nG] = 0.0
        self._x[nG:] = self.g
        self.b = self._project(s * (R_GT @ F_f[G]) - self.A_G @ self._x)

    def _project(self, z):
        """P z, in place."""
        z[self.lamb] += (self.shift * np.einsum("i,i", self.q, z[self.lamb])) * self.q
        return z

    def _iterate(self, z):
        """[y; C y] of the iterate ``z``, y = P z, in the product's buffer."""
        nG = len(z)
        y = self._x[:nG]
        y[:] = z
        self._project(y)
        self._x[nG:] = self.C @ y
        return self._x

    def __matmul__(self, z):
        return self._project(self.A_G @ self._iterate(z))

    def solution(self, z):
        """The free DoFs of the iterate ``z``, in the order of ``A_ff``."""
        nG, x = len(z), self._iterate(z)
        x[nG:] += self.g
        return (self.frame @ np.concatenate([self.scale * x[:nG], x[nG:]]))[self.order]
