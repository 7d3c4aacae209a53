"""The element kernels behind the scheme, read off the coupling block.

A weak function stores one interior value and one trace value per face.
Its weak gradient and weak curl are the constant vectors obtained by
testing integration-by-parts identities against constants, which boils
down to area-weighted sums over the four faces:

    grad_w v   =  (1/|T|) sum_F  v_F |F| n_F
    curl_w psi = -(1/|T|) sum_F  |F| psi_F x n_F

The coupling block B of the saddle system (``assemble_Bh``) holds |T|
times these sums: for face traces x, (B^T x) on a tet's u unknowns is
|T| eps grad_w v when x holds the lamb traces v, and |T| curl_w psi when
it holds the qb traces of psi.  The mesh is the reference tet alone, then
problem 3's L-shaped domain (``make_problem(3).domain``).  The key
structural fact demonstrated below: projecting an affine field into weak
data and applying the discrete kernel reproduces its derivative exactly
(the commuting-projection property the convergence theory rests on).
"""

import numpy as np

from divcurl import Mesh, assemble_Bh, build_dof_map, build_structured_tet_mesh
from divcurl import make_problem, project_field


def kernels(mesh, v, psi):
    """grad_w of the face values ``v`` (nf,) and curl_w of the tangential
    parts of the face vectors ``psi`` (nf, 3), per tet, with eps = I."""
    dofmap = build_dof_map(mesh)
    B = assemble_Bh(mesh, np.eye(3), dofmap)
    # qb holds coefficients on each face's two unit edge directions
    T = dofmap.tangents  # (nf, 2, 3)
    coeffs = np.linalg.solve(T @ T.transpose(0, 2, 1), (T @ psi[:, :, None]))
    out = []
    for block, values in (("lamb", v), ("qb", coeffs.ravel())):
        x = np.zeros(dofmap.total)
        x[dofmap.block(block)] = values
        per_tet = (B.T @ x)[dofmap.block("u")].reshape(-1, 3)
        out.append(per_tet / mesh.geometry.volumes[:, None])
    return out


verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
ref = Mesh(verts, np.zeros((4, 3), dtype=np.int64), np.array([[0, 1, 2, 3]]))  # one tet
no_psi = np.zeros((4, 3))

# constant traces: zero gradient by the closed-surface identity
print("grad of constant trace:", kernels(ref, np.ones(4), no_psi)[0][0])

# a single unit trace on the face x = 0 pulls the gradient along -x
vb = np.zeros(4)
vb[ref.tet_faces[0, 1]] = 1.0  # local face 1 is opposite vertex (1, 0, 0)
print("grad of unit trace on {x=0}:", kernels(ref, vb, no_psi)[0][0])

# single-face tangential trace: the weak curl is the co-normal identity
# curl_w {0, psi_F} = 3 psi_F x grad(zeta_i), zeta_i the barycentric
# coordinate of vertex i: column i of the inverse of the rows (1, x, y, z)
i = 0
w = np.array([0.0, 1.0, -1.0]) / np.sqrt(2.0)  # tangent to the oblique face
psi = np.zeros((4, 3))
psi[ref.tet_faces[0, i]] = w
grad_zeta = np.linalg.inv(np.column_stack([np.ones(4), verts]))[1:, i]
print("curl of single-face trace:", kernels(ref, np.zeros(4), psi)[1][0])
print("co-normal formula:        ", 3.0 * np.cross(w, grad_zeta))

# commuting projections: the kernels of the face averages of affine fields,
# their values at the face centroids, equal the exact derivatives, on
# every tet of a mesh at once
coeff = np.array([1.0, 2.0, 3.0])  # v = x + 2y + 3z
C = np.array([[0.0, 1.0, 2.0], [-1.0, 0.0, 0.5], [0.0, 3.0, 0.0]])  # psi = C x
curl = np.array([C[2, 1] - C[1, 2], C[0, 2] - C[2, 0], C[1, 0] - C[0, 1]])
mesh = build_structured_tet_mesh(make_problem(3).domain, 2)
fcent = mesh.vertices[mesh.faces].mean(axis=1)
grad_w, curl_w = kernels(mesh, fcent @ coeff, fcent @ C.T)
print(f"grad_w of projected x+2y+3z on {mesh.num_tets} tets: "
      f"max deviation {np.abs(grad_w - coeff).max():.2e}")
print(f"curl_w of projected C x on {mesh.num_tets} tets: "
      f"max deviation {np.abs(curl_w - curl).max():.2e}")

# cell projections are plain averages, exact to the quadrature degree
avg = project_field(lambda p: np.column_stack([p[:, 0], p[:, 0] ** 2, p[:, 1]]), mesh)
print("averages of x, x^2, y over the first tet:", avg[0])
