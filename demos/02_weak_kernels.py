"""The element kernels behind the scheme, on a batch of tetrahedra.

A weak function stores one interior value and one trace value per face.
Its weak gradient and weak curl are the constant vectors obtained by
testing integration-by-parts identities against constants, which boils
down to area-weighted sums over the four faces.  The kernels act on a
whole batch of tets at once; here the batch is the reference tet alone,
then the mesh of problem 3's L-shaped domain (``make_problem(3).domain``).
The key structural fact demonstrated below: projecting a smooth field
into weak data and applying the discrete kernel reproduces the projected
derivative exactly for affine fields (the commuting-projection property
the convergence theory rests on).
"""

import numpy as np

from divcurl import build_structured_tet_mesh, make_problem, tet_geometry
from divcurl import project_field, weak_curl, weak_gradient

verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
ref = tet_geometry(verts[None])  # a batch of one tet

# constant traces: zero gradient by the closed-surface identity
print("grad of constant trace:", weak_gradient(ref, np.ones((1, 4)))[0])

# a single unit trace on the face x = 0 pulls the gradient along -x
vb = np.zeros((1, 4))
vb[0, 1] = 1.0
print("grad of unit trace on {x=0}:", weak_gradient(ref, vb)[0])

# single-face tangential trace: the weak curl is the co-normal identity
# curl_w {0, psi_F} = 3 psi_F x grad(zeta_i)
i = 0
w = np.array([0.0, 1.0, -1.0]) / np.sqrt(2.0)  # tangent to the oblique face
psib = np.zeros((1, 4, 3))
psib[0, i] = w
print("curl of single-face trace:", weak_curl(ref, psib)[0])
print("co-normal formula:        ", 3.0 * np.cross(w, ref.grad_bary[0, i]))

# commuting projections: weak gradient of the projected affine field
# equals the exact gradient, on every tet of a mesh at once
coeff = np.array([1.0, 2.0, 3.0])
mesh = build_structured_tet_mesh(make_problem(3).domain, 2)
tet_verts = mesh.vertices[mesh.tets]
fcent = (tet_verts.sum(axis=1)[:, None, :] - tet_verts) / 3.0  # face i omits vertex i
grad = weak_gradient(mesh.geometry, fcent @ coeff)
print(f"grad_w of projected x+2y+3z on {mesh.num_tets} tets: "
      f"max deviation {np.abs(grad - coeff).max():.2e}")

# cell projections are plain averages, exact to the quadrature degree
avg = project_field(lambda p: np.column_stack([p[:, 0], p[:, 0] ** 2, p[:, 1]]), mesh)
print("averages of x, x^2, y over the first tet:", avg[0])
