"""Tour of the built-in computational domains and their structured meshes.

Each benchmark problem carries its domain (``make_problem(k).domain``).
Every domain is a box minus axis-aligned boxes, meshed by slicing into
cubes of edge 1/n and splitting each cube into the same six tetrahedra.
The script prints a census per domain (the boundary components and
tunnels are read off each mesh), verifies two geometric identities on
the fly, and drops a VTK file per mesh next to this script for
inspection in ParaView.
"""

import pathlib

import numpy as np

from divcurl import build_structured_tet_mesh, make_problem, write_vtk

HERE = pathlib.Path(__file__).parent

print(f"{'problem':>7s} {'removed boxes':>13s} {'tets':>7s} {'faces':>7s} "
      f"{'boundary':>8s} {'components':>10s} {'tunnels':>7s}")
for example in range(1, 8):
    domain = make_problem(example).domain
    mesh = build_structured_tet_mesh(domain, 2)
    print(f"{example:>7d} {len(domain.excluded):>13d} {mesh.num_tets:>7d} "
          f"{mesh.num_faces:>7d} {len(mesh.boundary_faces):>8d} "
          f"{mesh.num_boundary_components:>10d} {mesh.betti1:>7d}")

# two identities every element satisfies:
#   sum over faces of area-weighted outward normals is zero (closed surface)
#   |F_i| n_i = -3 |T| grad(zeta_i) for the barycentric coordinates
# both checked on every element at once from the mesh's geometry record,
# the second against barycentric gradients computed here
mesh = build_structured_tet_mesh(make_problem(6).domain, 2)
geom = mesh.geometry
weights = geom.areas[:, :, None] * geom.normals  # |F| n_F, (nt, 4, 3)
closed = np.abs(weights.sum(axis=1)).max()
# grad(zeta_i): column i of the inverse of the rows (1, x, y, z) of a tet
rows = np.concatenate([np.ones((mesh.num_tets, 4, 1)), mesh.vertices[mesh.tets]], axis=2)
grad_zeta = np.linalg.inv(rows)[:, 1:, :].transpose(0, 2, 1)  # (nt, 4, 3)
simplex = np.abs(weights + 3.0 * geom.volumes[:, None, None] * grad_zeta).max()
print(f"\nclosed-surface identity residual: {closed:.2e}")
print(f"simplex identity residual:        {simplex:.2e}")

for example, name in ((1, "cube"), (4, "cavity"), (6, "two_hole_toroid")):
    mesh = build_structured_tet_mesh(make_problem(example).domain, 4)
    out = HERE / f"mesh_{name}.vtk"
    write_vtk(mesh, str(out), {"boundary_tag": mesh.face_tags[mesh.tet_faces[:, 0]].astype(float)})
    print(f"wrote {out}")
