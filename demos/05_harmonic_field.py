"""Harmonic fields on a toroidal domain.

On a domain with a tunnel, curl-free divergence-free fields with zero
normal trace exist (one dimension per tunnel), and the div-curl data
cannot see them.  Problem 7 exploits this: its volume loads come from a
field with a smooth rotational part, while the normal boundary data is
driven by the singular vector potential alone.  The solver then settles
on a solution that differs from the reference field by an approximately
harmonic field, extracted as the defect

    eta_h = (cellwise projection of u) - u_h.

The same extraction on a simply connected domain decays under refinement;
here it levels off, and its size scales with the rotational strength.
"""

import pathlib

import numpy as np

from divcurl import make_problem, solve_level, write_vtk

HERE = pathlib.Path(__file__).parent


def field_norm(mesh, field):
    return float(np.sqrt(np.sum(mesh.geometry.volumes * np.einsum("td,td->t", field, field))))


for beta in (1.0, 5.0):
    spec = make_problem(7, beta=beta)
    for n in (2, 4):
        level = solve_level(spec, n)
        eta = level.qu - level.sol.u
        print(f"beta={beta:g} 1/h={n}: |eta_h| = {field_norm(level.mesh, eta):.4f}")
        if beta == 1.0 and n == 4:
            out = HERE / "harmonic_field.vtk"
            write_vtk(level.mesh, str(out), {"eta_h": eta, "u_h": level.sol.u})
            print(f"wrote {out} (the harmonic field circulates around the tunnel)")

# contrast: with fully consistent toroid data (problem 5) the defect decays
spec5 = make_problem(5, gamma=2.0 / 3.0)
for n in (2, 4):
    level = solve_level(spec5, n)
    eta = level.qu - level.sol.u
    print(f"problem 5 1/h={n}: |eta_h| = {field_norm(level.mesh, eta):.4f} (decays)")
