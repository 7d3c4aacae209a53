"""Primal-dual weak Galerkin solver for 3-D div-curl systems.

Solves  div(eps u) = f,  curl u = g  with normal boundary data
(eps u) . n = phi1 on polyhedral box-union domains, using the
lowest-order primal-dual weak Galerkin scheme: the field u is a
piecewise-constant vector per tetrahedron, coupled to auxiliary and
multiplier weak functions through discrete weak gradient / weak curl
kernels and face stabilizers, in one symmetric saddle-point system.
The formulation tolerates very low regularity of the exact field and, on
multiply connected domains, exposes the discrete harmonic fields as the
defect between the projected exact field and the computed one.
"""

from .analysis import (
    ConvergenceReport,
    Level,
    LevelError,
    cell_error_norms,
    convergence_rates,
    error_Qu,
    error_u,
    solve_level,
    triple_norm_dual,
    triple_norm_s,
)
from .assembly import (
    DofMap,
    GlobalSystem,
    assemble_Bh,
    assemble_global,
    assemble_rhs,
    assemble_s1,
    assemble_s2,
    build_dof_map,
)
from .mesh import (
    DomainSpec,
    Mesh,
    MeshError,
    TetGeometry,
    build_domain,
    build_structured_tet_mesh,
    tet_geometry,
    write_vtk,
)
from .problems import (
    ProblemError,
    ProblemSpec,
    cyl_coords,
    finite_difference_check,
    make_problem,
)
from .solver import SolutionFields, SolverError, recover_cavity_constants, solve
from .weak_ops import project_field, weak_curl, weak_gradient

__version__ = "0.1.0"
