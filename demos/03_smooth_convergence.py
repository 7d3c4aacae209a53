"""Convergence study on the smooth benchmark (problem 1).

The solver is fed the loads of a smooth field with an anisotropic
coefficient on the unit cube and refined twice.  First-order convergence
shows up in the field error and in both stabilizer semi-norms.  Pass a
third refinement level on the command line budget permitting:

    python demos/03_smooth_convergence.py          # 1/h = 2, 4
    python demos/03_smooth_convergence.py --fine   # 1/h = 2, 4, 8
"""

import sys

from divcurl.cli import RunConfig, run_study

refinements = (2, 4, 8) if "--fine" in sys.argv else (2, 4)
config = RunConfig(example=1, refinements=refinements).validate()
report = run_study(config)
print(report.to_markdown())
for row in report.rows:
    print(f"1/h={row['inv_h']}: {row['num_free']} unknowns, "
          f"solver residual {row['solver_residual']:.1e}, {row['seconds']:.2f}s")
