"""Low-regularity benchmarks: reentrant edge and cavity corner.

Problem 3 drives the solver with a field whose derivatives blow up along
the reentrant edge of an L-shaped prism; since plain error quadrature is
dominated by the singularity, the projected-field error is the metric
that shows the (optimal for this regularity) fractional rate ~ 2/3.

Problem 4 has a cavity: its inner boundary component carries an unknown
constant trace for the auxiliary field, recovered after the solve by a
one-variable least-squares fit.  The exact auxiliary field vanishes, so
the recovered constant should be near zero while never increasing the
algebraic residual.
"""

from divcurl.cli import RunConfig, run_study

print("L-shaped prism, projected-field error and rates")
report = run_study(RunConfig(example=3, refinements=(2, 4)).validate())
print(report.to_markdown())

print("cube with cavity, constant-trace recovery")
report = run_study(RunConfig(example=4, refinements=(2, 4)).validate())
print(report.to_markdown())
for row in report.rows:
    print(f"1/h={row['inv_h']}: recovered constant {row['cavity_c1']:+.3e}, "
          f"residual {row['residual_before_recovery']:.6e} -> "
          f"{row['residual_after_recovery']:.6e}")
