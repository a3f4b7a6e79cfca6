"""Walkthrough: subdividing the cube until every box passes the exclusion test.

A box is accepted as soon as the midpoint value or the midpoint gradient
1-norm clears a width-proportional threshold; otherwise the box splits into
2^n children.  The final box count is bounded by a Monte Carlo average of
the local size bound, which is what makes the routine's complexity a
condition-number statement.
"""

import math

from cubecond.experiments import emit_svg
from cubecond.poly import new_sparse
from cubecond.pv import amortization_bound, pv_subdivide, verify_output_boxes

line = new_sparse(2, [((1, 0), 1.0), ((0, 1), 1.0)])
report = pv_subdivide(line, max_depth=10)
print("f = x1 + x2:")
print("  final boxes:", report.final_count, " processed:", report.processed_count)
print("  per-depth counts:", report.per_depth_counts)
print("  clauses:", {c: report.final_clauses.count(c) for c in ("value", "gradient")})
print("  sampling soundness check:", verify_output_boxes(line, report, 128))

circle = new_sparse(2, [((2, 0), 1.0), ((0, 2), 1.0), ((0, 0), -0.49)])
report = pv_subdivide(circle, max_depth=12)
print("\nf = x1^2 + x2^2 - 0.49 (a circle through the cube):")
print("  final boxes:", report.final_count, " max depth:", report.max_depth_reached)
emit_svg(report, "circle_subdivision.svg")
print("  wrote circle_subdivision.svg (blue = value clause, orange = gradient clause)")

n_samples = 100000
estimate = amortization_bound(circle, n_samples, seed=0)
print(f"  amortization estimate 4^n E[(d sqrt(2n) kappa)^n] ~ {estimate:.0f}"
      f" >= final boxes = {report.final_count}")

# a singular zero never terminates; the depth guard flags it instead
double_root = new_sparse(1, [((0,), 0.25), ((1,), -1.0), ((2,), 1.0)])
flagged = pv_subdivide(double_root, max_depth=12)
print("\nf = (x - 1/2)^2: terminated =", flagged.terminated,
      " (the guard fired at depth", str(flagged.max_depth_reached) + ")")

# estimates diverge exactly when the subdivision cannot terminate
print("  amortization estimate for the singular input:",
      f"{amortization_bound(double_root, n_samples, seed=0):.1f} (grows with the sample size)")
print("  for comparison, f = x gives",
      f"{amortization_bound(new_sparse(1, [((1,), 1.0)]), n_samples, seed=0):.4f}",
      "= 4 sqrt(2) =", 4 * math.sqrt(2))
