"""Walkthrough: random coefficient models and their tail-bound constants.

A model is a support containing 1, X_1, ..., X_n plus an i.i.d. coefficient
law.  Two constants drive every probabilistic bound: the summed tail
constant K (or L for general exponent p) and the geometric-mean density
bound rho.  The product K * rho is scale invariant and can never drop below
(n + 1) / 4.
"""

import math

from cubecond import random as models
from cubecond.experiments import ExperimentConfig, run_tail_experiment
from cubecond.poly import new_sparse

support = ((0,), (1,), (5,))
for name, dist in (
    ("gaussian(0,1)", models.Gaussian()),
    ("uniform[-1,1]", models.Uniform()),
    ("symmetric weibull p=1", models.WeibullSymmetric(p=1.0)),
):
    model = models.RandomModel(n=1, support=support, dist=dist, p=(1.0 if "weibull" in name else 2.0))
    c = models.model_constants(model)
    print(f"{name:24s} K = {c.K:8.4f}  rho = {c.rho:.4f}  L = {c.L:8.4f}  K*rho = {c.K * c.rho:.4f}")

print("\nnote: uniform coefficients give K*rho = |M|/2 exactly; standard")
print("gaussian ones give |M|/sqrt(pi) ~ 0.5642 |M| (the smallest valid")
print("tail constant of a standard normal is sqrt(2)).")

# empirical survival of the condition number at the origin vs the bound: the tail
# experiment, whose trial i reads the stream (99, i)
model = models.RandomModel(n=1, support=support, dist=models.Gaussian())
cfg = ExperimentConfig(kind="tail", model=model, trials=20000, seed=99,
                       t_grid=(math.e, 10.0, 100.0))
report = run_tail_experiment(cfg)
print(f"\n{cfg.trials} gaussian draws on support {support}:")
for t in cfg.t_grid:
    survival = report.summary[f"survival_t={t:.6g}"]
    print(f"  P(kappa >= {t:7.3f})  empirical {survival['value']:.4f}"
          f"  bound {survival['bound']:.4f}")

# smoothing: a fixed polynomial plus sigma * norm1 * noise interpolates
# between worst case (sigma -> 0) and the plain average case (sigma -> inf)
f0 = new_sparse(1, [((0,), 1.0), ((1,), -2.0)])
base = models.model_constants(model)
print("\nsmoothed models around f0 = 1 - 2x:")
for sigma in (0.1, 1.0, 10.0, 1e6):
    c = models.model_constants(models.smoothed_model(f0, sigma, model))
    print(f"  sigma = {sigma:8.1e}: K*rho = {c.K * c.rho:9.4f}"
          f"  (plain model: {base.K * base.rho:.4f})")

# closed-form bound on the average number of subdivision boxes
d2 = models.RandomModel(n=1, support=((0,), (1,), (2,)), dist=models.Gaussian())
bound = models.expected_boxes_bound(d2)
print("\nexpected-box-count bound for gaussian quadratics:",
      f"general {bound.general:.0f}, specialised {bound.specialized:.0f}")
