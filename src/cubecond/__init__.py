"""Condition numbers, subdivision solvers and random sparse polynomial
experiments on the unit cube [-1, 1]^n.

The package is organised around the coefficient 1-norm, which controls
evaluation, gradients and Lipschitz variation on the cube:

- ``poly``: sparse polynomials, evaluation, formal derivatives, norm bounds
- ``condition``: the local/global condition number and derived quantities
- ``interval``: boxes and the center-Lipschitz interval tests
- ``pv``: the box subdivision routine and its complexity accounting
- ``univariate``: sign-variation root isolation, separations, solver bounds
- ``random``: coefficient models with subgaussian/anti-concentration constants
- ``experiments``: seeded Monte Carlo harness with CSV/SVG reporting
- ``cli``: the ``cubecond`` command
"""

from .condition import (
    EstimateInapplicableError,
    GlobalConditionEnclosure,
    SupportTooSmallError,
    dist1_to_sigma_x,
    gamma_bound,
    gamma_exact_univariate,
    global_condition,
    local_condition,
    local_size_bound,
)
from .interval import (
    BoxN,
    Interval,
    interval_f,
    interval_grad_norm,
)
from .poly import (
    SparsePolynomial,
    derivative_norm_bound,
    evaluate,
    gradient,
    load_polynomial,
    new_sparse,
    norm1,
    partial_derivative,
)
from .pv import SubdivisionReport, amortization_bound, pv_subdivide, verify_output_boxes
from .univariate import (
    HypothesisViolatedError,
    IsolationResult,
    OracleFailedError,
    SeparationEstimate,
    descartes_isolate,
    eps_separation_lower_bound,
    js_condition_bound,
    separation_lower_bound,
    separation_oracle,
    sign_variations,
    tree_size_bound,
)

__version__ = "0.1.0"
