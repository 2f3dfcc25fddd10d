"""Desk-scale certification toolkit for orbit return sets of polynomial self-maps.

Pipeline: finite-field avoidance certificates, p-adic normalization of the
map near the stabilized orbit, binomial-basis approximate interpolation,
Newton-polygon zero localization of the composed analytic function, and
gap/density reports on the set of iterates returning to a target variety.

The package namespace holds the problem-file layer only, so reading a
problem file loads no stage; import a stage from its submodule.
"""

from .errors import (
    BudgetExceeded,
    HypothesisViolation,
    InputError,
    InvariantViolation,
    OrbitgapError,
    PrecisionExhausted,
)
from .problemfile import ProblemInstance, RunParameters, load_problem, parse_problem

__version__ = "0.1.0"
