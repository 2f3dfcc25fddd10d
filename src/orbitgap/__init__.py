"""Desk-scale certification toolkit for orbit return sets of polynomial self-maps.

Pipeline: finite-field avoidance certificates, p-adic normalization of the
map near the stabilized orbit, binomial-basis approximate interpolation,
Newton-polygon zero localization of the composed analytic function, and
gap/density reports on the set of iterates returning to a target variety.
"""

from .errors import (
    BudgetExceeded,
    HypothesisViolation,
    InputError,
    InvariantViolation,
    OrbitgapError,
    PrecisionExhausted,
)
from .padic import (
    INF,
    MahlerSeries,
    PadicContext,
    TruncatedSeries,
    binomial_row,
)
from .polynomials import ModularMap, PolyMap
from .reduction import (
    AvoidanceCertificate,
    BadPrimeSet,
    OrbitSummary,
    ProblemInstance,
    avoidance_search,
    bad_primes,
    first_hit_depth,
    orbit_summary,
    periodic_points_on_variety,
    reduce_instance,
)
from .normalization import (
    LocalModel,
    build_model_family,
    stabilize_orbit,
)
from .interpolation import (
    ApproxInterpolant,
    build_interpolant,
    constancy_test,
    verify_compatibility,
    verify_error_bound,
)
from .gaps import (
    DensityReport,
    GapReport,
    ReturnSet,
    ZeroLocalization,
    build_density_report,
    build_gap_report,
    compute_returns,
    localize_zeros,
    newton_zero_count,
    restrict_to_disk,
)
from .problemfile import RunParameters, load_problem, parse_problem

__version__ = "0.1.0"
