"""Exception hierarchy shared by all pipeline stages.

The CLI maps these onto exit codes: InputError -> 2, HypothesisViolation -> 1,
PrecisionExhausted / BudgetExceeded -> 3, InvariantViolation -> 4.
"""


class OrbitgapError(Exception):
    """Base class for all toolkit errors."""


class InputError(OrbitgapError):
    """Malformed problem file, bad parameters, or contract violation by the caller."""


class HypothesisViolation(OrbitgapError):
    """A mathematical hypothesis the pipeline relies on failed to verify.

    Examples: the initial point is preperiodic, every defining polynomial
    composed with the interpolant vanishes at working precision (possible
    periodic subvariety), a declared target is periodic at every scanned prime.
    """


class PrecisionExhausted(OrbitgapError):
    """Working precision is insufficient to decide the question at hand."""


class BudgetExceeded(OrbitgapError):
    """A configured enumeration / size / iteration guard was hit."""


class InvariantViolation(OrbitgapError):
    """An internal check that holds for correct code failed: a bug, not bad input.

    Examples: preimage levels of a non-periodic target overlap, a refined
    disk gains zeros, a certificate fails its own verification.
    """
