"""Approximate p-adic interpolation of the normalized orbit.

The interpolant is the finite-difference expansion of the model orbit in the
binomial basis on the fitting window [0, K]: it reproduces the orbit exactly
there, and the congruence F(x) = E*x mod p^c with idempotent E makes its
coefficients decay at rate ~c per term, which is what extends the
approximation beyond the window.  One table of forward differences of the
model points gives the coefficients (rows 0..K), whose decay construction
certifies, and the error bound min(n*c, K) at every orbit index n <= 2K
(rows K+1..2K).  Each check compares integers and raises at its first
failure.  When E is the identity, the congruence lemma (verify_compatibility)
proves the bound at every n and F(G(x)) = G(x + 1) on all of Z_p: the table
stops at K, and the decay check is an invariant.  Otherwise the caller names
the range [0, 2K] that the table proves.  The degenerate constant case
(orbit converging to a fixed point) is detected and flagged, not analyzed.

The orbit points come from the model (LocalModel.points, read off one walk
of the original map for a whole family), not from iterating the model map.
A value of the interpolant is a dot product of its coefficients with the
binomial row of the argument; the window checks at 0, 1 and K each build
their row over the integers (padic.binomial_row).
"""

from typing import NamedTuple

from .errors import InvariantViolation, PrecisionExhausted
from .normalization import LocalModel, lemma_applies
from .padic import MahlerSeries, binomial_row, forward_differences, sup_valuation

#: Allowed shortfall of coefficient decay below the ideal k*c schedule,
#: beyond the k/(p-1) slack inherent to binomial-basis expansions.
DECAY_SLACK = 2


class ApproxInterpolant(NamedTuple):
    """Binomial-basis interpolant of the model orbit with certified decay."""

    model: LocalModel
    series: MahlerSeries
    congruence_exponent: int
    terms: int
    decay: tuple  # sup-norm valuation of each coefficient

    @property
    def ctx(self):
        return self.model.ctx

    @property
    def decay_onset(self) -> int:
        """The first index after which coefficient valuations are non-decreasing."""
        d = self.decay
        return next((i for i in range(len(d) - 1, 0, -1) if d[i - 1] > d[i]), 0)

    def to_record(self) -> dict:
        return {
            "prime": self.ctx.prime,
            "precision": self.ctx.precision,
            "congruence_exponent": self.congruence_exponent,
            "terms": self.terms,
            "decay_onset": self.decay_onset,
            "coefficients": [list(v) for v in self.series.coeffs],
        }


def decay_requirement(k: int, c: int, p: int, precision: int) -> int:
    # (k + p - 2) // (p - 1) is ceil(k / (p - 1)) for k >= 0
    req = k * c - (k + p - 2) // (p - 1) - DECAY_SLACK
    return max(0, min(req, precision))


def build_interpolant(model: LocalModel) -> ApproxInterpolant:
    """The interpolant of the model points, its decay and error bound certified.

    One difference table of the points gives the coefficients (rows 0..K)
    and the bound check (rows beyond K, verify_error_bound).  When E is the
    identity the congruence lemma proves v(a_k) >= min(k*c, K), so a decay
    shortfall is a program error.  Otherwise it indicates either
    insufficient precision or a model whose orbit is not interpolable at
    this congruence level (for instance an orbit super-attracted to a fixed
    point); both are reported, not patched.  The window checks evaluate G
    at 0, 1 and K against the points there.
    """
    c = model.congruence_exponent
    p, prec = model.ctx.prime, model.ctx.precision
    table = forward_differences(model.points, model.ctx.modulus)
    series = MahlerSeries(model.ctx, tuple(table[:prec + 1]))
    decay = tuple(sup_valuation(v, p) for v in series.coeffs)
    lemma = lemma_applies(model.linear)
    for k, v in enumerate(decay):
        req = min(k * c, prec) if lemma else decay_requirement(k, c, p, prec)
        if v < req and lemma:
            raise InvariantViolation(
                f"interpolant coefficient {k} has valuation {v} < min(k*c, K) = {req}, "
                "which the congruence lemma proves for E = I; the walk and the model disagree"
            )
        if v < req:
            raise PrecisionExhausted(
                f"interpolant coefficient {k} has valuation {v} < required {req}; "
                "insufficient precision or an interpolation hypothesis fails on this orbit"
            )
    for n in (0, 1, prec):
        if series.evaluate(binomial_row(model.ctx, n, prec)) != model.points[n]:
            raise InvariantViolation(f"fitting-window reconstruction failed at {n}")
    verify_error_bound(table[prec + 1:], prec)
    return ApproxInterpolant(model, series, c, prec, decay)


def verify_error_bound(beyond: list, terms: int) -> None:
    """Check valuation(G(n) - F^n(a')) >= min(n*c, K) at each n > K = terms.

    beyond holds the rows K + 1, K + 2, ... of the difference table of the
    model points.  G reproduces them on [0, K], and beyond it, since c >= 1,
    the bound is G(n) = F^n(a') mod p^K.  Values on [0, n] and differences
    at 0 determine each other, and G's are 0 beyond K, so the first row not
    0 mod p^K is the first failing n.  That shortfall is in the tail, whose
    decay was never certified: the precision ran short.
    """
    for n, row in enumerate(beyond, terms + 1):
        if any(row):
            raise PrecisionExhausted(
                f"approximation bound failed at n={n}: margin below min(n*c, K) "
                f"beyond the fitting window [0, {terms}], where the coefficient decay "
                "is not certified; raise the precision"
            )


def verify_compatibility(interp: ApproxInterpolant) -> bool:
    """Whether the congruence lemma proves the interpolation: E is the identity.

    Lemma.  Let F(x) - x = 0 mod p^c coefficient by coefficient, c >= 1.
    For psi in Z_p[x], psi(x + p^c y) - psi(x) lies in p^c Z_p[x, y], so
    T psi = psi o F - psi maps p^m Z_p[x] into p^(m+c) Z_p[x].  The k-th
    forward difference of n -> F^n(a') at 0 is (T^k id)(a'), of valuation
    at least k c, so it is 0 mod p^K once k c >= K, and G, its first K + 1
    terms, has G(n) = F^n(a') mod p^K at every n >= 0.  F is 1-Lipschitz,
    so F(G(n)) = G(n + 1) mod p^K at every integer n and, by continuity, on
    all of Z_p.  (Poonen, "p-adic interpolation of iterates", 2014.)

    So the model stores no point, and its table no row, beyond K.  When E
    is not the identity only the rows K + 1..2K of that table
    (verify_error_bound) back the bound min(n*c, K), on [0, 2K].
    """
    return lemma_applies(interp.model.linear)


def constancy_test(interp: ApproxInterpolant) -> bool:
    """Whether the interpolant is the degenerate constant one.

    Constant at precision means every coefficient beyond the zeroth is 0 mod
    p^K.  Its value is then points[0], and points[1] = points[0] mod p^K;
    points[1] is the walk's image of points[0], so a model map that moves
    the value disagrees with the walk, a program error.  Otherwise the
    orbit-convergence condition must be re-examined by the caller (this is
    the degenerate case of the gap analysis, not an error by itself).
    """
    if any(any(cv) for cv in interp.series.coeffs[1:]):
        return False
    beta = interp.series.coeffs[0]
    if interp.model.apply(beta) != beta:
        raise InvariantViolation(
            "constant interpolant whose value is not fixed by the model map; "
            "the chart maps and the orbit walk disagree"
        )
    return True
