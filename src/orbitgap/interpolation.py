"""Approximate p-adic interpolation of the normalized orbit.

The interpolant is the finite-difference expansion of the model orbit in the
binomial basis: it reproduces the orbit exactly on the fitting window, and
the congruence F(x) = E*x mod p^c with idempotent E makes its coefficients
decay at rate ~c per term, which is what extends the approximation beyond
the window.  Construction certifies the decay; separate passes certify the
error bound on sampled indices and the step-compatibility identity
F(G(n)) = G(n+1) on sampled p-adic arguments.  The degenerate constant case
(orbit converging to a fixed point) is detected and flagged rather than
analyzed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import HypothesisViolation, PrecisionExhausted
from .modmat import mat_mul, mat_reduce
from .normalization import LocalModel, series_congruence_exponent
from .padic import MahlerSeries, PadicContext, sup_valuation

#: Allowed shortfall of coefficient decay below the ideal k*c schedule,
#: beyond the k/(p-1) slack inherent to binomial-basis expansions.
DECAY_SLACK = 2


@dataclass(frozen=True)
class ApproxInterpolant:
    """Binomial-basis interpolant of the model orbit with certified decay."""

    model: LocalModel
    series: MahlerSeries
    congruence_exponent: int
    terms: int
    decay: tuple

    @property
    def ctx(self):
        return self.model.ctx

    def value(self, n: int) -> tuple[int, ...]:
        return self.series.evaluate(n)

    def to_record(self) -> dict:
        return {
            "prime": self.ctx.prime,
            "precision": self.ctx.precision,
            "congruence_exponent": self.congruence_exponent,
            "terms": self.terms,
            "decay_onset": self.series.decay_onset,
            "coefficients": [list(v) for v in self.series.coeffs],
        }


def check_hypotheses(model: LocalModel) -> int:
    """Validate the interpolation hypotheses of a built model; returns c.

    Asserts that the recorded linear matrix is exactly idempotent at working
    precision and that the model map agrees with it mod p^c for some c >= 1.
    """
    mod = model.ctx.modulus
    e = mat_reduce(model.linear, mod)
    if mat_mul(e, e, mod) != e:
        raise HypothesisViolation("model linear part is not idempotent at working precision")
    series_mod = model.series[0].ctx.modulus
    c = series_congruence_exponent(model.series, mat_reduce(model.linear, series_mod), model.series[0].ctx)
    if c < 1:
        raise HypothesisViolation(
            f"congruence exponent {c} < 1; the normalization must be re-run"
        )
    if c != model.congruence_exponent:
        raise HypothesisViolation(
            f"recorded congruence exponent {model.congruence_exponent} disagrees with {c}"
        )
    return c


def _margin(x: tuple[int, ...], y: tuple[int, ...], ctx: PadicContext) -> int | float:
    """Valuation of x - y mod p^K in the sup-norm."""
    return sup_valuation([(a - b) % ctx.modulus for a, b in zip(x, y, strict=True)], ctx.prime)


def decay_requirement(k: int, c: int, p: int, precision: int, slack: int = DECAY_SLACK) -> int:
    req = math.ceil(k * c) - math.ceil(k / (p - 1)) - slack
    return max(0, min(req, precision))


def build_interpolant(
    model: LocalModel, terms: int | None = None, slack: int = DECAY_SLACK
) -> ApproxInterpolant:
    """Finite differences of the model orbit on [0, terms], with decay certification.

    A decay violation indicates either insufficient precision or a model
    whose orbit is not interpolable at this congruence level (for instance an
    orbit super-attracted to a fixed point); both are reported, not patched.
    """
    c = check_hypotheses(model)
    if terms is None:
        terms = model.ctx.precision
    values = model.orbit(terms + 1)
    series = MahlerSeries.from_values(model.ctx, values)
    p, prec = model.ctx.prime, model.ctx.precision
    decay = tuple(series.coefficient_valuations())
    for k, v in enumerate(decay):
        req = decay_requirement(k, c, p, prec, slack)
        if v < req:
            raise PrecisionExhausted(
                f"interpolant coefficient {k} has valuation {v} < required {req}; "
                "insufficient precision or an interpolation hypothesis fails on this orbit"
            )
    interp = ApproxInterpolant(model, series, c, terms, decay)
    for n in (0, 1, terms):
        if n <= terms and series.evaluate(n) != values[n]:
            raise AssertionError(f"fitting-window reconstruction failed at {n}")
    return interp


@dataclass(frozen=True)
class BoundReport:
    """Per-sample margins for the orbit approximation bound."""

    samples: tuple[int, ...]
    margins: tuple
    required: tuple[int, ...]
    ok: bool
    witness: int | None


def default_bound_samples(terms: int, budget: int | None = None) -> list[int]:
    budget = budget if budget is not None else 2 * terms
    samples = set(range(0, min(terms, 8) + 1))
    samples.update({terms // 2, max(terms - 1, 0), terms})
    n = terms + 1
    while n <= budget:
        samples.add(n)
        n += max(1, (budget - terms) // 8)
    return sorted(s for s in samples if s >= 0)


def verify_error_bound(
    interp: ApproxInterpolant, samples=None, strict: bool = True
) -> BoundReport:
    """Check valuation(G(n) - F^n(a')) >= min(n*c, (terms+1)*c, K) on samples.

    Samples beyond the fitting window are compared against direct iteration
    of the model map.  With the default window terms = K the requirement is
    exactly min(n*c, K); a shorter window caps the achievable margin at
    (terms+1)*c because the dropped binomial tail starts there.
    """
    model, c = interp.model, interp.congruence_exponent
    prec = model.ctx.precision
    if samples is None:
        samples = default_bound_samples(interp.terms)
    samples = sorted(set(samples))
    margins, required = [], []
    ok, witness = True, None
    pt = model.base_point
    idx = 0
    for n in samples:
        while idx < n:
            pt = model.apply(pt)
            idx += 1
        margin = _margin(interp.value(n), pt, model.ctx)
        req = min(n * c, (interp.terms + 1) * c, prec)
        margins.append(margin)
        required.append(req)
        if margin < req and ok:
            ok, witness = False, n
    report = BoundReport(tuple(samples), tuple(margins), tuple(required), ok, witness)
    if strict and not ok:
        raise HypothesisViolation(
            f"approximation bound failed at n={witness}: margin below min(n*c, K)"
        )
    return report


@dataclass(frozen=True)
class CompatReport:
    """Per-sample margins for the step identity F(G(n)) = G(n+1)."""

    samples: tuple[int, ...]  # canonical residues of the sampled arguments
    margins: tuple
    threshold: int
    ok: bool
    witness: int | None


def default_compat_samples(ctx: PadicContext, count: int = 20, seed: int = 0) -> list[int]:
    """Pseudo-random p-adic arguments plus the standard non-integer specials."""
    rng = random.Random(seed)
    # -1 and 1/(1-p) = 1 + p + p^2 + ... are the classic non-integer points
    out = [ctx.scalar(-1), ctx.scalar(pow(1 - ctx.prime, -1, ctx.modulus))]
    for _ in range(count):
        out.append(ctx.scalar(rng.randrange(ctx.modulus)))
    return out


def verify_compatibility(
    interp: ApproxInterpolant,
    samples=None,
    threshold: int | None = None,
    strict: bool = True,
) -> CompatReport:
    """Check valuation(F(G(n)) - G(n+1)) >= threshold on p-adic samples.

    A sample is the residue mod p^K of a p-adic argument.
    """
    model = interp.model
    ctx = model.ctx
    if threshold is None:
        threshold = ctx.precision - 2
    if samples is None:
        samples = default_compat_samples(ctx)
    margins = []
    ok, witness = True, None
    for n in samples:
        margin = _margin(model.apply(interp.value(n)), interp.value(n + 1), ctx)
        margins.append(margin)
        if margin < threshold and ok:
            ok, witness = False, n
    report = CompatReport(tuple(samples), tuple(margins), threshold, ok, witness)
    if strict and not ok:
        raise HypothesisViolation(
            f"compatibility identity failed at argument residue {witness}"
        )
    return report


@dataclass(frozen=True)
class ConstancyReport:
    constant: bool
    beta: tuple[int, ...] | None
    fixed_point_margin: int | float | None
    threshold: int


def constancy_test(interp: ApproxInterpolant, threshold: int | None = None) -> ConstancyReport:
    """Detect the degenerate constant interpolant.

    Constant at precision means every coefficient beyond the zeroth has
    valuation >= threshold.  In that case the limit value must be fixed by
    the model map at the same threshold, and the orbit-convergence condition
    must be re-examined by the caller (this is the degenerate case of the
    gap analysis, not an error by itself).
    """
    if threshold is None:
        threshold = interp.ctx.precision
    constant = all(v >= threshold for v in interp.decay[1:])
    if not constant:
        return ConstancyReport(False, None, None, threshold)
    beta = interp.series.coeffs[0]
    margin = _margin(interp.model.apply(beta), beta, interp.ctx)
    if margin < threshold:
        raise HypothesisViolation(
            "constant interpolant whose value is not fixed by the map; inconsistent model"
        )
    return ConstancyReport(True, beta, margin, threshold)
