"""Fixed-precision p-adic integer arithmetic.

Values live in Z/p^K with a cached exact valuation; a residue of 0 means
"indistinguishable from 0 at precision K", never "provably zero".  The prime
is always >= 3 and the base is unramified, so the uniformizer is p itself.

Building blocks layered on the scalars:

  PadicVector     -- points of the N-dimensional unit polydisk, sup-norm
  TruncatedSeries -- finitely supported power series over the unit polydisk
                     (a working truncation of convergent power series; the
                     Gauss norm is the max coefficient norm)
  MahlerSeries    -- a function of one p-adic argument in the binomial basis
                     C(n, 0), C(n, 1), ...; coefficients are vectors

All objects are immutable after construction and safe to share across
threads; contexts are shared read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import BudgetExceeded, ContextMismatch, InputError, PrecisionExhausted

#: Valuation marker for residue 0: "zero at this precision".
INF = math.inf

#: Hard cap on the term count of any TruncatedSeries product/composition.
SERIES_TERM_GUARD = 200_000


def is_prime(n: int) -> bool:
    """Trial division; primes in this toolkit are desk-scale."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def int_valuation(n: int, p: int) -> int | float:
    """Exact p-adic valuation of an integer; INF for 0."""
    if n == 0:
        return INF
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def vp_factorial(k: int, p: int) -> int:
    """v_p(k!) by Legendre's digit-sum formula."""
    s, m = 0, k
    while m:
        s += m % p
        m //= p
    return (k - s) // (p - 1)


class PrecisionLedger:
    """Append-only record of precision losses from exact divisions."""

    def __init__(self) -> None:
        self.entries: list[tuple[str, int]] = []

    def record(self, op: str, loss: int) -> None:
        if loss > 0:
            self.entries.append((op, loss))

    @property
    def total(self) -> int:
        return sum(loss for _, loss in self.entries)


@dataclass(frozen=True)
class PadicContext:
    """Immutable arithmetic context: the prime p and working precision K."""

    prime: int
    precision: int

    def __post_init__(self):
        if self.prime < 3 or not is_prime(self.prime):
            raise InputError(f"context prime must be a prime >= 3, got {self.prime}")
        if self.precision < 1:
            raise InputError(f"precision must be >= 1, got {self.precision}")

    @property
    def modulus(self) -> int:
        return self.prime**self.precision

    def scalar(self, value: int | Fraction) -> "PadicScalar":
        """Reduce an integer or p-integral rational into this context."""
        if isinstance(value, Fraction):
            den = value.denominator
            if den % self.prime == 0:
                raise InputError(f"{value} is not integral at p={self.prime}")
            res = value.numerator * pow(den, -1, self.modulus) % self.modulus
        else:
            res = value % self.modulus
        return PadicScalar(self, res, int_valuation(res, self.prime))

    def zero(self) -> "PadicScalar":
        return PadicScalar(self, 0, INF)

    def one(self) -> "PadicScalar":
        return PadicScalar(self, 1, 0)

    def vector(self, values) -> "PadicVector":
        return PadicVector(tuple(v if isinstance(v, PadicScalar) else self.scalar(v) for v in values))


@dataclass(frozen=True, slots=True)
class PadicScalar:
    """An element of Z/p^K with its exact valuation cached.

    valuation is in [0, K-1] for a nonzero residue and INF for residue 0.
    """

    ctx: PadicContext
    residue: int
    valuation: int | float

    def _check(self, other: "PadicScalar") -> None:
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise ContextMismatch(f"{self.ctx} vs {other.ctx}")

    @property
    def is_zero(self) -> bool:
        return self.residue == 0

    def __add__(self, other: "PadicScalar") -> "PadicScalar":
        self._check(other)
        return self.ctx.scalar(self.residue + other.residue)

    def __sub__(self, other: "PadicScalar") -> "PadicScalar":
        self._check(other)
        return self.ctx.scalar(self.residue - other.residue)

    def __mul__(self, other: "PadicScalar") -> "PadicScalar":
        self._check(other)
        return self.ctx.scalar(self.residue * other.residue)

    def __neg__(self) -> "PadicScalar":
        return self.ctx.scalar(-self.residue)

    def __pow__(self, e: int) -> "PadicScalar":
        return self.ctx.scalar(pow(self.residue, e, self.ctx.modulus))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PadicScalar)
            and self.ctx == other.ctx
            and self.residue == other.residue
        )

    def __hash__(self) -> int:
        return hash((self.ctx.prime, self.ctx.precision, self.residue))

    def __repr__(self) -> str:
        return f"PadicScalar({self.residue} mod {self.ctx.prime}^{self.ctx.precision}, v={self.valuation})"

    def lift(self) -> int:
        """Canonical integer representative in [0, p^K)."""
        return self.residue


def exact_div(a: PadicScalar, b: PadicScalar, ledger: PrecisionLedger | None = None) -> PadicScalar:
    """Exact division a/b, allowed only when v(b) <= v(a).

    The quotient is determined modulo p^(K - v(b)) only; the canonical
    representative below p^(K - v(b)) is returned and the loss v(b) is
    recorded in the ledger.  All divisions in the pipeline (by p, by k!)
    are exact by construction.
    """
    a._check(b)
    if b.is_zero:
        raise PrecisionExhausted("division by a value that is 0 at working precision")
    w = int(b.valuation)
    if a.valuation < w:
        raise InputError(f"inexact division: v(dividend)={a.valuation} < v(divisor)={w}")
    p, k = a.ctx.prime, a.ctx.precision
    reduced_mod = p ** (k - w)
    num = a.residue // p**w
    den = b.residue // p**w
    q = num * pow(den, -1, reduced_mod) % reduced_mod
    if ledger is not None:
        ledger.record("exact_div", w)
    return a.ctx.scalar(q)


def binomial_mod(n, k: int, ctx: PadicContext | None = None) -> PadicScalar:
    """Binomial coefficient C(n, k) reduced in a context.

    For an integer n the exact integer value is reduced.  For a p-adic n the
    falling factorial n(n-1)...(n-k+1) is accumulated at raised working
    precision and the p-part of k! is cancelled exactly before reduction, so
    the result is correct modulo p^K whenever v_p(k!) < K.
    """
    if k < 0:
        raise InputError("binomial index k must be >= 0")
    if isinstance(n, PadicScalar):
        ctx = n.ctx
    elif ctx is None:
        raise InputError("an integer argument needs an explicit context")
    e = vp_factorial(k, ctx.prime)
    if e >= ctx.precision:
        raise PrecisionExhausted(
            f"v_p({k}!) = {e} >= precision {ctx.precision}; raise the precision"
        )
    if isinstance(n, int):
        if n >= 0:
            value = math.comb(n, k)
        else:
            value = (-1) ** k * math.comb(-n + k - 1, k)
        return ctx.scalar(value)
    return binomial_row(n, k)[k]


def binomial_row(n: PadicScalar, kmax: int) -> list[PadicScalar]:
    """All of C(n, 0), ..., C(n, kmax) for a p-adic argument.

    Incremental falling-factorial products at working modulus p^(K + v_p(kmax!)).
    """
    ctx = n.ctx
    p, prec = ctx.prime, ctx.precision
    e_max = vp_factorial(kmax, p)
    if e_max >= prec:
        raise PrecisionExhausted(
            f"v_p({kmax}!) = {e_max} >= precision {prec}; raise the precision"
        )
    work_mod = p ** (prec + e_max)
    out = [ctx.one()]
    prod = 1  # falling factorial mod work_mod
    fact_unit = 1  # unit part of k! mod p^K
    e_k = 0  # v_p(k!)
    r = n.residue
    for k in range(1, kmax + 1):
        prod = prod * (r - (k - 1)) % work_mod
        v = int_valuation(k, p)
        v = 0 if v is INF else v
        e_k += v
        fact_unit = fact_unit * (k // p**v) % ctx.modulus
        # prod is congruent to the true falling factorial mod p^(K+e_max) and
        # the true value is divisible by p^e_k, so this integer division is exact.
        q = (prod % (p ** (prec + e_k))) // p**e_k
        out.append(ctx.scalar(q * pow(fact_unit, -1, ctx.modulus)))
    return out


@dataclass(frozen=True)
class PadicVector:
    """A point of the unit polydisk; sup-norm = max coordinate norm."""

    coords: tuple[PadicScalar, ...]

    def __post_init__(self):
        if not self.coords:
            raise InputError("empty vector")
        ctx = self.coords[0].ctx
        for c in self.coords[1:]:
            if c.ctx != ctx:
                raise ContextMismatch("vector coordinates must share one context")

    @property
    def ctx(self) -> PadicContext:
        return self.coords[0].ctx

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def sup_valuation(self) -> int | float:
        """min of coordinate valuations (sup-norm = p^-this)."""
        return min(c.valuation for c in self.coords)

    def __add__(self, other: "PadicVector") -> "PadicVector":
        return PadicVector(tuple(a + b for a, b in zip(self.coords, other.coords, strict=True)))

    def __sub__(self, other: "PadicVector") -> "PadicVector":
        return PadicVector(tuple(a - b for a, b in zip(self.coords, other.coords, strict=True)))

    def __eq__(self, other) -> bool:
        return isinstance(other, PadicVector) and self.coords == other.coords

    def __hash__(self) -> int:
        return hash(self.coords)

    def lift(self) -> tuple[int, ...]:
        return tuple(c.residue for c in self.coords)


# ---------------------------------------------------------------------------
# Truncated multivariate series
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TruncatedSeries:
    """Finitely supported power series with PadicScalar coefficients.

    Coefficients that are 0 at working precision are not stored.  The
    exponent keys are tuples of length nvars.
    """

    ctx: PadicContext
    nvars: int
    coeffs: dict = field(default_factory=dict)

    @staticmethod
    def make(ctx: PadicContext, nvars: int, items) -> "TruncatedSeries":
        coeffs = {}
        for exp, c in dict(items).items():
            if not isinstance(c, PadicScalar):
                c = ctx.scalar(c)
            if len(exp) != nvars:
                raise InputError(f"exponent {exp} has wrong arity for {nvars} variables")
            if not c.is_zero:
                coeffs[tuple(exp)] = c
        return TruncatedSeries(ctx, nvars, coeffs)

    @staticmethod
    def constant(ctx: PadicContext, nvars: int, value) -> "TruncatedSeries":
        return TruncatedSeries.make(ctx, nvars, {(0,) * nvars: value})

    @staticmethod
    def variable(ctx: PadicContext, nvars: int, i: int) -> "TruncatedSeries":
        exp = [0] * nvars
        exp[i] = 1
        return TruncatedSeries.make(ctx, nvars, {tuple(exp): 1})

    @property
    def gauss_valuation(self) -> int | float:
        """min coefficient valuation (Gauss norm = p^-this; INF for the zero series)."""
        if not self.coeffs:
            return INF
        return min(c.valuation for c in self.coeffs.values())

    def coefficient(self, exp: tuple[int, ...]) -> PadicScalar:
        return self.coeffs.get(tuple(exp), self.ctx.zero())

    def constant_term(self) -> PadicScalar:
        return self.coefficient((0,) * self.nvars)

    def degree(self) -> int:
        return max((sum(e) for e in self.coeffs), default=0)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        out = dict(self.coeffs)
        for exp, c in other.coeffs.items():
            s = out.get(exp)
            t = c if s is None else s + c
            if t.is_zero:
                out.pop(exp, None)
            else:
                out[exp] = t
        return TruncatedSeries(self.ctx, self.nvars, out)

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(self.ctx, self.nvars, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + (-other)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        mod = self.ctx.modulus
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.coeffs.items():
            r1 = c1.residue
            for e2, c2 in other.coeffs.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = (out.get(e, 0) + r1 * c2.residue) % mod
            if len(out) > SERIES_TERM_GUARD:
                raise BudgetExceeded("series product exceeded the term guard")
        return TruncatedSeries.make(self.ctx, self.nvars, out)

    def scale(self, s: PadicScalar) -> "TruncatedSeries":
        return TruncatedSeries.make(
            self.ctx, self.nvars, {e: c * s for e, c in self.coeffs.items()}
        )

    def evaluate(self, point) -> PadicScalar:
        """Evaluate at a point of the unit polydisk."""
        if isinstance(point, PadicVector):
            point = point.coords
        if len(point) != self.nvars:
            raise InputError("point arity mismatch")
        mod = self.ctx.modulus
        res = tuple(c.residue for c in point)
        pow_cache: list[dict[int, int]] = [dict() for _ in range(self.nvars)]
        acc = 0
        for exp, c in self.coeffs.items():
            term = c.residue
            for i, e in enumerate(exp):
                if e:
                    pe = pow_cache[i].get(e)
                    if pe is None:
                        pe = pow(res[i], e, mod)
                        pow_cache[i][e] = pe
                    term = term * pe % mod
            acc = (acc + term) % mod
        return self.ctx.scalar(acc)

    def compose(self, args: list["TruncatedSeries"]) -> "TruncatedSeries":
        """Substitute a series for each variable.

        Coefficients that vanish at working precision are dropped as they
        appear, which keeps compositions of maps whose degree-d coefficients
        have valuation >= d-1 down to total degree <= K automatically.
        """
        if len(args) != self.nvars:
            raise InputError("composition arity mismatch")
        nv = args[0].nvars
        if any(a.nvars != nv for a in args):
            raise InputError("composition arguments must share one variable count")
        one = TruncatedSeries.constant(self.ctx, nv, 1)
        pow_cache: list[dict[int, TruncatedSeries]] = [{0: one} for _ in args]

        def arg_power(i: int, e: int) -> TruncatedSeries:
            cache = pow_cache[i]
            if e in cache:
                return cache[e]
            half = arg_power(i, e // 2)
            out = half * half
            if e % 2:
                out = out * args[i]
            cache[e] = out
            return out

        total = TruncatedSeries(self.ctx, nv, {})
        for exp, c in self.coeffs.items():
            term = TruncatedSeries.constant(self.ctx, nv, c)
            for i, e in enumerate(exp):
                if e:
                    term = term * arg_power(i, e)
            total = total + term
        return total


# ---------------------------------------------------------------------------
# Mahler series
# ---------------------------------------------------------------------------


def forward_differences(values: list[PadicVector]) -> list[PadicVector]:
    """Iterated forward differences at 0 of a finite value table."""
    out = [values[0]]
    row = list(values)
    while len(row) > 1:
        row = [b - a for a, b in zip(row, row[1:])]
        out.append(row[0])
    return out


@dataclass(frozen=True)
class MahlerSeries:
    """A function of one p-adic argument in the binomial basis.

    coeffs[k] multiplies C(n, k).  Evaluation at any integer n in
    [0, len(coeffs)-1] reproduces the finite-difference data exactly.
    decay_onset records the first index after which coefficient valuations
    are non-decreasing (a construction-time diagnostic).
    """

    ctx: PadicContext
    coeffs: tuple[PadicVector, ...]
    decay_onset: int = 0

    @staticmethod
    def from_values(values: list[PadicVector]) -> "MahlerSeries":
        diffs = forward_differences(values)
        vals = [d.sup_valuation for d in diffs]
        onset = 0
        for i in range(len(vals) - 1, 0, -1):
            if vals[i - 1] > vals[i]:
                onset = i
                break
        return MahlerSeries(values[0].ctx, tuple(diffs), onset)

    @property
    def dim(self) -> int:
        return self.coeffs[0].dim

    @property
    def terms(self) -> int:
        return len(self.coeffs)

    def coefficient_valuations(self) -> list[int | float]:
        return [c.sup_valuation for c in self.coeffs]

    def evaluate(self, n) -> PadicVector:
        """Sum of coeffs[k] * C(n, k); n may be an integer or a PadicScalar."""
        if isinstance(n, int):
            n = self.ctx.scalar(n)
        if n.ctx != self.ctx:
            raise ContextMismatch("argument context differs from series context")
        row = binomial_row(n, len(self.coeffs) - 1)
        mod = self.ctx.modulus
        acc = [0] * self.dim
        for k, cv in enumerate(self.coeffs):
            b = row[k].residue
            if b == 0:
                continue
            for i, c in enumerate(cv.coords):
                acc[i] = (acc[i] + b * c.residue) % mod
        return self.ctx.vector(acc)

