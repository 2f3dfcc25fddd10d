"""Fixed-precision p-adic integer arithmetic.

Values live in Z/p^K with a cached exact valuation; a residue of 0 means
"indistinguishable from 0 at precision K", never "provably zero".  The prime
is always >= 3 and the base is unramified, so the uniformizer is p itself.

Building blocks:

  PadicVector     -- points of the N-dimensional unit polydisk, sup-norm
  TruncatedSeries -- finitely supported power series over the unit polydisk
                     with residues mod p^K and a precision bound for each
                     coefficient; the one series type, used for the model
                     map (normalization) and for disk restriction (gaps)
  MahlerSeries    -- a function of one p-adic argument in the binomial basis
                     C(n, 0), C(n, 1), ...; coefficients are vectors

All objects are immutable after construction and safe to share across
threads; contexts are shared read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add

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
    """Finitely supported power series with coefficients mod p^K.

    coeffs maps exponent tuples of length nvars to residues in [0, p^K).
    precs maps an exponent to the precision bound of its coefficient: a
    lower bound on the valuation of the coefficient's unknown part.  An
    exponent absent from precs has bound INF, i.e. its residue is exact mod
    p^K.  A coefficient is stored unless its residue is 0 and its bound INF.
    """

    ctx: PadicContext
    nvars: int
    coeffs: dict = field(default_factory=dict)
    precs: dict = field(default_factory=dict)

    @staticmethod
    def make(ctx: PadicContext, nvars: int, items) -> "TruncatedSeries":
        """An exact series from integer coefficients keyed by exponent."""
        coeffs = {}
        for exp, c in dict(items).items():
            if len(exp) != nvars:
                raise InputError(f"exponent {exp} has wrong arity for {nvars} variables")
            if c % ctx.modulus:
                coeffs[tuple(exp)] = c % ctx.modulus
        return TruncatedSeries(ctx, nvars, coeffs)

    @staticmethod
    def variable(ctx: PadicContext, nvars: int, i: int) -> "TruncatedSeries":
        exp = [0] * nvars
        exp[i] = 1
        return TruncatedSeries.make(ctx, nvars, {tuple(exp): 1})

    def _valuation_floors(self) -> dict:
        """Per stored coefficient, min(v(residue), bound): a lower bound on its valuation."""
        p, precs = self.ctx.prime, self.precs
        return {e: min(int_valuation(r, p), precs.get(e, INF)) for e, r in self.coeffs.items()}

    @property
    def gauss_valuation(self) -> int | float:
        """min coefficient valuation floor (Gauss norm = p^-this; INF for the zero series)."""
        return min(self._valuation_floors().values(), default=INF)

    def coefficient(self, exp: tuple[int, ...]) -> int:
        return self.coeffs.get(tuple(exp), 0)

    def constant_term(self) -> int:
        return self.coefficient((0,) * self.nvars)

    def _stored(self, coeffs: dict, precs: dict) -> "TruncatedSeries":
        return TruncatedSeries(
            self.ctx, self.nvars, {e: r for e, r in coeffs.items() if r or e in precs}, precs
        )

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Residues add mod p^K; a coefficient's bound is the smaller of the two."""
        mod = self.ctx.modulus
        coeffs, precs = dict(self.coeffs), dict(self.precs)
        for e, r in other.coeffs.items():
            coeffs[e] = (coeffs.get(e, 0) + r) % mod
        for e, b in other.precs.items():
            if b < precs.get(e, INF):
                precs[e] = b
        return self._stored(coeffs, precs)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Product mod p^K, with bounds propagated pair by pair.

        A coefficient r + u with unknown part v(u) >= b has valuation floor
        f = min(v(r), b).  The unknown part of (r1 + u1)(r2 + u2) is
        r1*u2 + r2*u1 + u1*u2, of valuation >= min(f1 + b2, b1 + f2) (u1*u2
        adds nothing, as f <= b); a product coefficient takes the least such
        bound over the pairs that reach it.
        """
        right = [
            (e, other.coeffs[e], other.precs.get(e, INF), f)
            for e, f in other._valuation_floors().items()
        ]
        acc: dict[tuple[int, ...], list] = {}  # exponent -> [residue sum, bound]
        get = acc.get
        for e1, f1 in self._valuation_floors().items():
            r1, b1 = self.coeffs[e1], self.precs.get(e1, INF)
            for e2, r2, b2, f2 in right:
                e = tuple(map(add, e1, e2))
                bound = b1 + f2
                if f1 + b2 < bound:
                    bound = f1 + b2
                slot = get(e)
                if slot is None:
                    acc[e] = [r1 * r2, bound]
                else:
                    slot[0] += r1 * r2
                    if bound < slot[1]:
                        slot[1] = bound
            if len(acc) > SERIES_TERM_GUARD:
                raise BudgetExceeded("series product exceeded the term guard")
        mod = self.ctx.modulus
        coeffs = {e: r % mod for e, (r, _) in acc.items()}
        precs = {e: b for e, (_, b) in acc.items() if b < INF}
        return self._stored(coeffs, precs)

    def evaluate(self, point) -> PadicScalar:
        """Evaluate the residues at a point of the unit polydisk."""
        if isinstance(point, PadicVector):
            point = point.coords
        if len(point) != self.nvars:
            raise InputError("point arity mismatch")
        mod = self.ctx.modulus
        res = tuple(c.residue for c in point)
        pow_cache: list[dict[int, int]] = [dict() for _ in range(self.nvars)]
        acc = 0
        for exp, term in self.coeffs.items():
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

        Powers are built as x^e = x^(e-1) * x and each term is multiplied
        out variable by variable; residues do not depend on that order, but
        precision bounds do.  Coefficients that vanish at working precision
        are dropped as they appear, which keeps compositions of maps whose
        degree-d coefficients have valuation >= d-1 down to total degree
        <= K automatically.
        """
        if len(args) != self.nvars:
            raise InputError("composition arity mismatch")
        nv = args[0].nvars
        if any(a.nvars != nv for a in args):
            raise InputError("composition arguments must share one variable count")
        zero = (0,) * nv
        powers = [[None, a] for a in args]  # powers[i][e] = args[i]^e for e >= 1
        total = TruncatedSeries(self.ctx, nv)
        for exp, c in self.coeffs.items():
            prec = {zero: self.precs[exp]} if exp in self.precs else {}
            term = TruncatedSeries(self.ctx, nv, {zero: c}, prec)
            for i, e in enumerate(exp):
                if e:
                    row = powers[i]
                    while len(row) <= e:
                        row.append(row[-1] * args[i])
                    term = term * row[e]
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

