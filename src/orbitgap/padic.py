"""Fixed-precision p-adic integer arithmetic.

A p-adic value is a plain int residue in [0, p^K); a point of the
N-dimensional unit polydisk is a tuple of them.  A residue of 0 means
"indistinguishable from 0 at precision K", never "provably zero".
Valuations are computed on demand (int_valuation, sup_valuation) where a
verdict reads them, not carried along.  The prime is always >= 3 and the
base is unramified, so the uniformizer is p itself.

Building blocks:

  TruncatedSeries -- finitely supported power series over the unit polydisk
                     with residues mod p^K and a precision bound for each
                     coefficient; the one series type, used for the model
                     map (normalization) and for disk restriction (gaps)
  MahlerSeries    -- a function of one p-adic argument in the binomial basis
                     C(n, 0), C(n, 1), ...; coefficients are residue vectors

All objects are immutable after construction and safe to share across
threads; contexts are shared read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add

from .errors import BudgetExceeded, InputError, PrecisionExhausted

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
    modulus: int = field(init=False, repr=False, compare=False)  # p^K

    def __post_init__(self):
        if self.prime < 3 or not is_prime(self.prime):
            raise InputError(f"context prime must be a prime >= 3, got {self.prime}")
        if self.precision < 1:
            raise InputError(f"precision must be >= 1, got {self.precision}")
        object.__setattr__(self, "modulus", self.prime**self.precision)

    def scalar(self, value: int | Fraction) -> int:
        """Reduce an integer or p-integral rational to its residue mod p^K."""
        if isinstance(value, Fraction):
            den = value.denominator
            if den % self.prime == 0:
                raise InputError(f"{value} is not integral at p={self.prime}")
            return value.numerator * pow(den, -1, self.modulus) % self.modulus
        return value % self.modulus


def sup_valuation(vec, p: int) -> int | float:
    """min of coordinate valuations of a residue vector (sup-norm = p^-this)."""
    return min(int_valuation(c, p) for c in vec)


def binomial_row(ctx: PadicContext, r: int, kmax: int) -> list[int]:
    """All of C(r, 0), ..., C(r, kmax) mod p^K for an integer r.

    Incremental falling-factorial products at working modulus p^(K + v_p(kmax!));
    the p-part of k! is divided out exactly and its unit part inverted once:
    the inverse for kmax! is walked down to k! by multiplying back the unit
    parts of kmax, kmax-1, ..., k+1.
    """
    p, prec, mod = ctx.prime, ctx.precision, ctx.modulus
    e_max = vp_factorial(kmax, p)
    if e_max >= prec:
        raise PrecisionExhausted(
            f"v_p({kmax}!) = {e_max} >= precision {prec}; raise the precision"
        )
    work_mod = p ** (prec + e_max)
    quotients = [1]  # falling factorial / p^v_p(k!), mod p^K
    units = [1]  # unit part of k
    prod = 1  # falling factorial mod work_mod
    fact_unit = 1  # unit part of k! mod p^K
    e_k = 0  # v_p(k!)
    for k in range(1, kmax + 1):
        prod = prod * (r - (k - 1)) % work_mod
        u = k
        while u % p == 0:
            u //= p
            e_k += 1
        units.append(u)
        fact_unit = fact_unit * u % mod
        # prod is congruent to the true falling factorial mod p^(K+e_max) and
        # the true value is divisible by p^e_k, so this integer division is exact.
        quotients.append((prod % (p ** (prec + e_k))) // p**e_k)
    inv = pow(fact_unit, -1, mod)
    out = [0] * (kmax + 1)
    for k in range(kmax, -1, -1):
        out[k] = quotients[k] * inv % mod
        inv = inv * units[k] % mod  # now the inverse unit part of (k-1)!
    return out


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


def forward_differences(values: list[tuple[int, ...]], mod: int) -> list[tuple[int, ...]]:
    """Iterated forward differences at 0 of a finite table of residue vectors."""
    out = [values[0]]
    row = list(values)
    while len(row) > 1:
        row = [tuple((y - x) % mod for x, y in zip(a, b)) for a, b in zip(row, row[1:])]
        out.append(row[0])
    return out


@dataclass(frozen=True)
class MahlerSeries:
    """A function of one p-adic argument in the binomial basis.

    coeffs[k] is a residue vector mod p^K multiplying C(n, k).  Evaluation at
    any integer n in [0, len(coeffs)-1] reproduces the finite-difference data
    exactly.  decay_onset records the first index after which coefficient
    valuations are non-decreasing (a construction-time diagnostic).
    """

    ctx: PadicContext
    coeffs: tuple[tuple[int, ...], ...]
    decay_onset: int = 0

    @staticmethod
    def from_values(ctx: PadicContext, values: list[tuple[int, ...]]) -> "MahlerSeries":
        diffs = forward_differences(values, ctx.modulus)
        vals = [sup_valuation(d, ctx.prime) for d in diffs]
        onset = 0
        for i in range(len(vals) - 1, 0, -1):
            if vals[i - 1] > vals[i]:
                onset = i
                break
        return MahlerSeries(ctx, tuple(diffs), onset)

    @property
    def dim(self) -> int:
        return len(self.coeffs[0])

    @property
    def terms(self) -> int:
        return len(self.coeffs)

    def coefficient_valuations(self) -> list[int | float]:
        return [sup_valuation(c, self.ctx.prime) for c in self.coeffs]

    def evaluate(self, n: int) -> tuple[int, ...]:
        """Sum of coeffs[k] * C(n, k) at the residue of the argument n mod p^K."""
        mod = self.ctx.modulus
        row = binomial_row(self.ctx, n % mod, len(self.coeffs) - 1)
        acc = [0] * self.dim
        for b, cv in zip(row, self.coeffs):
            if b == 0:
                continue
            for i, c in enumerate(cv):
                acc[i] = (acc[i] + b * c) % mod
        return tuple(acc)
