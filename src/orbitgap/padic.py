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
                     map (normalization) and for disk restriction (gaps),
                     where each disk holds its composed series as it is
  MahlerSeries    -- a function of one p-adic argument in the binomial basis
                     C(n, 0), C(n, 1), ...; coefficients are residue vectors

All objects are immutable after construction and safe to share across
threads; contexts are shared read-only.
"""

import math
from fractions import Fraction
from operator import add, mul, sub
from typing import NamedTuple

from .errors import BudgetExceeded, InputError, InvariantViolation, PrecisionExhausted
from .polynomials import reduce_rational

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


class PadicContext:
    """Immutable arithmetic context: the prime p and working precision K."""

    __slots__ = ("prime", "precision", "modulus")

    def __init__(self, prime: int, precision: int):
        self.prime = prime
        self.precision = precision
        if self.prime < 3 or not is_prime(self.prime):
            raise InputError(f"context prime must be a prime >= 3, got {self.prime}")
        if self.precision < 1:
            raise InputError(f"precision must be >= 1, got {self.precision}")
        self.modulus = self.prime**self.precision  # p^K

    def __eq__(self, other):
        if type(other) is not PadicContext:
            return NotImplemented
        return (self.prime, self.precision) == (other.prime, other.precision)

    def _replace(self, **changes) -> "PadicContext":
        """A copy with some fields changed, checked as a new context is."""
        return PadicContext(**{"prime": self.prime, "precision": self.precision, **changes})

    def scalar(self, value: int | Fraction) -> int:
        """Reduce an integer or p-integral rational to its residue mod p^K."""
        if isinstance(value, Fraction):
            return reduce_rational(value, self.modulus)
        return value % self.modulus


def sup_valuation(vec, p: int) -> int | float:
    """min of coordinate valuations of a residue vector (sup-norm = p^-this)."""
    return min(int_valuation(c, p) for c in vec)


def binomial_row(ctx: PadicContext, r: int, kmax: int) -> list[int]:
    """All of C(r, 0), ..., C(r, kmax) mod p^K for an integer r.

    Built over the integers by C(r, k) = C(r, k-1) * (r - k + 1) / k, an
    exact division, and reduced at the end.  A residue stands for a p-adic
    argument, whose row is known mod p^K only while v_p(kmax!) < K, so a
    longer row is refused.
    """
    e_max = vp_factorial(kmax, ctx.prime)
    if e_max >= ctx.precision:
        raise PrecisionExhausted(
            f"v_p({kmax}!) = {e_max} >= precision {ctx.precision}; raise the precision"
        )
    row = [1]
    for k in range(1, kmax + 1):
        row.append(row[-1] * (r - k + 1) // k)
    mod = ctx.modulus
    return [c % mod for c in row]


# ---------------------------------------------------------------------------
# Truncated multivariate series
# ---------------------------------------------------------------------------


class TruncatedSeries(NamedTuple):
    """Finitely supported power series with coefficients mod p^K.

    coeffs maps exponent tuples of length nvars to residues in [0, p^K).
    precs maps an exponent to the precision bound of its coefficient: a
    lower bound on the valuation of the coefficient's unknown part.  An
    exponent absent from precs has bound INF, i.e. its residue is exact mod
    p^K.  A coefficient is stored unless its residue is 0 and its bound INF.
    Neither dict is changed after construction: the empty defaults are shared.
    """

    ctx: PadicContext
    nvars: int
    coeffs: dict = {}
    precs: dict = {}

    def _valuation_floors(self) -> dict:
        """Per stored coefficient, min(v(residue), bound): a lower bound on its valuation."""
        p, precs = self.ctx.prime, self.precs
        return {e: min(int_valuation(r, p), precs.get(e, INF)) for e, r in self.coeffs.items()}

    def coefficient(self, exp: tuple[int, ...]) -> int:
        return self.coeffs.get(tuple(exp), 0)

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
    """Iterated forward differences at 0 of a table of residue vectors, column by column.

    The table is built over the integers and only its first entries are
    reduced: level k of it grows by at most k bits, while a reduction per
    entry is a long division."""
    cols = []
    for col in zip(*values):
        diffs = [col[0]]
        while len(col) > 1:
            col = list(map(sub, col[1:], col))
            diffs.append(col[0] % mod)
        cols.append(diffs)
    return list(zip(*cols))


class MahlerSeries(NamedTuple):
    """A function of one p-adic argument in the binomial basis.

    coeffs[k] is a residue vector mod p^K multiplying C(n, k).  Evaluation
    at any integer n in [0, len(coeffs)-1] reproduces the finite-difference
    data exactly.
    """

    ctx: PadicContext
    coeffs: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.coeffs[0])

    @property
    def terms(self) -> int:
        return len(self.coeffs)

    def evaluate(self, row: list[int]) -> tuple[int, ...]:
        """Sum of coeffs[k] * row[k]: the value at an argument whose binomial
        row C(n, 0), ..., C(n, terms - 1) mod p^K this is (see binomial_row)."""
        if len(row) != len(self.coeffs):
            raise InvariantViolation(
                f"binomial row of {len(row)} entries for {len(self.coeffs)} terms"
            )
        mod = self.ctx.modulus
        return tuple([sum(map(mul, row, col)) % mod for col in zip(*self.coeffs)])
