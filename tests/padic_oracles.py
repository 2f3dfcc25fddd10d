"""Independent oracles used by the test suite.

unit_disk_root_count: counts roots (with multiplicity, over the algebraic
closure) of an integer polynomial inside the closed unit disk, WITHOUT any
Newton-polygon hull computation.  Two evaluation-based measurements suffice
for degree <= 4:

  * the valuation profile at radius 1: the minimum of v_p(L(u)) over every
    unit direction u of the unramified quadratic extension (exhausting all
    p^2 - 1 residue directions; an initial form of degree <= 4 cannot vanish
    on all of them, so the true minimum is attained);

  * the same minimum one ramified step outside the disk, at |t| = p^(1/5):
    evaluated literally in the Eisenstein ring Z[x, w]/(h(x), w^5 - p).  No
    root of a degree-<=4 polynomial has valuation in (-1/5, 0), so the slope
    between the two measurements counts exactly the roots of valuation >= 0.

The count is 5 * (profile(0) - profile(-1/5)).  Ramified roots (e.g. the
pair of t^2 - p, invisible to residue enumeration at any depth) are captured
by the second measurement.

The rest are reference implementations that tests compare the package
against: exact division with a precision ledger, binomial coefficients in a
context, the evaluation and Gauss valuation of a TruncatedSeries, exact
periods and the fixing iterate of declared targets, periodicity mod p by a
walk of the whole space, and a dense one-variable series with precision
bounds (the reference for disk restriction and for the bound rule of
TruncatedSeries).
"""

from __future__ import annotations

import math
from fractions import Fraction

from orbitgap.errors import HypothesisViolation, InputError, PrecisionExhausted
from orbitgap.gaps import DiskSeries
from orbitgap.padic import INF, PadicContext, TruncatedSeries, int_valuation, vp_factorial
from orbitgap.reduction import orbit_summary, reduce_instance


def valuation(n: int, p: int, cap: int) -> int:
    if n == 0:
        return cap
    v = 0
    while n % p == 0 and v < cap:
        n //= p
        v += 1
    return v


def _nonresidue(p: int) -> int:
    squares = {pow(x, 2, p) for x in range(p)}
    return next(r for r in range(2, p) if r not in squares)


def _quad_mul(a, b, r, mod):
    """(a0 + a1 x)(b0 + b1 x) in Z[x]/(x^2 - r, mod)."""
    return (
        (a[0] * b[0] + a[1] * b[1] * r) % mod,
        (a[0] * b[1] + a[1] * b[0]) % mod,
    )


def _quad_val(a, p, cap):
    return min(valuation(a[0], p, cap), valuation(a[1], p, cap))


def unit_disk_root_count(coeffs: list[int], p: int, precision: int) -> int:
    """Roots of sum coeffs[m] t^m with valuation >= 0, counted with multiplicity.

    coeffs are integers interpreted mod p^precision; the measurement asserts
    its own conclusiveness and raises if precision headroom is missing.
    """
    mod = p**precision
    coeffs = [c % mod for c in coeffs]
    degree = max((m for m, c in enumerate(coeffs) if c), default=None)
    if degree is None:
        raise ValueError("zero polynomial at this precision")
    r = _nonresidue(p)

    # profile at radius 1: exhaust all unit residue directions of F_{p^2}
    lam0 = None
    for c0 in range(p):
        for c1 in range(p):
            if c0 == 0 and c1 == 0:
                continue
            u = (c0, c1)
            acc = (coeffs[0] % mod, 0)
            upow = (1, 0)
            for m in range(1, degree + 1):
                upow = _quad_mul(upow, u, r, mod)
                if coeffs[m]:
                    term = ((coeffs[m] * upow[0]) % mod, (coeffs[m] * upow[1]) % mod)
                    acc = ((acc[0] + term[0]) % mod, (acc[1] + term[1]) % mod)
            v = _quad_val(acc, p, precision)
            lam0 = v if lam0 is None else min(lam0, v)
    assert lam0 <= precision - 3, "oracle inconclusive: profile at radius 1 too deep"

    # profile one ramified step out: T(u) = w^degree * L(u / w) in
    # Z[x, w]/(x^2 - r, w^5 - p); the basis valuation is exact there.
    u = (1, 1)
    upow = (1, 0)
    min_pi = None
    for m in range(degree + 1):
        if m:
            upow = _quad_mul(upow, u, r, mod)
        if coeffs[m]:
            comp = ((coeffs[m] * upow[0]) % mod, (coeffs[m] * upow[1]) % mod)
            v_pi = 5 * _quad_val(comp, p, precision) + (degree - m)
            min_pi = v_pi if min_pi is None else min(min_pi, v_pi)
    assert min_pi is not None
    assert min_pi <= 5 * (precision - 3), "oracle inconclusive: ramified profile too deep"

    lam_shift = min_pi - degree  # 5 * profile(-1/5)
    count = 5 * lam0 - lam_shift
    assert 0 <= count <= degree
    return count


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


def exact_div(
    ctx: PadicContext, a: int, b: int, ledger: PrecisionLedger | None = None
) -> int:
    """Exact division a/b of residues mod p^K, allowed only when v(b) <= v(a).

    The quotient is determined modulo p^(K - v(b)) only; the canonical
    representative below p^(K - v(b)) is returned and the loss v(b) is
    recorded in the ledger.
    """
    p, k = ctx.prime, ctx.precision
    a, b = ctx.scalar(a), ctx.scalar(b)
    if b == 0:
        raise PrecisionExhausted("division by a value that is 0 at working precision")
    w = int_valuation(b, p)
    if int_valuation(a, p) < w:
        raise InputError(f"inexact division: v(dividend)={int_valuation(a, p)} < v(divisor)={w}")
    reduced_mod = p ** (k - w)
    num = a // p**w
    den = b // p**w
    q = num * pow(den, -1, reduced_mod) % reduced_mod
    if ledger is not None:
        ledger.record("exact_div", w)
    return q


def binomial_mod(n: int, k: int, ctx: PadicContext) -> int:
    """Binomial coefficient C(n, k) of an integer n, computed exactly and
    reduced mod p^K; refused, like binomial_row, when v_p(k!) >= K."""
    if k < 0:
        raise InputError("binomial index k must be >= 0")
    e = vp_factorial(k, ctx.prime)
    if e >= ctx.precision:
        raise PrecisionExhausted(
            f"v_p({k}!) = {e} >= precision {ctx.precision}; raise the precision"
        )
    if n >= 0:
        value = math.comb(n, k)
    else:
        value = (-1) ** k * math.comb(-n + k - 1, k)
    return ctx.scalar(value)


def series_evaluate(series: TruncatedSeries, point: tuple[int, ...]) -> int:
    """The residues of a TruncatedSeries evaluated at a point of the unit polydisk."""
    if len(point) != series.nvars:
        raise InputError("point arity mismatch")
    mod = series.ctx.modulus
    acc = 0
    for exp, term in series.coeffs.items():
        for x, e in zip(point, exp):
            term = term * pow(x, e, mod) % mod
        acc = (acc + term) % mod
    return acc


def gauss_valuation(series: TruncatedSeries) -> int | float:
    """min over coefficients of min(v(residue), bound); INF for the zero series."""
    p = series.ctx.prime
    return min(
        (min(int_valuation(r, p), series.precs.get(e, INF)) for e, r in series.coeffs.items()),
        default=INF,
    )


def disk_series(coeffs: list[int], p: int, precision: int) -> DiskSeries:
    """The polynomial sum coeffs[m] t^m on the unit disk, each coefficient
    known mod p^precision (bound = precision)."""
    mod = p**precision
    return DiskSeries(0, 0, tuple(c % mod for c in coeffs), (precision,) * len(coeffs), p, precision)


def on_cycle(fp, x: tuple[int, ...]) -> bool:
    """Whether x is periodic mod p: its forward orbit returns to x within
    the size of the whole space."""
    pt = fp(x)
    for _ in range(fp.modulus**fp.nvars):
        if pt == x:
            return True
        pt = fp(pt)
    return False


def exact_period(f, point, bound: int = 64) -> int:
    """Exact period of a periodic rational point; raises if not periodic within bound."""
    start = tuple(Fraction(x) for x in point)
    pt = start
    for k in range(1, bound + 1):
        pt = f.evaluate(pt)
        if pt == start:
            return k
    raise HypothesisViolation(f"point {point} is not periodic within period bound {bound}")


def fixing_iterate(inst, p: int, period_bound: int = 64, bad=None) -> int:
    """Least iterate power fixing every declared target and the residue orbit.

    Combines the exact rational periods of the declared targets with the
    eventual period of the initial point's residue orbit mod p.
    """
    k = 1
    for t in inst.targets:
        k = math.lcm(k, exact_period(inst.mapping, t, period_bound))
    fp, a_p, _ = reduce_instance(inst, p, bad)
    k = math.lcm(k, orbit_summary(fp, a_p).cycle)
    return k


class DensePrecSeries:
    """One-variable series as dense (residue mod p^K, precision bound) lists.

    The dense reference for disk restriction: add takes the smaller bound,
    and mul bounds each product coefficient by min(b_u + f_v, b_v + f_u,
    b_u + b_v) over its pairs, f being min(v(residue), bound).
    """

    def __init__(self, mod, prime, res, prec):
        self.mod, self.prime = mod, prime
        self.res, self.prec = res, prec

    @classmethod
    def constant(cls, mod, prime, value: int):
        return cls(mod, prime, [value % mod], [INF])

    def _val_floor(self, m: int):
        r = self.res[m]
        if r == 0:
            return self.prec[m]
        v = 0
        while r % self.prime == 0:
            r //= self.prime
            v += 1
        return min(v, self.prec[m])

    def add(self, other):
        n = max(len(self.res), len(other.res))
        res, prec = [], []
        for m in range(n):
            a = self.res[m] if m < len(self.res) else 0
            b = other.res[m] if m < len(other.res) else 0
            pa = self.prec[m] if m < len(self.prec) else INF
            pb = other.prec[m] if m < len(other.prec) else INF
            res.append((a + b) % self.mod)
            prec.append(min(pa, pb))
        return DensePrecSeries(self.mod, self.prime, res, prec)

    def mul(self, other):
        la, lb = len(self.res), len(other.res)
        res = [0] * (la + lb - 1)
        prec = [INF] * (la + lb - 1)
        vf_a = [self._val_floor(m) for m in range(la)]
        vf_b = [other._val_floor(m) for m in range(lb)]
        for u in range(la):
            for v in range(lb):
                m = u + v
                res[m] = (res[m] + self.res[u] * other.res[v]) % self.mod
                if self.prec[u] is not INF or other.prec[v] is not INF:
                    bound = min(
                        self.prec[u] + vf_b[v],
                        other.prec[v] + vf_a[u],
                        self.prec[u] + other.prec[v],
                    )
                    prec[m] = min(prec[m], bound)
        return DensePrecSeries(self.mod, self.prime, res, prec)


def dense_compose(q: dict, coords: list[DensePrecSeries]) -> DensePrecSeries:
    """q(coords[0], coords[1], ...) with powers built as x^e = x^(e-1) * x."""
    mod, prime = coords[0].mod, coords[0].prime
    result = DensePrecSeries.constant(mod, prime, 0)
    for exp, coeff in q.items():
        coeff = Fraction(coeff)
        value = coeff.numerator * pow(coeff.denominator, -1, mod)
        term = DensePrecSeries.constant(mod, prime, value)
        for i, e in enumerate(exp):
            if e:
                power = coords[i]
                for _ in range(e - 1):
                    power = power.mul(coords[i])
                term = term.mul(power)
        result = result.add(term)
    return result
