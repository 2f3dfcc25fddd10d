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
walk of the whole space, the residue-periodic points on a variety by one
Brent walk per point (the reference for the one-pass cycle marking),
whether the residue orbit of a point misses every
target at each iterate >= M (what a certified prime implies), the backward
depth of a target from a dict of preimage tuples (the reference for the
sorted-image scan), the binomial basis re-expanded at each disk (the
reference for disk restriction), a dense one-variable series with
precision bounds (the reference for the bound rule of disk restriction and
of TruncatedSeries), the Newton-polygon reading of
a disk index by index over its dense coefficients (the reference for the
sparse reading of newton_zero_count), polynomial evaluation mod m
term by term (the reference for the nested Horner evaluator), exact
polynomial arithmetic over the rationals with the exact chart step (the
references for the chart steps and transported polynomials that the
package composes mod p^K), the composition of two maps over the rationals,
the chart chain composed one chart at a time for each rotation (the
reference for the shared head and tail composites of normalization), the
model map applied one point and one chart call at a time (the reference for
the column-wise push),
Mahler evaluation and forward differences term by term (the references for
the column kernels), the value of a Mahler series or an interpolant at one
integer with its own binomial row, exact
iteration over the rationals, the least idempotent power of a matrix mod p
by trying every power in turn (the reference for the iterate power of
normalization), the chart T(x) = eta + p*x of a local model and its inverse,
zero localization with every child disk shifted (the reference for the
residual-root rule of localize_zeros), the gap report with one leaf lookup
per member and one pass over each class's leaves (the reference for the
per-class verdicts of build_gap_report), the pairwise gap classifier against a
growth rate, and a model taken in ambient coordinates with the identity
chart.  The bound oracle evaluates G alone at every n <= 2K and returns
the first failing n, where the package check raises; the step-identity
oracle evaluates F(G(x)) and G(x + 1) alone at each given argument and
returns the first at which they differ mod p^K.

Beside the oracles: a PolyMap from plain exponent-to-coefficient dicts, the
model map series of a model, from which normalization reads the congruence
exponent c, the interpolant run with the binomial rows of its window, the
uncertified interpolant of a model's window points, a Mahler series from
its values, and a problem whose models have mixed rank (E is not I).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from orbitgap import reduction
from orbitgap.errors import (
    BudgetExceeded,
    HypothesisViolation,
    InputError,
    InvariantViolation,
    PrecisionExhausted,
)
from orbitgap.gaps import (
    STABLE_ROUNDS,
    ClassReport,
    DiskSeries,
    GapReport,
    PairVerdict,
    ZeroLocalization,
    _subdisk,
    check_gap_pair,
    newton_zero_count,
    restrict_to_disk,
)
from orbitgap.interpolation import ApproxInterpolant
from orbitgap.modmat import Matrix, mat_mul, mat_reduce
from orbitgap.normalization import (
    LocalModel,
    _linear_part_mod,
    _rotation_series,
    hensel_idempotent,
    series_congruence_exponent,
)
from orbitgap.padic import (
    INF,
    MahlerSeries,
    PadicContext,
    TruncatedSeries,
    binomial_row,
    int_valuation,
    vp_factorial,
)
from orbitgap.polynomials import ModularMap, Poly, PolyMap, reduce_poly
from orbitgap.reduction import bad_primes, orbit_hits, orbit_summary, reduce_instance


def map_from_lists(nvars: int, polys) -> PolyMap:
    """A PolyMap from dicts of exponent to coefficient, zero terms dropped."""
    return PolyMap(nvars, tuple(
        {tuple(e): Fraction(c) for e, c in dict(poly).items() if c != 0} for poly in polys
    ))


def valuation(n: int, p: int, cap: int) -> int:
    if n == 0:
        return cap
    v = 0
    while n % p == 0 and v < cap:
        n //= p
        v += 1
    return v


def margin(x: tuple[int, ...], y: tuple[int, ...], ctx: PadicContext) -> int | float:
    """Valuation of x - y mod p^K in the sup-norm; INF when they agree mod p^K."""
    return min(valuation((a - b) % ctx.modulus, ctx.prime, INF) for a, b in zip(x, y, strict=True))


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


def disk_series(coeffs: list[int], p: int, precision: int, bounds=None) -> DiskSeries:
    """The polynomial sum coeffs[m] t^m on the unit disk; coefficient m is
    known above valuation bounds[m] (default: precision for every m)."""
    ctx = PadicContext(p, precision)
    if bounds is None:
        bounds = [precision] * len(coeffs)
    residues = [c % ctx.modulus for c in coeffs]
    series = TruncatedSeries(
        ctx,
        1,
        {(m,): r for m, (r, b) in enumerate(zip(residues, bounds)) if r or b < INF},
        {(m,): b for m, b in enumerate(bounds) if b < INF},
    )
    return DiskSeries(0, 0, series)


def dense_coefficients(disk: DiskSeries) -> tuple[tuple[int, ...], tuple]:
    """(residues, bounds) of a disk series, one entry per index up to its degree."""
    series = disk.series
    degree = max((m for (m,) in series.coeffs), default=0)
    return (
        tuple(series.coefficient((m,)) for m in range(degree + 1)),
        tuple(series.precs.get((m,), INF) for m in range(degree + 1)),
    )


def dense_newton_reading(residues, precs, p: int) -> tuple[int, int]:
    """(zero count, minimum known valuation) by the dense rule, index by index.

    The reference for `gaps.newton_zero_count`: the known valuations are
    those below their bounds; the count is the last index attaining their
    minimum, and the first index whose valuation is unknown and whose bound
    is at most that minimum makes the truncation insufficient.
    """
    known = [
        (m, v) for m, (r, bound) in enumerate(zip(residues, precs))
        if (v := int_valuation(r, p)) < bound
    ]
    if not known:
        raise InputError("series is identically zero at precision; no polygon exists")
    min_val = min(v for _, v in known)
    count = max(m for m, v in known if v == min_val)
    known_indices = {m for m, _ in known}
    for m, bound in enumerate(precs):
        if m not in known_indices and bound <= min_val:
            raise PrecisionExhausted(
                f"truncation insufficient: coefficient {m} is only known above "
                f"valuation {bound}, the polygon minimum is {min_val}"
            )
    return count, min_val


def modular_eval(p: dict, point, m: int) -> int:
    """A reduced polynomial at an int point mod m, one power per variable per term."""
    acc = 0
    for e, c in p.items():
        term = c
        for x, k in zip(point, e):
            if k:
                term = term * pow(x, k, m) % m
        acc = (acc + term) % m
    return acc


def frac_valuation(c: Fraction, p: int) -> int | float:
    c = Fraction(c)
    return int_valuation(c.numerator, p) - int_valuation(c.denominator, p)


def make_const(nvars: int, value) -> Poly:
    c = Fraction(value)
    return {} if c == 0 else {(0,) * nvars: c}


def make_var(nvars: int, i: int) -> Poly:
    exp = [0] * nvars
    exp[i] = 1
    return {tuple(exp): Fraction(1)}


def poly_add(p: Poly, q: Poly) -> Poly:
    out = dict(p)
    for e, c in q.items():
        t = out.get(e, Fraction(0)) + c
        if t == 0:
            out.pop(e, None)
        else:
            out[e] = t
    return out


def poly_mul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            t = out.get(e, Fraction(0)) + c1 * c2
            if t == 0:
                out.pop(e, None)
            else:
                out[e] = t
    return out


def poly_scale(p: Poly, s) -> Poly:
    s = Fraction(s)
    if s == 0:
        return {}
    return {e: c * s for e, c in p.items()}


def poly_compose(p: Poly, args: list[Poly]) -> Poly:
    """Substitute args[i] for variable i; exact over the rationals."""
    if not p:
        return {}
    nvars_out = max((len(next(iter(a))) for a in args if a), default=0)
    if nvars_out == 0:  # every argument constant
        nvars_out = 1
    max_exp = [0] * len(args)
    for e in p:
        for i, k in enumerate(e):
            max_exp[i] = max(max_exp[i], k)
    pow_cache: list[list[Poly]] = []
    for i, a in enumerate(args):
        powers = [make_const(nvars_out, 1)]
        for _ in range(max_exp[i]):
            powers.append(poly_mul(powers[-1], a))
        pow_cache.append(powers)
    out: Poly = {}
    for e, c in p.items():
        term = make_const(nvars_out, c)
        for i, k in enumerate(e):
            if k:
                term = poly_mul(term, pow_cache[i][k])
        out = poly_add(out, term)
    return out


def chart_args(eta, p: int) -> list[Poly]:
    """The chart substitution x -> eta + p*x, one polynomial per coordinate."""
    n = len(eta)
    return [poly_add(poly_scale(make_var(n, i), p), make_const(n, eta[i])) for i in range(n)]


def exact_chart_step(f: PolyMap, eta, eta_next, p: int) -> PolyMap:
    """G(x) = (f(eta + p*x) - eta_next)/p, exact over the rationals."""
    n = f.nvars
    args = chart_args(eta, p)
    polys = []
    for poly, e in zip(f.polys, eta_next):
        g = poly_add(poly_compose(poly, args), make_const(n, -Fraction(e)))
        polys.append(poly_scale(g, Fraction(1, p)))
    return PolyMap(n, tuple(polys))


def compose_maps(f: PolyMap, g: PolyMap) -> PolyMap:
    """f after g: x -> f(g(x)), exact over the rationals."""
    return PolyMap(f.nvars, tuple(poly_compose(q, list(g.polys)) for q in f.polys))


def iterate_point(f, point, k: int) -> tuple[Fraction, ...]:
    """The k-th iterate of a point under a PolyMap, exact over the rationals."""
    pt = tuple(Fraction(x) for x in point)
    for _ in range(k):
        pt = f.evaluate(pt)
    return pt


@dataclass(frozen=True)
class IdempotentCertificate:
    """k with A^(2k) = A^k mod p, i.e. the linear part of the k-th iterate is idempotent."""

    power: int
    matrix: Matrix
    prime: int

    def verify(self) -> bool:
        return mat_mul(self.matrix, self.matrix, self.prime) == self.matrix


def idempotent_power(a: Matrix, p: int) -> IdempotentCertificate:
    """Least k >= 1 with A^(2k) = A^k mod p, trying k = 1, 2, ... in turn.

    The powers of A mod p are eventually periodic, and some power in the
    cycle is idempotent, so the search ends.
    """
    power, k = mat_reduce(a, p), 1
    while mat_mul(power, power, p) != power:
        power, k = mat_mul(power, a, p), k + 1
    return IdempotentCertificate(k, power, p)


def to_original(model, point: tuple[int, ...]) -> tuple[int, ...]:
    """T(x) = eta + p*x of a local model, one digit above working precision."""
    if isinstance(model, DirectModel):
        return tuple(point)
    p, mod1 = model.prime, model.ctx.modulus * model.prime
    return tuple((e + p * c) % mod1 for e, c in zip(model.center, point))


def from_original(model, point: tuple[int, ...]) -> tuple[int, ...]:
    """T^-1(y) = (y - eta)/p; needs y mod p^(K+1), y = eta mod p."""
    if isinstance(model, DirectModel):
        return tuple(model.ctx.scalar(y) for y in point)
    p, mod1 = model.prime, model.ctx.modulus * model.prime
    coords = []
    for e, y in zip(model.center, point):
        d = (y - e) % mod1
        if d % p:
            raise InputError("point is not in the chart disk")
        coords.append(d // p)
    return tuple(coords)


def on_cycle(fp, x: tuple[int, ...]) -> bool:
    """Whether x is periodic mod p: its forward orbit returns to x within
    the size of the whole space."""
    pt = fp(x)
    for _ in range(fp.modulus**fp.nvars):
        if pt == x:
            return True
        pt = fp(pt)
    return False


def periodic_points_on_variety_reference(fp, variety_mod: list[dict]) -> list[tuple[int, ...]]:
    """The residue points on the variety that lie on a cycle, in index
    order: every point's variety values term by term, and one Brent walk
    from each point on the variety."""
    p, n = fp.modulus, fp.nvars
    out = []
    for k in range(p**n):
        pt = tuple(k // p**i % p for i in range(n))
        if not any(modular_eval(q, pt, p) for q in variety_mod) and orbit_summary(fp, pt).tail == 0:
            out.append(pt)
    return out


def residue_orbit_avoids(fp, a_p: tuple[int, ...], targets_p, bound: int) -> bool:
    """Decisive check that the residue orbit of a_p misses every reduced
    target at all iterates >= bound.

    A target on the eventual cycle is hit at unboundedly many iterates, so it
    fails regardless of the bound; a target on the tail only fails when its
    hit index is >= bound.
    """
    hits = orbit_hits(fp, a_p, targets_p.__contains__, None)
    return not any(n >= bound or n >= hits.tail for n in hits.hits)


def first_hit_depth_reference(fp, gamma: tuple[int, ...]) -> int | None:
    """Largest m with f^m(x) = gamma for some residue point x, or None when
    gamma is periodic: a dict from each image point to its preimage points,
    filled by evaluating the map at every point tuple, and a breadth-first
    expansion over sets of points.  The space is refused above
    reduction.ENUM_GUARD, as the package's image table is."""
    if on_cycle(fp, gamma):
        return None
    if fp.modulus**fp.nvars > reduction.ENUM_GUARD:
        raise BudgetExceeded("space size exceeds the enumeration guard")
    buckets: dict = {}
    for pt in product(range(fp.modulus), repeat=fp.nvars):
        buckets.setdefault(fp(pt), []).append(pt)
    level, seen = {gamma}, {gamma}
    depth = 0
    while True:
        nxt: set = set()
        for pt in level:
            nxt.update(buckets.get(pt, ()))
        if not nxt:
            return depth
        if nxt & seen:
            raise InvariantViolation("preimage levels are not disjoint")
        seen |= nxt
        level = nxt
        depth += 1


def exact_period(f, point, bound: int = 64) -> int:
    """Exact period of a periodic rational point; raises if not periodic within bound."""
    start = tuple(Fraction(x) for x in point)
    pt = start
    for k in range(1, bound + 1):
        pt = f.evaluate(pt)
        if pt == start:
            return k
    raise HypothesisViolation(f"point {point} is not periodic within period bound {bound}")


def fixing_iterate(inst, p: int, period_bound: int = 64) -> int:
    """Least iterate power fixing every declared target and the residue orbit.

    Combines the exact rational periods of the declared targets with the
    eventual period of the initial point's residue orbit mod p.
    """
    k = 1
    for t in inst.targets:
        k = math.lcm(k, exact_period(inst.mapping, t, period_bound))
    fp, a_p, _ = reduce_instance(inst, p, bad_primes(inst, search_bound=0))
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


def restrict_to_disk_reference(interp, q: dict, center: int, radius_exp: int) -> DiskSeries:
    """Q(G(center + p^k t)) by re-expanding the binomial basis at the disk.

    The reference for `gaps.restrict_to_disk`: the integer polynomials
    N_j(t) = prod_{l<j} (center - l + p^k t) are accumulated with exact big
    integers and the running scaling T!/j!, the p-part of T! is divided out
    with a cancellation check, and the constant terms are the values of G at
    the center by Mahler evaluation.
    """
    ctx = interp.ctx
    p, prec, mod = ctx.prime, ctx.precision, ctx.modulus
    T = interp.terms
    e_total = vp_factorial(T, p)
    fact = math.factorial(T)
    inv_fact_unit = pow(fact // p**e_total, -1, mod)
    pk = p**radius_exp
    dim = interp.series.dim
    acc = [[0] * (T + 1) for _ in range(dim)]
    n_poly = [1] + [0] * T  # N_0 = 1
    ratio = fact  # T!/j!
    for j in range(T + 1):
        if j > 0:
            const = center - (j - 1)
            new = [0] * (T + 1)
            for m in range(j):
                new[m] += n_poly[m] * const
                new[m + 1] += n_poly[m] * pk
            n_poly = new
            ratio //= j
        for i in range(dim):
            scaled = interp.series.coeffs[j][i] * ratio
            for m in range(j + 1):
                acc[i][m] += scaled * n_poly[m]

    direct = interpolant_value(interp, center)
    coord_series = []
    for i in range(dim):
        coeffs, precs = {}, {}
        for m in range(T + 1):
            quotient, remainder = divmod(acc[i][m], p**e_total)
            if remainder:
                raise PrecisionExhausted(
                    f"factorial p-part failed to cancel at coefficient {m}"
                )
            coeffs[(m,)] = quotient * inv_fact_unit % mod
            precs[(m,)] = prec + min(radius_exp * m - e_total, 0)
        coeffs[(0,)] = direct[i]
        precs[(0,)] = prec
        coord_series.append(TruncatedSeries(ctx, 1, coeffs, precs))

    result = TruncatedSeries(ctx, dim, reduce_poly(q, mod)).compose(coord_series)
    return DiskSeries(center, radius_exp, result)


def _refine_reference(interp, q: dict, series: DiskSeries, stability: int = 0) -> list:
    """The refinement with every one of the p children shifted and counted."""
    p = interp.ctx.prime
    count, v_min = newton_zero_count(series)
    if count == 0:
        return [ZeroLocalization(series.center, series.radius_exp, 0, v_min)]
    if series.radius_exp >= max(5, interp.ctx.precision // 2) or stability >= STABLE_ROUNDS:
        return [ZeroLocalization(series.center, series.radius_exp, count, v_min)]
    children = []
    child_counts = []
    for j in range(p):
        child = _subdisk(
            interp, q, series.coords, series.center, series.radius_exp, j,
            series.radius_exp + 1,
        )
        if child.zero_at_precision:
            raise PrecisionExhausted("child disk series vanished at precision during refinement")
        children.append(child)
        child_counts.append(newton_zero_count(child)[0])
    total = sum(child_counts)
    if count == 1 and total != 1:
        raise InvariantViolation("a single zero must land in exactly one rational child disk")
    if total > count:
        raise InvariantViolation("child zero counts exceed the parent count")

    leaves = []
    single = sum(c > 0 for c in child_counts) == 1
    for child, c in zip(children, child_counts):
        if c:
            leaves += _refine_reference(
                interp, q, child, stability + 1 if single and c == count else 0
            )
    leaves += [
        ZeroLocalization(child.center, child.radius_exp, 0, newton_zero_count(child)[1])
        for child, c in zip(children, child_counts)
        if c == 0
    ]
    return leaves


def localize_zeros_reference(interp, polynomials: list[dict]) -> list[tuple]:
    """Zero localization that shifts every class disk and every child disk.

    The reference for `gaps.localize_zeros`, which shifts only the disks at
    roots of their parent's residual polynomial: per class mod p, the first
    polynomial whose class disk does not vanish at precision is refined by
    counting the zeros of all p children of every disk that holds one.  Entry
    i is the tuple of leaves of class i, empty where every polynomial vanishes.
    """
    if not polynomials:
        raise InputError("zero localization needs at least one defining polynomial")
    first = restrict_to_disk(interp, polynomials[0], 0, 0)
    coords = first.coords
    unit_disks = [first] + [_subdisk(interp, q, coords, 0, 0, 0, 0) for q in polynomials[1:]]
    if all(s.zero_at_precision for s in unit_disks):
        raise HypothesisViolation("every defining polynomial vanishes at working precision")
    leaves_by_class = []
    for i in range(interp.ctx.prime):
        for q in polynomials:
            series = _subdisk(interp, q, coords, 0, 0, i, 1)
            if not series.zero_at_precision:
                leaves_by_class.append(tuple(_refine_reference(interp, q, series)))
                break
        else:
            leaves_by_class.append(())
    return leaves_by_class


def _leaf_for(leaves, j: int, p: int):
    for leaf in leaves:
        if (j - leaf.center) % p**leaf.radius_exp == 0:
            return leaf
    return None


def build_gap_report_reference(returns, localized, c: int) -> GapReport:
    """The gap report classified leaf by leaf, as one loop over every class.

    The reference for `gaps.build_gap_report` with V = [], where no shift is
    off V: every localized shift's returns are its members.  A member that
    lies in no leaf of its class gives its class a violation here, where the
    package raises InvariantViolation.
    """
    some_model = localized[0][0]
    prime, m0, k_total = some_model.prime, some_model.m0, some_model.k_total
    status = {e.index: e.status for e in returns.entries}

    prefix = tuple(sorted(n for n in status if n < m0))
    covered_shifts = {model.shift for model, _ in localized}
    uncovered = tuple(
        sorted(n for n in status if n >= m0 and (n - m0) % k_total not in covered_shifts)
    )

    classes = []
    for model, leaves_by_class in localized:
        shift = model.shift
        members_model = sorted(
            (n - m0 - shift) // k_total
            for n in status
            if n >= m0 + shift and (n - m0 - shift) % k_total == 0
        )
        for class_index, leaves in enumerate(leaves_by_class):
            in_class = [j for j in members_model if j % prime == class_index]
            originals = tuple(model.original_index(j) for j in in_class)
            if not leaves:
                classes.append(ClassReport(
                    shift, class_index, tuple(in_class), originals, "unresolved", None
                ))
                continue
            if not in_class:
                classes.append(ClassReport(shift, class_index, (), (), "no-members", None))
                continue
            verdict = "ok"
            pairs = []
            constant = None
            member_bound = None
            by_leaf = {}
            for j in in_class:
                by_leaf.setdefault(_leaf_for(leaves, j, prime), []).append(j)
            for leaf, js in by_leaf.items():
                if leaf is None:
                    verdict = "violation"  # member escaped the analyzed disks
                    continue
                js.sort()
                if leaf.count == 0:
                    member_bound = leaf.leading_valuation // c
                    if any(j > member_bound for j in js):
                        verdict = "violation"
                    continue
                d = leaf.count
                constant = (prime, c, d)
                for j1, j2 in zip(js, js[1:]):
                    req = leaf.radius_exp * d + j1 * c - leaf.leading_valuation
                    if d >= 2:
                        req = min(req, leaf.radius_exp * d)
                    ok = check_gap_pair(j2 - j1, d, req, prime)
                    prov = (
                        "certified-exact"
                        if status[model.original_index(j1)] == "certified-exact"
                        and status[model.original_index(j2)] == "certified-exact"
                        else "modular-screened"
                    )
                    pairs.append(PairVerdict(j1, j2, req, ok, prov))
                    if not ok:
                        verdict = "violation"
            if verdict == "ok" and not pairs:
                verdict = "too-few-returns"
            classes.append(ClassReport(
                shift, class_index, tuple(in_class), originals, verdict, constant,
                tuple(pairs), member_bound,
            ))

    overall = "ok"
    if any(cl.verdict == "violation" for cl in classes):
        overall = "violation"
    elif all(cl.verdict in ("no-members", "too-few-returns", "unresolved") for cl in classes):
        overall = "too-few-returns"
    precision = some_model.ctx.precision
    return GapReport(prime, c, tuple(classes), (), prefix, uncovered, precision // c, overall)


def classify_gap_sequence(members, growth: Fraction, offset: int = 0) -> list[bool]:
    """Verdicts for consecutive pairs against gap >= growth^(n_j - offset), exact."""
    growth = Fraction(growth)
    return [
        Fraction(n2 - n1) >= growth ** (n1 - offset) for n1, n2 in zip(members, members[1:])
    ]


class DirectModel(LocalModel):
    """A local model whose chart is the identity: no recentering or scaling."""

    def transport_poly(self, q):
        return q


def direct_model(mapping, base_point, p: int, precision: int) -> DirectModel:
    """A model taken as-is in ambient coordinates (identity chart).

    For maps that already satisfy the interpolation congruence: the linear
    part must be idempotent mod p and every other coefficient divisible by p.
    No recentering or scaling is applied, and no claim is made about the base
    point lying in the maximal ideal; these models feed the interpolation and
    zero-localization layers directly.  There is no orbit walk of an original
    map, so the model points are iterates of the map, as many as the walk
    stores: F^0(a'), ..., F^K(a') when the linear part is the identity, and
    up to F^(2K)(a') otherwise.
    """
    ctx = PadicContext(p, precision)
    for poly in mapping.polys:
        for c in poly.values():
            if frac_valuation(c, p) < 0:
                raise InputError("direct model coefficients must be integral at p")
    a_bar = _linear_part_mod(mapping, p)
    if mat_mul(a_bar, a_bar, p) != a_bar:
        raise HypothesisViolation(
            "direct model linear part is not idempotent mod p; use the full pipeline"
        )
    linear = hensel_idempotent(a_bar, p, precision)
    f_mod = ModularMap.from_map(mapping, ctx.modulus)
    _, c = _rotation_series((f_mod,), 1, {0: linear}, ctx)[0]
    if c < 1:
        raise HypothesisViolation("direct model congruence exponent < 1")
    dims = range(mapping.nvars)
    identity = tuple(tuple(int(i == j) for j in dims) for i in dims)
    points = [tuple(ctx.scalar(x) for x in base_point)]
    for _ in range(precision if linear == identity else 2 * precision):
        points.append(f_mod(points[-1]))
    return DirectModel(
        ctx=ctx,
        chart_mods=(f_mod,),
        steps_per_iterate=1,
        points=tuple(points),
        linear=linear,
        congruence_exponent=c,
        center=(0,) * mapping.nvars,
        m0=0,
        k1=1,
        shift=0,
    )


def mahler_evaluate_reference(series, row) -> tuple[int, ...]:
    """Sum of coeffs[k] * row[k], term by term; a row of the wrong length raises."""
    acc = [0] * series.dim
    for b, cv in zip(row, series.coeffs, strict=True):
        for i, c in enumerate(cv):
            acc[i] += b * c
    return tuple(a % series.ctx.modulus for a in acc)


def forward_differences_reference(values, mod: int) -> list[tuple[int, ...]]:
    """Iterated forward differences at 0, one residue vector at a time."""
    out = [tuple(values[0])]
    row = list(values)
    while len(row) > 1:
        row = [tuple((y - x) % mod for x, y in zip(a, b)) for a, b in zip(row, row[1:])]
        out.append(row[0])
    return out


def mahler_from_values(ctx: PadicContext, values) -> MahlerSeries:
    """The Mahler series through values at 0, 1, ...: their forward differences at 0."""
    return MahlerSeries(ctx, tuple(forward_differences_reference(values, ctx.modulus)))


def mahler_value(series, n: int) -> tuple[int, ...]:
    """A Mahler series at the integer n, with the binomial row of n's residue mod p^K."""
    return series.evaluate(binomial_row(series.ctx, n % series.ctx.modulus, series.terms - 1))


def interpolant_value(interp, n: int) -> tuple[int, ...]:
    """G(n): the interpolant evaluated alone, with its own binomial row."""
    return mahler_value(interp.series, n)


def series_from_ints(ctx: PadicContext, nvars: int, items) -> TruncatedSeries:
    """An exact TruncatedSeries from integer coefficients keyed by exponent."""
    coeffs = {tuple(e): c % ctx.modulus for e, c in dict(items).items()}
    return TruncatedSeries(ctx, nvars, {e: r for e, r in coeffs.items() if r})


def materialize_series(charts, steps: int, ctx: PadicContext) -> tuple[TruncatedSeries, ...]:
    """The chart chain composed one chart at a time, steps times, mod p^K."""
    n = charts[0].nvars
    chart_series = [
        [TruncatedSeries(ctx, n, reduce_poly(poly, ctx.modulus)) for poly in g.polys]
        for g in charts
    ]
    units = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    running = [series_from_ints(ctx, n, {e: 1}) for e in units]
    for _ in range(steps):
        for g_series in chart_series:
            running = [s.compose(running) for s in g_series]
    return tuple(running)


def model_series_reference(
    charts, steps: int, linear: Matrix, ctx: PadicContext
) -> tuple[tuple[TruncatedSeries, ...], int]:
    """(series, c) of one rotation, its own chain composed step by step at each
    precision P = 2, 4, ... (capped at K) until c < P or P = K."""
    prec = min(2, ctx.precision)
    while True:
        pctx = PadicContext(ctx.prime, prec)
        series = materialize_series(charts, steps, pctx)
        c = series_congruence_exponent(series, mat_reduce(linear, pctx.modulus), pctx)
        if c < prec or prec == ctx.precision:
            return series, c
        prec = min(2 * prec, ctx.precision)


def apply_reference(model, point: tuple[int, ...]) -> tuple[int, ...]:
    """One model iterate of one point, one chart map call at a time."""
    for _ in range(model.steps_per_iterate):
        for g in model.chart_mods:
            point = g(point)
    return point


def model_points_by_apply(model, count: int) -> list[tuple[int, ...]]:
    """F^0(a'), ..., F^(count-1)(a') by iterating the model map from the base point."""
    out = [model.base_point]
    for _ in range(count - 1):
        out.append(apply_reference(model, out[-1]))
    return out


def model_series(model) -> tuple[TruncatedSeries, ...]:
    """The model map mod p^P that normalization reads c off: the model's
    rotation s = shift mod k1 of the family's chart chain G_0, ..., G_{k1-1}
    (whose rotation s is the model's chart_mods), at the precision P where
    the doubling of _rotation_series stopped."""
    s, k1 = model.shift % model.k1, model.k1
    charts = model.chart_mods[k1 - s:] + model.chart_mods[:k1 - s]
    return _rotation_series(charts, model.steps_per_iterate, {s: model.linear}, model.ctx)[s][0]


def window_interpolant(model) -> ApproxInterpolant:
    """G through the window points F^0(a'), ..., F^K(a'), with no check at all
    (its decay profile is left empty): what build_interpolant certifies."""
    K = model.ctx.precision
    series = mahler_from_values(model.ctx, model.points[:K + 1])
    return ApproxInterpolant(model, series, model.congruence_exponent, K, ())


def verify_error_bound_reference(interp) -> int | None:
    """The first orbit index n <= 2K with v(G(n) - F^n(a')) < min(n*c, K),
    each G(n) evaluated alone and the model map iterated from the base point
    (None when every n passes)."""
    model, c = interp.model, interp.congruence_exponent
    prec = model.ctx.precision
    points = model_points_by_apply(model, 2 * prec + 1)
    return next(
        (n for n, pt in enumerate(points)
         if margin(interpolant_value(interp, n), pt, model.ctx) < min(n * c, prec)),
        None,
    )


def verify_compatibility_reference(interp, args) -> int | None:
    """The first of the integers args at which F(G(x)) and G(x + 1) differ
    mod p^K, each evaluated alone (G at the residue of x + 1 mod p^K); None
    when they agree at all of them."""
    model = interp.model
    return next(
        (x for x in args
         if apply_reference(model, interpolant_value(interp, x))
         != interpolant_value(interp, x + 1)),
        None,
    )


#: x^2 - 2 from 5, V: x = 23, at the prime range and precision of the
#: family-p29 bench workload: at p = 29 the orbit's cycle is 5 -> 23 -> 5,
#: and 7 of its 14 shifts lie over 23.
FAMILY_P29 = {
    "dimension": 1,
    "map": [[[[2], 1], [[0], -2]]],
    "initial_point": [5],
    "variety": [[[[1], 1], [[0], -23]]],
    "parameters": {"prime_range": [29, 50], "precision": 32, "n_max": 1000},
}

#: (2 - y + 3x^2 + xy - 2y^2, -2 + y - x^2 - 3xy - 2y^2) from (-2, -1), V:
#: x + 2 = 0: at p = 3 no model has E = I, and the run passes its 2K bound table;
#: 3 of its 9 shifts, 2, 5 and 8, lie on V mod 3.
MIXED_RANK = {
    "dimension": 2,
    "map": [
        [[[0, 0], 2], [[0, 1], -1], [[2, 0], 3], [[1, 1], 1], [[0, 2], -2]],
        [[[0, 0], -2], [[0, 1], 1], [[2, 0], -1], [[1, 1], -3], [[0, 2], -2]],
    ],
    "initial_point": [-2, -1],
    "variety": [[[[1, 0], 1], [[0, 0], 2]]],
    "parameters": {"prime_range": [3, 30], "precision": 16, "n_max": 200, "screen_primes": 4},
}
