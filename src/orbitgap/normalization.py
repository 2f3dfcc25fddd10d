"""Conjugation of a polynomial self-map into a normalized local model.

Near a residue disk that the orbit eventually cycles through, the map is
rewritten in chart coordinates T(x) = eta + p*x.  One chart step is

    G_j(x) = (f(eta_j + p*x) - eta_{j+1}) / p

where eta_0, ..., eta_{k1-1} are the lifts of the mod-p^2 cycle the orbit
enters.  Every G_j has p-integral coefficients, constant term of valuation
>= 1, and degree-d coefficients of valuation >= d-1; the same holds for any
composition of chart steps.  Each G_j is built as f(eta_j + p*x) - eta_{j+1}
mod p^(K+1), divided by p, and held mod p^K, the only ring the models use.

A family of models is one such cycle and one chart chain G_0, ..., G_{k1-1},
each built once: the model of shift r is the rotation of the chain that
starts at G_{r mod k1}, one per residue class of the iterate index.  One
walk of f mod p^2 finds the cycle, and one walk of f mod p^(K+1) gives every
model its orbit points: model point n of shift r is the chart image of the
orbit point m0 + r + n*k_total.

A further iterate replacement makes the linear part idempotent mod p, after
which the model satisfies the congruence F(x) = E*x mod p^c with an exactly
idempotent matrix E (Hensel-lifted at working precision) and c >= 1.
Only the level c is needed, and reduction mod p^P is a ring map on
p-integral coefficients, so the chain composed mod p^P gives min(c, P).
The model map is composed at P = 2, 4, 8, ... (capped at the working
precision K) until c < P or P = K; mod p^P its total degree is at most P.
Rotation s is the head G_{s-1} o ... o G_0 after the tail
G_{k1-1} o ... o G_s, and each head and tail is composed once per P.
"""

import math
from itertools import islice
from typing import NamedTuple

from .errors import BudgetExceeded, HypothesisViolation, InvariantViolation
from .modmat import Matrix, mat_identity, mat_mul, mat_pow, mat_reduce
from .padic import PadicContext, TruncatedSeries, int_valuation
from .polynomials import ModularMap, Poly, PolyMap, reduce_poly, reduce_rational
from .problemfile import ProblemInstance
from .reduction import exact_orbit, orbit_summary

#: Abort threshold for the combined iterate replacement, and so for the
#: length k1 of the mod-p^2 cycle.
K_TOTAL_CAP = 10_000

#: Largest tail plus cycle of the orbit mod p^2 that stabilize_orbit walks.
STABILIZE_GUARD = 1 << 22

#: Largest stride whose residue classes all get a model; beyond it only the
#: class through the stabilized point is analyzed.
SHIFT_CAP = 16

#: Depth and bit budget of the non-preperiodicity heuristic.
PREPERIODIC_DEPTH = 32
PREPERIODIC_BIT_BUDGET = 1 << 14


def stabilize_orbit(inst: ProblemInstance, p: int) -> tuple[int, int, list]:
    """(k, m0, cycle): the smallest k and m0 such that the residue of f^m0(a)
    mod p^2 is fixed by f^k mod p^2, and that residue's cycle, lifted in
    [0, p^2).

    Raises BudgetExceeded when the tail plus the cycle exceeds
    STABILIZE_GUARD.  Brent's search closes a cycle by index
    3 * (tail + cycle) - 2, so it is cut at 3 * STABILIZE_GUARD and costs
    O(STABILIZE_GUARD) map evaluations whatever the orbit.
    """
    f2 = ModularMap.from_map(inst.mapping, p * p)
    a2 = tuple(reduce_rational(x, p * p) for x in inst.initial_point)
    summary = orbit_summary(f2, a2, limit=3 * STABILIZE_GUARD)
    if summary is None or summary.tail + summary.cycle > STABILIZE_GUARD:
        raise BudgetExceeded("orbit mod p^2 exceeds the enumeration guard")
    cycle = [summary.entry]
    for _ in range(summary.cycle - 1):
        cycle.append(f2(cycle[-1]))
    return summary.cycle, summary.tail, cycle


def _iterate_power(chains: list[Matrix], p: int) -> int:
    """Least k >= 1 with A^(2k) = A^k mod p for every A in chains.

    A^k is idempotent exactly when k is at least the index where the power
    sequence of A enters its cycle and a multiple of the cycle's period.
    That sequence is the forward orbit of A under M -> M*A mod p, whose
    point of index n is A^(n+1).
    """
    enter, period = 1, 1
    for a in chains:
        a_bar = mat_reduce(a, p)
        summary = orbit_summary(lambda m: mat_mul(m, a_bar, p), a_bar)
        enter, period = max(enter, summary.tail + 1), math.lcm(period, summary.cycle)
    return period * math.ceil(enter / period)


def hensel_idempotent(a_bar: Matrix, p: int, precision: int) -> Matrix:
    """Lift an idempotent mod p to an exactly idempotent matrix mod p^K.

    Newton step E <- 3E^2 - 2E^3 squares the defect E^2 - E, so log2(K)+1
    rounds suffice.
    """
    mod = p**precision
    e = mat_reduce(a_bar, mod)
    for _ in range(precision.bit_length() + 1):
        e2 = mat_mul(e, e, mod)
        if e2 == e:
            return e
        e3 = mat_mul(e2, e, mod)
        e = tuple(
            tuple((3 * e2[i][j] - 2 * e3[i][j]) % mod for j in range(len(e)))
            for i in range(len(e))
        )
    if mat_mul(e, e, mod) != e:
        raise InvariantViolation("idempotent lift failed to converge")
    return e


class LocalModel(NamedTuple):
    """The normalized local model of the map near the stabilized orbit disk.

    One model iterate applies the chart chain steps_per_iterate times; model
    iterate n corresponds to the original index m0 + shift + n * k_total.
    points holds F^0(a'), F^1(a'), ... as residues mod p^K: the
    interpolant's fitting window [0, K] and, unless E is the identity, the
    indices K + 1, ..., 2K at which the approximation bound is checked.
    """

    ctx: PadicContext
    # chart steps G_s, G_{s+1}, ... mod p^K in application order, shared by a family
    chart_mods: tuple[ModularMap, ...]
    steps_per_iterate: int  # chart-chain repetitions per model iterate (k2)
    points: tuple[tuple[int, ...], ...]  # see above
    linear: Matrix  # exactly idempotent mod p^K, congruent to the linear part mod p
    congruence_exponent: int
    center: tuple[int, ...]  # eta for this shift, lifted in [0, p^2)
    m0: int
    k1: int
    shift: int

    @property
    def prime(self) -> int:
        return self.ctx.prime

    @property
    def base_point(self) -> tuple[int, ...]:
        """a' = F^0(a')."""
        return self.points[0]

    @property
    def k_total(self) -> int:
        return self.k1 * self.steps_per_iterate

    def original_index(self, n: int) -> int:
        return self.m0 + self.shift + n * self.k_total

    def apply(self, point: tuple[int, ...]) -> tuple[int, ...]:
        """One model iterate of one point."""
        for _ in range(self.steps_per_iterate):
            for g in self.chart_mods:
                point = g(point)
        return point

    def transport_poly(self, q: Poly) -> dict:
        """A polynomial on original coordinates, rewritten on chart coordinates mod p^K."""
        return _in_chart([q], self.center, self.ctx)[0].coeffs


def lemma_applies(linear: Matrix) -> bool:
    """Whether E is the identity, where the congruence lemma proves the interpolation."""
    return linear == mat_identity(len(linear))


def ensure_not_preperiodic(inst: ProblemInstance) -> int:
    """Heuristic non-preperiodicity check: the first PREPERIODIC_DEPTH exact
    orbit points must stay distinct.

    Returns the depth actually verified (iteration stops early once
    coordinate sizes exceed PREPERIODIC_BIT_BUDGET, after which a recurrence
    is no longer plausible at desk scale).
    """
    seen = set()
    for pt in islice(exact_orbit(inst, PREPERIODIC_BIT_BUDGET), PREPERIODIC_DEPTH):
        if pt in seen:
            raise HypothesisViolation(
                f"initial point is preperiodic (orbit repeats by iterate {len(seen)})"
            )
        seen.add(pt)
    return len(seen)


def _in_chart(polys, eta, ctx: PadicContext) -> list[TruncatedSeries]:
    """Each polynomial composed with the chart x -> eta + p*x, mod p^K of ctx."""
    n, mod = len(eta), ctx.modulus
    zero = (0,) * n
    args = []
    for i, e in enumerate(eta):
        unit = tuple(int(j == i) for j in range(n))
        coeffs = {zero: e % mod, unit: ctx.prime % mod}
        args.append(TruncatedSeries(ctx, n, {k: r for k, r in coeffs.items() if r}))
    return [TruncatedSeries(ctx, n, reduce_poly(q, mod)).compose(args) for q in polys]


def _chart_step(f: PolyMap, eta, eta_next, ctx: PadicContext) -> ModularMap:
    """G(x) = (f(eta + p*x) - eta_next)/p mod p^K.

    f(eta + p*x) - eta_next is composed mod p^(K+1), where every coefficient
    must be divisible by p; the quotients are G mod p^K.
    """
    p, zero = ctx.prime, (0,) * f.nvars
    ctx1 = PadicContext(p, ctx.precision + 1)
    polys = []
    for series, e in zip(_in_chart(f.polys, eta, ctx1), eta_next):
        coeffs = dict(series.coeffs)
        coeffs[zero] = (coeffs.get(zero, 0) - e) % ctx1.modulus
        if any(r % p for r in coeffs.values()):
            raise InvariantViolation(
                "normalization/translate-scale: chart step left the integer ring; "
                "the center was not on the mod-p^2 cycle"
            )
        polys.append({exp: r // p for exp, r in coeffs.items() if r})
    return ModularMap(ctx.modulus, f.nvars, tuple(polys))


def _linear_part_mod(f: PolyMap | ModularMap, m: int) -> Matrix:
    units = [tuple(int(k == j) for k in range(f.nvars)) for j in range(f.nvars)]
    return tuple(tuple(reduce_rational(q.get(e, 0), m) for e in units) for q in f.polys)


def series_congruence_exponent(
    series, linear: Matrix, ctx: PadicContext
) -> int:
    """Largest integer c (capped at the series precision) with F - E*x = 0 mod p^c."""
    n = len(series)
    c = ctx.precision
    for i in range(n):
        coeffs = dict(series[i].coeffs)
        for j in range(n):
            exp = tuple(int(k == j) for k in range(n))
            coeffs[exp] = (coeffs.get(exp, 0) - linear[i][j]) % ctx.modulus
        c = min(c, *(int_valuation(r, ctx.prime) for r in coeffs.values()))
    return c


def _rotation_series(
    charts, k2: int, linears: dict[int, Matrix], ctx: PadicContext
) -> dict[int, tuple[tuple[TruncatedSeries, ...], int]]:
    """(series, c) of each rotation s in linears, where the doubling of P leaves it.

    Rotation s is the head G_{s-1} o ... o G_0 after the tail
    G_{k1-1} o ... o G_s, iterated k2 times; heads and tails are composed
    once per P for all rotations.  Residues are exact mod p^P, so only the
    precision bounds, which no verdict reads, differ from the chain composed
    chart by chart.  Each rotation stops at c < P or P = K.
    """
    n, k1 = charts[0].nvars, len(charts)
    done: dict[int, tuple] = {}
    prec = min(2, ctx.precision)
    while len(done) < len(linears):
        pctx = PadicContext(ctx.prime, prec)
        mod = pctx.modulus
        g = [[TruncatedSeries(pctx, n, reduce_poly(q, mod)) for q in gj.polys] for gj in charts]
        open_ = [s for s in linears if s not in done]
        tails, heads = {k1 - 1: g[k1 - 1]}, {1: g[0]}
        for s in range(k1 - 2, min(open_) - 1, -1):
            tails[s] = [t.compose(g[s]) for t in tails[s + 1]]
        for s in range(2, max(open_) + 1):
            heads[s] = [h.compose(heads[s - 1]) for h in g[s - 1]]
        for s in open_:
            series = step = tails[s] if s == 0 else [h.compose(tails[s]) for h in heads[s]]
            for _ in range(k2 - 1):
                series = [q.compose(series) for q in step]
            c = series_congruence_exponent(series, mat_reduce(linears[s], mod), pctx)
            if c < prec or prec == ctx.precision:
                done[s] = tuple(series), c
        prec = min(2 * prec, ctx.precision)
    return done


class _ChartChain(NamedTuple):
    """The mod-p^2 cycle the orbit enters and one chart step per cycle point.

    Rotation s of the chain applies G_s, ..., G_{k1-1}, G_0, ..., G_{s-1}.
    """

    k1: int
    m0: int
    cycle: list  # eta_0, ..., eta_{k1-1}, lifted in [0, p^2)
    charts: tuple[ModularMap, ...]  # G_j mod p^K: the disk of eta_j to that of eta_{j+1}
    chains: tuple[Matrix, ...]  # linear part mod p of each rotation


def _chart_chain(inst: ProblemInstance, ctx: PadicContext) -> _ChartChain:
    p = ctx.prime
    k1, m0, cycle_pts = stabilize_orbit(inst, p)
    if k1 > K_TOTAL_CAP:
        # k_total = k1 * k2 >= k1 would exceed the cap: refuse before any chart step
        raise BudgetExceeded(f"mod-p^2 cycle length k1 = {k1} exceeds the cap {K_TOTAL_CAP}")
    charts = tuple(
        _chart_step(inst.mapping, cycle_pts[j], cycle_pts[(j + 1) % k1], ctx)
        for j in range(k1)
    )
    # rotation s has linear part (L_{s-1} ... L_0)(L_{k1-1} ... L_s)
    linears = [_linear_part_mod(g, p) for g in charts]
    suffixes = [mat_identity(inst.dimension)]
    for a in reversed(linears):
        suffixes.append(mat_mul(suffixes[-1], a, p))
    suffixes.reverse()
    chains, prefix = [], mat_identity(inst.dimension)
    for s in range(k1):
        chains.append(mat_mul(prefix, suffixes[s], p))
        prefix = mat_mul(linears[s], prefix, p)
    return _ChartChain(k1, m0, cycle_pts, charts, tuple(chains))


def _model_points(
    inst: ProblemInstance, chain: _ChartChain, ctx: PadicContext, k_total: int, shifts,
    count: int,
) -> dict[int, tuple]:
    """Each shift's model points F^0(a'), ..., F^(count-1)(a'), from one walk of f mod p^(K+1).

    Model point n of shift r is the chart image (y - eta)/p of the orbit
    point y of original index m0 + r + n * k_total; one digit above the
    working precision makes the image exact mod p^K.  The walk keeps only
    those points, so memory is O(len(shifts) * K) whatever the stride.
    """
    p = ctx.prime
    mod1 = ctx.modulus * p
    f_mod1 = ModularMap.from_map(inst.mapping, mod1)
    a_start = tuple(reduce_rational(x, mod1) for x in inst.initial_point)
    point, index = f_mod1.iterate(a_start, chain.m0), 0
    points: dict[int, list] = {r: [] for r in shifts}
    for n in range(count):
        for r in shifts:
            point, index = f_mod1.iterate(point, n * k_total + r - index), n * k_total + r
            coords = []
            for e, y in zip(chain.cycle[r % chain.k1], point):
                d = (y - e) % mod1
                if d % p:
                    raise InvariantViolation(
                        f"normalization/walk: orbit point {chain.m0 + index} left its residue disk"
                    )
                coords.append(d // p)
            points[r].append(tuple(coords))
    return {r: tuple(pts) for r, pts in points.items()}


def _models(
    inst: ProblemInstance, chain: _ChartChain, ctx: PadicContext, k2: int, shifts
) -> list[LocalModel]:
    """The models of the given increasing shifts, all with iterate power k2.

    Each rotation in use gets its idempotent lift and series once, and one
    walk mod p^(K+1) gives every model its points: 2K + 1, or K + 1 when E is
    the identity (in every rotation or in none: a chain that is I mod p
    makes every chart's linear part invertible).
    """
    p, k1 = ctx.prime, chain.k1
    if k1 * k2 > K_TOTAL_CAP:
        raise BudgetExceeded(
            f"combined iterate replacement k1*k2 = {k1 * k2} exceeds the cap {K_TOTAL_CAP}"
        )
    linears = {
        s: hensel_idempotent(mat_pow(chain.chains[s], k2, p), p, ctx.precision)
        for s in dict.fromkeys(shift % k1 for shift in shifts)
    }
    span = 1 if all(map(lemma_applies, linears.values())) else 2
    points = _model_points(inst, chain, ctx, k1 * k2, shifts, span * ctx.precision + 1)
    rotations = _rotation_series(chain.charts, k2, linears, ctx)
    models = []
    for shift in shifts:
        if any(x % p for x in points[shift][0]):
            raise InvariantViolation(
                "normalization/base-point: coordinates are not in the maximal ideal"
            )
        s = shift % k1
        center = chain.cycle[s]
        series, c = rotations[s]
        if c < 1:
            # charts are linear mod p (constant term 0, degree-d coefficients
            # divisible by p^(d-1)) and E = chain^k2 mod p, so F = E*x mod p
            raise InvariantViolation(
                "normalization/congruence: model map is not linear mod p; c < 1"
            )
        models.append(
            LocalModel(
                ctx=ctx,
                chart_mods=chain.charts[s:] + chain.charts[:s],
                steps_per_iterate=k2,
                points=points[shift],
                linear=linears[s],
                congruence_exponent=c,
                center=center,
                m0=chain.m0,
                k1=k1,
                shift=shift,
            )
        )
    return models


def build_model_family(inst: ProblemInstance, p: int, precision: int) -> list[LocalModel]:
    """Models covering every residue class of original indices >= m0 mod k_total.

    The family is one mod-p^2 cycle and one chart chain; its models are the
    rotations of that chain.  The iterate power is the least one that makes
    every rotation idempotent, so the whole family shares one stride.  When
    the stride exceeds SHIFT_CAP only the class through the stabilized point
    is returned; the caller must record the reduced coverage.  The caller
    has checked the orbit with ensure_not_preperiodic.
    """
    ctx = PadicContext(p, precision)
    chain = _chart_chain(inst, ctx)
    k2 = _iterate_power(chain.chains, p)
    k_total = chain.k1 * k2
    return _models(inst, chain, ctx, k2, [0] if k_total > SHIFT_CAP else range(k_total))
