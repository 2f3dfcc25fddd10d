"""Conjugation of a polynomial self-map into a normalized local model.

Near a residue disk that the orbit eventually cycles through, the map is
rewritten in chart coordinates T(x) = eta + p*x.  One chart step is

    G_j(x) = (f(eta_j + p*x) - eta_{j+1}) / p

where eta_0, ..., eta_{k1-1} are the lifts of the mod-p^2 cycle the orbit
enters.  Every G_j has p-integral coefficients, constant term of valuation
>= 1, and degree-d coefficients of valuation >= d-1; the same holds for any
composition of chart steps.

A further iterate replacement makes the linear part idempotent mod p, after
which the model satisfies the congruence F(x) = E*x mod p^c with an exactly
idempotent matrix E (Hensel-lifted at working precision) and c >= 1.
Only the level c is needed, and reduction mod p^P is a ring map on
p-integral coefficients, so the chain composed mod p^P gives min(c, P).
The model map is composed at P = 2, 4, 8, ... (capped at the working
precision K) until c < P or P = K; mod p^P its total degree is at most P.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import BudgetExceeded, HypothesisViolation, InputError
from .modmat import Matrix, mat_identity, mat_mul, mat_pow, mat_reduce
from .padic import PadicContext, TruncatedSeries, int_valuation, sup_valuation
from .polynomials import (
    ModularMap,
    Poly,
    PolyMap,
    make_const,
    make_var,
    poly_add,
    poly_compose,
    poly_scale,
    reduce_poly,
)
from .reduction import ProblemInstance, orbit_summary, reduce_rational

#: Abort threshold for the combined iterate replacement.
K_TOTAL_CAP = 10_000

#: Depth and bit budget of the non-preperiodicity heuristic.
PREPERIODIC_DEPTH = 32
PREPERIODIC_BIT_BUDGET = 1 << 14


def stabilize_orbit(inst: ProblemInstance, p: int, guard: int = 1 << 22) -> tuple[int, int]:
    """Smallest (k, m0): the residue of f^m0(a) mod p^2 is fixed by f^k mod p^2.

    Raises BudgetExceeded when the tail plus the cycle exceeds guard.  Brent's
    search closes a cycle by index 3 * (tail + cycle) - 2, so it is cut at
    3 * guard and costs O(guard) map evaluations whatever the orbit.
    """
    f2 = ModularMap.from_map(inst.mapping, p * p)
    a2 = tuple(reduce_rational(x, p * p) for x in inst.initial_point)
    summary = orbit_summary(f2, a2, limit=3 * guard)
    if summary is None or summary.tail + summary.cycle > guard:
        raise BudgetExceeded("orbit mod p^2 exceeds the enumeration guard")
    return summary.cycle, summary.tail


def _frac_valuation(c: Fraction, p: int) -> int | float:
    c = Fraction(c)
    return int_valuation(c.numerator, p) - int_valuation(c.denominator, p)


@dataclass(frozen=True)
class IdempotentCertificate:
    """k with A^(2k) = A^k mod p, i.e. the linear part of the k-th iterate is idempotent."""

    power: int
    matrix: Matrix
    prime: int

    def verify(self) -> bool:
        return mat_mul(self.matrix, self.matrix, self.prime) == self.matrix


def idempotent_power(a: Matrix, p: int) -> IdempotentCertificate:
    """Least k >= 1 with A^(2k) = A^k mod p, by cycle detection on the power sequence."""
    enter, period = _power_cycle(a, p)
    k = period * math.ceil(enter / period)
    power = mat_identity(len(a))
    for _ in range(k):
        power = mat_mul(power, a, p)
    cert = IdempotentCertificate(k, power, p)
    assert cert.verify(), "idempotent power certificate failed its one-multiplication check"
    return cert


def _power_cycle(a: Matrix, p: int) -> tuple[int, int]:
    """(enter, period): A^k is in the cycle of its power sequence iff k >= enter."""
    seen: dict[Matrix, int] = {}
    cur = mat_reduce(a, p)
    k = 1
    while cur not in seen:
        seen[cur] = k
        cur = mat_mul(cur, mat_reduce(a, p), p)
        k += 1
    first = seen[cur]
    return first, k - first


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
        raise AssertionError("idempotent lift failed to converge")
    return e


@dataclass(frozen=True)
class TransformRecord:
    kind: str  # "forward" | "iterate" | "translate" | "scale"
    data: tuple


@dataclass(frozen=True)
class LocalModel:
    """The normalized local model of the map near the stabilized orbit disk.

    One model iterate applies the chart chain steps_per_iterate times; model
    iterate n corresponds to the original index m0 + shift + n * k_total.
    series is the model map mod p^P at the precision P where the doubling
    of _model_series stopped: P = K, or P > congruence_exponent.
    """

    ctx: PadicContext
    dimension: int
    charts: tuple[PolyMap, ...]  # chart steps G_s, G_{s+1}, ... in application order
    steps_per_iterate: int  # chart-chain repetitions per model iterate (k2)
    series: tuple[TruncatedSeries, ...]  # model map mod p^P (see above)
    base_point: tuple[int, ...]  # residues mod p^K
    linear: Matrix  # exactly idempotent mod p^K, congruent to the linear part mod p
    congruence_exponent: int
    center: tuple[int, ...]  # eta for this shift, lifted in [0, p^2)
    m0: int
    k1: int
    shift: int
    transform_log: tuple[TransformRecord, ...]
    direct: bool = False  # ambient-coordinate model: identity chart, no recentering
    # lazily filled holder for the mod-p^K chart evaluators (not part of identity)
    _chart_mods_holder: list = field(default_factory=list, repr=False, compare=False)

    @property
    def prime(self) -> int:
        return self.ctx.prime

    @property
    def k_total(self) -> int:
        return self.k1 * self.steps_per_iterate

    def original_index(self, n: int) -> int:
        return self.m0 + self.shift + n * self.k_total

    def _chart_mods(self) -> tuple[ModularMap, ...]:
        if not self._chart_mods_holder:
            self._chart_mods_holder.append(
                tuple(ModularMap.from_map(g, self.ctx.modulus) for g in self.charts)
            )
        return self._chart_mods_holder[0]

    def apply(self, point: tuple[int, ...]) -> tuple[int, ...]:
        """One model iterate (the full chart chain, steps_per_iterate times)."""
        mods = self._chart_mods()
        for _ in range(self.steps_per_iterate):
            for g in mods:
                point = g(point)
        return point

    def orbit(self, count: int) -> list[tuple[int, ...]]:
        """Model orbit F^0(a'), ..., F^(count-1)(a')."""
        out = [self.base_point]
        for _ in range(count - 1):
            out.append(self.apply(out[-1]))
        return out

    def to_original(self, point: tuple[int, ...]) -> tuple[int, ...]:
        """T(x) = eta + p*x, one digit above working precision."""
        if self.direct:
            return tuple(point)
        p, mod1 = self.prime, self.ctx.modulus * self.prime
        return tuple((e + p * c) % mod1 for e, c in zip(self.center, point))

    def from_original(self, point: tuple[int, ...]) -> tuple[int, ...]:
        """T^-1(y) = (y - eta)/p; needs y mod p^(K+1), y = eta mod p."""
        if self.direct:
            return tuple(self.ctx.scalar(y) for y in point)
        p, mod1 = self.prime, self.ctx.modulus * self.prime
        coords = []
        for e, y in zip(self.center, point):
            d = (y - e) % mod1
            if d % p:
                raise InputError("point is not in the chart disk")
            coords.append(d // p)
        return tuple(coords)

    def transport_poly(self, q: Poly) -> Poly:
        """A polynomial on original coordinates, rewritten on chart coordinates."""
        if self.direct:
            return q
        args = [
            poly_add(
                poly_scale(make_var(self.dimension, i), self.prime),
                make_const(self.dimension, self.center[i]),
            )
            for i in range(self.dimension)
        ]
        return poly_compose(q, args)


def ensure_not_preperiodic(
    inst: ProblemInstance,
    depth: int = PREPERIODIC_DEPTH,
    bit_budget: int = PREPERIODIC_BIT_BUDGET,
) -> int:
    """Heuristic non-preperiodicity check: exact orbit points must stay distinct.

    Returns the depth actually verified (iteration stops early once
    coordinate sizes exceed the bit budget, after which a recurrence is no
    longer plausible at desk scale).
    """
    seen = set()
    pt = tuple(Fraction(x) for x in inst.initial_point)
    for i in range(depth):
        if pt in seen:
            raise HypothesisViolation(
                f"initial point is preperiodic (orbit repeats by iterate {i})"
            )
        seen.add(pt)
        if any(
            x.numerator.bit_length() + x.denominator.bit_length() > bit_budget for x in pt
        ):
            return i
        pt = inst.mapping.evaluate(pt)
    return depth


def _chart_step(f: PolyMap, eta, eta_next, p: int) -> PolyMap:
    """G(x) = (f(eta + p*x) - eta_next)/p, exact over the rationals."""
    n = f.nvars
    args = [
        poly_add(poly_scale(make_var(n, i), p), make_const(n, eta[i])) for i in range(n)
    ]
    polys = []
    for i, poly in enumerate(f.polys):
        g = poly_compose(poly, args)
        g = poly_add(g, make_const(n, -Fraction(eta_next[i])))
        g = poly_scale(g, Fraction(1, p))
        for e, c in g.items():
            if _frac_valuation(c, p) < 0:
                raise InputError(
                    "chart step left the integer ring; the center was not on the mod-p^2 cycle"
                )
        polys.append(g)
    return PolyMap(n, tuple(polys))


def _linear_part_mod(f: PolyMap, m: int) -> Matrix:
    n = f.nvars
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            exp = [0] * n
            exp[j] = 1
            row.append(reduce_rational(f.polys[i].get(tuple(exp), 0), m))
        rows.append(tuple(row))
    return tuple(rows)


def _materialize_series(
    charts, steps: int, ctx: PadicContext
) -> tuple[TruncatedSeries, ...]:
    """Compose the chart chain in truncated arithmetic.

    Sound at the context precision: dropped coefficients are exactly the ones
    congruent to 0 mod p^K, and chart compositions keep degree-d coefficient
    valuations >= d-1, so the total degree self-truncates at K.
    """
    n = charts[0].nvars
    chart_series = [
        [TruncatedSeries(ctx, n, reduce_poly(poly, ctx.modulus)) for poly in g.polys]
        for g in charts
    ]
    running = [TruncatedSeries.variable(ctx, n, i) for i in range(n)]
    for _ in range(steps):
        for g_series in chart_series:
            running = [s.compose(running) for s in g_series]
    return tuple(running)


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


def _model_series(
    charts, steps: int, linear: Matrix, ctx: PadicContext
) -> tuple[tuple[TruncatedSeries, ...], int]:
    """(series, c): the chain composed mod p^P and c = min(c_true, P).

    P starts at 2 and doubles, capped at the context precision K, until
    c < P or P = K; so c equals the exponent read at precision K.
    """
    prec = min(2, ctx.precision)
    while True:
        pctx = PadicContext(ctx.prime, prec)
        series = _materialize_series(charts, steps, pctx)
        c = series_congruence_exponent(series, mat_reduce(linear, pctx.modulus), pctx)
        if c < prec or prec == ctx.precision:
            return series, c
        prec = min(2 * prec, ctx.precision)


def _stabilized_cycle(inst: ProblemInstance, p: int):
    """(k1, m0, cycle_pts): the mod-p^2 cycle the orbit enters, lifted in [0, p^2)."""
    k1, m0 = stabilize_orbit(inst, p)
    p2 = p * p
    f2 = ModularMap.from_map(inst.mapping, p2)
    a2 = tuple(reduce_rational(x, p2) for x in inst.initial_point)
    eta = f2.iterate(a2, m0)
    cycle_pts = [eta]
    for _ in range(k1 - 1):
        cycle_pts.append(f2(cycle_pts[-1]))
    return k1, m0, cycle_pts


def build_local_model(
    inst: ProblemInstance,
    p: int,
    precision: int,
    shift: int = 0,
    steps_override: int | None = None,
    check_preperiodic: bool = True,
) -> LocalModel:
    """Run the full normalization pipeline at one prime for one shift class.

    Stages: orbit stabilization mod p^2, recentering translation, uniformizer
    scaling (fused into exact chart steps), and the final iterate replacement
    that makes the linear part idempotent mod p.  Every stage failure names
    the stage.  steps_override forces the iterate replacement power (used to
    share one power across all shift classes of a family).
    """
    ctx = PadicContext(p, precision)
    if check_preperiodic:
        ensure_not_preperiodic(inst)

    k1, m0, cycle_pts = _stabilized_cycle(inst, p)
    s = shift % k1
    try:
        charts = tuple(
            _chart_step(
                inst.mapping,
                cycle_pts[(s + j) % k1],
                cycle_pts[(s + j + 1) % k1],
                p,
            )
            for j in range(k1)
        )
    except InputError as exc:
        raise HypothesisViolation(f"normalization/translate-scale: {exc}") from exc

    # linear part of the chart chain and its idempotent power
    mod = ctx.modulus
    a_chain = mat_identity(inst.dimension)
    for g in charts:
        a_chain = mat_mul(_linear_part_mod(g, mod), a_chain, mod)
    if steps_override is None:
        cert = idempotent_power(mat_reduce(a_chain, p), p)
        k2 = cert.power
    else:
        k2 = steps_override
    if k1 * k2 > K_TOTAL_CAP:
        raise BudgetExceeded(
            f"combined iterate replacement k1*k2 = {k1 * k2} exceeds the cap {K_TOTAL_CAP}"
        )

    # exactly idempotent lift of the mod-p linear part of the model map
    a_model_bar = mat_pow(mat_reduce(a_chain, p), k2, p)
    if mat_mul(a_model_bar, a_model_bar, p) != a_model_bar:
        raise HypothesisViolation(
            "normalization/idempotent: forced iterate power does not make the linear part idempotent"
        )
    linear = hensel_idempotent(a_model_bar, p, precision)

    # base point: T^-1 of the stabilized orbit point, one digit above precision
    mod1 = mod * p
    f_mod1 = ModularMap.from_map(inst.mapping, mod1)
    a_start = tuple(reduce_rational(x, mod1) for x in inst.initial_point)
    a_stab = f_mod1.iterate(a_start, m0 + shift)
    center = cycle_pts[s]
    base_coords = []
    for e, y in zip(center, a_stab):
        d = (y - e) % mod1
        if d % p:
            raise HypothesisViolation(
                "normalization/base-point: stabilized point left its residue disk"
            )
        base_coords.append(d // p)
    base_point = tuple(base_coords)
    if sup_valuation(base_point, p) < 1:
        raise HypothesisViolation(
            "normalization/base-point: coordinates are not in the maximal ideal"
        )

    series, c = _model_series(charts, k2, linear, ctx)
    if c < 1:
        raise HypothesisViolation(
            "normalization/congruence: model map is not linear mod p; c < 1"
        )
    for i, srs in enumerate(series):
        if int_valuation(srs.constant_term(), p) < 1:
            raise HypothesisViolation(
                f"normalization/scale: constant term of coordinate {i} has valuation < 1"
            )

    log = (
        TransformRecord("forward", (m0 + shift,)),
        TransformRecord("iterate", (k1,)),
        TransformRecord("translate", tuple(center)),
        TransformRecord("scale", (p,)),
        TransformRecord("iterate", (k2,)),
    )
    return LocalModel(
        ctx=ctx,
        dimension=inst.dimension,
        charts=charts,
        steps_per_iterate=k2,
        series=series,
        base_point=base_point,
        linear=linear,
        congruence_exponent=c,
        center=center,
        m0=m0,
        k1=k1,
        shift=shift,
        transform_log=log,
    )


def build_model_family(
    inst: ProblemInstance,
    p: int,
    precision: int,
    shift_cap: int = 16,
) -> list[LocalModel]:
    """Models covering every residue class of original indices >= m0 mod k_total.

    The iterate power is the least one valid for every rotation of the chart
    chain so the whole family shares one stride.  When the stride exceeds
    shift_cap only the class through the stabilized point is returned; the
    caller must record the reduced coverage.
    """
    ensure_not_preperiodic(inst)
    k1, _, cycle_pts = _stabilized_cycle(inst, p)

    # chart linear parts around the cycle, then the least iterate power that
    # is an idempotent exponent for every rotation of the chain
    mod = p**precision
    chart_linears = [
        _linear_part_mod(
            _chart_step(inst.mapping, cycle_pts[j], cycle_pts[(j + 1) % k1], p), mod
        )
        for j in range(k1)
    ]
    enters, periods = [], []
    for s in range(k1):
        chain = mat_identity(inst.dimension)
        for j in range(k1):
            chain = mat_mul(chart_linears[(s + j) % k1], chain, mod)
        enter, period = _power_cycle(mat_reduce(chain, p), p)
        enters.append(enter)
        periods.append(period)
    period = math.lcm(*periods)
    k2 = period * math.ceil(max(enters) / period)

    k_total = k1 * k2
    shifts = [0] if k_total > shift_cap else list(range(k_total))
    return [
        build_local_model(inst, p, precision, shift=r, steps_override=k2, check_preperiodic=False)
        for r in shifts
    ]


def direct_model(mapping: PolyMap, base_point, p: int, precision: int) -> LocalModel:
    """A model taken as-is in ambient coordinates (identity chart).

    For maps that already satisfy the interpolation congruence: the linear
    part must be idempotent mod p and every other coefficient divisible by p.
    No recentering or scaling is applied, and no claim is made about the base
    point lying in the maximal ideal; these models feed the interpolation and
    zero-localization layers directly.
    """
    ctx = PadicContext(p, precision)
    for poly in mapping.polys:
        for c in poly.values():
            if _frac_valuation(c, p) < 0:
                raise InputError("direct model coefficients must be integral at p")
    a_bar = _linear_part_mod(mapping, p)
    if mat_mul(a_bar, a_bar, p) != a_bar:
        raise HypothesisViolation(
            "direct model linear part is not idempotent mod p; use the full pipeline"
        )
    linear = hensel_idempotent(a_bar, p, precision)
    series, c = _model_series((mapping,), 1, linear, ctx)
    if c < 1:
        raise HypothesisViolation("direct model congruence exponent < 1")
    return LocalModel(
        ctx=ctx,
        dimension=mapping.nvars,
        charts=(mapping,),
        steps_per_iterate=1,
        series=series,
        base_point=tuple(ctx.scalar(x) for x in base_point),
        linear=linear,
        congruence_exponent=c,
        center=(0,) * mapping.nvars,
        m0=0,
        k1=1,
        shift=0,
        transform_log=(TransformRecord("direct", ()),),
        direct=True,
    )
