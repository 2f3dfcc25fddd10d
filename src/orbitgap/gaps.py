"""Return-set computation, zero localization, and gap/density reporting.

Returns are screened from the cycle structure of the orbit mod a few primes:
mod p the orbit is a tail of length mu followed by a cycle of length lambda,
so its hits on V mod p are a finite tail set plus a few classes mod lambda.
One reduction.orbit_hits walk per prime finds them with
O(min(mu + lambda, n_max)) map evaluations: when the cycle closes well
before n_max the cost does not grow with n_max, and otherwise the search
stops at n_max.  The surviving candidates, at most SURVIVOR_CAP of them,
are certified on reduction.exact_orbit for at most EXACT_STEP_BUDGET points
and while the orbit's coordinate sizes stay within a bit budget; later
ones are screened again with fresh primes.  Every reported index carries
its provenance.

Zero localization restricts the composed function L(t) = Q(G(center + p^k t))
to residue disks as a power series in t.  The disks form one tree: T!*G is
expanded once in the monomial basis mod p^(K + v_p(T!)), and a disk inside
another (center + j p^k + p^k' t) gets its coordinate polynomials from its
parent's by a Taylor shift by j and a scaling of t by p^(k' - k).  Dividing
out T! gives one-variable TruncatedSeries whose precision bounds record the
factorial p-part, and Q is composed with them, so every coefficient of L
carries its own bound; a disk holds that composed TruncatedSeries as it is.
It counts zeros through the Newton polygon, read once per disk for both the
count and the minimum valuation v, and refines disks until each leaf holds
at most one zero cluster, shifting only the children at roots of the
residual polynomial (L / p^v) mod p.  The leaves of each class mod p of
model indices partition it, and a class that holds a return gets one gap
verdict from them; a resolved class with no return states nothing and is
not listed.  A leaf with a zero of order d yields the gap bound

    (n_{j+1} - n_j)^d >= p^(k*d + n_j*c - v(a_d))

for consecutive return indices in the leaf, i.e. gaps grow like p^(c*n/d).
Zero-free leaves bound their members outright by v(a_0)/c.  A member in no
leaf of its class breaks the partition: a bug, raised as InvariantViolation.
Only shifts whose cycle point lies on V mod p need leaves: at any other, a
polynomial of V is a unit on every orbit point (residue_witness).  All
comparisons are exact integer arithmetic.
"""

import math
from bisect import bisect_right
from itertools import islice
from typing import NamedTuple

from .errors import (
    BudgetExceeded,
    HypothesisViolation,
    InputError,
    InvariantViolation,
    PrecisionExhausted,
)
from .interpolation import ApproxInterpolant
from .normalization import LocalModel
from .padic import INF, TruncatedSeries, int_valuation, is_prime, vp_factorial
from .polynomials import Poly, horner_eval, horner_form, poly_eval, reduce_poly, reduce_rational
from .problemfile import ProblemInstance
from .reduction import BadPrimeSet, OrbitHits, exact_orbit, orbit_hits, reduce_instance

#: Bit budget for exact certification of returns.
EXACT_BIT_BUDGET = 1 << 20

#: Most exact orbit points walked to certify returns; later survivors are
#: screened again instead.
EXACT_STEP_BUDGET = 1 << 17

#: Most screening survivors a run keeps; more is refused (BudgetExceeded).
SURVIVOR_CAP = 1 << 16

#: Screening primes are drawn from primes >= this floor (small primes hit
#: the variety too often by chance).
SCREEN_PRIME_FLOOR = 101

#: Consecutive single-child refinements after which a zero cluster is frozen.
STABLE_ROUNDS = 3


# ---------------------------------------------------------------------------
# Return sets
# ---------------------------------------------------------------------------


class ReturnEntry(NamedTuple):
    index: int
    status: str  # "certified-exact" | "modular-screened"


class ReturnSet(NamedTuple):
    n_max: int
    entries: tuple[ReturnEntry, ...]
    screening_primes: tuple[int, ...]
    refuted: tuple[int, ...]
    exact_horizon: int

    def indices(self) -> list[int]:
        return [e.index for e in self.entries]


def default_screening_primes(bad: BadPrimeSet, count: int,
                             floor: int = SCREEN_PRIME_FLOOR) -> list[int]:
    """The first `count` primes >= floor that are not in the run's bad-prime set."""
    out = []
    p = floor
    while len(out) < count:
        if is_prime(p) and p not in bad:
            out.append(p)
        p += 1
    return out


def _hits_mod(inst: ProblemInstance, p: int, bad: BadPrimeSet, n_max: int) -> OrbitHits:
    """The indices n <= n_max with f^n(a) on V mod p, read by one orbit walk."""
    fp, x, _ = reduce_instance(inst, p, bad)
    variety_p = [horner_form(reduce_poly(q, p)) for q in inst.variety]
    return orbit_hits(fp, x, lambda pt: all(horner_eval(q, pt, p) == 0 for q in variety_p), n_max)


def compute_returns(
    inst: ProblemInstance, n_max: int, screening_primes, *, bad: BadPrimeSet
) -> ReturnSet:
    """Indices n <= n_max with the orbit on the variety.

    Screening: per screening prime, the tail and cycle of the orbit mod p
    and the residues on V mod p, in O(min(tail + cycle, n_max)) map
    evaluations; the search stops at n_max if no cycle has closed.  The
    hits up to n_max of the prime with the fewest cycle hits per cycle
    length are the candidates, and a candidate survives only if it is a
    hit mod every other prime; more than SURVIVOR_CAP survivors raise
    BudgetExceeded.  Surviving indices within the first EXACT_STEP_BUDGET
    exact orbit points and the exact bit budget are then certified or
    refuted over exact rationals; the rest get one more screening round
    with fresh primes.
    """
    if not screening_primes:
        raise InputError("return screening needs at least one screening prime")
    for p in screening_primes:
        if p in bad:
            raise InputError(f"screening prime {p} is bad for this instance")

    screens = [_hits_mod(inst, p, bad, n_max) for p in screening_primes]
    sparsest = min(screens, key=OrbitHits.cycle_density)
    survivors = (n for n in sparsest.up_to(n_max) if all(n in s for s in screens))
    candidates = sorted(islice(survivors, SURVIVOR_CAP + 1))
    if len(candidates) > SURVIVOR_CAP:
        raise BudgetExceeded(f"more than {SURVIVOR_CAP} screening survivors up to n_max = {n_max}")

    entries: list[ReturnEntry] = []
    refuted: list[int] = []
    horizon = -1
    done = 0  # candidates[:done] are certified or refuted
    walk = exact_orbit(inst, EXACT_BIT_BUDGET)
    steps = min(candidates[-1] + 1, EXACT_STEP_BUDGET) if candidates else 0
    for n, pt in zip(range(steps), walk):
        if n == candidates[done]:
            done += 1
            if all(poly_eval(q, pt) == 0 for q in inst.variety):
                entries.append(ReturnEntry(n, "certified-exact"))
            else:
                refuted.append(n)
        horizon = n
    if done < len(candidates):
        # survivors beyond the exact budgets get one extra screening round
        # with fresh primes: orbit periods mod few primes can align for
        # structured maps, and extra moduli are cheap
        extra = default_screening_primes(
            bad, len(screening_primes), max(max(screening_primes) + 1, SCREEN_PRIME_FLOOR)
        )
        extra_screens = [_hits_mod(inst, p, bad, n_max) for p in extra]
        screening_primes = list(screening_primes) + extra
        for m in candidates[done:]:
            if all(m in s for s in extra_screens):
                entries.append(ReturnEntry(m, "modular-screened"))
    return ReturnSet(n_max, tuple(entries), tuple(screening_primes), tuple(refuted), horizon)


# ---------------------------------------------------------------------------
# Disk restriction with per-coefficient precision
# ---------------------------------------------------------------------------


class DiskSeries(NamedTuple):
    """L(t) = Q(G(center + p^k t)) as a truncated power series in t.

    series is the one-variable TruncatedSeries of L: residues mod p^K, each
    with the precision bound of its unknown part.  coords holds
    T!*G_i(center + p^k t) mod p^(K + v_p(T!)), one polynomial in t per
    coordinate: the disks inside this one are shifted from them.
    """

    center: int
    radius_exp: int
    series: TruncatedSeries
    coords: tuple = ()

    @property
    def zero_at_precision(self) -> bool:
        precs = self.series.precs
        return all(r == 0 and precs.get(e, INF) >= 1 for e, r in self.series.coeffs.items())


def _expand(interp: ApproxInterpolant) -> list[list[int]]:
    """T!*G_i(t) in the monomial basis mod p^(K + v_p(T!)), one list per coordinate.

    T!*C(t, j) = (T!/j!) t(t-1)...(t-j+1) has integer coefficients, so the
    nested form c_0 + t(c_1 + (t-1)(c_2 + ...)) with c_j = a_j T!/j! expands
    T!*G with integer arithmetic.  Reduction mod p^(K + v_p(T!)) is a ring
    map, so every coefficient agrees with the exact one mod that modulus,
    and G itself is known mod p^K.
    """
    ctx, T = interp.ctx, interp.terms
    work = ctx.modulus * ctx.prime ** vp_factorial(T, ctx.prime)
    scales = [1] * (T + 1)  # T!/j!
    for j in range(T - 1, -1, -1):
        scales[j] = scales[j + 1] * (j + 1)
    out = []
    for i in range(interp.series.dim):
        poly: list[int] = []
        for j in range(T, -1, -1):
            poly = [0] + poly  # poly <- c_j + (t - j) * poly
            for m in range(len(poly) - 1):
                poly[m] = (poly[m] - j * poly[m + 1]) % work
            poly[0] = (poly[0] + interp.series.coeffs[j][i] * scales[j]) % work
        out.append(poly)
    return out


def _subdisk(
    interp: ApproxInterpolant, q: Poly, coords, center: int, radius_exp: int,
    j: int, sub_exp: int,
) -> DiskSeries:
    """Q(G(c + p^k' t)) on the disk c = center + j p^k, k' = sub_exp, inside
    the disk center + p^k t whose coordinate polynomials are coords.

    Each coordinate polynomial a(t) becomes a(j + s t) with s = p^(k' - k):
    a Taylor shift by synthetic division, then coefficient m times s^m.  The
    p-part of T! must then cancel from every coefficient; a failure to cancel
    is a precision failure, not a rounding choice.  Coefficient m >= 1 is
    known to p^(K + min(k' m - v_p(T!), 0)) and the constant, G(c), to p^K.
    """
    ctx = interp.ctx
    p, prec, mod = ctx.prime, ctx.precision, ctx.modulus
    e_total = vp_factorial(interp.terms, p)
    p_part = p**e_total
    work = mod * p_part
    inv_fact_unit = pow(math.factorial(interp.terms) // p_part, -1, mod)
    s = p ** (sub_exp - radius_exp)
    shifted, coord_series = [], []
    for a in coords:
        a = list(a)
        n = len(a)
        if j:
            for i in range(n - 1):
                for m in range(n - 2, i - 1, -1):
                    a[m] = (a[m] + j * a[m + 1]) % work
        coeffs, precs = {}, {}
        scale = 1
        for m in range(n):
            a[m] = a[m] * scale % work
            scale = scale * s % work
            quotient, remainder = divmod(a[m], p_part)
            if remainder:
                raise PrecisionExhausted(
                    "disk re-expansion: factorial p-part failed to cancel at "
                    f"coefficient {m}; coefficient decay is insufficient"
                )
            coeffs[(m,)] = quotient * inv_fact_unit % mod
            precs[(m,)] = prec + min(sub_exp * m - e_total, 0) if m else prec
        shifted.append(tuple(a))
        coord_series.append(TruncatedSeries(ctx, 1, coeffs, precs))

    result = TruncatedSeries(ctx, len(coord_series), reduce_poly(q, mod)).compose(coord_series)
    return DiskSeries(center + j * p**radius_exp, sub_exp, result, tuple(shifted))


def restrict_to_disk(interp: ApproxInterpolant, q: Poly, center: int, radius_exp: int) -> DiskSeries:
    """Expand Q(G(center + p^k t)) as a power series in t at working precision.

    The interpolant is expanded once in the monomial basis and shifted to
    the disk, as the disk center + p^k t inside the unit disk 0 + t.
    """
    return _subdisk(interp, q, _expand(interp), 0, 0, center, radius_exp)


# ---------------------------------------------------------------------------
# Newton polygon zero counting
# ---------------------------------------------------------------------------


def newton_zero_count(disk: DiskSeries) -> tuple[int, int]:
    """(count, v): zeros (with multiplicity, over the algebraic closure) in
    the closed unit disk, and the minimal known coefficient valuation.

    A coefficient's valuation is known when it lies below its precision
    bound.  The count is the largest index attaining the minimum v: exactly
    the length of the non-positive-slope part of the Newton polygon.
    Coefficients of unknown valuation must be bounded strictly above v,
    else the truncation is declared insufficient at the first such index.
    """
    p, precs = disk.series.ctx.prime, disk.series.precs
    count, v_min = 0, INF
    unknown = []  # (index, bound), in increasing index order
    for exp, r in sorted(disk.series.coeffs.items()):
        bound = precs.get(exp, INF)
        v = int_valuation(r, p)
        if v >= bound:
            unknown.append((exp[0], bound))
        elif v <= v_min:
            count, v_min = exp[0], v
    if v_min == INF:
        raise InputError("series is identically zero at precision; no polygon exists")
    for m, bound in unknown:
        if bound <= v_min:
            raise PrecisionExhausted(
                f"truncation insufficient: coefficient {m} is only known above "
                f"valuation {bound}, the polygon minimum is {v_min}"
            )
    return count, v_min


# ---------------------------------------------------------------------------
# Zero localization
# ---------------------------------------------------------------------------


class ZeroLocalization(NamedTuple):
    """A terminal disk of the refinement: either zero-free or one zero cluster.

    On a cluster leaf the center approximates the zero and count is its order.
    """

    center: int
    radius_exp: int
    count: int
    leading_valuation: int


#: The leaves of one class mod p, which partition it; empty if unresolved.
Leaves = tuple[ZeroLocalization, ...]


def _residual_roots(disk: DiskSeries, count: int, v_min: int) -> list[int]:
    """The roots in F_p of the residual polynomial (L(t) / p^v) mod p.

    (count, v) = newton_zero_count(disk): v is the minimum known valuation
    of the coefficients of L and count the last index attaining it, so the
    residual polynomial has degree count and at most count roots.  Every coefficient
    is known mod p^(v+1): a known one's bound exceeds its valuation, an
    unknown one's is at least v + 1.  At a non-root j, L(j + p t) has
    constant valuation exactly v and every other coefficient above v, so
    the child disk holds no zero and its leaf needs no shift.
    """
    series = disk.series
    p = series.ctx.prime
    scale = p**v_min
    residual = [series.coefficient((m,)) // scale % p for m in range(count + 1)]
    return [j for j in range(p) if not sum(c * j**m for m, c in enumerate(residual)) % p]


def localize_zeros(interp: ApproxInterpolant, polynomials: list[Poly]) -> list[Leaves]:
    """Entry i holds the leaves of class i mod p, which partition the class:
    those of the first defining polynomial that does not vanish on it at
    working precision, or none (unresolved) if every polynomial does.

    The disks form one tree: the interpolant is expanded once, every
    polynomial's disks mod p are shifted from that expansion, and every
    smaller disk is shifted from its parent.  Disks are refined by
    subdividing into the p child classes, and only the children at roots of
    the parent's residual polynomial are shifted: every other child is
    zero-free with the parent's minimum valuation (_residual_roots).  The
    unit disk of each polynomial is the parent of its classes mod p; where
    its polygon is undecidable, every class is shifted.  Each shifted disk's
    polygon is read once, and _refine takes that reading.  The child counts
    of a count-1 disk must sum to 1 (a single zero in a disk with these
    coefficient rings is rational), while larger clusters may lose zeros to
    non-rational directions, which integer arguments can never approach.  A
    cluster that refuses to split for STABLE_ROUNDS levels, or reaches
    radius p^max(5, K // 2), is frozen as a single zero of order = count.
    """
    if not polynomials:
        raise InputError("zero localization needs at least one defining polynomial")

    # global degeneracy check: every polynomial identically zero at precision
    first = restrict_to_disk(interp, polynomials[0], 0, 0)
    coords = first.coords  # the one expansion: a unit disk's coords are the interpolant's
    unit_disks = [first] + [_subdisk(interp, q, coords, 0, 0, 0, 0) for q in polynomials[1:]]
    if all(s.zero_at_precision for s in unit_disks):
        raise HypothesisViolation(
            "every defining polynomial composed with the interpolant vanishes at "
            "working precision: possible periodic subvariety"
        )

    p = interp.ctx.prime
    shifted = []  # per polynomial: (classes to shift, valuation of the others)
    for unit in unit_disks:
        try:
            count, v_min = newton_zero_count(unit)
        except (PrecisionExhausted, InputError):
            shifted.append((range(p), None))
            continue
        shifted.append((_residual_roots(unit, count, v_min), v_min))

    def class_leaves(i: int) -> Leaves:
        for q, (roots, v_min) in zip(polynomials, shifted):
            if i not in roots:
                return (ZeroLocalization(i, 1, 0, v_min),)
            disk = _subdisk(interp, q, coords, 0, 0, i, 1)
            if not disk.zero_at_precision:
                return tuple(_refine(interp, q, disk, *newton_zero_count(disk)))
        return ()

    return [class_leaves(i) for i in range(p)]


def _refine(
    interp: ApproxInterpolant, q: Poly, disk: DiskSeries, count: int, v_min: int,
    stability: int = 0,
) -> list[ZeroLocalization]:
    """The leaves under a disk whose polygon reading is (count, v_min)."""
    p = interp.ctx.prime
    if count == 0:
        return [ZeroLocalization(disk.center, disk.radius_exp, 0, v_min)]
    if disk.radius_exp >= max(5, interp.ctx.precision // 2) or stability >= STABLE_ROUNDS:
        return [ZeroLocalization(disk.center, disk.radius_exp, count, v_min)]
    sub_exp = disk.radius_exp + 1
    children = {}  # residual root j -> (child disk, its zero count, its minimum valuation)
    for j in _residual_roots(disk, count, v_min):
        child = _subdisk(interp, q, disk.coords, disk.center, disk.radius_exp, j, sub_exp)
        if child.zero_at_precision:
            raise PrecisionExhausted(
                "child disk series vanished at precision during refinement"
            )
        children[j] = (child, *newton_zero_count(child))
    total = sum(c for _, c, _ in children.values())
    if count == 1 and total != 1:
        raise InvariantViolation(
            "a single zero must land in exactly one rational child disk"
        )
    if total > count:
        raise InvariantViolation("child zero counts exceed the parent count")

    leaves: list[ZeroLocalization] = []
    single = sum(c > 0 for _, c, _ in children.values()) == 1
    for child, c, v in children.values():
        if c:
            stable = stability + 1 if single and c == count else 0
            leaves += _refine(interp, q, child, c, v, stable)
    # zero-free siblings: members falling there need a finiteness bound
    for j in range(p):
        _, c, v = children.get(j, (None, 0, v_min))
        if not c:
            leaves.append(ZeroLocalization(disk.center + j * p**disk.radius_exp, sub_exp, 0, v))
    return leaves


# ---------------------------------------------------------------------------
# Gap report
# ---------------------------------------------------------------------------


def check_gap_pair(gap: int, order: int, required_exponent: int, prime: int) -> bool:
    """Exact check gap^order >= p^required_exponent (trivial when the exponent is <= 0)."""
    return required_exponent <= 0 or gap**order >= prime**required_exponent


def residue_witness(model: LocalModel, variety: list[Poly]) -> int | None:
    """The index of the first polynomial of V that is nonzero mod p at the
    model's center, or None when all of V vanishes there.

    For n >= m0 in the model's shift, F^n(a) is congruent to the center mod
    p, so a shift with a witness holds no return at any n.  The prime is
    good, so every denominator of V is invertible mod p.
    """
    p = model.prime
    return next(
        (i for i, q in enumerate(variety) if reduce_rational(poly_eval(q, model.center), p)), None
    )


def build_gap_report(
    returns: ReturnSet, localized: list[tuple[LocalModel, list[Leaves] | None]],
    variety: list[Poly], c: int,
) -> dict:
    """Combine observed returns with zero localizations into per-class
    verdicts: the body of the gap_report record.

    localized lists (model, leaves_by_class) pairs in family order, the leaves
    as localize_zeros gives them, or None for a shift off V mod p; the prime,
    m0 and k_total are the models', which the report does not repeat.  A
    shift off V (residue_witness) is listed in off_variety with its witness,
    and the returns that fall in it are refuted screening candidates, so none
    of its classes is listed.  A class is listed when it holds a member or is
    unresolved; every other class of a localized shift holds no return
    <= n_max.  Every verdict names its inputs: model indices, the leaf's
    polygon data, and the provenance of each member.  A violation indicates a
    screening false positive or a precision issue, both of which are
    reportable outcomes rather than exceptions.
    """
    first = localized[0][0]
    m0, k_total, p = first.m0, first.k_total, first.prime
    status = {e.index: e.status for e in returns.entries}
    shifts = {model.shift for model, _ in localized}

    classes, off = [], []
    for model, leaves_by_class in localized:
        start = m0 + model.shift
        members = sorted(
            (n - start) // k_total for n in status if n >= start and (n - start) % k_total == 0
        )
        witness = residue_witness(model, variety)
        if witness is not None:
            refuted = [model.original_index(j) for j in members]
            if any(status[n] == "certified-exact" for n in refuted):
                raise InvariantViolation(f"a certified return lies in shift {model.shift}, off V")
            residue = reduce_rational(poly_eval(variety[witness], model.center), p)
            off.append({"shift": model.shift, "polynomial": witness, "residue": residue,
                        "refuted": refuted})
            members = []
        elif leaves_by_class is None:
            raise InvariantViolation(f"shift {model.shift} is on V mod {p} but was not localized")
        for i, leaves in enumerate(leaves_by_class or ()):
            in_class = [j for j in members if j % p == i]
            if in_class or not leaves:
                classes.append(_class_report(model, i, leaves, in_class, status, c))

    verdicts = {cl["verdict"] for cl in classes}
    return {
        "congruence_exponent": c,
        "verdict": next((v for v in ("violation", "ok") if v in verdicts), "too-few-returns"),
        "prefix_members": sorted(n for n in status if n < m0),
        "uncovered_members": sorted(
            n for n in status if n >= m0 and (n - m0) % k_total not in shifts
        ),
        "off_variety": off,
        "classes": classes,
    }


def _class_report(model: LocalModel, i: int, leaves: Leaves, members: list[int],
                  status: dict[int, str], c: int) -> dict:
    """The verdict of class i mod p, whose sorted model indices are members,
    as a class of the gap_report record; a class with leaves must have one.
    Each pair is [index_low, index_high, required_exponent, ok, provenance]
    in model indices, checking gap^order >= p^required_exponent; gap_constant
    is [p, c, d], for C = p^(c/d), and member_bound bounds the members of a
    zero-free leaf."""
    head = {"shift": model.shift, "class": i, "members_model": members,
            "members_original": [model.original_index(j) for j in members]}
    if not leaves:
        return {**head, "verdict": "unresolved", "gap_constant": None, "member_bound": None,
                "pairs": []}
    p = model.prime
    by_leaf: dict = {}  # leaves in the order of their first member
    for j in members:
        leaf = next((lf for lf in leaves if (j - lf.center) % p**lf.radius_exp == 0), None)
        if leaf is None:
            raise InvariantViolation(f"model index {j} lies in no leaf of its class {i} mod {p}")
        by_leaf.setdefault(leaf, []).append(j)

    violation, pairs = False, []
    constant = bound = None
    for leaf, js in by_leaf.items():
        if leaf.count == 0:
            bound = leaf.leading_valuation // c
            violation |= js[-1] > bound
            continue
        d = leaf.count
        constant = [p, c, d]
        for j1, j2 in zip(js, js[1:]):
            req = leaf.radius_exp * d + j1 * c - leaf.leading_valuation
            if d >= 2:
                # a frozen cluster's zeros are only known to agree to the
                # final disk radius; the pair bound cannot claim more
                req = min(req, leaf.radius_exp * d)
            ok = check_gap_pair(j2 - j1, d, req, p)
            exact = all(status[model.original_index(j)] == "certified-exact" for j in (j1, j2))
            pairs.append([j1, j2, req, ok, "certified-exact" if exact else "modular-screened"])
            violation |= not ok
    verdict = "violation" if violation else "ok" if pairs else "too-few-returns"
    return {**head, "verdict": verdict, "gap_constant": constant, "member_bound": bound,
            "pairs": pairs}


# ---------------------------------------------------------------------------
# Density report
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    return "%.6g" % x


def iterated_log(n: float, m: int) -> float | None:
    x = float(n)
    for _ in range(m):
        if x <= 0:
            return None
        x = math.log(x)
    return x if x > 0 else None


def build_density_report(indices, n_max: int, m: int) -> dict:
    """Counting function of the return set against the m-fold iterated
    logarithm: the body of the density record.

    An empirical consistency check, not a proof: each row is [checkpoint,
    count, log^(m)(checkpoint), ratio], and the maximum observed ratio and a
    divergence flag (ratios still climbing at the last checkpoints) are
    reported.  Reals are "%.6g" strings; a logarithm that is undefined or
    <= 0, and its ratio, are None.
    """
    indices = sorted(indices)
    checkpoints = []
    c = 2
    while c < n_max:
        checkpoints.append(c)
        c *= 2
    checkpoints.append(n_max)
    rows = []
    ratios = []
    for cp in checkpoints:
        count = bisect_right(indices, cp)
        yard = iterated_log(cp, m)
        ratio = count / yard if yard else None
        rows.append([cp, count, _fmt(yard) if yard else None,
                     _fmt(ratio) if ratio is not None else None])
        if ratio is not None:
            ratios.append(ratio)
    max_ratio = max(ratios) if ratios else None
    diverging = False
    if len(ratios) >= 4:
        mid = ratios[len(ratios) // 2]
        diverging = ratios[-1] == max_ratio and mid > 0 and ratios[-1] >= 2 * mid
    return {"m": m, "max_ratio": _fmt(max_ratio) if max_ratio is not None else None,
            "diverging": diverging, "rows": rows}
