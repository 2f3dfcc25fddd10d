"""Return-set computation, zero localization, and gap/density reporting.

Returns are screened from the cycle structure of the orbit mod a few primes:
mod p the orbit is a tail of length mu followed by a cycle of length lambda,
so its hits on V mod p are a finite tail set plus a few classes mod lambda.
Brent's cycle detection finds them with O(min(mu + lambda, n_max)) map
evaluations per prime: when the cycle closes well before n_max the cost
does not grow with n_max, and otherwise the search stops at n_max.  The
surviving candidates are certified exactly while the orbit's coordinate
sizes stay within a bit budget, and every reported index carries its
provenance.

Zero localization restricts the composed function L(t) = Q(G(center + p^k t))
to residue disks as a power series in t: the coordinates of G are re-expanded
around the disk center into one-variable TruncatedSeries whose precision
bounds record the factorial p-part divided out, and Q is composed with them,
so every coefficient of L carries its own bound.  It counts zeros through the
Newton polygon and refines disks until each leaf holds at most one zero
cluster.  A leaf with a zero of order d yields the gap bound

    (n_{j+1} - n_j)^d >= p^(k*d + n_j*c - v(a_d))

for consecutive return indices in the leaf, i.e. gaps grow like p^(c*n/d).
Zero-free leaves bound their members outright by v(a_0)/c.  All comparisons
are exact integer arithmetic.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .errors import HypothesisViolation, InputError, PrecisionExhausted
from .interpolation import ApproxInterpolant
from .padic import INF, TruncatedSeries, int_valuation, is_prime, vp_factorial
from .polynomials import Poly, modular_eval, poly_eval, reduce_poly
from .reduction import BadPrimeSet, ProblemInstance, bad_primes, orbit_summary, reduce_instance

#: Default bit budget for exact certification of returns.
EXACT_BIT_BUDGET = 1 << 20

#: Default number of screening primes.
SCREEN_PRIME_COUNT = 8

#: Screening primes are drawn from primes >= this floor (small primes hit
#: the variety too often by chance).
SCREEN_PRIME_FLOOR = 101

#: Consecutive single-child refinements after which a zero cluster is frozen.
STABLE_ROUNDS = 3


# ---------------------------------------------------------------------------
# Return sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReturnEntry:
    index: int
    status: str  # "certified-exact" | "modular-screened"


@dataclass(frozen=True)
class ReturnSet:
    n_max: int
    entries: tuple[ReturnEntry, ...]
    screening_primes: tuple[int, ...]
    refuted: tuple[int, ...]
    exact_horizon: int

    def indices(self) -> list[int]:
        return [e.index for e in self.entries]


def default_screening_primes(bad: BadPrimeSet, count: int = SCREEN_PRIME_COUNT,
                             floor: int = SCREEN_PRIME_FLOOR) -> list[int]:
    """The first `count` primes >= floor that are not in the run's bad-prime set."""
    out = []
    p = floor
    while len(out) < count:
        if is_prime(p) and p not in bad:
            out.append(p)
        p += 1
    return out


@dataclass(frozen=True)
class _PrimeHits:
    """Indices n <= n_max with f^n(a) on V mod one prime.

    Mod p the orbit is a tail of `tail` residues followed by a cycle of
    `cycle` residues.  `hits` holds the hit indices below tail + cycle; a
    hit c >= tail stands for every index c + j*cycle.  When no cycle closes
    by n_max, tail is n_max + 1 with a cycle of 1 and no cycle hit: only
    indices up to n_max are then known.
    """

    tail: int
    cycle: int
    hits: frozenset[int]

    def __contains__(self, n: int) -> bool:
        if n >= self.tail:
            n = self.tail + (n - self.tail) % self.cycle
        return n in self.hits

    def cycle_density(self) -> Fraction:
        return Fraction(sum(h >= self.tail for h in self.hits), self.cycle)

    def up_to(self, n_max: int) -> list[int]:
        out = []
        for h in self.hits:
            if h >= self.tail:
                out.extend(range(h, n_max + 1, self.cycle))
            elif h <= n_max:
                out.append(h)
        return out


def _hits_mod(inst: ProblemInstance, p: int, bad: BadPrimeSet, n_max: int) -> _PrimeHits:
    """Brent's search for (tail, cycle), testing V on each residue it visits.

    The search stops after x_{n_max} when no cycle has closed, so one prime
    costs O(min(tail + cycle, n_max)) map evaluations.
    """
    fp, x, _ = reduce_instance(inst, p, bad)
    variety_p = [reduce_poly(q, p) for q in inst.variety]
    hits = set()

    def test(n, pt):
        if all(modular_eval(q, pt, p) == 0 for q in variety_p):
            hits.add(n)

    summary = orbit_summary(fp, x, limit=n_max, visit=test)
    if summary is None:
        return _PrimeHits(n_max + 1, 1, frozenset(hits))
    end = summary.tail + summary.cycle
    return _PrimeHits(summary.tail, summary.cycle, frozenset(h for h in hits if h < end))


def compute_returns(
    inst: ProblemInstance,
    n_max: int,
    screening_primes=None,
    exact_bit_budget: int = EXACT_BIT_BUDGET,
    bad: BadPrimeSet | None = None,
) -> ReturnSet:
    """Indices n <= n_max with the orbit on the variety.

    Screening: per screening prime, the tail and cycle of the orbit mod p
    and the residues on V mod p, in O(min(tail + cycle, n_max)) map
    evaluations; the search stops at n_max if no cycle has closed.  The
    hits up to n_max of the prime with the fewest cycle hits per cycle
    length are the candidates, and a candidate survives only if it is a
    hit mod every other prime.  Surviving indices within the exact budget
    are then certified or refuted over exact rationals; the rest get one
    more screening round with fresh primes.
    """
    if bad is None:
        bad = bad_primes(inst)
    if screening_primes is None:
        screening_primes = default_screening_primes(bad)
    if not screening_primes:
        raise InputError("return screening needs at least one screening prime")
    for p in screening_primes:
        if p in bad:
            raise InputError(f"screening prime {p} is bad for this instance")

    screens = [_hits_mod(inst, p, bad, n_max) for p in screening_primes]
    sparsest = min(screens, key=_PrimeHits.cycle_density)
    candidates = sorted(n for n in sparsest.up_to(n_max) if all(n in s for s in screens))

    entries: list[ReturnEntry] = []
    refuted: list[int] = []
    horizon = -1
    done = 0  # candidates[:done] are certified or refuted
    pt = tuple(Fraction(x) for x in inst.initial_point)
    for n in range(candidates[-1] + 1 if candidates else 0):
        if any(x.numerator.bit_length() + x.denominator.bit_length() > exact_bit_budget
               for x in pt):
            break
        if n == candidates[done]:
            done += 1
            if all(poly_eval(q, pt) == 0 for q in inst.variety):
                entries.append(ReturnEntry(n, "certified-exact"))
            else:
                refuted.append(n)
        horizon = n
        pt = inst.mapping.evaluate(pt)
    if done < len(candidates):
        # survivors beyond the exact budget get one extra screening round
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


@dataclass(frozen=True)
class DiskSeries:
    """L(t) = Q(G(center + p^k t)) as a truncated power series in t.

    residues are canonical mod p^K; precs[m] lower-bounds the valuation of
    the unknown part of coefficient m (INF: the residue is exact mod p^K).
    """

    center: int
    radius_exp: int
    residues: tuple[int, ...]
    precs: tuple
    prime: int
    precision: int

    @property
    def zero_at_precision(self) -> bool:
        return all(r == 0 and prec >= 1 for r, prec in zip(self.residues, self.precs))

    def known_valuations(self) -> list[tuple[int, int]]:
        """(index, v(residue)) where the residue's valuation is below its bound."""
        return [
            (m, v)
            for m, (r, bound) in enumerate(zip(self.residues, self.precs))
            if (v := int_valuation(r, self.prime)) < bound
        ]


def restrict_to_disk(
    interp: ApproxInterpolant, q: Poly, center: int, radius_exp: int
) -> DiskSeries:
    """Expand Q(G(center + p^k t)) as a power series in t at working precision.

    The binomial basis is re-expanded around the disk center with exact
    integer arithmetic; the p-part of the factorial denominators must cancel
    against the certified coefficient decay, and a failure to cancel is a
    precision failure, not a rounding choice.
    """
    ctx = interp.ctx
    p, prec, mod = ctx.prime, ctx.precision, ctx.modulus
    T = interp.terms
    e_total = vp_factorial(T, p)
    fact = math.factorial(T)
    fact_unit = fact // p**e_total
    inv_fact_unit = pow(fact_unit, -1, mod)
    pk = p**radius_exp

    # integer polynomials N_j(t) = prod_{l<j} (center - l + p^k t), with
    # running scaling T!/j!; accumulated per coordinate.
    dim = interp.series.dim
    acc = [[0] * (T + 1) for _ in range(dim)]
    n_poly = [1] + [0] * T  # N_0 = 1; degree of N_j is j <= T
    ratio = fact  # T!/j!
    for j in range(T + 1):
        if j > 0:
            const = center - (j - 1)
            new = [0] * (T + 1)
            for m in range(j):
                coef = n_poly[m]
                if coef:
                    new[m] += coef * const
                    new[m + 1] += coef * pk
            n_poly = new
            ratio //= j
        cj = interp.series.coeffs[j]
        for i in range(dim):
            ci = cj[i]
            if ci:
                scaled = ci * ratio
                row = acc[i]
                for m in range(min(j, T) + 1):
                    if n_poly[m]:
                        row[m] += scaled * n_poly[m]

    # constant coefficients are the direct values of G at the center: full precision
    direct = interp.value(center)
    coord_series = []
    for i in range(dim):
        coeffs, precs = {}, {}
        for m in range(T + 1):
            quotient, remainder = divmod(acc[i][m], p**e_total)
            if remainder:
                raise PrecisionExhausted(
                    "disk re-expansion: factorial p-part failed to cancel at "
                    f"coefficient {m}; coefficient decay is insufficient"
                )
            coeffs[(m,)] = quotient * inv_fact_unit % mod
            precs[(m,)] = prec + min(radius_exp * m - e_total, 0)
        coeffs[(0,)] = direct[i]
        precs[(0,)] = prec
        coord_series.append(TruncatedSeries(ctx, 1, coeffs, precs))

    result = TruncatedSeries(ctx, dim, reduce_poly(q, mod)).compose(coord_series)
    degree = max((m for (m,) in result.coeffs), default=0)
    return DiskSeries(
        center,
        radius_exp,
        tuple(result.coefficient((m,)) for m in range(degree + 1)),
        tuple(result.precs.get((m,), INF) for m in range(degree + 1)),
        p,
        prec,
    )


# ---------------------------------------------------------------------------
# Newton polygon zero counting
# ---------------------------------------------------------------------------


def newton_zero_count(series: DiskSeries, margin: int = 1) -> int:
    """Zeros (with multiplicity, over the algebraic closure) in the closed unit disk.

    The count is the largest index attaining the minimal coefficient
    valuation: exactly the length of the non-positive-slope part of the
    Newton polygon.  Coefficients of unknown valuation (zero residues) must
    be bounded strictly above the minimum, else the truncation is declared
    insufficient.
    """
    known = series.known_valuations()
    if not known:
        raise InputError("series is identically zero at precision; no polygon exists")
    min_val = min(v for _, v in known)
    count = max(m for m, v in known if v == min_val)
    known_indices = {m for m, _ in known}
    for m, bound in enumerate(series.precs):
        if m not in known_indices and bound < min_val + margin:
            raise PrecisionExhausted(
                f"truncation insufficient: coefficient {m} is only known above "
                f"valuation {bound}, the polygon minimum is {min_val}"
            )
    return count


# ---------------------------------------------------------------------------
# Zero localization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZeroLocalization:
    """A terminal disk of the refinement: either zero-free or one zero cluster."""

    center: int
    radius_exp: int
    count: int
    leading_valuation: int
    eta: int | None = None  # approximate zero (the final center) when count >= 1
    order: int | None = None  # vanishing order, = count on the terminal disk


@dataclass(frozen=True)
class ClassAnalysis:
    """Zero localization of one residue class of interpolation arguments."""

    class_index: int
    modulus_exp: int
    polynomial_index: int | None
    resolved: bool
    leaves: tuple[ZeroLocalization, ...] = ()


def _min_known_valuation(series: DiskSeries) -> int:
    return min(v for _, v in series.known_valuations())


def localize_zeros(
    interp: ApproxInterpolant,
    polynomials: list[Poly],
    initial_k: int = 1,
    k_cap: int | None = None,
    stable_rounds: int = STABLE_ROUNDS,
) -> list[ClassAnalysis]:
    """Per residue class mod p^initial_k, locate the zeros of the first
    defining polynomial that does not vanish at working precision.

    Disks are refined by subdividing into the p child classes; the child
    counts of a count-1 disk must sum to 1 (a single zero in a disk with
    these coefficient rings is rational), while larger clusters may lose
    zeros to non-rational directions, which integer arguments can never
    approach.  A cluster that refuses to split for stable_rounds levels is
    frozen as a single zero of order = count.
    """
    ctx = interp.ctx
    p = ctx.prime
    if k_cap is None:
        k_cap = max(initial_k + 4, ctx.precision // 2)
    if not polynomials:
        raise InputError("zero localization needs at least one defining polynomial")

    # global degeneracy check: every polynomial identically zero at precision
    global_series = [restrict_to_disk(interp, q, 0, 0) for q in polynomials]
    if polynomials and all(s.zero_at_precision for s in global_series):
        raise HypothesisViolation(
            "every defining polynomial composed with the interpolant vanishes at "
            "working precision: possible periodic subvariety"
        )

    analyses = []
    for i in range(p**initial_k):
        chosen = None
        series = None
        for qi, q in enumerate(polynomials):
            s = restrict_to_disk(interp, q, i, initial_k)
            if not s.zero_at_precision:
                chosen, series = qi, s
                break
        if chosen is None:
            analyses.append(ClassAnalysis(i, initial_k, None, False))
            continue
        leaves = _refine(interp, polynomials[chosen], series, k_cap, stable_rounds)
        analyses.append(ClassAnalysis(i, initial_k, chosen, True, tuple(leaves)))
    return analyses


def _refine(
    interp: ApproxInterpolant,
    q: Poly,
    series: DiskSeries,
    k_cap: int,
    stable_rounds: int,
    stability: int = 0,
) -> list[ZeroLocalization]:
    p = series.prime
    count = newton_zero_count(series)
    v_min = _min_known_valuation(series)
    if count == 0:
        return [ZeroLocalization(series.center, series.radius_exp, 0, v_min)]
    if series.radius_exp >= k_cap or (count >= 1 and stability >= stable_rounds):
        return [
            ZeroLocalization(
                series.center, series.radius_exp, count, v_min, series.center, count
            )
        ]
    children = []
    child_counts = []
    for j in range(p):
        child_center = series.center + j * p**series.radius_exp
        child = restrict_to_disk(interp, q, child_center, series.radius_exp + 1)
        if child.zero_at_precision:
            raise PrecisionExhausted(
                "child disk series vanished at precision during refinement"
            )
        children.append(child)
        child_counts.append(newton_zero_count(child))
    total = sum(child_counts)
    if count == 1 and total != 1:
        raise AssertionError(
            "a single zero must land in exactly one rational child disk"
        )
    if total > count:
        raise AssertionError("child zero counts exceed the parent count")

    leaves: list[ZeroLocalization] = []
    nonzero = [j for j, c in enumerate(child_counts) if c > 0]
    for j in range(p):
        if child_counts[j] == 0:
            # zero-free children become leaves only if they can hold integers
            # of this class; they always can, record them lazily on demand
            continue
        next_stability = stability + 1 if (len(nonzero) == 1 and child_counts[j] == count) else 0
        leaves.extend(
            _refine(interp, q, children[j], k_cap, stable_rounds, next_stability)
        )
    # zero-free siblings: members falling there need a finiteness bound
    for j in range(p):
        if child_counts[j] == 0:
            leaves.append(
                ZeroLocalization(
                    children[j].center,
                    children[j].radius_exp,
                    0,
                    _min_known_valuation(children[j]),
                )
            )
    return leaves


# ---------------------------------------------------------------------------
# Gap report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairVerdict:
    index_low: int  # model indices
    index_high: int
    required_exponent: int  # gap^order >= p^required_exponent (trivial when <= 0)
    ok: bool
    provenance: str  # "certified-exact" | "modular-screened"


@dataclass(frozen=True)
class ClassReport:
    shift: int
    class_index: int
    modulus_exp: int
    members_model: tuple[int, ...]
    members_original: tuple[int, ...]
    verdict: str  # ok | too-few-returns | violation | unresolved | no-members
    gap_constant: tuple[int, int, int] | None  # (p, c, d): C = p^(c/d)
    pairs: tuple[PairVerdict, ...] = ()
    zero_leaf: ZeroLocalization | None = None
    member_bound: int | None = None  # zero-free classes: members must be <= this


@dataclass(frozen=True)
class GapReport:
    prime: int
    congruence_exponent: int
    classes: tuple[ClassReport, ...]
    prefix_members: tuple[int, ...]
    uncovered_members: tuple[int, ...]
    precision_cutoff: int
    verdict: str


def check_gap_pair(gap: int, order: int, required_exponent: int, prime: int) -> bool:
    """Exact check gap^order >= p^required_exponent."""
    if required_exponent <= 0:
        return True
    return gap**order >= prime**required_exponent


def classify_gap_sequence(members, growth: Fraction, offset: int = 0) -> list[bool]:
    """Verdicts for consecutive pairs against gap >= growth^(n_j - offset), exact."""
    growth = Fraction(growth)
    out = []
    for n1, n2 in zip(members, members[1:]):
        out.append(Fraction(n2 - n1) >= growth ** (n1 - offset))
    return out


def _leaf_for(leaves, j: int, p: int):
    for leaf in leaves:
        if (j - leaf.center) % p**leaf.radius_exp == 0:
            return leaf
    return None


def build_gap_report(
    returns: ReturnSet,
    analyses_by_shift: dict,
    models_by_shift: dict,
    prime: int,
    c: int,
    precision: int,
) -> GapReport:
    """Combine observed returns with zero localizations into per-class verdicts.

    Every verdict names its inputs: model indices, the leaf's polygon data,
    and the provenance of each member.  A violation indicates a screening
    false positive or a precision issue, both of which are reportable
    outcomes rather than exceptions.
    """
    some_model = next(iter(models_by_shift.values()))
    m0 = some_model.m0
    k_total = some_model.k_total
    status = {e.index: e.status for e in returns.entries}

    prefix = tuple(sorted(n for n in status if n < m0))
    covered_shifts = set(models_by_shift)
    uncovered = tuple(
        sorted(
            n
            for n in status
            if n >= m0 and (n - m0) % k_total not in covered_shifts
        )
    )

    classes: list[ClassReport] = []
    for shift, analyses in sorted(analyses_by_shift.items()):
        model = models_by_shift[shift]
        members_model = sorted(
            (n - m0 - shift) // k_total
            for n in status
            if n >= m0 + shift and (n - m0 - shift) % k_total == 0
        )
        for analysis in analyses:
            mod_exp = analysis.modulus_exp
            in_class = [
                j for j in members_model if j % prime**mod_exp == analysis.class_index
            ]
            originals = tuple(model.original_index(j) for j in in_class)
            if not analysis.resolved:
                classes.append(
                    ClassReport(
                        shift, analysis.class_index, mod_exp, tuple(in_class), originals,
                        "unresolved", None,
                    )
                )
                continue
            if not in_class:
                classes.append(
                    ClassReport(
                        shift, analysis.class_index, mod_exp, (), (), "no-members", None,
                    )
                )
                continue
            verdict = "ok"
            pairs: list[PairVerdict] = []
            constant = None
            zero_leaf = None
            member_bound = None
            by_leaf: dict = {}
            for j in in_class:
                leaf = _leaf_for(analysis.leaves, j, prime)
                by_leaf.setdefault(leaf, []).append(j)
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
                zero_leaf = leaf
                d = leaf.order
                constant = (prime, c, d)
                for j1, j2 in zip(js, js[1:]):
                    req = leaf.radius_exp * d + j1 * c - leaf.leading_valuation
                    if d >= 2:
                        # a frozen cluster's zeros are only known to agree to the
                        # final disk radius; the pair bound cannot claim more
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
            classes.append(
                ClassReport(
                    shift, analysis.class_index, mod_exp, tuple(in_class), originals,
                    verdict, constant, tuple(pairs), zero_leaf, member_bound,
                )
            )

    overall = "ok"
    if any(cl.verdict == "violation" for cl in classes):
        overall = "violation"
    elif all(cl.verdict in ("no-members", "too-few-returns", "unresolved") for cl in classes):
        overall = "too-few-returns"
    return GapReport(
        prime, c, tuple(classes), prefix, uncovered, precision // c, overall
    )


# ---------------------------------------------------------------------------
# Density report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DensityRow:
    checkpoint: int
    count: int
    yardstick: float | None  # log^(m)(checkpoint), None when undefined/<= 0
    ratio: float | None


@dataclass(frozen=True)
class DensityReport:
    m: int
    rows: tuple[DensityRow, ...]
    max_ratio: float | None
    diverging: bool


def iterated_log(n: float, m: int) -> float | None:
    x = float(n)
    for _ in range(m):
        if x <= 0:
            return None
        x = math.log(x)
    return x if x > 0 else None


def build_density_report(indices, n_max: int, m: int = 1, checkpoints=None) -> DensityReport:
    """Counting function of the return set against the m-fold iterated logarithm.

    An empirical consistency check, not a proof: the maximum observed ratio
    and a divergence flag (ratios still climbing at the last checkpoints) are
    reported.
    """
    indices = sorted(indices)
    if checkpoints is None:
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
        rows.append(DensityRow(cp, count, yard, ratio))
        if ratio is not None:
            ratios.append(ratio)
    max_ratio = max(ratios) if ratios else None
    diverging = False
    if len(ratios) >= 4:
        mid = ratios[len(ratios) // 2]
        diverging = ratios[-1] == max_ratio and mid > 0 and ratios[-1] >= 2 * mid
    return DensityReport(m, tuple(rows), max_ratio, diverging)
