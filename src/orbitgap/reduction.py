"""Reduction of a self-map modulo primes and finite-field orbit analysis.

The avoidance oracle works per prime: a target residue point that does not
lie on a cycle of the reduced map has a finite backward tree, and a
breadth-first preimage expansion yields the largest iterate at which any
residue point can still hit it.  A certificate (p, M) then asserts that no
point of F_p^N maps onto any target at iterate >= M, which is exhaustively
verifiable.  Density over a scanned prime range is reported empirically;
no density theorem is invoked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import BudgetExceeded, HypothesisViolation, InputError
from .padic import is_prime
from .polynomials import (
    ModularMap,
    Poly,
    PolyMap,
    denominator_primes,
    modular_eval,
    poly_degree,
    poly_eval,
    prime_factors,
    reduce_poly,
)

#: Default cap on full-space scans over F_p^N.
ENUM_GUARD = 2**24

@dataclass(frozen=True)
class ProblemInstance:
    """A self-map of affine N-space, an initial point, and a target variety.

    targets are the declared periodic points of the map on the variety; they
    may be empty, in which case the user asserts the variety carries none
    (residue-level candidates can still be discovered per prime).
    """

    dimension: int
    mapping: PolyMap
    initial_point: tuple[Fraction, ...]
    variety: tuple[Poly, ...]
    targets: tuple[tuple[Fraction, ...], ...] = ()

    def __post_init__(self):
        if self.mapping.nvars != self.dimension:
            raise InputError("map arity does not match the dimension")
        if len(self.initial_point) != self.dimension:
            raise InputError("initial point arity mismatch")
        for t in self.targets:
            if len(t) != self.dimension:
                raise InputError("target point arity mismatch")
        for q in self.variety:
            for e in q:
                if len(e) != self.dimension:
                    raise InputError("variety polynomial arity mismatch")
        for i, p in enumerate(self.mapping.polys):
            if poly_degree(p) == 0:
                raise HypothesisViolation(
                    f"coordinate {i} of the map is constant; the map is not quasi-finite"
                )

    def denominator_primes(self) -> set[int]:
        out = self.mapping.denominator_primes()
        values = list(self.initial_point)
        for t in self.targets:
            values.extend(t)
        for x in values:
            out |= prime_factors(Fraction(x).denominator)
        for q in self.variety:
            out |= denominator_primes(q)
        return out


@dataclass(frozen=True)
class BadPrimeSet:
    """Primes excluded from reduction, with the reason each was excluded."""

    primes: frozenset[int]
    reasons: tuple[tuple[int, str], ...] = ()

    def __contains__(self, p: int) -> bool:
        return p in self.primes


def _rational_rank(rows: list[list[Fraction]]) -> int:
    rows = [list(r) for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col] * inv
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _mod_rank(rows, p: int) -> int:
    rows = [[x % p for x in r] for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col] * inv % p
                rows[r] = [(a - factor * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _target_collision(inst: ProblemInstance, p: int) -> bool:
    """Whether some backward branch of a target collapses onto it mod p.

    A preimage branch distinct from gamma can only reduce onto gamma at p if
    the reduced fiber degenerates beyond its exact degeneracy, detected as a
    rank drop of the Jacobian at gamma from the rationals to F_p (a globally
    critical fixed point, e.g. the origin of x -> x^2, is not a collision:
    there is no second branch).  Requires gamma to be a fixed residue.
    """
    try:
        fp = ModularMap.from_map(inst.mapping, p)
    except InputError:
        return True  # denominator prime; caller records it anyway
    jac = inst.mapping.jacobian()
    for t in inst.targets:
        try:
            tp = tuple(reduce_rational(x, p) for x in t)
        except InputError:
            return True
        if fp(tp) != tp:
            continue
        exact_rows = [
            [poly_eval(jac[i][j], t) for j in range(inst.dimension)]
            for i in range(inst.dimension)
        ]
        mod_rows = [
            [modular_eval(reduce_poly(jac[i][j], p), tp, p) for j in range(inst.dimension)]
            for i in range(inst.dimension)
        ]
        if _mod_rank(mod_rows, p) < _rational_rank(exact_rows):
            return True
    return False


def reduce_rational(x, m: int) -> int:
    x = Fraction(x)
    try:
        return x.numerator * pow(x.denominator, -1, m) % m
    except ValueError:
        raise InputError(f"{x} is not integral at modulus {m}") from None


def bad_primes(inst: ProblemInstance, search_bound: int = 0) -> BadPrimeSet:
    """Denominator primes plus small primes where a target absorbs a preimage branch."""
    reasons: list[tuple[int, str]] = []
    primes = set()
    for p in sorted(inst.denominator_primes()):
        primes.add(p)
        reasons.append((p, "denominator"))
    if inst.targets and search_bound >= 2:
        for p in range(3, search_bound + 1):
            if p in primes or not is_prime(p):
                continue
            if _target_collision(inst, p):
                primes.add(p)
                reasons.append((p, "target-preimage-collision"))
    return BadPrimeSet(frozenset(primes), tuple(reasons))


def reduce_instance(inst: ProblemInstance, p: int, bad: BadPrimeSet | None = None):
    """Reduced map, reduced initial point, and reduced targets at a good prime.

    Refuses bad primes.  Reduction commutes with evaluation by construction;
    the property suite spot-checks this on random instances.
    """
    if bad is None:
        bad = bad_primes(inst)
    if p in bad:
        raise InputError(f"prime {p} is in the bad-prime set")
    fp = ModularMap.from_map(inst.mapping, p)
    a_p = tuple(reduce_rational(x, p) for x in inst.initial_point)
    targets_p = tuple(tuple(reduce_rational(x, p) for x in t) for t in inst.targets)
    return fp, a_p, targets_p


@dataclass(frozen=True)
class OrbitSummary:
    """Minimal tail/cycle data of one forward orbit, plus first hits of queried targets."""

    start: tuple[int, ...]
    tail: int
    cycle: int
    first_hits: dict = field(default_factory=dict)


def orbit_summary(
    fp: ModularMap, x: tuple[int, ...], targets=(), limit: int | None = None, visit=None
) -> OrbitSummary | None:
    """Brent cycle detection: O(tail + cycle) map evaluations, O(1) state.

    `visit(n, x_n)` is called on the points x_0, x_1, ... in order, through
    at least index tail + cycle - 1.  With `limit`, the search gives up and
    returns None once x_limit has been visited and no cycle has closed, so
    it costs at most limit + 1 map evaluations.

    A second pass of the same length records the first hit index of each
    queried target (None if the orbit never meets it).
    """
    if visit:
        visit(0, x)
    power = lam = n = 1
    tortoise, hare = x, fp(x)
    while tortoise != hare:
        if limit is not None and n > limit:
            return None
        if visit:
            visit(n, hare)
        if power == lam:
            tortoise = hare
            power *= 2
            lam = 0
        hare = fp(hare)
        n += 1
        lam += 1
    tortoise = hare = x
    for _ in range(lam):
        hare = fp(hare)
    mu = 0
    while tortoise != hare:
        tortoise = fp(tortoise)
        hare = fp(hare)
        mu += 1
    hits: dict = {t: None for t in targets}
    if targets:
        pt = x
        for i in range(mu + lam):
            if pt in hits and hits[pt] is None:
                hits[pt] = i
            pt = fp(pt)
        if pt in hits and hits[pt] is None:
            hits[pt] = mu + lam
    return OrbitSummary(x, mu, lam, hits)


def _space_size(fp: ModularMap) -> int:
    return fp.modulus**fp.nvars


def _iter_space(fp: ModularMap):
    p, n = fp.modulus, fp.nvars
    point = [0] * n
    for _ in range(p**n):
        yield tuple(point)
        for i in range(n):
            point[i] += 1
            if point[i] < p:
                break
            point[i] = 0


def periodic_points_on_variety(
    fp: ModularMap, variety_mod: list[dict], guard: int = ENUM_GUARD
) -> list[tuple[int, ...]]:
    """All residue points on the variety that lie on a cycle of the reduced map."""
    if _space_size(fp) > guard:
        raise BudgetExceeded(f"space size {_space_size(fp)} exceeds the enumeration guard")
    out = []
    for pt in _iter_space(fp):
        if all(modular_eval(q, pt, fp.modulus) == 0 for q in variety_mod):
            if orbit_summary(fp, pt).tail == 0:
                out.append(pt)
    return out


@dataclass
class PreimageTree:
    """Backward levels of a non-periodic target: levels[m] = f^-m(target)."""

    target: tuple[int, ...]
    levels: list[set]

    @property
    def depth(self) -> int:
        return len(self.levels) - 1


def preimage_buckets(fp: ModularMap, guard: int = ENUM_GUARD) -> dict:
    """One full-space scan: image point -> list of preimage points."""
    if _space_size(fp) > guard:
        raise BudgetExceeded(f"space size {_space_size(fp)} exceeds the enumeration guard")
    buckets: dict = {}
    for pt in _iter_space(fp):
        buckets.setdefault(fp(pt), []).append(pt)
    return buckets


def first_hit_depth(
    fp: ModularMap,
    gamma: tuple[int, ...],
    buckets: dict | None = None,
    guard: int = ENUM_GUARD,
):
    """Largest m such that some residue point satisfies f^m(x) = gamma.

    Returns (depth, tree) for a non-periodic target and (None, None) when the
    target lies on a cycle (verdict failed-periodic: its orbit has tail 0).
    Levels of the backward expansion are pairwise disjoint for a non-periodic
    target, which bounds the expansion by the space size.  buckets is the
    preimage_buckets scan of fp; an empty or missing one is made here, and
    an empty dict passed in is filled, so targets can share one scan.
    """
    if orbit_summary(fp, gamma).tail == 0:
        return None, None
    if buckets is None:
        buckets = {}
    if not buckets:
        buckets.update(preimage_buckets(fp, guard))
    seen = {gamma}
    levels = [{gamma}]
    while True:
        nxt: set = set()
        for pt in levels[-1]:
            nxt.update(buckets.get(pt, ()))
        if not nxt:
            break
        overlap = nxt & seen
        if overlap:
            raise AssertionError(
                f"preimage levels are not disjoint at {sorted(overlap)[:3]}; "
                "the target must have been periodic"
            )
        seen |= nxt
        levels.append(nxt)
    return len(levels) - 1, PreimageTree(gamma, levels)


@dataclass(frozen=True)
class AvoidanceCertificate:
    """Per-prime avoidance verdict.

    When verdict == "certified": for every x in F_p^N and every m >= bound,
    the m-th iterate of x differs from every reduced target.
    """

    prime: int
    targets: tuple[tuple[int, ...], ...]
    verdict: str  # certified | failed-periodic | failed-bad-prime
    bound: int | None = None
    depths: tuple[int, ...] = ()

    @property
    def certified(self) -> bool:
        return self.verdict == "certified"


@dataclass(frozen=True)
class AvoidanceScan:
    certificates: tuple[AvoidanceCertificate, ...]
    scanned: int
    certified_density: float


def avoidance_search(
    inst: ProblemInstance,
    primes,
    bad: BadPrimeSet | None = None,
    guard: int = ENUM_GUARD,
) -> AvoidanceScan:
    """Try to certify every prime in the range.

    M = 1 + max backward depth over all targets (0 when there are no
    targets).  Failures are recorded verdicts, never exceptions.  Per-prime
    work is independent; certificates are aggregated in prime order.
    """
    if bad is None:
        bad = bad_primes(inst, search_bound=max(primes, default=0))
    certs = []
    for p in sorted(primes):
        if p in bad:
            certs.append(AvoidanceCertificate(p, (), "failed-bad-prime"))
            continue
        fp, _, targets_p = reduce_instance(inst, p, bad)
        depths = []
        buckets: dict = {}  # filled by the first non-periodic target
        for tp in targets_p:
            depth, _ = first_hit_depth(fp, tp, buckets, guard)
            if depth is None:
                certs.append(AvoidanceCertificate(p, targets_p, "failed-periodic"))
                break
            depths.append(depth)
        else:
            bound = 1 + max(depths) if depths else 0
            certs.append(AvoidanceCertificate(p, targets_p, "certified", bound, tuple(depths)))
    scanned = len(certs)
    certified = sum(1 for c in certs if c.certified)
    density = certified / scanned if scanned else 0.0
    return AvoidanceScan(tuple(certs), scanned, density)


def residue_orbit_avoids(inst: ProblemInstance, p: int, bound: int, bad: BadPrimeSet | None = None) -> bool:
    """Decisive check that the residue orbit of the initial point misses every
    reduced target at all iterates >= bound.

    A target on the eventual cycle is hit at unboundedly many iterates, so it
    fails regardless of the bound; a target on the tail only fails when its
    hit index is >= bound.
    """
    fp, a_p, targets_p = reduce_instance(inst, p, bad)
    summary = orbit_summary(fp, a_p)
    pt = a_p
    for m in range(summary.tail):
        if m >= bound and pt in targets_p:
            return False
        pt = fp(pt)
    for _ in range(summary.cycle):
        if pt in targets_p:
            return False
        pt = fp(pt)
    return True
