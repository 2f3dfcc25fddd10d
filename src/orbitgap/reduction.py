"""Reduction of a self-map modulo primes and finite-field orbit analysis.

The avoidance oracle works per prime: a target residue point that does not
lie on a cycle of the reduced map has a finite backward tree, and a
breadth-first preimage expansion yields the largest iterate at which any
residue point can still hit it.  A certificate (p, M) then asserts that no
point of F_p^N maps onto any target at iterate >= M, which is exhaustively
verifiable.  Each prime of a scanned range gets its own certificate;
no density theorem is invoked.

The backward tree of a target costs only its own nodes, because the
preimages of a point come from a preimage function built once per prime.
When the reduced map is 1-d of degree exactly 2 mod an odd p, the
preimages of y are the roots of f(x) = y, by the quadratic formula with
Euler's criterion and a modular square root, and no table is built.  Any
other map gets one table of images: a full-space scan names each point by
its index sum x_i p^i, evaluates the map on all points at once
(horner_table, one list per Horner step), and sorts the indices by image,
so the preimages of a point are one run of that order, found by bisection.
The backward search itself decides periodicity: two of its levels meet
exactly when the target lies on a cycle.  So each prime gets one pass,
and its verdict does not depend on the order of the targets.  The scan for
residue-periodic points on the variety reads the same table of images
once, as a functional graph, and marks its cycles.

Two walkers serve every orbit reading.  orbit_hits runs Brent's search
once and keeps the indices whose residue satisfies a predicate, as a tail
set plus classes mod the cycle length: return screening tests the variety
with it.  exact_orbit yields a, f(a), ... over the rationals while every
coordinate fits a bit budget: return certification and the
non-preperiodicity check iterate it.
"""

from bisect import bisect_left, bisect_right
from collections.abc import Callable, Iterator
from fractions import Fraction
from typing import NamedTuple

from .errors import BudgetExceeded, InputError
from .padic import is_prime
from .polynomials import (
    ModularMap,
    horner_form,
    horner_table,
    poly_degree,
    reduce_rational,
)
from .problemfile import ProblemInstance

#: Cap on full-space scans over F_p^N (a scan holds about 112 B a point).
#: It bounds the image table of preimage_buckets and the scan for periodic
#: points; the quadratic-formula preimages of a 1-d map hold no table.
ENUM_GUARD = 2**20


def bad_primes(inst: ProblemInstance, search_bound: int) -> list[int]:
    """The bad primes up to search_bound, ascending: the primes that divide
    the instance's denominator.  Every prime dividing it is bad, whatever its
    size, and the problem reduces exactly at the other primes; each bad-prime
    decision reads that divisibility, so no denominator is ever factored."""
    den = inst.denominator
    return [p for p in range(2, search_bound + 1) if den % p == 0 and is_prime(p)]


def reduce_instance(inst: ProblemInstance, p: int):
    """Reduced map, reduced initial point, and reduced targets at a good prime.

    Refuses a bad prime, one dividing the instance's denominator.
    Reduction commutes with evaluation by construction; the property suite
    spot-checks this on random instances.
    """
    if inst.denominator % p == 0:
        raise InputError(f"prime {p} is bad for this instance: it divides a denominator")
    fp = ModularMap.from_map(inst.mapping, p)
    a_p = tuple(reduce_rational(x, p) for x in inst.initial_point)
    targets_p = tuple(tuple(reduce_rational(x, p) for x in t) for t in inst.targets)
    return fp, a_p, targets_p


class OrbitSummary(NamedTuple):
    """Minimal tail/cycle data of one forward orbit; entry is x_tail, where the cycle starts."""

    entry: tuple[int, ...]
    tail: int
    cycle: int


def orbit_summary(
    fp: ModularMap, x: tuple[int, ...], limit: int | None = None, visit=None
) -> OrbitSummary | None:
    """Brent cycle detection: O(tail + cycle) map evaluations, O(1) state.

    `visit(n, x_n)` is called on the points x_0, x_1, ... in order, through
    at least index tail + cycle - 1.  With `limit`, the search gives up and
    returns None once x_limit has been visited and no cycle has closed, so
    it costs at most limit + 1 map evaluations.
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
    return OrbitSummary(tortoise, mu, lam)


class OrbitHits(NamedTuple):
    """Indices n (up to a limit, if one was set) where x_n satisfies a predicate.

    The orbit is a tail of `tail` residues followed by a cycle of `cycle`
    residues.  `hits` holds the hit indices below tail + cycle; a hit
    c >= tail stands for every index c + j*cycle.  When no cycle closes by
    the limit, tail is limit + 1 with a cycle of 1 and no cycle hit: only
    indices up to the limit are then known.
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

    def up_to(self, n_max: int) -> Iterator[int]:
        """The hit indices <= n_max, one cycle class after another, generated
        so that a caller filtering them holds only the ones it keeps."""
        for h in self.hits:
            if h >= self.tail:
                yield from range(h, n_max + 1, self.cycle)
            elif h <= n_max:
                yield h


def orbit_hits(fp: ModularMap, x: tuple[int, ...], hit, limit: int | None) -> OrbitHits:
    """Brent's search for (tail, cycle), testing hit(x_n) on each residue it visits.

    With `limit` the search stops after x_limit when no cycle has closed,
    so it costs O(min(tail + cycle, limit)) map evaluations.
    """
    hits = set()

    def visit(n, pt):
        if hit(pt):
            hits.add(n)

    summary = orbit_summary(fp, x, limit, visit)
    if summary is None:
        return OrbitHits(limit + 1, 1, frozenset(hits))
    end = summary.tail + summary.cycle
    return OrbitHits(summary.tail, summary.cycle, frozenset(h for h in hits if h < end))


def exact_orbit(inst: ProblemInstance, bit_budget: int):
    """a, f(a), f(f(a)), ... over the rationals, while every coordinate's
    numerator and denominator together fit in bit_budget bits."""
    pt = tuple(Fraction(x) for x in inst.initial_point)
    while all(x.numerator.bit_length() + x.denominator.bit_length() <= bit_budget for x in pt):
        yield pt
        pt = inst.mapping.evaluate(pt)


def _space_columns(fp: ModularMap) -> list:
    """The coordinate columns of every point of F_p^N, the first varying fastest.

    Point k of a full-space scan is the x with k = sum x_i p^i, so column i
    repeats each residue p^i times, and that run p^(N-1-i) times.  A space
    above ENUM_GUARD is refused.
    """
    p, n = fp.modulus, fp.nvars
    if p**n > ENUM_GUARD:
        raise BudgetExceeded(f"space size {p**n} exceeds the enumeration guard")
    if n == 1:
        return [range(p)]
    return [[x for x in range(p) for _ in range(p**i)] * p ** (n - 1 - i) for i in range(n)]


def _point(k: int, fp: ModularMap) -> tuple[int, ...]:
    """The point x of F_p^N with index k = sum x_i p^i."""
    p = fp.modulus
    return tuple(k // p**i % p for i in range(fp.nvars))


def _image_table(fp: ModularMap, cols) -> list[int]:
    """The index of f(x) for every point x of a full-space scan, in index
    order: one horner_table per coordinate over the columns cols."""
    p = fp.modulus
    table = horner_table(fp.forms[-1], cols, p)
    for form in fp.forms[-2::-1]:
        table = [t * p + v for t, v in zip(table, horner_table(form, cols, p))]
    return table


def _cyclic(image: list[int]) -> bytearray:
    """Which points of the functional graph k -> image[k] lie on a cycle.

    Each walk marks the points it visits with its own number and stops at
    the first marked point; when that point carries its own number, the
    walk has met itself there, and that point's cycle is marked.  Every
    point is visited once, so the pass is linear in the size of the space.
    """
    walk = [0] * len(image)
    cyclic = bytearray(len(image))
    for start in range(len(image)):
        k = start
        while not walk[k]:
            walk[k] = start + 1
            k = image[k]
        if walk[k] == start + 1:
            while not cyclic[k]:
                cyclic[k] = 1
                k = image[k]
    return cyclic


def periodic_points_on_variety(fp: ModularMap, variety_mod: list[dict]) -> list[tuple[int, ...]]:
    """All residue points on the variety that lie on a cycle of the reduced
    map, in index order.

    The map and the variety polynomials are evaluated on the whole space at
    once, and one pass over the image table finds every cyclic point.  A
    space above ENUM_GUARD is refused.
    """
    cols = _space_columns(fp)
    cyclic = _cyclic(_image_table(fp, cols))
    found = [k for k, on in enumerate(cyclic) if on]
    for q in variety_mod:
        values = horner_table(horner_form(q), cols, fp.modulus)
        found = [k for k in found if not values[k]]
    return [_point(k, fp) for k in found]


def _sqrt_mod(p: int) -> Callable[[int], int]:
    """A square root mod an odd prime p: a function from a nonzero square d
    to one s with s^2 = d, by Tonelli-Shanks, with the one non-square it
    needs found here.  For p = 3 mod 4 its loop never runs, and the root is
    d^((p+1)/4)."""
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)
    zq = pow(z, q, p)

    def sqrt(d: int) -> int:
        m, c, t, r = s, zq, pow(d, q, p), pow(d, (q + 1) // 2, p)
        while t != 1:
            i, t2 = 1, t * t % p
            while t2 != 1:
                i, t2 = i + 1, t2 * t2 % p
            b = pow(c, 1 << (m - i - 1), p)
            m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
        return r

    return sqrt


def _table_preimages(fp: ModularMap) -> Callable[[int], list[int]]:
    """The preimage function of fp read off one full-space scan: the images
    of all points are one table, evaluated column-wise, the points are
    sorted by image, and the preimages of y are the run of points with
    image y, in index order, found by bisection.  A space above ENUM_GUARD
    is refused."""
    table = _image_table(fp, _space_columns(fp))
    order = sorted(range(len(table)), key=table.__getitem__)
    images = [table[k] for k in order]

    def run(y: int) -> list[int]:
        lo = bisect_left(images, y)
        return order[lo:bisect_right(images, y, lo)]

    return run


def preimage_buckets(fp: ModularMap) -> Callable[[int], list[int]]:
    """The preimage function of fp, a map mod a prime p: it sends the index
    of a point y to the list of indices x with f(x) = y, where the index of
    a point is sum x_i p^i.

    For a 1-d map of degree exactly 2 mod an odd p, f = a x^2 + b x + c,
    the preimages of y solve (2ax + b)^2 = b^2 - 4a(c - y): Euler's
    criterion decides whether the right side is a square, and its square
    roots give the roots, with no table.  Every other map gets the table
    of _table_preimages, which is refused above ENUM_GUARD.
    """
    p = fp.modulus
    if not (fp.nvars == 1 and p % 2 and poly_degree(fp.polys[0]) == 2):
        return _table_preimages(fp)
    poly = fp.polys[0]
    a, b, c = (poly.get((k,), 0) for k in (2, 1, 0))
    disc, four_a, half = b * b - 4 * a * c, 4 * a, (p - 1) // 2
    inv, sqrt = pow(2 * a, -1, p), _sqrt_mod(p)

    def roots(y: int) -> list[int]:
        d = (disc + four_a * y) % p
        if d == 0:
            return [-b * inv % p]
        if pow(d, half, p) != 1:
            return []
        s = sqrt(d)
        return [(s - b) * inv % p, (-s - b) * inv % p]

    return roots


def first_hit_depth(fp: ModularMap, gamma: tuple[int, ...], preimages) -> int | None:
    """Largest m such that some residue point satisfies f^m(x) = gamma, or
    None when gamma is periodic: a backward breadth-first search, each
    node's preimages given by preimages, the preimage_buckets function of fp.

    Level i holds the x with f^i(x) = gamma.  If x lies in levels i < j,
    then f^(j-i)(gamma) = gamma; conversely a period l puts gamma back in
    level l.  So the search stops with None when a level meets an earlier
    one, which happens exactly when gamma is periodic, and otherwise ends
    at an empty level, since disjoint levels hold at most the whole space.
    """
    p = fp.modulus
    level = [sum(x * p**i for i, x in enumerate(gamma))]
    seen = set(level)
    depth = 0
    while True:
        nxt: list = []
        for y in level:
            nxt += preimages(y)
        if not nxt:
            return depth
        if not seen.isdisjoint(nxt):
            return None
        seen.update(nxt)
        level = nxt
        depth += 1


def avoidance_search(inst: ProblemInstance, primes) -> list[dict]:
    """The rows of the certificates record: one per prime, in prime order,
    each {"prime", "verdict", "bound", "depths"}, tried in one pass per prime.

    A certified row (p, M) asserts that for every x in F_p^N and every
    m >= M, the m-th iterate of x differs from every reduced target.  Each
    good prime with targets reduces the instance once and builds one
    preimage function, which serves a backward search per target, and
    depths lists each target's first-hit depth.  A search that finds its
    target periodic gives None, and then the verdict is failed-periodic;
    otherwise M = 1 + the largest depth (0 when there are no targets).  Only
    a space too large for the image table gets an orbit walk per target
    instead, so that a periodic target there still fails the prime rather
    than the run.  The verdict depends on the set of targets, not their
    order.  Failures (failed-periodic, failed-bad-prime) are recorded
    verdicts with no bound and no depths, never exceptions.
    """
    rows = []
    for p in sorted(primes):
        # failed until every target gets a depth
        row = {"prime": p, "verdict": "failed-periodic", "bound": None, "depths": []}
        rows.append(row)
        if inst.denominator % p == 0:
            row["verdict"] = "failed-bad-prime"
            continue
        fp, _, targets_p = reduce_instance(inst, p)
        try:
            preimages = preimage_buckets(fp) if targets_p else None
        except BudgetExceeded:
            if not any(orbit_summary(fp, t).tail == 0 for t in targets_p):
                raise
            continue
        depths = [first_hit_depth(fp, t, preimages) for t in targets_p]
        if None not in depths:
            row.update(verdict="certified", bound=1 + max(depths, default=-1), depths=depths)
    return rows
