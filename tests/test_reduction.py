"""Residue dynamics: bad primes, orbits, preimage depth, avoidance certificates."""

from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padic_oracles import (
    exact_period,
    first_hit_depth_reference,
    fixing_iterate,
    map_from_lists,
    on_cycle,
    periodic_points_on_variety_reference,
    residue_orbit_avoids,
)

from orbitgap import pipeline, reduction
from orbitgap.errors import BudgetExceeded, HypothesisViolation, InputError
from orbitgap.padic import is_prime
from orbitgap.polynomials import ModularMap, poly_degree, reduce_poly
from orbitgap.problemfile import ProblemInstance, load_problem
from orbitgap.reduction import (
    avoidance_search,
    bad_primes,
    first_hit_depth,
    orbit_summary,
    periodic_points_on_variety,
    preimage_buckets,
    reduce_instance,
)

SQ_PLUS_ONE = map_from_lists(1, [{(2,): 1, (0,): 1}])
SQ_PLUS_ONE_FILE = Path(__file__).resolve().parents[1] / "problems" / "square_plus_one.json"
SMALL_PRIMES = [p for p in range(2, 301) if is_prime(p)]


def _instance(map_polys, a, variety=None, targets=(), dim=1):
    f = map_from_lists(dim, map_polys)
    variety = tuple(variety or [{(0,) * dim: Fraction(0)}])
    return ProblemInstance(dim, f, tuple(Fraction(x) for x in a), variety, targets)


def test_constant_coordinate_rejected():
    with pytest.raises(HypothesisViolation):
        _instance([{(0,): 3}], (0,))


def test_bad_primes_denominators():
    # a denominator prime is bad whatever the bound; the record lists it
    # only once the bound reaches it
    inst = _instance([{(2,): Fraction(1, 2)}], (0,))
    bad = bad_primes(inst, search_bound=0)
    assert 2 in bad
    assert 2 not in bad.primes
    for search_bound in (2, 3, 50):
        assert bad_primes(inst, search_bound=search_bound).primes == {2}
    inst2 = _instance([{(2,): 1, (0,): 1}], (0,))
    assert bad_primes(inst2, search_bound=0).primes == frozenset()
    # a target's denominator counts too
    inst3 = _instance([{(1,): 1, (0,): 1}], (0,), targets=((Fraction(1, 5),),))
    assert 5 in bad_primes(inst3, search_bound=0)
    assert bad_primes(inst3, search_bound=11).primes == {5}


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_bad_primes_by_divisibility(data):
    """Denominators with a 19- or 27-digit prime factor are never factored:
    for every p <= 300, p is bad exactly when it divides a denominator of
    the map, the initial point, the variety or a declared target, and
    bad.primes holds those p up to the search bound.  A target t of
    x^2/d + c with p | t and p | c is fixed mod p where the map's
    derivative vanishes, and p is still good: the avoidance certificate,
    not the bad-prime set, decides how a target behaves mod p."""
    dens = [1, 1, 1, 1]  # of a map coefficient, the initial point, the variety, the targets
    for q in [data.draw(st.sampled_from([2**61 - 1, 2**89 - 1]))] + data.draw(
        st.lists(st.sampled_from(SMALL_PRIMES), max_size=4)
    ):
        dens[data.draw(st.integers(0, 3))] *= q
    targets = data.draw(st.lists(st.integers(-60, 60), min_size=1, max_size=2))
    inst = _instance(
        [{(2,): Fraction(1, dens[0]), (0,): data.draw(st.integers(-60, 60))}],
        (Fraction(1, dens[1]),),
        variety=[{(1,): 1, (0,): Fraction(-1, dens[2])}],
        targets=tuple((t + Fraction(1, dens[3]),) for t in targets),
    )
    search_bound = data.draw(st.integers(0, 300))
    bad = bad_primes(inst, search_bound)
    divisors = {p for p in SMALL_PRIMES if any(d % p == 0 for d in dens)}
    assert {p for p in SMALL_PRIMES if p in bad} == divisors
    assert bad.primes == {p for p in divisors if p <= search_bound}


def test_target_fixed_mod_p_fails_the_prime_as_periodic():
    # x^2 - 42 fixes 7, and its second branch -7 meets 7 exactly mod 7: the
    # backward search finds the target periodic there, and 7 stays good
    inst = _instance([{(2,): 1, (0,): -42}], (1,), targets=((Fraction(7),),))
    bad = bad_primes(inst, search_bound=11)
    assert 7 not in bad and bad.primes == frozenset()
    (cert,) = avoidance_search(inst, [7], bad)
    assert cert["verdict"] == "failed-periodic"


def test_reduce_examples():
    inst = _instance([{(1,): Fraction(3, 2), (0,): Fraction(1, 2)}], (7,))
    fp, a_p, _ = reduce_instance(inst, 5, bad_primes(inst, search_bound=0))
    assert fp.polys[0] == {(1,): 4, (0,): 3}
    assert a_p == (2,)
    with pytest.raises(InputError):
        reduce_instance(inst, 2, bad_primes(inst, search_bound=0))  # denominator prime


def test_reduce_point_example():
    inst = _instance(
        [{(2, 0): 1}, {(0, 2): 1}], (7, -1), dim=2,
        variety=[{(0, 0): Fraction(0)}],
    )
    _, a_p, _ = reduce_instance(inst, 5, bad_primes(inst, search_bound=0))
    assert a_p == (2, 4)


def test_orbit_summaries():
    fp3 = ModularMap.from_map(SQ_PLUS_ONE, 3)
    s = orbit_summary(fp3, (0,))
    assert (s.tail, s.cycle) == (2, 1)  # 0 -> 1 -> 2 -> 2
    fp5 = ModularMap.from_map(SQ_PLUS_ONE, 5)
    s = orbit_summary(fp5, (0,))
    assert (s.tail, s.cycle) == (0, 3)  # 0 -> 1 -> 2 -> 0
    ident = ModularMap.from_map(map_from_lists(1, [{(1,): 1}]), 7)
    s = orbit_summary(ident, (4,))
    assert (s.tail, s.cycle) == (0, 1)


def test_periodic_points_on_variety():
    fp5 = ModularMap.from_map(SQ_PLUS_ONE, 5)
    # V: x - 3 = 0: the point 3 has a tail (3 -> 0 -> 1 -> 2 -> 0), not periodic
    assert periodic_points_on_variety(fp5, [reduce_poly({(1,): Fraction(1), (0,): Fraction(-3)}, 5)]) == []
    # V = everything: the 3-cycle {0, 1, 2}
    assert periodic_points_on_variety(fp5, []) == [(0,), (1,), (2,)]
    ident = ModularMap.from_map(map_from_lists(1, [{(1,): 1}]), 5)
    assert periodic_points_on_variety(ident, [reduce_poly({(1,): Fraction(1), (0,): Fraction(-2)}, 5)]) == [(2,)]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_periodic_points_on_variety_matches_brent_oracle(data):
    """One pass over the image table finds the residue-periodic points on
    the variety that a Brent walk from every point finds, in the same
    order, on random 1-, 2- and 3-d maps mod 3, 5 and 7, with the map and
    each variety polynomial drawn from the same monomials."""
    n = data.draw(st.integers(1, 3))
    p = data.draw(st.sampled_from([3, 5, 7]))
    monomial = st.tuples(*[st.integers(0, 3)] * n).filter(lambda e: sum(e) <= 3)
    poly = st.dictionaries(monomial, st.integers(0, p - 1), max_size=4)
    fp = ModularMap.from_map(map_from_lists(n, [data.draw(poly) for _ in range(n)]), p)
    variety = [reduce_poly(q, p) for q in data.draw(st.lists(poly, max_size=2))]
    assert periodic_points_on_variety(fp, variety) == periodic_points_on_variety_reference(
        fp, variety
    )


def test_first_hit_depth_examples():
    fp5 = ModularMap.from_map(SQ_PLUS_ONE, 5)
    assert first_hit_depth(fp5, (3,), preimage_buckets(fp5)) == 0  # squares mod 5 omit 2
    # a periodic target fails the prime: its backward search meets an
    # earlier level and gives None, on the roots path (x^2 + 1 mod 5) and on
    # the table path (3x, which is 0 mod 3)
    on_cycle_of_five = _instance([{(2,): 1, (0,): 1}], (0,), targets=((Fraction(0),),))
    zero_fixed = _instance([{(1,): 3}], (1,), targets=((Fraction(0),),))  # 3x = 0 mod 3
    for inst, p in ((on_cycle_of_five, 5), (zero_fixed, 3)):
        cert = avoidance_search(inst, [p], bad_primes(inst, search_bound=0))[0]
        assert cert["verdict"] == "failed-periodic"
        fp = ModularMap.from_map(inst.mapping, p)
        assert first_hit_depth(fp, (0,), preimage_buckets(fp)) is None


def test_preimage_levels_disjoint():
    # every target shares one scan, and its depth is the largest m with
    # f^m(x) = gamma over all x: a forward orbit meets a non-periodic point
    # at most once, within its tail of fewer than p steps
    fp = ModularMap.from_map(map_from_lists(1, [{(2,): 1, (0,): 2}]), 11)
    scan = preimage_buckets(fp)
    for gamma in [(g,) for g in range(11)]:
        if on_cycle(fp, gamma):
            continue
        hits = []
        for x in range(11):
            pt = (x,)
            for m in range(11):
                if pt == gamma:
                    hits.append(m)
                pt = fp(pt)
        assert first_hit_depth(fp, gamma, scan) == max(hits)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_sorted_image_scan_matches_dict_oracle(data):
    """Depths read off one shared preimage function equal those of the
    dict-of-tuples oracle on random 1-, 2- and 3-d maps, None included, and
    so does the orbit walk that decides periodicity above the guard.  Above
    ENUM_GUARD the table and the oracle refuse, and the oracle still gives
    every periodic target None; a 1-d quadratic mod an odd p holds no table,
    so the guard leaves its depths unchanged."""
    n = data.draw(st.integers(1, 3))
    p = data.draw(st.sampled_from([2, 3, 5, 7, 11]))
    monomial = st.tuples(*[st.integers(0, 3)] * n).filter(lambda e: sum(e) <= 3)
    polys = [
        data.draw(st.dictionaries(monomial, st.integers(0, p - 1), max_size=4))
        for _ in range(n)
    ]
    fp = ModularMap.from_map(map_from_lists(n, polys), p)
    point = st.tuples(*[st.integers(0, p - 1)] * n)
    targets = data.draw(st.lists(point, min_size=1, max_size=4))
    targets.insert(data.draw(st.integers(0, len(targets))), fp.iterate(targets[0], p**n))

    scan = preimage_buckets(fp)
    depths = [first_hit_depth(fp, gamma, scan) for gamma in targets]
    assert depths == [first_hit_depth_reference(fp, gamma) for gamma in targets]
    assert [d is None for d in depths] == [orbit_summary(fp, g).tail == 0 for g in targets]
    assert None in depths  # the iterate p^n of any point lies on a cycle

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reduction, "ENUM_GUARD", p**n - 1)
        if n == 1 and p % 2 and poly_degree(fp.polys[0]) == 2:
            scan = preimage_buckets(fp)
            assert [first_hit_depth(fp, gamma, scan) for gamma in targets] == depths
        else:
            with pytest.raises(BudgetExceeded):
                preimage_buckets(fp)
        for gamma, depth in zip(targets, depths):
            if depth is None:
                assert first_hit_depth_reference(fp, gamma) is None
            else:
                with pytest.raises(BudgetExceeded):
                    first_hit_depth_reference(fp, gamma)


def test_periodic_target_above_the_guard_is_failed_periodic(monkeypatch):
    # x^3 + x^2 mod 5 fixes 0 and sends 4 -> 0, so 4 is not periodic.  Its
    # space is above the guard, so it gets no image table: an orbit walk
    # finds the periodic target, and without one the run is out of budget
    monkeypatch.setattr(reduction, "ENUM_GUARD", 4)
    cubic = _instance([{(3,): 1, (2,): 1}], (2,), targets=((Fraction(4),), (Fraction(0),)))
    cert = avoidance_search(cubic, [5], bad_primes(cubic, search_bound=5))[0]
    assert cert["verdict"] == "failed-periodic"
    tail_only = cubic._replace(targets=((Fraction(4),),))
    with pytest.raises(BudgetExceeded):
        avoidance_search(tail_only, [5], bad_primes(tail_only, search_bound=5))
    fp = ModularMap.from_map(cubic.mapping, 5)
    for scan in (preimage_buckets, lambda fp: periodic_points_on_variety(fp, [])):
        with pytest.raises(BudgetExceeded):
            scan(fp)
    # x^2 + 1 mod 5 takes the roots, which hold no table, so the guard does
    # not apply: 0 on its 3-cycle fails the prime, and 3 gets its depth
    for target, verdict in ((0, "failed-periodic"), (3, "certified")):
        inst = _instance([{(2,): 1, (0,): 1}], (0,), targets=((Fraction(target),),))
        cert = avoidance_search(inst, [5], bad_primes(inst, search_bound=5))[0]
        assert cert["verdict"] == verdict


def test_avoidance_evaluates_the_map_column_wise(monkeypatch):
    """The avoidance scan still goes through preimage_buckets and
    first_hit_depth, one depth per target at every good prime, periodic ones
    included, and the run calls the map at fewer points than a fifth of the
    spaces it scans, so a per-point scan cannot come back unnoticed."""
    counts = {"scans": 0, "space": 0, "depths": 0, "map": 0}
    buckets, depth = preimage_buckets, first_hit_depth
    call = ModularMap.__call__

    def counting_buckets(fp):
        counts["scans"] += 1
        counts["space"] += fp.modulus**fp.nvars
        return buckets(fp)

    def counting_depth(*args):
        counts["depths"] += 1
        return depth(*args)

    def counting_call(self, point):
        counts["map"] += 1
        return call(self, point)

    monkeypatch.setattr(reduction, "preimage_buckets", counting_buckets)
    monkeypatch.setattr(reduction, "first_hit_depth", counting_depth)
    monkeypatch.setattr(ModularMap, "__call__", counting_call)
    inst, params, sha = load_problem(str(SQ_PLUS_ONE_FILE))
    report = pipeline.run("primes", inst, params._replace(prime_range=(3, 200)), sha)
    assert report.error is None
    rows = report.records[-1]["rows"]
    assert len(rows) == sum(1 for p in range(3, 201) if is_prime(p))
    # one depth per target (the sample declares one) at each good prime
    good = sum(r["verdict"] != "failed-bad-prime" for r in rows)
    assert counts["depths"] == len(inst.targets) * good
    assert good > sum(r["verdict"] == "certified" for r in rows)
    assert counts["scans"] > 0
    assert counts["map"] < counts["space"] / 5, counts


def test_avoidance_examples():
    inst = _instance([{(2,): 1, (0,): 1}], (0,), targets=((Fraction(3),),))
    certs = avoidance_search(inst, [5], bad_primes(inst, search_bound=5))
    assert certs[0]["verdict"] == "certified"
    assert certs[0]["bound"] == 1
    certs = avoidance_search(inst, [3], bad_primes(inst, search_bound=3))
    assert certs[0]["verdict"] == "certified"
    assert certs[0]["bound"] == 1
    # x^2 with gamma = 0: 0 is fixed, so every prime fails
    inst2 = _instance([{(2,): 1}], (3,), targets=((Fraction(0),),))
    certs = avoidance_search(inst2, [3, 5, 7], bad_primes(inst2, search_bound=7))
    assert all(c["verdict"] == "failed-periodic" for c in certs)
    assert len(certs) == 3 and sum(c["verdict"] == "certified" for c in certs) == 0
    # empty target list: trivially certified with M = 0
    inst3 = _instance([{(2,): 1, (0,): 1}], (0,))
    certs = avoidance_search(inst3, [3, 5], bad_primes(inst3, search_bound=5))
    assert all(c["verdict"] == "certified" and c["bound"] == 0 for c in certs)
    assert len(certs) == sum(c["verdict"] == "certified" for c in certs) == 2


def test_avoidance_bound_monotone_in_targets():
    rng_primes = [5, 7, 11]
    base = _instance([{(2,): 1, (0,): 1}], (0,), targets=((Fraction(3),),))
    larger = _instance(
        [{(2,): 1, (0,): 1}], (0,), targets=((Fraction(3),), (Fraction(4),))
    )
    for p in rng_primes:
        c1 = avoidance_search(base, [p], bad_primes(base, search_bound=p))[0]
        c2 = avoidance_search(larger, [p], bad_primes(larger, search_bound=p))[0]
        if c1["verdict"] == "certified" and c2["verdict"] == "certified":
            assert c2["bound"] >= c1["bound"]


def test_certificate_soundness_window_small():
    """Forward-memoized first-hit times: nothing hits a certified target at m >= M."""
    inst = _instance([{(2,): 1, (0,): 1}], (0,), targets=((Fraction(3),),))
    for p in (5, 7, 11, 13):
        cert = avoidance_search(inst, [p], bad_primes(inst, search_bound=p))[0]
        if cert["verdict"] != "certified":
            continue
        fp, _, targets_p = reduce_instance(inst, p, bad_primes(inst, search_bound=0))
        hits = _forward_first_hits(fp, targets_p[0], p)
        window_hi = cert["bound"] + p**inst.dimension
        assert all(
            m < cert["bound"] or m > window_hi for m in hits.values() if m is not None
        )
        assert all(m is None or m < cert["bound"] for m in hits.values())


def _forward_first_hits(fp, gamma, p):
    """Independent oracle: memoized forward walk over the functional graph."""
    hits: dict = {}

    def first_hit(x, trail):
        if x in hits:
            return hits[x]
        if x == gamma:
            hits[x] = 0
            return 0
        if x in trail:  # entered a cycle not containing gamma
            hits[x] = None
            return None
        trail.add(x)
        nxt = first_hit(fp(x), trail)
        hits[x] = None if nxt is None else nxt + 1
        return hits[x]

    import sys

    old = sys.getrecursionlimit()
    sys.setrecursionlimit(10000 + p**fp.nvars * 3)
    try:
        point = [0] * fp.nvars
        for _ in range(p**fp.nvars):
            first_hit(tuple(point), set())
            for i in range(fp.nvars):
                point[i] += 1
                if point[i] < p:
                    break
                point[i] = 0
    finally:
        sys.setrecursionlimit(old)
    return hits


def test_fixing_iterate():
    # gamma already fixed: k = lcm(1, cycle of a mod p)
    inst = _instance([{(2,): 1}], (3,), targets=((Fraction(0),),))
    fp, a_p, _ = reduce_instance(inst, 7, bad_primes(inst, search_bound=0))
    assert fixing_iterate(inst, 7) == orbit_summary(fp, a_p).cycle
    # f(x) = -x has 1 of period 2
    neg = _instance([{(1,): -1}], (2,), targets=((Fraction(1),),))
    assert exact_period(neg.mapping, (1,)) == 2
    assert fixing_iterate(neg, 5) % 2 == 0
    # declared target that is not periodic
    bad = _instance([{(2,): 1, (0,): 1}], (0,), targets=((Fraction(3),),))
    with pytest.raises(HypothesisViolation):
        exact_period(bad.mapping, (3,), bound=16)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_certified_prime_implies_residue_orbit_avoids(data):
    """A certificate (p, M) covers every point of F_p^N at every iterate
    >= M, so the residue orbit of the initial point misses every target
    there, on random 1- and 2-d maps with random targets; one target is
    an exact iterate of the initial point, which its orbit meets mod p."""
    n = data.draw(st.integers(1, 2))
    monomial = st.tuples(*[st.integers(0, 2)] * n).filter(lambda e: sum(e) <= 2)
    polys = []
    for i in range(n):
        poly = data.draw(st.dictionaries(monomial, st.integers(-6, 6), max_size=4))
        if not any(sum(e) and c for e, c in poly.items()):
            poly[tuple(int(j == i) for j in range(n))] = 1
        polys.append(poly)
    point = st.tuples(*[st.integers(-6, 6).map(Fraction)] * n)
    a = data.draw(point)
    targets = data.draw(st.lists(point, min_size=1, max_size=3))
    inst = _instance(polys, a, dim=n)
    orbit_point = a
    for _ in range(data.draw(st.integers(0, 3))):
        orbit_point = inst.mapping.evaluate(orbit_point)
    inst = inst._replace(targets=(*targets, orbit_point))
    bad = bad_primes(inst, search_bound=13)
    for cert in avoidance_search(inst, [2, 3, 5, 7, 11, 13], bad):
        if cert["verdict"] == "certified":
            fp, a_p, targets_p = reduce_instance(inst, cert["prime"], bad)
            assert residue_orbit_avoids(fp, a_p, targets_p, cert["bound"])


def _avoids(inst, p, bound):
    fp, a_p, targets_p = reduce_instance(inst, p, bad_primes(inst, search_bound=0))
    return residue_orbit_avoids(fp, a_p, targets_p, bound)


def test_residue_orbit_avoids():
    inst = _instance([{(2,): 1, (0,): 1}], (0,), targets=((Fraction(3),),))
    assert _avoids(inst, 5, 1)
    # target on the orbit cycle fails regardless of the bound
    inst2 = _instance([{(2,): 1, (0,): 1}], (0,), targets=((Fraction(2),),))
    assert not _avoids(inst2, 5, 10)

    # mod 3 the orbit is 0 -> 1 -> 2 -> 2: a tail of two, then a fixed point
    def avoids(target, bound):
        inst = _instance([{(2,): 1, (0,): 1}], (0,), targets=((Fraction(target),),))
        return _avoids(inst, 3, bound)

    assert not avoids(1, 1) and avoids(1, 2)
    assert not avoids(0, 0) and avoids(0, 1)
    assert not any(avoids(2, bound) for bound in range(6))


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_orbit_summary_matches_dict_walk(data):
    """Brent's detector against the obvious visited-index walk."""
    p = data.draw(st.sampled_from([3, 5, 7, 11]))
    coeffs = {
        (2,): data.draw(st.integers(0, p - 1)),
        (1,): data.draw(st.integers(0, p - 1)),
        (0,): data.draw(st.integers(0, p - 1)),
    }
    if coeffs[(2,)] == 0 and coeffs[(1,)] == 0:
        coeffs[(1,)] = 1
    fp = ModularMap.from_map(map_from_lists(1, [coeffs]), p)
    x = (data.draw(st.integers(0, p - 1)),)
    summary = orbit_summary(fp, x)
    # visit sees x_0, x_1, ... in order; a limit below the last visited
    # index gives up, and any other limit changes nothing
    visited = []
    assert orbit_summary(fp, x, visit=lambda n, pt: visited.append((n, pt))) == summary
    assert len(visited) >= summary.tail + summary.cycle
    assert summary.entry == visited[summary.tail][1]
    pt = x
    for n, seen_pt in visited:
        assert seen_pt == pt
        pt = fp(pt)
    limit = data.draw(st.integers(0, 3 * p))
    assert orbit_summary(fp, x, limit=limit) == (summary if limit >= len(visited) - 1 else None)
    seen = {}
    pt, i = x, 0
    while pt not in seen:
        seen[pt] = i
        pt = fp(pt)
        i += 1
    assert summary.tail == seen[pt]
    assert summary.cycle == i - seen[pt]


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_avoidance_depth_equals_bruteforce(data):
    """BFS preimage depth against per-point forward iteration, small spaces."""
    p = data.draw(st.sampled_from([3, 5, 7]))
    coeffs = {
        (2,): data.draw(st.integers(0, p - 1)),
        (1,): data.draw(st.integers(0, p - 1)),
        (0,): data.draw(st.integers(0, p - 1)),
    }
    if coeffs[(2,)] == 0 and coeffs[(1,)] == 0:
        coeffs[(1,)] = 1
    f = map_from_lists(1, [coeffs])
    fp = ModularMap.from_map(f, p)
    gamma = (data.draw(st.integers(0, p - 1)),)
    scan = preimage_buckets(fp)
    assert (orbit_summary(fp, gamma).tail == 0) == on_cycle(fp, gamma)
    depth = first_hit_depth(fp, gamma, scan)
    assert (depth is None) == on_cycle(fp, gamma)
    if depth is None:
        return
    brute = -1
    for x in range(p):
        pt = (x,)
        for m in range(p + depth + 2):
            if pt == gamma and m > brute:
                brute = m
            pt = fp(pt)
    assert depth == brute


#: p = 3 mod 4 takes the square root d^((p+1)/4); the rest have 2^4 to 2^9
#: dividing p - 1, so Tonelli-Shanks runs 4 to 9 squaring levels.
ROOT_PRIMES = [3, 7, 11, 19, 43, 103, 499, 17, 97, 193, 257, 641, 7681]


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_quadratic_preimages_by_roots(data):
    """a x^2 + b x + c mod p, with a = 0 mod p now and then (the table
    path): the preimage function gives, for every y in F_p, the set of
    points the image table sends to y; first_hit_depth agrees with the
    dict oracle, None included; and the verdict, bound and depths of
    avoidance_search do not depend on the order of up to four targets,
    one of them periodic mod p, nor of the others without it."""
    p = data.draw(st.sampled_from(ROOT_PRIMES))
    a = data.draw(st.sampled_from([0, p, -3 * p]) | st.integers(-50, 50))
    b, c = data.draw(st.integers(-50, 50)), data.draw(st.integers(-50, 50))
    if a == b == 0:
        b = 1
    inst = _instance([{(2,): a, (1,): b, (0,): c}], (0,))
    fp = ModularMap.from_map(inst.mapping, p)
    scans = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reduction, "_space_columns", lambda fp: scans.append(fp) or [range(p)])
        preimages = preimage_buckets(fp)
    assert len(scans) == (a % p == 0)  # only a vanishing x^2 term takes the table
    table = reduction._table_preimages(fp)
    for y in range(p):
        assert sorted(preimages(y)) == table(y)

    residues = data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=3, unique=True))
    periodic = fp.iterate((residues[0],), p)
    targets = [(r,) for r in residues]
    for gamma in [*targets, periodic]:
        assert first_hit_depth(fp, gamma, preimages) == first_hit_depth_reference(fp, gamma)

    for points in ([*targets, periodic], targets):
        outcomes = set()
        for order in permutations(points):
            ordered = inst._replace(targets=tuple((Fraction(x),) for (x,) in order))
            cert = avoidance_search(ordered, [p], bad_primes(ordered, search_bound=p))[0]
            depth_of = dict(zip(order, cert["depths"]))
            outcomes.add((cert["verdict"], cert["bound"], tuple(depth_of.get(t) for t in points)))
        assert len(outcomes) == 1, outcomes


def test_avoidance_in_one_dimension_needs_no_map_call_and_no_table(monkeypatch):
    """On the 1-d quadratic sample the backward trees come from roots: the
    avoidance stage calls neither the map nor the full-space scan.  A 2-d
    map with a target still builds one table per good prime."""
    calls = {"map": 0, "scan": 0}
    call, columns = ModularMap.__call__, reduction._space_columns

    def counting_call(self, point):
        calls["map"] += 1
        return call(self, point)

    def counting_columns(fp):
        calls["scan"] += 1
        return columns(fp)

    inst, _, _ = load_problem(str(SQ_PLUS_ONE_FILE))
    primes = [p for p in range(3, 201) if is_prime(p)]
    bad = bad_primes(inst, search_bound=200)
    monkeypatch.setattr(ModularMap, "__call__", counting_call)
    monkeypatch.setattr(reduction, "_space_columns", counting_columns)
    certs = avoidance_search(inst, primes, bad)
    assert {c["verdict"] for c in certs} == {"certified", "failed-periodic"}
    assert calls == {"map": 0, "scan": 0}

    swap = _instance(
        [{(0, 1): 1, (2, 0): 1}, {(1, 0): 1, (0, 2): 1, (0, 0): 3}], (0, 0), dim=2,
        targets=((Fraction(1), Fraction(1)),),
    )
    bad = bad_primes(swap, search_bound=13)
    certs = avoidance_search(swap, [3, 5, 7, 11, 13], bad)
    assert calls["scan"] == sum(c["verdict"] != "failed-bad-prime" for c in certs) > 0
