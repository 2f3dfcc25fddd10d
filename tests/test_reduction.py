"""Residue dynamics: bad primes, orbits, preimage depth, avoidance certificates."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padic_oracles import exact_period, fixing_iterate, on_cycle

from orbitgap.errors import HypothesisViolation, InputError
from orbitgap.polynomials import ModularMap, PolyMap, reduce_poly
from orbitgap.reduction import (
    ProblemInstance,
    avoidance_search,
    bad_primes,
    first_hit_depth,
    orbit_summary,
    periodic_points_on_variety,
    preimage_buckets,
    reduce_instance,
    residue_orbit_avoids,
)

SQ_PLUS_ONE = PolyMap.from_lists(1, [{(2,): 1, (0,): 1}])


def _instance(map_polys, a, variety=None, targets=(), dim=1):
    f = PolyMap.from_lists(dim, map_polys)
    variety = tuple(variety or [{(0,) * dim: Fraction(0)}])
    return ProblemInstance(dim, f, tuple(Fraction(x) for x in a), variety, targets)


def test_constant_coordinate_rejected():
    with pytest.raises(HypothesisViolation):
        _instance([{(0,): 3}], (0,))


def test_bad_primes_denominators():
    inst = _instance([{(2,): Fraction(1, 2)}], (0,))
    assert 2 in bad_primes(inst).primes
    inst2 = _instance([{(2,): 1, (0,): 1}], (0,))
    assert bad_primes(inst2).primes == frozenset()


def test_bad_primes_target_collision():
    # x^2 with gamma = 1: the other preimage -1 collides with 1 exactly mod 2,
    # detected as a singular self-fiber; odd primes stay good
    inst = _instance([{(2,): 1}], (3,), targets=((Fraction(1),),))
    bad = bad_primes(inst, search_bound=11)
    assert 2 not in bad.primes  # 2 is not even scanned: contexts need p >= 3
    assert all(p not in bad.primes for p in (3, 5, 7, 11))
    # x^2 - x + 1 fixes 1 with f'(1) = 1, never singular: no collision primes
    inst2 = _instance([{(2,): 1, (1,): -1, (0,): 1}], (3,), targets=((Fraction(1),),))
    assert bad_primes(inst2, search_bound=11).primes == frozenset()
    # x^2 - 42 fixes 7; the second branch -7 collides with 7 exactly mod 7
    inst3 = _instance([{(2,): 1, (0,): -42}], (1,), targets=((Fraction(7),),))
    bad3 = bad_primes(inst3, search_bound=11)
    assert 7 in bad3.primes
    assert all(p not in bad3.primes for p in (3, 5, 11))
    # globally critical fixed point (no second branch): never a collision
    inst4 = _instance([{(2,): 1}], (3,), targets=((Fraction(0),),))
    assert bad_primes(inst4, search_bound=11).primes == frozenset()


def test_reduce_examples():
    inst = _instance([{(1,): Fraction(3, 2), (0,): Fraction(1, 2)}], (7,))
    fp, a_p, _ = reduce_instance(inst, 5)
    assert fp.polys[0] == {(1,): 4, (0,): 3}
    assert a_p == (2,)
    with pytest.raises(InputError):
        reduce_instance(inst, 2)  # denominator prime


def test_reduce_point_example():
    inst = _instance(
        [{(2, 0): 1}, {(0, 2): 1}], (7, -1), dim=2,
        variety=[{(0, 0): Fraction(0)}],
    )
    _, a_p, _ = reduce_instance(inst, 5)
    assert a_p == (2, 4)


def test_orbit_summaries():
    fp3 = ModularMap.from_map(SQ_PLUS_ONE, 3)
    s = orbit_summary(fp3, (0,))
    assert (s.tail, s.cycle) == (2, 1)  # 0 -> 1 -> 2 -> 2
    fp5 = ModularMap.from_map(SQ_PLUS_ONE, 5)
    s = orbit_summary(fp5, (0,))
    assert (s.tail, s.cycle) == (0, 3)  # 0 -> 1 -> 2 -> 0
    ident = ModularMap.from_map(PolyMap.from_lists(1, [{(1,): 1}]), 7)
    s = orbit_summary(ident, (4,))
    assert (s.tail, s.cycle) == (0, 1)


def test_orbit_first_hits():
    fp5 = ModularMap.from_map(SQ_PLUS_ONE, 5)
    s = orbit_summary(fp5, (0,), targets=[(2,), (3,)])
    assert s.first_hits[(2,)] == 2
    assert s.first_hits[(3,)] is None


def test_periodic_points_on_variety():
    fp5 = ModularMap.from_map(SQ_PLUS_ONE, 5)
    # V: x - 3 = 0: the point 3 has a tail (3 -> 0 -> 1 -> 2 -> 0), not periodic
    assert periodic_points_on_variety(fp5, [reduce_poly({(1,): Fraction(1), (0,): Fraction(-3)}, 5)]) == []
    # V = everything: the 3-cycle {0, 1, 2}
    assert periodic_points_on_variety(fp5, []) == [(0,), (1,), (2,)]
    ident = ModularMap.from_map(PolyMap.from_lists(1, [{(1,): 1}]), 5)
    assert periodic_points_on_variety(ident, [reduce_poly({(1,): Fraction(1), (0,): Fraction(-2)}, 5)]) == [(2,)]


def test_first_hit_depth_examples():
    fp5 = ModularMap.from_map(SQ_PLUS_ONE, 5)
    depth, tree = first_hit_depth(fp5, (3,))
    assert depth == 0 and tree.depth == 0  # squares mod 5 omit 2
    depth, tree = first_hit_depth(fp5, (0,))
    assert depth is None  # 0 is on the 3-cycle
    zero_map = ModularMap.from_map(PolyMap.from_lists(1, [{(1,): 3}]), 3)
    assert first_hit_depth(zero_map, (0,))[0] is None  # 0 fixed under 3x = 0


def test_preimage_levels_disjoint():
    fp = ModularMap.from_map(PolyMap.from_lists(1, [{(2,): 1, (0,): 2}]), 11)
    buckets = preimage_buckets(fp)
    for gamma in [(g,) for g in range(11)]:
        if not on_cycle(fp, gamma):
            depth, tree = first_hit_depth(fp, gamma, buckets)
            seen = set()
            for level in tree.levels:
                assert not (level & seen)
                seen |= level
            assert depth == tree.depth


def test_avoidance_examples():
    inst = _instance([{(2,): 1, (0,): 1}], (0,), targets=((Fraction(3),),))
    scan = avoidance_search(inst, [5])
    assert scan.certificates[0].verdict == "certified"
    assert scan.certificates[0].bound == 1
    scan = avoidance_search(inst, [3])
    assert scan.certificates[0].verdict == "certified"
    assert scan.certificates[0].bound == 1
    # x^2 with gamma = 0: 0 is fixed, so every prime fails
    inst2 = _instance([{(2,): 1}], (3,), targets=((Fraction(0),),))
    scan = avoidance_search(inst2, [3, 5, 7])
    assert all(c.verdict == "failed-periodic" for c in scan.certificates)
    assert scan.certified_density == 0.0
    # empty target list: trivially certified with M = 0
    inst3 = _instance([{(2,): 1, (0,): 1}], (0,))
    scan = avoidance_search(inst3, [3, 5])
    assert all(c.certified and c.bound == 0 for c in scan.certificates)
    assert scan.certified_density == 1.0


def test_avoidance_bound_monotone_in_targets():
    rng_primes = [5, 7, 11]
    base = _instance([{(2,): 1, (0,): 1}], (0,), targets=((Fraction(3),),))
    larger = _instance(
        [{(2,): 1, (0,): 1}], (0,), targets=((Fraction(3),), (Fraction(4),))
    )
    for p in rng_primes:
        c1 = avoidance_search(base, [p]).certificates[0]
        c2 = avoidance_search(larger, [p]).certificates[0]
        if c1.certified and c2.certified:
            assert c2.bound >= c1.bound


def test_certificate_soundness_window_small():
    """Forward-memoized first-hit times: nothing hits a certified target at m >= M."""
    inst = _instance([{(2,): 1, (0,): 1}], (0,), targets=((Fraction(3),),))
    for p in (5, 7, 11, 13):
        cert = avoidance_search(inst, [p]).certificates[0]
        if not cert.certified:
            continue
        fp, _, targets_p = reduce_instance(inst, p)
        hits = _forward_first_hits(fp, targets_p[0], p)
        window_hi = cert.bound + p**inst.dimension
        assert all(
            m < cert.bound or m > window_hi for m in hits.values() if m is not None
        )
        assert all(m is None or m < cert.bound for m in hits.values())


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
    assert fixing_iterate(inst, 7) == orbit_summary(*reduce_instance(inst, 7)[:2]).cycle
    # f(x) = -x has 1 of period 2
    neg = _instance([{(1,): -1}], (2,), targets=((Fraction(1),),))
    assert exact_period(neg.mapping, (1,)) == 2
    assert fixing_iterate(neg, 5) % 2 == 0
    # declared target that is not periodic
    bad = _instance([{(2,): 1, (0,): 1}], (0,), targets=((Fraction(3),),))
    with pytest.raises(HypothesisViolation):
        exact_period(bad.mapping, (3,), bound=16)


def test_residue_orbit_avoids():
    inst = _instance([{(2,): 1, (0,): 1}], (0,), targets=((Fraction(3),),))
    assert residue_orbit_avoids(inst, 5, 1)
    # target on the orbit cycle fails regardless of the bound
    inst2 = _instance([{(2,): 1, (0,): 1}], (0,), targets=((Fraction(2),),))
    assert not residue_orbit_avoids(inst2, 5, 10)


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
    fp = ModularMap.from_map(PolyMap.from_lists(1, [coeffs]), p)
    x = (data.draw(st.integers(0, p - 1)),)
    summary = orbit_summary(fp, x)
    # visit sees x_0, x_1, ... in order; a limit below the last visited
    # index gives up, and any other limit changes nothing
    visited = []
    assert orbit_summary(fp, x, visit=lambda n, pt: visited.append((n, pt))) == summary
    assert len(visited) >= summary.tail + summary.cycle
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
    f = PolyMap.from_lists(1, [coeffs])
    fp = ModularMap.from_map(f, p)
    gamma = (data.draw(st.integers(0, p - 1)),)
    if on_cycle(fp, gamma):
        assert first_hit_depth(fp, gamma)[0] is None
        return
    depth, _ = first_hit_depth(fp, gamma)
    brute = -1
    for x in range(p):
        pt = (x,)
        for m in range(p + depth + 2):
            if pt == gamma and m > brute:
                brute = m
            pt = fp(pt)
    assert depth == brute
