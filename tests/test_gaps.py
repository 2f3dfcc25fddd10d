"""Return sets, Newton-polygon zero counting, localization, gap/density reports."""

import functools
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padic_oracles import DensePrecSeries, dense_compose, disk_series, unit_disk_root_count

from orbitgap.errors import HypothesisViolation, InputError
from orbitgap.gaps import (
    build_density_report,
    build_gap_report,
    check_gap_pair,
    classify_gap_sequence,
    _hits_mod,
    compute_returns,
    localize_zeros,
    newton_zero_count,
    restrict_to_disk,
)
from orbitgap.interpolation import build_interpolant
from orbitgap.normalization import build_local_model, direct_model
from orbitgap.padic import INF, PadicContext, vp_factorial
from orbitgap.polynomials import ModularMap, PolyMap, modular_eval, reduce_poly
from orbitgap.reduction import ProblemInstance, bad_primes, reduce_instance


def _instance(map_polys, a, variety, dim=1, targets=()):
    f = PolyMap.from_lists(dim, map_polys)
    return ProblemInstance(
        dim, f, tuple(Fraction(x) for x in a), tuple(variety), targets
    )


# -- return sets ------------------------------------------------------------


def test_returns_worked_example():
    inst = _instance([{(2,): 1, (0,): -2}], (3,), [{(1,): Fraction(1), (0,): Fraction(-7)}])
    rs = compute_returns(inst, 100, screening_primes=[101, 103, 107])
    assert [e.index for e in rs.entries] == [1]
    assert rs.entries[0].status == "certified-exact"
    assert rs.refuted == ()


def test_returns_need_a_screening_prime():
    # with no prime nothing is screened, so "no returns" would be unchecked
    inst = _instance([{(2,): 1, (0,): -2}], (3,), [{(1,): Fraction(1), (0,): Fraction(-7)}])
    with pytest.raises(InputError):
        compute_returns(inst, 100, screening_primes=[])


def test_returns_plumbing_everything():
    # V: 0 = 0 accepts every index (rejected upstream by hypothesis checks;
    # exercised here purely as plumbing)
    inst = _instance([{(2,): 1, (0,): 1}], (0,), [{}])
    rs = compute_returns(inst, 10, screening_primes=[101])
    assert [e.index for e in rs.entries] == list(range(11))


def test_returns_two_dim():
    inst = _instance(
        [{(2, 0): 1}, {(0, 2): 1}],
        (2, 5),
        [{(0, 1): Fraction(1), (0, 0): Fraction(-5)}],
        dim=2,
    )
    rs = compute_returns(inst, 50, screening_primes=[101, 103])
    assert [e.index for e in rs.entries] == [0]


def test_returns_structured_map_survivors_rescreened():
    # orbits of x^2 - 2 have short periods mod p, so few primes can align on
    # periodic false positives; the survivor re-screening round removes them
    from orbitgap.polynomials import poly_mul

    x5 = 4870847**2 - 2
    q = poly_mul(
        {(1,): Fraction(1), (0,): Fraction(-47)},
        {(1,): Fraction(1), (0,): Fraction(-x5)},
    )
    inst = _instance([{(2,): 1, (0,): -2}], (3,), [q])
    rs = compute_returns(inst, 2000, screening_primes=[101, 103, 107, 109])
    assert [(e.index, e.status) for e in rs.entries] == [
        (2, "certified-exact"),
        (5, "certified-exact"),
    ]
    assert len(rs.screening_primes) == 8  # one extra round was spent


def test_returns_budget_labels_screened():
    inst = _instance([{(2,): 1, (0,): -2}], (3,), [{(1,): Fraction(1), (0,): Fraction(-7)}])
    rs = compute_returns(inst, 100, screening_primes=[101, 103], exact_bit_budget=3)
    assert rs.entries and all(e.status == "modular-screened" for e in rs.entries)


def test_returns_screening_prime_must_be_good():
    inst = _instance([{(2,): Fraction(1, 101)}], (0,), [{(1,): Fraction(1)}])
    with pytest.raises(InputError):
        compute_returns(inst, 10, screening_primes=[101])


def test_returns_cost_does_not_grow_with_n_max():
    # screening reads the tail and cycle of the orbit mod each prime, so a
    # horizon of 10^12 costs what a horizon of 100 does
    inst = _instance([{(2,): 1, (0,): -2}], (3,), [{(1,): Fraction(1), (0,): Fraction(-7)}])
    rs = compute_returns(inst, 10**12)
    assert [(e.index, e.status) for e in rs.entries] == [(1, "certified-exact")]


def _walk_hits(inst, p, n_max):
    """Oracle: walk the orbit mod p step by step and test V at every index."""
    fp, x, _ = reduce_instance(inst, p, bad_primes(inst))
    variety_p = [reduce_poly(q, p) for q in inst.variety]
    hits = []
    for n in range(n_max + 1):
        if all(modular_eval(q, x, p) == 0 for q in variety_p):
            hits.append(n)
        x = fp(x)
    return hits


def _check_prime_hits(inst, p, n_max):
    hits = _hits_mod(inst, p, bad_primes(inst), n_max)
    want = _walk_hits(inst, p, n_max)
    assert sorted(hits.up_to(n_max)) == want
    assert [n for n in range(n_max + 1) if n in hits] == want
    return hits


def test_prime_hits_tail_cycle_and_vanishing_variety():
    # x^2 mod 7 from 3: 3, 2, 4, 2, ... (tail 1, cycle 2)
    square = [{(2,): 1}]
    hits = _check_prime_hits(_instance(square, (3,), [{(1,): Fraction(1), (0,): Fraction(-3)}]), 7, 40)
    assert (hits.tail, hits.cycle, sorted(hits.hits)) == (1, 2, [0])
    hits = _check_prime_hits(_instance(square, (3,), [{(1,): Fraction(1), (0,): Fraction(-4)}]), 7, 40)
    assert sorted(hits.up_to(9)) == [2, 4, 6, 8]
    # V = 7(x - 1) vanishes identically mod 7: every index is a hit
    zero = {(1,): Fraction(7), (0,): Fraction(-7)}
    hits = _check_prime_hits(_instance(square, (3,), [zero]), 7, 40)
    assert hits.cycle_density() == 1
    # several defining polynomials: every one must vanish
    two = [{(1,): Fraction(1), (0,): Fraction(-2)}, {(2,): Fraction(1), (0,): Fraction(-4)}]
    assert _check_prime_hits(_instance(square, (3,), two), 7, 40).hits == {1}


def test_prime_hits_stop_at_n_max(monkeypatch):
    # (x, y, z) -> (y, z, x + yz + 1) is bijective mod p, so the orbit is one
    # cycle that can run to p^3 residues; the search must stop at n_max
    calls = 0
    evaluate = ModularMap.__call__

    def counting(self, point):
        nonlocal calls
        calls += 1
        return evaluate(self, point)

    monkeypatch.setattr(ModularMap, "__call__", counting)
    mapping = [{(0, 1, 0): 1}, {(0, 0, 1): 1}, {(1, 0, 0): 1, (0, 1, 1): 1, (0, 0, 0): 1}]
    inst = _instance(mapping, (0, 0, 0), [{(1, 0, 0): Fraction(1), (0, 0, 0): Fraction(-1)}], dim=3)
    for p in (101, 103):
        calls = 0
        hits = _hits_mod(inst, p, bad_primes(inst), 100)
        assert calls <= 101
        assert (hits.tail, hits.cycle) == (101, 1)
        _check_prime_hits(inst, p, 100)
    # with room for the cycle to close, the same prime reads it exactly
    hits = _check_prime_hits(inst, 5, 400)
    assert hits.tail == 0 and hits.cycle <= 5**3


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_prime_hits_match_direct_walk(data):
    """Tail/cycle hit sets against the orbit walked up to n_max, in 1 and 2 dimensions."""
    dim = data.draw(st.sampled_from([1, 2]))
    p = data.draw(st.sampled_from([3, 5, 7, 11, 13]))
    if dim == 1:
        monomials = [(i,) for i in range(3)]
    else:
        monomials = [(i, j) for i in range(3) for j in range(3 - i)]
    coeff = st.integers(-2 * p, 2 * p)

    def poly(nonconstant=None):
        q = {e: Fraction(data.draw(coeff)) for e in monomials}
        if nonconstant is not None:
            q[nonconstant] = Fraction(data.draw(st.integers(1, 2 * p)))
        return {e: c for e, c in q.items() if c}

    unit = [tuple(int(i == k) for i in range(dim)) for k in range(dim)]
    mapping = [poly(nonconstant=unit[k]) for k in range(dim)]
    variety = [poly() for _ in range(data.draw(st.integers(1, 3)))]
    if data.draw(st.booleans()):
        variety[0] = {e: c * p for e, c in variety[0].items()}  # V = 0 mod p
    a = tuple(data.draw(coeff) for _ in range(dim))
    inst = _instance(mapping, a, variety, dim=dim)
    _check_prime_hits(inst, p, data.draw(st.integers(0, 3 * p**dim)))


def test_certified_returns_vanish_mod_every_screening_prime():
    """Multi-modular soundness: exact zeros reduce to zeros at every good prime."""
    inst = _instance([{(2,): 1, (0,): -2}], (3,), [{(1,): Fraction(1), (0,): Fraction(-7)}])
    rs = compute_returns(inst, 50, screening_primes=[101, 103, 107, 109])
    from orbitgap.polynomials import poly_eval

    for e in rs.entries:
        if e.status != "certified-exact":
            continue
        pt = inst.mapping.iterate_point(inst.initial_point, e.index)
        value = poly_eval(inst.variety[0], pt)
        assert value == 0
        for p in rs.screening_primes:
            assert Fraction(value).numerator % p == 0


# -- Newton polygon ---------------------------------------------------------


def test_newton_examples():
    assert newton_zero_count(disk_series([5, -6, 1], 5, 12)) == 2
    assert newton_zero_count(disk_series([1, 5], 5, 12)) == 0
    assert newton_zero_count(disk_series([3], 5, 12)) == 0
    assert newton_zero_count(disk_series([0, 0, 1], 5, 12)) == 2


def test_newton_identically_zero_rejected():
    with pytest.raises(InputError):
        newton_zero_count(disk_series([0, 0], 5, 6))


def test_newton_matches_oracle_random():
    rng = random.Random(99)
    checked = 0
    while checked < 120:
        p = rng.choice([3, 5, 7])
        ctx = PadicContext(p, 12)
        coeffs = [rng.randrange(-(p**6), p**6) for _ in range(rng.randint(1, 5))]
        if all(c % ctx.modulus == 0 for c in coeffs):
            continue
        got = newton_zero_count(disk_series(coeffs, p, 12))
        want = unit_disk_root_count(coeffs, p, 12)
        assert got == want, (coeffs, p, got, want)
        checked += 1


def test_newton_matches_oracle_constructed():
    cases = [
        ([5, -6, 1], 5, 2),
        ([-3, 0, 1], 3, 2),  # ramified pair of valuation 1/2
        ([1, 0, 3], 3, 0),  # roots of valuation -1/2
        ([0, 0, 0, 1], 7, 3),
        ([-6, 11, -6, 1], 5, 3),
        ([35, -12, 1], 5, 2),  # (t-5)(t-7)
        ([-5, 1], 3, 1),
        ([9, 6, 1], 3, 2),  # (t+3)^2
    ]
    for coeffs, p, expect in cases:
        assert newton_zero_count(disk_series(coeffs, p, 12)) == expect
        assert unit_disk_root_count(coeffs, p, 12) == expect


# -- disk restriction and localization ---------------------------------------


def _six_interp(precision=20, terms=16):
    model = direct_model(PolyMap.from_lists(1, [{(1,): 6}]), (1,), 5, precision)
    return build_interpolant(model, terms=terms)


def test_restrict_constant_polynomial():
    interp = _six_interp()
    disk = restrict_to_disk(interp, {(0,): Fraction(1)}, 0, 1)
    assert disk.residues[0] == 1
    assert all(r == 0 for r in disk.residues[1:])


def test_restrict_linear_example():
    # L(t) = 6^(5t) - 1: linear coefficient is C(5t,1)-driven, valuation 2
    interp = _six_interp()
    disk = restrict_to_disk(interp, {(1,): Fraction(1), (0,): Fraction(-1)}, 0, 1)
    assert disk.residues[0] == 0
    v = 0
    r = disk.residues[1]
    while r % 5 == 0:
        r //= 5
        v += 1
    assert v == 2
    assert newton_zero_count(disk) == 1


@functools.cache
def _disk_interpolants():
    """Interpolants of direct models: two 1-d, two 2-d."""
    maps = [
        ([{(1,): 6}], (1,), 5, 20, 16),
        ([{(1,): 4, (2,): 3}], (2,), 3, 16, 12),
        ([{(1, 0): 6, (0, 2): 5}, {(0, 1): 1, (1, 1): 5}], (1, 2), 5, 16, 12),
        ([{(1, 0): 1, (0, 1): 7}, {(0, 1): 8, (2, 0): 7}], (3, 1), 7, 12, 10),
    ]
    return [
        build_interpolant(
            direct_model(PolyMap.from_lists(len(a), polys), a, p, precision), terms=terms
        )
        for polys, a, p, precision, terms in maps
    ]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_restrict_to_disk_matches_dense_reference(data):
    """Residues and bounds of Q(G(center + p^k t)), coefficient by coefficient,
    against the dense series rule applied to the coordinate series of G."""
    interp = _disk_interpolants()[data.draw(st.integers(0, 3))]
    dim, p, mod = interp.series.dim, interp.ctx.prime, interp.ctx.modulus
    degree = data.draw(st.integers(2, 3))
    monomials = [e for e in product(range(degree + 1), repeat=dim) if sum(e) <= degree]
    q = {
        e: Fraction(data.draw(st.integers(-30, 30)), data.draw(st.sampled_from([1, 2])))
        for e in monomials
    }
    q[data.draw(st.sampled_from([e for e in monomials if sum(e) == degree]))] = Fraction(
        data.draw(st.integers(1, 30))
    )
    q = {e: c for e, c in q.items() if c}
    center = data.draw(st.integers(0, p**3 - 1))
    radius = data.draw(st.integers(0, 3))

    # coordinate m of G(center + p^k t) is known to p^K, less the p-part of
    # T!/p^(k*m) that the re-expansion divides out
    k_max, e_total = interp.ctx.precision, vp_factorial(interp.terms, p)
    coord_precs = [k_max] + [
        k_max + min(radius * m - e_total, 0) for m in range(1, interp.terms + 1)
    ]
    coords = []
    for i in range(dim):
        unit = tuple(int(j == i) for j in range(dim))
        x = restrict_to_disk(interp, {unit: Fraction(1)}, center, radius)
        assert list(x.precs) == coord_precs
        coords.append(DensePrecSeries(mod, p, list(x.residues), coord_precs))
    want = dense_compose(q, coords)
    got = restrict_to_disk(interp, q, center, radius)

    def stored(residues, precs):
        return [(m, r, b) for m, (r, b) in enumerate(zip(residues, precs)) if r or b < INF]

    assert stored(got.residues, got.precs) == stored(want.res, want.prec)


def test_localization_finds_integer_zero():
    # Q(x) = x - 6^5 vanishes on the orbit interpolant exactly at n = 5
    interp = _six_interp()
    q = {(1,): Fraction(1), (0,): Fraction(-(6**5))}
    analyses = localize_zeros(interp, [q], initial_k=1)
    zero_leaves = [
        leaf
        for a in analyses
        for leaf in a.leaves
        if leaf.count >= 1
    ]
    assert len(zero_leaves) == 1
    leaf = zero_leaves[0]
    assert leaf.order == 1
    assert leaf.eta % 5 ** min(leaf.radius_exp, 4) == 5 % 5 ** min(leaf.radius_exp, 4)
    # the zero sits in the class of 5 mod 5
    assert analyses[0].class_index == 0


def test_localization_class_partition():
    """Leaves of each class partition its integers (child counts stay consistent)."""
    interp = _six_interp()
    q = {(1,): Fraction(1), (0,): Fraction(-(6**5))}
    analyses = localize_zeros(interp, [q], initial_k=1)
    for a in analyses:
        for j in range(a.class_index, 200, 5):
            matches = [
                leaf
                for leaf in a.leaves
                if (j - leaf.center) % 5**leaf.radius_exp == 0
            ]
            assert len(matches) == 1


def test_localization_degenerate_aborts():
    interp = _six_interp()
    with pytest.raises(HypothesisViolation):
        localize_zeros(interp, [{}], initial_k=1)  # the zero polynomial


def test_localization_zero_free_bounds():
    # Q(x) = x - 2: 6^n = 2 has no p-adic solution near the window; all classes
    # are zero-free with a finite member bound
    interp = _six_interp()
    q = {(1,): Fraction(1), (0,): Fraction(-2)}
    analyses = localize_zeros(interp, [q], initial_k=1)
    for a in analyses:
        assert a.resolved
        for leaf in a.leaves:
            assert leaf.count == 0


# -- gap verdicts and density -------------------------------------------------


def test_check_gap_pair():
    assert check_gap_pair(28, 1, 2, 3)  # 28 >= 3^2
    assert not check_gap_pair(6, 1, 2, 3)  # 6 < 9
    assert not check_gap_pair(5, 2, 4, 3)  # 5^2 = 25 < 3^4 = 81
    assert check_gap_pair(10, 2, 4, 3)  # 100 >= 81
    assert check_gap_pair(1, 3, 0, 5)  # trivial exponent


def test_classify_gap_sequence_examples():
    assert classify_gap_sequence([2, 30], Fraction(3)) == [True]
    assert classify_gap_sequence([2, 8], Fraction(3)) == [False]
    assert classify_gap_sequence([0, 1, 3, 10], Fraction(2)) == [True, True, False]


def test_classify_gap_sequence_random():
    # classification agrees with a direct exact comparison, pair by pair
    rng = random.Random(5)
    for _ in range(100):
        growth = Fraction(rng.randint(3, 10), rng.choice([1, 2]))
        if growth <= 1:
            continue
        length = rng.randint(2, 6)
        seq = sorted(rng.sample(range(0, 48), length))
        verdicts = classify_gap_sequence(seq, growth)
        expected = [Fraction(n2 - n1) >= growth**n1 for n1, n2 in zip(seq, seq[1:])]
        assert verdicts == expected


def test_density_examples():
    empty = build_density_report([], 1000, 1)
    assert all(r.count == 0 for r in empty.rows)
    assert not empty.diverging

    single = build_density_report([1], 10**6, 1)
    assert single.max_ratio == pytest.approx(1 / 0.6931471805599453, rel=1e-6)
    assert not single.diverging

    everything = build_density_report(list(range(0, 4097)), 4096, 1)
    assert everything.diverging

    # twice-iterated logarithm: checkpoints where log(log(n)) <= 0 are skipped
    deep = build_density_report([1], 10**6, 2)
    assert any(r.ratio is None for r in deep.rows)
    assert deep.max_ratio is not None and deep.max_ratio > 0


def test_gap_report_via_pipeline_pieces():
    inst = _instance([{(2,): 1, (0,): -2}], (3,), [{(1,): Fraction(1), (0,): Fraction(-7)}])
    model = build_local_model(inst, 3, 24)
    interp = build_interpolant(model, terms=24)
    qs = [model.transport_poly(q) for q in inst.variety]
    analyses = localize_zeros(interp, qs)
    returns = compute_returns(inst, 200, screening_primes=[101, 103])
    report = build_gap_report(
        returns, {0: analyses}, {0: model}, 3, model.congruence_exponent, 24
    )
    assert report.verdict == "too-few-returns"
    assert report.prefix_members == (1,)  # n=1 < m0=2 sits in the finite prefix
    assert report.uncovered_members == ()
