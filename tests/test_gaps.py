"""Return sets, Newton-polygon zero counting, localization, gap/density reports."""

import functools
import random
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padic_oracles import (
    DensePrecSeries,
    classify_gap_sequence,
    dense_coefficients,
    dense_compose,
    dense_newton_reading,
    direct_model,
    disk_series,
    interpolant_value,
    iterate_point,
    localize_zeros_reference,
    map_from_lists,
    modular_eval,
    poly_mul,
    restrict_to_disk_reference,
    unit_disk_root_count,
)

from orbitgap import gaps
from orbitgap.errors import (
    BudgetExceeded,
    HypothesisViolation,
    InputError,
    OrbitgapError,
    PrecisionExhausted,
)
from orbitgap.gaps import (
    build_density_report,
    build_gap_report,
    check_gap_pair,
    _hits_mod,
    _subdisk,
    compute_returns,
    default_screening_primes,
    localize_zeros,
    newton_zero_count,
    restrict_to_disk,
)
from orbitgap.interpolation import build_interpolant
from orbitgap.normalization import build_model_family
from orbitgap.padic import INF, MahlerSeries, PadicContext, int_valuation, vp_factorial
from orbitgap.polynomials import ModularMap, reduce_poly
from orbitgap.problemfile import SCREEN_PRIME_COUNT, ProblemInstance
from orbitgap.reduction import bad_primes, reduce_instance


def _instance(map_polys, a, variety, dim=1, targets=()):
    f = map_from_lists(dim, map_polys)
    return ProblemInstance(
        dim, f, tuple(Fraction(x) for x in a), tuple(variety), targets
    )


# -- return sets ------------------------------------------------------------


def test_returns_worked_example():
    inst = _instance([{(2,): 1, (0,): -2}], (3,), [{(1,): Fraction(1), (0,): Fraction(-7)}])
    rs = compute_returns(inst, 100, screening_primes=[101, 103, 107], bad=bad_primes(inst, search_bound=0))
    assert [e.index for e in rs.entries] == [1]
    assert rs.entries[0].status == "certified-exact"
    assert rs.refuted == ()


def test_returns_need_a_screening_prime():
    # with no prime nothing is screened, so "no returns" would be unchecked
    inst = _instance([{(2,): 1, (0,): -2}], (3,), [{(1,): Fraction(1), (0,): Fraction(-7)}])
    with pytest.raises(InputError):
        compute_returns(inst, 100, screening_primes=[], bad=bad_primes(inst, search_bound=0))


def test_returns_plumbing_everything():
    # V: 0 = 0 accepts every index (rejected upstream by hypothesis checks;
    # exercised here purely as plumbing)
    inst = _instance([{(2,): 1, (0,): 1}], (0,), [{}])
    rs = compute_returns(inst, 10, screening_primes=[101], bad=bad_primes(inst, search_bound=0))
    assert [e.index for e in rs.entries] == list(range(11))


def test_returns_two_dim():
    inst = _instance(
        [{(2, 0): 1}, {(0, 2): 1}],
        (2, 5),
        [{(0, 1): Fraction(1), (0, 0): Fraction(-5)}],
        dim=2,
    )
    rs = compute_returns(inst, 50, screening_primes=[101, 103], bad=bad_primes(inst, search_bound=0))
    assert [e.index for e in rs.entries] == [0]


def test_returns_structured_map_survivors_rescreened():
    # orbits of x^2 - 2 have short periods mod p, so few primes can align on
    # periodic false positives; the survivor re-screening round removes them
    x5 = 4870847**2 - 2
    q = poly_mul(
        {(1,): Fraction(1), (0,): Fraction(-47)},
        {(1,): Fraction(1), (0,): Fraction(-x5)},
    )
    inst = _instance([{(2,): 1, (0,): -2}], (3,), [q])
    rs = compute_returns(inst, 2000, screening_primes=[101, 103, 107, 109], bad=bad_primes(inst, search_bound=0))
    assert [(e.index, e.status) for e in rs.entries] == [
        (2, "certified-exact"),
        (5, "certified-exact"),
    ]
    assert len(rs.screening_primes) == 8  # one extra round was spent


def test_returns_budget_labels_screened(monkeypatch):
    monkeypatch.setattr(gaps, "EXACT_BIT_BUDGET", 3)
    inst = _instance([{(2,): 1, (0,): -2}], (3,), [{(1,): Fraction(1), (0,): Fraction(-7)}])
    rs = compute_returns(
        inst, 100, screening_primes=[101, 103], bad=bad_primes(inst, search_bound=0)
    )
    assert rs.entries and all(e.status == "modular-screened" for e in rs.entries)


def test_returns_beyond_the_step_budget_are_screened(monkeypatch):
    """x -> x + 1 from 0 with V: x = 5000 keeps its coordinates tiny, so
    only the step budget stops the exact walk; the return beyond it takes
    the extra screening round and is labelled modular-screened."""
    monkeypatch.setattr(gaps, "EXACT_STEP_BUDGET", 1000)
    inst = _instance([{(1,): 1, (0,): 1}], (0,), [{(1,): Fraction(1), (0,): Fraction(-5000)}])
    rs = compute_returns(inst, 6000, [101, 103, 107], bad=bad_primes(inst, search_bound=0))
    assert [(e.index, e.status) for e in rs.entries] == [(5000, "modular-screened")]
    assert rs.exact_horizon == 999
    assert len(rs.screening_primes) == 6  # one extra round was spent


@pytest.mark.parametrize("n_max", [10**6, 10**9])
def test_returns_refuse_more_survivors_than_the_cap(n_max):
    """V: 101 * 103 = 0 vanishes mod both screening primes and nowhere over
    Q, so every index survives screening; the run stops at the survivor cap
    instead of listing n_max + 1 candidates."""
    inst = _instance([{(1,): 1, (0,): 1}], (0,), [{(0,): Fraction(101 * 103)}])
    with pytest.raises(BudgetExceeded, match=f"more than {gaps.SURVIVOR_CAP} screening survivors"):
        compute_returns(inst, n_max, [101, 103], bad=bad_primes(inst, search_bound=0))


def test_returns_refuted_candidate():
    # 7 = 108 mod 101, so index 1 survives screening mod 101 and the exact
    # walk refutes it
    inst = _instance([{(2,): 1, (0,): -2}], (3,), [{(1,): Fraction(1), (0,): Fraction(-108)}])
    rs = compute_returns(inst, 10, screening_primes=[101], bad=bad_primes(inst, search_bound=0))
    assert rs.entries == ()
    assert rs.refuted == (1,)
    assert rs.exact_horizon == 1


def test_returns_screening_prime_must_be_good():
    inst = _instance([{(2,): Fraction(1, 101)}], (0,), [{(1,): Fraction(1)}])
    with pytest.raises(InputError):
        compute_returns(inst, 10, screening_primes=[101], bad=bad_primes(inst, search_bound=0))


def test_returns_cost_does_not_grow_with_n_max():
    # screening reads the tail and cycle of the orbit mod each prime, so a
    # horizon of 10^12 costs what a horizon of 100 does
    inst = _instance([{(2,): 1, (0,): -2}], (3,), [{(1,): Fraction(1), (0,): Fraction(-7)}])
    bad = bad_primes(inst, search_bound=0)
    rs = compute_returns(inst, 10**12, default_screening_primes(bad, SCREEN_PRIME_COUNT), bad=bad)
    assert [(e.index, e.status) for e in rs.entries] == [(1, "certified-exact")]


def _walk_hits(inst, p, n_max):
    """Oracle: walk the orbit mod p step by step and test V at every index."""
    fp, x, _ = reduce_instance(inst, p, bad_primes(inst, search_bound=0))
    variety_p = [reduce_poly(q, p) for q in inst.variety]
    hits = []
    for n in range(n_max + 1):
        if all(modular_eval(q, x, p) == 0 for q in variety_p):
            hits.append(n)
        x = fp(x)
    return hits


def _check_prime_hits(inst, p, n_max):
    hits = _hits_mod(inst, p, bad_primes(inst, search_bound=0), n_max)
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


def test_return_candidates_do_not_grow_with_n_max():
    """x -> x + 1 from 0 with V: x = 5 returns only at 5.  The screening
    candidates, and the memory that holds them while the sparsest prime's
    hits are filtered, stay the same whatever n_max."""
    inst = _instance([{(1,): 1, (0,): 1}], (0,), [{(1,): Fraction(1), (0,): Fraction(-5)}])
    bad = bad_primes(inst, search_bound=0)
    screening = default_screening_primes(bad, SCREEN_PRIME_COUNT)
    for n_max in (10, 10**4, 10**7):
        tracemalloc.start()
        try:
            rs = compute_returns(inst, n_max, screening, bad=bad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [(e.index, e.status) for e in rs.entries] == [(5, "certified-exact")]
        assert rs.refuted == ()
        assert peak < 1 << 20, f"{peak} bytes at n_max = {n_max}"


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
        hits = _hits_mod(inst, p, bad_primes(inst, search_bound=0), 100)
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
    rs = compute_returns(inst, 50, screening_primes=[101, 103, 107, 109], bad=bad_primes(inst, search_bound=0))
    from orbitgap.polynomials import poly_eval

    for e in rs.entries:
        if e.status != "certified-exact":
            continue
        pt = iterate_point(inst.mapping, inst.initial_point, e.index)
        value = poly_eval(inst.variety[0], pt)
        assert value == 0
        for p in rs.screening_primes:
            assert Fraction(value).numerator % p == 0


# -- Newton polygon ---------------------------------------------------------


def test_newton_examples():
    assert newton_zero_count(disk_series([5, -6, 1], 5, 12)) == (2, 0)
    assert newton_zero_count(disk_series([1, 5], 5, 12)) == (0, 0)
    assert newton_zero_count(disk_series([3], 5, 12)) == (0, 0)
    assert newton_zero_count(disk_series([0, 0, 1], 5, 12)) == (2, 0)
    assert newton_zero_count(disk_series([25, 0, 50, 5], 5, 12)) == (3, 1)


def test_newton_identically_zero_rejected():
    with pytest.raises(InputError):
        newton_zero_count(disk_series([0, 0], 5, 6))


def _reading(read, *args):
    try:
        return read(*args)
    except (InputError, PrecisionExhausted) as exc:
        return type(exc), str(exc)


def test_newton_matches_oracle_random():
    """The count against the evaluation oracle, and the whole sparse reading
    against the dense rule: (count, v_min), or the exception and the index
    its message names, and zero_at_precision."""
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
        assert got[0] == want, (coeffs, p, got, want)
        residues = [c % ctx.modulus for c in coeffs]
        assert got == dense_newton_reading(residues, [12] * len(coeffs), p)
        checked += 1

    # zero residues with finite bounds, and residues at or above their bounds
    rng = random.Random(100)
    seen = {InputError: 0, PrecisionExhausted: 0, "several insufficient": 0, "read": 0}
    for _ in range(400):
        p = rng.choice([3, 5, 7])
        residues, bounds = [], []
        for _ in range(rng.randint(1, 7)):
            v, kind = rng.randint(0, 5), rng.randrange(4)
            unit = rng.choice([u for u in range(1, p * p) if u % p])
            if kind == 0:  # zero at precision, known above a finite bound
                residues.append(0)
                bounds.append(rng.randint(0, 6))
            elif kind == 1:  # not stored
                residues.append(0)
                bounds.append(INF)
            elif kind == 2:  # a residue whose valuation is not below its bound
                residues.append(p**v * unit)
                bounds.append(rng.randint(0, v))
            else:
                residues.append(p**v * unit)
                bounds.append(rng.choice([12, v + 1 + rng.randint(0, 3)]))
        disk = disk_series(residues, p, 12, bounds)
        got = _reading(newton_zero_count, disk)
        assert got == _reading(dense_newton_reading, residues, bounds, p), (residues, bounds)
        assert disk.zero_at_precision == all(
            r == 0 and b >= 1 for r, b in zip(residues, bounds)
        )
        if isinstance(got[0], int):
            seen["read"] += 1
            continue
        seen[got[0]] += 1
        if got[0] is PrecisionExhausted:
            v_min = int(got[1].rsplit(" ", 1)[1])
            insufficient = [
                m for m, (r, b) in enumerate(zip(residues, bounds))
                if b <= v_min and int_valuation(r, p) >= b
            ]
            assert f"coefficient {insufficient[0]} " in got[1]
            seen["several insufficient"] += len(insufficient) > 1
    assert min(seen.values()) >= 10, seen


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
        assert newton_zero_count(disk_series(coeffs, p, 12))[0] == expect
        assert unit_disk_root_count(coeffs, p, 12) == expect


# -- disk restriction and localization ---------------------------------------


def _six_interp():
    return build_interpolant(direct_model(map_from_lists(1, [{(1,): 6}]), (1,), 5, 20))


def test_restrict_constant_polynomial():
    interp = _six_interp()
    residues, _ = dense_coefficients(restrict_to_disk(interp, {(0,): Fraction(1)}, 0, 1))
    assert residues[0] == 1
    assert all(r == 0 for r in residues[1:])


def test_restrict_linear_example():
    # L(t) = 6^(5t) - 1: linear coefficient is C(5t,1)-driven, valuation 2
    interp = _six_interp()
    disk = restrict_to_disk(interp, {(1,): Fraction(1), (0,): Fraction(-1)}, 0, 1)
    assert disk.series.coefficient((0,)) == 0
    v = 0
    r = disk.series.coefficient((1,))
    while r % 5 == 0:
        r //= 5
        v += 1
    assert v == 2
    assert newton_zero_count(disk) == (1, 2)


@functools.cache
def _disk_interpolants():
    """Interpolants of direct models: two 1-d, two 2-d."""
    maps = [
        ([{(1,): 6}], (1,), 5, 20),
        ([{(1,): 4, (2,): 3}], (2,), 3, 16),
        ([{(1, 0): 6, (0, 2): 5}, {(0, 1): 1, (1, 1): 5}], (1, 2), 5, 16),
        ([{(1, 0): 1, (0, 1): 7}, {(0, 1): 8, (2, 0): 7}], (3, 1), 7, 12),
    ]
    return [
        build_interpolant(direct_model(map_from_lists(len(a), polys), a, p, precision))
        for polys, a, p, precision in maps
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
        residues, precs = dense_coefficients(
            restrict_to_disk(interp, {unit: Fraction(1)}, center, radius)
        )
        assert list(precs) == coord_precs
        coords.append(DensePrecSeries(mod, p, list(residues), coord_precs))
    want = dense_compose(q, coords)
    got = restrict_to_disk(interp, q, center, radius)

    def stored(residues, precs):
        return [(m, r, b) for m, (r, b) in enumerate(zip(residues, precs)) if r or b < INF]

    assert stored(*dense_coefficients(got)) == stored(want.res, want.prec)


@functools.cache
def _undecayed_interpolants():
    """The interpolants above with unit Mahler coefficients: T! fails to
    cancel on the small disks, so the restriction raises there."""
    rng = random.Random(9)
    out = []
    for interp in _disk_interpolants():
        ctx = interp.ctx
        coeffs = tuple(
            tuple(rng.randrange(ctx.modulus) for _ in range(interp.series.dim))
            for _ in range(interp.terms + 1)
        )
        out.append(interp._replace(series=MahlerSeries(ctx, coeffs)))
    return out


def _restriction(restrict, *args):
    try:
        disk = restrict(*args)
    except PrecisionExhausted:
        return PrecisionExhausted
    return disk.center, disk.radius_exp, dense_coefficients(disk)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_restrict_to_disk_matches_reexpansion_oracle(data):
    """restrict_to_disk, and a chain of three disks each shifted from its
    parent, against the binomial basis re-expanded at each disk: residues,
    bounds and the exception raised."""
    undecayed = data.draw(st.booleans())
    interps = _undecayed_interpolants() if undecayed else _disk_interpolants()
    interp = interps[data.draw(st.integers(0, 3))]
    dim, p, K = interp.series.dim, interp.ctx.prime, interp.ctx.precision
    monomials = [e for e in product(range(3), repeat=dim) if sum(e) <= 2]
    q = {e: Fraction(data.draw(st.integers(-9, 9)), data.draw(st.sampled_from([1, 2])))
         for e in monomials}
    q = {e: c for e, c in q.items() if c} or {monomials[-1]: Fraction(1)}
    # without decay the oracle's Mahler evaluation at center mod p^K is not
    # G(center), so those centers, and their children's, stay below p^K
    center = data.draw(st.integers(0, p ** (K if undecayed else K + 2) - 1))
    radius = data.draw(st.integers(0, 5))
    disk = _restriction(restrict_to_disk, interp, q, center, radius)
    assert disk == _restriction(restrict_to_disk_reference, interp, q, center, radius)

    parent = None if disk is PrecisionExhausted else restrict_to_disk(interp, q, center, radius)
    for _ in range(3):
        if parent is None:
            break
        j = data.draw(st.integers(0, p ** 2 - 1))
        sub = parent.radius_exp + data.draw(st.integers(1, 2))
        child_center = parent.center + j * p**parent.radius_exp
        if undecayed and child_center >= p**K:
            break
        args = (interp, q, parent.coords, parent.center, parent.radius_exp, j, sub)
        child = _restriction(_subdisk, *args)
        assert child == _restriction(
            restrict_to_disk_reference, interp, q, child_center, sub
        )
        parent = None if child is PrecisionExhausted else _subdisk(*args)


def test_localization_expands_once(monkeypatch):
    """Zero localization expands the interpolant once for all defining
    polynomials, shifts every other disk from its parent and evaluates no
    Mahler series."""
    interp = _six_interp()
    calls = {"expand": 0, "evaluate": 0}
    expand, evaluate = gaps._expand, MahlerSeries.evaluate

    def counting_expand(*args):
        calls["expand"] += 1
        return expand(*args)

    def counting_evaluate(*args):
        calls["evaluate"] += 1
        return evaluate(*args)

    monkeypatch.setattr(gaps, "_expand", counting_expand)
    monkeypatch.setattr(MahlerSeries, "evaluate", counting_evaluate)
    # the first polynomial vanishes identically, so every class falls through to x - 6^5
    qs = [{}, {(1,): Fraction(1), (0,): Fraction(-(6**5))}]
    leaves_by_class = localize_zeros(interp, qs)
    assert calls == {"expand": 1, "evaluate": 0}
    assert len(leaves_by_class) == 5 and all(leaves_by_class)
    assert leaves_by_class == localize_zeros(interp, qs[1:])


def test_localization_finds_integer_zero():
    # Q(x) = x - 6^5 vanishes on the orbit interpolant exactly at n = 5
    interp = _six_interp()
    q = {(1,): Fraction(1), (0,): Fraction(-(6**5))}
    leaves_by_class = localize_zeros(interp, [q])
    zero_leaves = [
        (i, leaf)
        for i, leaves in enumerate(leaves_by_class)
        for leaf in leaves
        if leaf.count >= 1
    ]
    assert len(zero_leaves) == 1
    i, leaf = zero_leaves[0]
    assert leaf.count == 1
    assert leaf.center % 5 ** min(leaf.radius_exp, 4) == 5 % 5 ** min(leaf.radius_exp, 4)
    # the zero sits in the class of 5 mod 5
    assert i == 0


def test_localization_class_partition():
    """Leaves of each class partition its integers (child counts stay consistent)."""
    interp = _six_interp()
    q = {(1,): Fraction(1), (0,): Fraction(-(6**5))}
    leaves_by_class = localize_zeros(interp, [q])
    assert len(leaves_by_class) == 5
    for i, leaves in enumerate(leaves_by_class):
        for j in range(i, 200, 5):
            matches = [
                leaf
                for leaf in leaves
                if (j - leaf.center) % 5**leaf.radius_exp == 0
            ]
            assert len(matches) == 1


def test_localization_degenerate_aborts():
    interp = _six_interp()
    with pytest.raises(HypothesisViolation):
        localize_zeros(interp, [{}])  # the zero polynomial


def test_localization_zero_free_bounds():
    # Q(x) = x - 2: 6^n = 2 has no p-adic solution near the window; all classes
    # are zero-free with a finite member bound
    interp = _six_interp()
    q = {(1,): Fraction(1), (0,): Fraction(-2)}
    leaves_by_class = localize_zeros(interp, [q])
    for leaves in leaves_by_class:
        assert leaves
        for leaf in leaves:
            assert leaf.count == 0


def _localization(localize, interp, qs):
    try:
        return localize(interp, qs)
    except OrbitgapError as exc:
        return type(exc)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_localize_zeros_matches_all_children_oracle(data):
    """Shifting only the children at residual roots gives the leaves of
    shifting every child.  The interpolant is a model's, or random Mahler
    coefficients with or without decay at a random precision; the
    polynomials are random, scaled by a power of p, and some vanish at an
    orbit point.  Where the rule raises, the oracle raises the same class;
    the oracle alone may raise PrecisionExhausted, on a zero-free child the
    rule settles without a shift."""
    base = _disk_interpolants()[data.draw(st.integers(0, 3))]
    p, dim = base.ctx.prime, base.series.dim
    kind = data.draw(st.sampled_from(["model", "decayed", "undecayed"]))
    if kind == "model":
        interp = base
    else:
        terms = data.draw(st.integers(2, base.terms))
        precision = data.draw(st.integers(vp_factorial(terms, p) + 2, base.ctx.precision))
        ctx = PadicContext(p, precision)
        coeffs = []
        for j in range(terms + 1):
            floor = 0 if kind == "undecayed" else vp_factorial(j, p) + data.draw(st.integers(0, 2))
            coeffs.append(tuple(
                p**floor * data.draw(st.integers(0, ctx.modulus - 1)) % ctx.modulus
                for _ in range(dim)
            ))
        interp = base._replace(
            model=base.model._replace(ctx=ctx), series=MahlerSeries(ctx, tuple(coeffs)),
            terms=terms,
        )
    K, mod = interp.ctx.precision, interp.ctx.modulus
    monomials = [e for e in product(range(3), repeat=dim) if sum(e) <= 2]
    qs = []
    for _ in range(data.draw(st.integers(1, 2))):
        q = {e: Fraction(data.draw(st.integers(-9, 9)), data.draw(st.sampled_from([1, 2])))
             for e in monomials}
        if data.draw(st.booleans()):  # make Q(G(n)) vanish at precision
            n = data.draw(st.integers(0, 7))
            q[monomials[0]] -= modular_eval(reduce_poly(q, mod), interpolant_value(interp, n), mod)
        scale = p ** data.draw(st.sampled_from([0, 0, data.draw(st.integers(1, K))]))
        qs.append({e: c * scale for e, c in q.items() if c})

    got = _localization(localize_zeros, interp, qs)
    want = _localization(localize_zeros_reference, interp, qs)
    if isinstance(got, type):
        assert want is got
    elif isinstance(want, type):
        assert want is PrecisionExhausted
    else:
        assert got == want


def test_localization_shifts_only_residual_roots(monkeypatch):
    """x - 6^5 has one zero: each level shifts one child, not all p."""
    interp = _six_interp()
    q = {(1,): Fraction(1), (0,): Fraction(-(6**5))}
    calls = []
    subdisk = gaps._subdisk
    monkeypatch.setattr(gaps, "_subdisk", lambda *args: calls.append(args[5]) or subdisk(*args))
    leaves_by_class = localize_zeros(interp, [q])
    zero = next(leaf for leaves in leaves_by_class for leaf in leaves if leaf.count)
    # the unit disk, then one root child per level down to the cluster leaf
    assert len(calls) == zero.radius_exp + 1
    assert leaves_by_class == localize_zeros_reference(interp, [q])


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
    # each row is [checkpoint, count, yardstick, ratio], reals as "%.6g" strings
    empty = build_density_report([], 1000, 1)
    assert all(count == 0 for _, count, _, _ in empty["rows"])
    assert not empty["diverging"]

    single = build_density_report([1], 10**6, 1)
    assert single["max_ratio"] == "%.6g" % (1 / 0.6931471805599453)
    assert not single["diverging"]

    everything = build_density_report(list(range(0, 4097)), 4096, 1)
    assert everything["diverging"]

    # twice-iterated logarithm: checkpoints where log(log(n)) <= 0 are skipped
    deep = build_density_report([1], 10**6, 2)
    assert any(ratio is None for _, _, _, ratio in deep["rows"])
    assert deep["max_ratio"] is not None and float(deep["max_ratio"]) > 0


def test_gap_report_via_pipeline_pieces():
    inst = _instance([{(2,): 1, (0,): -2}], (3,), [{(1,): Fraction(1), (0,): Fraction(-7)}])
    model = build_model_family(inst, 3, 24)[0]
    interp = build_interpolant(model)
    qs = [model.transport_poly(q) for q in inst.variety]
    returns = compute_returns(inst, 200, screening_primes=[101, 103], bad=bad_primes(inst, search_bound=0))
    report = build_gap_report(
        returns, [(model, localize_zeros(interp, qs))], inst.variety, model.congruence_exponent
    )
    # the prime and the precision are the interpolant's; the report states c
    assert report["congruence_exponent"] == model.congruence_exponent
    assert report["verdict"] == "too-few-returns"
    assert report["prefix_members"] == [1]  # n=1 < m0=2 sits in the finite prefix
    assert report["uncovered_members"] == []
