"""Normalization pipeline: conjugation stages, idempotent powers, model invariants."""

import random
from fractions import Fraction

import pytest

from orbitgap.errors import BudgetExceeded, HypothesisViolation, InputError
from orbitgap.modmat import mat_mul, mat_pow, mat_reduce
from orbitgap.normalization import (
    _chart_step,
    _frac_valuation,
    _materialize_series,
    build_local_model,
    build_model_family,
    direct_model,
    ensure_not_preperiodic,
    hensel_idempotent,
    idempotent_power,
    series_congruence_exponent,
    stabilize_orbit,
)
from orbitgap.padic import int_valuation, sup_valuation
from orbitgap.polynomials import (
    ModularMap,
    Poly,
    PolyMap,
    make_const,
    make_var,
    poly_add,
    poly_compose,
)
from orbitgap.reduction import ProblemInstance


# -- oracles: the chart step split into its two conjugations ------------------


def translate_map(f: PolyMap, eta, p: int) -> PolyMap:
    """Recenter at a point fixed mod p^2: x -> f(x + eta) - eta.

    Postcondition: every constant term has valuation >= 2 (violated exactly
    when eta was not fixed mod p^2, which is reported).
    """
    args = [poly_add(make_var(f.nvars, i), make_const(f.nvars, eta[i])) for i in range(f.nvars)]
    polys = []
    for i, poly in enumerate(f.polys):
        shifted = poly_compose(poly, args)
        shifted = poly_add(shifted, make_const(f.nvars, -Fraction(eta[i])))
        const = shifted.get((0,) * f.nvars, Fraction(0))
        if _frac_valuation(const, p) < 2:
            raise InputError(
                f"translation center is not fixed mod p^2: constant term {const} "
                f"of coordinate {i} has valuation < 2"
            )
        polys.append(shifted)
    return PolyMap(f.nvars, tuple(polys))


def pi_scale(f: PolyMap, p: int) -> PolyMap:
    """Conjugate by x -> p*x: degree-d coefficients pick up p^(d-1).

    Requires constant terms of valuation >= 2; afterwards every coefficient
    is p-integral, the constant has valuation >= 1, linear terms are
    unchanged, and degree-d terms are multiplied by p^(d-1).
    """
    polys = []
    for poly in f.polys:
        out: Poly = {}
        for e, c in poly.items():
            d = sum(e)
            scaled = c * Fraction(p) ** (d - 1)
            assert _frac_valuation(scaled, p) >= (0 if d else 1), (
                "scaled coefficient left the integer ring; the precondition was violated"
            )
            out[e] = scaled
        polys.append(out)
    return PolyMap(f.nvars, tuple(polys))


def _instance(map_polys, a, dim=1, targets=()):
    f = PolyMap.from_lists(dim, map_polys)
    return ProblemInstance(
        dim, f, tuple(Fraction(x) for x in a), ({(0,) * dim: Fraction(0)},), targets
    )


def test_stabilize_examples():
    inst = _instance([{(2,): 1, (0,): 1}], (0,))
    assert stabilize_orbit(inst, 3) == (3, 2)  # 0,1,2,5,8,2,... mod 9
    # translation x + p: additive orbit mod p^2 has cycle length p
    for p in (3, 5):
        inst2 = _instance([{(1,): 1, (0,): p}], (0,))
        assert stabilize_orbit(inst2, p) == (p, 0)
    # already fixed mod p^2
    inst3 = _instance([{(1,): 10}], (0,))
    assert stabilize_orbit(inst3, 3) == (1, 0)
    # the guard bounds tail + cycle: x -> x + 1 mod 25 has 0 + 25
    inst4 = _instance([{(1,): 1, (0,): 1}], (0,))
    assert stabilize_orbit(inst4, 5, guard=25) == (25, 0)
    with pytest.raises(BudgetExceeded):
        stabilize_orbit(inst4, 5, guard=24)


def test_translate_examples():
    f = PolyMap.from_lists(1, [{(2,): 1}])
    t = translate_map(f, (0,), 3)
    assert t.polys[0] == {(2,): Fraction(1)}
    g = PolyMap.from_lists(1, [{(2,): 1, (1,): 3, (0,): 9}])
    tg = translate_map(g, (0,), 3)
    assert tg.polys[0][(0,)] == 9
    # a center that is not fixed mod p^2 is rejected
    with pytest.raises(InputError):
        translate_map(PolyMap.from_lists(1, [{(2,): 1, (0,): 3}]), (0,), 3)


def test_pi_scale_examples():
    f = PolyMap.from_lists(1, [{(2,): 1}])
    assert pi_scale(f, 3).polys[0] == {(2,): Fraction(3)}
    lin = PolyMap.from_lists(1, [{(1,): 17}])
    assert pi_scale(lin, 3).polys[0] == {(1,): Fraction(17)}
    g = PolyMap.from_lists(1, [{(2,): 1, (1,): 3, (0,): 9}])
    assert pi_scale(g, 3).polys[0] == {(2,): Fraction(3), (1,): Fraction(3), (0,): Fraction(3)}


def test_idempotent_power_examples():
    assert idempotent_power(((1, 1), (0, 0)), 5).power == 1
    assert idempotent_power(((0, 1), (0, 0)), 5).power == 2
    cert = idempotent_power(((2,),), 5)
    assert cert.power == 4 and cert.matrix == ((1,),)
    assert cert.verify()


def test_idempotent_certificates_random():
    rng = random.Random(7)
    for _ in range(100):
        p = rng.choice([3, 5, 7, 11, 13])
        n = rng.randint(1, 4)
        a = tuple(tuple(rng.randrange(p) for _ in range(n)) for _ in range(n))
        cert = idempotent_power(a, p)
        power = mat_pow(a, cert.power, p)
        assert power == cert.matrix
        assert mat_mul(power, power, p) == power
        # minimality: no smaller positive power is idempotent
        pk = a
        for _ in range(1, cert.power):
            assert mat_mul(pk, pk, p) != pk
            pk = mat_mul(pk, a, p)


def test_hensel_idempotent_lift():
    e = hensel_idempotent(((1,),), 5, 10)
    assert e == ((1,),)
    # 6 = 1 mod 5 lifts back to the exact idempotent 1, not to 6
    e2 = hensel_idempotent(((6 % 5,),), 5, 10)
    assert mat_mul(e2, e2, 5**10) == e2


def test_build_local_model_worked_example():
    inst = _instance([{(2,): 1, (0,): -2}], (3,))
    m = build_local_model(inst, 3, 12)
    assert (m.m0, m.k1, m.steps_per_iterate) == (2, 1, 1)
    assert m.center == (2,)
    assert m.base_point == (15,)
    assert m.series[0].coeffs == {(2,): 3, (1,): 4}
    assert m.congruence_exponent == 1
    assert sup_valuation(m.base_point, 3) >= 1
    a_bar = mat_reduce(m.linear, 3)
    assert mat_mul(a_bar, a_bar, 3) == a_bar


def test_identity_like_map_rejected_as_preperiodic():
    inst = _instance([{(1,): 1}], (4,))
    with pytest.raises(HypothesisViolation):
        ensure_not_preperiodic(inst)


def test_linear_example_6x():
    inst = _instance([{(1,): 6}], (1,))
    m = build_local_model(inst, 5, 10)
    assert m.congruence_exponent >= 1
    assert m.linear == ((1,),)  # exact idempotent lift of 6 mod 5
    assert sup_valuation(m.base_point, 5) >= 1 or m.base_point[0] == 0


def _roundtrip_ok(inst, model, samples=20, seed=0):
    rng = random.Random(seed)
    ctx = model.ctx
    p = ctx.prime
    mod1 = ctx.modulus * p
    f1 = ModularMap.from_map(inst.mapping, mod1)
    for _ in range(samples):
        x = tuple(rng.randrange(ctx.modulus) for _ in range(model.dimension))
        y = model.to_original(x)
        z = f1.iterate(y, model.k_total)
        if model.from_original(z) != model.apply(x):
            return False
    return True


def test_conjugation_roundtrip_quadratic():
    inst = _instance([{(2,): 1, (0,): -2}], (3,))
    m = build_local_model(inst, 3, 10)
    assert _roundtrip_ok(inst, m)


def test_conjugation_roundtrip_two_dim():
    inst = _instance(
        [{(0, 1): 1, (2, 0): 1}, {(1, 0): 1, (0, 2): 1, (0, 0): 3}], (0, 0), dim=2
    )
    m = build_local_model(inst, 3, 8)
    assert _roundtrip_ok(inst, m, samples=10)


def test_index_bookkeeping_against_exact_iteration():
    """Model orbit vs exact rational iteration pushed through the chart."""
    inst = _instance([{(2,): 1, (0,): -2}], (3,))
    m = build_local_model(inst, 3, 10)
    mod1 = m.ctx.modulus * 3
    pt = (Fraction(3),)
    orbit = m.orbit(9)
    for n in range(9):
        original_index = m.original_index(n)
        exact = inst.mapping.iterate_point((Fraction(3),), original_index)
        reduced = tuple(
            Fraction(x).numerator * pow(Fraction(x).denominator, -1, mod1) % mod1
            for x in exact
        )
        assert m.from_original(reduced) == orbit[n]
    del pt


def test_family_covers_all_shifts():
    inst = _instance([{(1,): 6}], (1,))
    family = build_model_family(inst, 5, 8)
    assert len(family) == family[0].k_total
    shifts = sorted(m.shift for m in family)
    assert shifts == list(range(family[0].k_total))
    # each shift's original indices partition m0 + N
    k_total = family[0].k_total
    covered = sorted(m.original_index(0) for m in family)
    assert covered == [family[0].m0 + r for r in range(k_total)]


def test_direct_model_requires_idempotent_linear_part():
    f = PolyMap.from_lists(1, [{(1,): 2}])  # 2 mod 5 is not idempotent
    with pytest.raises(HypothesisViolation):
        direct_model(f, (1,), 5, 8)
    g = PolyMap.from_lists(1, [{(1,): 6}])
    m = direct_model(g, (1,), 5, 8)
    assert m.congruence_exponent == 1
    assert m.apply((1,)) == (6,)


def test_normalization_postconditions_random_quadratics():
    rng = random.Random(2024)
    built = 0
    while built < 20:
        p = rng.choice([3, 5, 7])
        dim = rng.choice([1, 2])
        polys = []
        for i in range(dim):
            poly = {}
            for _ in range(rng.randint(1, 3)):
                exp = tuple(rng.randint(0, 2) for _ in range(dim))
                if sum(exp) > 2:
                    continue
                poly[exp] = rng.randint(-4, 4)
            var = [0] * dim
            var[i] = 1
            poly.setdefault(tuple(var), 1)
            poly = {e: c for e, c in poly.items() if c}
            if not poly or max(sum(e) for e in poly) == 0:
                poly[tuple(var)] = 1
            polys.append(poly)
        a = tuple(Fraction(rng.randint(0, 4)) for _ in range(dim))
        try:
            inst = _instance(polys, a, dim=dim)
            m = build_local_model(inst, p, 8)
        except Exception:
            continue  # preperiodic start or oversized stride: resample
        if m.k_total > 60:
            continue
        # base point in the maximal ideal, constants of valuation >= 1,
        # idempotent linear part mod p, honest round-trip
        assert sup_valuation(m.base_point, p) >= 1
        for srs in m.series:
            assert int_valuation(srs.constant_term(), p) >= 1
        a_bar = mat_reduce(m.linear, p)
        assert mat_mul(a_bar, a_bar, p) == a_bar
        assert m.congruence_exponent >= 1
        assert _roundtrip_ok(inst, m, samples=5, seed=built)
        built += 1


def test_chart_step_is_translate_then_scale():
    """At a center fixed mod p^2, one chart step is pi_scale after translate_map."""
    for f in (
        PolyMap.from_lists(1, [{(2,): 1}]),
        PolyMap.from_lists(1, [{(2,): 1, (1,): 3, (0,): 9}]),
    ):
        step = _chart_step(f, (0,), (0,), 3)
        assert step.polys == pi_scale(translate_map(f, (0,), 3), 3).polys


def test_stabilize_orbit_guard_bounds_the_walk(monkeypatch):
    # x -> x + 1 is one cycle of p^2 residues mod p^2; at p = 101 that is
    # 10201 residues, and the guard must stop the walk long before its end
    calls = 0
    evaluate = ModularMap.__call__

    def counting(self, point):
        nonlocal calls
        calls += 1
        return evaluate(self, point)

    monkeypatch.setattr(ModularMap, "__call__", counting)
    inst = _instance([{(1,): 1, (0,): 1}], (0,))
    with pytest.raises(BudgetExceeded):
        stabilize_orbit(inst, 101, guard=100)
    assert calls <= 301


def _full_precision_exponent(model):
    """The congruence exponent read from the chain composed at precision K."""
    ctx = model.ctx
    series = _materialize_series(model.charts, model.steps_per_iterate, ctx)
    return series_congruence_exponent(series, mat_reduce(model.linear, ctx.modulus), ctx)


def test_congruence_exponent_matches_full_precision_oracle():
    """The doubling path reads the same c as the chain composed at precision K."""
    rng = random.Random(404)
    built = deep = 0
    for _ in range(400):
        if built == 40:
            break
        p = rng.choice([3, 5, 7])
        dim = rng.choice([1, 2])
        precision = rng.choice([4, 8, 12])
        polys = []
        for i in range(dim):
            # diagonal 1 + r * p^j, other coefficients r * p^j, each with its
            # own j: large j gives the congruence a high level c
            poly = {}
            for _ in range(rng.randint(1, 3)):
                exp = tuple(rng.randint(0, 2) for _ in range(dim))
                if sum(exp) <= 2:
                    poly[exp] = rng.randint(-3, 3) * p ** rng.randint(0, 3)
            var = tuple(int(j == i) for j in range(dim))
            poly[var] = 1 + rng.randint(-2, 2) * p ** rng.randint(0, 3)
            polys.append({e: c for e, c in poly.items() if c})
        a = tuple(Fraction(rng.randint(0, 4) * p ** rng.randint(0, 1)) for _ in range(dim))
        try:
            model = build_local_model(_instance(polys, a, dim=dim), p, precision)
        except (HypothesisViolation, BudgetExceeded):
            continue  # preperiodic start, non-linear model or oversized stride
        assert model.congruence_exponent == _full_precision_exponent(model)
        built += 1
        deep += model.congruence_exponent >= 2
    assert built == 40
    assert deep >= 5  # these took more than one doubling round


def test_direct_model_exponent_reaches_precision():
    # x -> x + p^9 x^2 is x mod p^9: with K = 8 the doubling runs to P = K
    m = direct_model(PolyMap.from_lists(1, [{(1,): 1, (2,): 5**9}]), (1,), 5, 8)
    assert m.congruence_exponent == 8 == _full_precision_exponent(m)
    m = direct_model(PolyMap.from_lists(1, [{(1,): 1, (2,): 5**5}]), (1,), 5, 12)
    assert m.congruence_exponent == 5 == _full_precision_exponent(m)
