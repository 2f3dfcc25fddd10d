"""Normalization pipeline: conjugation stages, idempotent powers, model invariants."""

import random
from fractions import Fraction
from itertools import product
from types import SimpleNamespace

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st
from padic_oracles import (
    MIXED_RANK,
    apply_reference,
    chart_args,
    direct_model,
    exact_chart_step,
    frac_valuation,
    from_original,
    idempotent_power,
    iterate_point,
    make_const,
    make_var,
    map_from_lists,
    materialize_series,
    model_series,
    model_series_reference,
    poly_add,
    poly_compose,
    series_evaluate,
    to_original,
)

from orbitgap import normalization
from orbitgap.errors import BudgetExceeded, HypothesisViolation, InputError, OrbitgapError
from orbitgap.modmat import mat_mul, mat_pow, mat_reduce
from orbitgap.normalization import (
    LocalModel,
    _chart_step,
    _iterate_power,
    _rotation_series,
    build_model_family,
    ensure_not_preperiodic,
    hensel_idempotent,
    series_congruence_exponent,
    stabilize_orbit,
)
from orbitgap.padic import PadicContext, int_valuation, sup_valuation
from orbitgap.polynomials import ModularMap, Poly, PolyMap, reduce_poly, reduce_rational
from orbitgap.problemfile import ProblemInstance, parse_problem


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
        if frac_valuation(const, p) < 2:
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
            assert frac_valuation(scaled, p) >= (0 if d else 1), (
                "scaled coefficient left the integer ring; the precondition was violated"
            )
            out[e] = scaled
        polys.append(out)
    return PolyMap(f.nvars, tuple(polys))


def _instance(map_polys, a, dim=1, targets=()):
    f = map_from_lists(dim, map_polys)
    return ProblemInstance(
        dim, f, tuple(Fraction(x) for x in a), ({(0,) * dim: Fraction(0)},), targets
    )


def test_stabilize_examples(monkeypatch):
    inst = _instance([{(2,): 1, (0,): 1}], (0,))
    assert stabilize_orbit(inst, 3)[:2] == (3, 2)  # 0,1,2,5,8,2,... mod 9
    # translation x + p: additive orbit mod p^2 has cycle length p
    for p in (3, 5):
        inst2 = _instance([{(1,): 1, (0,): p}], (0,))
        assert stabilize_orbit(inst2, p)[:2] == (p, 0)
    # already fixed mod p^2
    inst3 = _instance([{(1,): 10}], (0,))
    assert stabilize_orbit(inst3, 3)[:2] == (1, 0)
    # the guard bounds tail + cycle: x -> x + 1 mod 25 has 0 + 25
    inst4 = _instance([{(1,): 1, (0,): 1}], (0,))
    monkeypatch.setattr(normalization, "STABILIZE_GUARD", 25)
    assert stabilize_orbit(inst4, 5)[:2] == (25, 0)
    monkeypatch.setattr(normalization, "STABILIZE_GUARD", 24)
    with pytest.raises(BudgetExceeded):
        stabilize_orbit(inst4, 5)


def test_translate_examples():
    f = map_from_lists(1, [{(2,): 1}])
    t = translate_map(f, (0,), 3)
    assert t.polys[0] == {(2,): Fraction(1)}
    g = map_from_lists(1, [{(2,): 1, (1,): 3, (0,): 9}])
    tg = translate_map(g, (0,), 3)
    assert tg.polys[0][(0,)] == 9
    # a center that is not fixed mod p^2 is rejected
    with pytest.raises(InputError):
        translate_map(map_from_lists(1, [{(2,): 1, (0,): 3}]), (0,), 3)


def test_pi_scale_examples():
    f = map_from_lists(1, [{(2,): 1}])
    assert pi_scale(f, 3).polys[0] == {(2,): Fraction(3)}
    lin = map_from_lists(1, [{(1,): 17}])
    assert pi_scale(lin, 3).polys[0] == {(1,): Fraction(17)}
    g = map_from_lists(1, [{(2,): 1, (1,): 3, (0,): 9}])
    assert pi_scale(g, 3).polys[0] == {(2,): Fraction(3), (1,): Fraction(3), (0,): Fraction(3)}


def test_idempotent_power_examples():
    assert idempotent_power(((1, 1), (0, 0)), 5).power == 1
    assert idempotent_power(((0, 1), (0, 0)), 5).power == 2
    cert = idempotent_power(((2,),), 5)
    assert cert.power == 4 and cert.matrix == ((1,),)
    assert cert.verify()
    for a in (((1, 1), (0, 0)), ((0, 1), (0, 0)), ((2,),)):
        assert _iterate_power([a], 5) == idempotent_power(a, 5).power
    # a common power: nilpotent of index 2 with order 4 gives 4; nilpotent
    # of index 3 with order 2 gives 4, which is neither 3 nor 2
    assert _iterate_power([((0, 1), (0, 0)), ((2, 0), (0, 1))], 5) == 4
    shift3 = ((0, 1, 0), (0, 0, 1), (0, 0, 0))
    assert _iterate_power([shift3, ((4, 0, 0), (0, 1, 0), (0, 0, 1))], 5) == 4


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
        assert _iterate_power([a], p) == cert.power
    # the least power idempotent for every matrix of a list at once
    for _ in range(100):
        p = rng.choice([3, 5])
        n = rng.randint(1, 2)
        mats = [
            tuple(tuple(rng.randrange(p) for _ in range(n)) for _ in range(n))
            for _ in range(rng.randint(1, 3))
        ]
        k = 1
        while any(mat_mul(b, b, p) != b for b in (mat_pow(a, k, p) for a in mats)):
            k += 1
        assert _iterate_power(mats, p) == k


def test_hensel_idempotent_lift():
    e = hensel_idempotent(((1,),), 5, 10)
    assert e == ((1,),)
    # 6 = 1 mod 5 lifts back to the exact idempotent 1, not to 6
    e2 = hensel_idempotent(((6 % 5,),), 5, 10)
    assert mat_mul(e2, e2, 5**10) == e2


def test_build_local_model_worked_example():
    inst = _instance([{(2,): 1, (0,): -2}], (3,))
    m = build_model_family(inst, 3, 12)[0]
    assert (m.m0, m.k1, m.steps_per_iterate) == (2, 1, 1)
    assert m.center == (2,)
    assert m.base_point == (15,)
    assert model_series(m)[0].coeffs == {(2,): 3, (1,): 4}
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
    m = build_model_family(inst, 5, 10)[0]
    assert m.congruence_exponent >= 1
    assert m.linear == ((1,),)  # exact idempotent lift of 6 mod 5
    assert sup_valuation(m.base_point, 5) >= 1 or m.base_point[0] == 0


def _roundtrip_ok(inst, model, samples=20, seed=0):
    """The chart conjugates the model to f^k_total on random points, the
    model series agrees with the model map there, the charts are the exact
    chart steps along the mod-p^2 cycle reduced mod p^K, and the base point
    is the orbit point of the model's original index."""
    rng = random.Random(seed)
    ctx = model.ctx
    p = ctx.prime
    mod1 = ctx.modulus * p
    f1 = ModularMap.from_map(inst.mapping, mod1)
    f2, eta = ModularMap.from_map(inst.mapping, p * p), model.center
    for g in model.chart_mods:
        exact = exact_chart_step(inst.mapping, eta, f2(eta), p)
        if g != ModularMap.from_map(exact, ctx.modulus):
            return False
        eta = f2(eta)
    a1 = tuple(reduce_rational(x, mod1) for x in inst.initial_point)
    if to_original(model, model.base_point) != f1.iterate(a1, model.original_index(0)):
        return False
    series = model_series(model)
    for _ in range(samples):
        x = tuple(rng.randrange(ctx.modulus) for _ in range(len(model.center)))
        y = to_original(model, x)
        z = f1.iterate(y, model.k_total)
        fx = model.apply(x)
        if from_original(model, z) != fx:
            return False
        if any(series_evaluate(s, x) != c % s.ctx.modulus for s, c in zip(series, fx)):
            return False
    return True


def test_conjugation_roundtrip_quadratic():
    inst = _instance([{(2,): 1, (0,): -2}], (3,))
    m = build_model_family(inst, 3, 10)[0]
    assert _roundtrip_ok(inst, m)


def test_conjugation_roundtrip_two_dim():
    inst = _instance(
        [{(0, 1): 1, (2, 0): 1}, {(1, 0): 1, (0, 2): 1, (0, 0): 3}], (0, 0), dim=2
    )
    family = build_model_family(inst, 3, 8)
    assert _roundtrip_ok(inst, family[0], samples=10)
    # every rotation of the chart chain conjugates at its own shift
    assert family[0].k1 == 6 and len(family) == family[0].k_total
    for model in family:
        assert _roundtrip_ok(inst, model, samples=3, seed=model.shift)


def test_index_bookkeeping_against_exact_iteration():
    """Model orbit vs exact rational iteration pushed through the chart."""
    inst = _instance([{(2,): 1, (0,): -2}], (3,))
    m = build_model_family(inst, 3, 10)[0]
    mod1 = m.ctx.modulus * 3
    pt = (Fraction(3),)
    for n in range(9):
        original_index = m.original_index(n)
        exact = iterate_point(inst.mapping, (Fraction(3),), original_index)
        reduced = tuple(
            Fraction(x).numerator * pow(Fraction(x).denominator, -1, mod1) % mod1
            for x in exact
        )
        assert from_original(m, reduced) == m.points[n]
    del pt


def test_model_orbit_is_the_stored_points():
    """A model stores F^0(a'), ..., F^K(a'), its base point first, when E is
    the identity, which the congruence lemma proves at every n, and up to
    F^(2K)(a') otherwise: on the mixed-rank input at p = 3, and for
    x^2 + x - 2 from 5 at p = 3, where E = 0."""
    inst = _instance([{(2,): 1, (0,): -2}], (3,))
    m = build_model_family(inst, 3, 10)[0]
    assert m.linear == ((1,),)
    assert len(m.points) == 11 and m.points[0] == m.base_point
    inst, params = parse_problem(MIXED_RANK)
    mixed = build_model_family(inst, 3, params.precision)
    assert all(m.linear != ((1, 0), (0, 1)) for m in mixed)
    assert {len(m.points) for m in mixed} == {2 * params.precision + 1}
    m = build_model_family(_instance([{(2,): 1, (1,): 1, (0,): -2}], (5,)), 3, 10)[0]
    assert m.linear == ((0,),) and len(m.points) == 21


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


def test_family_is_one_cycle_and_one_chart_chain(monkeypatch):
    """x^2 - 2 from 5 at p = 29 cycles through k1 = 14 disks mod 29^2: the
    family of 14 models makes one mod-p^2 walk and one chart step per disk."""
    calls = {"stabilize_orbit": 0, "_chart_step": 0}
    for name in calls:
        original = getattr(normalization, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(normalization, name, counting)
    inst = _instance([{(2,): 1, (0,): -2}], (5,))
    family = build_model_family(inst, 29, 8)
    assert (family[0].k1, family[0].steps_per_iterate, len(family)) == (14, 1, 14)
    assert calls == {"stabilize_orbit": 1, "_chart_step": 14}


def test_direct_model_requires_idempotent_linear_part():
    f = map_from_lists(1, [{(1,): 2}])  # 2 mod 5 is not idempotent
    with pytest.raises(HypothesisViolation):
        direct_model(f, (1,), 5, 8)
    g = map_from_lists(1, [{(1,): 6}])
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
            m = build_model_family(inst, p, 8)[0]
        except Exception:
            continue  # preperiodic start or oversized stride: resample
        if m.k_total > 60:
            continue
        # base point in the maximal ideal, constants of valuation >= 1,
        # idempotent linear part mod p, honest round-trip
        assert sup_valuation(m.base_point, p) >= 1
        for srs in model_series(m):
            assert int_valuation(srs.coefficient((0,) * srs.nvars), p) >= 1
        a_bar = mat_reduce(m.linear, p)
        assert mat_mul(a_bar, a_bar, p) == a_bar
        assert m.congruence_exponent >= 1
        assert _roundtrip_ok(inst, m, samples=5, seed=built)
        built += 1


@st.composite
def _chart_cases(draw):
    """(f, eta, p, K): an integer map of dimension 1-3 and degree <= 3, and a center."""
    dim = draw(st.integers(1, 3))
    exps = [e for e in product(range(4), repeat=dim) if sum(e) <= 3]
    terms = st.dictionaries(st.sampled_from(exps), st.integers(-9, 9), max_size=4)
    f = map_from_lists(dim, [draw(terms) for _ in range(dim)])
    p = draw(st.sampled_from([3, 5, 7]))
    eta = tuple(draw(st.integers(0, p * p - 1)) for _ in range(dim))
    return f, eta, p, draw(st.integers(1, 12))


@settings(max_examples=60, deadline=None)
@example(case=(map_from_lists(1, [{(2,): 1}]), (0,), 3, 8))
@example(case=(map_from_lists(1, [{(2,): 1, (1,): 3, (0,): 9}]), (0,), 3, 8))
@example(case=(map_from_lists(2, [{(1, 1): 2, (0, 0): 1}, {(2, 0): 1}]), (4, 7), 3, 1))
@given(case=_chart_cases())
def test_chart_step_is_translate_then_scale(case):
    """The chart step mod p^K is the exact (f(eta + p*x) - eta_next)/p reduced
    mod p^K, with eta_next = f(eta) mod p^2, and transport_poly is the exact
    q(eta + p*x) reduced mod p^K, also at K = 1, where p*x vanishes mod p^K.
    At a center fixed mod p^2 the step is pi_scale after translate_map."""
    f, eta, p, precision = case
    ctx = PadicContext(p, precision)
    eta_next = ModularMap.from_map(f, p * p)(eta)
    exact = exact_chart_step(f, eta, eta_next, p)
    step = _chart_step(f, eta, eta_next, ctx)
    assert step == ModularMap.from_map(exact, ctx.modulus)
    model = SimpleNamespace(center=eta, ctx=ctx)
    for q in f.polys:
        want = reduce_poly(poly_compose(q, chart_args(eta, p)), ctx.modulus)
        assert LocalModel.transport_poly(model, q) == want
    if eta_next == eta:
        scaled = pi_scale(translate_map(f, eta, p), p)
        assert step == ModularMap.from_map(scaled, ctx.modulus)


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
    monkeypatch.setattr(normalization, "STABILIZE_GUARD", 100)
    inst = _instance([{(1,): 1, (0,): 1}], (0,))
    with pytest.raises(BudgetExceeded):
        stabilize_orbit(inst, 101)
    assert calls <= 301


def test_long_cycle_refused_before_any_chart_step(monkeypatch):
    # x -> x + 1 from 0 runs through all 101^2 residues mod 101^2: k1 = 10201
    # > K_TOTAL_CAP, and k_total = k1 * k2 >= k1, so no chart is ever built
    calls = 0
    chart_step = normalization._chart_step

    def counting(*args):
        nonlocal calls
        calls += 1
        return chart_step(*args)

    monkeypatch.setattr(normalization, "_chart_step", counting)
    inst = _instance([{(1,): 1, (0,): 1}], (0,))
    with pytest.raises(BudgetExceeded, match="k1 = 10201 exceeds the cap 10000"):
        build_model_family(inst, 101, 8)
    assert calls == 0


def _full_precision_exponent(model):
    """The congruence exponent read from the chain composed at precision K."""
    ctx = model.ctx
    series = materialize_series(model.chart_mods, model.steps_per_iterate, ctx)
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
            model = build_model_family(_instance(polys, a, dim=dim), p, precision)[0]
        except (HypothesisViolation, BudgetExceeded):
            continue  # preperiodic start, non-linear model or oversized stride
        assert model.congruence_exponent == _full_precision_exponent(model)
        built += 1
        deep += model.congruence_exponent >= 2
    assert built == 40
    assert deep >= 5  # these took more than one doubling round


def test_direct_model_exponent_reaches_precision():
    # x -> x + p^9 x^2 is x mod p^9: with K = 8 the doubling runs to P = K
    m = direct_model(map_from_lists(1, [{(1,): 1, (2,): 5**9}]), (1,), 5, 8)
    assert m.congruence_exponent == 8 == _full_precision_exponent(m)
    m = direct_model(map_from_lists(1, [{(1,): 1, (2,): 5**5}]), (1,), 5, 12)
    assert m.congruence_exponent == 5 == _full_precision_exponent(m)


def _residues(series):
    return [{e: r for e, r in s.coeffs.items() if r} for s in series]


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_rotation_series_match_each_rotations_own_chain(data):
    """The series of every rotation, built from head and tail composites
    shared by the rotations, has the residues, the exponent c and the final
    precision P of that rotation's chain composed one chart at a time.

    The charts are random maps of chart form: constant terms of valuation
    >= 1 and degree-d coefficients of valuation >= d - 1.  E_s is the linear
    part of rotation s moved by p^j_s on the diagonal, with j_s drawn per
    rotation, so the rotations stop the doubling at different P."""
    p = data.draw(st.sampled_from([3, 5]))
    dim = data.draw(st.sampled_from([1, 2]))
    precision = data.draw(st.sampled_from([4, 6, 8]))
    k1, k2 = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3))
    ctx = PadicContext(p, precision)
    exps = [e for e in product(range(3), repeat=dim) if sum(e) <= 2]

    def depth(d):
        return 0 if d == 1 else max(d - 1, 1) + data.draw(st.integers(0, precision))

    charts = tuple(
        map_from_lists(
            dim,
            [{e: data.draw(st.integers(-4, 4)) * p ** depth(sum(e)) for e in exps}
             for _ in range(dim)],
        )
        for _ in range(k1)
    )
    rotations = data.draw(st.lists(st.integers(0, k1 - 1), min_size=1, unique=True))
    linears = {}
    for s in rotations:
        full = materialize_series(charts[s:] + charts[:s], k2, ctx)
        j = data.draw(st.integers(1, precision))
        linears[s] = tuple(
            tuple(
                (full[i].coefficient(tuple(int(t == k) for t in range(dim))) + (i == k) * p**j)
                % ctx.modulus
                for k in range(dim)
            )
            for i in range(dim)
        )
    got = _rotation_series(charts, k2, linears, ctx)
    assert sorted(got) == sorted(rotations)
    for s in rotations:
        series, c = got[s]
        ref_series, ref_c = model_series_reference(charts[s:] + charts[:s], k2, linears[s], ctx)
        assert c == ref_c
        assert series[0].ctx == ref_series[0].ctx
        assert _residues(series) == _residues(ref_series)


@given(st.data())
@settings(max_examples=15, deadline=None)
def test_family_series_and_push_match_the_step_by_step_chain(data):
    """On random 1-d and 2-d families, every model's series and c are those
    of its own chain composed chart by chart, apply is apply_reference at any
    point, and apply maps each walk point to the next."""
    dim = data.draw(st.sampled_from([1, 2]))
    p = data.draw(st.sampled_from([3, 5, 7] if dim == 1 else [3, 5]))
    precision = data.draw(st.sampled_from([4, 8]))
    exps = [e for e in product(range(3), repeat=dim) if sum(e) <= 2]
    polys = [{e: data.draw(st.integers(-4, 4)) for e in exps} for _ in range(dim)]
    a = tuple(Fraction(data.draw(st.integers(0, 4))) for _ in range(dim))
    try:
        family = build_model_family(_instance(polys, a, dim=dim), p, precision)
    except OrbitgapError:
        reject()
    mod = family[0].ctx.modulus
    point = st.tuples(*[st.integers(0, mod - 1)] * dim)
    for model in family:
        ref_series, ref_c = model_series_reference(
            model.chart_mods, model.steps_per_iterate, model.linear, model.ctx
        )
        assert model.congruence_exponent == ref_c
        assert _residues(model_series(model)) == _residues(ref_series)
        points = [*model.points[:3], *data.draw(st.lists(point, max_size=4))]
        assert [model.apply(x) for x in points] == [apply_reference(model, x) for x in points]
        assert [model.apply(x) for x in model.points[:2]] == list(model.points[1:3])
