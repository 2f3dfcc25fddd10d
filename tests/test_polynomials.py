"""Exact rational polynomial arithmetic and modular reductions."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padic_oracles import (
    compose_maps,
    iterate_point,
    make_const,
    make_var,
    map_from_lists,
    modular_eval,
    poly_compose,
)

from orbitgap.errors import InputError
from orbitgap.padic import PadicContext, TruncatedSeries, is_prime
from orbitgap.polynomials import (
    ModularMap,
    PolyMap,
    horner_eval,
    horner_form,
    horner_table,
    poly_eval,
    reduce_poly,
)

SQ_PLUS_ONE = map_from_lists(1, [{(2,): 1, (0,): 1}])


def test_eval_and_compose_agree():
    f = {(2, 0): Fraction(1), (0, 1): Fraction(3)}  # x^2 + 3y
    args = [make_const(2, 2), make_var(2, 1)]  # x -> 2, y -> y
    comp = poly_compose(f, args)
    assert poly_eval(comp, (0, 5)) == poly_eval(f, (2, 5))


def test_map_iteration_matches_composition():
    f2 = compose_maps(SQ_PLUS_ONE, SQ_PLUS_ONE)
    for x in (0, 1, Fraction(1, 3), -2):
        assert f2.evaluate((x,))[0] == iterate_point(SQ_PLUS_ONE, (x,), 2)[0]


def test_reduce_examples():
    # (3x+1)/2 mod 5 -> 4x + 3 since 1/2 = 3 mod 5
    p = {(1,): Fraction(3, 2), (0,): Fraction(1, 2)}
    assert reduce_poly(p, 5) == {(1,): 4, (0,): 3}
    with pytest.raises(InputError):
        reduce_poly({(0,): Fraction(1, 5)}, 5)


def test_quasi_finite_guard_requires_square_map():
    with pytest.raises(InputError):
        PolyMap(2, ({(1, 0): Fraction(1)},))


coeff = st.integers(-9, 9)


def _random_map(data, nvars):
    polys = []
    for _ in range(nvars):
        p = {}
        for _ in range(data.draw(st.integers(1, 3))):
            exp = tuple(data.draw(st.integers(0, 2)) for _ in range(nvars))
            p[exp] = Fraction(data.draw(coeff))
        # force quasi-finiteness: guarantee a non-constant term
        exp = tuple(1 if i == 0 else 0 for i in range(nvars))
        p.setdefault(exp, Fraction(1))
        polys.append({e: c for e, c in p.items() if c != 0})
    return map_from_lists(nvars, polys)


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_reduction_is_a_homomorphism(data):
    """reduce(f o f) = reduce(f) o reduce(f) and reduce(f(a)) = f_p(a_p)."""
    nvars = data.draw(st.integers(1, 2))
    f = _random_map(data, nvars)
    p = data.draw(st.sampled_from([3, 5, 7, 11]))
    point = tuple(data.draw(st.integers(0, p - 1)) for _ in range(nvars))

    composed = compose_maps(f, f)
    # composition of reductions equals reduction of the composition, coefficientwise
    ctx = PadicContext(p, 1)
    reduced = [TruncatedSeries(ctx, nvars, reduce_poly(q, p)) for q in f.polys]
    assert reduce_poly(composed.polys[0], p) == reduced[0].compose(reduced).coeffs

    fp = ModularMap.from_map(f, p)
    exact = f.evaluate(point)
    assert fp(point) == tuple(Fraction(x).numerator % p for x in exact)


def test_identity_map():
    ident = PolyMap(3, tuple(make_var(3, i) for i in range(3)))
    assert ident.evaluate((1, 2, 3)) == (1, 2, 3)


def test_modular_map_iterate():
    fp = ModularMap.from_map(SQ_PLUS_ONE, 5)
    assert fp.iterate((0,), 3) == (0,)  # 0 -> 1 -> 2 -> 0 mod 5


def test_horner_form_layout():
    # x0^2 * x1 + 3: a form in x0 whose x0^2 coefficient is a form in x1
    assert horner_form({(2, 1): 1, (0, 0): 3}) == (0, (1, 1, (), 1), ((2, 3),), 0)
    # x1^5 + x1^2: no x0 at all, one gap of 3 and a trailing x1^2
    assert horner_form({(0, 5): 1, (0, 2): 1}) == (1, 1, ((3, 1),), 2)
    assert horner_form({}) == (0, 0, (), 0)
    assert horner_form({(0, 0): 4}) == (0, 4, (), 0)


SMALL_PRIMES = [p for p in range(2, 1000) if is_prime(p)]


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_horner_matches_term_by_term(data):
    """ModularMap and the variety evaluator agree with the pow-per-term oracle
    on sparse polynomials mod p, p^2 and p^K, at any integer representatives."""
    nvars = data.draw(st.integers(1, 3))
    p = data.draw(st.sampled_from(SMALL_PRIMES))
    m = p ** data.draw(st.sampled_from([1, 2, data.draw(st.integers(3, 32))]))
    exponent = st.tuples(*[st.integers(0, 12)] * nvars)
    poly = st.dictionaries(exponent, st.integers(-(10**40), 10**40), max_size=6)
    polys = [data.draw(poly) for _ in range(nvars)]
    constant = {(0,) * nvars: data.draw(st.integers(-(10**6), 10**6))}
    point = tuple(data.draw(st.integers(-3 * m, 3 * m)) for _ in range(nvars))

    fp = ModularMap.from_map(map_from_lists(nvars, polys), m)
    assert fp(point) == tuple(modular_eval(q, point, m) for q in fp.polys)
    special = ModularMap.from_map(map_from_lists(nvars, [constant, {}, constant][:nvars]), m)
    assert special(point) == tuple(modular_eval(q, point, m) for q in special.polys)
    for q in [*fp.polys, *special.polys, {}]:
        assert horner_eval(horner_form(q), point, m) == modular_eval(q, point, m)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_horner_table_matches_horner_eval(data):
    """The column-wise evaluator gives horner_eval's value at every point of
    F_p^N, for sparse forms with degree gaps, nested forms and constants."""
    nvars = data.draw(st.integers(1, 3))
    p = data.draw(st.sampled_from([2, 3, 5, 7] if nvars < 3 else [2, 3, 5]))
    m = p ** data.draw(st.integers(1, 3))
    exponent = st.tuples(*[st.integers(0, 12)] * nvars)
    poly = data.draw(st.dictionaries(exponent, st.integers(-(10**6), 10**6), max_size=6))
    constant = {(0,) * nvars: data.draw(st.integers(-(10**6), 10**6))}
    points = list(product(range(p), repeat=nvars))
    cols = [[pt[i] for pt in points] for i in range(nvars)]
    for q in [poly, constant, {}]:
        form = horner_form(reduce_poly(q, m))
        assert horner_table(form, cols, m) == [horner_eval(form, pt, m) for pt in points]
