"""Core p-adic arithmetic: worked examples plus randomized properties."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padic_oracles import (
    PrecisionLedger,
    binomial_mod,
    exact_div,
    forward_differences_reference,
    gauss_valuation,
    mahler_evaluate_reference,
    mahler_from_values,
    mahler_value,
    series_evaluate,
    series_from_ints,
)

from orbitgap.errors import InputError, InvariantViolation, PrecisionExhausted
from orbitgap.padic import (
    INF,
    MahlerSeries,
    PadicContext,
    TruncatedSeries,
    binomial_row,
    forward_differences,
    int_valuation,
    sup_valuation,
    vp_factorial,
)

C53 = PadicContext(5, 3)
C34 = PadicContext(3, 4)


def test_context_rejects_non_primes_and_two():
    with pytest.raises(InputError):
        PadicContext(4, 3)
    with pytest.raises(InputError):
        PadicContext(2, 3)
    with pytest.raises(InputError):
        PadicContext(5, 0)


def test_basic_arithmetic():
    a, b = C53.scalar(2), C53.scalar(3)
    assert a * b % C53.modulus == 6 and int_valuation(a * b % C53.modulus, 5) == 0
    assert (a + C53.scalar(0)) % C53.modulus == a
    assert int_valuation(C53.scalar(50), 5) == 2  # 50 = 2 * 5^2
    assert int_valuation(C53.scalar(0), 5) is INF
    assert int_valuation(PadicContext(3, 4).scalar(7), 3) == 0
    assert C53.scalar(-1) == 124 and C53.scalar(130) == 5
    assert sup_valuation((C53.scalar(50), C53.scalar(10)), 5) == 1
    assert sup_valuation((0, 0), 5) is INF


def test_fraction_reduction():
    # 1/2 = 63 mod 125 since 2*63 = 126 = 1 mod 125
    x = C53.scalar(Fraction(1, 2))
    assert x * C53.scalar(2) % C53.modulus == 1
    with pytest.raises(InputError):
        C53.scalar(Fraction(1, 5))


def test_exact_div_and_ledger():
    ledger = PrecisionLedger()
    q = exact_div(C53, 50, 10, ledger)
    assert q == 5
    assert ledger.total == 1  # one uniformizer digit lost
    with pytest.raises(InputError):
        exact_div(C53, 1, 5)
    with pytest.raises(PrecisionExhausted):
        exact_div(C53, 5, 0)


def test_binomial_examples():
    assert binomial_mod(7, 0, C53) == 1
    assert binomial_mod(5, 2, C53) == 10
    c = binomial_mod(9, 3, C34)
    assert c == 84 % 81 == 3 and int_valuation(c, 3) == 1
    # p-adic argument agrees with the integer path on canonical representatives
    n = C53.scalar(9)
    assert binomial_row(C53, n, 3)[3] == math.comb(9, 3) % 125


def test_binomial_row_matches_comb():
    ctx = PadicContext(3, 8)
    n = ctx.scalar(25)
    row = binomial_row(ctx, n, 10)
    for k in range(11):
        assert row[k] == math.comb(25, k) % ctx.modulus


def _draw_row_shape(data) -> tuple[PadicContext, int]:
    """A context and a row length kmax that binomial_row accepts: v_p(kmax!) < K."""
    p = data.draw(st.sampled_from([3, 5, 7]))
    ctx = PadicContext(p, data.draw(st.integers(1, 12)))
    top = 0
    while vp_factorial(top + 1, p) < ctx.precision:
        top += 1
    return ctx, data.draw(st.integers(0, top))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_binomial_row_matches_comb_random(data):
    """Every entry of the row of a residue n equals math.comb(n, k) mod p^K."""
    ctx, kmax = _draw_row_shape(data)
    n = data.draw(st.integers(0, ctx.modulus - 1))
    row = binomial_row(ctx, n, kmax)
    assert row == [math.comb(n, k) % ctx.modulus for k in range(kmax + 1)]


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_binomial_row_of_integers_outside_the_residues(data):
    """For a negative r and for r >= p^K every entry is the exact C(r, k)
    reduced mod p^K (binomial_mod), not the row of r's residue."""
    ctx, kmax = _draw_row_shape(data)
    r = data.draw(st.one_of(st.integers(max_value=-1), st.integers(min_value=ctx.modulus)))
    assert binomial_row(ctx, r, kmax) == [binomial_mod(r, k, ctx) for k in range(kmax + 1)]


def test_binomial_row_padic_consistency():
    # C(n, k) is continuous: congruent arguments give congruent values
    ctx_hi = PadicContext(3, 12)
    ctx_lo = PadicContext(3, 4)
    e = vp_factorial(6, 3)
    n1, n2 = 7, 7 + 3**12
    r1 = binomial_row(ctx_hi, ctx_hi.scalar(n1), 6)[6]
    r2 = binomial_mod(n2, 6, ctx_hi)
    assert (r1 - r2) % 3 ** (12 - e) == 0
    assert ctx_lo  # silence unused warning paths


def test_binomial_insufficient_precision():
    ctx = PadicContext(3, 2)
    with pytest.raises(PrecisionExhausted):
        binomial_row(ctx, ctx.scalar(5), 9)  # v_3(9!) = 4 >= 2
    with pytest.raises(PrecisionExhausted):
        binomial_mod(5, 9, ctx)


@given(st.integers(0, 5**6 - 1), st.integers(0, 5**6 - 1))
@settings(max_examples=100)
def test_product_valuation_additive_below_cap(x, y):
    ctx = PadicContext(5, 6)
    a, b = ctx.scalar(x), ctx.scalar(y)
    va, vb = int_valuation(a, 5), int_valuation(b, 5)
    if va is not INF and vb is not INF:
        if va + vb < ctx.precision:
            assert int_valuation(a * b % ctx.modulus, 5) == va + vb


def _random_series(ctx, nvars, rng_data, max_terms=4):
    items = {}
    for _ in range(rng_data.draw(st.integers(1, max_terms))):
        exp = tuple(rng_data.draw(st.integers(0, 3)) for _ in range(nvars))
        items[exp] = rng_data.draw(st.integers(0, ctx.modulus - 1))
    return series_from_ints(ctx, nvars, items)


@given(st.data())
@settings(max_examples=60)
def test_gauss_norm_submultiplicative(data):
    ctx = PadicContext(3, 6)
    f = _random_series(ctx, 2, data)
    g = _random_series(ctx, 2, data)
    fg = f * g
    assert gauss_valuation(fg) >= gauss_valuation(f) + gauss_valuation(g)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_product_bounds_are_sound(data):
    """Perturbing each factor's unknown parts by multiples of p^bound moves
    each product coefficient by a multiple of p^(its product bound)."""
    ctx = PadicContext(data.draw(st.sampled_from([3, 5])), 6)
    p, mod = ctx.prime, ctx.modulus
    nvars = data.draw(st.integers(1, 2))

    def series():
        coeffs, precs = {}, {}
        for _ in range(data.draw(st.integers(1, 4))):
            exp = tuple(data.draw(st.integers(0, 2)) for _ in range(nvars))
            unit = data.draw(st.integers(0, mod - 1))
            coeffs[exp] = unit * p ** data.draw(st.integers(0, 3)) % mod
            bound = data.draw(st.one_of(st.none(), st.integers(0, ctx.precision)))
            if bound is not None:
                precs[exp] = bound
        coeffs = {e: r for e, r in coeffs.items() if r or e in precs}
        return TruncatedSeries(ctx, nvars, coeffs, precs)

    def perturbed(s):
        return {
            e: r + p ** s.precs[e] * data.draw(st.integers(-mod, mod)) if e in s.precs else r
            for e, r in s.coeffs.items()
        }

    def product(a, b):
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return out

    f, g = series(), series()
    fg = f * g
    moved = product(perturbed(f), perturbed(g))
    for e in set(moved) | set(fg.coeffs):
        bound = min(fg.precs.get(e, INF), ctx.precision)
        assert (moved.get(e, 0) - fg.coefficient(e)) % p**bound == 0


@given(st.lists(st.integers(-(10**6), 10**6), min_size=2, max_size=12))
@settings(max_examples=100)
def test_mahler_matches_integer_difference_oracle(seq):
    """Forward-difference reconstruction over exact integers is the oracle."""
    ctx = PadicContext(5, 10)
    values = [(ctx.scalar(v),) for v in seq]
    series = mahler_from_values(ctx, values)
    # oracle: exact integer differences, then exact binomial reconstruction
    diffs = [list(seq)]
    while len(diffs[-1]) > 1:
        row = diffs[-1]
        diffs.append([b - a for a, b in zip(row, row[1:])])
    exact_coeffs = [row[0] for row in diffs]
    for n in range(len(seq)):
        recon = sum(exact_coeffs[k] * math.comb(n, k) for k in range(len(exact_coeffs)))
        assert mahler_value(series, n)[0] == recon % ctx.modulus
        assert recon == seq[n]


def test_mahler_constant_series():
    ctx = PadicContext(5, 6)
    v = (7,)
    series = MahlerSeries(ctx, (v,))
    for n in [0, 3, ctx.scalar(12), -1]:
        assert mahler_value(series, n) == v


def test_mahler_geometric_example():
    # coefficients 5^k interpolate 6^n: at n=2, 1 + 2*5 + 25 = 36
    ctx = PadicContext(5, 8)
    coeffs = tuple((5**k,) for k in range(6))
    series = MahlerSeries(ctx, coeffs)
    assert mahler_value(series, 2)[0] == 36
    assert mahler_value(series, 0)[0] == 1


def test_series_evaluate_and_compose():
    ctx = PadicContext(5, 6)
    f = series_from_ints(ctx, 1, {(2,): 1, (0,): 1})  # x^2 + 1
    x = (3,)
    assert series_evaluate(f, x) == 10
    g = series_from_ints(ctx, 1, {(1,): 5, (0,): 2})  # 5t + 2
    comp = f.compose([g])  # (5t+2)^2 + 1
    assert comp.coefficient((0,)) == 5
    assert comp.coefficient((1,)) == 20
    assert comp.coefficient((2,)) == 25


def test_forward_differences_shape():
    ctx = PadicContext(3, 4)
    vals = [(v,) for v in (1, 4, 9, 16)]
    diffs = forward_differences(vals, ctx.modulus)
    assert [d[0] for d in diffs] == [1, 3, 2, 0]


@given(st.data())
@settings(max_examples=60)
def test_mahler_column_kernels_match_the_term_loops(data):
    """forward_differences and evaluate work on coordinate columns; they give
    the per-term loops' results, and a row of the wrong length still raises
    (InvariantViolation in the package, ValueError in the oracle)."""
    ctx = PadicContext(data.draw(st.sampled_from([3, 5])), data.draw(st.integers(4, 6)))
    mod = ctx.modulus
    dim = data.draw(st.integers(1, 3))
    coeff = st.tuples(*[st.integers(0, mod - 1)] * dim)
    values = data.draw(st.lists(coeff, min_size=1, max_size=8))
    diffs = forward_differences(values, mod)
    assert diffs == forward_differences_reference(values, mod)
    series = mahler_from_values(ctx, values)
    assert series.coeffs == tuple(diffs)
    row = data.draw(st.lists(st.integers(0, mod - 1), min_size=len(values), max_size=len(values)))
    assert series.evaluate(row) == mahler_evaluate_reference(series, row)
    n = data.draw(st.integers(-mod, 2 * mod))
    own = binomial_row(ctx, n % mod, series.terms - 1)
    assert mahler_value(series, n) == mahler_evaluate_reference(series, own)
    wrong = row + [1] if data.draw(st.booleans()) else row[:-1]
    with pytest.raises(ValueError):
        mahler_evaluate_reference(series, wrong)
    with pytest.raises(InvariantViolation):
        series.evaluate(wrong)
