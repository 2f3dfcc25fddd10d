"""Interpolant construction, decay certification, the bound check and the congruence lemma."""

import json
import random
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from padic_oracles import (
    FAMILY_P29,
    MIXED_RANK,
    direct_model,
    interpolant_value,
    mahler_from_values,
    map_from_lists,
    margin,
    model_points_by_apply,
    model_series,
    verify_compatibility_reference,
    verify_error_bound_reference,
    window_interpolant,
)

from orbitgap import interpolation, padic, pipeline
from orbitgap.errors import InvariantViolation, OrbitgapError, PrecisionExhausted
from orbitgap.interpolation import (
    build_interpolant,
    constancy_test,
    decay_requirement,
    verify_compatibility,
)
from orbitgap.normalization import LocalModel, build_model_family
from orbitgap.padic import INF, TruncatedSeries
from orbitgap.problemfile import ProblemInstance, parse_problem


def _direct(polys, a, p, precision):
    return direct_model(map_from_lists(len(a), polys), a, p, precision)


def _diagonal(precision):
    """(6x, 5y) over Z_5 from (1, 0): E = diag(1, 0) is not the identity, so
    the model stores 2K + 1 points, and the orbit (6^n, 0) passes the table."""
    return _direct([{(1, 0): 6}, {(0, 1): 5}], (1, 0), 5, precision)


def test_check_hypotheses_examples():
    ident = _direct([{(1,): 1}], (4,), 5, 12)
    assert ident.congruence_exponent == 12  # F - x = 0: capped at precision
    six = _direct([{(1,): 6}], (1,), 5, 12)
    assert six.congruence_exponent == 1  # F - x = 5x
    quad = _direct([{(2,): 3, (1,): 3, (0,): 3}], (3,), 3, 12)
    assert quad.congruence_exponent == 1  # all non-model coefficients have valuation 1


def test_interpolant_geometric():
    m = _direct([{(1,): 6}], (1,), 5, 16)
    interp = build_interpolant(m)
    # Delta^k of 6^n at 0 is 5^k
    for k, cv in enumerate(interp.series.coeffs):
        assert cv[0] == pow(5, k, 5**16)
    assert interp.decay[:4] == (0, 1, 2, 3)


def test_interpolant_identity_is_constant():
    m = _direct([{(1,): 1}], (7,), 5, 10)
    interp = build_interpolant(m)
    assert interp.decay[0] == 0
    assert all(v is INF for v in interp.decay[1:])
    assert constancy_test(interp) and interp.series.coeffs[0] == (7,)


def test_interpolant_3x_squared_short_window():
    # at K = 4 the window [0, 4] is short enough for the decay gate, and the
    # super-attracting orbit (E = 0) fails the bound table at n = K + 1
    m = _direct([{(2,): 3}], (3,), 3, 4)
    coeffs = window_interpolant(m).series.coeffs
    # first difference 27 - 3 = 24 has valuation 1 >= c = 1
    assert coeffs[1][0] == 24
    assert padic.sup_valuation(coeffs[1], 3) == 1
    with pytest.raises(PrecisionExhausted, match="n=5:"):
        build_interpolant(m)


def test_decay_gate_rejects_super_attracting_orbit():
    # 3x^2 at a' = 3: differences stall at valuation 1, far below k*c
    m = _direct([{(2,): 3}], (3,), 3, 24)
    with pytest.raises(PrecisionExhausted):
        build_interpolant(m)


def test_decay_requirement_monotone():
    reqs = [decay_requirement(k, 1, 3, 64) for k in range(20)]
    assert reqs == sorted(reqs)
    assert decay_requirement(0, 1, 3, 64) == 0


def test_error_bound_within_and_beyond_window():
    # 6x over Z_5 at K = 24: the bound holds at every n <= 2K, by the
    # congruence lemma (E = I: the model stores no point beyond K) and by
    # evaluating G alone at each n; (6x, 5y), where E is not I, passes the
    # difference table of its 2K + 1 points
    for m, count in ((_direct([{(1,): 6}], (1,), 5, 24), 25), (_diagonal(24), 49)):
        assert len(m.points) == count
        interp = build_interpolant(m)
        assert verify_error_bound_reference(interp) is None


def test_error_bound_exact_on_window():
    # on [0, K] the point differences are G's coefficients, so G is exact there
    m = _direct([{(1,): 6}], (1,), 5, 20)
    interp = build_interpolant(m)
    assert padic.forward_differences(m.points[:21], m.ctx.modulus) == list(interp.series.coeffs)
    assert all(margin(interpolant_value(interp, n), m.points[n], m.ctx) is INF
               for n in range(21))


def test_bound_checks_every_index():
    # (6x, 5y) over Z_5 at K = 16, E not I, with one stored point corrupted
    # beyond the window: at K + 2, between two of the old sampled indices,
    # and at 2K, above the last of them.  The first failing n is the
    # corrupted one.
    m = _diagonal(16)
    build_interpolant(m)
    for n in (18, 32):
        points = list(m.points)
        points[n] = ((points[n][0] + 1) % m.ctx.modulus, points[n][1])
        with pytest.raises(PrecisionExhausted, match=f"n={n}:"):
            build_interpolant(m._replace(points=tuple(points)))


def _specials(ctx) -> list[int]:
    """-1 and 1/(1 - p) = 1 + p + p^2 + ..., the classic non-integer arguments, mod p^K."""
    return [ctx.modulus - 1, pow(1 - ctx.prime, -1, ctx.modulus)]


def test_compatibility_examples():
    m = _direct([{(1,): 6}], (1,), 5, 20)
    interp = build_interpolant(m)
    ctx = m.ctx
    # integer argument: both sides are 6^8
    left = m.apply(interpolant_value(interp, 7))
    assert left[0] == pow(6, 8, ctx.modulus)
    # E = 1, so the lemma proves F(G(x)) = G(x + 1) mod 5^20 on all of Z_5
    assert verify_compatibility(interp) is True
    assert verify_compatibility_reference(interp, _specials(ctx)) is None


def test_compatibility_quadratic_model():
    inst = ProblemInstance(
        1,
        map_from_lists(1, [{(2,): 1, (0,): -2}]),
        (Fraction(3),),
        ({(0,): Fraction(0)},),
    )
    model = build_model_family(inst, 3, 24)[0]
    interp = build_interpolant(model)
    assert verify_compatibility(interp) is True  # F(G(x)) = G(x + 1) mod 3^24
    assert verify_compatibility_reference(interp, [*_specials(model.ctx), *range(30)]) is None


def test_constancy_flags_moving_orbit():
    # at K = 6 the orbit 6^n, whose k-th difference is 5^k, passes every check
    m = _direct([{(1,): 6}], (1,), 5, 6)
    interp = build_interpolant(m)
    assert not constancy_test(interp)
    # first difference of 6^n at 0 is 6 - 1 = 5
    assert interp.series.coeffs[1][0] == 5


def test_mahler_roundtrip_differences():
    """Evaluating the interpolant on the window and re-differencing is the identity."""
    m = _direct([{(1,): 6}], (1,), 5, 16)
    interp = build_interpolant(m)
    values = [interpolant_value(interp, n) for n in range(17)]
    again = mahler_from_values(m.ctx, values)
    assert again.coeffs == interp.series.coeffs


def test_interpolant_record_roundtrip():
    m = _direct([{(1,): 6}], (1,), 5, 6)
    interp = build_interpolant(m)
    rec = interp.to_record()
    assert rec["prime"] == 5 and rec["precision"] == 6
    assert rec["coefficients"][1] == [5]
    assert rec["terms"] == 6


def test_bound_shortfall_in_window_is_a_broken_reconstruction():
    """6x over Z_5 has E = I, so the congruence lemma proves v(a_k) >=
    min(k c, K): a window point off by 5 gives coefficient 5 valuation 1, a
    program error, though decay_requirement(5) is only 1.  (6x, 5y), where
    E is not I, fits a window point off by 5^(K-1) as well, passes the decay
    gate, and fails the table at K + 1."""
    m = _direct([{(1,): 6}], (1,), 5, 12)
    build_interpolant(m)
    points = list(m.points)
    points[5] = (points[5][0] + 5,)
    assert decay_requirement(5, 1, 5, 12) == 1
    shortfall = re.escape("coefficient 5 has valuation 1 < min(k*c, K) = 5,")
    with pytest.raises(InvariantViolation, match=shortfall):
        build_interpolant(m._replace(points=tuple(points)))
    m = _diagonal(12)
    points = list(m.points)
    points[5] = ((points[5][0] + 5**11) % m.ctx.modulus, 0)
    with pytest.raises(PrecisionExhausted, match="n=13:"):
        build_interpolant(m._replace(points=tuple(points)))


def test_bound_shortfall_beyond_window_is_precision_exhausted():
    # x^2 + x - 2 from 5 at precision 8: the interpolant passes the decay gate
    # on its 9 terms, but the uncertified tail shows at n = 9
    inst = ProblemInstance(
        1, map_from_lists(1, [{(2,): 1, (1,): 1, (0,): -2}]), (Fraction(5),),
        ({(0,): Fraction(0)},),
    )
    model = build_model_family(inst, 3, 8)[0]
    assert model.linear == ((0,),) and len(model.points) == 17
    with pytest.raises(PrecisionExhausted, match="n=9:"):
        build_interpolant(model)


_QUADRATIC_EXPONENTS = {
    1: [(0,), (1,), (2,)],
    2: [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)],
}


@given(st.data())
@settings(max_examples=20, deadline=None)
def test_family_points_and_checks_match_per_model_oracles(data):
    """Every model's walk points are its iterates, K + 1 of them when E = I
    and 2K + 1 otherwise, and its checks give the verdicts of evaluating
    that model alone."""
    dim = data.draw(st.sampled_from([1, 2]))
    p = data.draw(st.sampled_from([3, 5, 7] if dim == 1 else [3]))
    precision = data.draw(st.sampled_from([6, 8]))
    coeff = st.integers(-4, 4)
    polys = [{e: data.draw(coeff) for e in _QUADRATIC_EXPONENTS[dim]} for _ in range(dim)]
    a = tuple(Fraction(data.draw(st.integers(0, 4))) for _ in range(dim))
    try:
        inst = ProblemInstance(
            dim, map_from_lists(dim, polys), a, ({(0,) * dim: Fraction(0)},)
        )
        family = build_model_family(inst, p, precision)
    except OrbitgapError:
        reject()
    for model in family:
        count = precision + 1 if _linear_part_is_identity(model) else 2 * precision + 1
        assert list(model.points) == model_points_by_apply(model, count)
        # a failing bound raises at the oracle's first failing n <= 2K
        witness = verify_error_bound_reference(window_interpolant(model))
        try:
            build_interpolant(model)
        except PrecisionExhausted as exc:
            if not str(exc).startswith("interpolant coefficient"):  # the decay gate
                assert str(exc).startswith(f"approximation bound failed at n={witness}:")
            continue
        assert witness is None


def _linear_part_is_identity(model) -> bool:
    """E = I, read off the model map series: its linear part is I mod p.  An
    idempotent congruent to I mod p is invertible, so it is I."""
    series, p, dim = model_series(model), model.prime, len(model.center)
    units = [tuple(int(k == j) for k in range(dim)) for j in range(dim)]
    return all(
        series[i].coeffs.get(e, 0) % p == int(i == j)
        for i in range(dim) for j, e in enumerate(units)
    )


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_congruence_lemma_proves_the_interpolation_when_e_is_the_identity(data):
    """verify_compatibility returns True exactly when E = I.  Then the
    lemma's conclusions hold against the oracles: v(a_k) >= min(k c, K) at
    every k <= K, G(n) = F^n(a') mod p^K at every n <= 8K, and F(G(x)) =
    G(x + 1) mod p^K at -1, at 1/(1 - p) and at 24 seeded random residues.
    K = 1 and K = 2 are drawn too: no level below p^K is ever compared."""
    dim = data.draw(st.sampled_from([1, 2]))
    p = data.draw(st.sampled_from([3, 5, 7]))
    precision = data.draw(st.sampled_from([1, 2, 3, 8, 16]))
    coeff = st.integers(-4, 4)
    polys = [{e: data.draw(coeff) for e in _QUADRATIC_EXPONENTS[dim]} for _ in range(dim)]
    a = tuple(Fraction(data.draw(st.integers(0, 4))) for _ in range(dim))
    try:
        inst = ProblemInstance(
            dim, map_from_lists(dim, polys), a, ({(0,) * dim: Fraction(0)},)
        )
        family = build_model_family(inst, p, precision)
    except OrbitgapError:
        reject()
    model = data.draw(st.sampled_from(family))
    ctx, c = model.ctx, model.congruence_exponent
    identity = _linear_part_is_identity(model)
    if not identity:
        try:
            interp = build_interpolant(model)
        except PrecisionExhausted:
            reject()
        assert verify_compatibility(interp) is False
        return
    # the lemma proves the decay bound that construction checks, so it does not fail
    interp = build_interpolant(model)
    assert len(model.points) == precision + 1
    assert verify_compatibility(interp) is True
    zero = (0,) * dim
    for k, coeff_k in enumerate(interp.series.coeffs):
        assert margin(coeff_k, zero, ctx) >= min(k * c, precision)
    points = model_points_by_apply(model, 8 * precision + 1)
    assert all(interpolant_value(interp, n) == point for n, point in enumerate(points))
    rng = random.Random(0)
    residues = [rng.randrange(ctx.modulus) for _ in range(24)]
    assert verify_compatibility_reference(interp, [*_specials(ctx), *residues]) is None


def test_constant_interpolant_moved_by_the_chart_maps_is_a_program_error():
    """Constant points that the model's own chart maps do not fix: the walk
    and the maps disagree, an invariant violation (exit 4), not a failed
    hypothesis."""
    inst = ProblemInstance(
        1, map_from_lists(1, [{(2,): 1, (0,): -2}]), (Fraction(3),),
        ({(0,): Fraction(0)},),
    )
    model = build_model_family(inst, 3, 8)[0]
    beta = model.base_point  # its orbit moves
    assert model.apply(beta) != beta
    interp = build_interpolant(model._replace(points=(beta,) * len(model.points)))
    assert all(v is INF for v in interp.decay[1:])
    with pytest.raises(InvariantViolation, match="not fixed by the model map"):
        constancy_test(interp)
    assert pipeline.exit_code_for(InvariantViolation("")) == 4


PROBLEMS = Path(__file__).resolve().parents[1] / "problems"

@pytest.mark.parametrize(
    "doc, prime, models",
    [
        (FAMILY_P29, 29, 7),
        (json.loads((PROBLEMS / "square_minus_two.json").read_text()), 3, 1),
    ],
    ids=["family-p29", "square_minus_two"],
)
def test_interpolation_stage_requests_three_window_rows_per_model(monkeypatch, doc, prime, models):
    """x^2 - 2 from 5 at p = 29 has a 14-model family, 7 of whose cycle
    points lie on V mod 29, and x^2 - 2 from 3 at p = 3 a single model,
    off V, which is still built because no shift is on V.  Each model built
    requests the binomial rows of its window checks, C(n, 0..K) at n = 0, 1
    and K, and
    none for the error bound, which reads the difference table of the model
    points.  Every model there has E = I, so the congruence lemma proves
    the step identity: no model map is iterated and the ledger names no
    range."""
    inst, params = parse_problem(doc)
    precision = params.precision
    state = pipeline.RunState(inst, params)
    state.family = build_model_family(inst, prime, precision)
    builds, applies = [], Counter()
    build, binomial_row, apply = pipeline.build_interpolant, padic.binomial_row, LocalModel.apply

    def counting_build(model):
        builds.append([])
        return build(model)

    def counting_row(ctx, r, kmax):
        builds[-1].append((r, kmax))
        return binomial_row(ctx, r, kmax)

    def counting_apply(model, point):
        applies[model.shift] += 1
        return apply(model, point)

    monkeypatch.setattr(pipeline, "build_interpolant", counting_build)
    monkeypatch.setattr(interpolation, "binomial_row", counting_row)
    monkeypatch.setattr(LocalModel, "apply", counting_apply)
    report = pipeline.RunReport("sha")
    pipeline.stage_interpolation(report, state)
    assert len(state.interps) == models and report.error is None
    window = sorted((r, precision) for r in (0, 1, precision))
    assert [sorted(rows) for rows in builds] == [window] * models
    assert applies == Counter()
    assert report.assumptions == []


@pytest.mark.parametrize(
    "doc, prime, span, models",
    [
        (FAMILY_P29, 29, 1, 7),
        (json.loads((PROBLEMS / "square_minus_two.json").read_text()), 3, 1, 1),
        (MIXED_RANK, 3, 2, 3),
    ],
    ids=["family-p29", "square_minus_two", "mixed-rank"],
)
def test_interpolation_stage_builds_one_table_per_model(monkeypatch, doc, prime, span, models):
    """Each model on V gets one table of forward differences of its points,
    which gives its coefficients and bound check: K + 1 of them when E = I
    (the two samples), 2K + 1 when it is not (the mixed-rank input).  7 of
    the 14 family-p29 shifts and 3 of the 9 mixed-rank shifts are on V; the
    one square_minus_two shift is off V, and is built as no shift is on V."""
    inst, params = parse_problem(doc)
    precision = params.precision
    state = pipeline.RunState(inst, params)
    state.family = build_model_family(inst, prime, precision)
    tables = Counter()
    forward_differences = interpolation.forward_differences

    def counting_table(values, mod):
        tables[len(values)] += 1
        return forward_differences(values, mod)

    monkeypatch.setattr(interpolation, "forward_differences", counting_table)
    pipeline.stage_interpolation(pipeline.RunReport("sha"), state)
    assert tables == Counter({span * precision + 1: models})


def test_model_family_composes_each_rotation_from_shared_composites(monkeypatch):
    """The 14 rotations of the family-p29 chain come from heads and tails
    composed once for all of them: at most 4 * k1 series compositions,
    where one chain per rotation took k1^2 = 196."""
    calls = Counter()
    compose = TruncatedSeries.compose

    def counting_compose(series, args):
        calls["compose"] += 1
        return compose(series, args)

    monkeypatch.setattr(TruncatedSeries, "compose", counting_compose)
    inst, params = parse_problem(FAMILY_P29)
    family = build_model_family(inst, 29, params.precision)
    k1 = family[0].k1
    assert (k1, len(family)) == (14, 14)
    assert 0 < calls["compose"] <= 4 * k1
