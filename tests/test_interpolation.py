"""Interpolant construction, decay certification, bound and compatibility checks."""

import dataclasses
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from padic_oracles import (
    direct_model,
    interpolant_value,
    model_points_by_apply,
    verify_compatibility_reference,
    verify_error_bound_reference,
)

from orbitgap import interpolation, padic, pipeline
from orbitgap.errors import (
    HypothesisViolation,
    InvariantViolation,
    OrbitgapError,
    PrecisionExhausted,
)
from orbitgap.interpolation import (
    build_interpolant,
    constancy_test,
    decay_requirement,
    default_bound_samples,
    default_compat_samples,
    verify_compatibility,
    verify_error_bound,
)
from orbitgap.normalization import LocalModel, build_model_family
from orbitgap.padic import INF, MahlerSeries, TruncatedSeries, binomial_rows
from orbitgap.polynomials import PolyMap
from orbitgap.problemfile import parse_problem
from orbitgap.reduction import ProblemInstance


def _direct(polys, a, p, precision):
    return direct_model(PolyMap.from_lists(len(a), polys), a, p, precision)


def test_check_hypotheses_examples():
    ident = _direct([{(1,): 1}], (4,), 5, 12)
    assert ident.congruence_exponent == 12  # F - x = 0: capped at precision
    six = _direct([{(1,): 6}], (1,), 5, 12)
    assert six.congruence_exponent == 1  # F - x = 5x
    quad = _direct([{(2,): 3, (1,): 3, (0,): 3}], (3,), 3, 12)
    assert quad.congruence_exponent == 1  # all non-model coefficients have valuation 1


def test_interpolant_geometric():
    m = _direct([{(1,): 6}], (1,), 5, 16)
    interp = build_interpolant(m, terms=12)
    # Delta^k of 6^n at 0 is 5^k
    for k, cv in enumerate(interp.series.coeffs):
        assert cv[0] == pow(5, k, 5**16)
    assert interp.decay[:4] == (0, 1, 2, 3)


def test_interpolant_identity_is_constant():
    m = _direct([{(1,): 1}], (7,), 5, 10)
    interp = build_interpolant(m, terms=8)
    assert interp.decay[0] == 0
    assert all(v is INF for v in interp.decay[1:])
    rep = constancy_test(interp)
    assert rep.constant and rep.beta == (7,)


def test_interpolant_3x_squared_short_window():
    m = _direct([{(2,): 3}], (3,), 3, 20)
    interp = build_interpolant(m, terms=4)
    # first difference 27 - 3 = 24 has valuation 1 >= c = 1
    assert interp.series.coeffs[1][0] == 24
    assert interp.decay[1] == 1


def test_decay_gate_rejects_super_attracting_orbit():
    # 3x^2 at a' = 3: differences stall at valuation 1, far below k*c
    m = _direct([{(2,): 3}], (3,), 3, 24)
    with pytest.raises(PrecisionExhausted):
        build_interpolant(m, terms=16)


def test_decay_requirement_monotone():
    reqs = [decay_requirement(k, 1, 3, 64) for k in range(20)]
    assert reqs == sorted(reqs)
    assert decay_requirement(0, 1, 3, 64) == 0


def test_error_bound_within_and_beyond_window():
    m = _direct([{(1,): 6}], (1,), 5, 24)
    interp = build_interpolant(m, terms=16)
    rep = verify_error_bound(interp, samples=range(0, 33))
    assert rep.ok
    # margins are non-decreasing in n up to the precision cap
    caps = [min(m_, r_) for m_, r_ in zip(rep.margins, rep.required)]
    assert all(b >= a for a, b in zip(caps, caps[1:]))


def test_error_bound_exact_on_window():
    m = _direct([{(1,): 6}], (1,), 5, 20)
    interp = build_interpolant(m, terms=20)
    rep = verify_error_bound(interp, samples=[0, 1, 7, 19])
    assert all(v is INF for v in rep.margins)


def test_compatibility_examples():
    m = _direct([{(1,): 6}], (1,), 5, 20)
    interp = build_interpolant(m, terms=20)
    ctx = m.ctx
    # integer sample: both sides are 6^8
    n7 = ctx.scalar(7)
    left = m.apply(interpolant_value(interp, n7))
    assert left[0] == pow(6, 8, ctx.modulus)
    rep = verify_compatibility(interp)
    assert rep.ok
    # the default samples include -1 and 1/(1-p)
    assert (ctx.modulus - 1) in rep.samples
    assert pow(1 - 5, -1, ctx.modulus) in rep.samples
    # the arguments analyze has always checked: the two specials and 24 seeded residues
    assert list(rep.samples) == default_compat_samples(ctx, 24) and len(rep.samples) == 26


def test_compatibility_quadratic_model():
    inst = ProblemInstance(
        1,
        PolyMap.from_lists(1, [{(2,): 1, (0,): -2}]),
        (Fraction(3),),
        ({(0,): Fraction(0)},),
    )
    model = build_model_family(inst, 3, 24)[0]
    interp = build_interpolant(model, terms=24)
    rep = verify_compatibility(interp, threshold=22)
    assert rep.ok


def test_constancy_flags_moving_orbit():
    m = _direct([{(1,): 3}], (3,), 3, 12)
    interp = build_interpolant(m, terms=6)
    rep = constancy_test(interp)
    assert not rep.constant
    # first difference of 3^(n+1) at 0 is 9 - 3 = 6
    assert interp.series.coeffs[1][0] == 6


def test_mahler_roundtrip_differences():
    """Evaluating the interpolant on the window and re-differencing is the identity."""
    m = _direct([{(1,): 6}], (1,), 5, 16)
    interp = build_interpolant(m, terms=10)
    values = [interpolant_value(interp, n) for n in range(11)]
    again = MahlerSeries.from_values(m.ctx, values)
    assert again.coeffs == interp.series.coeffs


def test_interpolant_record_roundtrip():
    m = _direct([{(1,): 6}], (1,), 5, 12)
    interp = build_interpolant(m, terms=6)
    rec = interp.to_record()
    assert rec["prime"] == 5 and rec["precision"] == 12
    assert rec["coefficients"][1] == [5]
    assert rec["terms"] == 6


def test_strict_compat_failure_raises():
    m = _direct([{(1,): 6}], (1,), 5, 10)
    interp = build_interpolant(m, terms=4)  # tiny window: tail visible
    samples = default_compat_samples(m.ctx, 4)
    with pytest.raises(HypothesisViolation):
        verify_compatibility(interp, samples, threshold=10, strict=True)


def test_bound_shortfall_in_window_is_a_broken_reconstruction():
    m = _direct([{(1,): 6}], (1,), 5, 12)
    interp = build_interpolant(m, terms=12)
    points = list(m.points)
    points[5] = (points[5][0] + 1,)
    broken = dataclasses.replace(interp, model=dataclasses.replace(m, points=tuple(points)))
    assert verify_error_bound(broken, strict=False).witness == 5
    with pytest.raises(InvariantViolation, match="reconstruction failed at 5"):
        verify_error_bound(broken)


def test_bound_shortfall_beyond_window_is_precision_exhausted():
    # x^2 + x - 2 from 5 at precision 8: the interpolant passes the decay gate
    # on its 9 terms, but the uncertified tail shows at n = 9
    inst = ProblemInstance(
        1, PolyMap.from_lists(1, [{(2,): 1, (1,): 1, (0,): -2}]), (Fraction(5),),
        ({(0,): Fraction(0)},),
    )
    model = build_model_family(inst, 3, 8)[0]
    interp = build_interpolant(model)
    assert verify_error_bound(interp, strict=False).witness == 9
    with pytest.raises(PrecisionExhausted, match="n=9"):
        verify_error_bound(interp)


_QUADRATIC_EXPONENTS = {
    1: [(0,), (1,), (2,)],
    2: [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)],
}


@given(st.data())
@settings(max_examples=20, deadline=None)
def test_family_points_and_shared_rows_match_per_model_oracles(data):
    """Every model's walk points are its iterates, and the checks on rows
    shared by the family give the reports of evaluating each model alone."""
    dim = data.draw(st.sampled_from([1, 2]))
    p = data.draw(st.sampled_from([3, 5, 7] if dim == 1 else [3]))
    precision = data.draw(st.sampled_from([6, 8]))
    coeff = st.integers(-4, 4)
    polys = [{e: data.draw(coeff) for e in _QUADRATIC_EXPONENTS[dim]} for _ in range(dim)]
    a = tuple(Fraction(data.draw(st.integers(0, 4))) for _ in range(dim))
    try:
        inst = ProblemInstance(
            dim, PolyMap.from_lists(dim, polys), a, ({(0,) * dim: Fraction(0)},)
        )
        family = build_model_family(inst, p, precision)
    except OrbitgapError:
        reject()
    ctx = family[0].ctx
    bound_samples = default_bound_samples(precision)
    compat_samples = default_compat_samples(ctx)
    rows = binomial_rows(ctx, [*bound_samples, *compat_samples], precision)
    for model in family:
        assert list(model.points) == model_points_by_apply(model, 2 * precision + 1)
        try:
            interp = build_interpolant(model, rows=rows)
        except PrecisionExhausted:
            continue
        assert verify_error_bound(
            interp, bound_samples, strict=False, rows=rows
        ) == verify_error_bound_reference(interp)
        compat = verify_compatibility(interp, compat_samples, strict=False, rows=rows)
        assert compat == verify_compatibility_reference(interp)
        # the sample -1 comes first; the oracle evaluates its n + 1 at the residue 0
        assert compat.samples[0] == ctx.modulus - 1


FAMILY_P29 = {
    "dimension": 1,
    "map": [[[[2], 1], [[0], -2]]],
    "initial_point": [5],
    "variety": [[[[1], 1], [[0], -23]]],
    "parameters": {"prime_range": [29, 50], "precision": 32, "n_max": 1000},
}


def test_interpolation_stage_computes_each_row_once(monkeypatch):
    """x^2 - 2 from 5 at p = 29 has a 14-model family; the stage computes the
    binomial row of each sample argument once, not once per model (G(x + 1)
    comes from the row of x), and iterates no model map outside the
    compatibility check, which pushes the values of G at its arguments
    through the model map together: one push per model and no per-point
    apply."""
    inst, params = parse_problem(FAMILY_P29)
    state = pipeline.RunState(inst, params, family=build_model_family(inst, 29, 32))
    rows, applies, pushes = Counter(), Counter(), {}
    binomial_row, apply, push = padic.binomial_row, LocalModel.apply, LocalModel.push

    def counting_row(ctx, r, kmax):
        rows[r, kmax] += 1
        return binomial_row(ctx, r, kmax)

    def counting_apply(model, point):
        applies[model.shift] += 1
        return apply(model, point)

    def recording_push(model, points):
        pushes.setdefault(model.shift, []).append(list(points))
        return push(model, points)

    monkeypatch.setattr(padic, "binomial_row", counting_row)
    monkeypatch.setattr(interpolation, "binomial_row", counting_row)
    monkeypatch.setattr(LocalModel, "apply", counting_apply)
    monkeypatch.setattr(LocalModel, "push", recording_push)
    report = pipeline.RunReport("sha")
    pipeline.stage_interpolation(report, state)
    assert len(state.interps) == 14 and report.error is None
    ctx = state.family[0].ctx
    compat_samples = default_compat_samples(ctx)
    arguments = {*default_bound_samples(32), *compat_samples}
    assert max(rows.values()) == 1 and set(rows) == {(r, 32) for r in arguments}
    # one F(G(x)) per compatibility argument, all of a model's in one push
    assert applies == Counter()
    assert len(compat_samples) == 26 and sorted(pushes) == list(range(14))
    for shift, interp in state.interps.items():
        assert pushes[shift] == [[interpolant_value(interp, n) for n in compat_samples]]


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
