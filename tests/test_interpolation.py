"""Interpolant construction, decay certification, bound and compatibility checks."""

from fractions import Fraction

import pytest

from orbitgap.errors import HypothesisViolation, PrecisionExhausted
from orbitgap.interpolation import (
    build_interpolant,
    check_hypotheses,
    constancy_test,
    decay_requirement,
    default_compat_samples,
    verify_compatibility,
    verify_error_bound,
)
from orbitgap.normalization import build_local_model, direct_model
from orbitgap.padic import INF, MahlerSeries
from orbitgap.polynomials import PolyMap
from orbitgap.reduction import ProblemInstance


def _direct(polys, a, p, precision):
    return direct_model(PolyMap.from_lists(len(a), polys), a, p, precision)


def test_check_hypotheses_examples():
    ident = _direct([{(1,): 1}], (4,), 5, 12)
    assert check_hypotheses(ident) == 12  # F - x = 0: capped at precision
    six = _direct([{(1,): 6}], (1,), 5, 12)
    assert check_hypotheses(six) == 1  # F - x = 5x
    quad = _direct([{(2,): 3, (1,): 3, (0,): 3}], (3,), 3, 12)
    assert check_hypotheses(quad) == 1  # all non-model coefficients have valuation 1


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
    left = m.apply(interp.value(n7))
    assert left[0] == pow(6, 8, ctx.modulus)
    rep = verify_compatibility(interp)
    assert rep.ok
    # the default samples include -1 and 1/(1-p)
    assert (ctx.modulus - 1) in rep.samples
    assert pow(1 - 5, -1, ctx.modulus) in rep.samples


def test_compatibility_quadratic_model():
    inst = ProblemInstance(
        1,
        PolyMap.from_lists(1, [{(2,): 1, (0,): -2}]),
        (Fraction(3),),
        ({(0,): Fraction(0)},),
    )
    model = build_local_model(inst, 3, 24)
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
    values = [interp.value(n) for n in range(11)]
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
