"""Metamorphic tests: the answer must not change with a change of coordinates."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from orbitgap.pipeline import run
from orbitgap.problemfile import RunParameters
from orbitgap.polynomials import PolyMap, make_const, make_var, poly_add, poly_compose
from orbitgap.reduction import ProblemInstance

# At this horizon every degree-2 return is certified exactly.  Beyond it,
# screening alone can keep false positives: x -> -2x^2 - 2x from -3 (a
# conjugate of x^2 - 2) with V: x = -264 gets screened returns 20 and 38 and
# a violation verdict at n_max = 40, with or without a translation.
PARAMS = RunParameters(prime_range=(3, 50), precision=16, n_max=16, screen_primes=3)


def _translated(inst: ProblemInstance, t: int) -> ProblemInstance:
    """The conjugate by x -> x + t: f(x + t) - t from a - t, with V(x + t)."""
    arg = [poly_add(make_var(1, 0), make_const(1, t))]
    f = poly_add(poly_compose(inst.mapping.polys[0], arg), make_const(1, -t))
    return ProblemInstance(
        1,
        PolyMap(1, ({e: c for e, c in f.items() if c},)),
        (inst.initial_point[0] - t,),
        tuple(poly_compose(q, arg) for q in inst.variety),
        (),
    )


def _outcome(inst: ProblemInstance):
    report = run("analyze", inst, PARAMS, "metamorphic")
    records = {r["record"]: r for r in report.records}
    return (
        report.exit_code,
        records.get("failure", {}).get("stage"),
        records.get("returns", {}).get("entries"),
        records.get("gap_report", {}).get("verdict"),
    )


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_translation_leaves_the_run_unchanged(data):
    """A random integer map of degree 2 or 3 and its conjugate by a nonzero
    integer translation stop at the same stage with the same returns, and
    neither reports a gap violation.  V is a point of the orbit or a random
    integer."""
    degree = data.draw(st.integers(2, 3))
    f = {(k,): Fraction(data.draw(st.integers(-3, 3))) for k in range(degree)}
    f[(degree,)] = Fraction(data.draw(st.sampled_from([-2, -1, 1, 2])))
    mapping = PolyMap(1, ({e: c for e, c in f.items() if c},))
    a = (Fraction(data.draw(st.integers(-5, 5))),)
    target = a
    for _ in range(data.draw(st.integers(0, 2))):
        target = mapping.evaluate(target)
    if data.draw(st.booleans()):
        target = (Fraction(data.draw(st.integers(-50, 50))),)
    inst = ProblemInstance(1, mapping, a, ({(1,): Fraction(1), (0,): -target[0]},), ())
    t = data.draw(st.integers(-24, 24).filter(bool))

    outcome = _outcome(inst)
    assert _outcome(_translated(inst, t)) == outcome
    assert outcome[3] != "violation"
