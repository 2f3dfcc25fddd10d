"""Metamorphic tests: the answer must not change with a change of coordinates."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
from padic_oracles import make_const, make_var, poly_add, poly_compose

from orbitgap.padic import is_prime
from orbitgap.pipeline import run
from orbitgap.problemfile import RunParameters
from orbitgap.polynomials import PolyMap
from orbitgap.reduction import ProblemInstance, avoidance_search, bad_primes

# At this horizon every degree-2 return is certified exactly.  Beyond it,
# screening alone can keep false positives: x -> -2x^2 - 2x from -3 (a
# conjugate of x^2 - 2) with V: x = -264 gets screened returns 20 and 38 and
# a violation verdict at n_max = 40, with or without a translation.
PARAMS = RunParameters(prime_range=(3, 50), precision=16, n_max=16, screen_primes=3)


def _translated(inst: ProblemInstance, t: tuple[int, ...]) -> ProblemInstance:
    """The conjugate by x -> x + t: f(x + t) - t from a - t, with V(x + t)
    and every declared target moved by -t."""
    n = inst.dimension
    arg = [poly_add(make_var(n, i), make_const(n, ti)) for i, ti in enumerate(t)]
    polys = tuple(
        poly_add(poly_compose(f, arg), make_const(n, -ti)) for f, ti in zip(inst.mapping.polys, t)
    )
    return ProblemInstance(
        n,
        PolyMap(n, polys),
        tuple(x - ti for x, ti in zip(inst.initial_point, t)),
        tuple(poly_compose(q, arg) for q in inst.variety),
        tuple(tuple(x - ti for x, ti in zip(pt, t)) for pt in inst.targets),
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
    assert _outcome(_translated(inst, (t,))) == outcome
    assert outcome[3] != "violation"


def _certificates(inst: ProblemInstance):
    primes = [p for p in range(3, 50) if is_prime(p)]
    scan = avoidance_search(inst, primes, bad_primes(inst, search_bound=max(primes)))
    return [(c.prime, c.verdict, c.bound, c.depths) for c in scan.certificates]


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_translation_leaves_avoidance_certificates_unchanged(data):
    """A random integer map of dimension 1 or 2 with a declared target, and
    its conjugate by a nonzero integer translation, which moves the target
    too, get the same verdict, bound and depths at every prime below 50."""
    n = data.draw(st.integers(1, 2))
    monomial = st.tuples(*[st.integers(0, 2)] * n).filter(lambda e: sum(e) <= 2)
    polys = []
    for i in range(n):
        f = data.draw(st.dictionaries(monomial, st.integers(-3, 3).filter(bool), max_size=4))
        if all(sum(e) == 0 for e in f):
            f[tuple(2 * (j == i) for j in range(n))] = 1
        polys.append(f)
    point = st.tuples(*[st.integers(-5, 5)] * n)
    target = data.draw(point)
    line = {(1,) + (0,) * (n - 1): 1, (0,) * n: -target[0]}  # V: x_0 = target_0
    inst = ProblemInstance(
        n,
        PolyMap.from_lists(n, polys),
        tuple(map(Fraction, data.draw(point))),
        ({e: Fraction(c) for e, c in line.items() if c},),
        (tuple(map(Fraction, target)),),
    )
    t = data.draw(st.tuples(*[st.integers(-24, 24)] * n).filter(any))

    assert _certificates(_translated(inst, t)) == _certificates(inst)
