"""Metamorphic tests: the answer must not change with a change of coordinates,
with the order of the declared periodic points, or, for the return set, with
the range of primes the avoidance scan visits."""

from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from padic_oracles import make_const, make_var, map_from_lists, poly_add, poly_compose

from orbitgap import reduction
from orbitgap.padic import is_prime
from orbitgap.pipeline import run
from orbitgap.polynomials import PolyMap
from orbitgap.problemfile import ProblemInstance, RunParameters, load_problem
from orbitgap.reduction import avoidance_search, bad_primes

PROBLEMS = Path(__file__).resolve().parents[1] / "problems"

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
    certs = avoidance_search(inst, primes, bad_primes(inst, search_bound=max(primes)))
    return [(c["prime"], c["verdict"], c["bound"], c["depths"]) for c in certs]


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
        map_from_lists(n, polys),
        tuple(map(Fraction, data.draw(point))),
        ({e: Fraction(c) for e, c in line.items() if c},),
        (tuple(map(Fraction, target)),),
    )
    t = data.draw(st.tuples(*[st.integers(-24, 24)] * n).filter(any))

    assert _certificates(_translated(inst, t)) == _certificates(inst)


def _order_outcome(inst: ProblemInstance, params: RunParameters):
    """Exit code, bad primes, certificate rows and chosen prime of analyze."""
    report = run("analyze", inst, params, "metamorphic")
    records = {r["record"]: r for r in report.records}
    rows = [
        (r["prime"], r["verdict"], r["bound"], r["depths"])
        for r in records["certificates"]["rows"]
    ]
    diagnostics = records.get("diagnostics")
    return (
        report.exit_code,
        records["bad_primes"]["primes"],
        rows,
        diagnostics and diagnostics["prime"],
    )


def _assert_order_free(inst: ProblemInstance, params: RunParameters) -> None:
    """Every order of the declared points gives the outcome of the first
    order, with the depths of each certificate permuted the same way."""
    code, bad, rows, prime = _order_outcome(inst, params)
    for perm in permutations(range(len(inst.targets))):
        targets = tuple(inst.targets[i] for i in perm)
        permuted = [
            (p, verdict, bound, [depths[i] for i in perm] if depths else depths)
            for p, verdict, bound, depths in rows
        ]
        assert _order_outcome(inst._replace(targets=targets), params) == (
            code, bad, permuted, prime,
        ), perm


@pytest.mark.parametrize("name", sorted(p.name for p in PROBLEMS.glob("*.json")))
def test_order_of_declared_points_leaves_the_run_unchanged(name):
    """Each sample with its declared points and two more (the origin and the
    image of the initial point), in every order."""
    inst, params, _ = load_problem(str(PROBLEMS / name))
    extra = ((Fraction(0),) * inst.dimension, inst.mapping.evaluate(inst.initial_point))
    inst = inst._replace(targets=inst.targets + extra)
    _assert_order_free(inst, params._replace(precision=16, n_max=200))


def test_order_of_declared_points_above_the_guard(monkeypatch):
    """(x^2, y^2) from (5, 7), V: x = y, at p = 5 with the space above the
    guard: (0, 0) is fixed and (-1, -1) is not, so the prime fails as
    periodic, with no scan, in either order."""
    monkeypatch.setattr(reduction, "ENUM_GUARD", 24)
    inst = ProblemInstance(
        2,
        map_from_lists(2, [{(2, 0): 1}, {(0, 2): 1}]),
        (Fraction(5), Fraction(7)),
        ({(1, 0): Fraction(1), (0, 1): Fraction(-1)},),
        ((Fraction(-1), Fraction(-1)), (Fraction(0), Fraction(0))),
    )
    params = RunParameters(prime_range=(5, 5), precision=16, n_max=16, screen_primes=3)
    assert _order_outcome(inst, params) == (1, [], [(5, "failed-periodic", None, [])], None)
    _assert_order_free(inst, params)


def test_prime_range_leaves_the_returns_unchanged():
    """x^2 + 101x fixes its target 0 with derivative 101, so the target's
    second branch -101 meets it mod 101.  101 is still a good prime, and a
    screening prime whether or not prime_range reaches it."""
    inst = ProblemInstance(
        1,
        map_from_lists(1, [{(2,): 1, (1,): 101}]),
        (Fraction(1),),
        ({(1,): Fraction(1)},),
        ((Fraction(0),),),
    )

    def returns(top):
        params = RunParameters(prime_range=(3, top), screen_primes=3)
        return [r for r in run("returns", inst, params, "metamorphic").records
                if r["record"] == "returns"]

    assert returns(50) == returns(110)
    assert returns(110)[0]["screening_primes"] == [101, 103, 107]
