"""Gap-report verdicts on controlled models with fabricated return sets.

The translation map x -> x + p gives the interpolant G(n) = a' + p n, so
composing with products of linear forms places zeros of L at chosen integer
indices exactly; fabricated return sets then exercise each verdict path.
"""

import functools
from fractions import Fraction

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from padic_oracles import (
    FAMILY_P29,
    MIXED_RANK,
    build_gap_report_reference,
    dense_coefficients,
    direct_model,
    map_from_lists,
    poly_add,
    poly_mul,
)

from orbitgap.errors import InvariantViolation, OrbitgapError
from orbitgap.gaps import (
    STABLE_ROUNDS,
    ZeroLocalization,
    build_gap_report,
    compute_returns,
    default_screening_primes,
    localize_zeros,
    newton_zero_count,
    residue_witness,
    restrict_to_disk,
)
from orbitgap.interpolation import build_interpolant
from orbitgap.normalization import build_model_family, ensure_not_preperiodic
from orbitgap.pipeline import run
from orbitgap.polynomials import PolyMap
from orbitgap.problemfile import ProblemInstance, RunParameters, parse_problem


@functools.lru_cache(maxsize=None)
def _translation_interp(p=5, precision=18):
    model = direct_model(map_from_lists(1, [{(1,): 1, (0,): p}]), (0,), p, precision)
    return model, build_interpolant(model)


def _q_with_zeros(p, roots):
    # product of (x - p*r) over the roots: L(n) = prod (p n - p r) = p^k prod(n - r)
    poly = {(0,): Fraction(1)}
    out = {(0,): Fraction(1)}
    for r in roots:
        out = poly_mul(out, {(1,): Fraction(1), (0,): Fraction(-p * r)})
    del poly
    return out


def test_two_zeros_land_in_their_classes():
    # zeros at n = 1 and n = 5: classes 1 and 0 mod 5 each hold one, order 1
    model, interp = _translation_interp()
    q = _q_with_zeros(5, [1, 5])
    leaves_by_class = localize_zeros(interp, [q])
    zeros_in = {
        i: [leaf for leaf in leaves if leaf.count >= 1] for i, leaves in enumerate(leaves_by_class)
    }
    assert len(zeros_in[0]) == 1 and zeros_in[0][0].count == 1
    assert len(zeros_in[1]) == 1 and zeros_in[1][0].count == 1
    assert all(not zeros_in[i] for i in (2, 3, 4))
    assert zeros_in[0][0].center % 5 == 0
    assert zeros_in[1][0].center % 5 == 1


def test_two_zeros_in_one_class_get_separated():
    # zeros at n = 1 and n = 6 share the class 1 mod 5 and split at level 2
    model, interp = _translation_interp()
    q = _q_with_zeros(5, [1, 6])
    leaves_by_class = localize_zeros(interp, [q])
    zero_leaves = [leaf for leaf in leaves_by_class[1] if leaf.count >= 1]
    assert len(zero_leaves) == 2
    assert sorted(leaf.center % 25 for leaf in zero_leaves) == [1, 6]
    assert all(leaf.count == 1 for leaf in zero_leaves)


def _returns(entries, n_max=200, exact_horizon=-1):
    """A returns record body with these [index, status] entries."""
    return {"n_max": n_max, "entries": [list(e) for e in entries], "screening_primes": [101],
            "refuted": [], "exact_horizon": exact_horizon}


def _fake_returns(indices, status="certified-exact", n_max=200):
    return _returns([(n, status) for n in sorted(indices)], n_max, max(indices, default=-1))


def test_member_beyond_zero_free_bound_is_a_violation():
    # a fabricated "return" at n = 11 sits in a zero-free disk whose value
    # valuation bounds members by v(a_0)/c; exceeding it is the screening
    # false-positive / precision-issue verdict
    model, interp = _translation_interp()
    q = _q_with_zeros(5, [1])
    report = build_gap_report(_fake_returns([11]), [(model, localize_zeros(interp, [q]))], [q], 1)
    cl = next(c for c in report["classes"] if c["members_model"] == [11])
    assert cl["verdict"] == "violation"
    assert report["verdict"] == "violation"


def test_near_zero_member_outside_its_depth_is_flagged():
    # a fabricated return at n = 6 shares the class of the zero at n = 1 but
    # lands in a zero-free sibling disk whose bound it exceeds: v(L(6)) = 3 < 6,
    # so it cannot be a real return and the class reports a violation
    model, interp = _translation_interp()
    q = _q_with_zeros(5, [1])
    localized = [(model, localize_zeros(interp, [q]))]
    report = build_gap_report(_fake_returns([1, 6]), localized, [q], 1)
    cl = next(c for c in report["classes"] if c["class"] == 1)
    assert cl["verdict"] == "violation"


def test_gap_pair_inside_zero_leaf_passes_trivially():
    # both members congruent to the zero deep enough that the required
    # exponent is non-positive: the pair check is trivially satisfied
    model, interp = _translation_interp()
    q = _q_with_zeros(5, [1])
    leaves_by_class = localize_zeros(interp, [q])
    leaf = next(l for l in leaves_by_class[1] if l.count == 1)
    partner = 1 + 5**leaf.radius_exp
    report = build_gap_report(
        _fake_returns([1, partner], n_max=10**5), [(model, leaves_by_class)], [q], 1
    )
    cl = next(c for c in report["classes"] if c["class"] == 1)
    assert cl["verdict"] == "ok"
    assert len(cl["pairs"]) == 1
    [(_, _, required_exponent, ok, _)] = cl["pairs"]
    assert ok and required_exponent <= 0


def test_screened_provenance_propagates_to_pairs():
    model, interp = _translation_interp()
    q = _q_with_zeros(5, [1])
    returns = _returns([(1, "certified-exact"), (6, "modular-screened")], 200, 1)
    report = build_gap_report(returns, [(model, localize_zeros(interp, [q]))], [q], 1)
    cl = next(c for c in report["classes"] if c["class"] == 1)
    if cl["pairs"]:
        assert cl["pairs"][0][4] == "modular-screened"  # the first pair's provenance


def test_uncovered_shift_classes_are_reported(monkeypatch):
    """A family truncated by the shift cap reports out-of-class members."""
    from orbitgap import normalization

    inst = ProblemInstance(
        1,
        map_from_lists(1, [{(1,): 6}]),
        (Fraction(1),),
        ({(1,): Fraction(1), (0,): Fraction(-6)},),
    )
    monkeypatch.setattr(normalization, "SHIFT_CAP", 1)
    family = build_model_family(inst, 5, 12)
    assert len(family) == 1 and family[0].k_total == 5
    model = family[0]
    interp = build_interpolant(model)
    qs = [model.transport_poly(q) for q in inst.variety]
    # returns at n=1 (6^1 = 6 on V) plus a fabricated off-class index
    returns = _fake_returns([1, 7])
    report = build_gap_report(
        returns, [(model, localize_zeros(interp, qs))], inst.variety, model.congruence_exponent
    )
    assert 1 in report["uncovered_members"] or 1 in report["prefix_members"]
    assert 7 in report["uncovered_members"] or 7 in report["prefix_members"]


def test_restriction_additivity_spot():
    model, interp = _translation_interp()
    q1 = _q_with_zeros(5, [1])
    q2 = {(0,): Fraction(3)}
    left = restrict_to_disk(interp, poly_add(q1, q2), 0, 1)
    r1 = restrict_to_disk(interp, q1, 0, 1)
    r2 = restrict_to_disk(interp, q2, 0, 1)
    mod = 5**interp.ctx.precision
    dense = [dense_coefficients(disk)[0] for disk in (left, r1, r2)]
    for a, b, c in zip(*dense):
        assert a == (b + c) % mod


def test_disk_series_zero_counts_sum_on_subdivision():
    # count-1 disk: children counts sum to exactly 1 at every level
    model, interp = _translation_interp()
    q = _q_with_zeros(5, [7])  # zero at n = 7, class 2 mod 5
    parent = restrict_to_disk(interp, q, 2, 1)
    assert newton_zero_count(parent)[0] == 1
    child_counts = []
    for j in range(5):
        child = restrict_to_disk(interp, q, 2 + 5 * j, 2)
        child_counts.append(newton_zero_count(child)[0])
    assert sum(child_counts) == 1
    assert child_counts[1] == 1  # 7 = 2 + 5*1


# -- the gap report against the reference classifier --------------------------


@functools.lru_cache(maxsize=None)
def _localized(simple: tuple, double):
    """The translation model and its leaves for V: prod (x - 5r) over the
    simple zeros r, times (x - 5 double)^2 when double is an index."""
    model, interp = _translation_interp()
    roots = simple if double is None else (*simple, double, double)
    return [(model, localize_zeros(interp, [_q_with_zeros(5, roots)]))]


_ZEROS = st.integers(0, 29)


@st.composite
def _gap_cases(draw):
    """(simple zeros, double zero or None, return indices, screened flags).

    At precision 18 a double zero leaves room for one more simple zero.  Half
    the indices sit at a zero plus a multiple of 5^r."""
    double = draw(st.none() | _ZEROS)
    simple = tuple(draw(st.lists(_ZEROS, max_size=2 if double is None else 1, unique=True)))
    zeros = [*simple, *([] if double is None else [double])]
    indices = set()
    for _ in range(draw(st.integers(0, 6))):
        if zeros and draw(st.booleans()):
            step = 5 ** draw(st.integers(1, STABLE_ROUNDS + 2))
            indices.add(draw(st.sampled_from(zeros)) + draw(st.integers(0, 3)) * step)
        else:
            indices.add(draw(st.integers(0, 200)))
    indices = tuple(sorted(indices))
    return simple, double, indices, tuple(draw(st.booleans()) for _ in indices)


def _gap_report_pair(simple, double, indices, screened):
    """The package's gap report, checked equal to the reference's."""
    localized = _localized(simple, double)
    returns = _returns(
        [(n, "modular-screened" if s else "certified-exact") for n, s in zip(indices, screened)],
        max(indices, default=0),
    )
    c = localized[0][0].congruence_exponent
    # V = [] is all of the line, so no shift is off V and every class is classified
    report = build_gap_report(returns, localized, [], c)
    assert report == build_gap_report_reference(returns, localized, c)
    return report


# one case per verdict: an ok pair at a simple zero, an ok pair in the order-2
# leaf of a double zero, a member beyond a zero-free bound, a lone member, a
# pair too close for its late index
_VERDICT_CASES = [
    ((1,), None, (1, 1 + 5**5), (False, True)),
    ((), 2, (2, 2 + 5 ** (1 + STABLE_ROUNDS), 2 + 2 * 5 ** (1 + STABLE_ROUNDS)), (False,) * 3),
    ((1,), None, (11,), (False,)),
    ((3,), 7, (3,), (True,)),
    ((1,), None, (1 + 5**5, 1 + 2 * 5**5), (False, False)),
]


@given(_gap_cases())
@settings(max_examples=60, deadline=None)
@example(_VERDICT_CASES[0])
@example(_VERDICT_CASES[1])
@example(_VERDICT_CASES[2])
@example(_VERDICT_CASES[3])
@example(_VERDICT_CASES[4])
def test_gap_report_matches_reference(case):
    """build_gap_report gives the reference classifier's report on fabricated
    returns with random provenance, over V through chosen zeros."""
    _gap_report_pair(*case)


def test_gap_report_reference_cases_reach_every_verdict():
    # the double zero at 2 never splits, so it freezes after STABLE_ROUNDS levels
    [double] = [leaf for leaf in _localized((), 2)[0][1][2] if leaf.count]
    assert (double.count, double.radius_exp) == (2, 1 + STABLE_ROUNDS)
    reports = [_gap_report_pair(*case) for case in _VERDICT_CASES]
    verdicts = {cl["verdict"] for r in reports for cl in r["classes"]}
    assert {"ok", "violation", "too-few-returns"} <= verdicts
    # each pair is [index_low, index_high, required_exponent, ok, provenance]
    checked = [
        (cl["gap_constant"][2], pair)
        for r in reports for cl in r["classes"] if cl["verdict"] == "ok" for pair in cl["pairs"]
    ]
    assert {d for d, pair in checked if pair[3]} == {1, 2}
    assert any(pair[4] == "modular-screened" for _, pair in checked)
    assert [r["verdict"] for r in reports] == [
        "ok", "ok", "violation", "too-few-returns", "violation"
    ]
    failed = [pair for cl in reports[4]["classes"] for pair in cl["pairs"] if not pair[3]]
    assert len(failed) == 1 and failed[0][0] == 1 + 5**5


def test_member_outside_every_leaf_is_a_broken_invariant():
    """The leaves of a class partition it, so a member in none is a bug:
    exit 4, where the reference classifier reports a violation."""
    model, _ = _translation_interp()
    leaves_by_class = [(ZeroLocalization(i, 2, 0, 4),) for i in range(5)]  # i mod 25 only
    localized = [(model, leaves_by_class)]
    returns = _fake_returns([1, 6])
    with pytest.raises(InvariantViolation, match="no leaf"):
        build_gap_report(returns, localized, [], 1)
    assert build_gap_report_reference(returns, localized, 1)["verdict"] == "violation"


# -- shifts off V mod p ---------------------------------------------------------


def test_screened_index_off_the_variety_is_refuted_not_uncovered():
    """Shift 0 of the family-p29 input sits over x = 5, where x - 23 is 11
    mod 29.  A screened candidate there is refuted by the residue test: it is
    listed under its shift, and is neither uncovered nor a class member.  A
    certified return there contradicts the test, a broken invariant."""
    inst, _ = parse_problem(FAMILY_P29)
    family, variety = build_model_family(inst, 29, 8), inst.variety
    localized = [
        (m, localize_zeros(build_interpolant(m), [m.transport_poly(q) for q in variety])
         if residue_witness(m, variety) is None else None)
        for m in family
    ]
    assert [m.shift for m, leaves in localized if leaves is not None] == list(range(1, 14, 2))
    fabricated = family[0].original_index(2)  # 28
    returns = _returns([(1, "certified-exact"), (fabricated, "modular-screened")], 1000, 1)
    report = build_gap_report(returns, localized, variety, 1)
    assert report["off_variety"] == [
        {"shift": shift, "polynomial": 0, "residue": 11,
         "refuted": [fabricated] if shift == 0 else []}
        for shift in range(0, 14, 2)
    ]
    assert fabricated not in report["uncovered_members"]
    assert all(fabricated not in cl["members_original"] for cl in report["classes"])
    # the one listed class is the one that holds a return; every other class
    # of a localized shift is resolved and holds none
    assert [(cl["shift"], cl["members_original"]) for cl in report["classes"]] == [(1, [1])]
    assert report["verdict"] == "too-few-returns"

    certified = {**returns, "entries": [[fabricated, "certified-exact"]]}
    with pytest.raises(InvariantViolation, match="off V"):
        build_gap_report(certified, localized, variety, 1)


def _every_shift(inst, params, prime):
    """The run's returns and its gap report with every shift localized and
    classified, V = [] giving no shift a residue witness; None when a stage
    fails for some shift."""
    try:
        ensure_not_preperiodic(inst)
        family = build_model_family(inst, prime, params.precision)
        localized = [
            (m, localize_zeros(build_interpolant(m), [m.transport_poly(q) for q in inst.variety]))
            for m in family
        ]
    except OrbitgapError:
        return None
    screening = default_screening_primes(inst, params.screen_primes)
    returns = compute_returns(inst, params.n_max, screening)
    c = min(m.congruence_exponent for m in family)
    return returns, build_gap_report(returns, localized, [], c)


def _skipping_loses_nothing(inst, params) -> bool:
    """Whether analyze reaches a prime and every shift can be localized there;
    if so, analyze succeeds and its records agree with the gap report of
    every shift: the same returns and overall verdict, the same verdict,
    member bound and pairs in each listed class of a shift on V, and no
    listed class of a shift off V."""
    report = run("analyze", inst, params, "every-shift")
    records = {r["record"]: r for r in report.records}
    if "diagnostics" not in records:
        return False
    oracle = _every_shift(inst, params, records["diagnostics"]["prime"])
    if oracle is None:
        return False
    assert report.exit_code == 0, records["failure"]
    gap = records["gap_report"]
    returns, every = oracle
    assert records["returns"]["entries"] == returns["entries"]
    assert gap["verdict"] == every["verdict"]
    off = {o["shift"] for o in gap["off_variety"]}
    on_classes = {
        (cl["shift"], cl["class"]): (cl["verdict"], cl["member_bound"], cl["pairs"])
        for cl in gap["classes"] if cl["shift"] not in off
    }
    for cl in every["classes"]:
        assert cl["shift"] not in off  # a class of a shift off V holds no return
        assert on_classes.pop((cl["shift"], cl["class"])) == (
            cl["verdict"], cl["member_bound"], cl["pairs"]
        )
    assert not on_classes
    return True


@pytest.mark.parametrize("doc", [FAMILY_P29, MIXED_RANK], ids=["family-p29", "mixed-rank"])
def test_skipping_off_variety_shifts_loses_nothing(doc):
    assert _skipping_loses_nothing(*parse_problem(doc))


@pytest.mark.parametrize("doc", [FAMILY_P29, MIXED_RANK], ids=["family-p29", "mixed-rank"])
def test_gap_report_leaves_out_exactly_the_resolved_classes_without_returns(doc):
    """For every shift on V (one with an interpolant record), the classes
    missing from the gap report are exactly those whose leaves are not
    empty and that hold no return index; no shift off V lists a class."""
    inst, params = parse_problem(doc)
    report = run("analyze", inst, params, "completeness")
    assert report.exit_code == 0
    records = {r["record"]: r for r in report.records}
    on_variety = {r["shift"] for r in report.records if r["record"] == "interpolant"}
    p = records["diagnostics"]["prime"]
    returns = [n for n, _ in records["returns"]["entries"]]
    expected, every = set(), set()
    for m in build_model_family(inst, p, params.precision):
        if m.shift not in on_variety:
            continue
        leaves = localize_zeros(build_interpolant(m), [m.transport_poly(q) for q in inst.variety])
        start = m.m0 + m.shift
        holding = {(n - start) // m.k_total % p for n in returns
                   if n >= start and (n - start) % m.k_total == 0}
        every |= {(m.shift, i) for i in range(p)}
        expected |= {(m.shift, i) for i, lv in enumerate(leaves) if not lv or i in holding}
    listed = {(cl["shift"], cl["class"]) for cl in records["gap_report"]["classes"]}
    assert listed == expected
    assert every - listed, "some class of a shift on V holds no return"


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_skipping_off_variety_shifts_loses_nothing_random(data):
    """Random integer maps of degree 2 or 3, with V a point of the orbit; at
    this n_max every return is certified exactly."""
    degree = data.draw(st.integers(2, 3))
    f = {(k,): Fraction(data.draw(st.integers(-3, 3))) for k in range(degree)}
    f[(degree,)] = Fraction(data.draw(st.sampled_from([-2, -1, 1, 2])))
    mapping = PolyMap(1, ({e: c for e, c in f.items() if c},))
    a = (Fraction(data.draw(st.integers(-5, 5))),)
    target = a
    for _ in range(data.draw(st.integers(0, 3))):
        target = mapping.evaluate(target)
    inst = ProblemInstance(1, mapping, a, ({(1,): Fraction(1), (0,): -target[0]},), ())
    params = RunParameters(prime_range=(3, 50), precision=16, n_max=16, screen_primes=3)
    if not _skipping_loses_nothing(inst, params):
        reject()
