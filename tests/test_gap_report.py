"""Gap-report verdicts on controlled models with fabricated return sets.

The translation map x -> x + p gives the interpolant G(n) = a' + p n, so
composing with products of linear forms places zeros of L at chosen integer
indices exactly; fabricated ReturnSets then exercise each verdict path.
"""

from fractions import Fraction

from padic_oracles import dense_coefficients, direct_model, interpolate, poly_add, poly_mul

from orbitgap.gaps import (
    ReturnEntry,
    ReturnSet,
    build_gap_report,
    localize_zeros,
    newton_zero_count,
    restrict_to_disk,
)
from orbitgap.polynomials import PolyMap


def _translation_interp(p=5, precision=18):
    model = direct_model(PolyMap.from_lists(1, [{(1,): 1, (0,): p}]), (0,), p, precision)
    return model, interpolate(model)


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
    analyses = localize_zeros(interp, [q])
    by_class = {a.class_index: a for a in analyses}
    zeros_in = {
        i: [leaf for leaf in a.leaves if leaf.count >= 1] for i, a in by_class.items()
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
    analyses = localize_zeros(interp, [q])
    a1 = next(a for a in analyses if a.class_index == 1)
    zero_leaves = [leaf for leaf in a1.leaves if leaf.count >= 1]
    assert len(zero_leaves) == 2
    assert sorted(leaf.center % 25 for leaf in zero_leaves) == [1, 6]
    assert all(leaf.count == 1 for leaf in zero_leaves)


def _fake_returns(indices, status="certified-exact", n_max=200):
    return ReturnSet(
        n_max,
        tuple(ReturnEntry(n, status) for n in sorted(indices)),
        (101,),
        (),
        max(indices, default=-1),
    )


def test_member_beyond_zero_free_bound_is_a_violation():
    # a fabricated "return" at n = 11 sits in a zero-free disk whose value
    # valuation bounds members by v(a_0)/c; exceeding it is the screening
    # false-positive / precision-issue verdict
    model, interp = _translation_interp()
    q = _q_with_zeros(5, [1])
    analyses = localize_zeros(interp, [q])
    report = build_gap_report(
        _fake_returns([11]), {0: analyses}, {0: model}, 5, 1, model.ctx.precision
    )
    cl = next(c for c in report.classes if c.members_model == (11,))
    assert cl.verdict == "violation"
    assert report.verdict == "violation"


def test_near_zero_member_outside_its_depth_is_flagged():
    # a fabricated return at n = 6 shares the class of the zero at n = 1 but
    # lands in a zero-free sibling disk whose bound it exceeds: v(L(6)) = 3 < 6,
    # so it cannot be a real return and the class reports a violation
    model, interp = _translation_interp()
    q = _q_with_zeros(5, [1])
    analyses = localize_zeros(interp, [q])
    report = build_gap_report(
        _fake_returns([1, 6]), {0: analyses}, {0: model}, 5, 1, model.ctx.precision
    )
    cl = next(c for c in report.classes if c.class_index == 1)
    assert cl.verdict == "violation"


def test_gap_pair_inside_zero_leaf_passes_trivially():
    # both members congruent to the zero deep enough that the required
    # exponent is non-positive: the pair check is trivially satisfied
    model, interp = _translation_interp()
    q = _q_with_zeros(5, [1])
    analyses = localize_zeros(interp, [q])
    leaf = next(
        l for a in analyses for l in a.leaves if a.class_index == 1 and l.count == 1
    )
    partner = 1 + 5**leaf.radius_exp
    report = build_gap_report(
        _fake_returns([1, partner], n_max=10**5),
        {0: analyses}, {0: model}, 5, 1, model.ctx.precision,
    )
    cl = next(c for c in report.classes if c.class_index == 1)
    assert cl.verdict == "ok"
    assert len(cl.pairs) == 1
    assert cl.pairs[0].ok and cl.pairs[0].required_exponent <= 0


def test_screened_provenance_propagates_to_pairs():
    model, interp = _translation_interp()
    q = _q_with_zeros(5, [1])
    analyses = localize_zeros(interp, [q])
    returns = ReturnSet(
        200,
        (ReturnEntry(1, "certified-exact"), ReturnEntry(6, "modular-screened")),
        (101,),
        (),
        1,
    )
    report = build_gap_report(
        returns, {0: analyses}, {0: model}, 5, 1, model.ctx.precision
    )
    cl = next(c for c in report.classes if c.class_index == 1)
    if cl.pairs:
        assert cl.pairs[0].provenance == "modular-screened"


def test_uncovered_shift_classes_are_reported(monkeypatch):
    """A family truncated by the shift cap reports out-of-class members."""
    from orbitgap import normalization
    from orbitgap.normalization import build_model_family
    from orbitgap.reduction import ProblemInstance

    inst = ProblemInstance(
        1,
        PolyMap.from_lists(1, [{(1,): 6}]),
        (Fraction(1),),
        ({(1,): Fraction(1), (0,): Fraction(-6)},),
    )
    monkeypatch.setattr(normalization, "SHIFT_CAP", 1)
    family = build_model_family(inst, 5, 12)
    assert len(family) == 1 and family[0].k_total == 5
    model = family[0]
    interp = interpolate(model)
    qs = [model.transport_poly(q) for q in inst.variety]
    analyses = localize_zeros(interp, qs)
    # returns at n=1 (6^1 = 6 on V) plus a fabricated off-class index
    returns = _fake_returns([1, 7])
    report = build_gap_report(
        returns, {0: analyses}, {0: model}, 5, model.congruence_exponent,
        model.ctx.precision,
    )
    assert 1 in report.uncovered_members or 1 in report.prefix_members
    assert 7 in report.uncovered_members or 7 in report.prefix_members


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
