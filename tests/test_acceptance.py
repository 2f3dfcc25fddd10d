"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they pass.  Tolerances are exact (integer/valuation comparisons)
except where a runtime budget is stated; budgets are asserted too.
"""

import random
import time
from fractions import Fraction

from padic_oracles import (
    classify_gap_sequence,
    direct_model,
    disk_series,
    from_original,
    idempotent_power,
    map_from_lists,
    model_series,
    on_cycle,
    to_original,
    unit_disk_root_count,
    verify_compatibility_reference,
    verify_error_bound_reference,
)

from orbitgap.gaps import newton_zero_count
from orbitgap.interpolation import build_interpolant
from orbitgap.modmat import mat_mul, mat_pow
from orbitgap.normalization import _iterate_power, build_model_family
from orbitgap.padic import PadicContext, int_valuation, sup_valuation
from orbitgap.pipeline import run_analyze
from orbitgap.polynomials import ModularMap
from orbitgap.problemfile import ProblemInstance, parse_problem, problem_hash
from orbitgap.reduction import (
    avoidance_search,
    first_hit_depth,
    preimage_buckets,
    reduce_instance,
)


def _report(n, ok, detail):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_interpolation_error_bound():
    start = time.perf_counter()
    model = direct_model(map_from_lists(1, [{(1,): 6}]), (1,), 5, 64)
    interp = build_interpolant(model)  # certified: E = I, so the lemma proves every n
    ok = verify_error_bound_reference(interp) is None
    elapsed = time.perf_counter() - start
    _report(
        1,
        ok and elapsed < 1.0,
        f"6x over Z_5, K=64: margin >= min(n, 64) for n <= 128 ({elapsed:.2f}s)",
    )


def test_criterion_2_compatibility_three_models():
    start = time.perf_counter()
    # linear over Z_5
    linear = direct_model(map_from_lists(1, [{(1,): 6}]), (1,), 5, 32)
    # quadratic one-dim over Z_3, built by the full pipeline
    inst = ProblemInstance(
        1, map_from_lists(1, [{(2,): 1, (0,): -2}]), (Fraction(3),),
        ({(0,): Fraction(0)},),
    )
    quad1 = build_model_family(inst, 3, 32)[0]
    # quadratic two-dim over Z_5
    quad2 = direct_model(
        map_from_lists(2, [{(1, 0): 6, (0, 2): 5}, {(0, 1): 6, (2, 0): 5}]),
        (5, 10), 5, 32,
    )
    ok = True
    for model in (linear, quad1, quad2):
        interp = build_interpolant(model)
        ctx = model.ctx
        # the two special arguments -1 and 1/(1-p), and 100 pseudo-random ones
        rng = random.Random(11)
        args = [ctx.modulus - 1, pow(1 - ctx.prime, -1, ctx.modulus)]
        args += [rng.randrange(ctx.modulus) for _ in range(100)]
        # the first argument where F(G(x)) and G(x + 1) differ mod p^K, if any
        ok = ok and verify_compatibility_reference(interp, args) is None and len(args) >= 100
    elapsed = time.perf_counter() - start
    _report(
        2,
        ok and elapsed < 5.0,
        f"F(G(x)) = G(x+1) mod p^K, 102 p-adic arguments x 3 models ({elapsed:.2f}s)",
    )


def _random_quadratic_map(rng, p, n):
    polys = []
    for i in range(n):
        poly = {}
        for _ in range(rng.randint(1, 4)):
            exp = tuple(rng.randint(0, 2) for _ in range(n))
            if sum(exp) > 2:
                continue
            poly[exp] = rng.randrange(p)
        var = [0] * n
        var[i] = 1
        poly.setdefault(tuple(var), 1)
        poly = {e: c for e, c in poly.items() if c}
        if not poly or max(sum(e) for e in poly) == 0:
            poly[tuple(var)] = 1
        polys.append(poly)
    return map_from_lists(n, polys)


def test_criterion_3_avoidance_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(31)
    checked = 0
    while checked < 50:
        p = rng.choice([3, 5, 7, 11])
        n = rng.choice([1, 2])
        fp = ModularMap.from_map(_random_quadratic_map(rng, p, n), p)
        gamma = tuple(rng.randrange(p) for _ in range(n))
        if on_cycle(fp, gamma):
            continue
        depth = first_hit_depth(fp, gamma, preimage_buckets(fp))
        bound = depth + 1
        # brute force: exhaust every point and every m <= p^n + bound
        space = p**n
        brute = -1
        point = [0] * n
        for _ in range(space):
            pt = tuple(point)
            for m in range(space + bound + 1):
                if pt == gamma and m > brute:
                    brute = m
                pt = fp(pt)
            for i in range(n):
                point[i] += 1
                if point[i] < p:
                    break
                point[i] = 0
        if brute != depth:
            _report(3, False, f"BFS depth {depth} != brute force {brute} (p={p}, n={n})")
        checked += 1
    elapsed = time.perf_counter() - start
    _report(
        3,
        elapsed < 10.0,
        f"BFS M equals brute-force max-hit + 1 on 50 random maps ({elapsed:.2f}s)",
    )


def _forward_first_hits(fp, targets):
    """Iterative memoized first-hit times over the whole functional graph."""
    p, n = fp.modulus, fp.nvars
    hits: dict = {t: 0 for t in targets}
    point = [0] * n
    for _ in range(p**n):
        x = tuple(point)
        trail = []
        seen_on_trail = set()
        while x not in hits and x not in seen_on_trail:
            trail.append(x)
            seen_on_trail.add(x)
            x = fp(x)
        base = hits[x] if x in hits else -1  # -1 marks a cycle with no target
        for i, y in enumerate(reversed(trail), start=1):
            hits[y] = -1 if base < 0 else base + i
        for i in range(n):
            point[i] += 1
            if point[i] < p:
                break
            point[i] = 0
    return hits


def test_criterion_4_certificate_soundness_window():
    start = time.perf_counter()
    rng = random.Random(47)
    cases = []
    # one-dim certificates up to p ~ 10^3, two-dim up to p^2 ~ 10^3
    for p in (311, 997):
        cases.append((p, 1))
    for p in (13, 31):
        cases.append((p, 2))
    verified = 0
    for p, n in cases:
        for _ in range(6):
            f = _random_quadratic_map(rng, p, n)
            gamma = tuple(Fraction(rng.randrange(min(p, 20))) for _ in range(n))
            inst = ProblemInstance(
                n, f, tuple(Fraction(0) for _ in range(n)),
                ({(0,) * n: Fraction(0)},), (gamma,),
            )
            cert = avoidance_search(inst, [p])[0]
            if cert["verdict"] != "certified":
                continue
            assert p**n <= 100_000
            fp, _, targets_p = reduce_instance(inst, p)
            hits = _forward_first_hits(fp, set(targets_p))
            window_hi = cert["bound"] + p**n
            for m in hits.values():
                assert m < 0 or m < cert["bound"] or m > window_hi, (
                    f"hit at m={m} inside [{cert['bound']}, {window_hi}] at p={p}"
                )
            verified += 1
    elapsed = time.perf_counter() - start
    _report(
        4,
        verified >= 8 and elapsed < 30.0,
        f"exhaustive window check on {verified} certificates with p^N <= 1e5 ({elapsed:.2f}s)",
    )


def test_criterion_5_newton_polygon_oracle():
    start = time.perf_counter()
    worked, _ = newton_zero_count(disk_series([5, -6, 1], 5, 12))
    ok = worked == 2
    rng = random.Random(53)
    checked = 0
    while checked < 200:
        p = [3, 5, 7][checked % 3]
        ctx = PadicContext(p, 12)
        degree = rng.randint(1, 4)
        coeffs = [rng.randrange(-(p**6), p**6) for _ in range(degree + 1)]
        if all(c % ctx.modulus == 0 for c in coeffs):
            continue
        got, _ = newton_zero_count(disk_series(coeffs, p, 12))
        want = unit_disk_root_count(coeffs, p, 12)
        if got != want:
            _report(5, False, f"count mismatch {got} != {want} for {coeffs} at p={p}")
        checked += 1
    elapsed = time.perf_counter() - start
    _report(
        5,
        ok,
        f"polygon counts match the evaluation oracle on 200 random polynomials; "
        f"t^2-6t+5 over Z_5 counts 2 ({elapsed:.2f}s)",
    )


def test_criterion_6_normalization_postconditions():
    start = time.perf_counter()
    rng = random.Random(61)
    built = 0
    while built < 20:
        p = rng.choice([3, 5, 7])
        n = rng.choice([1, 2])
        f = _random_quadratic_map(rng, p, n)
        a = tuple(Fraction(rng.randint(0, 6)) for _ in range(n))
        try:
            inst = ProblemInstance(n, f, a, ({(0,) * n: Fraction(0)},))
            model = build_model_family(inst, p, 10)[0]
        except Exception:
            continue  # preperiodic start or oversized stride: resample
        if model.k_total > 60:
            continue
        for srs in model_series(model):
            assert int_valuation(srs.coefficient((0,) * srs.nvars), p) >= 1
        a_bar = tuple(tuple(x % p for x in row) for row in model.linear)
        assert mat_mul(a_bar, a_bar, p) == a_bar
        assert sup_valuation(model.base_point, p) >= 1
        # conjugation round trip at full precision on 20 random points
        ctx = model.ctx
        mod1 = ctx.modulus * p
        f1 = ModularMap.from_map(inst.mapping, mod1)
        for _ in range(20):
            x = tuple(rng.randrange(ctx.modulus) for _ in range(n))
            y = to_original(model, x)
            z = f1.iterate(y, model.k_total)
            assert from_original(model, z) == model.apply(x)
        built += 1
    elapsed = time.perf_counter() - start
    _report(
        6,
        built == 20,
        f"postconditions + round trips on 20 random quadratic instances ({elapsed:.2f}s)",
    )


def test_criterion_7_end_to_end_worked_example():
    start = time.perf_counter()
    doc = {
        "dimension": 1,
        "map": [[[[2], 1], [[0], -2]]],
        "initial_point": [3],
        "variety": [[[[1], 1], [[0], -7]]],
        "periodic_points": [],
        "parameters": {"prime_range": [3, 50], "precision": 64, "n_max": 100000},
    }
    inst, params = parse_problem(doc)
    report = run_analyze(inst, params, problem_hash(doc))
    assert report.error is None, report.error
    records = {r["record"]: r for r in report.records}
    returns = records["returns"]
    ok = returns["entries"] == [[1, "certified-exact"]]
    gap = records["gap_report"]
    ok = ok and gap["verdict"] != "violation"
    density = records["density"]
    ok = ok and not density["diverging"] and float(density["max_ratio"]) < 1.45
    elapsed = time.perf_counter() - start
    _report(
        7,
        ok and elapsed < 10.0,
        f"x^2-2 from 3 vs x=7: S_V = {{1}} exact, no gap violations, "
        f"density bounded ({elapsed:.2f}s)",
    )


def test_criterion_8_gap_verdict_classifier():
    start = time.perf_counter()
    rng = random.Random(83)
    for trial in range(100):
        growth = Fraction(rng.randint(2, 4), rng.choice([1, 2]))
        if growth <= 1:
            growth = Fraction(3, 2)
        # build a sequence satisfying the bound, then optionally corrupt one gap
        seq = [rng.randint(0, 2)]
        for _ in range(rng.randint(1, 3)):
            n = seq[-1]
            if n > 36:
                break
            needed = growth**n
            step = int(needed) + (0 if needed.denominator == 1 else 1) + rng.randint(0, 3)
            seq.append(n + step)
        corrupt = rng.random() < 0.5 and len(seq) >= 2
        if corrupt:
            j = rng.randrange(len(seq) - 1)
            width = seq[j + 1] - seq[j]
            needed = growth ** seq[j]
            if needed > 1 and width >= 2:
                bad = seq[j] + max(1, min(width - 1, int(needed) - 1))
                seq = seq[: j + 1] + [bad]
            else:
                corrupt = False
        verdicts = classify_gap_sequence(seq, growth)
        expected = [Fraction(b - a) >= growth**a for a, b in zip(seq, seq[1:])]
        assert verdicts == expected
        if corrupt:
            assert not verdicts[-1]
        elif not corrupt and len(verdicts) > 0 and not any(
            Fraction(b - a) < growth**a for a, b in zip(seq, seq[1:])
        ):
            assert all(verdicts)
    elapsed = time.perf_counter() - start
    _report(8, True, f"100 synthetic (C, sequence) pairs classified exactly ({elapsed:.2f}s)")


def test_criterion_9_idempotent_power_certificates():
    start = time.perf_counter()
    rng = random.Random(97)
    for _ in range(100):
        p = rng.choice([3, 5, 7, 11, 13])
        n = rng.randint(1, 4)
        a = tuple(tuple(rng.randrange(p) for _ in range(n)) for _ in range(n))
        cert = idempotent_power(a, p)
        power = mat_pow(a, cert.power, p)
        assert power == cert.matrix
        assert mat_mul(power, power, p) == power
        assert _iterate_power([a], p) == cert.power
    elapsed = time.perf_counter() - start
    _report(
        9,
        True,
        f"(A^k)^2 = A^k verified for 100 random matrices, N <= 4, p <= 13 ({elapsed:.2f}s)",
    )
