#!/usr/bin/env python3
"""Coefficient-decay profile of the orbit interpolant for a small model.

Builds the normalized local model of x -> x^2 - 2 from 3 at p = 3, prints
the valuation of each binomial-basis coefficient against the ideal schedule
k * c, and samples the approximation margin beyond the fitting window [0, K]
at the indices that `analyze` checks, with one binomial row per index.

    python3 scripts/decay_profile.py [precision]
"""

import pathlib
import sys
from fractions import Fraction

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from orbitgap.interpolation import build_interpolant, default_bound_samples, verify_error_bound
from orbitgap.normalization import build_model_family
from orbitgap.padic import binomial_rows
from orbitgap.polynomials import PolyMap
from orbitgap.reduction import ProblemInstance

if __name__ == "__main__":
    precision = int(sys.argv[1]) if len(sys.argv) > 1 else 32
    inst = ProblemInstance(
        1,
        PolyMap.from_lists(1, [{(2,): 1, (0,): -2}]),
        (Fraction(3),),
        ({(1,): Fraction(1), (0,): Fraction(-7)},),
    )
    model = build_model_family(inst, 3, precision)[0]
    samples = default_bound_samples(precision)
    rows = binomial_rows(model.ctx, samples, precision)
    interp = build_interpolant(model, rows)
    print(f"model: m0={model.m0} k1={model.k1} k2={model.steps_per_iterate} "
          f"c={model.congruence_exponent} center={model.center}")
    print("\n k   v(c_k)   ideal k*c")
    for k, v in enumerate(interp.decay):
        shown = "inf" if v == float("inf") else int(v)
        print(f"{k:3d}   {shown!s:>6}   {k * interp.congruence_exponent:6d}")
    report = verify_error_bound(interp, samples, rows)
    print("\napproximation margins (n, valuation of G(n) - F^n(a'), required):")
    for n, margin, req in zip(report.samples, report.margins, report.required):
        shown = "inf" if margin == float("inf") else int(margin)
        print(f"  n = {n:3d}: margin {shown!s:>5}, required {req}")
