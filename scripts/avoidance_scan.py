#!/usr/bin/env python3
"""Avoidance-certificate scan over a prime range.

For x -> x^2 + 1 with target 3, certify prime by prime that no residue point
can reach the target residue after the bound M, and print the running
empirical density of certified primes.  Usage:

    python scripts/avoidance_scan.py [HI]

with HI the top of the scanned range (default 200).
"""

import pathlib
import sys
from fractions import Fraction

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from orbitgap.padic import is_prime
from orbitgap.polynomials import PolyMap
from orbitgap.reduction import ProblemInstance, avoidance_search, bad_primes


if __name__ == "__main__":
    hi = int(sys.argv[1]) if len(sys.argv) > 1 else 200
    inst = ProblemInstance(
        1,
        PolyMap.from_lists(1, [{(2,): 1, (0,): 1}]),
        (Fraction(0),),
        ({(1,): Fraction(1), (0,): Fraction(-3)},),
        ((Fraction(3),),),
    )
    bad = bad_primes(inst, search_bound=hi)
    scan = avoidance_search(inst, [p for p in range(3, hi + 1) if is_prime(p)], bad)
    certified = 0
    for i, cert in enumerate(scan.certificates, start=1):
        if cert.certified:
            certified += 1
            detail = f"M = {cert.bound}, depths {list(cert.depths)}"
        else:
            detail = cert.verdict
        print(f"p = {cert.prime:5d}  {detail:30s} density so far {certified / i:.3f}")
    print(f"\nscanned {scan.scanned} primes, certified density {scan.certified_density:.3f}")
