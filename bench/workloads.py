"""Workloads of the orbitgap benchmark and the seeded problem generator.

Each workload is a sample problem with fixed parameter overrides.  The seed
picks an integer translation t, and the program receives the conjugated
problem: map f(x+t)-t, initial point a-t, variety V(x+t) and periodic points
shifted by -t.  Conjugation by an integer translation commutes with
reduction mod every prime, so the certificate verdicts, the chosen prime, the
model family, the return set and the gap verdict are those of the sample.
`invariants` extracts exactly those facts from a record stream, and every
run is checked against the invariants of the untranslated sample stored in
`expected/`.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED_DIR = HERE / "expected"

#: Largest |t_i| a seed may pick.  Small translations keep coefficient
#: heights, and with them the cost of exact arithmetic, close to the sample.
MAX_SHIFT = 24

# Copies of problems/*.json with each workload's overrides applied, so that
# an edit to the shipped samples does not silently change the benchmark.
_SQUARE_MINUS_TWO = {
    "dimension": 1,
    "map": [[[[2], 1], [[0], -2]]],
    "initial_point": [3],
    "variety": [[[[1], 1], [[0], -7]]],
    "periodic_points": [],
    "parameters": {
        "prime_range": [3, 50],
        "precision": 64,
        "n_max": 100000,
        "screen_primes": 8,
        "density_m": 1,
    },
}
_SQUARE_PLUS_ONE = {
    "dimension": 1,
    "map": [[[[2], 1], [[0], 1]]],
    "initial_point": [0],
    "variety": [[[[1], 1], [[0], -3]]],
    "periodic_points": [[3]],
    "parameters": {"prime_range": [3, 20], "precision": 32, "n_max": 5000, "screen_primes": 4},
}
_TWO_DIM_SWAP = {
    "dimension": 2,
    "map": [
        [[[0, 1], 1], [[2, 0], 1]],
        [[[1, 0], 1], [[0, 2], 1], [[0, 0], 3]],
    ],
    "initial_point": [0, 0],
    "variety": [[[[1, 0], 1], [[0, 1], -1]]],
    "periodic_points": [],
    "parameters": {"prime_range": [3, 30], "precision": 24, "n_max": 20000, "screen_primes": 6},
}


def _with(base: dict, params: dict, **top) -> dict:
    doc = json.loads(json.dumps(base))
    doc["parameters"].update(params)
    doc.update(top)
    return doc


#: name -> (sample problem, why the workload exists).  Sizes keep one
#: analyze sample at about 1 to 4 s, so that a run holds enough samples for
#: a steady median on a host whose speed varies from sample to sample.
WORKLOADS = {
    "screen-1d": (
        _with(_SQUARE_MINUS_TWO, {"n_max": 1_000_000}),
        "multi-modular return screening over n_max=1e6 (dense 1-d Horner path)",
    ),
    "family-p29": (
        _with(
            _SQUARE_MINUS_TWO,
            {"prime_range": [29, 50], "precision": 32, "n_max": 1000},
            initial_point=[5],
            variety=[[[[1], 1], [[0], -23]]],
        ),
        "a 14-model family mod 29: padic kernels, interpolation and zero localization",
    ),
    "swap-2d": (
        _with(_TWO_DIM_SWAP, {"n_max": 5000}),
        "the only 2-d input: multivariate series composition and generic orbit walks",
    ),
    "avoid-scan": (
        _with(_SQUARE_PLUS_ONE, {"prime_range": [3, 1000]}),
        "declared periodic target: preimage buckets and first-hit depth over 167 primes",
    ),
}


# ---------------------------------------------------------------------------
# Conjugation by a translation
# ---------------------------------------------------------------------------


def _emit(c: Fraction):
    return c.numerator if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _poly(terms) -> dict:
    out: dict = {}
    for exps, coeff in terms:
        key = tuple(exps)
        out[key] = out.get(key, Fraction(0)) + Fraction(coeff)
    return {e: c for e, c in out.items() if c}


def _shift_poly(poly: dict, t: tuple[int, ...]) -> dict:
    """poly(x + t) expanded by the binomial theorem in each variable."""
    out: dict = {}
    for exps, coeff in poly.items():
        partial = {(): coeff}
        for e, ti in zip(exps, t):
            partial = {
                key + (j,): c * comb(e, j) * ti ** (e - j)
                for key, c in partial.items()
                for j in range(e + 1)
            }
        for key, c in partial.items():
            out[key] = out.get(key, Fraction(0)) + c
    return {e: c for e, c in out.items() if c}


def _full_support(poly: dict, nvars: int, constant: bool) -> set:
    """Monomials a generic translation gives: every exponent below a term's."""
    out = set()
    for exps in poly:
        keys = [()]
        for e in exps:
            keys = [k + (j,) for k in keys for j in range(e + 1)]
        out.update(keys)
    if constant:
        out.add((0,) * nvars)
    return out


def _terms(poly: dict) -> list:
    return [[list(e), _emit(c)] for e, c in sorted(poly.items(), reverse=True)]


def _translate(doc: dict, t: tuple[int, ...]) -> dict | None:
    """The conjugated problem, or None if t cancels a generic monomial."""
    n = doc["dimension"]
    maps = []
    for i, terms in enumerate(doc["map"]):
        shifted = _shift_poly(_poly(terms), t)
        const = (0,) * n
        shifted[const] = shifted.get(const, Fraction(0)) - t[i]
        shifted = {e: c for e, c in shifted.items() if c}
        if set(shifted) != _full_support(_poly(terms), n, constant=True):
            return None
        maps.append(shifted)
    variety = []
    for terms in doc["variety"]:
        shifted = _shift_poly(_poly(terms), t)
        if set(shifted) != _full_support(_poly(terms), n, constant=False):
            return None
        variety.append(shifted)
    out = json.loads(json.dumps(doc))
    out["map"] = [_terms(p) for p in maps]
    out["variety"] = [_terms(q) for q in variety]
    out["initial_point"] = [_emit(Fraction(x) - ti) for x, ti in zip(doc["initial_point"], t)]
    out["periodic_points"] = [
        [_emit(Fraction(x) - ti) for x, ti in zip(pt, t)] for pt in doc.get("periodic_points", [])
    ]
    return out


def translation_for(workload: str, seed: int) -> tuple[int, ...]:
    """The translation a seed picks: every coordinate nonzero, support kept."""
    doc = WORKLOADS[workload][0]
    rng = random.Random(f"{workload}:{seed}")
    while True:
        t = tuple(
            rng.choice((-1, 1)) * rng.randint(1, MAX_SHIFT) for _ in range(doc["dimension"])
        )
        if _translate(doc, t) is not None:
            return t


def make_problem(workload: str, seed: int) -> tuple[dict, tuple[int, ...]]:
    """The generated problem document for (workload, seed), and its translation."""
    t = translation_for(workload, seed)
    return _translate(WORKLOADS[workload][0], t), t


def sample_problem(workload: str) -> dict:
    """The untranslated sample (translation 0)."""
    return json.loads(json.dumps(WORKLOADS[workload][0]))


# ---------------------------------------------------------------------------
# Invariants of a run
# ---------------------------------------------------------------------------


def invariants(records: list[dict]) -> dict:
    """The translation-invariant facts of an `analyze` record stream."""
    by_kind: dict = {}
    for rec in records:
        by_kind.setdefault(rec["record"], []).append(rec)

    def only(kind):
        rows = by_kind.get(kind, [])
        return rows[-1] if rows else None

    bad, certs, diag = only("bad_primes"), only("certificates"), only("diagnostics")
    returns, gap, summary = only("returns"), only("gap_report"), only("summary")
    return {
        "failure": [[r["stage"], r["message"]] for r in by_kind.get("failure", [])],
        "bad_primes": bad and bad["primes"],
        "certificates": certs
        and [[r["prime"], r["verdict"], r["bound"], r["depths"]] for r in certs["rows"]],
        "chosen_prime": diag and [diag["prime"], diag["bound"]],
        "models": [
            [m["shift"], m["m0"], m["k1"], m["k2"], m["congruence_exponent"]]
            for m in by_kind.get("model", [])
        ],
        "returns": returns and [returns["entries"], returns["refuted"]],
        "gap_verdict": gap and gap["verdict"],
        "summary": summary and [summary["prime"], summary["returns"], summary["gap_verdict"]],
    }


def read_records(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def expected_invariants(workload: str) -> dict:
    with open(EXPECTED_DIR / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


def mismatches(got: dict, want: dict) -> list[str]:
    """Names of the invariants that differ."""
    return sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))


def analyze_in_process(doc: dict) -> list[dict]:
    """The records `orbitgap analyze` writes for a problem document."""
    src = str(HERE.parent / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from orbitgap.pipeline import run_analyze
    from orbitgap.problemfile import parse_problem, problem_hash

    inst, params = parse_problem(doc)
    return run_analyze(inst, params, problem_hash(doc)).records


if __name__ == "__main__":
    # Regenerate expected/ from the untranslated samples at the current code.
    EXPECTED_DIR.mkdir(exist_ok=True)
    for name in WORKLOADS:
        facts = invariants(analyze_in_process(sample_problem(name)))
        lines = ",\n".join(f" {json.dumps(k)}: {json.dumps(v)}" for k, v in facts.items())
        (EXPECTED_DIR / f"{name}.json").write_text("{\n" + lines + "\n}\n")
        print(name, json.dumps(facts)[:160])
