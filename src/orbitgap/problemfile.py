"""Problem file parsing: a single human-writable JSON document.

Every coefficient is an exact rational written as an integer or a string
"n" / "n/d" (an optional sign, then decimal digits); floats, and strings in
any other form, are rejected outright.  A polynomial is a list of
[exponents, coefficient] pairs, e.g. x^2 - 2 in one variable:

    [[[2], 1], [[0], -2]]

Unknown keys are rejected at every level so typos cannot silently change a
run.  The canonical content hash ties every emitted record to its input.
The parsed instance, ProblemInstance, is defined here with its checks, so
reading a problem file needs no stage module.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import lcm

# hashlib is heavy to load: it maps OpenSSL's libcrypto for one digest of a
# few hundred bytes, so try the interpreter's own SHA-256 module first.
try:
    from _sha256 import sha256  # CPython 3.10-3.11
except ImportError:
    try:
        from _sha2 import sha256  # CPython 3.12+
    except ImportError:
        from hashlib import sha256

from .errors import HypothesisViolation, InputError
from .polynomials import Poly, PolyMap, poly_degree, poly_eval

_TOP_KEYS = {"dimension", "map", "initial_point", "variety", "periodic_points", "parameters"}

#: Largest problem file, in bytes: the file is read and parsed whole before
#: any other cap applies.  At this cap, a map of about 100,000 terms [[2], 1]
#: loads in about 0.6 s (tracemalloc peak 22 MiB) on a 2-vCPU host.
MAX_PROBLEM_BYTES = 2**20

#: Largest total degree of a map or variety polynomial: the exact orbit walk of
#: the preperiodicity check grows with the degree before any budget applies.
MAX_DEGREE = 256

#: Largest dimension N: series composition and the orbit walks grow with the
#: number of variables before any budget applies.  analyze of
#: x_i -> x_(i+1) + x_i^2 + i - 1 (x_(N+1) = x_1) from 0 with V: x_1 = 7
#: (prime_range [3, 30], precision 16) exits 3 after about 1.2 s at N = 6
#: and 94 s at N = 8 on a 2-vCPU host, and does not finish in 90 s at N = 9.
MAX_DIMENSION = 8

#: Largest working precision K: series and Mahler arithmetic run mod p^K.
MAX_PRECISION = 512

#: Largest top of prime_range: the avoidance scan visits every prime below it.
MAX_PRIME = 10_000

#: Largest n_max: return screening visits every hit index <= n_max of one
#: screening prime, and keeps at most gaps.SURVIVOR_CAP of them.  At this
#: cap, analyze of x -> x + 1 from 0 with V: x = 10^7 (prime_range [3, 50],
#: precision 16) takes about 12 s on a 2-vCPU host.
MAX_N_MAX = 10**9

#: Default number of screening primes.
SCREEN_PRIME_COUNT = 8

#: Largest screen_primes: return screening walks the orbit mod each screening
#: prime.  At this cap, returns of problems/square_minus_two.json takes about
#: 0.4 s on a 2-vCPU host (0.2 s at the default 8, 1.9 s at 1000).
MAX_SCREEN_PRIMES = 256

#: Default m of the density yardstick log^(m), the m-fold iterated logarithm.
DENSITY_LOG_DEPTH = 1

#: The string forms of a rational, "n" and "n/d" (Fraction also reads "1e9").
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


class ProblemInstance:
    """A self-map of affine N-space, an initial point, and a target variety.

    targets are the declared periodic points of the map on the variety; they
    may be empty, in which case the user asserts the variety carries none
    (residue-level candidates can still be discovered per prime).
    """

    __slots__ = ("dimension", "mapping", "initial_point", "variety", "targets", "denominator")

    def __init__(
        self,
        dimension: int,
        mapping: PolyMap,
        initial_point: tuple[Fraction, ...],
        variety: tuple[Poly, ...],
        targets: tuple[tuple[Fraction, ...], ...] = (),
    ):
        self.dimension = dimension
        self.mapping = mapping
        self.initial_point = initial_point
        self.variety = variety
        self.targets = targets
        if self.mapping.nvars != self.dimension:
            raise InputError("map arity does not match the dimension")
        if len(self.initial_point) != self.dimension:
            raise InputError("initial point arity mismatch")
        for t in self.targets:
            if len(t) != self.dimension:
                raise InputError("target point arity mismatch")
        for q in self.variety:
            for e in q:
                if len(e) != self.dimension:
                    raise InputError("variety polynomial arity mismatch")
        for i, p in enumerate(self.mapping.polys):
            if poly_degree(p) == 0:
                raise HypothesisViolation(
                    f"coordinate {i} of the map is constant; the map is not quasi-finite"
                )
        # the lcm of every denominator of the map, the points and the variety:
        # a prime is bad, and the instance does not reduce mod it, exactly
        # when it divides this
        coeffs = [c for q in (*self.mapping.polys, *self.variety) for c in q.values()]
        points = [x for pt in (self.initial_point, *self.targets) for x in pt]
        self.denominator = lcm(*(Fraction(x).denominator for x in (*coeffs, *points)))

    def _replace(self, **changes) -> "ProblemInstance":
        """A copy with some fields changed, checked and derived as a new instance is."""
        fields = self.__slots__[:-1]  # denominator is derived, not copied
        return ProblemInstance(**{**{f: getattr(self, f) for f in fields}, **changes})


class RunParameters:
    """The settable inputs of a run; every resource limit is a module constant."""

    __slots__ = ("prime_range", "precision", "n_max", "screen_primes", "density_m")

    def __init__(
        self,
        prime_range: tuple[int, int] = (3, 50),
        precision: int = 64,
        n_max: int = 100_000,
        screen_primes: int = SCREEN_PRIME_COUNT,
        density_m: int = DENSITY_LOG_DEPTH,
    ):
        self.prime_range = prime_range
        self.precision = precision
        self.n_max = n_max
        self.screen_primes = screen_primes
        self.density_m = density_m
        lo, hi = self.prime_range
        if lo > hi or lo < 3:
            raise InputError("prime_range must satisfy 3 <= lo <= hi")
        if hi > MAX_PRIME:
            raise InputError(f"prime_range top {hi} exceeds the cap {MAX_PRIME}")
        for name in ("precision", "n_max", "screen_primes", "density_m"):
            if getattr(self, name) < 1:
                raise InputError(f"parameter {name} must be positive")
        if self.precision > MAX_PRECISION:
            raise InputError(f"precision {self.precision} exceeds the cap {MAX_PRECISION}")
        if self.n_max > MAX_N_MAX:
            raise InputError(f"n_max {self.n_max} exceeds the cap {MAX_N_MAX}")
        if self.screen_primes > MAX_SCREEN_PRIMES:
            raise InputError(
                f"screen_primes {self.screen_primes} exceeds the cap {MAX_SCREEN_PRIMES}"
            )

    def _replace(self, **changes) -> "RunParameters":
        """A copy with some fields changed, checked as new parameters are."""
        return RunParameters(**{**{f: getattr(self, f) for f in self.__slots__}, **changes})


def _as_fraction(value, where: str) -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        raise InputError(f"{where}: floats are not accepted; write exact rationals")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            if not _RATIONAL.fullmatch(value):
                raise ValueError("write 'n' or 'n/d'")
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"{where}: not a rational literal: {value!r} ({exc})") from None
    raise InputError(f"{where}: expected an integer or 'n/d' string, got {type(value).__name__}")


def _as_poly(data, dimension: int, where: str) -> Poly:
    if not isinstance(data, list):
        raise InputError(f"{where}: a polynomial is a list of [exponents, coefficient] pairs")
    out: Poly = {}
    for i, term in enumerate(data):
        if not (isinstance(term, list) and len(term) == 2):
            raise InputError(f"{where}[{i}]: expected [exponents, coefficient]")
        exps, coeff = term
        if not (isinstance(exps, list) and len(exps) == dimension and all(
            isinstance(e, int) and not isinstance(e, bool) and e >= 0 for e in exps
        )):
            raise InputError(f"{where}[{i}]: exponents must be {dimension} non-negative integers")
        c = _as_fraction(coeff, f"{where}[{i}]")
        if c != 0:
            key = tuple(exps)
            out[key] = out.get(key, Fraction(0)) + c
    out = {e: c for e, c in out.items() if c != 0}
    if (degree := max(map(sum, out), default=0)) > MAX_DEGREE:
        raise InputError(f"{where}: total degree {degree} exceeds the cap {MAX_DEGREE}")
    return out


def _as_point(data, dimension: int, where: str) -> tuple[Fraction, ...]:
    if not isinstance(data, list) or len(data) != dimension:
        raise InputError(f"{where} must list {dimension} rationals")
    return tuple(_as_fraction(x, f"{where}[{j}]") for j, x in enumerate(data))


def parse_problem(doc) -> tuple[ProblemInstance, RunParameters]:
    """Validate a parsed JSON document into an instance and run parameters."""
    if not isinstance(doc, dict):
        raise InputError("problem file must be a JSON object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise InputError(f"unknown keys in problem file: {sorted(unknown)}")
    for key in ("dimension", "map", "initial_point", "variety"):
        if key not in doc:
            raise InputError(f"problem file is missing required key {key!r}")
    dim = doc["dimension"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise InputError("dimension must be a positive integer")
    if dim > MAX_DIMENSION:
        raise InputError(f"dimension {dim} exceeds the cap {MAX_DIMENSION}")
    if not isinstance(doc["map"], list) or len(doc["map"]) != dim:
        raise InputError(f"map must list exactly {dim} coordinate polynomials")
    polys = tuple(_as_poly(p, dim, f"map[{i}]") for i, p in enumerate(doc["map"]))
    point = _as_point(doc["initial_point"], dim, "initial_point")
    if not isinstance(doc["variety"], list) or not doc["variety"]:
        raise InputError("variety must list at least one defining polynomial")
    variety = tuple(
        _as_poly(q, dim, f"variety[{i}]") for i, q in enumerate(doc["variety"])
    )
    targets = ()
    if "periodic_points" in doc:
        if not isinstance(doc["periodic_points"], list):
            raise InputError("periodic_points must be a list of points")
        targets = tuple(
            _as_point(pt, dim, f"periodic_points[{i}]")
            for i, pt in enumerate(doc["periodic_points"])
        )

    params_doc = doc.get("parameters", {})
    if not isinstance(params_doc, dict):
        raise InputError("parameters must be an object")
    unknown = set(params_doc) - set(RunParameters.__slots__)
    if unknown:
        raise InputError(f"unknown parameters: {sorted(unknown)}")
    kwargs = dict(params_doc)
    if "prime_range" in kwargs:
        pr = kwargs["prime_range"]
        if not (isinstance(pr, list) and len(pr) == 2 and all(isinstance(x, int) for x in pr)):
            raise InputError("prime_range must be [lo, hi]")
        kwargs["prime_range"] = (pr[0], pr[1])
    for name, value in kwargs.items():
        if name != "prime_range" and (not isinstance(value, int) or isinstance(value, bool)):
            raise InputError(f"parameter {name} must be an integer")
    params = RunParameters(**kwargs)
    inst = ProblemInstance(dim, PolyMap(dim, polys), point, variety, targets)
    for i, pt in enumerate(targets):
        if any(poly_eval(q, pt) for q in variety):
            raise InputError(f"periodic_points[{i}] does not lie on the variety")
    return inst, params


def load_problem(path: str) -> tuple[ProblemInstance, RunParameters, str]:
    """Parse a problem file; returns (instance, parameters, content hash)."""
    try:
        with open(path, "rb") as fh:
            data = fh.read(MAX_PROBLEM_BYTES + 1)
    except OSError as exc:
        raise InputError(f"cannot read problem file: {exc}") from None
    if len(data) > MAX_PROBLEM_BYTES:
        raise InputError(f"problem file exceeds the cap of {MAX_PROBLEM_BYTES} bytes")
    try:
        doc = json.loads(data.decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise InputError(
            f"malformed problem file at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except (ValueError, RecursionError) as exc:  # not UTF-8, an over-long integer, deep nesting
        raise InputError(f"unreadable problem file: {exc}") from None
    inst, params = parse_problem(doc)
    return inst, params, problem_hash(doc)


def problem_hash(doc) -> str:
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return sha256(canonical.encode()).hexdigest()[:16]
