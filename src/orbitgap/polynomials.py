"""Sparse multivariate polynomials: exact rational inputs and their residues mod m.

A polynomial is a dict mapping monomial exponent tuples to Fraction
coefficients; zero coefficients are never stored.  Example in 2 variables:

    x0^2 * x1 + 3  ->  {(2, 1): Fraction(1), (0, 0): Fraction(3)}

PolyMap bundles N polynomials in N variables: a polynomial self-map of
affine N-space with exact rational coefficients, as the problem file gives
it; over the rationals it is only evaluated.  Modular images (int
coefficient dicts modulo m) are produced by reduce_poly / ModularMap for the
residue-field and p-power computations.  Polynomials are composed only mod
p^K, as padic.TruncatedSeries.

Evaluation mod m goes through a sparse nested Horner form that horner_form
builds once per reduced polynomial: horner_eval evaluates it at one point,
and horner_table at many points at once, column by column.
The form is a polynomial in the first variable that occurs, whose
coefficients are forms in the later variables (or ints, once no variable
is left).  Only the nonzero degrees are stored, in descending order, so a
gap of g degrees costs one multiplication by x^g, and x0^2*x1 + 3 becomes

    (0, (1, 1, (), 1), ((2, 3),), 0)  =  (x1) * x0^2 + 3

The accumulator is reduced mod m after every Horner step, so intermediate
ints stay below m times a power of x whatever the degree.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InputError

Exponent = tuple[int, ...]
Poly = dict[Exponent, Fraction]


def poly_degree(p: Poly) -> int:
    return max((sum(e) for e in p), default=0)


def poly_eval(p: Poly, point) -> Fraction:
    acc = Fraction(0)
    for e, c in p.items():
        term = c
        for x, k in zip(point, e):
            if k:
                term *= Fraction(x) ** k
        acc += term
    return acc


def reduce_rational(x: Fraction | int, m: int) -> int:
    """The residue of x mod m; its denominator must be invertible mod m."""
    try:
        return x.numerator * pow(x.denominator, -1, m) % m
    except ValueError:
        raise InputError(f"{x} is not integral at modulus {m}") from None


def reduce_poly(p: Poly, m: int) -> dict[Exponent, int]:
    """Coefficients reduced mod m; denominators must be invertible mod m."""
    out: dict[Exponent, int] = {}
    for e, c in p.items():
        if r := reduce_rational(c, m):
            out[e] = r
    return out


#: (var, lead, rest, low): the polynomial sum_j c_j * x_var^d_j over its
#: nonzero degrees d_0 > d_1 > ... in x_var.  lead is c_0, rest holds
#: (d_(j-1) - d_j, c_j) for j >= 1, and low is the last degree.  Each c_j is
#: an int or a form in variables after var.
HornerForm = tuple


def _nest(p: dict[Exponent, int], start: int):
    """The form of p in variables >= start, or its constant when it has none."""
    if not p:
        return 0
    var = next((i for i in range(start, len(next(iter(p)))) if any(e[i] for e in p)), None)
    if var is None:
        return next(iter(p.values()))
    by_degree: dict[int, dict[Exponent, int]] = {}
    for e, c in p.items():
        by_degree.setdefault(e[var], {})[e] = c
    degrees = sorted(by_degree, reverse=True)
    coeffs = [_nest(by_degree[d], var + 1) for d in degrees]
    rest = tuple((hi - lo, c) for hi, lo, c in zip(degrees, degrees[1:], coeffs[1:]))
    return (var, coeffs[0], rest, degrees[-1])


def horner_form(p: dict[Exponent, int]) -> HornerForm:
    """Sparse nested Horner form of a polynomial with coefficients in [0, m)."""
    form = _nest(p, 0)
    return form if type(form) is tuple else (0, form, (), 0)


def horner_eval(form: HornerForm, point, m: int) -> int:
    """The value in [0, m) of a Horner form at an int point (any representatives)."""
    var, acc, rest, low = form
    x = point[var]
    if type(acc) is not int:
        acc = horner_eval(acc, point, m)
    for gap, c in rest:
        if type(c) is not int:
            c = horner_eval(c, point, m)
        acc = (acc * x**gap + c) % m
    if low:
        acc = acc * x**low % m
    return acc


def horner_table(form: HornerForm, cols, m: int) -> list[int]:
    """The values in [0, m) of a Horner form at many points, column-wise.

    cols[i] holds coordinate i of every point, in one order; the result
    holds the value at each point, in that order.  The steps are those of
    horner_eval, each one list comprehension over all points.
    """
    var, acc, rest, low = form
    x = cols[var]
    acc = [acc] * len(x) if type(acc) is int else horner_table(acc, cols, m)
    for gap, c in rest:
        if type(c) is int:
            acc = [(a * v**gap + c) % m for a, v in zip(acc, x)]
        else:
            c = horner_table(c, cols, m)
            acc = [(a * v**gap + b) % m for a, v, b in zip(acc, x, c)]
    if low:
        acc = [a * v**low % m for a, v in zip(acc, x)]
    return acc


class PolyMap:
    """N polynomials in N variables with exact rational coefficients."""

    __slots__ = ("nvars", "polys")

    def __init__(self, nvars: int, polys: tuple[Poly, ...]):
        self.nvars = nvars
        self.polys = polys
        if len(self.polys) != self.nvars:
            raise InputError("a self-map needs as many polynomials as variables")
        for p in self.polys:
            for e in p:
                if len(e) != self.nvars:
                    raise InputError("exponent arity mismatch")

    def _replace(self, **changes) -> "PolyMap":
        """A copy with some fields changed, checked as a new map is."""
        return PolyMap(**{**{f: getattr(self, f) for f in self.__slots__}, **changes})

    def evaluate(self, point) -> tuple[Fraction, ...]:
        return tuple(poly_eval(p, point) for p in self.polys)


class ModularMap:
    """A PolyMap reduced mod m (m a prime or prime power); forms holds the
    Horner form of each polynomial."""

    __slots__ = ("modulus", "nvars", "polys", "forms")

    def __init__(self, modulus: int, nvars: int, polys: tuple[dict[Exponent, int], ...]):
        self.modulus = modulus
        self.nvars = nvars
        self.polys = polys
        self.forms = tuple(horner_form(p) for p in polys)

    def __eq__(self, other):
        if type(other) is not ModularMap:
            return NotImplemented
        return (self.modulus, self.nvars, self.polys) == (other.modulus, other.nvars, other.polys)

    @staticmethod
    def from_map(f: PolyMap, m: int) -> "ModularMap":
        return ModularMap(m, f.nvars, tuple(reduce_poly(p, m) for p in f.polys))

    def __call__(self, point: tuple[int, ...]) -> tuple[int, ...]:
        # a plain loop: on CPython 3.11 a comprehension costs a frame per call
        m = self.modulus
        out = []
        for form in self.forms:
            out.append(horner_eval(form, point, m))
        return tuple(out)

    def iterate(self, point: tuple[int, ...], k: int) -> tuple[int, ...]:
        for _ in range(k):
            point = self(point)
        return point
