"""Exact coefficient arithmetic on coordinate charts.

Sparse multivariate polynomials over Q: the coefficient ring for every
symbolic object in the package.  Coefficients are `fractions.Fraction`,
exponent multi-indices are tuples, and no zero coefficient is ever stored,
so equality is structural and identities can be asserted exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence, Union

MAX_DIM = 8

Rational = Union[int, Fraction, str]


class ChartMismatchError(ValueError):
    """Two objects living on different charts were combined."""


@dataclass(frozen=True)
class Chart:
    """A coordinate chart with coordinates x_1 .. x_dim.

    Every symbolic object carries a chart reference; mixing charts is
    rejected by every binary operation.
    """

    dim: int

    def __post_init__(self) -> None:
        if not 1 <= self.dim <= MAX_DIM:
            raise ValueError(f"chart dimension must be in 1..{MAX_DIM}, got {self.dim}")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(f"x{i+1}" for i in range(self.dim))

    def require_same(self, other: "Chart") -> None:
        if self is not other and self != other:
            raise ChartMismatchError(f"chart mismatch: {self} vs {other}")

    def check_index(self, i: int) -> None:
        if not 0 <= i < self.dim:
            raise IndexError(f"coordinate index {i} out of range for dim {self.dim}")


def as_fraction(value: Rational) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


class Polynomial:
    """Sparse polynomial: {exponent tuple -> nonzero Fraction}."""

    __slots__ = ("chart", "terms")

    def __init__(self, chart: Chart, terms: Mapping[tuple[int, ...], Rational] | None = None):
        self.chart = chart
        clean: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for exps, coeff in terms.items():
                exps = tuple(int(e) for e in exps)
                if len(exps) != chart.dim:
                    raise ValueError(f"exponent tuple {exps} has wrong length for dim {chart.dim}")
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative exponent in {exps}")
                c = as_fraction(coeff)
                if c:
                    acc = clean.get(exps)
                    c = c if acc is None else acc + c
                    if c:
                        clean[exps] = c
                    elif acc is not None:
                        del clean[exps]
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @staticmethod
    def _clean(chart: Chart, terms: dict[tuple[int, ...], Fraction]) -> "Polynomial":
        """Wrap terms that already hold valid exponents and no zero coefficient."""
        p = Polynomial.__new__(Polynomial)
        p.chart, p.terms = chart, terms
        return p

    @staticmethod
    def zero(chart: Chart) -> "Polynomial":
        return Polynomial(chart)

    @staticmethod
    def constant(chart: Chart, value: Rational) -> "Polynomial":
        return Polynomial(chart, {(0,) * chart.dim: as_fraction(value)})

    @staticmethod
    def coordinate(chart: Chart, i: int) -> "Polynomial":
        chart.check_index(i)
        exps = [0] * chart.dim
        exps[i] = 1
        return Polynomial(chart, {tuple(exps): Fraction(1)})

    @staticmethod
    def monomial(chart: Chart, exps: Sequence[int], coeff: Rational = 1) -> "Polynomial":
        return Polynomial(chart, {tuple(exps): as_fraction(coeff)})

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def constant_value(self) -> Fraction | None:
        """The value of a constant polynomial, else None."""
        if not self.terms:
            return Fraction(0)
        if len(self.terms) == 1:
            exps, c = next(iter(self.terms.items()))
            if not any(exps):
                return c
        return None

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self.chart == other.chart and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == Polynomial.constant(self.chart, other).terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.chart, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            self.chart.require_same(other.chart)
            return other
        return Polynomial.constant(self.chart, other)

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            acc = out.get(exps)
            s = c if acc is None else acc + c
            if s:
                out[exps] = s
            elif acc is not None:
                del out[exps]
        return Polynomial._clean(self.chart, out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._clean(self.chart, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Polynomial":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            return self._scaled(as_fraction(other))
        self.chart.require_same(other.chart)
        for factor, const in ((self, other), (other, self)):
            c = const.constant_value()      # a constant factor scales the other's terms
            if c is not None:
                return factor._scaled(c)
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                acc = out.get(e)
                s = c if acc is None else acc + c
                if s:
                    out[e] = s
                elif acc is not None:
                    del out[e]
        return Polynomial._clean(self.chart, out)

    __rmul__ = __mul__

    def _scaled(self, c: Fraction) -> "Polynomial":
        """c * self; exact, since a nonzero c times a nonzero term is nonzero."""
        if c == -1:
            return -self
        if not c:
            return Polynomial.zero(self.chart)
        terms = dict(self.terms) if c == 1 else {e: v * c for e, v in self.terms.items()}
        return Polynomial._clean(self.chart, terms)

    # -- calculus ----------------------------------------------------------

    def differentiate(self, i: int) -> "Polynomial":
        """Exact partial derivative with respect to x_{i+1} (0-based i)."""
        self.chart.check_index(i)
        out: dict[tuple[int, ...], Fraction] = {}
        for exps, c in self.terms.items():
            k = exps[i]
            if k:
                e = list(exps)
                e[i] = k - 1
                out[tuple(e)] = c * k
        return Polynomial._clean(self.chart, out)

    def evaluate(self, point: Sequence[Rational]) -> Fraction:
        """Exact value at a rational point."""
        if len(point) != self.chart.dim:
            raise ValueError(f"point has {len(point)} coordinates, chart has {self.chart.dim}")
        pt = [as_fraction(x) for x in point]
        total = Fraction(0)
        for exps, c in self.terms.items():
            v = c
            for x, e in zip(pt, exps):
                if e:
                    v *= x**e
            total += v
        return total

    # -- lexicographic leading data (for exact division / square roots) ----

    def _leading(self) -> tuple[tuple[int, ...], Fraction]:
        exps = max(self.terms)
        return exps, self.terms[exps]

    def exact_divide(self, divisor: "Polynomial") -> "Polynomial | None":
        """Return self/divisor when it is again a polynomial, else None."""
        self.chart.require_same(divisor.chart)
        if divisor.is_zero:
            raise ZeroDivisionError("exact_divide by zero polynomial")
        rem = self
        quo = Polynomial.zero(self.chart)
        de, dc = divisor._leading()
        while not rem.is_zero:
            re, rc = rem._leading()
            exps = tuple(a - b for a, b in zip(re, de))
            if any(e < 0 for e in exps):
                return None
            t = Polynomial.monomial(self.chart, exps, rc / dc)
            quo = quo + t
            rem = rem - t * divisor
        return quo

    def sqrt(self) -> "Polynomial | None":
        """Exact square root when self is a perfect square over Q, else None.

        The root is normalized to a positive lexicographic leading coefficient.
        """
        if self.is_zero:
            return Polynomial.zero(self.chart)
        le, lc = self._leading()
        if any(e % 2 for e in le):
            return None
        c = _fraction_sqrt(lc)
        if c is None:
            return None
        root = Polynomial.monomial(self.chart, tuple(e // 2 for e in le), c)
        rem = self - root * root
        twice_lead = Polynomial.monomial(self.chart, tuple(e // 2 for e in le), 2 * c)
        while not rem.is_zero:
            re, rc = rem._leading()
            exps = tuple(a - b for a, b in zip(re, tuple(e // 2 for e in le)))
            if any(e < 0 for e in exps):
                return None
            t = Polynomial.monomial(self.chart, exps, rc / (2 * c))
            root = root + t
            rem = rem - t * twice_lead - t * t
        return root

    # -- serialization -----------------------------------------------------

    def to_json_obj(self) -> list[dict]:
        entries = []
        for exps in sorted(self.terms):
            c = self.terms[exps]
            entries.append({"exponents": list(exps), "coeff": f"{c.numerator}/{c.denominator}"})
        return entries

    def __repr__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for exps in sorted(self.terms, reverse=True):
            c = self.terms[exps]
            mono = "*".join(
                f"{self.chart.names[i]}^{e}" if e > 1 else self.chart.names[i]
                for i, e in enumerate(exps)
                if e
            )
            if mono:
                parts.append(f"{c}*{mono}" if c != 1 else mono)
            else:
                parts.append(str(c))
        return " + ".join(parts)


def _fraction_sqrt(f: Fraction) -> Fraction | None:
    if f < 0:
        return None
    n, d = math.isqrt(f.numerator), math.isqrt(f.denominator)
    if n * n == f.numerator and d * d == f.denominator:
        return Fraction(n, d)
    return None


def solve_linear(matrix: Sequence[Sequence[Rational]], rhs: Sequence[Rational]) -> list[Fraction]:
    """Exact solve of a square rational system by Gaussian elimination."""
    n = len(matrix)
    a = [[as_fraction(x) for x in row] + [as_fraction(rhs[i])] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            raise ZeroDivisionError("singular matrix in exact linear solve")
        a[col], a[pivot] = a[pivot], a[col]
        pc = a[col][col]
        for r in range(n):
            if r != col and a[r][col]:
                factor = a[r][col] / pc
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return [a[i][n] / a[i][i] for i in range(n)]


def invert_matrix(matrix: Sequence[Sequence[Rational]]) -> list[list[Fraction]]:
    """Exact inverse of a square rational matrix."""
    n = len(matrix)
    cols = []
    for j in range(n):
        e = [Fraction(int(i == j)) for i in range(n)]
        cols.append(solve_linear(matrix, e))
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def random_polynomial(chart: Chart, rng, max_degree: int = 2, max_terms: int = 3,
                      coeff_bound: int = 4) -> Polynomial:
    """Seeded random sparse polynomial with small rational coefficients."""
    terms: dict[tuple[int, ...], Fraction] = {}
    for _ in range(rng.randint(1, max_terms)):
        deg = rng.randint(0, max_degree)
        exps = [0] * chart.dim
        for _ in range(deg):
            exps[rng.randrange(chart.dim)] += 1
        num = rng.randint(-coeff_bound, coeff_bound)
        den = rng.randint(1, 3)
        terms[tuple(exps)] = terms.get(tuple(exps), Fraction(0)) + Fraction(num, den)
    return Polynomial(chart, terms)
