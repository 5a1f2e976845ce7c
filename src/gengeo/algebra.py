"""Exact coefficient arithmetic on coordinate charts.

Sparse multivariate polynomials over Q: the coefficient ring for every
symbolic object in the package.  A polynomial stores integer numerators
over one common denominator, in lowest terms, so every coefficient
operation is integer arithmetic; exponent multi-indices are tuples, and no
zero numerator is ever stored, so equality is structural and identities
can be asserted exactly.  `Polynomial.terms` views the coefficients as
`fractions.Fraction`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add
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
        if type(self.dim) is not int or not 1 <= self.dim <= MAX_DIM:
            raise ValueError(f"chart dimension must be an integer in 1..{MAX_DIM}: {self.dim!r}")

    def require_same(self, other: "Chart") -> None:
        if self is not other and self != other:
            raise ChartMismatchError(f"chart mismatch: {self} vs {other}")

    def check_index(self, i: int) -> None:
        if not 0 <= i < self.dim:
            raise IndexError(f"coordinate index {i} out of range for dim {self.dim}")


def _exponents(chart: Chart, exps: Sequence[int]) -> tuple[int, ...]:
    """exps as a tuple of chart.dim non-negative ints; bools and numeric strings are not."""
    exps = tuple(exps)
    if len(exps) != chart.dim:
        raise ValueError(f"exponent tuple {exps} has wrong length for dim {chart.dim}")
    if any(type(e) is not int or e < 0 for e in exps):
        raise ValueError(f"non-integer or negative exponent in {exps}")
    return exps


def as_fraction(value: Rational) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


class Polynomial:
    """Sparse polynomial: {exponent tuple -> nonzero int} over one denominator.

    The coefficient of x^e is ``nums[e] / den`` with ``den >= 1`` and
    ``gcd(den, *nums.values()) == 1``; the zero polynomial has ``den == 1``.
    That form is unique, so equality and hashing are structural.
    """

    __slots__ = ("chart", "nums", "den")

    def __init__(self, chart: Chart, terms: Mapping[tuple[int, ...], Rational] | None = None):
        clean = {_exponents(chart, e): as_fraction(c) for e, c in (terms or {}).items()}
        clean = {e: c for e, c in clean.items() if c}
        # over the lcm of the reduced denominators, the numerators share no factor with den
        den = math.lcm(*(c.denominator for c in clean.values()))
        self.chart = chart
        self.nums = {e: c.numerator * (den // c.denominator) for e, c in clean.items()}
        self.den = den

    # -- constructors ------------------------------------------------------

    @staticmethod
    def _make(chart: Chart, nums: dict[tuple[int, ...], int], den: int) -> "Polynomial":
        """Wrap nonzero numerators of valid exponents over den >= 1, reduced to lowest terms."""
        if den != 1:
            g = math.gcd(den, *nums.values())
            if g != 1:
                nums = {e: n // g for e, n in nums.items()}
                den //= g
        p = Polynomial.__new__(Polynomial)
        p.chart, p.nums, p.den = chart, nums, den
        return p

    @staticmethod
    def zero(chart: Chart) -> "Polynomial":
        return Polynomial._make(chart, {}, 1)

    @staticmethod
    def _term(chart: Chart, exps: tuple[int, ...], c: Fraction) -> "Polynomial":
        """c x^exps for a valid exponent tuple."""
        return Polynomial._make(chart, {exps: c.numerator} if c else {}, c.denominator)

    @staticmethod
    def constant(chart: Chart, value: Rational) -> "Polynomial":
        return Polynomial._term(chart, (0,) * chart.dim, as_fraction(value))

    @staticmethod
    def coordinate(chart: Chart, i: int) -> "Polynomial":
        chart.check_index(i)
        exps = [0] * chart.dim
        exps[i] = 1
        return Polynomial._make(chart, {tuple(exps): 1}, 1)

    @staticmethod
    def monomial(chart: Chart, exps: Sequence[int], coeff: Rational = 1) -> "Polynomial":
        return Polynomial._term(chart, _exponents(chart, exps), as_fraction(coeff))

    # -- structure ---------------------------------------------------------

    @property
    def terms(self) -> dict[tuple[int, ...], Fraction]:
        """A fresh {exponent tuple -> nonzero Fraction} copy of the coefficients."""
        den = self.den
        return {e: Fraction(n, den) for e, n in self.nums.items()}

    @property
    def is_zero(self) -> bool:
        return not self.nums

    def _constant_num(self) -> int | None:
        """The numerator of a constant polynomial (0 for zero), else None."""
        nums = self.nums
        if not nums:
            return 0
        if len(nums) == 1:
            exps, n = next(iter(nums.items()))
            if not any(exps):
                return n
        return None

    def constant_value(self) -> Fraction | None:
        """The value of a constant polynomial, else None."""
        n = self._constant_num()
        return None if n is None else Fraction(n, self.den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.chart == other.chart and self.den == other.den and self.nums == other.nums

    def __hash__(self) -> int:
        return hash((self.chart, self.den, frozenset(self.nums.items())))

    def __bool__(self) -> bool:
        return bool(self.nums)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            self.chart.require_same(other.chart)
            return other
        return Polynomial.constant(self.chart, other)

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if not other.nums:
            return self
        if not self.nums:
            return other
        den, oden = self.den, other.den
        mine = scale = 1
        if den != oden:
            g = math.gcd(den, oden)
            mine, scale = oden // g, den // g      # den * mine == oden * scale == lcm
            den *= mine
        out = dict(self.nums) if mine == 1 else {e: n * mine for e, n in self.nums.items()}
        theirs = other.nums if scale == 1 else {e: n * scale for e, n in other.nums.items()}
        for e, n in theirs.items():
            acc = out.get(e)
            s = n if acc is None else acc + n
            if s:
                out[e] = s
            elif acc is not None:
                del out[e]
        return Polynomial._make(self.chart, out, den)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._make(self.chart, {e: -n for e, n in self.nums.items()}, self.den)

    def __sub__(self, other) -> "Polynomial":
        return self + (-self._coerce(other))

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            self.chart.require_same(other.chart)
        else:
            other = as_fraction(other)
        if not self.nums or not other:      # a zero operand: nothing to multiply
            return Polynomial.zero(self.chart)
        if isinstance(other, Fraction):
            return self._scaled(other.numerator, other.denominator)
        for factor, const in ((self, other), (other, self)):
            n = const._constant_num()      # a constant factor scales the other's terms
            if n is not None:
                return factor._scaled(n, const.den)
        out: dict[tuple[int, ...], int] = {}
        get = out.get
        for e1, n1 in self.nums.items():
            for e2, n2 in other.nums.items():
                e = tuple(map(add, e1, e2))
                out[e] = get(e, 0) + n1 * n2
        if 0 in out.values():
            out = {e: n for e, n in out.items() if n}
        return Polynomial._make(self.chart, out, self.den * other.den)

    __rmul__ = __mul__

    def _scaled(self, n: int, d: int) -> "Polynomial":
        """(n/d) * self for n != 0 and d >= 1; exact, since a nonzero n times a nonzero
        term is nonzero."""
        if n == d:
            return self
        if n == -d:
            return -self
        return Polynomial._make(self.chart, {e: v * n for e, v in self.nums.items()}, self.den * d)

    # -- calculus ----------------------------------------------------------

    def differentiate(self, i: int) -> "Polynomial":
        """Exact partial derivative with respect to x_{i+1} (0-based i)."""
        self.chart.check_index(i)
        out: dict[tuple[int, ...], int] = {}
        for exps, n in self.nums.items():
            k = exps[i]
            if k:
                e = list(exps)
                e[i] = k - 1
                out[tuple(e)] = n * k
        return Polynomial._make(self.chart, out, self.den)

    def evaluate(self, point: Sequence[Rational]) -> Fraction:
        """Exact value at a rational point."""
        if len(point) != self.chart.dim:
            raise ValueError(f"point has {len(point)} coordinates, chart has {self.chart.dim}")
        pt = [as_fraction(x) for x in point]
        total = Fraction(0)
        for exps, n in self.nums.items():
            v = n
            for x, e in zip(pt, exps):
                if e:
                    v *= x**e
            total += v
        return total / self.den

    # -- lexicographic leading data (for exact division / square roots) ----

    def _leading(self) -> tuple[tuple[int, ...], Fraction]:
        exps = max(self.nums)
        return exps, Fraction(self.nums[exps], self.den)

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
            t = Polynomial._term(self.chart, exps, rc / dc)
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
        half = tuple(e // 2 for e in le)
        root = Polynomial._term(self.chart, half, c)
        rem = self - root * root
        while not rem.is_zero:
            re, rc = rem._leading()
            exps = tuple(a - b for a, b in zip(re, half))
            if any(e < 0 for e in exps):
                return None
            t = Polynomial._term(self.chart, exps, rc / (2 * c))
            rem = rem - (root * 2 + t) * t      # (root + t)^2 = root^2 + (2 root + t) t
            root = root + t
        return root

    # -- serialization -----------------------------------------------------

    def to_json_obj(self) -> list[dict]:
        entries = []
        for exps, c in sorted(self.terms.items()):
            entries.append({"exponents": list(exps), "coeff": f"{c.numerator}/{c.denominator}"})
        return entries


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
