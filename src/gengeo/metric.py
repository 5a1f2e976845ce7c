"""Generalized metrics as splittings C = g + B and their torsion connections.

The splitting tensor C lifts vector fields into T+T* two ways,
X+ = X + i_X C (into V) and X- = X - i_X C^T (into the orthogonal
complement), and the Courant bracket of the two lifts produces a metric
connection whose torsion is the closed 3-form -dB.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .algebra import Chart, Polynomial, Rational, invert_matrix, random_polynomial, solve_linear
from .forms import MixedForm, VectorField, exterior_derivative, interior_product, vf_bracket
from .generalized import GenSection, courant_bracket


class GeneralizedMetric:
    """Splitting tensor C (n x n polynomials); g = sym C, B = skew C, H = dB."""

    def __init__(self, chart: Chart, c_matrix: Sequence[Sequence[Polynomial]]):
        n = chart.dim
        if len(c_matrix) != n or any(len(row) != n for row in c_matrix):
            raise ValueError("C must be an n x n matrix of polynomials")
        for row in c_matrix:
            for p in row:
                chart.require_same(p.chart)
        self.chart = chart
        self.c = [list(row) for row in c_matrix]

    @staticmethod
    def from_g_and_b(chart: Chart, g: Sequence[Sequence[Polynomial]],
                     b: Sequence[Sequence[Polynomial]] | None = None) -> "GeneralizedMetric":
        n = chart.dim
        zero = Polynomial.zero(chart)
        c = [[g[i][j] + (b[i][j] if b else zero) for j in range(n)] for i in range(n)]
        return GeneralizedMetric(chart, c)

    def g_entry(self, i: int, j: int) -> Polynomial:
        return (self.c[i][j] + self.c[j][i]) * Fraction(1, 2)

    def b_entry(self, i: int, j: int) -> Polynomial:
        return (self.c[i][j] - self.c[j][i]) * Fraction(1, 2)

    def b_form(self) -> MixedForm:
        """The curving 2-form B = sum_{i<j} B_ij dx_i ^ dx_j."""
        n = self.chart.dim
        return MixedForm(self.chart, {(i, j): self.b_entry(i, j)
                                      for i in range(n) for j in range(i + 1, n)})

    def h_form(self) -> MixedForm:
        """The curvature H = dB, a closed 3-form."""
        return exterior_derivative(self.b_form())

    def g_at(self, point: Sequence[Rational]) -> list[list[Fraction]]:
        n = self.chart.dim
        return [[self.g_entry(i, j).evaluate(point) for j in range(n)] for i in range(n)]


def lift(x: VectorField, sign: str, v: GeneralizedMetric) -> GenSection:
    """X+ = X + i_X C (sign '+'), X- = X - i_X C^T (sign '-').

    Row contraction: i_X C(Y) = C(X, Y).
    """
    x.chart.require_same(v.chart)
    n = v.chart.dim
    if sign == "+":
        c = v.c
    elif sign == "-":
        c = [[-v.c[j][i] for j in range(n)] for i in range(n)]
    else:
        raise ValueError("sign must be '+' or '-'")
    zero = Polynomial.zero(v.chart)
    return GenSection(x, MixedForm(v.chart, {
        (j,): sum((x.components[i] * c[i][j] for i in range(n)), zero) for j in range(n)}))


def delta(x: VectorField, y: VectorField, v: GeneralizedMetric,
          swapped: bool = False) -> MixedForm:
    """Delta_X Y = [X-, Y+] - [X,Y]-  (a pure 1-form; vector part must vanish).

    ``swapped`` interchanges the roles of V and its complement:
    [X+, Y-] - [X,Y]+.
    """
    outer, inner = ("+", "-") if swapped else ("-", "+")
    bracket = courant_bracket(lift(x, outer, v), lift(y, inner, v))
    bracket = bracket - lift(vf_bracket(x, y), outer, v)
    if not bracket.vector.is_zero:
        raise RuntimeError("internal error: Delta_X Y has a nonvanishing vector part")
    return bracket.oneform


def coordinate_deltas(v: GeneralizedMetric, swapped: bool = False) -> list[list[MixedForm]]:
    """Delta_{d/dx_i} d/dx_j for all coordinate pairs."""
    n = v.chart.dim
    fields = [VectorField.coordinate(v.chart, i) for i in range(n)]
    return [[delta(fields[i], fields[j], v, swapped) for j in range(n)] for i in range(n)]


def connection_at(v: GeneralizedMetric, point: Sequence[Rational],
                  deltas: list[list[MixedForm]] | None = None) -> list[list[list[Fraction]]]:
    """Connection coefficients Gamma[l][i][j] at a rational point.

    Solves Delta_{d/dx_i} d/dx_j = 2 g(nabla_{d/dx_i} d/dx_j) exactly;
    raises ZeroDivisionError where g is singular.
    """
    n = v.chart.dim
    if deltas is None:
        deltas = coordinate_deltas(v)
    g = v.g_at(point)
    two_g = [[2 * g[k][l] for l in range(n)] for k in range(n)]
    gamma = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            rhs = [deltas[i][j].coefficient((k,)).evaluate(point) for k in range(n)]
            sol = solve_linear(two_g, rhs)
            for l in range(n):
                gamma[l][i][j] = sol[l]
    return gamma


# spec-facing name: the connection is extracted pointwise (g^{-1} is not
# polynomial in general), so `connection` takes the evaluation point.
connection = connection_at


def christoffel_classical_at(v: GeneralizedMetric,
                             point: Sequence[Rational]) -> list[list[list[Fraction]]]:
    """Independent Levi-Civita oracle: Gamma^l_ij = g^{lk}(g_jk,i + g_ik,j - g_ij,k)/2."""
    n = v.chart.dim
    g_inv = invert_matrix(v.g_at(point))
    dg = [[[v.g_entry(i, j).differentiate(k).evaluate(point) for k in range(n)]
           for j in range(n)] for i in range(n)]
    gamma = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for l in range(n):
        for i in range(n):
            for j in range(n):
                acc = Fraction(0)
                for k in range(n):
                    acc += g_inv[l][k] * (dg[j][k][i] + dg[i][k][j] - dg[i][j][k])
                gamma[l][i][j] = acc / 2
    return gamma


@dataclass
class TorsionReport:
    """Exact residuals for the skew-torsion identity on coordinate fields."""

    torsion_matches_minus_h: bool
    metric_compatible: bool
    torsion_residuals: list[Polynomial] = field(default_factory=list)
    compatibility_residuals: list[Polynomial] = field(default_factory=list)
    definiteness_warnings: list[str] = field(default_factory=list)
    expected_sign: int = -1

    @property
    def all_zero(self) -> bool:
        return self.torsion_matches_minus_h and self.metric_compatible


def torsion_check(v: GeneralizedMetric, points: Sequence[Sequence[Rational]] | None = None,
                  swapped: bool = False) -> TorsionReport:
    """Check the skew-torsion identity and metric compatibility exactly.

    The lowered torsion satisfies, as 1-forms and with nested contraction
    i_X(i_Y(.)),

        (Delta_X Y - Delta_Y X)/2 - g[X,Y] = -i_X i_Y H,      H = dB,

    so the torsion lowered with the bundle's induced metric is -H; with
    `swapped` the induced metric is -g and the torsion read against g is
    +H.  Both sides are polynomial, so this is an exact identity; `points`
    only feeds the positive-definiteness warning.
    """
    n = v.chart.dim
    deltas = coordinate_deltas(v, swapped=swapped)
    h = v.h_form()
    sign = 1 if swapped else -1
    half = Fraction(1, 2)

    torsion_residuals = []
    for i in range(n):
        for j in range(i + 1, n):
            lowered = (deltas[i][j] - deltas[j][i]).scale(half)
            expected = -interior_product(VectorField.coordinate(v.chart, i),
                                         interior_product(VectorField.coordinate(v.chart, j), h))
            diff = lowered - expected
            for k in range(n):
                torsion_residuals.append(diff.coefficient((k,)))

    # X g(Y,Z) = g(nabla_X Y, Z) + g(Y, nabla_X Z) on coordinate fields;
    # the swapped branch uses the induced metric -g of the complement.
    gsign = -1 if swapped else 1
    compat_residuals = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                dg = v.g_entry(j, k).differentiate(i) * gsign
                rhs = (deltas[i][j].coefficient((k,)) + deltas[i][k].coefficient((j,))) * half
                compat_residuals.append(dg - rhs)

    warnings = []
    for pt in points or []:
        g = v.g_at(pt)
        if not _is_positive_definite(g):
            warnings.append(f"g not positive definite at {tuple(str(x) for x in pt)}")

    return TorsionReport(
        torsion_matches_minus_h=all(r.is_zero for r in torsion_residuals),
        metric_compatible=all(r.is_zero for r in compat_residuals),
        torsion_residuals=torsion_residuals,
        compatibility_residuals=compat_residuals,
        definiteness_warnings=warnings,
        expected_sign=sign,
    )


def _is_positive_definite(g: list[list[Fraction]]) -> bool:
    """Exact: Gaussian elimination without row swaps meets only positive pivots.

    The k-th pivot is the ratio of the k-th and (k-1)-th leading principal
    minors, so this is Sylvester's criterion.
    """
    m = [list(row) for row in g]
    for col, pivot_row in enumerate(m):
        pivot = pivot_row[col]
        if pivot <= 0:
            return False
        for row in m[col + 1:]:
            factor = row[col] / pivot
            row[:] = [x - factor * y for x, y in zip(row, pivot_row)]
    return True


def random_metric(chart: Chart, rng, eps_degree: int = 1) -> GeneralizedMetric:
    """Identity plus a small random symmetric part and a random skew part.

    The symmetric perturbation has coefficients in 1/8 Z to keep g invertible
    (diagonally dominant) at the small rational sample points used in suites.
    """
    n = chart.dim
    zero = Polynomial.zero(chart)
    g = [[zero for _ in range(n)] for _ in range(n)]
    b = [[zero for _ in range(n)] for _ in range(n)]
    for i in range(n):
        g[i][i] = Polynomial.constant(chart, 1)
    for i in range(n):
        for j in range(i, n):
            bump = random_polynomial(chart, rng, max_degree=eps_degree, max_terms=2,
                                     coeff_bound=1) * Fraction(1, 8)
            g[i][j] = g[i][j] + bump
            g[j][i] = g[j][i] + bump
    for i in range(n):
        for j in range(i + 1, n):
            skew = random_polynomial(chart, rng, max_degree=eps_degree, max_terms=2)
            b[i][j] = skew
            b[j][i] = -skew
    return GeneralizedMetric.from_g_and_b(chart, g, b)
