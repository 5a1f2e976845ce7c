"""The exact kernel skips zero operands without changing any result.

`Polynomial.__mul__` returns zero for a zero operand before forming any
product.  `vf_bracket`, `lift` and `gv_inner` form a product only when both
factors are nonzero.  Each is compared here, with `==` and term order, against a
dense per-index sum over every index, on seeded inputs with some zero
components.  Three pins keep the skipped work from coming back: `delta` on
coordinate fields multiplies no zero operand, `torsion_check` scales no zero
polynomial and by no zero factor, and `verify identities` evaluates one
Courant bracket per courant-case section pair.
"""

import random
from fractions import Fraction

import pytest

from gengeo import cli, generalized
from gengeo.algebra import Chart, ChartMismatchError, Polynomial, random_polynomial
from gengeo.forms import MixedForm, VectorField, vf_bracket
from gengeo.generalized import GenSection, gv_inner
from gengeo.metric import (GeneralizedMetric, coordinate_deltas, lift, random_metric,
                           torsion_check)

DIMS = (2, 3, 4, 5)
SEEDS = range(6)


def sparse_polynomials(chart, rng, count):
    """Random polynomials, about a third of them zero."""
    return [Polynomial.zero(chart) if rng.random() < 0.35 else random_polynomial(chart, rng)
            for _ in range(count)]


def sparse_field(chart, rng):
    return VectorField(chart, sparse_polynomials(chart, rng, chart.dim))


def sparse_section(chart, rng):
    xi = sparse_polynomials(chart, rng, chart.dim)
    return GenSection(sparse_field(chart, rng),
                      MixedForm(chart, {(i,): p for i, p in enumerate(xi)}))


def sparse_metric(chart, rng):
    n = chart.dim
    entries = sparse_polynomials(chart, rng, n * n)
    return GeneralizedMetric(chart, [entries[i * n:(i + 1) * n] for i in range(n)])


def assert_same(got, want):
    """Equal, with the same terms in the same insertion order."""
    assert got == want
    assert list(got.nums.items()) == list(want.nums.items())


def dense_vf_bracket(x, y):
    n = x.chart.dim
    comps = []
    for i in range(n):
        acc = Polynomial.zero(x.chart)
        for j in range(n):
            acc = acc + x.components[j] * y.components[i].differentiate(j)
            acc = acc - y.components[j] * x.components[i].differentiate(j)
        comps.append(acc)
    return comps


def dense_lift(x, sign, v):
    n = v.chart.dim
    c = v.c if sign == "+" else [[-v.c[j][i] for j in range(n)] for i in range(n)]
    zero = Polynomial.zero(v.chart)
    return [sum((x.components[i] * c[i][j] for i in range(n)), zero) for j in range(n)]


def dense_gv_inner(u, v):
    acc = Polynomial.zero(u.chart)
    for i in range(u.chart.dim):
        acc = acc + u.vector.components[i] * v.oneform.coefficient((i,))
        acc = acc + v.vector.components[i] * u.oneform.coefficient((i,))
    return acc * Fraction(1, 2)


@pytest.mark.parametrize("dim", DIMS)
def test_vf_bracket_matches_dense_sum(dim):
    chart = Chart(dim)
    for seed in SEEDS:
        rng = random.Random(1000 * dim + seed)
        x, y = sparse_field(chart, rng), sparse_field(chart, rng)
        got = vf_bracket(x, y)
        for comp, want in zip(got.components, dense_vf_bracket(x, y)):
            assert_same(comp, want)
    coords = [VectorField.coordinate(chart, i) for i in range(dim)]
    assert all(vf_bracket(a, b).is_zero for a in coords for b in coords)


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("sign", ["+", "-"])
def test_lift_matches_dense_sum(dim, sign):
    chart = Chart(dim)
    for seed in SEEDS:
        rng = random.Random(2000 * dim + seed)
        v = sparse_metric(chart, rng) if seed % 2 else random_metric(chart, rng)
        x = sparse_field(chart, rng)
        got = lift(x, sign, v)
        assert got.vector == x
        assert got.oneform.is_homogeneous(1)
        for j, want in enumerate(dense_lift(x, sign, v)):
            assert_same(got.oneform.coefficient((j,)), want)
    assert lift(VectorField.zero(chart), sign, v).oneform.is_zero


def test_lift_of_the_zero_field_still_checks_the_sign():
    chart = Chart(3)
    v = random_metric(chart, random.Random(7))
    with pytest.raises(ValueError, match="sign must be"):
        lift(VectorField.zero(chart), "*", v)


@pytest.mark.parametrize("dim", DIMS)
def test_gv_inner_matches_dense_sum(dim):
    chart = Chart(dim)
    for seed in SEEDS:
        rng = random.Random(3000 * dim + seed)
        u, v = sparse_section(chart, rng), sparse_section(chart, rng)
        assert_same(gv_inner(u, v), dense_gv_inner(u, v))
        assert_same(gv_inner(u, GenSection.zero(chart)), Polynomial.zero(chart))


def _is_zero_operand(value):
    return value.is_zero if isinstance(value, Polynomial) else value == 0


@pytest.mark.parametrize("swapped", [False, True])
def test_delta_on_coordinate_fields_multiplies_no_zero_operand(monkeypatch, swapped):
    metrics = []
    for dim in (2, 3, 4):
        rng = random.Random(40 + dim)
        metrics += [random_metric(Chart(dim), rng), sparse_metric(Chart(dim), rng)]
    products, zero_products = [], []
    mul = Polynomial.__mul__

    def spy(self, other):
        products.append(1)
        if _is_zero_operand(self) or _is_zero_operand(other):
            zero_products.append((self, other))
        return mul(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", spy)
    monkeypatch.setattr(Polynomial, "__rmul__", spy)
    for v in metrics:
        coordinate_deltas(v, swapped=swapped)
    assert products
    assert zero_products == []


@pytest.mark.parametrize("dim", DIMS)
def test_products_with_a_zero_operand_are_zero(dim):
    chart = Chart(dim)
    zero = Polynomial.zero(chart)
    rng = random.Random(5000 + dim)
    for p in [random_polynomial(chart, rng) for _ in range(4)] + [Polynomial.constant(chart, 3)]:
        for product in (p * zero, zero * p, p * 0, 0 * p, zero * Fraction(-2, 3), zero * zero):
            assert_same(product, zero)
    with pytest.raises(ChartMismatchError):
        zero * Polynomial.zero(Chart(dim + 1))
    with pytest.raises(TypeError):
        zero * 0.5


@pytest.mark.parametrize("swapped", [False, True])
def test_torsion_check_multiplies_no_zero_operand(monkeypatch, swapped):
    # Every product with a zero operand (a zero polynomial, a zero constant
    # factor) would reach _scaled with a zero polynomial or a zero n; the
    # derivatives of constant metric entries and the zero sums c_ij +- c_ji
    # of g_entry/b_entry are such operands.
    metrics = []
    for dim in (2, 3, 4):
        rng = random.Random(60 + dim)
        metrics += [random_metric(Chart(dim), rng), sparse_metric(Chart(dim), rng)]
    scaled, zero_scaled = [], []
    original = Polynomial._scaled

    def spy(self, n, d):
        scaled.append(1)
        if self.is_zero or not n:
            zero_scaled.append((self, n, d))
        return original(self, n, d)

    monkeypatch.setattr(Polynomial, "_scaled", spy)
    for v in metrics:
        assert torsion_check(v, swapped=swapped).all_zero
    assert scaled
    assert zero_scaled == []


def test_identities_suite_evaluates_one_bracket_per_courant_pair(monkeypatch):
    # courant_spinor_residual reads generalized.courant_bracket; the suite's
    # own identity checks call cli's import of the same function, unpatched.
    pairs = []
    bracket = generalized.courant_bracket

    def spy(u, v):
        pairs.append((u, v))
        return bracket(u, v)

    monkeypatch.setattr(generalized, "courant_bracket", spy)
    for seed in (0, 1, 2):
        pairs.clear()
        report = cli.identities_suite(3, 1, seed)
        assert report.passed
        assert len(pairs) == 1
        pairs.clear()
        cli.identities_suite(3, 2, seed)
        assert len(pairs) == 2 and pairs[0] != pairs[1]
