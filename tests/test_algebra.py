import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gengeo.algebra import (Chart, ChartMismatchError, Polynomial, invert_matrix,
                            random_polynomial, solve_linear)
from gengeo.io import parse_polynomial


def chart(n=3):
    return Chart(n)


def test_chart_validation():
    with pytest.raises(ValueError):
        Chart(0)
    with pytest.raises(ValueError):
        Chart(9)
    assert Chart(5).names == ("x1", "x2", "x3", "x4", "x5")


def test_differentiate_power_rule():
    c = chart()
    x1, x2 = Polynomial.coordinate(c, 0), Polynomial.coordinate(c, 1)
    p = x1 * x1 * x2
    assert p.differentiate(0) == x1 * x2 * 2
    assert Polynomial.constant(c, 5).differentiate(2).is_zero
    assert (x1 + x2).differentiate(1) == Polynomial.constant(c, 1)


def test_differentiate_index_range():
    c = chart()
    with pytest.raises(IndexError):
        Polynomial.coordinate(c, 0).differentiate(3)


def test_evaluate():
    c = chart()
    x1, x2 = Polynomial.coordinate(c, 0), Polynomial.coordinate(c, 1)
    assert (x1 * x1 * x2).evaluate([2, 3, 0]) == 12
    assert Polynomial.zero(c).evaluate([7, 1, 1]) == 0
    assert (x1 + x2).evaluate([Fraction(1, 2), Fraction(1, 3), 0]) == Fraction(5, 6)
    with pytest.raises(ValueError):
        x1.evaluate([1, 2])


def test_chart_mixing_rejected():
    p = Polynomial.coordinate(Chart(2), 0)
    q = Polynomial.coordinate(Chart(3), 0)
    with pytest.raises(ChartMismatchError):
        p * q


def test_no_zero_terms_stored():
    c = chart()
    x = Polynomial.coordinate(c, 0)
    assert not (x - x).terms
    assert (x + x - x) == x


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 2), st.integers(0, 2))
def test_mixed_partials_commute(seed, i, j):
    rng = random.Random(seed)
    p = random_polynomial(chart(), rng, max_degree=4, max_terms=4)
    assert p.differentiate(i).differentiate(j) == p.differentiate(j).differentiate(i)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 2))
def test_leibniz(seed, i):
    rng = random.Random(seed)
    p = random_polynomial(chart(), rng)
    q = random_polynomial(chart(), rng)
    assert (p * q).differentiate(i) == p.differentiate(i) * q + p * q.differentiate(i)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_evaluate_is_ring_hom(seed):
    rng = random.Random(seed)
    c = chart()
    p = random_polynomial(c, rng)
    q = random_polynomial(c, rng)
    pt = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(c.dim)]
    assert (p * q).evaluate(pt) == p.evaluate(pt) * q.evaluate(pt)
    assert (p + q).evaluate(pt) == p.evaluate(pt) + q.evaluate(pt)


def test_exact_divide_and_sqrt():
    c = chart()
    x1, x2 = Polynomial.coordinate(c, 0), Polynomial.coordinate(c, 1)
    p = (x1 + x2) * (x1 - x2 * 2)
    assert p.exact_divide(x1 + x2) == x1 - x2 * 2
    assert (x1 * x2).exact_divide(x1 + x2) is None
    sq = (x1 * 2 + x2 * x2) * (x1 * 2 + x2 * x2)
    assert sq.sqrt() == x1 * 2 + x2 * x2
    assert (x1 * x2).sqrt() is None
    assert Polynomial.constant(c, Fraction(9, 4)).sqrt() == Polynomial.constant(c, Fraction(3, 2))
    assert Polynomial.constant(c, 8).sqrt() is None


def test_json_round_trip():
    c = chart()
    rng = random.Random(11)
    p = random_polynomial(c, rng, max_degree=3, max_terms=4)
    assert parse_polynomial(c, p.to_json_obj()) == p


def test_solve_linear_exact():
    a = [[2, 1], [1, 3]]
    sol = solve_linear(a, [5, 10])
    assert sol == [Fraction(1), Fraction(3)]
    inv = invert_matrix(a)
    assert inv == [[Fraction(3, 5), Fraction(-1, 5)], [Fraction(-1, 5), Fraction(2, 5)]]
    with pytest.raises(ZeroDivisionError):
        solve_linear([[1, 1], [1, 1]], [1, 2])


# -- scalar fast paths of __mul__ ------------------------------------------------------


def reference_mul(p, q):
    """The general double loop of Polynomial.__mul__, for every operand."""
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


small_fractions = st.fractions(min_value=-20, max_value=20, max_denominator=9)
scalars = st.one_of(st.sampled_from([0, 1, -1]), st.integers(-10**6, 10**6), small_fractions)


def assert_clean(p):
    assert all(type(c) is Fraction and c for c in p.terms.values())


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 4), scalars)
def test_scalar_products_match_general_loop(seed, dim, c):
    ch = chart(dim)
    p = random_polynomial(ch, random.Random(seed), max_degree=3, max_terms=5)
    const = Polynomial.constant(chart(dim), c)      # an equal chart, not the same object
    expected = reference_mul(p, Polynomial.constant(ch, c))
    for product in (p * c, c * p, p * const, const * p):
        assert product.terms == expected
        assert product.terms is not p.terms
        assert_clean(product)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 4))
def test_general_products_match_general_loop(seed, dim):
    rng = random.Random(seed)
    p, q = (random_polynomial(chart(dim), rng, max_degree=3, max_terms=5) for _ in range(2))
    assert (p * q).terms == reference_mul(p, q)
    assert_clean(p * q)


def test_scaling_never_aliases_and_rejects_other_charts():
    c = chart()
    p = Polynomial.coordinate(c, 0) + 1
    one = p * 1
    one.terms.clear()
    assert p == Polynomial.coordinate(c, 0) + 1
    with pytest.raises(ChartMismatchError):
        p * Polynomial.constant(Chart(2), 3)
    with pytest.raises(TypeError):
        p * 0.5
