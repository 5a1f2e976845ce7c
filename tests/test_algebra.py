import math
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
    trinomial = x1 * x1 + x1 + 1        # the root's own cross terms enter the remainder
    assert (trinomial * trinomial).sqrt() == trinomial
    assert (x1 * x2).sqrt() is None
    assert Polynomial.constant(c, Fraction(9, 4)).sqrt() == Polynomial.constant(c, Fraction(3, 2))
    assert Polynomial.constant(c, 8).sqrt() is None
    assert (x1 * x1 + x2).sqrt() is None         # the remainder x2 is not divisible by x1
    assert (-x1 * x1).sqrt() is None             # a negative leading coefficient
    with pytest.raises(ZeroDivisionError, match="exact_divide by zero polynomial"):
        x1.exact_divide(Polynomial.zero(c))


# io's rule for exponents: chart.dim non-negative ints; int() truncated 1.5 to 1 and
# accepted "1" and True, and monomial() stored whatever it was given
MALFORMED_EXPONENTS = pytest.mark.parametrize("exps, message", [
    ((1, 0), r"exponent tuple \(1, 0\) has wrong length for dim 3"),
    ((0, -1, 0), r"negative exponent in \(0, -1, 0\)"),
    ((1.5, 0, 0), r"non-integer or negative exponent in \(1.5, 0, 0\)"),
    (("1", 0, 0), r"non-integer or negative exponent in \('1', 0, 0\)"),
    ((True, 0, 0), r"non-integer or negative exponent in \(True, 0, 0\)"),
], ids=["wrong-length", "negative", "float", "string", "bool"])


@MALFORMED_EXPONENTS
def test_polynomial_rejects_malformed_exponent_tuples(exps, message):
    with pytest.raises(ValueError, match=message):
        Polynomial(chart(), {exps: 1})


@MALFORMED_EXPONENTS
def test_monomial_rejects_malformed_exponent_tuples(exps, message):
    with pytest.raises(ValueError, match=message):
        Polynomial.monomial(chart(), exps)
    with pytest.raises(ValueError, match=message):      # a zero coefficient as well
        Polynomial.monomial(chart(), exps, 0)


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


# -- integer numerators over one denominator, against per-term Fraction loops ----------


def reference_add(a, b):
    """Per-term Fraction sum of two {exponents: Fraction} dicts, dropping zeros."""
    out = dict(a)
    for exps, c in b.items():
        acc = out.get(exps)
        s = c if acc is None else acc + c
        if s:
            out[exps] = s
        elif acc is not None:
            del out[exps]
    return out


def reference_scaled(a, c):
    return {e: v * c for e, v in a.items()} if c else {}


def reference_differentiate(a, i):
    out = {}
    for exps, c in a.items():
        k = exps[i]
        if k:
            e = list(exps)
            e[i] = k - 1
            out[tuple(e)] = c * k
    return out


def assert_canonical(p):
    assert type(p.den) is int and p.den >= 1
    assert all(type(n) is int and n for n in p.nums.values())
    assert math.gcd(p.den, *p.nums.values()) == 1


@st.composite
def mixed_denominator_cases(draw):
    dim = draw(st.integers(1, 5))
    exps = st.tuples(*[st.integers(0, 2)] * dim)
    coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=12)
    p, q = (Polynomial(Chart(dim), draw(st.dictionaries(exps, coeffs, max_size=5)))
            for _ in range(2))
    return p, q, draw(small_fractions), draw(st.integers(0, dim - 1))


@settings(max_examples=80, deadline=None)
@given(mixed_denominator_cases())
def test_integer_representation_matches_fraction_loops(case):
    p, q, c, i = case
    neg_q = {e: -v for e, v in q.terms.items()}
    results = [
        (p + q, reference_add(p.terms, q.terms)),
        (p - q, reference_add(p.terms, neg_q)),
        (-q, neg_q),
        (p * q, reference_mul(p, q)),
        (p * c, reference_scaled(p.terms, c)),
        (c * q, reference_scaled(q.terms, c)),
        (p.differentiate(i), reference_differentiate(p.terms, i)),
    ]
    for result, expected in results:
        assert result.terms == expected
        assert_canonical(result)
    assert_canonical(p)
    assert_canonical(q)
    same = [((p + q) - q, p), (p * q - q * p, Polynomial.zero(p.chart)),
            ((p * c).differentiate(i), p.differentiate(i) * c),
            (Polynomial(p.chart, p.terms), p), (p * 2 - p, p + 0)]
    if c:
        same.append(((p * c) * (1 / c), p))
    for left, right in same:
        assert left == right and hash(left) == hash(right)
    if not q.is_zero:
        assert (p * q).exact_divide(q) == p
    root = (p * p).sqrt()
    assert root == p or root == -p
