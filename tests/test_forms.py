import random

import pytest
from hypothesis import given, settings, strategies as st

from gengeo.algebra import Chart, ChartMismatchError, Polynomial
from gengeo.forms import (MixedForm, VectorField, exterior_derivative, interior_product,
                          lie_derivative, merge_indices, mukai_pairing, random_mixed_form,
                          random_vector_field, sigma_involution, vf_bracket, wedge)


def c5():
    return Chart(5)


def dx(chart, *idx):
    return MixedForm.basis(chart, [i - 1 for i in idx])


def test_merge_indices_signs():
    assert merge_indices((0,), (1,)) == ((0, 1), 1)
    assert merge_indices((1,), (0,)) == ((0, 1), -1)
    assert merge_indices((0,), (0,)) is None
    assert merge_indices((2, 3, 4), (0, 1)) == ((0, 1, 2, 3, 4), 1)


def test_wedge_basics():
    c = c5()
    assert wedge(dx(c, 1), dx(c, 2)) == dx(c, 1, 2)
    assert wedge(dx(c, 1), dx(c, 1)).is_zero
    a = MixedForm.function(c, 1) + dx(c, 1, 2)
    b = MixedForm.function(c, 1) + dx(c, 3, 4)
    expected = MixedForm.function(c, 1) + dx(c, 1, 2) + dx(c, 3, 4) + dx(c, 1, 2, 3, 4)
    assert wedge(a, b) == expected


def test_wedge_chart_mismatch():
    with pytest.raises(ChartMismatchError):
        wedge(MixedForm.function(Chart(2), 1), MixedForm.function(Chart(3), 1))


def test_exterior_derivative_examples():
    c = c5()
    x1 = Polynomial.coordinate(c, 0)
    x2 = Polynomial.coordinate(c, 1)
    assert exterior_derivative(MixedForm.basis(c, (1,), x1)) == dx(c, 1, 2)
    closed = dx(c, 1, 2) + dx(c, 3, 4) + dx(c, 1, 3, 4, 5)
    assert exterior_derivative(closed).is_zero
    d_fn = exterior_derivative(MixedForm.function(c, x1 * x2))
    assert d_fn == MixedForm.basis(c, (0,), x2) + MixedForm.basis(c, (1,), x1)


def test_interior_product_examples():
    c = c5()
    d1 = VectorField.coordinate(c, 0)
    d3 = VectorField.coordinate(c, 2)
    x1 = Polynomial.coordinate(c, 0)
    assert interior_product(d1, dx(c, 1, 2)) == dx(c, 2)
    assert interior_product(d3, dx(c, 1, 2)).is_zero
    assert interior_product(d1, MixedForm.basis(c, (0, 1, 2), x1)) == MixedForm.basis(c, (1, 2), x1)


def test_lie_derivative_examples():
    c = c5()
    d1 = VectorField.coordinate(c, 0)
    x1 = Polynomial.coordinate(c, 0)
    assert lie_derivative(d1, MixedForm.basis(c, (1,), x1)) == dx(c, 2)
    assert lie_derivative(d1, dx(c, 2)).is_zero
    x1d1 = VectorField.from_components(c, {0: x1})
    assert lie_derivative(x1d1, dx(c, 1)) == dx(c, 1)


def test_sigma_involution_sign_rule():
    c = c5()
    assert sigma_involution(MixedForm.function(c, 1)) == MixedForm.function(c, 1)
    assert sigma_involution(dx(c, 1)) == dx(c, 1)
    assert sigma_involution(dx(c, 1, 2)) == -dx(c, 1, 2)
    assert sigma_involution(dx(c, 1, 2, 3)) == -dx(c, 1, 2, 3)
    assert sigma_involution(dx(c, 1, 2, 3, 4)) == dx(c, 1, 2, 3, 4)


def test_mukai_pairing_five_dim_signs():
    c = c5()
    one = Polynomial.constant(c, 1)
    assert mukai_pairing(MixedForm.function(c, 1), dx(c, 1, 2, 3, 4, 5)) == one
    assert mukai_pairing(dx(c, 1, 2), dx(c, 3, 4, 5)) == -one
    assert mukai_pairing(dx(c, 1, 2, 3, 4), dx(c, 5)) == one


def test_mukai_matches_component_expansion():
    # <phi,psi> = phi0^psi5 - phi2^psi3 + phi4^psi1 on five dimensions
    c = c5()
    rng = random.Random(3)
    phi = random_mixed_form(c, rng, degrees=(0, 2, 4))
    psi = random_mixed_form(c, rng, degrees=(1, 3, 5))
    top = tuple(range(5))
    expanded = (
        wedge(phi.degree_part(0), psi.degree_part(5)).coefficient(top)
        - wedge(phi.degree_part(2), psi.degree_part(3)).coefficient(top)
        + wedge(phi.degree_part(4), psi.degree_part(1)).coefficient(top)
    )
    assert mukai_pairing(phi, psi) == expanded
    assert mukai_pairing(psi, phi) == expanded


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 6))
def test_mukai_pairing_is_the_top_coefficient_of_the_wedge(seed, dim):
    # mukai_pairing pairs only complementary terms; the definition multiplies out all
    rng = random.Random(seed)
    chart = Chart(dim)
    a = random_mixed_form(chart, rng, max_terms=3)
    b = random_mixed_form(chart, rng, max_terms=3)
    top = tuple(range(dim))
    assert mukai_pairing(a, b) == wedge(a, sigma_involution(b)).coefficient(top)
    assert mukai_pairing(a, a) == wedge(a, sigma_involution(a)).coefficient(top)


def test_pairing_with_d_is_antisymmetric_up_to_an_exact_top_form():
    # <a, db> + <b, da> is the top coefficient of d(a ^ sigma(b)) for odd a, b on the
    # 5-chart, so int <a, db> is antisymmetric on the five-torus (the flow module's
    # account of the volume drift); seeds 0, 2 and 3 have a nonzero left side
    top = tuple(range(5))
    nonzero = []
    for seed in range(5):
        rng = random.Random(seed)
        a, b = (random_mixed_form(Chart(5), rng, degrees=(1, 3, 5)) for _ in range(2))
        left = mukai_pairing(a, exterior_derivative(b)) + mukai_pairing(b, exterior_derivative(a))
        assert left == exterior_derivative(wedge(a, sigma_involution(b))).coefficient(top)
        if not left.is_zero:
            nonzero.append(seed)
    assert nonzero == [0, 2, 3]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 5))
def test_d_squared_zero(seed, dim):
    rng = random.Random(seed)
    a = random_mixed_form(Chart(dim), rng)
    assert exterior_derivative(exterior_derivative(a)).is_zero


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 5))
def test_interior_squares_to_zero(seed, dim):
    rng = random.Random(seed)
    c = Chart(dim)
    x = random_vector_field(c, rng)
    a = random_mixed_form(c, rng)
    assert interior_product(x, interior_product(x, a)).is_zero


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_interior_antiderivation(seed):
    rng = random.Random(seed)
    c = Chart(4)
    x = random_vector_field(c, rng)
    deg_a = rng.randint(0, 4)
    a = random_mixed_form(c, rng, degrees=(deg_a,))
    b = random_mixed_form(c, rng)
    sign = -1 if deg_a % 2 else 1
    lhs = interior_product(x, wedge(a, b))
    rhs = wedge(interior_product(x, a), b) + wedge(a, interior_product(x, b)).scale(sign)
    assert lhs == rhs


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_lie_derivative_commutes_with_d(seed):
    rng = random.Random(seed)
    c = Chart(3)
    x = random_vector_field(c, rng)
    a = random_mixed_form(c, rng)
    assert lie_derivative(x, exterior_derivative(a)) == exterior_derivative(lie_derivative(x, a))


def test_vf_bracket_jacobi_sample():
    c = Chart(3)
    rng = random.Random(5)
    x = random_vector_field(c, rng, max_degree=2)
    y = random_vector_field(c, rng, max_degree=2)
    z = random_vector_field(c, rng, max_degree=2)
    jac = (vf_bracket(x, vf_bracket(y, z)) + vf_bracket(y, vf_bracket(z, x))
           + vf_bracket(z, vf_bracket(x, y)))
    assert jac.is_zero


def test_degree_bookkeeping():
    c = Chart(3)
    with pytest.raises(ValueError):
        MixedForm(c, {(1, 1): 1})
    with pytest.raises(ValueError):
        MixedForm(c, {(2, 1): 1})
    with pytest.raises(ValueError):
        MixedForm(c, {(3,): 1})


@pytest.mark.parametrize("idx", [(1.7,), (True,), ("1",), (0, 1.0)],
                         ids=["float", "bool", "string", "float-second"])
def test_form_indices_that_are_not_ints_are_rejected(idx):
    # int() stored (1.7,) and (True,) as the index (1,)
    with pytest.raises(ValueError, match=r"index tuple \(.*\) is not integers in 0\.\.2"):
        MixedForm(Chart(3), {idx: 1})


def test_vector_field_needs_one_component_per_coordinate():
    c = Chart(3)
    with pytest.raises(ValueError, match="component count must equal chart.dim"):
        VectorField(c, [Polynomial.zero(c)] * 2)


# -- single-dict accumulation against term-by-term sums ---------------------------------


def reference_d(a):
    out = MixedForm.zero(a.chart)
    for idx, p in a.terms.items():
        for i in range(a.chart.dim):
            dp = p.differentiate(i)
            merged = merge_indices((i,), idx)
            if dp.is_zero or merged is None:
                continue
            midx, sign = merged
            out = out + MixedForm(a.chart, {midx: dp if sign > 0 else -dp})
    return out


def reference_interior(x, a):
    out = MixedForm.zero(a.chart)
    for idx, p in a.terms.items():
        for pos, i in enumerate(idx):
            coeff = x.components[i] * p
            if pos % 2:
                coeff = -coeff
            out = out + MixedForm(a.chart, {idx[:pos] + idx[pos + 1:]: coeff})
    return out


def assert_clean(a):
    for idx, p in a.terms.items():
        assert list(idx) == sorted(set(idx)) and not p.is_zero


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 5))
def test_d_and_interior_match_term_by_term_sums(seed, dim):
    rng = random.Random(seed)
    c = Chart(dim)
    a = random_mixed_form(c, rng, max_terms=3)
    x = random_vector_field(c, rng)
    if rng.random() < 0.3:                       # some zero components
        x = VectorField(c, [p if rng.random() < 0.5 else Polynomial.zero(c) for p in x.components])
    da, ia = exterior_derivative(a), interior_product(x, a)
    assert da == reference_d(a) and ia == reference_interior(x, a)
    assert_clean(da)
    assert_clean(ia)
    assert exterior_derivative(da).is_zero
    for f in (Polynomial.zero(c), 0, -1, "3/2", Polynomial.coordinate(c, 0) + 1):
        scaled = a.scale(f)
        assert scaled == MixedForm(c, {i: p * f for i, p in a.terms.items()})
        assert_clean(scaled)
