import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from gengeo import generalized
from gengeo.algebra import Chart, Polynomial, random_polynomial
from gengeo.forms import (MixedForm, VectorField, exterior_derivative, interior_product,
                          random_mixed_form)
from gengeo.generalized import (GenSection, basis_sections, bfield_on_form,
                                bfield_on_section, clifford_act, courant_bracket,
                                courant_spinor_residual, d_scalar, gv_inner,
                                pi_derivative, random_section)


def c5():
    return Chart(5)


def dx(chart, *idx):
    return MixedForm.basis(chart, [i - 1 for i in idx])


def section(chart, vec=None, form_idx=None, coeff=1):
    v = VectorField.zero(chart) if vec is None else vec
    f = MixedForm.zero(chart) if form_idx is None else MixedForm.basis(chart, form_idx, coeff)
    return GenSection(v, f)


def test_gv_inner_examples():
    c = c5()
    u = GenSection(VectorField.coordinate(c, 0), dx(c, 1))
    assert gv_inner(u, u) == Polynomial.constant(c, 1)
    v1 = GenSection.from_vector(VectorField.coordinate(c, 0))
    v2 = GenSection.from_oneform(dx(c, 2))
    assert gv_inner(v1, v2).is_zero
    v3 = GenSection.from_oneform(dx(c, 1))
    assert gv_inner(v1, v3) == Polynomial.constant(c, "1/2")


def test_gv_inner_is_quadratic_form_polarization():
    c = Chart(4)
    rng = random.Random(2)
    u = random_section(c, rng)
    ix_xi = interior_product(u.vector, u.oneform).coefficient(())
    assert gv_inner(u, u) == ix_xi


def test_clifford_action_examples():
    c = c5()
    u = GenSection(VectorField.coordinate(c, 0), dx(c, 1))
    rng = random.Random(7)
    a = random_mixed_form(c, rng)
    assert clifford_act(u, clifford_act(u, a)) == a.scale(gv_inner(u, u))
    d1 = GenSection.from_vector(VectorField.coordinate(c, 0))
    assert clifford_act(d1, dx(c, 1, 2)) == dx(c, 2)
    e1 = GenSection.from_oneform(dx(c, 1))
    assert clifford_act(e1, dx(c, 2)) == dx(c, 1, 2)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 5))
def test_clifford_relation_random(seed, dim):
    rng = random.Random(seed)
    c = Chart(dim)
    u = random_section(c, rng)
    a = random_mixed_form(c, rng)
    assert clifford_act(u, clifford_act(u, a)) == a.scale(gv_inner(u, u))


def test_bfield_on_section_examples():
    c = c5()
    b = dx(c, 1, 2)
    d1 = GenSection.from_vector(VectorField.coordinate(c, 0))
    out = bfield_on_section(b, d1)
    assert out.vector == d1.vector
    assert out.oneform == dx(c, 2)
    e1 = GenSection.from_oneform(dx(c, 1))
    assert bfield_on_section(b, e1) == e1

    x3 = Polynomial.coordinate(c, 2)
    b2 = MixedForm.basis(c, (0, 1), x3)
    d2 = GenSection.from_vector(VectorField.coordinate(c, 1))
    out2 = bfield_on_section(b2, d2)
    assert out2.oneform == MixedForm.basis(c, (0,), -x3)


def test_bfield_requires_two_form():
    c = c5()
    with pytest.raises(ValueError):
        bfield_on_section(dx(c, 1), GenSection.zero(c))
    with pytest.raises(ValueError):
        bfield_on_form(dx(c, 1, 2) + dx(c, 3), MixedForm.function(c, 1))


def test_bfield_on_form_examples():
    c = c5()
    one = MixedForm.function(c, 1)
    assert bfield_on_form(dx(c, 1, 2), one) == one + dx(c, 1, 2)
    assert bfield_on_form(MixedForm.zero(c).degree_part(2), one) == one
    b = dx(c, 1, 2) + dx(c, 3, 4)
    assert bfield_on_form(b, one) == one + dx(c, 1, 2) + dx(c, 3, 4) + dx(c, 1, 2, 3, 4)


def test_mukai_is_bfield_invariant():
    from gengeo.forms import mukai_pairing

    c = c5()
    rng = random.Random(9)
    a = random_mixed_form(c, rng)
    b2 = random_mixed_form(c, rng, degrees=(2,))
    bb = random_mixed_form(c, rng, degrees=(2,))
    b2 = b2 if not b2.is_zero else dx(c, 1, 2)
    assert mukai_pairing(bfield_on_form(b2, a), bfield_on_form(b2, a)) == mukai_pairing(a, a)
    x = random_mixed_form(c, rng)
    assert mukai_pairing(bfield_on_form(bb, a), bfield_on_form(bb, x)) == mukai_pairing(a, x)


def test_courant_bracket_examples():
    c = c5()
    x1 = Polynomial.coordinate(c, 0)
    x3 = Polynomial.coordinate(c, 2)
    # one-forms Courant-commute
    u = GenSection.from_oneform(dx(c, 1))
    v = GenSection.from_oneform(MixedForm.basis(c, (1,), x3))
    assert courant_bracket(u, v).is_zero
    # [d/dx1, x1 dx2] = dx2
    u = GenSection.from_vector(VectorField.coordinate(c, 0))
    v = GenSection.from_oneform(MixedForm.basis(c, (1,), x1))
    assert courant_bracket(u, v) == GenSection.from_oneform(dx(c, 2))
    # constant-coefficient sections commute
    u = GenSection(VectorField.coordinate(c, 4), dx(c, 1))
    v = GenSection(VectorField.coordinate(c, 1), dx(c, 2))
    assert courant_bracket(u, v).is_zero


def test_courant_bracket_antisymmetric():
    c = Chart(4)
    rng = random.Random(13)
    u = random_section(c, rng)
    v = random_section(c, rng)
    assert courant_bracket(u, v) == -courant_bracket(v, u)
    assert courant_bracket(u, u).is_zero


def test_courant_spinor_residual_examples():
    c = c5()
    x1 = Polynomial.coordinate(c, 0)
    u = GenSection.from_vector(VectorField.coordinate(c, 0))
    v = GenSection.from_oneform(MixedForm.basis(c, (1,), x1))
    assert courant_spinor_residual(u, v, [MixedForm.function(c, 1)])[0].is_zero
    w = random_section(c, random.Random(4))
    a = random_mixed_form(c, random.Random(5))
    assert courant_spinor_residual(w, w, [a])[0].is_zero


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 4))
def test_courant_spinor_residual_random(seed, dim):
    rng = random.Random(seed)
    c = Chart(dim)
    u = random_section(c, rng, max_degree=2)
    v = random_section(c, rng, max_degree=2)
    a = random_mixed_form(c, rng)
    assert courant_spinor_residual(u, v, [a])[0].is_zero


def single_form_residual(u, v, a):
    """The residual for one form, as computed before the forms were batched."""
    lhs = clifford_act(generalized.courant_bracket(u, v), a).scale(2)

    def commutator(form):
        return clifford_act(u, clifford_act(v, form)) - clifford_act(v, clifford_act(u, form))

    da = exterior_derivative(a)
    rhs = exterior_derivative(commutator(a))
    rhs = rhs + clifford_act(u, exterior_derivative(clifford_act(v, a))).scale(2)
    rhs = rhs - clifford_act(v, exterior_derivative(clifford_act(u, a))).scale(2)
    rhs = rhs + commutator(da)
    return lhs - rhs


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_batched_residuals_match_single_form_residuals(dim, monkeypatch):
    c = Chart(dim)
    rng = random.Random(50 + dim)
    basis = [MixedForm.basis(c, idx) for k in range(dim + 1) for idx in combinations(range(dim), k)]
    cases = []
    for _ in range(2):
        u, v = random_section(c, rng), random_section(c, rng)
        cases.append((u, v, [random_mixed_form(c, rng) for _ in range(2)] + basis))
    for u, v, forms in cases:
        got = courant_spinor_residual(u, v, forms)
        assert got == [single_form_residual(u, v, a) for a in forms]
        assert all(r.is_zero for r in got)
    # with a wrong bracket the residuals are nonzero, and must still agree form by form
    bracket = generalized.courant_bracket
    monkeypatch.setattr(generalized, "courant_bracket", lambda x, y: bracket(x, y).scale(2))
    for u, v, forms in cases:
        got = courant_spinor_residual(u, v, forms)
        assert got == [single_form_residual(u, v, a) for a in forms]
        assert not all(r.is_zero for r in got)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 4))
def test_identity_three(seed, dim):
    # [u, fv] = f[u,v] + (pi(u)f) v - (u,v) df
    rng = random.Random(seed)
    c = Chart(dim)
    u = random_section(c, rng)
    v = random_section(c, rng)
    f = random_polynomial(c, rng)
    lhs = courant_bracket(u, v.scale(f))
    rhs = courant_bracket(u, v).scale(f) + v.scale(pi_derivative(u, f))
    rhs = rhs - GenSection.from_oneform(d_scalar(f)).scale(gv_inner(u, v))
    assert lhs == rhs


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 4))
def test_identity_four(seed, dim):
    # pi(u)(v,w) = ([u,v] + d(u,v), w) + (v, [u,w] + d(u,w))
    rng = random.Random(seed)
    c = Chart(dim)
    u = random_section(c, rng)
    v = random_section(c, rng)
    w = random_section(c, rng)
    lhs = pi_derivative(u, gv_inner(v, w))
    t1 = courant_bracket(u, v) + GenSection.from_oneform(d_scalar(gv_inner(u, v)))
    t2 = courant_bracket(u, w) + GenSection.from_oneform(d_scalar(gv_inner(u, w)))
    rhs = gv_inner(t1, w) + gv_inner(v, t2)
    assert lhs == rhs


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 4))
def test_closed_bfield_preserves_bracket(seed, dim):
    rng = random.Random(seed)
    c = Chart(dim)
    u = random_section(c, rng)
    v = random_section(c, rng)
    alpha = random_mixed_form(c, rng, degrees=(1,))
    b = exterior_derivative(alpha)
    lhs = courant_bracket(bfield_on_section(b, u), bfield_on_section(b, v))
    rhs = bfield_on_section(b, courant_bracket(u, v))
    assert lhs == rhs


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6), st.integers(3, 5))
def test_nonclosed_bfield_defect(seed, dim):
    # bracket defect equals -i_X i_Y dB for arbitrary 2-forms B
    rng = random.Random(seed)
    c = Chart(dim)
    u = random_section(c, rng)
    v = random_section(c, rng)
    b = random_mixed_form(c, rng, degrees=(2,))
    db = exterior_derivative(b)
    lhs = courant_bracket(bfield_on_section(b, u), bfield_on_section(b, v))
    rhs = bfield_on_section(b, courant_bracket(u, v))
    defect = lhs - rhs
    expected = -interior_product(u.vector, interior_product(v.vector, db))
    assert defect.vector.is_zero
    assert defect.oneform == expected


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 4))
def test_bfield_clifford_compatibility(seed, dim):
    # The section transform u -> u + i_X B intertwines the spinor lift e^{-B}:
    # e^B u e^{-B} = u - i_X B in the Clifford algebra.
    rng = random.Random(seed)
    c = Chart(dim)
    u = random_section(c, rng)
    a = random_mixed_form(c, rng)
    b = random_mixed_form(c, rng, degrees=(2,))
    lhs = clifford_act(bfield_on_section(b, u), bfield_on_form(-b, a))
    rhs = bfield_on_form(-b, clifford_act(u, a))
    assert lhs == rhs


def test_bfield_clifford_same_sign_pairing_fails():
    # Counterexample fixing the sign convention: pairing u -> u + i_X B with
    # e^{+B} on spinors does not commute with the Clifford action.
    c = c5()
    b = dx(c, 1, 2)
    u = GenSection.from_vector(VectorField.coordinate(c, 0))
    one = MixedForm.function(c, 1)
    lhs = clifford_act(bfield_on_section(b, u), bfield_on_form(b, one))
    rhs = bfield_on_form(b, clifford_act(u, one))
    assert lhs != rhs
    assert lhs == dx(c, 2).scale(2)
    assert rhs.is_zero


def test_basis_sections_layout():
    c = Chart(3)
    secs = basis_sections(c)
    assert len(secs) == 6
    assert secs[0].vector == VectorField.coordinate(c, 0)
    assert secs[3].oneform == MixedForm.basis(c, (0,))
    for slot in (-1, 6):
        with pytest.raises(IndexError, match=f"basis slot {slot} out of range for dim 3"):
            GenSection.basis(c, slot)


@pytest.mark.parametrize("kind", ["polynomial", "vector field", "form", "section"])
def test_equality_with_another_type_is_not_implemented(kind):
    # no int or Fraction is coerced: a constant polynomial is not equal to its value
    c = Chart(3)
    one = Polynomial.constant(c, 1)
    value = {"polynomial": one, "vector field": VectorField.coordinate(c, 0),
             "form": MixedForm.function(c, 1), "section": basis_sections(c)[0]}[kind]
    assert value.__eq__(1) is NotImplemented
    assert value != 1 and value == value


def test_oneform_purity_enforced():
    c = Chart(3)
    with pytest.raises(ValueError):
        GenSection(VectorField.zero(c), MixedForm.basis(c, (0, 1)))
