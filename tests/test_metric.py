import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gengeo.algebra import Chart, Polynomial
from gengeo.forms import MixedForm, VectorField, interior_product
from gengeo.generalized import GenSection, gv_inner
from gengeo.metric import (GeneralizedMetric, _is_positive_definite, christoffel_classical_at,
                           connection_at, coordinate_deltas, delta, lift, random_metric,
                           torsion_check)


def c3():
    return Chart(3)


def identity_metric(chart):
    n = chart.dim
    zero = Polynomial.zero(chart)
    one = Polynomial.constant(chart, 1)
    return GeneralizedMetric(chart, [[one if i == j else zero for j in range(n)]
                                     for i in range(n)])


def example_metric():
    # g = identity, B = x1 dx2 ^ dx3 on a 3-chart
    c = c3()
    x1 = Polynomial.coordinate(c, 0)
    zero = Polynomial.zero(c)
    one = Polynomial.constant(c, 1)
    g = [[one if i == j else zero for j in range(3)] for i in range(3)]
    b = [[zero] * 3 for _ in range(3)]
    b[1][2] = x1
    b[2][1] = -x1
    return GeneralizedMetric.from_g_and_b(c, g, b)


def test_lift_examples():
    c = c3()
    v = identity_metric(c)
    x = VectorField.coordinate(c, 0)
    assert lift(x, "+", v) == GenSection(x, MixedForm.basis(c, (0,)))
    assert lift(x, "-", v) == GenSection(x, -MixedForm.basis(c, (0,)))


def test_lift_orthogonality_and_induced_metric():
    c = c3()
    rng = random.Random(21)
    v = random_metric(c, rng)
    for i in range(3):
        for j in range(3):
            x = VectorField.coordinate(c, i)
            y = VectorField.coordinate(c, j)
            assert gv_inner(lift(x, "-", v), lift(y, "+", v)).is_zero
            assert gv_inner(lift(x, "+", v), lift(y, "+", v)) == v.g_entry(i, j)


def test_delta_flat_case_and_module_rules():
    c = c3()
    v = identity_metric(c)
    x = VectorField.coordinate(c, 0)
    y = VectorField.coordinate(c, 1)
    assert delta(x, y, v).is_zero

    rng = random.Random(3)
    w = random_metric(c, rng)
    from gengeo.algebra import random_polynomial

    f = random_polynomial(c, rng)
    # Delta_{fX} Y = f Delta_X Y
    assert delta(x.scale(f), y, w) == delta(x, y, w).scale(f)
    # Delta_X (fY) = f Delta_X Y + (Xf) 2gY
    two_g_y = MixedForm(c, {(k,): (w.g_entry(1, k) * 2) for k in range(3)})
    lhs = delta(x, y.scale(f), w)
    rhs = delta(x, y, w).scale(f) + two_g_y.scale(x.apply_to(f))
    assert lhs == rhs


def test_connection_flat_is_zero():
    c = c3()
    v = identity_metric(c)
    gamma = connection_at(v, [0, 0, 0])
    assert all(gamma[l][i][j] == 0 for l in range(3) for i in range(3) for j in range(3))


def test_connection_matches_classical_christoffel():
    c = c3()
    rng = random.Random(17)
    pts = [[Fraction(rng.randint(-1, 1), rng.randint(2, 4)) for _ in range(3)] for _ in range(5)]
    for _ in range(4):
        v = random_metric(c, rng)
        g_only = GeneralizedMetric.from_g_and_b(
            c, [[v.g_entry(i, j) for j in range(3)] for i in range(3)])
        deltas = coordinate_deltas(g_only)
        for pt in pts:
            assert connection_at(g_only, pt, deltas) == christoffel_classical_at(g_only, pt)


def test_levi_civita_expansion_identity():
    # [d/dx_i - g_ik dx_k, d/dx_j + g_jk dx_k] = (g_jk,i + g_ik,j - g_ij,k) dx_k
    c = c3()
    rng = random.Random(29)
    v = random_metric(c, rng)
    g_only = GeneralizedMetric.from_g_and_b(
        c, [[v.g_entry(i, j) for j in range(3)] for i in range(3)])
    deltas = coordinate_deltas(g_only)
    for i in range(3):
        for j in range(3):
            expected = MixedForm(c, {(k,): (g_only.g_entry(j, k).differentiate(i)
                                            + g_only.g_entry(i, k).differentiate(j)
                                            - g_only.g_entry(i, j).differentiate(k))
                                     for k in range(3)})
            assert deltas[i][j] == expected


def test_torsion_example_b_field():
    v = example_metric()
    report = torsion_check(v)
    assert report.all_zero
    # spot check: Delta antisymmetrization reproduces -i_X i_Y dB
    c = v.chart
    deltas = coordinate_deltas(v)
    h = v.h_form()
    assert h == MixedForm.basis(c, (0, 1, 2))
    half = Polynomial.constant(c, "1/2")
    lowered = (deltas[0][1] - deltas[1][0]).scale(half)
    expected = -interior_product(VectorField.coordinate(c, 0),
                                 interior_product(VectorField.coordinate(c, 1), h))
    assert lowered == expected
    assert lowered == MixedForm.basis(c, (2,))


def test_torsion_zero_cases():
    c = c3()
    assert torsion_check(identity_metric(c)).all_zero
    # closed B (H = 0): torsion vanishes
    x1 = Polynomial.coordinate(c, 0)
    zero = Polynomial.zero(c)
    one = Polynomial.constant(c, 1)
    g = [[one if i == j else zero for j in range(3)] for i in range(3)]
    b = [[zero] * 3 for _ in range(3)]
    b[0][1] = x1  # B = x1 dx1 ^ dx2, dB = 0
    b[1][0] = -x1
    v = GeneralizedMetric.from_g_and_b(c, g, b)
    assert v.h_form().is_zero
    report = torsion_check(v)
    assert report.all_zero
    deltas = coordinate_deltas(v)
    for i in range(3):
        for j in range(3):
            assert (deltas[i][j] - deltas[j][i]).is_zero


def test_torsion_random_metrics():
    c = c3()
    rng = random.Random(31)
    for _ in range(3):
        v = random_metric(c, rng)
        report = torsion_check(v, points=[[0, 0, 0]])
        assert report.all_zero


def test_torsion_swapped_roles():
    v = example_metric()
    report = torsion_check(v, swapped=True)
    assert report.all_zero
    assert report.expected_sign == 1


def test_definiteness_warning():
    c = c3()
    zero = Polynomial.zero(c)
    one = Polynomial.constant(c, 1)
    g = [[one if i == j else zero for j in range(3)] for i in range(3)]
    g[2][2] = Polynomial.constant(c, -1)
    v = GeneralizedMetric.from_g_and_b(c, g)
    report = torsion_check(v, points=[[0, 0, 0]])
    assert report.definiteness_warnings
    assert report.all_zero  # identities are signature-agnostic


def test_splitting_tensor_must_be_square():
    c = c3()
    one = Polynomial.constant(c, 1)
    for rows in ([[one] * 3] * 2, [[one] * 3, [one] * 3, [one] * 2]):
        with pytest.raises(ValueError, match="C must be an n x n matrix of polynomials"):
            GeneralizedMetric(c, rows)


def test_singular_g_raises():
    c = c3()
    zero = Polynomial.zero(c)
    v = GeneralizedMetric(c, [[zero] * 3 for _ in range(3)])
    with pytest.raises(ZeroDivisionError):
        connection_at(v, [0, 0, 0])


# -- positive definiteness ------------------------------------------------------


def _leading_minors_positive(g):
    """Reference: every leading principal minor > 0, each a determinant by elimination
    with row swaps (the rule the single swap-free elimination replaced)."""
    def det(m):
        n = len(m)
        m = [row[:] for row in m]
        d = Fraction(1)
        for col in range(n):
            pivot = next((r for r in range(col, n) if m[r][col]), None)
            if pivot is None:
                return Fraction(0)
            if pivot != col:
                m[col], m[pivot] = m[pivot], m[col]
                d = -d
            d *= m[col][col]
            for r in range(col + 1, n):
                factor = m[r][col] / m[col][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
        return d

    return all(det([row[:k] for row in g[:k]]) > 0 for k in range(1, len(g) + 1))


rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def symmetric_matrices(draw):
    """Symmetric rational matrices: B B^T + shift I is definite for rank(B) = n and
    shift >= 0, singular for rank(B) < n and shift = 0, indefinite or singular for
    shift < 0, and an unstructured symmetric matrix covers the rest."""
    n = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["gram", "gram-low-rank", "shifted", "plain"]))
    if kind == "plain":
        entries = {(i, j): draw(rationals) for i in range(n) for j in range(i, n)}
        return [[entries[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]
    rank = n - 1 if kind == "gram-low-rank" else n
    b = [[draw(rationals) for _ in range(rank)] for _ in range(n)]
    shift = draw(rationals) if kind == "shifted" else Fraction(0)
    return [[sum((b[i][k] * b[j][k] for k in range(rank)), Fraction(0)) + (shift if i == j else 0)
             for j in range(n)] for i in range(n)]


@settings(max_examples=300, deadline=None)
@given(symmetric_matrices())
def test_positive_definite_matches_leading_minors(g):
    assert _is_positive_definite(g) == _leading_minors_positive(g)


def test_positive_definite_cases():
    assert _is_positive_definite([[Fraction(2), Fraction(1)], [Fraction(1), Fraction(2)]])
    assert not _is_positive_definite([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(1)]])
    assert not _is_positive_definite([[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]])
    assert not _is_positive_definite([[Fraction(0), Fraction(0)], [Fraction(0), Fraction(1)]])
