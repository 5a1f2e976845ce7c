import random
from fractions import Fraction

import numpy as np
import pytest

from gengeo.algebra import Chart
from gengeo.forms import random_mixed_form
from gengeo.generalized import clifford_act, gv_inner, random_section
from gengeo.spin55 import p_bilinear, q_vector
from gengeo.tables import form_tables, q_tables, section_inner

PT = [Fraction(1, 2), Fraction(-1, 3), 0, 1, Fraction(2, 5)]


def form_to_vec(tables, m, parity, pt):
    basis = tables.even_idx if parity == 0 else tables.odd_idx
    v = np.zeros((len(basis), 1))
    for idx, p in m.terms.items():
        v[tables.pos[idx][1], 0] = float(p.evaluate(pt))
    return v


def sec_to_vec(s, pt):
    n = s.chart.dim
    v = np.zeros((2 * n, 1))
    for i in range(n):
        v[i, 0] = float(s.vector.components[i].evaluate(pt))
        v[n + i, 0] = float(s.oneform_component(i).evaluate(pt))
    return v


def test_basis_sizes():
    ft5 = form_tables(5)
    assert ft5.n_even == 16 and ft5.n_odd == 16
    ft6 = form_tables(6)
    assert ft6.n_even == 32 and ft6.n_odd == 32


@pytest.mark.parametrize("dim", [5, 6])
def test_clifford_tables_match_symbolic(dim):
    tables = form_tables(dim)
    c = Chart(dim)
    rng = random.Random(dim)
    pt = [Fraction(k, 3) for k in range(dim)]
    for parity, degrees in ((0, (0, 2, 4)), (1, (1, 3, 5))):
        phi = random_mixed_form(c, rng, degrees=degrees)
        u = random_section(c, rng)
        numeric = tables.clifford_apply(sec_to_vec(u, pt), form_to_vec(tables, phi, parity, pt),
                                        parity)
        symbolic = form_to_vec(tables, clifford_act(u, phi), 1 - parity, pt)
        assert np.allclose(numeric, symbolic)


def test_q_and_p_tables_match_symbolic():
    qt = q_tables()
    tables = qt.forms
    c = Chart(5)
    rng = random.Random(23)
    for _ in range(3):
        phi = random_mixed_form(c, rng, degrees=(0, 2, 4))
        psi = random_mixed_form(c, rng, degrees=(0, 2, 4))
        assert np.allclose(qt.q_apply(form_to_vec(tables, phi, 0, PT)),
                           sec_to_vec(q_vector(phi), PT))
        assert np.allclose(qt.p_apply(form_to_vec(tables, phi, 0, PT),
                                      form_to_vec(tables, psi, 0, PT)),
                           sec_to_vec(p_bilinear(phi, psi), PT))


def test_section_inner_matches_symbolic():
    c = Chart(5)
    rng = random.Random(29)
    u = random_section(c, rng)
    v = random_section(c, rng)
    numeric = section_inner(sec_to_vec(u, PT), sec_to_vec(v, PT))
    assert np.allclose(numeric, float(gv_inner(u, v).evaluate(PT)))
