"""Grid kernels against the exact kernel they are generated from.

The pointwise spin fields (rho_hat, the signed triple) on constant stable
pairs are compared with spin55's exact RhoHat and VTriple, and the sampled
Courant brackets (5-d and 6-d) at single nodes with the exact
``generalized.courant_bracket`` of the sections' first-order Taylor
polynomials: the bracket at a point depends only on values and first
derivatives there, so these polynomials carry exactly what the grid uses.
"""

import math
import random
from fractions import Fraction

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from gengeo.algebra import Chart, Polynomial
from gengeo.flow import courant_bracket_grid, gradient, rho_hat_grid, signed_triple
from gengeo.forms import MixedForm, VectorField, random_mixed_form
from gengeo.generalized import GenSection, courant_bracket
from gengeo.sixdim import courant_bracket_6d
from gengeo.spin55 import RhoPair, normal_form, quartic_invariant, rho_hat, v_triple
from gengeo.tables import form_tables

# -- spin fields on constant pairs -------------------------------------------------

ORIGIN = (0,) * 5


def constant_pair(seed):
    """The normal form plus a seeded constant even pair."""
    chart = Chart(5)
    rng = random.Random(seed)
    bump = RhoPair(*(random_mixed_form(chart, rng, degrees=(0, 2, 4), max_degree=0, max_terms=3)
                     for _ in range(2)))
    return normal_form(chart) + bump.scale(Fraction(1, 4))


def grid_form(form, nodes=3):
    """Constant even form as a (16, nodes) array."""
    tables = form_tables(5)
    out = np.zeros((tables.n_even, nodes))
    for idx, p in form.terms.items():
        out[tables.pos[idx][1]] = float(p.constant_value())
    return out


def odd_coefficients(coeffs):
    """{index tuple: value} of an odd form as a (16,) vector."""
    tables = form_tables(5)
    out = np.zeros(tables.n_odd)
    for idx, value in coeffs.items():
        out[tables.pos[idx][1]] = value
    return out


def section_values(sec, point):
    """A GenSection at a point as (X^1..X^n, xi_1..xi_n) floats."""
    n = sec.chart.dim
    return np.array([float(sec.vector.components[i].evaluate(point)) for i in range(n)]
                    + [float(sec.oneform_component(i).evaluate(point)) for i in range(n)])


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6))
def test_spin_views_match_exact_rho_hat_and_triple(seed):
    rho = constant_pair(seed)
    assume(quartic_invariant(rho).constant_value() != 0)
    r1, r2 = grid_form(rho.rho1), grid_form(rho.rho2)
    hat = rho_hat_grid(r1, r2, floor=1e-12)
    exact_hat = rho_hat(rho)
    for grid, coeffs in zip((hat.hat1, hat.hat2), exact_hat.coefficients_at(ORIGIN)):
        assert np.allclose(grid, odd_coefficients(coeffs)[:, None], rtol=1e-12, atol=1e-12)

    v1, h, v2, phi, sign = signed_triple(r1, r2, floor=1e-12)
    triple = v_triple(rho)
    assert sign == triple.orbit_sign == exact_hat.orbit_sign
    assert all(np.array_equal(a, b) for a, b in zip(hat.triple, (v1, h, v2)))
    exact_phi = math.sqrt(float(triple.q.constant_value()))
    assert np.allclose(phi, exact_phi, rtol=1e-13)
    for grid, dens in zip((v1, h, v2), (triple.v1_dens, triple.h_dens, triple.v2_dens)):
        expected = sign * section_values(dens, ORIGIN) / exact_phi
        assert np.allclose(grid, expected[:, None], rtol=1e-12, atol=1e-12)


# -- brackets at sampled nodes -------------------------------------------------------

N = 6     # spectral derivatives are exact up to |k| = 2: products of |k| <= 1 modes
NODES = [(0, 0, 0, 0, 0), (1, 4, 2, 5, 3), (5, 2, 3, 0, 4)]


def trig_section(rng, comps, n=N):
    """comps components, each c + a cos(k.x) + b sin(k'.x) with k, k' in {-1, 0, 1}^5."""
    x = np.meshgrid(*(np.arange(n) * (2 * np.pi / n),) * 5, indexing="ij")
    out = np.empty((comps,) + (n,) * 5)
    for c in range(comps):
        k1, k2 = rng.integers(-1, 2, size=(2, 5))
        a0, a1, a2 = rng.normal(size=3)
        out[c] = (a0 + a1 * np.cos(sum(k * xi for k, xi in zip(k1, x)))
                  + a2 * np.sin(sum(k * xi for k, xi in zip(k2, x))))
    return out


def taylor_section(chart, values, derivatives):
    """The section with these values and first derivatives at the chart origin,
    coefficients Fraction(float): derivatives[a][c] = d_a of component c."""
    n = chart.dim
    comps = []
    for c in range(2 * n):
        terms = {(0,) * n: Fraction(float(values[c]))}
        for a in range(n):
            terms[tuple(int(a == b) for b in range(n))] = Fraction(float(derivatives[a][c]))
        comps.append(Polynomial(chart, terms))
    return GenSection(VectorField(chart, comps[:n]),
                      MixedForm(chart, {(i,): comps[n + i] for i in range(n)}))


def exact_bracket_at_origin(u, v, du, dv, node):
    chart = Chart(len(du))
    take = (slice(None),) + node
    br = courant_bracket(taylor_section(chart, u[take], du[(slice(None),) + take]),
                         taylor_section(chart, v[take], dv[(slice(None),) + take]))
    return section_values(br, (0,) * chart.dim)


def test_courant_bracket_grid_matches_exact_bracket_of_taylor_polynomials():
    rng = np.random.default_rng(5)
    u, v = trig_section(rng, 10), trig_section(rng, 10)
    out = courant_bracket_grid(u, v, N)
    du, dv = gradient(u, N, "spectral"), gradient(v, N, "spectral")
    for node in NODES:
        expected = exact_bracket_at_origin(u, v, du, dv, node)
        got = out[(slice(None),) + node]
        assert np.allclose(got, expected, rtol=1e-11, atol=1e-11), node


def test_courant_bracket_6d_matches_exact_bracket_of_taylor_polynomials():
    # slices linear in t: the central difference is exact on them and on the
    # (quadratic) pairing, so the 6-d 1-jet is known exactly
    rng = np.random.default_rng(6)
    dt = 0.1
    u0, u1, v0, v1 = (trig_section(rng, 12) for _ in range(4))
    u_slices = [u0 + (k - 1) * dt * u1 for k in range(3)]
    v_slices = [v0 + (k - 1) * dt * v1 for k in range(3)]
    out = courant_bracket_6d(u_slices, v_slices, N, dt)
    du, dv = (np.concatenate([((s[2] - s[0]) / (2 * dt))[None], gradient(s[1], N, "spectral")])
              for s in (u_slices, v_slices))
    for node in NODES:
        expected = exact_bracket_at_origin(u_slices[1], v_slices[1], du, dv, node)
        got = out[(slice(None),) + node]
        assert np.allclose(got, expected, rtol=1e-11, atol=1e-11), node
