"""The table kernels against the fill-and-add loops they replace.

The references below are the loop bodies the kernels had before first-term
writes, +-4/+-1 folding and sign folding: zero the output, then add or
subtract one term buffer per entry.  The fields carry exact zeros, -0 and
whole zero nodes.

``grid_d`` (any parity, method and sign) and ``p_apply`` must equal their
references bit for bit, sign bits of zeros included.  ``clifford_apply``,
``q_apply`` and ``section_inner`` write their first term straight into the
output instead of adding it to +0, so an output that is exactly zero can be
-0 where the loop gave +0; every other bit must agree.  Nothing reads the
sign of a zero there: their outputs only feed products, sums and the GEMMs
of ``grid_d``, which accumulate from +0.
"""

import numpy as np
import pytest

from gengeo.flow import DIM, _axis_derivative, derivative_matrix, grid_d
from gengeo.tables import form_tables, q_tables, section_inner


def field(rng, k, n):
    x = rng.normal(size=(k,) + (n,) * DIM)
    u = rng.random(x.shape)
    x[u < 0.15] = 0.0
    x[u > 0.85] = -0.0
    x[:, 0, 0] = 0.0            # zero nodes, both signs
    x[:, 1, 0] = -0.0
    return x


def assert_bitwise(got, want):
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def assert_bitwise_but_zero_signs(got, want):
    assert np.array_equal(got, want)
    assert not np.signbit(want[want == 0]).any()
    assert np.array_equal(np.signbit(got + 0.0), np.signbit(want))


# -- the fill-and-add loops ------------------------------------------------------


def reference_accumulate(entries, form, n_out, fill):
    out = np.zeros((n_out,) + form.shape[1:])
    term = np.empty(form.shape[1:])
    for key, src, dst, sign in entries:
        fill(form[src], key, term)
        if sign == 1:
            out[dst] += term
        else:
            out[dst] -= term
    return out


def reference_clifford(section, form, parity):
    ft = form_tables(DIM)
    return reference_accumulate(ft.clifford[parity], form, 16,
                                lambda comp, slot, t: np.multiply(section[slot], comp, out=t))


def reference_grid_d(fields, parity, n, method):
    dmat = derivative_matrix(n, method)
    return reference_accumulate(form_tables(DIM).ext[parity], fields, 16,
                                lambda comp, i, t: _axis_derivative(comp, comp.ndim - DIM + i,
                                                                    dmat, t))


def reference_q(phi):
    out = np.zeros((10,) + phi.shape[1:])
    term = np.empty(phi.shape[1:])
    for slot, pairs in enumerate(q_tables().q_pairs):
        acc = out[slot]
        for a, b, coeff in pairs:
            np.multiply(phi[a], coeff, out=term)
            term *= phi[b]
            acc += term
    return out


def reference_p(phi, psi):
    out = np.zeros((10,) + phi.shape[1:])
    for slot, entries in enumerate(q_tables().q_entries):
        acc = out[slot]
        for a, b, coeff in entries:
            acc += (coeff * 0.5) * (phi[a] * psi[b] + psi[a] * phi[b])
    return out


def reference_inner(u, v, dim):
    out = np.zeros(u.shape[1:])
    term = np.empty((2,) + u.shape[1:])
    for i in range(dim):
        np.multiply(u[i], v[dim + i], out=term[0])
        np.multiply(v[i], u[dim + i], out=term[1])
        term[0] += term[1]
        out += term[0]
    out *= 0.5
    return out


# -- comparisons -----------------------------------------------------------------


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("method", ["spectral", "fd4"])
@pytest.mark.parametrize("parity", [0, 1])
@pytest.mark.parametrize("sign", [1, -1])
def test_grid_d_equals_the_loop_on_the_signed_fields(n, method, parity, sign):
    fields = field(np.random.default_rng(n + 2 * parity), 16, n)
    want = reference_grid_d(fields * sign, parity, n, method)
    assert_bitwise(grid_d(fields, parity, n, method, sign=sign), want)
    out, term = np.full_like(want, np.nan), np.full_like(want[0], np.nan)
    assert_bitwise(grid_d(fields, parity, n, method, out, term, sign), want)


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("parity", [0, 1])
def test_clifford_apply_equals_the_loop(n, parity):
    rng = np.random.default_rng(10 * n + parity)
    section, form = field(rng, 10, n), field(rng, 16, n)
    want = reference_clifford(section, form, parity)
    got = form_tables(DIM).clifford_apply(section, form, parity)
    assert_bitwise_but_zero_signs(got, want)
    # one output component at a time: the same bits as the full action, zero signs included
    for dst, comp in enumerate(got):
        one = np.full_like(comp, np.nan)
        form_tables(DIM).clifford_apply(section, form, parity, (one,), None,
                                        form_tables(DIM).clifford_by_dst[parity][dst])
        assert np.array_equal(one, comp) and np.array_equal(np.signbit(one), np.signbit(comp))


@pytest.mark.parametrize("n", [4, 5])
def test_q_apply_equals_the_loop(n):
    phi = field(np.random.default_rng(20 + n), 16, n)
    want = reference_q(phi)
    assert_bitwise_but_zero_signs(q_tables().q_apply(phi), want)
    out, term = np.full_like(want, np.nan), np.full_like(want[0], np.nan)
    assert_bitwise_but_zero_signs(q_tables().q_apply(phi, out, term), want)


@pytest.mark.parametrize("n", [4, 5])
def test_p_apply_equals_the_loop(n):
    rng = np.random.default_rng(30 + n)
    phi, psi = field(rng, 16, n), field(rng, 16, n)
    assert_bitwise(q_tables().p_apply(phi, psi), reference_p(phi, psi))


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("dim", [5, 6])
def test_section_inner_equals_the_loop(n, dim):
    rng = np.random.default_rng(40 + n + dim)
    u, v = field(rng, 2 * dim, n), field(rng, 2 * dim, n)
    want = reference_inner(u, v, dim)
    assert_bitwise_but_zero_signs(section_inner(u, v, dim), want)
    # (u, u) with a zero node: every term there is a zero product
    assert_bitwise_but_zero_signs(section_inner(u, u, dim), reference_inner(u, u, dim))


def test_folded_coefficients_are_powers_of_two():
    # q_apply scales each slot by its first +-4 once and p_apply applies the
    # halves +-1 of q_entries as additions; both are exact only for these values
    qt = q_tables()
    assert {c for pairs in qt.q_pairs for _, _, c in pairs} == {4, -4}
    assert {c for entries in qt.q_entries for _, _, c in entries} == {2, -2}
