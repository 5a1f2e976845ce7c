"""Sections of T+T*: inner product, Clifford action, B-fields, Courant bracket.

A section u = X + xi acts on forms by u.a = i_X a + xi ^ a and carries the
split-signature inner product (X+xi, X+xi) = i_X xi.  The Courant bracket
is implemented by its explicit formula and its defining spinorial identity
is exposed as a residual that must vanish identically.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from .algebra import Chart, Polynomial, Rational, random_polynomial
from .forms import (MixedForm, VectorField, exterior_derivative, interior_product,
                    lie_derivative, random_vector_field, vf_bracket, wedge)


class GenSection:
    """Section of T+T*: vector field plus a pure degree-1 form."""

    __slots__ = ("chart", "vector", "oneform")

    def __init__(self, vector: VectorField, oneform: MixedForm):
        vector.chart.require_same(oneform.chart)
        if not oneform.is_homogeneous(1):
            raise ValueError("oneform part must be pure degree 1")
        self.chart = vector.chart
        self.vector = vector
        self.oneform = oneform

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(chart: Chart) -> "GenSection":
        return GenSection(VectorField.zero(chart), MixedForm.zero(chart))

    @staticmethod
    def from_vector(x: VectorField) -> "GenSection":
        return GenSection(x, MixedForm.zero(x.chart))

    @staticmethod
    def from_oneform(xi: MixedForm) -> "GenSection":
        return GenSection(VectorField.zero(xi.chart), xi)

    @staticmethod
    def basis(chart: Chart, slot: int) -> "GenSection":
        """Basis sections: slots 0..n-1 are d/dx_{i+1}, slots n..2n-1 are dx_{i-n+1}."""
        n = chart.dim
        if 0 <= slot < n:
            return GenSection.from_vector(VectorField.coordinate(chart, slot))
        if n <= slot < 2 * n:
            return GenSection.from_oneform(MixedForm.basis(chart, (slot - n,)))
        raise IndexError(f"basis slot {slot} out of range for dim {n}")

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.vector.is_zero and self.oneform.is_zero

    def oneform_component(self, i: int) -> Polynomial:
        return self.oneform.coefficient((i,))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GenSection):
            return NotImplemented
        return self.vector == other.vector and self.oneform == other.oneform

    def __add__(self, other: "GenSection") -> "GenSection":
        return GenSection(self.vector + other.vector, self.oneform + other.oneform)

    def __sub__(self, other: "GenSection") -> "GenSection":
        return GenSection(self.vector - other.vector, self.oneform - other.oneform)

    def __neg__(self) -> "GenSection":
        return GenSection(-self.vector, -self.oneform)

    def scale(self, f: Polynomial | Rational) -> "GenSection":
        return GenSection(self.vector.scale(f), self.oneform.scale(f))


def basis_sections(chart: Chart) -> list[GenSection]:
    return [GenSection.basis(chart, k) for k in range(2 * chart.dim)]


# -- operations -------------------------------------------------------------


def gv_inner(u: GenSection, v: GenSection) -> Polynomial:
    """Polarized inner product (u,v) = (i_{X_u} xi_v + i_{X_v} xi_u)/2.

    Components with a zero factor are skipped.
    """
    u.chart.require_same(v.chart)
    acc = Polynomial.zero(u.chart)
    for i in range(u.chart.dim):
        for x, xi in ((u.vector.components[i], v.oneform.terms.get((i,))),
                      (v.vector.components[i], u.oneform.terms.get((i,)))):
            if xi is not None and not x.is_zero:
                acc = acc + x * xi
    return acc * Fraction(1, 2)


def clifford_act(u: GenSection, a: MixedForm) -> MixedForm:
    """(X + xi) . a = i_X a + xi ^ a."""
    u.chart.require_same(a.chart)
    return interior_product(u.vector, a) + wedge(u.oneform, a)


def pi_derivative(u: GenSection, f: Polynomial) -> Polynomial:
    """pi(u) f: derivative of f along the vector part of u."""
    return u.vector.apply_to(f)


def d_scalar(f: Polynomial) -> MixedForm:
    """df as a pure degree-1 MixedForm."""
    return exterior_derivative(MixedForm.function(f.chart, f))


def bfield_on_section(b: MixedForm, u: GenSection) -> GenSection:
    """X + xi -> X + xi + i_X B for a pure 2-form B."""
    if not b.is_homogeneous(2):
        raise ValueError("B-field must be a pure 2-form")
    b.chart.require_same(u.chart)
    return GenSection(u.vector, u.oneform + interior_product(u.vector, b))


def bfield_on_form(b: MixedForm, a: MixedForm) -> MixedForm:
    """Spinor lift a -> e^B ^ a (finite exponential series)."""
    if not b.is_homogeneous(2):
        raise ValueError("B-field must be a pure 2-form")
    b.chart.require_same(a.chart)
    out = a
    power = a
    k = 1
    while True:
        power = wedge(b, power)
        if power.is_zero:
            return out
        out = out + power.scale(Fraction(1, math.factorial(k)))
        k += 1


def courant_bracket(u: GenSection, v: GenSection) -> GenSection:
    """[X+xi, Y+eta] = [X,Y] + L_X eta - L_Y xi - d(i_X eta - i_Y xi)/2."""
    u.chart.require_same(v.chart)
    x, xi = u.vector, u.oneform
    y, eta = v.vector, v.oneform
    vec = vf_bracket(x, y)
    form = lie_derivative(x, eta) - lie_derivative(y, xi)
    pairing = interior_product(x, eta) - interior_product(y, xi)
    form = form - exterior_derivative(pairing).scale(Fraction(1, 2))
    return GenSection(vec, form)


def courant_spinor_residual(u: GenSection, v: GenSection,
                            forms: Iterable[MixedForm]) -> list[MixedForm]:
    """LHS - RHS of the bracket's defining action on spinors, one per form a.

    2[u,v].a = d((uv - vu).a) + 2u.d(v.a) - 2v.d(u.a) + (uv - vu).da,
    with [u,v] from courant_bracket (evaluated once for all forms);
    every residual is identically zero.
    """
    u.chart.require_same(v.chart)
    bracket = courant_bracket(u, v)
    residuals = []
    for a in forms:
        u.chart.require_same(a.chart)
        va, ua = clifford_act(v, a), clifford_act(u, a)
        da = exterior_derivative(a)
        lhs = clifford_act(bracket, a).scale(2)
        rhs = exterior_derivative(clifford_act(u, va) - clifford_act(v, ua))
        rhs = rhs + clifford_act(u, exterior_derivative(va)).scale(2)
        rhs = rhs - clifford_act(v, exterior_derivative(ua)).scale(2)
        rhs = rhs + (clifford_act(u, clifford_act(v, da)) - clifford_act(v, clifford_act(u, da)))
        residuals.append(lhs - rhs)
    return residuals


def random_section(chart: Chart, rng, max_degree: int = 2) -> GenSection:
    vec = random_vector_field(chart, rng, max_degree=max_degree)
    xi = MixedForm(chart, {(i,): random_polynomial(chart, rng, max_degree=max_degree)
                           for i in range(chart.dim)})
    return GenSection(vec, xi)
