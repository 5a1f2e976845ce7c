"""Exterior algebra of non-homogeneous differential forms.

A MixedForm maps strictly-increasing multi-indices (all degrees 0..n at
once) to polynomial coefficients; forms double as spinors for T+T*, so
this module also carries the degree-sign involution and the Mukai pairing
<a,b> = [a ^ sigma(b)]_n.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Mapping, Sequence

from .algebra import Chart, Polynomial, Rational, random_polynomial

Index = tuple[int, ...]


def merge_indices(left: Index, right: Index) -> tuple[Index, int] | None:
    """Merge two increasing index tuples; None on a repeated index.

    Returns the sorted union and the sign of the permutation that sorts
    the concatenation.
    """
    if not left:
        return right, 1
    if not right:
        return left, 1
    if set(left) & set(right):
        return None
    merged = []
    sign = 1
    i = j = 0
    while i < len(left) and j < len(right):
        if left[i] < right[j]:
            merged.append(left[i])
            i += 1
        else:
            merged.append(right[j])
            j += 1
            if (len(left) - i) % 2:
                sign = -sign
    merged.extend(left[i:])
    merged.extend(right[j:])
    return tuple(merged), sign


class VectorField:
    """Polynomial vector field: components against d/dx_i."""

    __slots__ = ("chart", "components")

    def __init__(self, chart: Chart, components: Sequence[Polynomial]):
        if len(components) != chart.dim:
            raise ValueError("component count must equal chart.dim")
        for c in components:
            chart.require_same(c.chart)
        self.chart = chart
        self.components = tuple(components)

    @staticmethod
    def zero(chart: Chart) -> "VectorField":
        return VectorField(chart, [Polynomial.zero(chart)] * chart.dim)

    @staticmethod
    def coordinate(chart: Chart, i: int) -> "VectorField":
        chart.check_index(i)
        comps = [Polynomial.zero(chart)] * chart.dim
        comps[i] = Polynomial.constant(chart, 1)
        return VectorField(chart, comps)

    @staticmethod
    def from_components(chart: Chart, values: Mapping[int, Polynomial | Rational]) -> "VectorField":
        comps = [Polynomial.zero(chart)] * chart.dim
        for i, v in values.items():
            comps[i] = v if isinstance(v, Polynomial) else Polynomial.constant(chart, v)
        return VectorField(chart, comps)

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.components)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorField):
            return NotImplemented
        return self.chart == other.chart and self.components == other.components

    def __add__(self, other: "VectorField") -> "VectorField":
        self.chart.require_same(other.chart)
        return VectorField(self.chart, [a + b for a, b in zip(self.components, other.components)])

    def __sub__(self, other: "VectorField") -> "VectorField":
        self.chart.require_same(other.chart)
        return VectorField(self.chart, [a - b for a, b in zip(self.components, other.components)])

    def __neg__(self) -> "VectorField":
        return VectorField(self.chart, [-a for a in self.components])

    def scale(self, f: Polynomial | Rational) -> "VectorField":
        f = f if isinstance(f, Polynomial) else Polynomial.constant(self.chart, f)
        return VectorField(self.chart, [f * a for a in self.components])

    def apply_to(self, f: Polynomial) -> Polynomial:
        """Derivation X(f) = sum_i X^i df/dx_i."""
        self.chart.require_same(f.chart)
        out = Polynomial.zero(self.chart)
        for i, c in enumerate(self.components):
            if not c.is_zero:
                out = out + c * f.differentiate(i)
        return out


def _accumulate(out: dict[Index, Polynomial], idx: Index, p: Polynomial) -> None:
    """out[idx] += p, dropping the entry when the sum vanishes."""
    acc = out.get(idx)
    s = p if acc is None else acc + p
    if s.is_zero:
        out.pop(idx, None)
    else:
        out[idx] = s


def _form(chart: Chart, terms: dict[Index, Polynomial]) -> MixedForm:
    m = MixedForm.__new__(MixedForm)
    m.chart, m.terms = chart, terms
    return m


class MixedForm:
    """Non-homogeneous form: {increasing index tuple -> Polynomial}."""

    __slots__ = ("chart", "terms")

    def __init__(self, chart: Chart, terms: Mapping[Index, Polynomial | Rational] | None = None):
        self.chart = chart
        clean: dict[Index, Polynomial] = {}
        if terms:
            for idx, coeff in terms.items():
                idx = tuple(idx)
                if any(type(i) is not int or not 0 <= i < chart.dim for i in idx):
                    raise ValueError(f"index tuple {idx} is not integers in 0..{chart.dim - 1}")
                if any(a >= b for a, b in zip(idx, idx[1:])):
                    raise ValueError(f"index tuple {idx} is not strictly increasing")
                p = coeff if isinstance(coeff, Polynomial) else Polynomial.constant(chart, coeff)
                chart.require_same(p.chart)
                if not p.is_zero:
                    _accumulate(clean, idx, p)
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(chart: Chart) -> "MixedForm":
        return MixedForm(chart)

    @staticmethod
    def function(chart: Chart, f: Polynomial | Rational) -> "MixedForm":
        return MixedForm(chart, {(): f})

    @staticmethod
    def basis(chart: Chart, indices: Sequence[int], coeff: Polynomial | Rational = 1) -> "MixedForm":
        """coeff * dx_{i1} ^ ... ^ dx_{ik} for 0-based increasing indices."""
        return MixedForm(chart, {tuple(indices): coeff})

    @staticmethod
    def volume(chart: Chart, coeff: Polynomial | Rational = 1) -> "MixedForm":
        return MixedForm(chart, {tuple(range(chart.dim)): coeff})

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degrees(self) -> set[int]:
        return {len(idx) for idx in self.terms}

    def degree_part(self, k: int) -> "MixedForm":
        return MixedForm(self.chart, {i: p for i, p in self.terms.items() if len(i) == k})

    def is_homogeneous(self, k: int) -> bool:
        return all(len(i) == k for i in self.terms)

    def coefficient(self, indices: Sequence[int]) -> Polynomial:
        return self.terms.get(tuple(indices), Polynomial.zero(self.chart))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MixedForm):
            return NotImplemented
        return self.chart == other.chart and self.terms == other.terms

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "MixedForm") -> "MixedForm":
        self.chart.require_same(other.chart)
        out = dict(self.terms)
        for idx, p in other.terms.items():
            _accumulate(out, idx, p)
        return _form(self.chart, out)

    def __neg__(self) -> "MixedForm":
        return _form(self.chart, {i: -p for i, p in self.terms.items()})

    def __sub__(self, other: "MixedForm") -> "MixedForm":
        return self + (-other)

    def scale(self, f: Polynomial | Rational) -> "MixedForm":
        f = f if isinstance(f, Polynomial) else Polynomial.constant(self.chart, f)
        if f.is_zero:
            return MixedForm(self.chart)
        # a product of nonzero polynomials is nonzero: no term needs the checks of __init__
        return _form(self.chart, {i: f * p for i, p in self.terms.items()})


# -- operations -------------------------------------------------------------


def wedge(a: MixedForm, b: MixedForm) -> MixedForm:
    """Graded exterior product a ^ b."""
    a.chart.require_same(b.chart)
    out: dict[Index, Polynomial] = {}
    for ia, pa in a.terms.items():
        for ib, pb in b.terms.items():
            merged = merge_indices(ia, ib)      # (index, sign), or None on a repeat
            if merged is not None:
                _accumulate(out, merged[0], pa * pb if merged[1] > 0 else -(pa * pb))
    return _form(a.chart, out)


def exterior_derivative(a: MixedForm) -> MixedForm:
    """d: raises each degree by one; d(d(a)) = 0."""
    out: dict[Index, Polynomial] = {}
    for idx, p in a.terms.items():
        for i in range(a.chart.dim):
            if i in idx:
                continue
            dp = p.differentiate(i)
            if not dp.is_zero:
                midx, sign = merge_indices((i,), idx)
                _accumulate(out, midx, dp if sign > 0 else -dp)
    return _form(a.chart, out)


def interior_product(x: VectorField, a: MixedForm) -> MixedForm:
    """i_X: antiderivation of degree -1."""
    x.chart.require_same(a.chart)
    out: dict[Index, Polynomial] = {}
    for idx, p in a.terms.items():
        for pos, i in enumerate(idx):
            comp = x.components[i]
            if not comp.is_zero:
                coeff = comp * p
                _accumulate(out, idx[:pos] + idx[pos + 1:], -coeff if pos % 2 else coeff)
    return _form(a.chart, out)


def lie_derivative(x: VectorField, a: MixedForm) -> MixedForm:
    """Cartan formula: L_X = d i_X + i_X d."""
    return exterior_derivative(interior_product(x, a)) + interior_product(x, exterior_derivative(a))


def sigma_involution(a: MixedForm) -> MixedForm:
    """Degree-sign involution: (-1)^m on degrees 2m and 2m+1."""
    out: dict[Index, Polynomial] = {}
    for idx, p in a.terms.items():
        out[idx] = -p if (len(idx) // 2) % 2 else p
    return MixedForm(a.chart, out)


def mukai_pairing(a: MixedForm, b: MixedForm) -> Polynomial:
    """<a,b> = top-degree coefficient of a ^ sigma(b): each term of a meets only
    the term of b on the complementary index set."""
    a.chart.require_same(b.chart)
    top = range(a.chart.dim)
    out = Polynomial.zero(a.chart)
    for ia, pa in a.terms.items():
        ib = tuple(i for i in top if i not in ia)
        pb = b.terms.get(ib)
        if pb is not None:
            sign = merge_indices(ia, ib)[1] * (-1 if (len(ib) // 2) % 2 else 1)
            out = out + pa * pb if sign > 0 else out - pa * pb
    return out


def vf_bracket(x: VectorField, y: VectorField) -> VectorField:
    """Lie bracket of vector fields [X,Y]: [X,Y]^i = X^j d_j Y^i - Y^j d_j X^i.

    A product is formed only when both factors are nonzero; adding a zero
    polynomial returns the other operand, so the skipped terms change nothing.
    """
    x.chart.require_same(y.chart)
    comps = []
    for xi, yi in zip(x.components, y.components):
        acc = Polynomial.zero(x.chart)
        for j, (xj, yj) in enumerate(zip(x.components, y.components)):
            if not (xj.is_zero or yi.is_zero):
                dyi = yi.differentiate(j)
                if not dyi.is_zero:
                    acc = acc + xj * dyi
            if not (yj.is_zero or xi.is_zero):
                dxi = xi.differentiate(j)
                if not dxi.is_zero:
                    acc = acc - yj * dxi
        comps.append(acc)
    return VectorField(x.chart, comps)


def random_mixed_form(chart: Chart, rng, degrees: Iterable[int] | None = None,
                      max_degree: int = 2, max_terms: int = 2) -> MixedForm:
    """Seeded random form with small polynomial coefficients."""
    if degrees is None:
        degrees = range(chart.dim + 1)
    terms: dict[Index, Polynomial] = {}
    for k in degrees:
        all_idx = list(combinations(range(chart.dim), k))
        rng.shuffle(all_idx)
        for idx in all_idx[: rng.randint(0, min(max_terms, len(all_idx)))]:
            terms[idx] = random_polynomial(chart, rng, max_degree=max_degree)
    return MixedForm(chart, terms)


def random_vector_field(chart: Chart, rng, max_degree: int = 2) -> VectorField:
    return VectorField(chart, [random_polynomial(chart, rng, max_degree=max_degree)
                               for _ in range(chart.dim)])
