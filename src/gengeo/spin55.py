"""The five-dimensional invariant functional and its critical geometry.

Even R^2-valued forms rho = (rho1, rho2) on a 5-chart carry the quartic
f(rho) = (Q(rho1), Q(rho2)), where Q(phi) is the densitized section of
T+T* with (Q(phi), v) = <v.phi, phi>.  Stability is f != 0, the volume
density is |f|^(1/2), and the critical equations d rho = 0 = d rho_hat
produce a Courant-commuting triple of sections.

Exactness: the density phi = |f|^(1/2) is irrational already for the
constant normal form (sqrt 8), so every identity below is cleared of the
square root before being asserted: with q := s*f (s the orbit sign) and a
densitized quantity m with true value m/sqrt(q),

    d(m/sqrt q) = 0        <=>  2q dm = dq ^ m,
    [Q_i/sqrt q, Q_j/sqrt q] = 0
                           <=>  q[Q_i,Q_j] + (pi(Q_j)q) Q_i/2 - (pi(Q_i)q) Q_j/2 = 0,

all rational, so the suites assert them exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .algebra import Chart, Polynomial, Rational
from .forms import (MixedForm, VectorField, exterior_derivative, interior_product,
                    lie_derivative, mukai_pairing, random_mixed_form, vf_bracket, wedge)
from .generalized import (GenSection, bfield_on_form, clifford_act, courant_bracket, d_scalar,
                          gv_inner, pi_derivative)

DIM = 5

# Normalized Gram of the extracted triple (v1, h, v2), constant per orbit:
# (v1,v2) = s and (h,h) = -s/2 for orbit sign s, all other entries zero.
GRAM_V1V2 = Fraction(1)
GRAM_HH = Fraction(-1, 2)

class StabilityError(ValueError):
    """Operation evaluated at an unstable point (f = 0) or off-orbit input."""


class GramError(StabilityError):
    """The triple's normalized Gram is not the orbit's constant matrix."""


class NormalizationError(StabilityError):
    """<rho_hat_1, rho2> = phi or <rho_hat_2, rho1> = -phi fails."""


def _require_dim5(chart: Chart) -> None:
    if chart.dim != DIM:
        raise ValueError(f"this operation needs a 5-dimensional chart, got dim {chart.dim}")


def _require_even(phi: MixedForm, label: str) -> None:
    if any(k % 2 for k in phi.degrees()):
        raise ValueError(f"{label} must be an even form")


@dataclass
class RhoPair:
    """Pair of even forms on a 5-chart; the field rho of the functional."""

    rho1: MixedForm
    rho2: MixedForm

    def __post_init__(self) -> None:
        self.rho1.chart.require_same(self.rho2.chart)
        _require_dim5(self.rho1.chart)
        _require_even(self.rho1, "rho1")
        _require_even(self.rho2, "rho2")

    @property
    def chart(self) -> Chart:
        return self.rho1.chart

    def __add__(self, other: "RhoPair") -> "RhoPair":
        return RhoPair(self.rho1 + other.rho1, self.rho2 + other.rho2)

    def __sub__(self, other: "RhoPair") -> "RhoPair":
        return RhoPair(self.rho1 - other.rho1, self.rho2 - other.rho2)

    def scale(self, t: Polynomial | Rational) -> "RhoPair":
        return RhoPair(self.rho1.scale(t), self.rho2.scale(t))

    def gl2(self, a: Rational, b: Rational, c: Rational, d: Rational) -> "RhoPair":
        """Act by the 2x2 matrix [[a,b],[c,d]] on the R^2 factor."""
        return RhoPair(self.rho1.scale(a) + self.rho2.scale(b),
                       self.rho1.scale(c) + self.rho2.scale(d))

    def bfield(self, b: MixedForm) -> "RhoPair":
        return RhoPair(bfield_on_form(b, self.rho1), bfield_on_form(b, self.rho2))


def normal_form(chart: Chart | None = None) -> RhoPair:
    """The constant-coefficient model pair:

    rho1 = dx1^dx2 + dx3^dx4 + dx1^dx3^dx4^dx5,  rho2 = 1 + dx2^dx3^dx4^dx5.
    """
    c = chart or Chart(DIM)
    _require_dim5(c)
    rho1 = (MixedForm.basis(c, (0, 1)) + MixedForm.basis(c, (2, 3))
            + MixedForm.basis(c, (0, 2, 3, 4)))
    rho2 = MixedForm.function(c, 1) + MixedForm.basis(c, (1, 2, 3, 4))
    return RhoPair(rho1, rho2)


# -- Q and the quartic -------------------------------------------------------


def p_bilinear(phi1: MixedForm, phi2: MixedForm) -> GenSection:
    """Densitized P(phi1, phi2) with (P(phi1,phi2), v) = <v.phi1, phi2>.

    Components are read against the basis: the polarized inner product
    gives X^i = <dx_i.phi1, phi2> + <dx_i.phi2, phi1> and likewise for the
    form part, everything a multiple of the coordinate volume.
    """
    phi1.chart.require_same(phi2.chart)
    c = phi1.chart
    _require_dim5(c)

    def polarized(u: GenSection) -> Polynomial:
        return (mukai_pairing(clifford_act(u, phi1), phi2)
                + mukai_pairing(clifford_act(u, phi2), phi1))

    vec = [polarized(GenSection.from_oneform(MixedForm.basis(c, (i,)))) for i in range(DIM)]
    one = [polarized(GenSection.from_vector(VectorField.coordinate(c, i))) for i in range(DIM)]
    return GenSection(VectorField(c, vec), MixedForm(c, {(i,): p for i, p in enumerate(one)}))


def q_vector(phi: MixedForm) -> GenSection:
    """Densitized Q(phi) = P(phi, phi); a null section: (Q,Q) = 0."""
    _require_even(phi, "phi")
    return p_bilinear(phi, phi)


def quartic_invariant(rho: RhoPair) -> Polynomial:
    """f(rho) = (Q(rho1), Q(rho2)), a squared-density coefficient."""
    return gv_inner(q_vector(rho.rho1), q_vector(rho.rho2))


DEFAULT_PROBE_POINTS: tuple[tuple[int, ...], ...] = (
    (0, 0, 0, 0, 0), (1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (1, 1, 1, 1, 1),
    (1, 2, 3, 4, 5), (-1, 1, -1, 1, -1),
)


@dataclass
class StabilityReport:
    """f at each sample point; stable where f != 0, with sign f as the orbit discriminant."""

    points: list[tuple]
    values: list[Fraction]

    @property
    def all_stable(self) -> bool:
        return all(self.values)

    def sign(self) -> int:
        """The one sign of f over the stable points.

        Raises StabilityError when f vanishes at every point or changes sign
        (the pair crosses the orbit boundary).
        """
        signs = {1 if v > 0 else -1 for v in self.values if v}
        if not signs:
            raise StabilityError("f vanishes at all probe points; pair is not stable")
        if len(signs) > 1:
            raise StabilityError("f changes sign across probe points; no single orbit")
        return signs.pop()

    @property
    def orbit_sign(self) -> int | None:
        try:
            return self.sign()
        except StabilityError:
            return None


def _probe(f: Polynomial, points: Sequence[Sequence[Rational]]) -> StabilityReport:
    pts = [tuple(p) for p in points]
    return StabilityReport(pts, [f.evaluate(p) for p in pts])


def volume_density_poly(rho: RhoPair) -> Polynomial | None:
    """Exact polynomial phi with phi^2 = |f|, when one exists."""
    q, _ = signed_quartic(rho)
    return q.sqrt()


def volume_density_at(rho: RhoPair, point: Sequence[Rational]) -> float:
    """phi = |f|^(1/2) at a point; StabilityError on unstable points."""
    f = quartic_invariant(rho).evaluate(point)
    if f == 0:
        raise StabilityError(f"unstable point {tuple(point)}: f = 0")
    return math.sqrt(abs(float(f)))


# -- the triple ---------------------------------------------------------------


@dataclass
class VTriple:
    """Triple (v1, h, v2) = (Q(rho1), P(rho1,rho2), Q(rho2)) / phi.

    Stored densitized (v1_dens = Q(rho1) etc., all polynomial) together
    with q = phi^2, since phi itself is usually irrational.  The exact
    normalized Gram matrix (entries (Q_i,Q_j)/q, rational constants) is in
    `gram` with basis order (v1, h, v2).
    """

    v1_dens: GenSection
    h_dens: GenSection
    v2_dens: GenSection
    q: Polynomial
    orbit_sign: int
    gram: tuple[tuple[Fraction, ...], ...]


def _constant_ratio(numerator: Polynomial, q: Polynomial) -> Fraction:
    if numerator.is_zero:
        return Fraction(0)
    ratio = numerator.exact_divide(q)
    value = ratio.constant_value() if ratio is not None else None
    if value is None:
        raise GramError("triple Gram entry is not a constant multiple of f")
    return value


# -- rho_hat ------------------------------------------------------------------


@dataclass
class RhoHat:
    """Densitized companion pair: rho_hat_i = m_i / sqrt(q), m_i rational odd forms."""

    m1: MixedForm
    m2: MixedForm
    q: Polynomial
    orbit_sign: int

    def closedness_residuals(self) -> tuple[MixedForm, MixedForm]:
        """2q dm - dq ^ m for each component; zero iff d rho_hat = 0."""
        dq = exterior_derivative(MixedForm.function(self.q.chart, self.q))
        return tuple(exterior_derivative(m).scale(self.q).scale(2) - wedge(dq, m)
                     for m in (self.m1, self.m2))

    @property
    def is_closed(self) -> bool:
        r1, r2 = self.closedness_residuals()
        return r1.is_zero and r2.is_zero

    def coefficients_at(self, point: Sequence[Rational]) -> tuple[dict, dict]:
        """Float coefficient maps {index tuple: value} of rho_hat at a point."""
        qv = self.q.evaluate(point)
        if qv <= 0:
            raise StabilityError(f"unstable point {tuple(point)}")
        phi = math.sqrt(float(qv))
        return tuple({idx: float(p.evaluate(point)) / phi for idx, p in m.terms.items()}
                     for m in (self.m1, self.m2))


# -- variational residuals ----------------------------------------------------


@dataclass
class VariationalResidual:
    d_rho: tuple[MixedForm, MixedForm]
    d_rho_hat_cleared: tuple[MixedForm, MixedForm]

    @property
    def is_critical(self) -> bool:
        return all(f.is_zero for f in self.d_rho) and all(f.is_zero for f in self.d_rho_hat_cleared)


# -- one analysis per pair ---------------------------------------------------


class PairAnalysis:
    """The exact quantities of one pair, each evaluated at most once.

    Q1 = Q(rho1), Q2 = Q(rho2) and f = (Q1, Q2) are computed on
    construction; the signed quartic (q, s), P12 = P(rho1, rho2), rho_hat,
    the triple and the variational residual on first use.  An evaluation
    that raises StabilityError is not stored, so every later access raises
    the same error.
    """

    sign_points = DEFAULT_PROBE_POINTS    # where ``signed`` probes the orbit sign

    def __init__(self, rho: RhoPair):
        self.rho = rho
        self.q1 = q_vector(rho.rho1)
        self.q2 = q_vector(rho.rho2)
        self.f = gv_inner(self.q1, self.q2)

    @cached_property
    def signed(self) -> tuple[Polynomial, int]:
        """(q, s) with q = s*f positive on the orbit; phi^2 = q."""
        s = _probe(self.f, self.sign_points).sign()
        return (self.f if s > 0 else -self.f), s

    @cached_property
    def p12(self) -> GenSection:
        return p_bilinear(self.rho.rho1, self.rho.rho2)

    @cached_property
    def rho_hat(self) -> RhoHat:
        """Companion forms: rho_hat = s (v1.rho2, -v2.rho1), s fixed by <rho_hat1, rho2> = +phi.

        Asserts the annihilations v1.rho1 = 0 and v2.rho2 = 0 first (they
        characterize orbit membership), then the normalization, exactly:
        <m1, rho2> = q and <m2, rho1> = -q.
        """
        q, s = self.signed
        rho = self.rho
        if not clifford_act(self.q1, rho.rho1).is_zero:
            raise StabilityError("annihilation precondition violated: v1.rho1 != 0 (non-orbit input)")
        if not clifford_act(self.q2, rho.rho2).is_zero:
            raise StabilityError("annihilation precondition violated: v2.rho2 != 0 (non-orbit input)")
        m1 = clifford_act(self.q1, rho.rho2).scale(s)
        m2 = clifford_act(self.q2, rho.rho1).scale(-s)
        if mukai_pairing(m1, rho.rho2) != q:
            raise NormalizationError("normalization failed: <rho_hat1, rho2> != phi")
        if mukai_pairing(m2, rho.rho1) != -q:
            raise NormalizationError("normalization failed: <rho_hat2, rho1> != -phi")
        return RhoHat(m1, m2, q, s)

    @cached_property
    def v_triple(self) -> VTriple:
        """Extract the triple and assert Gram constancy exactly.

        The normalized Gram is (v1,v2) = s, (h,h) = -s/2, all other entries
        zero; the entries are computed as exact rational ratios (Q_i,Q_j)/q.
        """
        q, s = self.signed
        sections = (self.q1, self.p12, self.q2)
        gram = tuple(tuple(_constant_ratio(gv_inner(a, b), q) for b in sections)
                     for a in sections)
        expected = (
            (Fraction(0), Fraction(0), s * GRAM_V1V2),
            (Fraction(0), s * GRAM_HH, Fraction(0)),
            (s * GRAM_V1V2, Fraction(0), Fraction(0)),
        )
        if gram != expected:
            raise GramError(f"unexpected triple Gram {gram}; convention constants violated")
        return VTriple(self.q1, self.p12, self.q2, q, s, gram)

    @cached_property
    def variational_residual(self) -> VariationalResidual:
        """(d rho, d rho_hat); both vanish exactly iff rho is a critical point.

        The rho_hat residual is returned square-root-cleared (2q dm - dq ^ m).
        """
        hat = self.rho_hat
        return VariationalResidual(
            d_rho=(exterior_derivative(self.rho.rho1), exterior_derivative(self.rho.rho2)),
            d_rho_hat_cleared=hat.closedness_residuals(),
        )


def _analysis(rho: RhoPair | PairAnalysis) -> PairAnalysis:
    return rho if isinstance(rho, PairAnalysis) else PairAnalysis(rho)


def is_stable(rho: RhoPair | PairAnalysis,
              points: Sequence[Sequence[Rational]] | None = None) -> StabilityReport:
    """f != 0 per point, with the sign of f as orbit discriminant."""
    return _probe(_analysis(rho).f, points or DEFAULT_PROBE_POINTS)


def signed_quartic(rho: RhoPair | PairAnalysis) -> tuple[Polynomial, int]:
    return _analysis(rho).signed


def v_triple(rho: RhoPair | PairAnalysis) -> VTriple:
    return _analysis(rho).v_triple


def rho_hat(rho: RhoPair | PairAnalysis) -> RhoHat:
    return _analysis(rho).rho_hat


def variational_residual(rho: RhoPair | PairAnalysis) -> VariationalResidual:
    return _analysis(rho).variational_residual


# -- the commuting triple at critical points ---------------------------------


@dataclass
class CommutingReport:
    critical: bool
    bracket_residuals: dict[str, GenSection]
    lie_residuals: dict[str, MixedForm]
    volume_preserving_residuals: dict[str, MixedForm]

    @property
    def all_zero(self) -> bool:
        return (all(s.is_zero for s in self.bracket_residuals.values())
                and all(f.is_zero for f in self.lie_residuals.values())
                and all(f.is_zero for f in self.volume_preserving_residuals.values()))


def commuting_triple_check(rho: RhoPair | PairAnalysis) -> CommutingReport:
    """Pairwise Courant brackets of the triple, the invariance equations
    L_{X_i} rho + d xi_i ^ rho = 0, and d(i_{X_i} vol) = 0, all exact.

    All three families hold when rho is critical; for non-critical rho the
    residuals are reported, not raised.  The bracket residuals are
    q^2 [Q_i/sqrt q, Q_j/sqrt q] and the invariance residuals
    q^(3/2) (L_{X_i} rho + d xi_i ^ rho), both rational; dq and each
    pi(Q_i) q are computed once.
    """
    analysis = _analysis(rho)
    rho = analysis.rho
    triple = analysis.v_triple
    q = triple.q
    dq = d_scalar(q)
    names = ("v1", "h", "v2")
    sections = (triple.v1_dens, triple.h_dens, triple.v2_dens)
    pi_q = [pi_derivative(sec, q) for sec in sections]
    half = Fraction(1, 2)

    brackets = {f"[{names[i]},{names[j]}]": (
        courant_bracket(sections[i], sections[j]).scale(q)
        + sections[i].scale(pi_q[j]).scale(half) - sections[j].scale(pi_q[i]).scale(half))
        for i, j in ((0, 1), (0, 2), (1, 2))}
    lies = {f"L_{name}({label})": (
        (lie_derivative(sec.vector, target) + wedge(exterior_derivative(sec.oneform), target))
        .scale(q) - wedge(dq, clifford_act(sec, target)).scale(half))
        for name, sec in zip(names, sections)
        for label, target in (("rho1", rho.rho1), ("rho2", rho.rho2))}
    vol = MixedForm.volume(rho.chart)
    volumes = {f"d(i_X_{name} vol)": exterior_derivative(interior_product(sec.vector, vol))
               for name, sec in zip(names, sections)}
    return CommutingReport(
        critical=analysis.variational_residual.is_critical,
        bracket_residuals=brackets,
        lie_residuals=lies,
        volume_preserving_residuals=volumes,
    )


# -- component decomposition (c, omega, Y_A) ----------------------------------


@dataclass
class Decomposition:
    """Components of an even form rho_A = c + omega + i_{Y}phi.

    Y and X are densitized against the coordinate volume (Y_dens = phi_c*Y
    where phi = phi_c * dx1..5), which keeps all relations rational:

        xi_dens = -4 i_{Y_dens} omega,
        i_{X_dens} vol = -2 omega^2 + 4c i_{Y_dens} vol.
    """

    c: Polynomial
    omega2: MixedForm
    y_dens: VectorField
    x_dens: VectorField
    xi_dens: MixedForm


def vector_from_four_form(phi4: MixedForm) -> VectorField:
    """The densitized Y with i_Y(dx1..5) = phi4."""
    chart = phi4.chart
    _require_dim5(chart)
    comps = []
    for k in range(DIM):
        idx = tuple(i for i in range(DIM) if i != k)
        coeff = phi4.coefficient(idx)
        comps.append(coeff if k % 2 == 0 else -coeff)
    return VectorField(chart, comps)


def decompose(rho_a: MixedForm) -> Decomposition:
    """Read (c, omega, Y) off an even form and tie them to Q(rho_A) exactly."""
    _require_even(rho_a, "rho_A")
    _require_dim5(rho_a.chart)
    chart = rho_a.chart
    c = rho_a.coefficient(())
    omega2 = rho_a.degree_part(2)
    y_dens = vector_from_four_form(rho_a.degree_part(4))
    q_a = q_vector(rho_a)
    x_dens, xi_dens = q_a.vector, q_a.oneform

    expected_xi = interior_product(y_dens, omega2).scale(-4)
    if xi_dens != expected_xi:
        raise RuntimeError("internal error: xi_A != -4 i_Y omega")
    vol = MixedForm.volume(chart)
    lhs = interior_product(x_dens, vol)
    rhs = wedge(omega2, omega2).scale(-2) + interior_product(y_dens, vol).scale(c * 4)
    if lhs != rhs:
        raise RuntimeError("internal error: i_X phi != -2 omega^2 + 4c i_Y phi")
    return Decomposition(c=c, omega2=omega2, y_dens=y_dens, x_dens=x_dens, xi_dens=xi_dens)


# -- generic structures --------------------------------------------------------


class GenericDataError(ValueError):
    """A named hypothesis of the generic-structure construction failed."""


@dataclass
class GenericData:
    """Closed 2-form omega2, volume 5-form phi, commuting fields Y1, Y2."""

    omega2: MixedForm
    phi: MixedForm
    y1: VectorField
    y2: VectorField

    def chart(self) -> Chart:
        return self.omega2.chart


def _omega_value(omega2: MixedForm, y1: VectorField, y2: VectorField) -> Polynomial:
    return interior_product(y2, interior_product(y1, omega2)).coefficient(())


def validate_generic_data(gd: GenericData) -> None:
    chart = gd.chart()
    _require_dim5(chart)
    if not gd.omega2.is_homogeneous(2):
        raise GenericDataError("omega2 is not a pure 2-form")
    if gd.phi.is_zero or not gd.phi.is_homogeneous(DIM):
        raise GenericDataError("phi is not a nonzero 5-form")
    if not exterior_derivative(gd.omega2).is_zero:
        raise GenericDataError("omega2 is not closed")
    if not vf_bracket(gd.y1, gd.y2).is_zero:
        raise GenericDataError("[Y1, Y2] != 0")
    for name, y in (("Y1", gd.y1), ("Y2", gd.y2)):
        if not lie_derivative(y, gd.omega2).is_zero:
            raise GenericDataError(f"L_{name} omega2 != 0")
        if not lie_derivative(y, gd.phi).is_zero:
            raise GenericDataError(f"L_{name} phi != 0")
    if _omega_value(gd.omega2, gd.y1, gd.y2) != Polynomial.constant(chart, Fraction(-1, 8)):
        raise GenericDataError("omega2(Y1, Y2) != -1/8")


def generic_structure(gd: GenericData) -> RhoPair:
    """rho1 = omega + i_{Y1} phi, rho2 = 1 + i_{Y2} phi; critical by construction."""
    validate_generic_data(gd)
    chart = gd.chart()
    rho = RhoPair(gd.omega2 + interior_product(gd.y1, gd.phi),
                  MixedForm.function(chart, 1) + interior_product(gd.y2, gd.phi))
    residual = variational_residual(rho)
    if not residual.is_critical:
        raise RuntimeError("internal error: generic structure is not critical")
    return rho


def remark_triple(gd: GenericData) -> list[GenSection]:
    """The Courant-commuting triple {Y1 - i_{Y2} omega, Y2, X - i_{Y1} omega},
    where X solves i_X phi = -8 omega^2 (requires exact divisibility)."""
    validate_generic_data(gd)
    chart = gd.chart()
    omega_sq = wedge(gd.omega2, gd.omega2).scale(-8)
    x_dens = vector_from_four_form(omega_sq)
    p = gd.phi.coefficient(tuple(range(DIM)))
    comps = [c.exact_divide(p) for c in x_dens.components]
    if any(c is None for c in comps):
        raise GenericDataError("i_X phi = -8 omega^2 has no polynomial solution X")
    x = VectorField(chart, comps)
    return [
        GenSection(gd.y1, -interior_product(gd.y2, gd.omega2)),
        GenSection.from_vector(gd.y2),
        GenSection(x, -interior_product(gd.y1, gd.omega2)),
    ]


# -- numeric gradient check ----------------------------------------------------


def volume_gradient_check(rho: RhoPair, rho_dot: RhoPair, point: Sequence[Rational],
                          steps: Sequence[float] = (1e-3, 1e-4, 1e-5)) -> float:
    """Best relative error of central differences of phi against <rho_hat, .>.

    D phi(rho_dot) = <rho_hat1, rho_dot2> - <rho_hat2, rho_dot1>, evaluated
    pointwise; the derivative side is exact, the difference side is swept
    over the given steps.
    """
    hat = rho_hat(rho)
    qv = float(hat.q.evaluate(point))
    # derivative side: (<m1, dot2> - <m2, dot1>)/sqrt(q) at the point
    numer = mukai_pairing(hat.m1, rho_dot.rho2) - mukai_pairing(hat.m2, rho_dot.rho1)
    exact = float(numer.evaluate(point)) / math.sqrt(qv)
    if exact == 0.0:
        raise ValueError("degenerate direction: exact derivative vanishes at the point")

    best = math.inf
    for h in steps:
        hfrac = Fraction(h).limit_denominator(10**12)
        plus = quartic_invariant(rho + rho_dot.scale(hfrac)).evaluate(point)
        minus = quartic_invariant(rho - rho_dot.scale(hfrac)).evaluate(point)
        if plus == 0 or minus == 0:
            continue
        diff = (math.sqrt(abs(float(plus))) - math.sqrt(abs(float(minus)))) / (2 * float(hfrac))
        best = min(best, abs(diff - exact) / abs(exact))
    return best


def random_rho_pair(chart: Chart, rng, max_degree: int = 1) -> RhoPair:
    return RhoPair(random_mixed_form(chart, rng, degrees=(0, 2, 4), max_degree=max_degree),
                   random_mixed_form(chart, rng, degrees=(0, 2, 4), max_degree=max_degree))
