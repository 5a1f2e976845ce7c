import random
import re
from dataclasses import replace
from fractions import Fraction

import pytest

from gengeo.algebra import Chart, Polynomial
from gengeo.forms import (MixedForm, VectorField, interior_product, mukai_pairing,
                          random_mixed_form)
from gengeo.generalized import (GenSection, bfield_on_form, bfield_on_section, clifford_act,
                                courant_bracket, gv_inner)
from gengeo.spin55 import (GRAM_HH, GRAM_V1V2, GenericData, PairAnalysis,
                           GenericDataError, RhoPair, StabilityError, commuting_triple_check,
                           decompose, generic_structure, is_stable, normal_form,
                           p_bilinear, q_vector, quartic_invariant, random_rho_pair,
                           remark_triple, rho_hat, signed_quartic, v_triple,
                           validate_generic_data, variational_residual, vector_from_four_form,
                           volume_density_at, volume_density_poly, volume_gradient_check)


def c5():
    return Chart(5)


def dx(chart, *idx):
    return MixedForm.basis(chart, [i - 1 for i in idx])


def section(chart, vec_slots=(), form_slots=()):
    v = VectorField.zero(chart)
    for i, coeff in vec_slots:
        v = v + VectorField.coordinate(chart, i).scale(coeff)
    f = MixedForm(chart, {(i,): Polynomial.constant(chart, coeff) for i, coeff in form_slots})
    return GenSection(v, f)


def flat_generic_data(chart=None, p=1):
    c = chart or c5()
    omega = dx(c, 1, 2) + dx(c, 3, 4)
    phi = MixedForm.volume(c, p)
    y1 = VectorField.coordinate(c, 1).scale(Fraction(1, 2))
    y2 = VectorField.coordinate(c, 0).scale(Fraction(1, 4))
    return GenericData(omega2=omega, phi=phi, y1=y1, y2=y2)


# -- Q, P, f -------------------------------------------------------------------


def test_q_vector_normal_form_components():
    nf = normal_form()
    c = nf.chart
    q1 = q_vector(nf.rho1)
    q2 = q_vector(nf.rho2)
    assert q1 == section(c, vec_slots=[(4, -4)], form_slots=[(0, -4)])   # -4(d5 + dx1)
    assert q2 == section(c, vec_slots=[(0, 4)])                          # 4 d1
    p12 = p_bilinear(nf.rho1, nf.rho2)
    assert p12 == section(c, vec_slots=[(1, -2)], form_slots=[(1, -2)])  # -2(d2 + dx2)


def test_q_vector_of_scalar_is_zero():
    c = c5()
    assert q_vector(MixedForm.function(c, 1)).is_zero
    assert q_vector(MixedForm.function(c, 7)).is_zero


def test_q_polarization_identity():
    c = c5()
    rng = random.Random(3)
    phi1 = random_mixed_form(c, rng, degrees=(0, 2, 4))
    phi2 = random_mixed_form(c, rng, degrees=(0, 2, 4))
    quarter = Fraction(1, 4)
    lhs = p_bilinear(phi1, phi2)
    rhs = (q_vector(phi1 + phi2) - q_vector(phi1 - phi2)).scale(quarter)
    assert lhs == rhs


def test_pairing_symmetric_in_spinors():
    c = c5()
    rng = random.Random(5)
    from gengeo.generalized import random_section

    v = random_section(c, rng)
    for degs in ((0, 2, 4), (1, 3, 5)):
        phi1 = random_mixed_form(c, rng, degrees=degs)
        phi2 = random_mixed_form(c, rng, degrees=degs)
        assert (mukai_pairing(clifford_act(v, phi1), phi2)
                == mukai_pairing(clifford_act(v, phi2), phi1))


def test_q_is_null():
    c = c5()
    rng = random.Random(7)
    for _ in range(5):
        phi = random_mixed_form(c, rng, degrees=(0, 2, 4))
        q = q_vector(phi)
        assert gv_inner(q, q).is_zero


def test_quartic_invariant_normal_form():
    nf = normal_form()
    f = quartic_invariant(nf)
    assert f == Polynomial.constant(nf.chart, -8)
    q, s = signed_quartic(nf)
    assert s == -1
    assert q == Polynomial.constant(nf.chart, 8)


def test_quartic_gl2_covariance():
    nf = normal_form()
    f = quartic_invariant(nf)
    assert quartic_invariant(nf.gl2(2, 0, 0, 1)) == f * 4
    rng = random.Random(11)
    for _ in range(5):
        a, b, c_, d = (Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(4))
        det = a * d - b * c_
        assert quartic_invariant(nf.gl2(a, b, c_, d)) == f * (det * det)
    rho = random_rho_pair(nf.chart, rng)
    f2 = quartic_invariant(rho)
    assert quartic_invariant(rho.gl2(1, 2, 3, 1)) == f2 * 25


def test_quartic_bfield_invariance_arbitrary_b():
    nf = normal_form()
    rng = random.Random(13)
    for _ in range(4):
        b = random_mixed_form(nf.chart, rng, degrees=(2,))
        assert quartic_invariant(nf.bfield(b)) == quartic_invariant(nf)
    rho = random_rho_pair(nf.chart, rng)
    b = random_mixed_form(nf.chart, rng, degrees=(2,))
    assert quartic_invariant(rho.bfield(b)) == quartic_invariant(rho)


def test_triple_bfield_transform():
    # under e^B on spinors the densitized sections move by u -> u - i_X B
    c = c5()
    rng = random.Random(17)
    phi = random_mixed_form(c, rng, degrees=(0, 2, 4))
    b = random_mixed_form(c, rng, degrees=(2,))
    lhs = q_vector(bfield_on_form(b, phi))
    rhs = bfield_on_section(-b, q_vector(phi))
    assert lhs == rhs


# -- stability ------------------------------------------------------------------


def test_stability_normal_form():
    nf = normal_form()
    report = is_stable(nf)
    assert report.all_stable
    assert report.orbit_sign == -1


def test_commuting_triple_check_evaluates_dq_and_pi_q_once(monkeypatch):
    from gengeo import spin55

    pair = PairAnalysis(normal_form())
    pair.v_triple, pair.variational_residual    # evaluated before the spies go in
    calls = {"d_scalar": 0, "pi_derivative": 0}

    def spy(name):
        real = getattr(spin55, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)
        return counted

    for name in calls:
        monkeypatch.setattr(spin55, name, spy(name))
    assert commuting_triple_check(pair).all_zero
    assert calls == {"d_scalar": 1, "pi_derivative": 3}


def test_unstable_cases():
    nf = normal_form()
    equal = RhoPair(nf.rho1, nf.rho1)
    assert quartic_invariant(equal).is_zero
    assert not is_stable(equal).all_stable
    with pytest.raises(StabilityError, match="f vanishes at all probe points"):
        signed_quartic(equal)
    zero = RhoPair(MixedForm.zero(nf.chart), MixedForm.zero(nf.chart))
    assert not is_stable(zero).all_stable


def test_volume_density():
    nf = normal_form()
    assert volume_density_at(nf, (0, 0, 0, 0, 0)) == pytest.approx(8 ** 0.5)
    assert volume_density_poly(nf) is None  # 8 is not a rational square
    scaled = nf.scale(2)
    assert volume_density_at(scaled, (0, 0, 0, 0, 0)) == pytest.approx(4 * 8 ** 0.5)
    with pytest.raises(StabilityError):
        volume_density_at(RhoPair(nf.rho1, nf.rho1), (0, 0, 0, 0, 0))


# -- the triple -------------------------------------------------------------------


def test_v_triple_normal_form_span_and_gram():
    nf = normal_form()
    t = v_triple(nf)
    c = nf.chart
    assert t.orbit_sign == -1
    assert t.v1_dens == section(c, vec_slots=[(4, -4)], form_slots=[(0, -4)])
    assert t.h_dens == section(c, vec_slots=[(1, -2)], form_slots=[(1, -2)])
    assert t.v2_dens == section(c, vec_slots=[(0, 4)])
    # normalized Gram: (v1,v2) = -1, (h,h) = 1/2, all else zero
    assert t.gram[0][2] == -1
    assert t.gram[1][1] == Fraction(1, 2)
    assert t.gram[0][0] == 0 and t.gram[2][2] == 0
    assert t.gram[0][1] == 0 and t.gram[1][2] == 0


def test_v_triple_positive_orbit_gram():
    rho = generic_structure(flat_generic_data())
    t = v_triple(rho)
    assert t.orbit_sign == 1
    assert t.gram[0][2] == GRAM_V1V2
    assert t.gram[1][1] == GRAM_HH


def test_v_triple_rejects_unstable():
    nf = normal_form()
    with pytest.raises(StabilityError):
        v_triple(RhoPair(nf.rho1, nf.rho1))


# -- rho_hat ---------------------------------------------------------------------


def test_rho_hat_normal_form():
    nf = normal_form()
    hat = rho_hat(nf)
    c = nf.chart
    expected_m1 = (dx(c, 1) - dx(c, 2, 3, 4) + dx(c, 1, 2, 3, 4, 5)).scale(4)
    expected_m2 = (dx(c, 2) + dx(c, 3, 4, 5)).scale(4)
    assert hat.m1 == expected_m1
    assert hat.m2 == expected_m2
    assert hat.orbit_sign == -1
    assert hat.is_closed
    # normalization: <m1, rho2> = q, <m2, rho1> = -q
    assert mukai_pairing(hat.m1, nf.rho2) == Polynomial.constant(c, 8)
    assert mukai_pairing(hat.m2, nf.rho1) == Polynomial.constant(c, -8)


def test_rho_hat_coefficients_need_a_stable_point():
    # scaling rho2 by x1 scales f by x1^2: q = 8 x1^2 vanishes at the origin
    nf = normal_form()
    hat = rho_hat(RhoPair(nf.rho1, nf.rho2.scale(Polynomial.coordinate(nf.chart, 0))))
    assert hat.coefficients_at((1, 0, 0, 0, 0))[0]
    with pytest.raises(StabilityError, match=re.escape("unstable point (0, 0, 0, 0, 0)")):
        hat.coefficients_at((0, 0, 0, 0, 0))


def test_spin55_operations_need_a_5_chart():
    with pytest.raises(ValueError, match="needs a 5-dimensional chart, got dim 4"):
        normal_form(Chart(4))


def test_rho_hat_annihilation_precondition():
    nf = normal_form()
    broken = RhoPair(nf.rho1 + dx(nf.chart, 1, 2).scale(3), nf.rho2)
    # still stable, but possibly off-orbit; accept either a clean result or
    # the named precondition error -- never a wrong normalization
    try:
        hat = rho_hat(broken)
    except StabilityError:
        return
    q, _ = signed_quartic(broken)
    assert mukai_pairing(hat.m1, broken.rho2) == q


def test_rho_hat_bfield_equivariance():
    nf = normal_form()
    rng = random.Random(19)
    b = random_mixed_form(nf.chart, rng, degrees=(2,))
    hat = rho_hat(nf)
    hat_b = rho_hat(nf.bfield(b))
    assert hat_b.m1 == bfield_on_form(b, hat.m1)
    assert hat_b.m2 == bfield_on_form(b, hat.m2)


# -- variational residuals ---------------------------------------------------------


def test_variational_residual_normal_form():
    res = variational_residual(normal_form())
    assert res.is_critical


def test_variational_residual_generic_structure():
    res = variational_residual(generic_structure(flat_generic_data()))
    assert res.is_critical


def test_variational_residual_noncritical():
    nf = normal_form()
    c = nf.chart
    x1 = Polynomial.coordinate(c, 0)
    bump = MixedForm.basis(c, (1, 2), x1 * x1)
    perturbed = RhoPair(nf.rho1 + bump, nf.rho2)
    res = variational_residual(perturbed)
    assert not res.is_critical
    assert not res.d_rho[0].is_zero


# -- commuting triple ---------------------------------------------------------------


def test_commuting_triple_normal_form():
    report = commuting_triple_check(normal_form())
    assert report.critical
    assert report.all_zero


def test_commuting_triple_generic_flat():
    report = commuting_triple_check(generic_structure(flat_generic_data()))
    assert report.critical
    assert report.all_zero


def test_commuting_triple_nonconstant_volume():
    # phi = (1 + x5^2) vol: nonconstant density, perfect-square quartic
    c = c5()
    x5 = Polynomial.coordinate(c, 4)
    p = Polynomial.constant(c, 1) + x5 * x5
    gd = flat_generic_data(c, p=p)
    validate_generic_data(gd)
    rho = generic_structure(gd)
    assert volume_density_poly(rho) == p
    report = commuting_triple_check(rho)
    assert report.critical
    assert report.all_zero


def test_noncritical_brackets_reported():
    nf = normal_form()
    c = nf.chart
    x1 = Polynomial.coordinate(c, 0)
    perturbed = RhoPair(nf.rho1 + MixedForm.basis(c, (2, 3), x1 * x1), nf.rho2)
    report = commuting_triple_check(perturbed)
    assert not report.critical
    assert not report.all_zero


# -- decompose ----------------------------------------------------------------------


def test_decompose_normal_form_rho2():
    nf = normal_form()
    d = decompose(nf.rho2)
    c = nf.chart
    assert d.c == Polynomial.constant(c, 1)
    assert d.omega2.is_zero
    assert d.y_dens == VectorField.coordinate(c, 0)
    assert d.x_dens == VectorField.coordinate(c, 0).scale(4)  # X2 = 4 Y2
    assert d.xi_dens.is_zero


def test_decompose_normal_form_rho1():
    nf = normal_form()
    d = decompose(nf.rho1)
    c = nf.chart
    assert d.c.is_zero
    assert d.omega2 == dx(c, 1, 2) + dx(c, 3, 4)
    assert d.y_dens == -VectorField.coordinate(c, 1)
    assert d.xi_dens == MixedForm.basis(c, (0,), -4)


def test_decompose_random_even_forms():
    # the tied relations hold for every even form, not only critical ones
    c = c5()
    rng = random.Random(23)
    for _ in range(5):
        phi = random_mixed_form(c, rng, degrees=(0, 2, 4))
        decompose(phi)


def test_vector_from_four_form_round_trip():
    c = c5()
    rng = random.Random(29)
    from gengeo.forms import random_vector_field

    y = random_vector_field(c, rng)
    four = interior_product(y, MixedForm.volume(c))
    assert vector_from_four_form(four) == y


# -- generic structures ---------------------------------------------------------------


def test_generic_structure_builds_and_measures_volume():
    rho = generic_structure(flat_generic_data(p=3))
    assert volume_density_poly(rho) == Polynomial.constant(rho.chart, 3)
    assert variational_residual(rho).is_critical


def test_generic_data_validation_errors():
    gd = flat_generic_data()
    bad = GenericData(gd.omega2, gd.phi, gd.y1, VectorField.coordinate(c5(), 0))
    with pytest.raises(GenericDataError, match="-1/8"):
        generic_structure(bad)
    c = c5()
    x1 = Polynomial.coordinate(c, 0)
    y2_bad = VectorField.from_components(c, {0: x1})
    with pytest.raises(GenericDataError):
        generic_structure(GenericData(gd.omega2, gd.phi, gd.y1, y2_bad))
    x3 = Polynomial.coordinate(c, 2)
    omega_bad = MixedForm.basis(c, (0, 1), x3)
    with pytest.raises(GenericDataError, match="closed"):
        generic_structure(GenericData(omega_bad, gd.phi, gd.y1, gd.y2))


@pytest.mark.parametrize("case, message", [
    ("omega-not-a-2-form", "omega2 is not a pure 2-form"),
    ("phi-not-a-5-form", "phi is not a nonzero 5-form"),
    ("phi-zero", "phi is not a nonzero 5-form"),
    ("y-bracket", "[Y1, Y2] != 0"),
    ("phi-not-invariant", "L_Y1 phi != 0"),
])
def test_generic_data_errors_name_the_failed_hypothesis(case, message):
    # a zero phi passed: remark_triple divided by it (ZeroDivisionError) and
    # generic_structure raised a StabilityError
    c = c5()
    gd = flat_generic_data(c)
    x2 = Polynomial.coordinate(c, 1)
    gd = {"omega-not-a-2-form": replace(gd, omega2=gd.omega2 + MixedForm.function(c, 1)),
          "phi-not-a-5-form": replace(gd, phi=dx(c, 1, 2, 3, 4)),
          "phi-zero": replace(gd, phi=MixedForm.zero(c)),
          "y-bracket": replace(gd, y2=VectorField.from_components(c, {0: x2})),
          "phi-not-invariant": replace(gd, phi=MixedForm.volume(c, x2 + 1))}[case]
    for build in (generic_structure, remark_triple):
        with pytest.raises(GenericDataError, match=re.escape(message)):
            build(gd)


def test_remark_triple_needs_a_polynomial_x():
    # i_X phi = -8 omega^2 with phi = (1 + x3) dx1..5 makes X = const / (1 + x3)
    gd = flat_generic_data(p=Polynomial.coordinate(c5(), 2) + 1)
    with pytest.raises(GenericDataError, match="no polynomial solution X"):
        remark_triple(gd)


def test_remark_triple_courant_commutes():
    gd = flat_generic_data()
    triple = remark_triple(gd)
    assert len(triple) == 3
    for i in range(3):
        for j in range(i + 1, 3):
            assert courant_bracket(triple[i], triple[j]).is_zero


# -- gradient check --------------------------------------------------------------------


def test_volume_gradient_check_skips_a_step_where_f_vanishes():
    # along rho_dot = rho, f(rho - 1*rho) = f(0) = 0: step 1 gives no difference quotient
    nf = normal_form()
    origin = (0, 0, 0, 0, 0)
    assert volume_gradient_check(nf, nf, origin, steps=(1, 1e-3)) == volume_gradient_check(
        nf, nf, origin, steps=(1e-3,))


def test_volume_gradient_check_normal_form():
    nf = normal_form()
    c = nf.chart
    rho_dot = RhoPair(dx(c, 1, 2) + dx(c, 1, 3, 4, 5),
                      MixedForm.function(c, 1) + dx(c, 2, 3, 4, 5))
    err = volume_gradient_check(nf, rho_dot, (0, 0, 0, 0, 0))
    assert err < 1e-6


# -- one analysis per pair -------------------------------------------------------------


def test_spin55_analyze_evaluates_q_and_p12_once(monkeypatch):
    import json
    from pathlib import Path

    from gengeo import cli, spin55

    calls = {"q_vector": 0, "p12": 0, "quartic_invariant": 0}
    q_vector_, p_bilinear_, quartic_ = spin55.q_vector, spin55.p_bilinear, spin55.quartic_invariant

    def q_spy(phi):
        calls["q_vector"] += 1
        return q_vector_(phi)

    def p_spy(phi1, phi2):
        calls["p12"] += phi1 is not phi2          # q_vector's own P(phi, phi) not counted
        return p_bilinear_(phi1, phi2)

    def quartic_spy(rho):
        calls["quartic_invariant"] += 1
        return quartic_(rho)

    monkeypatch.setattr(spin55, "q_vector", q_spy)
    monkeypatch.setattr(spin55, "p_bilinear", p_spy)
    monkeypatch.setattr(spin55, "quartic_invariant", quartic_spy)
    report = cli.spin55_analyze(normal_form())
    assert calls["q_vector"] == 2 and calls["p12"] == 1 and calls["quartic_invariant"] <= 1
    golden = Path(__file__).parent / "data" / "golden" / "spin55_normal_form.json"
    assert json.dumps(report.to_json_obj(), indent=2, sort_keys=True) + "\n" == golden.read_text()


def test_pair_analysis_accepted_everywhere_and_evaluated_once():
    nf = normal_form()
    a = PairAnalysis(nf)
    assert is_stable(a) == is_stable(nf)
    assert signed_quartic(a) == signed_quartic(nf)
    assert v_triple(a) is v_triple(a) and v_triple(a) == v_triple(nf)
    assert rho_hat(a) is rho_hat(a) and rho_hat(a) == rho_hat(nf)
    assert variational_residual(a) is variational_residual(a)
    assert variational_residual(a) == variational_residual(nf)
    assert commuting_triple_check(a) == commuting_triple_check(nf)
    assert a.p12 == p_bilinear(nf.rho1, nf.rho2)


def test_pair_analysis_raises_the_same_error_on_every_access():
    c = c5()
    nf = normal_form(c)
    x1 = Polynomial.coordinate(c, 0)
    # f = -8 + 16 x1: negative at the origin, positive at (1, 0, 0, 0, 0)
    rho = RhoPair(nf.rho1, nf.rho2 + MixedForm.function(c, x1 * -2))
    a = PairAnalysis(rho)
    assert is_stable(a, [(0, 0, 0, 0, 0)]).all_stable
    for accessor in (signed_quartic, rho_hat, v_triple, variational_residual,
                     commuting_triple_check, signed_quartic):
        with pytest.raises(StabilityError, match="changes sign"):
            accessor(a)
