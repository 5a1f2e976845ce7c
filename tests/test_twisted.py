import random

import pytest

from gengeo.algebra import Chart, Polynomial
from gengeo.forms import MixedForm, exterior_derivative, random_mixed_form
from gengeo.generalized import (bfield_on_form, courant_bracket, gv_inner, random_section)
from gengeo.twisted import (CoverData, CoverError, check_cocycle,
                            glue_section, globalize_with_curving, twisted_differential)


def c4():
    return Chart(4)


def dx(chart, *idx):
    return MixedForm.basis(chart, [i - 1 for i in idx])


def exact_cover(chart):
    # A_ab = d(phi_ab) with potentials summing to zero on the triple
    x1 = Polynomial.coordinate(chart, 0)
    x2 = Polynomial.coordinate(chart, 1)
    a_ab = exterior_derivative(MixedForm.function(chart, x1 * x2))
    a_bc = exterior_derivative(MixedForm.function(chart, x1 + x2))
    a_ca = exterior_derivative(MixedForm.function(chart, -(x1 * x2) - (x1 + x2)))
    return CoverData(chart, ["a", "b", "c"],
                     {("a", "b"): a_ab, ("b", "c"): a_bc, ("c", "a"): a_ca})


def test_cocycle_pass_cases():
    c = c4()
    cover = exact_cover(c)
    report = check_cocycle(cover)
    assert report.valid
    single = CoverData(c, ["only"], {})
    assert check_cocycle(single).valid  # vacuous


def test_cocycle_failure_detected():
    c = c4()
    x1 = Polynomial.coordinate(c, 0)
    x2 = Polynomial.coordinate(c, 1)
    a_ab = MixedForm.basis(c, (1,), x1)       # x1 dx2
    a_bc = -a_ab
    a_ca = MixedForm.basis(c, (0,), x2)       # x2 dx1
    cover = CoverData(c, ["a", "b", "c"],
                      {("a", "b"): a_ab, ("b", "c"): a_bc, ("c", "a"): a_ca})
    report = check_cocycle(cover)
    assert not report.valid
    assert report.triple_residuals[("a", "b", "c")] == -dx(c, 1, 2)


def test_cover_validation():
    c = c4()
    with pytest.raises(CoverError):
        CoverData(c, ["a", "a"], {})
    with pytest.raises(CoverError):
        CoverData(c, ["a", "b"], {("a", "z"): dx(c, 1)})
    with pytest.raises(CoverError):
        CoverData(c, ["a", "b"], {("a", "b"): dx(c, 1, 2)})
    with pytest.raises(CoverError, match=r"^A_\(b,a\) != -A_\(a,b\)$"):
        CoverData(c, ["a", "b"], {("a", "b"): dx(c, 1), ("b", "a"): dx(c, 1)})


def test_an_overlap_given_both_ways_is_stored_once():
    c = c4()
    a_ab = MixedForm.basis(c, (1,), Polynomial.coordinate(c, 0))
    cover = CoverData(c, ["a", "b"], {("a", "b"): a_ab, ("b", "a"): -a_ab})
    assert list(cover.overlaps) == [("a", "b")]
    assert cover.overlap_form("a", "b") == a_ab
    assert cover.overlap_form("b", "a") == -a_ab
    with pytest.raises(CoverError, match=r"unknown overlap \(a,c\)"):
        cover.overlap_form("a", "c")


def test_a_triangle_given_in_any_orientation_is_found():
    c = c4()
    x1, x2, x3 = (Polynomial.coordinate(c, i) for i in range(3))
    a_ab, a_bc, a_ac = (MixedForm.basis(c, (1,), x1), MixedForm.basis(c, (2,), x2),
                        MixedForm.basis(c, (3,), x3))
    cover = CoverData(c, ["a", "b", "c"], {("a", "b"): a_ab, ("b", "c"): a_bc, ("a", "c"): a_ac})
    assert cover.triples() == [("a", "b", "c")]
    assert check_cocycle(cover).triple_residuals == {("a", "b", "c"): (
        exterior_derivative(a_ab) + exterior_derivative(a_bc) - exterior_derivative(a_ac))}


def test_curving_residuals_hold_one_key_per_given_overlap():
    c = c4()
    a_ab = MixedForm.basis(c, (1,), Polynomial.coordinate(c, 0))
    zero = MixedForm.zero(c)
    cover = CoverData(c, ["a", "b", "c"], {("a", "b"): a_ab, ("b", "a"): -a_ab,
                                           ("c", "b"): zero},
                      curving={"a": zero, "b": exterior_derivative(a_ab),
                               "c": exterior_derivative(a_ab)})
    report = check_cocycle(cover)
    assert list(report.curving_residuals) == [("a", "b"), ("c", "b")]
    assert report.valid


def test_the_walk_reaches_each_chart_along_the_overlaps():
    c = c4()
    zero = MixedForm.zero(c)
    chain = CoverData(c, ["a", "b", "c", "d"],
                      {("c", "d"): zero, ("b", "c"): zero, ("b", "a"): zero})
    assert chain.walk() == [("a", "b"), ("b", "c"), ("c", "d")]
    star = CoverData(c, ["a", "b", "c"], {("a", "c"): zero, ("b", "a"): zero})
    assert star.walk() == [("a", "b"), ("a", "c")]
    assert CoverData(c, ["a"], {}).walk() == []
    split = CoverData(c, ["a", "b", "c", "d"], {("a", "b"): zero, ("c", "d"): zero})
    with pytest.raises(CoverError, match=r"^charts \['c', 'd'\] are not joined to chart 'a' "
                                         r"by overlaps$"):
        split.walk()


def test_glue_section_round_trips():
    c = c4()
    cover = exact_cover(c)
    rng = random.Random(23)
    u = random_section(c, rng)
    assert glue_section(cover, glue_section(cover, u, ("a", "b")), ("b", "a")) == u
    # triple composition is the identity on a valid cocycle
    w = glue_section(cover, u, ("a", "b"))
    w = glue_section(cover, w, ("b", "c"))
    w = glue_section(cover, w, ("c", "a"))
    assert w == u
    # identity overlap and pure one-forms
    zero_cover = CoverData(c, ["a", "b"], {("a", "b"): MixedForm.zero(c)})
    assert glue_section(zero_cover, u, ("a", "b")) == u
    from gengeo.generalized import GenSection

    oneform = GenSection.from_oneform(dx(c, 1))
    assert glue_section(cover, oneform, ("a", "b")) == oneform
    with pytest.raises(CoverError):
        glue_section(cover, u, ("a", "z"))


def test_glue_preserves_inner_and_bracket():
    c = c4()
    cover = exact_cover(c)
    rng = random.Random(29)
    u = random_section(c, rng)
    v = random_section(c, rng)
    gu = glue_section(cover, u, ("a", "b"))
    gv = glue_section(cover, v, ("a", "b"))
    assert gv_inner(gu, gv) == gv_inner(u, v)
    assert courant_bracket(gu, gv) == glue_section(cover, courant_bracket(u, v), ("a", "b"))


def test_twisted_differential_examples():
    c = c4()
    rng = random.Random(31)
    psi = random_mixed_form(c, rng)
    assert twisted_differential(psi, MixedForm.zero(c)) == exterior_derivative(psi)
    h = exterior_derivative(random_mixed_form(c, rng, degrees=(2,)))
    assert twisted_differential(twisted_differential(psi, h), h).is_zero
    with pytest.raises(ValueError):
        twisted_differential(psi, dx(c, 1, 2))  # not degree 3
    x1 = Polynomial.coordinate(c, 0)
    with pytest.raises(ValueError):
        twisted_differential(psi, MixedForm.basis(c, (1, 2, 3), x1))  # not closed


def test_twisted_differential_of_curved_global_form():
    # psi = e^B phi with d(phi)=0 and H=dB satisfies (d-H) psi = 0
    c = c4()
    rng = random.Random(37)
    x1 = Polynomial.coordinate(c, 0)
    b = MixedForm.basis(c, (1, 2), x1)
    h = exterior_derivative(b)
    phi = (MixedForm.function(c, 3) + exterior_derivative(random_mixed_form(c, rng, degrees=(1, 3))))
    assert exterior_derivative(phi).is_zero
    psi = bfield_on_form(b, phi)
    assert twisted_differential(psi, h).is_zero


def test_globalize_with_curving():
    c = c4()
    x1 = Polynomial.coordinate(c, 0)
    a_ab = MixedForm.basis(c, (1,), x1)        # A_ab = x1 dx2, dA = dx1^dx2
    da = exterior_derivative(a_ab)
    b_a = MixedForm.basis(c, (2, 3))
    b_b = b_a + da
    cover = CoverData(c, ["a", "b"], {("a", "b"): a_ab}, curving={"a": b_a, "b": b_b})
    assert check_cocycle(cover).valid
    assert check_cocycle(cover).curvature == exterior_derivative(b_a)

    rng = random.Random(41)
    phi_b = MixedForm.function(c, 2) + exterior_derivative(random_mixed_form(c, rng, degrees=(1,)))
    phi_a = bfield_on_form(da, phi_b)
    psis = globalize_with_curving({"a": phi_a, "b": phi_b}, cover)
    assert psis["a"] == psis["b"]
    assert psis["a"] == bfield_on_form(b_a, phi_a)

    with pytest.raises(CoverError):
        globalize_with_curving({"a": phi_a + MixedForm.function(c, 1), "b": phi_b}, cover)


def test_globalize_needs_curving_and_a_section_per_chart():
    c = c4()
    phi = MixedForm.function(c, 1)
    with pytest.raises(CoverError, match="globalize_with_curving needs curving data"):
        globalize_with_curving({"a": phi, "b": phi}, CoverData(c, ["a", "b"], {}))
    curved = CoverData(c, ["a", "b"], {}, curving={"a": dx(c, 1, 2), "b": dx(c, 1, 2)})
    with pytest.raises(CoverError, match="missing section on chart 'b'"):
        globalize_with_curving({"a": phi}, curved)


def test_globalize_fails_where_the_curving_breaks_the_cocycle():
    # B_b - B_a = dx3 dx4 != dA_ab = 0: the sections agree, their e^{B} images do not
    c = c4()
    cover = CoverData(c, ["a", "b"], {("a", "b"): MixedForm.zero(c)},
                      curving={"a": MixedForm.zero(c), "b": dx(c, 3, 4)})
    phi = MixedForm.function(c, 1)
    with pytest.raises(CoverError, match="globalization failed: psi_b differs"):
        globalize_with_curving({"a": phi, "b": phi}, cover)


def test_globalize_single_chart_trivial():
    c = c4()
    cover = CoverData(c, ["a"], {}, curving={"a": MixedForm.zero(c)})
    phi = MixedForm.function(c, 5)
    assert globalize_with_curving({"a": phi}, cover)["a"] == phi


def test_curving_residuals_detect_mismatch():
    c = c4()
    a_ab = MixedForm.basis(c, (1,), Polynomial.coordinate(c, 0))
    cover = CoverData(c, ["a", "b"], {("a", "b"): a_ab},
                      curving={"a": MixedForm.zero(c), "b": MixedForm.zero(c)})
    report = check_cocycle(cover)
    assert not report.valid
    assert not report.curving_residuals[("a", "b")].is_zero
