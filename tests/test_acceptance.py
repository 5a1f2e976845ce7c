"""Acceptance gate: one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion; the expensive N=8 flow runs are shared across criteria through
module-scoped fixtures.  Criteria 9-11, which use them, are marked `slow`:
`pytest -m "not slow"` skips them for a quick inner loop.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from gengeo.algebra import Chart, Polynomial, random_polynomial
from gengeo.forms import (MixedForm, VectorField, exterior_derivative, interior_product,
                          random_mixed_form, wedge)
from gengeo.generalized import (GenSection, bfield_on_form, bfield_on_section,
                                courant_bracket, courant_spinor_residual, d_scalar, gv_inner,
                                pi_derivative, random_section)
from gengeo.metric import (GeneralizedMetric, christoffel_classical_at, connection_at,
                           coordinate_deltas, random_metric, torsion_check)
from gengeo.spin55 import (commuting_triple_check, decompose, normal_form,
                           q_vector, quartic_invariant, random_rho_pair,
                           v_triple, variational_residual, volume_gradient_check)
from gengeo.twisted import CoverData, check_cocycle, globalize_with_curving, twisted_differential
from gengeo.flow import FlowConfig, flow_step, initial_state, nahm_residual, run_flow
from gengeo.sixdim import (annihilator_check, build_sigma, dsigma_residual, ez_check,
                           gram_signature)


def report(name: str, passed: bool, detail: str) -> None:
    print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
    assert passed, f"{name}: {detail}"


# -- exact criteria -------------------------------------------------------------


def test_criterion_01_courant_definitional_identity():
    start = time.time()
    rng = random.Random(101)
    cases = 0
    for dim in (2, 3, 4, 5):
        chart = Chart(dim)
        for _ in range(25):
            u = random_section(chart, rng, max_degree=2)
            v = random_section(chart, rng, max_degree=2)
            a = random_mixed_form(chart, rng, max_degree=2)
            assert courant_spinor_residual(u, v, [a])[0].is_zero
            cases += 1
    elapsed = time.time() - start
    report("criterion-1", cases == 100 and elapsed < 60,
           f"spinorial bracket residual exactly 0 for {cases} random (u,v,a), "
           f"dims 2-5, degree <= 2, in {elapsed:.1f}s < 60s")


def test_criterion_02_bracket_identities():
    rng = random.Random(102)
    for dim in (2, 3, 4, 5):
        chart = Chart(dim)
        for _ in range(25):
            u = random_section(chart, rng)
            v = random_section(chart, rng)
            f = random_polynomial(chart, rng)
            lhs = courant_bracket(u, v.scale(f))
            rhs = (courant_bracket(u, v).scale(f) + v.scale(pi_derivative(u, f))
                   - GenSection.from_oneform(d_scalar(f)).scale(gv_inner(u, v)))
            assert (lhs - rhs).is_zero
        for _ in range(25):
            u, v, w = (random_section(chart, rng) for _ in range(3))
            lhs = pi_derivative(u, gv_inner(v, w))
            t1 = courant_bracket(u, v) + GenSection.from_oneform(d_scalar(gv_inner(u, v)))
            t2 = courant_bracket(u, w) + GenSection.from_oneform(d_scalar(gv_inner(u, w)))
            assert lhs == gv_inner(t1, w) + gv_inner(v, t2)
    report("criterion-2", True,
           "identities [u,fv]=f[u,v]+(pi(u)f)v-(u,v)df and "
           "pi(u)(v,w)=([u,v]+d(u,v),w)+(v,[u,w]+d(u,w)) exact, 100 cases each")


def test_criterion_03_bfield_invariance_and_defect():
    rng = random.Random(103)
    for case in range(50):
        dim = 3 + case % 3
        chart = Chart(dim)
        u = random_section(chart, rng)
        v = random_section(chart, rng)
        closed_b = exterior_derivative(random_mixed_form(chart, rng, degrees=(1,)))
        diff = (courant_bracket(bfield_on_section(closed_b, u), bfield_on_section(closed_b, v))
                - bfield_on_section(closed_b, courant_bracket(u, v)))
        assert diff.is_zero
        b = random_mixed_form(chart, rng, degrees=(2,))
        db = exterior_derivative(b)
        defect = (courant_bracket(bfield_on_section(b, u), bfield_on_section(b, v))
                  - bfield_on_section(b, courant_bracket(u, v)))
        assert defect.vector.is_zero
        assert defect.oneform == -interior_product(u.vector, interior_product(v.vector, db))
    report("criterion-3", True,
           "closed-B bracket invariance exact; non-closed defect = -i_X i_Y dB exact, 50 cases")


def test_criterion_04_skew_torsion():
    rng = random.Random(104)
    chart = Chart(3)
    points = [[Fraction(rng.randint(-1, 1), rng.randint(2, 4)) for _ in range(3)]
              for _ in range(20)]
    for _ in range(10):
        v = random_metric(chart, rng)
        g_only = GeneralizedMetric.from_g_and_b(
            chart, [[v.g_entry(i, j) for j in range(3)] for i in range(3)])
        deltas = coordinate_deltas(g_only)
        for pt in points:
            assert connection_at(g_only, pt, deltas) == christoffel_classical_at(g_only, pt)
        rep = torsion_check(v)
        assert rep.torsion_matches_minus_h and rep.metric_compatible

    # diagonal metric: the bracket expansion reproduces the displayed identity
    diag = [[Polynomial.zero(chart) for _ in range(3)] for _ in range(3)]
    for i in range(3):
        diag[i][i] = Polynomial.constant(chart, 1) + random_polynomial(
            chart, rng, max_degree=1, max_terms=1) * Polynomial.constant(chart, "1/4")
    vd = GeneralizedMetric.from_g_and_b(chart, diag)
    deltas = coordinate_deltas(vd)
    for i in range(3):
        for j in range(3):
            expected = MixedForm(chart, {(k,): (vd.g_entry(j, k).differentiate(i)
                                                + vd.g_entry(i, k).differentiate(j)
                                                - vd.g_entry(i, j).differentiate(k))
                                         for k in range(3)})
            assert deltas[i][j] == expected
            # 2 g_lk Gamma^l_ij dx_k, checked exactly at the sample points
            for pt in points[:5]:
                gamma = connection_at(vd, pt, deltas)
                for k in range(3):
                    lowered = 2 * sum(vd.g_entry(l, k).evaluate(pt) * gamma[l][i][j]
                                      for l in range(3))
                    assert lowered == expected.coefficient((k,)).evaluate(pt)
    report("criterion-4", True,
           "B=0 connection matches the classical Christoffel oracle exactly at 20 points x "
           "10 metrics; torsion = -i_X i_Y dB and metric compatibility exact; diagonal "
           "expansion (g_jk,i + g_ik,j - g_ij,k) dx_k = 2 g_lk Gamma^l_ij dx_k reproduced")


def test_criterion_05_twisted_differential():
    rng = random.Random(105)
    chart = Chart(4)
    for _ in range(50):
        psi = random_mixed_form(chart, rng)
        h = exterior_derivative(random_mixed_form(chart, rng, degrees=(2,)))
        assert twisted_differential(twisted_differential(psi, h), h).is_zero
    x1 = Polynomial.coordinate(chart, 0)
    a_ab = MixedForm.basis(chart, (1,), x1)
    b_a = MixedForm.basis(chart, (2, 3))
    cover = CoverData(chart, ["a", "b"], {("a", "b"): a_ab},
                      curving={"a": b_a, "b": b_a + exterior_derivative(a_ab)})
    assert check_cocycle(cover).valid
    for _ in range(5):
        phi_b = (MixedForm.function(chart, 2)
                 + exterior_derivative(random_mixed_form(chart, rng, degrees=(1, 3))))
        phi_a = bfield_on_form(exterior_derivative(a_ab), phi_b)
        psis = globalize_with_curving({"a": phi_a, "b": phi_b}, cover)
        assert psis["a"] == psis["b"]
        h_global = exterior_derivative(b_a)
        assert twisted_differential(psis["a"], h_global).is_zero
    report("criterion-5", True,
           "(d-H)^2 = 0 exact for 50 random (psi, closed H); two-chart curving "
           "globalization round-trips exactly")


def test_criterion_06_spin55_invariance():
    rng = random.Random(106)
    chart = Chart(5)
    nf = normal_form()
    for case in range(50):
        rho = nf if case % 2 else random_rho_pair(chart, rng)
        f = quartic_invariant(rho)
        b = random_mixed_form(chart, rng, degrees=(2,))
        assert quartic_invariant(rho.bfield(b)) == f
        a, bq, cq, d = (Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(4))
        det = a * d - bq * cq
        assert quartic_invariant(rho.gl2(a, bq, cq, d)) == f * (det * det)
    for _ in range(50):
        phi = random_mixed_form(chart, rng, degrees=(0, 2, 4))
        q = q_vector(phi)
        assert gv_inner(q, q).is_zero
    report("criterion-6", True,
           "f(e^B rho) = f(rho) and f(A rho) = (det A)^2 f(rho) exact, 50 cases each; "
           "(Q(phi), Q(phi)) = 0 exact, 50 cases")


def test_criterion_07_normal_form():
    nf = normal_form()
    chart = nf.chart
    f = quartic_invariant(nf)
    assert f == Polynomial.constant(chart, -8)

    res = variational_residual(nf)
    assert res.is_critical

    triple = v_triple(nf)
    expected_span = [
        GenSection(VectorField.coordinate(chart, 4), MixedForm.basis(chart, (0,))),  # d5 + dx1
        GenSection.from_vector(VectorField.coordinate(chart, 0)),                    # d1
        GenSection(VectorField.coordinate(chart, 1), MixedForm.basis(chart, (1,))),  # d2 + dx2
    ]
    assert triple.v1_dens == expected_span[0].scale(-4)
    assert triple.v2_dens == expected_span[1].scale(4)
    assert triple.h_dens == expected_span[2].scale(-2)

    commuting = commuting_triple_check(nf)
    assert commuting.all_zero

    # Eqs. relating xi_A, X_A to (c, omega, Y_A) with constants -4, -2, 4
    vol = MixedForm.volume(chart)
    for rho_a in (nf.rho1, nf.rho2):
        d = decompose(rho_a)
        assert d.xi_dens == interior_product(d.y_dens, d.omega2).scale(-4)
        assert (interior_product(d.x_dens, vol)
                == wedge(d.omega2, d.omega2).scale(-2)
                + interior_product(d.y_dens, vol).scale(d.c * 4))
    report("criterion-7", True,
           "normal form stable (f = -8), d rho = 0 and d rho_hat = 0 exact, triple spans "
           "{d5+dx1, d1, d2+dx2} exactly, all brackets zero, constants (-4, -2, 4) exact")


def test_criterion_08_gradient_check():
    from gengeo.spin55 import StabilityError

    rng = random.Random(108)
    chart = Chart(5)
    nf = normal_form()
    checked = 0
    worst = 0.0
    while checked < 10:
        bump = random_rho_pair(chart, rng)
        rho = nf + bump.scale(Fraction(1, 8))
        point = [Fraction(rng.randint(-2, 2), rng.randint(2, 4)) for _ in range(5)]
        if quartic_invariant(rho).evaluate(point) >= 0:
            continue  # stay inside the normal form's orbit at the point
        direction = random_rho_pair(chart, rng)
        try:
            err = volume_gradient_check(rho, direction, point, steps=(1e-3, 1e-4, 1e-5))
        except (ValueError, StabilityError):
            continue  # degenerate direction or off-orbit draw; redraw
        worst = max(worst, err)
        checked += 1
    report("criterion-8", worst < 1e-6,
           f"finite-difference volume derivative vs <rho_hat, .> pairing at 10 stable "
           f"points: best relative error {worst:.2e} < 1e-6")


# -- flow criteria (shared N=8 runs) -------------------------------------------


FLOW_N = 8
DT0 = 0.02


@pytest.fixture(scope="module")
def drift_runs():
    start = time.time()
    runs = {}
    for dt, steps in ((DT0, 100), (DT0 / 2, 200), (DT0 / 4, 400)):
        cfg = FlowConfig(n=FLOW_N, dt=dt, steps=steps, epsilon=1e-2)
        runs[dt] = run_flow(cfg)
    runs["elapsed"] = time.time() - start
    return runs


@pytest.fixture(scope="module")
def nahm_runs():
    runs = {}
    t_star = 1.0
    for dt in (0.04, 0.02, 0.01):
        steps = round(t_star / dt) + 1
        cfg = FlowConfig(n=FLOW_N, dt=dt, steps=steps, epsilon=1e-2, ring=3)
        runs[dt] = run_flow(cfg)
    return runs


@pytest.mark.slow
def test_criterion_09_flow(drift_runs):
    start = time.time()
    # fixed point
    cfg = FlowConfig(n=FLOW_N, dt=DT0, steps=1, epsilon=0.0)
    s0 = initial_state(cfg)
    s1 = flow_step(s0)
    fp = max(float(np.max(np.abs(s1.rho1 - s0.rho1))),
             float(np.max(np.abs(s1.rho2 - s0.rho2))))

    # V at fixed final time T = 100*dt0 for dt, dt/2, dt/4: Richardson order
    v_final = {dt: traj.diagnostics[-1]["hamiltonian"]
               for dt, traj in drift_runs.items() if dt != "elapsed"}
    d1 = abs(v_final[DT0] - v_final[DT0 / 2])
    d2 = abs(v_final[DT0 / 2] - v_final[DT0 / 4])
    order = math.log2(d1 / d2)

    # zero-Fourier modes along the base run
    drift = max(d["mean_mode_drift"] for d in drift_runs[DT0].diagnostics)
    elapsed = (time.time() - start) + drift_runs["elapsed"]

    ok = fp < 1e-12 and order >= 3.5 and drift < 1e-10 and elapsed < 300
    report("criterion-9", ok,
           f"N=8 fixed point {fp:.1e} < 1e-12/step; V(T=2) Richardson order "
           f"{order:.2f} >= 3.5 across dt, dt/2, dt/4 (eps = 1e-2); zero-mode drift "
           f"{drift:.1e} < 1e-10; runtime incl. the three runs {elapsed:.0f}s < 300s")


@pytest.mark.slow
def test_criterion_10_nahm_residual(nahm_runs):
    residuals = {}
    for dt, traj in nahm_runs.items():
        states = traj.states()
        assert abs(states[-2].t - 1.0) < 1e-9
        residuals[dt] = nahm_residual(states)
    r = [residuals[dt].total for dt in (0.04, 0.02, 0.01)]
    orders = [math.log2(r[0] / r[1]), math.log2(r[1] / r[2])]
    fine = residuals[0.01]
    lam_helps = fine.h_residual < fine.h_residual_lambda0
    hh2_lam_helps = fine.h_residual_lambda_hh2 < fine.h_residual_lambda0
    ok = min(orders) >= 1.8 and lam_helps and hh2_lam_helps
    report("criterion-10", ok,
           f"evolution-equation residual at t*=1.0 converges at orders "
           f"{orders[0]:.2f}, {orders[1]:.2f} >= 1.8 in dt; h-equation residual with the "
           f"trace-formula lambda {fine.h_residual:.2e} < lambda=0 value "
           f"{fine.h_residual_lambda0:.2e} (the (h,h)=2 normalization of lambda also smaller: "
           f"{fine.h_residual_lambda_hh2:.2e})")


@pytest.mark.slow
def test_criterion_11_sixdim(nahm_runs):
    z_sweep = (Fraction(1, 2), Fraction(-1, 2), Fraction(1), Fraction(-1),
               Fraction(2), Fraction(-2), Fraction(0), "inf")
    finest = nahm_runs[0.01]
    worst_ann = 0.0
    worst_iso = 0.0
    for z in z_sweep:
        slices = build_sigma(finest, z)
        for s in slices:
            av, aw = annihilator_check(s)
            worst_ann = max(worst_ann, av, aw)
        ez = ez_check(slices)
        worst_iso = max(worst_iso, ez.vv_max, ez.vw_max, ez.ww_max, ez.uu_minus_two_max)
    signature = gram_signature(build_sigma(finest, Fraction(1))[0])

    dsig = []
    for dt in (0.04, 0.02, 0.01):
        slices = build_sigma(nahm_runs[dt], Fraction(1))
        dsig.append(dsigma_residual(slices))
    ds_orders = [math.log2(dsig[0] / dsig[1]), math.log2(dsig[1] / dsig[2])]

    ok = (worst_ann < 1e-10 and worst_iso < 1e-10 and signature == (2, 2, 0)
          and min(ds_orders) >= 1.8)
    report("criterion-11", ok,
           f"v(z).sigma and w(z).sigma vanish to {worst_ann:.1e} < 1e-10 at every node for "
           f"z in {{+-1/2, +-1, +-2, 0, inf}}; annihilator Gram signature {signature[:2]} = "
           f"(2,2) at all nodes; |d sigma| decays at orders {ds_orders[0]:.2f}, "
           f"{ds_orders[1]:.2f} (order-2 in dt)")
