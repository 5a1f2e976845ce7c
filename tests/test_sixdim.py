from fractions import Fraction

import numpy as np
import pytest

from gengeo import sixdim
from gengeo.flow import FlowConfig, run_flow, stability_field
from gengeo.sixdim import (DEFAULT_Z_SWEEP, annihilator_check, annihilator_nullity,
                           build_sigma, check_trajectory, courant_bracket_6d,
                           dsigma_residual, ez_check, gram_signature, parse_z_list)
from gengeo.spin55 import StabilityError
from gengeo.tables import QTables

N = 4


def stationary_traj(steps=2):
    return run_flow(FlowConfig(n=N, dt=0.02, steps=steps, epsilon=0.0))


def perturbed_traj(steps=4, dt=0.02):
    return run_flow(FlowConfig(n=N, dt=dt, steps=steps, epsilon=1e-2))


def test_parse_z_list():
    zs = parse_z_list("1, -1/2, 0, inf")
    assert zs == [Fraction(1), Fraction(-1, 2), Fraction(0), "inf"]


def test_sigma_linearity_in_z():
    traj = stationary_traj()
    s0 = build_sigma(traj, Fraction(0))[0]
    sinf = build_sigma(traj, "inf")[0]
    s2 = build_sigma(traj, Fraction(2))[0]
    assert np.allclose(s2.sigma, s0.sigma + 2.0 * sinf.sigma, atol=1e-13)


@pytest.mark.parametrize("z", DEFAULT_Z_SWEEP)
def test_annihilators_vanish_stationary(z):
    traj = stationary_traj()
    for s in build_sigma(traj, z):
        av, aw = annihilator_check(s)
        assert av < 1e-12 and aw < 1e-12


def test_annihilators_vanish_perturbed_nodes():
    # the annihilation is pointwise-algebraic: it holds on flowed data too
    traj = perturbed_traj()
    for z in (Fraction(1), Fraction(-2), Fraction(0), "inf"):
        s = build_sigma(traj, z)[-1]
        av, aw = annihilator_check(s)
        assert av < 1e-10 and aw < 1e-10


def test_isotropy_and_u_norm():
    traj = perturbed_traj()
    slices = build_sigma(traj, Fraction(1, 2))
    ez = ez_check(slices)
    assert ez.isotropy_residual < 1e-10
    assert ez.uu_minus_two_max < 1e-10
    assert sixdim._dt_section_norm() == -2.0


def test_bracket_residual_stationary_zero():
    slices = build_sigma(stationary_traj(), Fraction(1))
    ez = ez_check(slices)
    assert ez.bracket_residual < 1e-12
    assert ez.lambda_max < 1e-12


def test_dsigma_stationary_zero_and_perturbed_small():
    assert dsigma_residual(build_sigma(stationary_traj(), Fraction(1))) < 1e-12
    res = dsigma_residual(build_sigma(perturbed_traj(), Fraction(1)))
    assert 0 < res < 1.0


def test_dsigma_second_order_in_dt():
    # fixed evaluation time t* = 0.08, time error dominates at coarse dt
    vals = []
    for dt, steps in ((0.04, 3), (0.02, 5)):
        traj = run_flow(FlowConfig(n=N, dt=dt, steps=steps, epsilon=1e-2, ring=3))
        # ring holds the last 3 states; centre them at t* by construction
        target = [s for s in traj.states()]
        while target[-2].t > 0.08 + 1e-9:
            target.pop()
        slices = build_sigma(target[-3:], Fraction(1))
        vals.append(dsigma_residual(slices))
    order = np.log2(vals[0] / vals[1])
    assert order > 1.5


def test_gram_signature_2_2():
    for traj in (stationary_traj(), perturbed_traj()):
        s = build_sigma(traj, Fraction(1))[0]
        assert gram_signature(s) == (2, 2, 0)


def test_a_signature_that_varies_across_nodes_raises():
    # node 0 adds the positive direction (v1, v1) = 1 that node 1 lacks
    triple = np.zeros((3, 10, 2))
    triple[0, 0, 0] = triple[0, 5, 0] = 1.0        # v1 = d/dx1 + dx1 at node 0 only
    with pytest.raises(sixdim.SignatureError, match="signature varies across nodes"):
        sixdim._triple_signature(tuple(triple))


def test_check_trajectory_needs_a_state():
    with pytest.raises(ValueError, match="no states to build sigma from"):
        check_trajectory([])


def test_nullity_exactly_two():
    s = build_sigma(stationary_traj(), Fraction(1))[0]
    assert annihilator_nullity(s) == 2


def test_corrupted_sigma_detected():
    traj = stationary_traj()
    s = build_sigma(traj, Fraction(1))[0]
    s.sigma[0] += 0.1
    av, aw = annihilator_check(s)
    assert max(av, aw) > 1e-3


def test_check_trajectory_report():
    traj = perturbed_traj()
    rep = check_trajectory(traj, (Fraction(1), Fraction(-1), Fraction(0), "inf"))
    assert rep.signature == (2, 2, 0)
    assert max(list(rep.annihilator_v.values()) + list(rep.annihilator_w.values())) < 1e-10
    assert all(nullity >= 2 for nullity in rep.nullity.values())
    assert all(ez.isotropy_residual < 1e-10 for ez in rep.ez.values())


def test_an_empty_z_list_reports_the_real_signature():
    # the signature was the placeholder (0, 0, 0) when no z was given
    rep = check_trajectory(perturbed_traj(), [])
    assert rep.signature == (2, 2, 0)
    assert rep.z_values == [] and not rep.ez


def test_courant_bracket_6d_time_term():
    # u = d/dt, v = time-dependent spatial one-form: [d/dt, v] = dv/dt
    n = N
    shape = (12,) + (n,) * 5
    w = [np.zeros(shape) for _ in range(3)]
    v = [np.zeros(shape) for _ in range(3)]
    for k, s in enumerate(w):
        s[0] = 1.0
    for k, s in enumerate(v):
        s[7] = float(k)  # dx1 coefficient growing linearly in t
    dt = 0.5
    out = courant_bracket_6d(w, v, dt)
    # [d/dt, eta] = d(eta)/dt, central difference (2 - 0)/(2 dt)
    assert np.allclose(out[7], (2.0 - 0.0) / (2 * dt))
    mask = [k for k in range(12) if k != 7]
    assert np.max(np.abs(out[mask])) < 1e-12


def test_full_sweep_matches_fresh_per_z_calls():
    traj = perturbed_traj()
    full = check_trajectory(traj)
    for z in DEFAULT_Z_SWEEP:
        key = str(z)
        # copies carry no memo, so each per-z report is evaluated from scratch
        per = check_trajectory([s.copy() for s in traj.states()], [z])
        assert per.annihilator_v[key] == full.annihilator_v[key]
        assert per.annihilator_w[key] == full.annihilator_w[key]
        assert per.nullity[key] == full.nullity[key]
        assert per.ez[key] == full.ez[key]
        assert per.dsigma[key] == full.dsigma[key]
        assert per.signature == full.signature
    assert check_trajectory(traj) == full


def _count_spin_calls(monkeypatch):
    """Count sixdim's rho_hat_grid calls and every Q(rho) evaluation."""
    calls = {"rho_hat_grid": 0, "q_apply": 0}
    original_hat, original_q = sixdim.rho_hat_grid, QTables.q_apply

    def hat_spy(*args, **kwargs):
        calls["rho_hat_grid"] += 1
        return original_hat(*args, **kwargs)

    def q_spy(self, phi, *buffers):
        calls["q_apply"] += 1
        return original_q(self, phi, *buffers)

    monkeypatch.setattr(sixdim, "rho_hat_grid", hat_spy)
    monkeypatch.setattr(QTables, "q_apply", q_spy)
    return calls


def test_spin_fields_evaluated_once_per_state(monkeypatch):
    traj = perturbed_traj()
    states = traj.states()
    floor = min(float(np.min(np.abs(stability_field(s.rho1, s.rho2)))) for s in states)
    calls = _count_spin_calls(monkeypatch)
    check_trajectory(traj)
    check_trajectory(traj, [Fraction(1)])
    build_sigma(traj, "inf")
    # one spin evaluation (Q(rho1), Q(rho2)) per state feeds both the hats and the triple
    assert calls == {"rho_hat_grid": len(states), "q_apply": 2 * len(states)}

    # a different floor re-evaluates; one at or above min|f| still raises
    build_sigma(traj, Fraction(1), floor=floor / 2)
    assert calls == {"rho_hat_grid": 2 * len(states), "q_apply": 4 * len(states)}
    with pytest.raises(StabilityError):
        build_sigma(traj, Fraction(1), floor=floor)


def test_memoized_state_is_read_only_and_copies_start_empty():
    traj = perturbed_traj()
    state = traj.states()[-1]
    s = build_sigma(traj, Fraction(1))[-1]
    assert state.spin is not None
    with pytest.raises(ValueError, match="read-only"):
        state.rho1[0] += 1.0
    with pytest.raises(ValueError, match="read-only"):
        s.spin.triple[1][0] += 1.0
    # the slice reads its spatial parts back from sigma
    maps = sixdim._index_maps()
    assert np.array_equal(s.sigma[maps["even5_even6"]], state.rho1 + state.rho2)
    assert np.array_equal(s.sigma[maps["odd5_dt_even6"]], state.spin.hat1 + state.spin.hat2)
    fresh = state.copy()
    assert fresh.spin is None
    fresh.rho1[0] += 1.0


def test_bracket_lambda_evaluated_once_per_state_and_method(monkeypatch):
    traj = perturbed_traj()
    calls = []
    original = sixdim.courant_bracket_grid

    def spy(u, v, method):
        calls.append(method)
        return original(u, v, method)

    monkeypatch.setattr(sixdim, "courant_bracket_grid", spy)
    full = check_trajectory(traj)
    assert check_trajectory(traj) == full
    assert calls == ["spectral"]          # only the middle state's ez_check needs it
    fd4 = check_trajectory(traj, [Fraction(1)], method="fd4")
    check_trajectory(traj, [Fraction(-1)], method="fd4")
    assert calls == ["spectral", "fd4"]
    lam = traj.states()[-2].spin.lambdas["fd4"]
    with pytest.raises(ValueError, match="read-only"):
        lam[0] += 1.0
    # a memoized fd4 report equals one evaluated from scratch on copies (the
    # spectral sweep is compared in test_full_sweep_matches_fresh_per_z_calls)
    fresh = check_trajectory([s.copy() for s in traj.states()], [Fraction(1)], method="fd4")
    assert fresh == fd4
