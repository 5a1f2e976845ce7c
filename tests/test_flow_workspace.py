"""The RK4 step runs in one preallocated Workspace and changes no result.

``flow_step`` writes every stage input, slope, Q/f field and hat into the
workspace's buffers, so a step with a warm workspace allocates only the
returned (rho1, rho2) pair.  These tests compare it bit for bit with the
allocating RK4 formula as the reference, bound its traced peak, and check
that no state it returns or that ``run_flow`` keeps aliases a buffer.
"""

import tracemalloc

import numpy as np
import pytest

from gengeo import flow
from gengeo.flow import (FlowConfig, GridState, Workspace, flow_step, grid_d, initial_state,
                         run_flow)
from gengeo.tables import form_tables, q_tables, section_inner

N = 4
FLOOR = 1e-6


def perturbed(dt, method):
    return initial_state(FlowConfig(n=N, dt=dt, epsilon=0.05, method=method))


# -- reference: the allocating RK4 formula, one new array per operation ----------


def reference_rhs(rho1, rho2, n, method, floor, t):
    qt, ft = q_tables(), form_tables(5)
    q1, q2 = qt.q_apply(rho1), qt.q_apply(rho2)
    f = section_inner(q1, q2, 5)
    sign = flow._check_stability(f, floor, t)
    phi = np.sqrt(np.abs(f))
    hat1 = ft.clifford_apply(q1 / phi, rho2, 0) * sign
    hat2 = ft.clifford_apply(q2 / phi, rho1, 0) * (-sign)
    return grid_d(hat1, 1, n, method), grid_d(hat2, 1, n, method)


def reference_step(state, method, floor):
    n, dt, t = state.n, state.dt, state.t
    r1, r2 = state.rho1, state.rho2
    k1 = reference_rhs(r1, r2, n, method, floor, t)
    k2 = reference_rhs(r1 + 0.5 * dt * k1[0], r2 + 0.5 * dt * k1[1], n, method, floor,
                       t + 0.5 * dt)
    k3 = reference_rhs(r1 + 0.5 * dt * k2[0], r2 + 0.5 * dt * k2[1], n, method, floor,
                       t + 0.5 * dt)
    k4 = reference_rhs(r1 + dt * k3[0], r2 + dt * k3[1], n, method, floor, t + dt)
    new1 = r1 + (dt / 6.0) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
    new2 = r2 + (dt / 6.0) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
    return GridState(n, new1, new2, t + dt, dt)


def assert_bitwise(got, want):
    for a, b in ((got.rho1, want.rho1), (got.rho2, want.rho2)):
        assert np.array_equal(a, b)
        assert np.array_equal(np.signbit(a), np.signbit(b))
    assert got.t == want.t and got.dt == want.dt


@pytest.mark.parametrize("method", ["spectral", "fd4"])
@pytest.mark.parametrize("dt", [0.02, -0.03])
def test_workspace_step_matches_allocating_formula_bitwise(method, dt):
    ws = Workspace(N)
    got = want = perturbed(dt, method)
    for _ in range(3):
        got, want = flow_step(got, method, FLOOR, ws), reference_step(want, method, FLOOR)
        assert_bitwise(got, want)
    # a fresh workspace per call gives the same bits
    assert_bitwise(flow_step(want, method, FLOOR), reference_step(want, method, FLOOR))


def test_zero_dt_returns_an_unaliased_copy():
    ws = Workspace(N)
    s = perturbed(0.0, "spectral")
    s1 = flow_step(s, ws=ws)
    assert s1 is not s and s1.t == s.t
    for new, old in ((s1.rho1, s.rho1), (s1.rho2, s.rho2)):
        assert np.array_equal(new, old)
        assert not np.shares_memory(new, old)


def test_flow_step_never_writes_its_input():
    s = perturbed(0.02, "spectral")
    before = s.copy()
    s.rho1.flags.writeable = s.rho2.flags.writeable = False    # a write would raise
    flow_step(s, ws=Workspace(N))
    assert_bitwise(s, before)


@pytest.mark.parametrize("method", ["spectral", "fd4"])
def test_warm_step_allocates_only_its_result(method):
    # Measured at N=4: the returned pair plus 68,016-68,200 B, of which
    # 65,536 B is numpy's ufunc buffer (np.getbufsize() doubles, used by the
    # broadcast v = Q / phi at this size) and the rest small objects; the bound
    # leaves room for 4 scalar fields (8,192 B each).  One more per-stage
    # 16-component field would add 131,072 B.
    ws = Workspace(N)
    s = flow_step(perturbed(0.02, method), method, FLOOR, ws)
    tracemalloc.start()
    try:
        out = flow_step(s, method, FLOOR, ws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    scalar = out.rho1[0].nbytes
    assert peak <= out.rho1.nbytes + out.rho2.nbytes + 8 * np.getbufsize() + 4 * scalar


def _buffers(ws):
    for value in vars(ws).values():
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, tuple):
            yield from value


def test_ring_states_share_no_memory(monkeypatch):
    made = []

    class Recorded(Workspace):
        def __init__(self, n):
            super().__init__(n)
            made.append(self)

    monkeypatch.setattr(flow, "Workspace", Recorded)
    traj = run_flow(FlowConfig(n=N, dt=0.02, steps=5, ring=4, epsilon=0.05))
    assert len(made) == 1
    arrays = [a for s in traj.states() for a in (s.rho1, s.rho2)]
    buffers = list(_buffers(made[0]))
    assert len(arrays) == 8 and len(buffers) == 9
    for i, a in enumerate(arrays):
        assert not any(np.shares_memory(a, b) for b in arrays[i + 1:] + buffers)
    assert traj.final is traj.states()[-1]
