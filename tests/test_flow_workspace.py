"""The RK4 step runs in one preallocated Workspace and changes no result.

``flow_step`` writes every stage input, slope, Q/f field and hat component
into the workspace's buffers, so a step with a warm workspace allocates only
the returned (rho1, rho2) pair.  These tests compare it bit for bit with the
allocating RK4 formula as the reference, bound its traced peak, and check
that no state it returns or that ``run_flow`` keeps aliases a buffer.

The rho1 and rho2 halves of each stage run on two threads (``flow._halves``):
the tests below also pin that they do, that repeated and concurrent runs keep
every bit, that a fault in either half is raised only after both halves have
stopped, and that nested and one-CPU calls run inline.
"""

import hashlib
import os
import sys
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from gengeo import flow
from gengeo.flow import (FlowConfig, GridState, Workspace, flow_step, grid_d, initial_state,
                         run_flow)
from gengeo.tables import form_tables, q_tables, section_inner

N = 4
GRID = (N,) * 5
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
    ws = Workspace(GRID)
    got = want = perturbed(dt, method)
    for _ in range(3):
        got, want = flow_step(got, method, FLOOR, ws), reference_step(want, method, FLOOR)
        assert_bitwise(got, want)
    # a fresh workspace per call gives the same bits
    assert_bitwise(flow_step(want, method, FLOOR), reference_step(want, method, FLOOR))


def test_zero_dt_returns_an_unaliased_copy():
    ws = Workspace(GRID)
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
    flow_step(s, ws=Workspace(GRID))
    assert_bitwise(s, before)


@pytest.mark.parametrize("method", ["spectral", "fd4"])
def test_warm_step_allocates_only_its_result(method):
    # Measured at N=4: the returned pair plus 12,792-13,096 B of small objects
    # (v = Q / phi is divided per component, so no ufunc buffer of np.getbufsize()
    # doubles, 65,536 B, is taken, nor one per thread); the bound leaves room for
    # that buffer and 4 scalar fields (8,192 B each).  One more per-stage
    # 16-component field would add 131,072 B.
    ws = Workspace(GRID)
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
        def __init__(self, grid):
            super().__init__(grid)
            made.append(self)

    monkeypatch.setattr(flow, "Workspace", Recorded)
    traj = run_flow(FlowConfig(n=N, dt=0.02, steps=5, ring=4, epsilon=0.05))
    assert len(made) == 1
    arrays = [a for s in traj.states() for a in (s.rho1, s.rho2)]
    buffers = list(_buffers(made[0]))
    # the one Workspace's q1, q2, f, phi, terms, v (one per half), hat (one component
    # per half), stage and k
    assert len(arrays) == 8 and len(buffers) == 9
    for i, a in enumerate(arrays):
        assert not any(np.shares_memory(a, b) for b in arrays[i + 1:] + buffers)
    assert traj.final is traj.states()[-1]


# -- the two halves on two threads ------------------------------------------------


def digest(state):
    return hashlib.sha256(state.rho1.tobytes() + state.rho2.tobytes()).hexdigest()


def spy_slope_threads(monkeypatch):
    """Record (half, thread ident) of every slope half flow_step runs."""
    seen = []
    slope = flow._slope

    def spy(spin, i, *args):
        seen.append((i, threading.get_ident()))
        return slope(spin, i, *args)

    monkeypatch.setattr(flow, "_slope", spy)
    return seen


@pytest.mark.skipif(flow._cpus() < 2, reason="the halves run inline on one CPU")
def test_the_halves_run_on_two_threads(monkeypatch):
    seen = spy_slope_threads(monkeypatch)
    flow_step(perturbed(0.02, "spectral"), ws=Workspace(GRID))
    assert len(seen) == 8
    idents = {i: {ident for half, ident in seen if half == i} for i in (0, 1)}
    assert idents[0] == {threading.get_ident()}
    assert len(idents[1]) == 1 and idents[1] != idents[0]


def test_one_cpu_runs_both_halves_inline_with_the_same_bits(monkeypatch):
    seen = spy_slope_threads(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    start = perturbed(0.02, "fd4")
    assert_bitwise(flow_step(start, "fd4", FLOOR, Workspace(GRID)),
                   reference_step(start, "fd4", FLOOR))
    assert {ident for _, ident in seen} == {threading.get_ident()}


@pytest.mark.parametrize("method", ["spectral", "fd4"])
@pytest.mark.parametrize("dt", [0.02, -0.03])
def test_repeated_threaded_runs_keep_every_bit(method, dt):
    want = [perturbed(dt, method)]
    for _ in range(3):
        want.append(reference_step(want[-1], method, FLOOR))
    want = [digest(s) for s in want[1:]]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)             # switch threads far more often than usual
    try:
        for _ in range(20):
            ws, got = Workspace(GRID), []
            s = perturbed(dt, method)
            for _ in range(3):
                s = flow_step(s, method, FLOOR, ws)
                got.append(digest(s))
            assert got == want
    finally:
        sys.setswitchinterval(interval)


def test_concurrent_callers_share_the_helper_and_keep_every_bit():
    # more callers than cores, each with its own workspace, all through one helper
    start = perturbed(0.02, "spectral")
    want = digest(reference_step(reference_step(start, "spectral", FLOOR), "spectral", FLOOR))
    got = []

    def caller():
        ws = Workspace(GRID)
        got.append(digest(flow_step(flow_step(start, ws=ws), ws=ws)))

    callers = [threading.Thread(target=caller, daemon=True) for _ in range(4)]
    for t in callers:
        t.start()
    for t in callers:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in callers)
    assert got == [want] * 4


@pytest.mark.parametrize("bad", [0, 1])
def test_a_fault_in_either_half_is_raised_after_both_halves_stop(monkeypatch, bad):
    slope = flow._slope
    finished = []

    def faulty(spin, i, *args):
        if i == bad:
            raise FloatingPointError(f"half {i}")
        time.sleep(0.05)                    # the other half is still writing
        slope(spin, i, *args)
        finished.append(i)

    monkeypatch.setattr(flow, "_slope", faulty)
    ws = Workspace(GRID)
    start = perturbed(0.02, "spectral")
    with pytest.raises(FloatingPointError, match=f"half {bad}"):
        flow_step(start, ws=ws)
    assert finished == [1 - bad]
    before = [b.copy() for b in _buffers(ws)]
    time.sleep(0.1)
    assert all(np.array_equal(a, b, equal_nan=True) for a, b in zip(before, _buffers(ws)))
    monkeypatch.undo()
    assert_bitwise(flow_step(start, ws=ws), reference_step(start, "spectral", FLOOR))


def test_a_nested_call_runs_inline_instead_of_deadlocking():
    result = []

    def outer(i):
        return flow._halves(lambda j: (i, j, threading.get_ident()))

    t = threading.Thread(target=lambda: result.append(flow._halves(outer)), daemon=True)
    t.start()
    t.join(timeout=30)
    assert not t.is_alive()
    (inner0, inner1), = result
    assert [h[:2] for h in inner0 + inner1] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert inner1[0][2] == inner1[1][2]     # the helper's nested halves ran on the helper


def test_the_helper_keeps_no_task_after_it_returns():
    class Task:
        def __call__(self, i):
            return i

    task = Task()
    ref = weakref.ref(task)
    assert flow._halves(task) == [0, 1]
    del task
    assert ref() is None


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_starts_its_own_helper():
    # the parent's helper thread does not exist in a forked child
    assert flow._halves(lambda i: i) == [0, 1]
    pid = os.fork()
    if pid == 0:                            # the child: exit 0 once both halves ran
        try:
            os._exit(0 if flow._halves(lambda i: i) == [0, 1] else 1)
        finally:
            os._exit(2)
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        time.sleep(0.01)
    else:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
        pytest.fail("the forked child's halves did not finish")
    assert os.waitstatus_to_exitcode(status) == 0
