"""The z checks on the two-thread helper: every report stays the serial one.

``annihilator_check`` builds v(z).sigma on half 0 of ``flow._halves`` and w(z).sigma
on half 1, each in its own two components of the workspace's ``out``, and
``courant_bracket_6d`` writes the gradient of v on the helper.  These tests pin,
as ``tests/test_flow_workspace.py`` does for the flow, that the halves run on two
threads, that a one-CPU process runs them inline with the same reports, that a
fault in either half is raised only after both halves have stopped, and that
repeated and concurrent runs keep every report ``==``.
"""

import sys
import threading
import time

import numpy as np
import pytest

from gengeo import flow, sixdim
from gengeo.flow import FlowConfig, run_flow
from gengeo.sixdim import check_trajectory

ANNIHILATOR = "annihilator_check.<locals>.half"
BRACKET = "courant_bracket_6d.<locals>.half"


def flowed():
    return run_flow(FlowConfig(n=4, dt=0.02, steps=3, epsilon=2e-2))


def copies(traj):
    """The trajectory's states with no memo: a fresh workspace on the next check."""
    return [s.copy() for s in traj.states()]


@pytest.fixture(scope="module")
def serial():
    """A trajectory and its report with both halves inline on the calling thread."""
    traj = flowed()
    cpus = flow._cpus
    flow._cpus = lambda: 1
    try:
        return traj, check_trajectory(copies(traj))
    finally:
        flow._cpus = cpus


def spy_halves(monkeypatch, inject=None):
    """Record (half's qualname, i, thread ident) of every z-check half; ``inject(name,
    i, fn)``, if given, runs each half in place of fn(i)."""
    seen = []
    halves = flow._halves

    def spy(fn):
        def half(i):
            seen.append((fn.__qualname__, i, threading.get_ident()))
            return inject(fn.__qualname__, i, fn) if inject else fn(i)
        return halves(half)

    monkeypatch.setattr(sixdim, "_halves", spy)
    return seen


def idents(seen, name):
    return {i: {ident for qualname, half, ident in seen if qualname == name and half == i}
            for i in (0, 1)}


@pytest.mark.skipif(flow._cpus() < 2, reason="the halves run inline on one CPU")
def test_the_z_check_halves_run_on_two_threads(monkeypatch, serial):
    traj, want = serial
    seen = spy_halves(monkeypatch)
    assert check_trajectory(copies(traj)) == want
    for name, calls in ((ANNIHILATOR, 3 * 8), (BRACKET, 8)):
        assert sum(qualname == name for qualname, _, _ in seen) == 2 * calls
        threads = idents(seen, name)
        assert threads[0] == {threading.get_ident()}
        assert len(threads[1]) == 1 and threads[1] != threads[0]


def test_one_cpu_runs_both_halves_inline_with_the_same_reports(monkeypatch, serial):
    traj, want = serial
    seen = spy_halves(monkeypatch)
    monkeypatch.setattr(flow, "_cpus", lambda: 1)
    assert check_trajectory(copies(traj)) == want
    assert {ident for _, _, ident in seen} == {threading.get_ident()}


@pytest.mark.parametrize("bad", [0, 1])
def test_a_fault_in_either_annihilator_half_is_raised_after_both_halves_stop(
        monkeypatch, serial, bad):
    traj, want = serial
    finished = []

    def faulty(name, i, fn):
        if name != ANNIHILATOR:
            return fn(i)
        if i == bad:
            raise FloatingPointError(f"half {i}")
        time.sleep(0.05)                    # the other half is still writing
        result = fn(i)
        finished.append(i)
        return result

    spy_halves(monkeypatch, faulty)
    states = copies(traj)
    with pytest.raises(FloatingPointError, match=f"half {bad}"):
        check_trajectory(states)
    # inline on one CPU, half 1 never starts once half 0 has raised
    assert finished == ([1 - bad] if flow._cpus() >= 2 or bad else [])
    ws = states[0].spin.workspace
    before = ws.out.copy()
    time.sleep(0.1)
    assert np.array_equal(ws.out, before, equal_nan=True)
    monkeypatch.undo()
    assert check_trajectory(states) == want


def test_repeated_threaded_runs_keep_every_report(serial):
    traj, want = serial
    states = copies(traj)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)             # switch threads far more often than usual
    try:
        for _ in range(10):
            assert check_trajectory(states) == want
    finally:
        sys.setswitchinterval(interval)


def test_concurrent_callers_on_separate_trajectories_get_the_serial_report(serial):
    traj, want = serial
    got = []

    def caller():
        got.append(check_trajectory(copies(traj)))

    callers = [threading.Thread(target=caller, daemon=True) for _ in range(2)]
    for t in callers:
        t.start()
    for t in callers:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in callers)
    assert got == [want] * 2
