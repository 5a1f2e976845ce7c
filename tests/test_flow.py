import json
import tracemalloc

import numpy as np
import pytest

from gengeo import flow
from gengeo.flow import (FlowConfig, Trajectory, central_window, closedness_norms,
                         courant_bracket_grid, derivative_matrix, flow_step, gradient, grid_d,
                         hamiltonian, initial_state, nahm_residual, perturbation_forms,
                         rho_hat_grid, run_flow, signed_triple, spectral_gradient,
                         stability_field)
from gengeo.spin55 import StabilityError
from gengeo.tables import form_tables

N = 4


def small_cfg(**kw):
    base = dict(n=N, dt=0.02, steps=4, epsilon=1e-2)
    base.update(kw)
    return FlowConfig(**base)


def meshes(n):
    x = np.arange(n) * (2 * np.pi / n)
    return np.meshgrid(*(x,) * 5, indexing="ij")


def test_config_validation():
    with pytest.raises(ValueError):
        FlowConfig(n=2)
    with pytest.raises(ValueError):
        FlowConfig(method="upwind")
    with pytest.raises(ValueError):
        FlowConfig.from_json_obj({"n": 4, "bogus": 1})
    with pytest.raises(ValueError, match="unknown derivative method 'x'"):
        derivative_matrix(8, "x")


def test_spectral_gradient_analytic():
    X = meshes(8)
    field = np.zeros((2, 8, 8, 8, 8, 8))
    field[0] = np.sin(X[1]) * np.cos(X[4])
    g = spectral_gradient(field)
    assert np.allclose(g[1][0], np.cos(X[1]) * np.cos(X[4]), atol=1e-12)
    assert np.allclose(g[4][0], -np.sin(X[1]) * np.sin(X[4]), atol=1e-12)
    assert np.allclose(g[0][0], 0, atol=1e-13)
    const = np.ones((1, 8, 8, 8, 8, 8))
    assert np.allclose(spectral_gradient(const), 0, atol=1e-14)


def test_fd4_gradient_order():
    # 1-d profile along the first spatial axis; the other axes are constant
    errs = []
    for n in (8, 16):
        x = np.arange(n) * (2 * np.pi / n)
        field = np.zeros((1, n, n, n, n, n))
        field[0] = np.sin(x).reshape(n, 1, 1, 1, 1)
        g = gradient(field, "fd4")
        expected = np.broadcast_to(np.cos(x).reshape(n, 1, 1, 1, 1), (n,) * 5)
        errs.append(np.max(np.abs(g[0][0] - expected)))
    order = np.log2(errs[0] / errs[1])
    assert order > 3.5


def test_grid_d_squared_zero():
    rng = np.random.default_rng(5)
    fields = rng.normal(size=(16, N, N, N, N, N))
    # band-limit by a spectral round trip at this N: any sampled data works
    dd = grid_d(grid_d(fields, 1), 0)
    assert np.max(np.abs(dd)) < 1e-10 * max(1.0, np.max(np.abs(fields)))


def test_grid_d_matches_analytic():
    X = meshes(N)
    from gengeo.tables import form_tables

    ft = form_tables(5)
    fields = np.zeros((16, N, N, N, N, N))
    slot = ft.pos[(1,)][1]  # dx2 coefficient
    fields[slot] = np.sin(X[0])
    out = grid_d(fields, 1)
    dst = ft.pos[(0, 1)][1]
    assert np.allclose(out[dst], np.cos(X[0]), atol=1e-12)
    others = [k for k in range(16) if k != dst]
    assert np.max(np.abs(out[others])) < 1e-12


def _tensordot_gradient(fields, n, method):
    dmat = derivative_matrix(n, method)
    axes = [fields.ndim - 5 + i for i in range(5)]
    return np.stack([np.moveaxis(np.tensordot(dmat, fields, axes=([1], [a])), 0, a)
                     for a in axes])


@pytest.mark.parametrize("n", [5, 8])
@pytest.mark.parametrize("method", ["spectral", "fd4"])
@pytest.mark.parametrize("parity", [0, 1])
def test_grid_d_matches_full_gradient_assembly(n, method, parity):
    # n = 5 covers odd n; every n runs the last axis through the single-GEMM path
    rng = np.random.default_rng(10 * n + parity)
    fields = rng.normal(size=(16,) + (n,) * 5)
    grad = gradient(fields, method)
    assert np.max(np.abs(grad - _tensordot_gradient(fields, n, method))) <= 1e-13
    ref = np.zeros((16,) + (n,) * 5)
    for i, src, dst, sign in form_tables(5).ext[parity]:
        ref[dst] += sign * grad[i, src]
    assert np.max(np.abs(grid_d(fields, parity, method) - ref)) <= 1e-13


@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("method", ["spectral", "fd4"])
@pytest.mark.parametrize("parity", [0, 1])
def test_grid_d_allocates_its_output_and_one_component(n, method, parity):
    # a gathered copy of the sources or per-axis derivative blocks would add
    # 8 components or more to the peak
    fields = np.random.default_rng(n + parity).normal(size=(16,) + (n,) * 5)
    grid_d(fields, parity, method)                # warm the table and matrix caches
    tracemalloc.start()
    try:
        out = grid_d(fields, parity, method)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + 2 * fields[0].nbytes


def test_rk4_stages_receive_their_times(monkeypatch):
    # each stage's Q/f evaluation gets the stage time for its stability messages
    seen = []
    pointwise_spin = flow._pointwise_spin

    def spy(rho1, rho2, floor, t, ws=None):
        seen.append(t)
        return pointwise_spin(rho1, rho2, floor, t, ws)

    monkeypatch.setattr(flow, "_pointwise_spin", spy)
    s = initial_state(small_cfg(dt=0.02))
    s.t = 0.5
    flow_step(s)
    assert seen == pytest.approx([0.5, 0.51, 0.51, 0.52], abs=1e-15)


def test_recorded_diagnostics_match_state_functions():
    traj = run_flow(small_cfg(steps=3, ring=4))
    states = traj.states()
    assert [s.t for s in states] == [d["t"] for d in traj.diagnostics]
    for s, entry in zip(states, traj.diagnostics):
        assert entry["hamiltonian"] == hamiltonian(s)
        assert entry["min_abs_f"] == float(np.min(np.abs(stability_field(s.rho1, s.rho2))))


def test_normal_form_fixed_point():
    cfg = small_cfg(epsilon=0.0)
    s0 = initial_state(cfg)
    s1 = flow_step(s0)
    assert np.array_equal(s1.rho1, s0.rho1)
    assert np.array_equal(s1.rho2, s0.rho2)
    assert hamiltonian(s0) == pytest.approx(np.sqrt(8) * (2 * np.pi) ** 5)


def test_zero_dt_is_identity():
    s = initial_state(small_cfg(dt=0.0))
    s1 = flow_step(s)
    assert np.array_equal(s1.rho1, s.rho1) and s1.t == s.t


def test_volume_scales_quadratically():
    s = initial_state(small_cfg())
    doubled = s.copy()
    doubled.rho1 *= 2.0
    doubled.rho2 *= 2.0
    assert hamiltonian(doubled) == pytest.approx(4 * hamiltonian(s))


def test_volume_drift_is_a_property_of_the_flow_of_order_eps4():
    # V(T) - V(0) at T = 0.2, N = 6, default perturbation: measured -7.570088e-7 at
    # eps = 0.01 (dt = 0.02 and 0.01 agree to 4.8e-6 relative, so the drift is the
    # flow's, not RK4's) and -1.215301e-5 at eps = 0.02, a ratio of 16.05 (O(eps^4))
    def drift(dt, epsilon):
        traj = run_flow(FlowConfig(n=6, dt=dt, steps=round(0.2 / dt), epsilon=epsilon,
                                   diagnostics=("hamiltonian",)))
        assert traj.diagnostics[-1]["t"] == pytest.approx(0.2)
        return traj.diagnostics[-1]["hamiltonian"] - traj.diagnostics[0]["hamiltonian"]

    base = drift(0.02, 0.01)
    assert base < 0
    assert drift(0.01, 0.01) == pytest.approx(base, rel=1e-5, abs=0)
    assert 15.5 <= drift(0.02, 0.02) / base <= 16.5


def test_the_flipped_flow_conserves_volume_and_breaks_the_nahm_h_equation(monkeypatch):
    # (d rho_hat1, -d rho_hat2), the Hamiltonian flow of V: V(T) - V(0) measured -7.3e-12
    # against -1.02e-5 shipped, and h' ~ 0, so the last h residual is |[v1, v2]| = 1.960
    # against 4.2e-3 shipped; closedness is 2.9e-14 on both
    config = FlowConfig(n=4, dt=0.02, steps=10, epsilon=0.02,
                        diagnostics=("hamiltonian", "closedness", "nahm"))

    def measure():
        diag = run_flow(config).diagnostics
        assert max(max(d["d_rho1"], d["d_rho2"]) for d in diag) < 1e-12
        h = [d["nahm_h"] for d in diag if "nahm_h" in d]
        return diag[-1]["hamiltonian"] - diag[0]["hamiltonian"], h[-1]

    shipped_drift, shipped_h = measure()
    v = flow._v

    def flipped(spin, i, rho, out):
        other, sign = v(spin, i, rho, out)
        return other, -sign if i == 1 else sign

    monkeypatch.setattr(flow, "_v", flipped)
    flipped_drift, flipped_h = measure()
    assert abs(shipped_drift) >= 1e-6 and shipped_h <= 1e-2
    assert abs(flipped_drift) <= 1e-10 and flipped_h >= 1


def test_initial_data_closed_and_stable():
    cfg = small_cfg()
    s = initial_state(cfg)
    d1, d2 = closedness_norms(s)
    assert max(d1, d2) < 1e-12
    f = stability_field(s.rho1, s.rho2)
    assert np.all(f < 0)
    assert np.min(np.abs(f)) > 7.5


def test_perturbation_validation():
    with pytest.raises(ValueError):
        perturbation_forms(N, [{"component": "rho1", "indices": [1, 2],
                                "k": [0, 0, 0, 0, 0], "cos": 1.0}])


def test_run_flow_diagnostics_and_ring():
    cfg = small_cfg(steps=5, ring=3)
    traj = run_flow(cfg)
    assert len(traj.diagnostics) == 6
    assert len(traj.states()) == 3
    assert traj.final.t == pytest.approx(5 * cfg.dt)
    assert max(d["mean_mode_drift"] for d in traj.diagnostics) < 1e-12
    worst = max(max(d["d_rho1"], d["d_rho2"]) for d in traj.diagnostics)
    assert worst < 1e-10


def test_trajectory_save_load_round_trip(tmp_path):
    cfg = small_cfg(steps=3)
    traj = run_flow(cfg)
    path = str(tmp_path / "traj.npz")
    traj.save(path)
    back = Trajectory.load(path)
    assert back.config.n == cfg.n and back.config.dt == cfg.dt
    assert len(back.states()) == len(traj.states())
    assert np.allclose(back.states()[-1].rho1, traj.states()[-1].rho1)
    assert back.diagnostics[-1]["t"] == pytest.approx(traj.diagnostics[-1]["t"])


def test_stationary_nahm_residual_zero():
    traj = run_flow(small_cfg(epsilon=0.0, steps=2))
    r = nahm_residual(traj.states())
    assert r.v1_residual == 0.0 and r.h_residual == 0.0 and r.v2_residual == 0.0
    assert r.lambda_max == 0.0


def test_nahm_lambda_improves_h_residual():
    traj = run_flow(small_cfg(steps=6, dt=0.01))
    r = nahm_residual(traj.states())
    assert r.h_residual < r.h_residual_lambda0
    assert r.h_residual_lambda_hh2 < r.h_residual_lambda0


def test_nahm_requires_three_states():
    traj = run_flow(small_cfg(steps=1))
    with pytest.raises(ValueError):
        nahm_residual(traj.states())


def test_nahm_rejects_zero_dt():
    # three states at one time: the central differences were 0/0 (nan, RuntimeWarning)
    s = initial_state(small_cfg(dt=0.0))
    with pytest.raises(ValueError, match="dt != 0"):
        nahm_residual([s, s.copy(), s.copy()])


def test_nahm_per_step_diagnostics():
    cfg = small_cfg(steps=4, diagnostics=("hamiltonian", "nahm"))
    traj = run_flow(cfg)
    centered = [d for d in traj.diagnostics if "nahm_h" in d]
    assert len(centered) == 3  # steps - 1 centered slices
    assert all("lambda_max" in d for d in centered)


def test_stability_abort_reports_node():
    cfg = small_cfg()
    s = initial_state(cfg)
    s.rho1[:] = s.rho2[:]  # f = (Q,Q) = 0 everywhere
    with pytest.raises(StabilityError):
        rho_hat_grid(s.rho1, s.rho2)


def test_stability_check_names_the_first_non_finite_node():
    # a NaN f skipped the floor test ("nan <= floor" is False) and read as a sign flip
    f = np.full((N,) * 5, -1.0)
    f[1, 0, 0, 0, 0] = np.inf
    f[0, 1, 2, 3, 0] = np.nan
    with pytest.raises(StabilityError, match=r"f is not finite at t=0.5, node \(0, 1, 2, 3, 0\)"):
        flow._check_stability(f, 1e-6, 0.5)


def test_signed_triple_gram_fields():
    from gengeo.tables import section_inner

    cfg = small_cfg()
    s = initial_state(cfg)
    v1, h, v2 = signed_triple(s.rho1, s.rho2)
    assert flow._pointwise_spin(s.rho1, s.rho2, 1e-6, s.t).sign == -1
    assert np.max(np.abs(section_inner(v1, v1))) < 1e-12
    assert np.max(np.abs(section_inner(v2, v2))) < 1e-12
    assert np.max(np.abs(section_inner(v1, v2) + 1.0)) < 1e-12
    assert np.max(np.abs(section_inner(h, h) - 0.5)) < 1e-12


def test_courant_bracket_grid_matches_symbolic():
    # trigonometric sections cannot be polynomial, so compare against a
    # constant-coefficient case where the bracket is computable by hand:
    # [d1 + sin(x1) dx2, d2] has only the L_{X}-type term -cos(x1) dx2 ... 0
    X = meshes(N)
    u = np.zeros((10, N, N, N, N, N))
    v = np.zeros((10, N, N, N, N, N))
    u[0] = 1.0                    # d/dx1
    u[6] = np.sin(X[0])           # + sin(x1) dx2
    v[1] = 1.0                    # d/dx2
    out = courant_bracket_grid(u, v)
    # [X+xi, Y] = [X,Y] + (-L_Y xi) + d(i_Y xi)/2 ; L_{d2} xi = 0, i_{d2} xi = sin(x1)
    # => bracket = d(sin x1)/2 = cos(x1)/2 dx1
    assert np.allclose(out[5], 0.5 * np.cos(X[0]), atol=1e-12)
    mask = [k for k in range(10) if k != 5]
    assert np.max(np.abs(out[mask])) < 1e-12


def test_orbit_sign_flip_detected():
    f = np.ones((2, 2))
    f[0, 0] = -1.0
    from gengeo.flow import _check_stability

    with pytest.raises(StabilityError):
        _check_stability(f, 1e-6, 0.0)


@pytest.mark.parametrize("method", ["spectral", "fd4"])
def test_gradient_out_matches_allocating_path(method):
    rng = np.random.default_rng(3)
    fields = rng.standard_normal((3,) + (5,) * 5)
    expected = gradient(fields, method)
    buf = np.full((6,) + fields.shape, np.nan)
    got = gradient(fields, method, out=buf[1:])
    assert np.shares_memory(got, buf)
    assert np.array_equal(buf[1:], expected)
    assert np.isnan(buf[0]).all()


def test_stability_messages_print_plain_int_nodes():
    f = np.ones((2,) * 5)
    f[0, 1, 0, 0, 1] = 1e-9
    with pytest.raises(StabilityError, match=r"at node \(0, 1, 0, 0, 1\)$"):
        flow._check_stability(f, 1e-6, 0.0)
    f[0, 1, 0, 0, 1] = -1.0
    with pytest.raises(StabilityError, match=r"node \(0, 1, 0, 0, 1\)$"):
        flow._check_stability(f, 1e-6, 0.0)


def _resave(src, dst, **changes):
    with np.load(src) as data:
        members = {key: data[key] for key in data.files}
    members.update(changes)
    np.savez_compressed(dst, **members)


def test_trajectory_load_validates_shapes_and_times(tmp_path):
    traj = run_flow(small_cfg(steps=3, ring=3))
    path = str(tmp_path / "traj.npz")
    traj.save(path)
    with np.load(path) as data:
        rho1, rho2, times = data["rho1"], data["rho2"], data["times"]
    bad = str(tmp_path / "bad.npz")
    cases = [
        ({"config": json.dumps({"N": 5})},                # N=5 over 4^5 arrays
         r"rho1 has shape \(3, 16, 4, 4, 4, 4, 4\), expected \(3, 16, 5, 5, 5, 5, 5\)"),
        ({"rho2": rho2[:2]}, "rho2 has shape"),
        ({"rho1": rho1[..., :3]}, "rho1 has shape"),
        ({"times": times[:0], "rho1": rho1[:0], "rho2": rho2[:0]}, "non-empty"),
    ]
    for changes, message in cases:
        _resave(path, bad, **changes)
        with pytest.raises(ValueError, match=message):
            Trajectory.load(bad)
    # a file written with the older n and dt members loads as one without them
    _resave(path, bad, n=np.array(N), dt=np.array(0.02))
    for back in (Trajectory.load(path), Trajectory.load(bad)):
        assert [s.t for s in back.states()] == list(times)
        assert all(a.rho1.shape[-1] == N and a.dt == 0.02 and np.array_equal(a.rho1, b.rho1)
                   and np.array_equal(a.rho2, b.rho2)
                   for a, b in zip(back.states(), traj.states()))


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


def test_run_flow_evaluates_each_states_q_once(monkeypatch):
    # per step: Q1 and Q2 of stages 2-4, then of the new state in record; the
    # first stage reuses the Q/f that record computed for the same state
    from gengeo.tables import QTables

    calls = _count_calls(monkeypatch, QTables, "q_apply")
    steps = []
    run_flow(small_cfg(steps=5), on_step=lambda s: steps.append(len(calls)))
    assert steps[0] == 2 + 8
    assert np.diff(steps).tolist() == [8] * 4


def test_flow_step_with_the_states_spin_equals_flow_step_alone():
    s = initial_state(small_cfg(epsilon=0.05))
    ws = flow.Workspace((N,) * 5)
    spin = flow._pointwise_spin(s.rho1, s.rho2, 1e-6, s.t, ws)
    got, want = flow_step(s, ws=ws, spin=spin), flow_step(s)
    for a, b in ((got.rho1, want.rho1), (got.rho2, want.rho2)):
        assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def test_nahm_diagnostic_builds_each_triple_once(monkeypatch):
    cfg = small_cfg(steps=6, epsilon=0.05, ring=7, diagnostics=("nahm",))
    calls = _count_calls(monkeypatch, flow, "signed_triple")
    traj = run_flow(cfg)
    assert len(calls) == 7
    # every window's columns equal a nahm_residual that builds its own triples
    monkeypatch.undo()
    states = traj.states()
    for k in range(1, 6):
        r = nahm_residual(states[k - 1:k + 2], cfg.method, cfg.stability_floor)
        assert traj.diagnostics[k] == {**traj.diagnostics[k], "nahm_v1": r.v1_residual,
                                       "nahm_h": r.h_residual, "nahm_v2": r.v2_residual,
                                       "lambda_max": r.lambda_max}
        assert "nahm_h" in traj.diagnostics[k]
    assert "nahm_h" not in traj.diagnostics[0] and "nahm_h" not in traj.diagnostics[6]


def test_nahm_diagnostic_adds_no_q_evaluation(monkeypatch):
    # each state's signed triple reuses the Q/f that record computed for the state
    from gengeo.tables import QTables

    counts = []
    for diagnostics in (("nahm",), ()):
        calls = _count_calls(monkeypatch, QTables, "q_apply")
        run_flow(small_cfg(steps=6, epsilon=0.05, diagnostics=diagnostics))
        counts.append(len(calls))
        monkeypatch.undo()
    assert counts == [50, 50]


def test_signed_triple_from_a_workspace_spin_owns_its_arrays():
    s = initial_state(small_cfg(epsilon=0.05))
    ws = flow.Workspace((N,) * 5)
    spin = flow._pointwise_spin(s.rho1, s.rho2, 1e-6, s.t, ws)
    fresh = flow._pointwise_spin(s.rho1, s.rho2, 1e-6, s.t)
    assert spin.sign == fresh.sign and np.array_equal(spin.phi, fresh.phi)
    got, want = signed_triple(s.rho1, s.rho2, spin=spin), signed_triple(s.rho1, s.rho2)
    assert len(got) == 3 and all(np.array_equal(a, b) for a, b in zip(got, want))
    assert not any(np.shares_memory(a, buf) for a in got
                   for buf in (ws.q1, ws.q2, ws.f, ws.phi, ws.terms, ws.v, ws.hat))


def test_pointwise_spin_returns_the_workspace_as_the_states_spin_record():
    # the orbit sign and min|f| that the stability check computes are kept beside
    # Q1, Q2, f and phi, so that the recorded diagnostics need no second pass over f
    s = initial_state(small_cfg(epsilon=0.05))
    ws = flow.Workspace((N,) * 5)
    assert flow._pointwise_spin(s.rho1, s.rho2, 1e-6, s.t, ws) is ws
    assert ws.sign in (-1, 1) and np.all(np.sign(ws.f) == ws.sign)
    assert ws.min_abs_f == float(np.min(np.abs(ws.f)))
    assert np.array_equal(ws.phi, np.sqrt(np.abs(ws.f)))
    assert np.array_equal(ws.f, stability_field(s.rho1, s.rho2))


def test_central_window_checks_the_spacing_of_tiny_time_steps():
    # numpy's default atol = 1e-8 passed any spacing once |dt| was below about 1e-8
    states = run_flow(small_cfg(dt=1e-9, steps=2, diagnostics=("nahm",))).states()
    assert central_window(states)[1:] == (states[1], states[2], 1e-9)
    for s, t in zip(states, (0.0, 1e-9, 3e-9)):
        s.t = t
    with pytest.raises(ValueError, match="states are not uniformly spaced in time"):
        central_window(states)
