"""The z checks in a reused workspace against the allocating bodies they replace.

The references below are the bodies ``build_sigma``, ``annihilator_check``,
``annihilator_nullity``, ``ez_check``, ``dsigma_residual`` and the Gram
signature had before the z checks wrote into a ``ZWorkspace``: fresh arrays
for every slice and z, the full 192-entry Clifford table for v(z), w(z) and
the nullity rows, rho(z)/rho_hat(z) copied out of sigma, and 16 inner products
of padded 6-chart sections.  The workspace path skips only terms
that are exact zeros and keeps every output component's term order, so every
report field must be ``==`` the reference's.
"""

from fractions import Fraction

import numpy as np
import pytest

from gengeo import sixdim
from gengeo.flow import (FlowConfig, bracket_from_derivatives, central_window,
                         courant_bracket_grid, gradient, grid_d, grid_norm, lambda_field,
                         run_flow, section_pairing)
from gengeo.sixdim import (DEFAULT_Z_SWEEP, DIM, DIM6, EzReport, SigmaSlice, SixdimReport,
                           ZWorkspace, annihilator_check, annihilator_nullity, build_sigma,
                           check_trajectory, dsigma_residual, ez_check)
from gengeo.tables import form_tables, section_inner

# -- references: the allocating bodies -------------------------------------------


def ref_section_to_6d(sec):
    out = np.zeros((2 * DIM6,) + sec.shape[1:], dtype=sec.dtype)
    out[1: 1 + DIM] = sec[:DIM]
    out[DIM6 + 1:] = sec[DIM:]
    return out


def ref_add_dt_section(sec):
    sec[0] += 1.0
    sec[DIM6] += -2.0
    return sec


def ref_assemble_sigma(rho_z, hat_z):
    maps = sixdim._index_maps()
    sigma = np.zeros((form_tables(DIM6).n_even,) + rho_z.shape[1:], dtype=rho_z.dtype)
    for src, dst in enumerate(maps["even5_even6"]):
        sigma[dst] += rho_z[src]
    for src, dst in enumerate(maps["odd5_dt_even6"]):
        sigma[dst] += hat_z[src]
    return sigma


def ref_rho_z(s):
    """(16, grid) spatial even part of a slice's sigma, as a copy."""
    return s.sigma[sixdim._index_maps()["even5_even6"]]


def ref_hat_z(s):
    """(16, grid) spatial odd form with sigma = dt ^ hat_z + rho_z, as a copy."""
    return s.sigma[sixdim._index_maps()["odd5_dt_even6"]]


def ref_build_sigma(states, z, floor=1e-6):
    slices = []
    for state in states:
        memo = sixdim._spin_memo(state, floor)
        v1, h, v2 = memo.triple
        if z == "inf":
            rho_z, hat_z, v_z, u_z = state.rho2, memo.hat2, v2, 2 * h
        elif z == 0:
            rho_z, hat_z, v_z, u_z = state.rho1, memo.hat1, v1, -2 * h
        else:
            zf = float(z)
            rho_z = state.rho1 + zf * state.rho2
            hat_z = memo.hat1 + zf * memo.hat2
            v_z = v1 + (2 * zf) * h + (zf * zf) * v2
            u_z = (1.0 / zf) * v1 - zf * v2
        w_z = ref_add_dt_section(-ref_section_to_6d(u_z))
        slices.append(SigmaSlice(z=z, t=state.t, sigma=ref_assemble_sigma(rho_z, hat_z),
                                 v_z=ref_section_to_6d(v_z), w_z=w_z, spin=memo, ws=None))
    return slices


def ref_annihilator_check(s):
    ft6 = form_tables(DIM6)
    rv = ft6.clifford_apply(s.v_z, s.sigma, 0)
    rw = ft6.clifford_apply(s.w_z, s.sigma, 0)
    return float(np.max(np.abs(rv))), float(np.max(np.abs(rw)))


def ref_annihilator_nullity(s):
    ft6 = form_tables(DIM6)
    flat = s.sigma.reshape(s.sigma.shape[0], -1)
    stride = max(1, flat.shape[1] // 64)
    sigma_nodes = flat[:, ::stride]
    basis = np.zeros((2 * DIM6, sigma_nodes.shape[1]))
    rows = []
    for a in range(2 * DIM6):
        basis[:] = 0.0
        basis[a] = 1.0
        rows.append(ft6.clifford_apply(basis, sigma_nodes, 0))
    mats = np.stack(rows).transpose(2, 0, 1)
    svals = np.linalg.svd(mats, compute_uv=False)
    scale = np.where(svals[:, 0] > 0, svals[:, 0], 1.0)
    nullity = np.sum(svals < 1e-9 * scale[:, None], axis=1)
    return int(nullity.min())


def ref_time_derivative(arrays, dt):
    return (arrays[2] - arrays[0]) / (2 * dt)


def ref_spacetime_gradient(slices, dt, method):
    out = np.empty((DIM6,) + slices[1].shape)
    out[0] = ref_time_derivative(slices, dt)
    gradient(slices[1], method, out=out[1:])
    return out


def ref_courant_bracket_6d(u_slices, v_slices, dt, method):
    pairings = [section_pairing(us, vs) for us, vs in zip(u_slices, v_slices)]
    return bracket_from_derivatives(u_slices[1], v_slices[1], *(
        ref_spacetime_gradient(slices, dt, method) for slices in (u_slices, v_slices, pairings)))


def ref_ez_check(slices, method):
    prev, mid, nxt, dt = central_window(slices)
    v1m, hm, v2m = mid.spin.triple
    lam5 = lambda_field(hm, courant_bracket_grid(v1m, v2m, method))
    vv = section_inner(mid.v_z, mid.v_z)
    vw = section_inner(mid.v_z, mid.w_z)
    ww = section_inner(mid.w_z, mid.w_z)
    u_mid = ref_add_dt_section(-mid.w_z)
    uu = section_inner(u_mid, u_mid)
    bracket = ref_courant_bracket_6d([s.w_z for s in (prev, mid, nxt)],
                                     [s.v_z for s in (prev, mid, nxt)], dt, method)
    residual = bracket - lam5 * mid.v_z
    return EzReport(
        z=mid.z, t=mid.t,
        vv_max=float(np.max(np.abs(vv))),
        vw_max=float(np.max(np.abs(vw))),
        ww_max=float(np.max(np.abs(ww))),
        uu_minus_two_max=float(np.max(np.abs(uu - 2.0))),
        bracket_residual=grid_norm(residual),
        lambda_max=float(np.max(np.abs(lam5))),
    )


def ref_dsigma_residual(slices, method):
    prev, mid, nxt, dt = central_window(slices)
    maps = sixdim._index_maps()
    rho = [ref_rho_z(s) for s in (prev, mid, nxt)]
    spatial = grid_d(rho[1], 0, method)
    dt_part = ref_time_derivative(rho, dt)
    dt_part -= grid_d(ref_hat_z(mid), 1, method)
    residual = np.zeros((form_tables(DIM6).n_odd,) + mid.sigma.shape[1:])
    for src, dst in enumerate(maps["odd5_odd6"]):
        residual[dst] += spatial[src]
    for src, dst in enumerate(maps["even5_dt_odd6"]):
        residual[dst] += dt_part[src]
    return grid_norm(residual)


def ref_triple_signature(triple):
    v1, h, v2 = (ref_section_to_6d(x) for x in triple)
    basis = [ref_add_dt_section(np.zeros_like(v1)), v1, h, v2]
    gram = np.zeros(v1.shape[1:] + (4, 4))
    for i in range(4):
        for j in range(4):
            gram[..., i, j] = section_inner(basis[i], basis[j])
    eig = np.linalg.eigvalsh(gram.reshape(-1, 4, 4))
    scale = np.max(np.abs(eig))
    pos = (eig > 1e-9 * scale).sum(axis=1)
    neg = (eig < -1e-9 * scale).sum(axis=1)
    assert pos.max() == pos.min() and neg.max() == neg.min()
    p, q = int(pos[0]), int(neg[0])
    return p, q, 4 - p - q


def ref_check_trajectory(states, z_values, method):
    rep = SixdimReport(z_values=[str(z) for z in z_values], annihilator_v={}, annihilator_w={},
                       nullity={}, ez={}, dsigma={},
                       signature=ref_triple_signature(sixdim._spin_memo(states[0], 1e-6).triple))
    for z in z_values:
        key = str(z)
        slices = ref_build_sigma(states, z)
        checks = [ref_annihilator_check(s) for s in slices]
        rep.annihilator_v[key] = max(c[0] for c in checks)
        rep.annihilator_w[key] = max(c[1] for c in checks)
        rep.nullity[key] = ref_annihilator_nullity(slices[0])
        rep.ez[key] = ref_ez_check(slices, method)
        rep.dsigma[key] = ref_dsigma_residual(slices, method)
    return rep


# -- tests ----------------------------------------------------------------------------


def flowed(n, method):
    return run_flow(FlowConfig(n=n, dt=0.02, steps=3, epsilon=2e-2, method=method))


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("method", ["spectral", "fd4"])
def test_reports_equal_the_allocating_reference(n, method):
    traj = flowed(n, method)
    ref = ref_check_trajectory([s.copy() for s in traj.states()], DEFAULT_Z_SWEEP, method)
    rep = check_trajectory(traj, DEFAULT_Z_SWEEP, method)
    for name in ("annihilator_v", "annihilator_w", "nullity", "ez", "dsigma", "signature"):
        assert getattr(rep, name) == getattr(ref, name), name
    assert rep == ref
    assert set(rep.ez) == {str(z) for z in DEFAULT_Z_SWEEP}


def test_slices_equal_the_reference_slices():
    traj = flowed(4, "spectral")
    for z in DEFAULT_Z_SWEEP:
        for got, want in zip(build_sigma(traj, z), ref_build_sigma(traj.states(), z)):
            # equal values; only an exact zero may differ in sign
            for a, b in ((got.sigma, want.sigma), (got.v_z, want.v_z), (got.w_z, want.w_z)):
                assert np.array_equal(a, b)
            assert np.array_equal(ref_rho_z(got), ref_rho_z(want))
            assert np.array_equal(ref_hat_z(got), ref_hat_z(want))


def test_reused_workspace_equals_fresh_buffers():
    traj = flowed(4, "spectral")
    states = traj.states()
    full = check_trajectory(traj)                       # one workspace for the whole sweep
    ws = states[0].spin.workspace
    assert isinstance(ws, ZWorkspace) and len(ws.slices) == len(states)
    for z in reversed(DEFAULT_Z_SWEEP):                 # reuse in another z order
        key = str(z)
        fresh = build_sigma(states, z)                  # no workspace: fresh buffers
        assert fresh[0].ws is not ws
        assert full.nullity[key] == annihilator_nullity(fresh[0])
        assert full.ez[key] == ez_check(fresh)
        assert full.dsigma[key] == dsigma_residual(fresh)
        assert full.annihilator_v[key] == max(annihilator_check(s)[0] for s in fresh)
        reused = build_sigma(states, z, ws=ws)
        assert all(s.ws is ws for s in reused)
        assert [annihilator_check(s) for s in fresh] == [annihilator_check(s) for s in reused]
        assert full.ez[key] == ez_check(reused)
        assert full.dsigma[key] == dsigma_residual(reused)
    assert states[0].spin.workspace is ws
    assert check_trajectory(traj) == full
    # the fd4 checks run in the same workspace and still match a fresh run
    fd4 = check_trajectory(traj, [Fraction(1)], method="fd4")
    assert fd4 == check_trajectory([s.copy() for s in states], [Fraction(1)], method="fd4")


def test_workspace_keeps_the_constant_slots():
    traj = flowed(4, "spectral")
    check_trajectory(traj)
    for _, v, w in traj.states()[0].spin.workspace.slices:
        assert not v[0].any() and not v[DIM6].any()
        assert np.all(w[0] == 1.0) and np.all(w[DIM6] == -2.0)


def test_build_sigma_without_workspace_does_not_alias():
    traj = flowed(4, "spectral")
    a, b = build_sigma(traj, Fraction(1)), build_sigma(traj, Fraction(2))
    arrays = [x for s in a + b for x in (s.sigma, s.v_z, s.w_z)]
    for i, x in enumerate(arrays):
        for y in arrays[i + 1:]:
            assert not np.shares_memory(x, y)
    before = b[0].sigma.copy()
    a[0].sigma[0] += 1.0
    assert np.array_equal(b[0].sigma, before)


def test_corrupted_workspace_slice_detected():
    traj = flowed(4, "spectral")
    states = traj.states()
    ws = ZWorkspace(states[0].rho1.shape[1:], len(states))
    s = build_sigma(states, Fraction(1), ws=ws)[0]
    assert max(annihilator_check(s)) < 1e-10
    s.w_z[3] += 0.1                                     # a spatial slot of w(z)
    assert annihilator_check(s)[1] > 1e-3
    s = build_sigma(states, Fraction(1), ws=ws)[0]      # the next build rewrites it
    s.sigma[0] += 0.1
    assert max(annihilator_check(s)) > 1e-3


def test_nullity_rows_come_from_one_entry_per_slot_and_component():
    slot, src, dst, sign = sixdim._clifford_columns()
    assert len(set(zip(slot.tolist(), dst.tolist()))) == len(slot) == 192
    assert np.bincount(slot).tolist() == [16] * (2 * DIM6)
    # the v(z) entries skip the d/dt and dt slots and keep each component's term order
    n_odd = form_tables(DIM6).n_odd
    entries = [e for per_dst in sixdim._v_entries() for e in per_dst]
    assert len(entries) == 160 and not {e[0] for e in entries} & {0, DIM6}
    ft6 = form_tables(DIM6)
    assert len(sixdim._v_entries()) == len(ft6.clifford_by_dst[0]) == n_odd
    for k in range(n_odd):
        want = [(slot, src, 0, sign) for slot, src, dst, sign in ft6.clifford[0] if dst == k]
        assert ft6.clifford_by_dst[0][k] == want
        assert sixdim._v_entries()[k] == [e for e in want if e[0] not in (0, DIM6)]
