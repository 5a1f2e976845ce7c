"""The six-dimensional structure sigma(z) = dt ^ rho_hat(z) + rho(z) on R x M.

Each time slice of a trajectory yields, for a spectral parameter z, an
even form sigma(z) on the 6-chart (t, x1..x5) together with the section
pair v(z) = v1 + 2z h + z^2 v2 and w(z) = d/dt - 2dt - u(z), where
u(z) = z^{-1} v1 - z v2 and the triple is the orbit-signed one.  v(z) and
w(z) annihilate sigma(z) pointwise, span an isotropic Courant-integrable
plane, and sweep out a rank-4 subbundle of signature (2,2).

z = 0 and z = infinity use the polynomial reductions u -> u -+ z^{-+1} v:
u_red(0) = -2h with sigma(0) = sigma_1, u_red(inf) = +2h with sigma_2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .flow import (GridState, SpinMemo, Trajectory, bracket_from_derivatives, courant_bracket_grid,
                   gradient, grid_d, grid_norm, lambda_field, lattice_cell_volume, rho_hat_grid,
                   section_pairing)
from .tables import form_tables, section_inner

DIM = 5
DIM6 = 6

ZValue = Fraction | str  # a rational, or "inf" for the reduced slice at infinity

DEFAULT_Z_SWEEP: tuple[ZValue, ...] = (
    Fraction(1, 2), Fraction(-1, 2), Fraction(1), Fraction(-1),
    Fraction(2), Fraction(-2), Fraction(0), "inf",
)


def parse_z_list(text: str) -> list[ZValue]:
    out: list[ZValue] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        out.append("inf" if token in ("inf", "oo") else Fraction(token))
    return out


@lru_cache(maxsize=None)
def _index_maps() -> dict[str, list[int]]:
    ft5 = form_tables(DIM)
    ft6 = form_tables(DIM6)

    def shift(idx):
        return tuple(i + 1 for i in idx)

    return {
        "even5_even6": [ft6.pos[shift(i)][1] for i in ft5.even_idx],
        "odd5_dt_even6": [ft6.pos[(0,) + shift(i)][1] for i in ft5.odd_idx],
        "odd5_odd6": [ft6.pos[shift(i)][1] for i in ft5.odd_idx],
        "even5_dt_odd6": [ft6.pos[(0,) + shift(i)][1] for i in ft5.even_idx],
    }


def _section_to_6d(sec: np.ndarray) -> np.ndarray:
    """Pad a spatial section (10, grid) into the 6-chart layout (12, grid)."""
    out = np.zeros((2 * DIM6,) + sec.shape[1:], dtype=sec.dtype)
    out[1: 1 + DIM] = sec[:DIM]
    out[DIM6 + 1:] = sec[DIM:]
    return out


def _add_dt_section(sec: np.ndarray) -> np.ndarray:
    """sec + (d/dt - 2dt) in place on the 6-chart layout (12, grid); returns sec."""
    sec[0] += 1.0
    sec[DIM6] += -2.0
    return sec


def _assemble_sigma(rho_z: np.ndarray, hat_z: np.ndarray) -> np.ndarray:
    """sigma = dt ^ hat_z + rho_z as an even form on the 6-chart."""
    maps = _index_maps()
    ft6 = form_tables(DIM6)
    sigma = np.zeros((ft6.n_even,) + rho_z.shape[1:], dtype=rho_z.dtype)
    for src, dst in enumerate(maps["even5_even6"]):
        sigma[dst] += rho_z[src]
    for src, dst in enumerate(maps["odd5_dt_even6"]):
        sigma[dst] += hat_z[src]
    return sigma


@dataclass
class SigmaSlice:
    """sigma(z), v(z), w(z) and the underlying spatial data on one time slice."""

    z: ZValue
    t: float
    n: int
    sigma: np.ndarray   # (32, grid) even 6-chart form
    v_z: np.ndarray     # (12, grid)
    w_z: np.ndarray     # (12, grid)
    spin: SpinMemo      # the state's z-independent fields

    @property
    def triple(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.spin.triple

    @property
    def rho_z(self) -> np.ndarray:
        """(16, grid) spatial even part of sigma, read back as a copy."""
        return self.sigma[_index_maps()["even5_even6"]]

    @property
    def hat_z(self) -> np.ndarray:
        """(16, grid) spatial odd form with sigma = dt ^ hat_z + rho_z, as a copy."""
        return self.sigma[_index_maps()["odd5_dt_even6"]]


def _spin_memo(state: GridState, floor: float) -> SpinMemo:
    """The state's z-independent hat pair and signed triple, evaluated once per floor.

    Once memoized, the state's rho1/rho2 and the memo arrays are read-only,
    so an in-place write raises instead of leaving a stale memo.
    """
    memo = state.spin
    if memo is None or memo.floor != floor:
        hat = rho_hat_grid(state.rho1, state.rho2, floor, state.t)
        v1, h, v2 = hat.triple(state.rho1, state.rho2)    # no second Q/f evaluation
        memo = SpinMemo(floor, hat.hat1, hat.hat2, (v1, h, v2))
        for arr in (state.rho1, state.rho2, memo.hat1, memo.hat2, v1, h, v2):
            arr.flags.writeable = False
        state.spin = memo
    return memo


def _states(source: Trajectory | Sequence[GridState]) -> list[GridState]:
    states = source.states() if isinstance(source, Trajectory) else list(source)
    if not states:
        raise ValueError("no states to build sigma from")
    return states


def build_sigma(source: Trajectory | Sequence[GridState], z: ZValue,
                floor: float = 1e-6) -> list[SigmaSlice]:
    """Assemble sigma(z) slices (one per stored state) from a trajectory.

    rho_hat and the signed triple do not depend on z, so each state
    evaluates them once and keeps them in its ``spin`` memo for every later
    z and floor-matching call.  From then on the state's rho1/rho2 (and the
    memo arrays a slice's ``triple`` refers to) are read-only; copy a state
    to modify it.
    """
    slices = []
    for state in _states(source):
        memo = _spin_memo(state, floor)
        v1, h, v2 = memo.triple
        if z == "inf":
            rho_z = state.rho2
            hat_z = memo.hat2
            v_z = v2
            u_z = 2 * h
        elif z == 0:
            rho_z = state.rho1
            hat_z = memo.hat1
            v_z = v1
            u_z = -2 * h
        else:
            zf = float(z)
            rho_z = state.rho1 + zf * state.rho2
            hat_z = memo.hat1 + zf * memo.hat2
            v_z = v1 + (2 * zf) * h + (zf * zf) * v2
            u_z = (1.0 / zf) * v1 - zf * v2
        w_z = _add_dt_section(-_section_to_6d(u_z))
        slices.append(SigmaSlice(
            z=z, t=state.t, n=state.n,
            sigma=_assemble_sigma(rho_z, hat_z),
            v_z=_section_to_6d(v_z), w_z=w_z, spin=memo,
        ))
    return slices


# -- pointwise checks -----------------------------------------------------------


def annihilator_check(s: SigmaSlice) -> tuple[float, float]:
    """Max-abs of v(z).sigma(z) and w(z).sigma(z) over all nodes."""
    ft6 = form_tables(DIM6)
    rv = ft6.clifford_apply(s.v_z, s.sigma, 0)
    rw = ft6.clifford_apply(s.w_z, s.sigma, 0)
    return float(np.max(np.abs(rv))), float(np.max(np.abs(rw)))


def annihilator_nullity(s: SigmaSlice) -> int:
    """Minimum nullity of the Clifford-action matrix over about 64 sampled nodes.

    Rows are e_a . sigma for the 12 pointwise basis sections; the
    annihilator of sigma(z) must contain span{v(z), w(z)}, so the nullity
    is at least 2.
    """
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
    mats = np.stack(rows).transpose(2, 0, 1)      # (node, section, odd component)
    svals = np.linalg.svd(mats, compute_uv=False)
    scale = np.where(svals[:, 0] > 0, svals[:, 0], 1.0)
    nullity = np.sum(svals < 1e-9 * scale[:, None], axis=1)
    return int(nullity.min())


class SignatureError(ValueError):
    """The Gram signature of span{d/dt - 2dt, v1, h, v2} varies across nodes."""


def gram_signature(s: SigmaSlice) -> tuple[int, int, int]:
    """Pointwise signature of the span {d/dt - 2dt, v1, h, v2} over the z-sweep.

    Returns (positive, negative, zero) eigenvalue counts, uniform over
    nodes; raises SignatureError if the counts vary across the grid.
    """
    return _triple_signature(s.triple)


def _triple_signature(triple: tuple[np.ndarray, np.ndarray, np.ndarray]) -> tuple[int, int, int]:
    v1, h, v2 = (_section_to_6d(x) for x in triple)
    basis = [_add_dt_section(np.zeros_like(v1)), v1, h, v2]
    grid_shape = v1.shape[1:]
    gram = np.zeros(grid_shape + (4, 4))
    for i in range(4):
        for j in range(4):
            gram[..., i, j] = section_inner(basis[i], basis[j], DIM6)
    eig = np.linalg.eigvalsh(gram.reshape(-1, 4, 4))
    scale = np.max(np.abs(eig))
    pos = (eig > 1e-9 * scale).sum(axis=1)
    neg = (eig < -1e-9 * scale).sum(axis=1)
    if pos.max() != pos.min() or neg.max() != neg.min():
        raise SignatureError("signature varies across nodes")
    p, q = int(pos[0]), int(neg[0])
    return p, q, 4 - p - q


# -- slice-sequence checks ---------------------------------------------------------


def _central_slices(slices: Sequence[SigmaSlice]
                    ) -> tuple[SigmaSlice, SigmaSlice, SigmaSlice, float]:
    """The last three slices and their time step dt; ValueError unless they
    advance uniformly in time with dt > 0, as central differences need."""
    if len(slices) < 3:
        raise ValueError("need at least 3 slices for the time derivative")
    prev, mid, nxt = slices[-3:]
    dt = mid.t - prev.t
    if dt <= 0:
        raise ValueError(f"time derivatives need slices with dt > 0, got dt = {dt:g}")
    if not np.isclose(nxt.t - mid.t, dt):
        raise ValueError("slices are not uniformly spaced in time")
    return prev, mid, nxt, dt


def _time_derivative(arrays: Sequence[np.ndarray], dt: float) -> np.ndarray:
    return (arrays[2] - arrays[0]) / (2 * dt)


def _spacetime_gradient(slices: Sequence[np.ndarray], n: int, dt: float, method: str) -> np.ndarray:
    """(d/dt, d/dx_1..d/dx_5) of the middle slice, d/dt by central differences."""
    out = np.empty((DIM6,) + slices[1].shape)
    out[0] = _time_derivative(slices, dt)
    gradient(slices[1], n, method, out=out[1:])
    return out


def courant_bracket_6d(u_slices: Sequence[np.ndarray], v_slices: Sequence[np.ndarray],
                       n: int, dt: float, method: str = "spectral") -> np.ndarray:
    """[u, v] on the 6-chart at the middle slice.

    Sections are (12, grid) per slice; the time axis enters through central
    differences of the slice sequence, the spatial axes spectrally.
    """
    pairings = [section_pairing(us, vs, DIM6) for us, vs in zip(u_slices, v_slices)]
    return bracket_from_derivatives(u_slices[1], v_slices[1], *(
        _spacetime_gradient(slices, n, dt, method) for slices in (u_slices, v_slices, pairings)))


@dataclass
class EzReport:
    """Isotropy and Courant-integrability residuals for span{v(z), w(z)}."""

    z: ZValue
    t: float
    vv_max: float
    vw_max: float
    ww_max: float
    uu_minus_two_max: float
    dt_section_norm_plus_two: float
    bracket_residual: float
    lambda_max: float

    @property
    def isotropy_residual(self) -> float:
        """The largest of |(v,v)|, |(v,w)|, |(w,w)| and |(u,u) - 2| over the nodes."""
        return max(self.vv_max, self.vw_max, self.ww_max, self.uu_minus_two_max)

    @property
    def isotropic(self) -> bool:
        return self.isotropy_residual < 1e-10


def ez_check(slices: Sequence[SigmaSlice], method: str = "spectral") -> EzReport:
    """Inner products among {v(z), w(z)} and the [w(z), v(z)] = lambda v(z) residual."""
    prev, mid, nxt, dt = _central_slices(slices)

    # lambda of the 5-d [v1, v2] is z-independent: once per state and method, and
    # first, so that the kept array is not allocated amid this call's temporaries
    lam5 = mid.spin.lambdas.get(method)
    if lam5 is None:
        v1m, hm, v2m = mid.triple
        lam5 = lambda_field(hm, courant_bracket_grid(v1m, v2m, mid.n, method))
        lam5.flags.writeable = False    # read-only like the other memo arrays
        mid.spin.lambdas[method] = lam5

    vv = section_inner(mid.v_z, mid.v_z, DIM6)
    vw = section_inner(mid.v_z, mid.w_z, DIM6)
    ww = section_inner(mid.w_z, mid.w_z, DIM6)
    # u(z) = d/dt - 2dt - w(z); (u,u) = 2 and (d/dt-2dt, ...) = -2 feed (w,w) = 0
    u_mid = _add_dt_section(-mid.w_z)
    uu = section_inner(u_mid, u_mid, DIM6)
    dt_sec = _add_dt_section(np.zeros_like(mid.w_z))
    dtdt = section_inner(dt_sec, dt_sec, DIM6)
    bracket = courant_bracket_6d([s.w_z for s in (prev, mid, nxt)],
                                 [s.v_z for s in (prev, mid, nxt)], mid.n, dt, method)
    residual = bracket - lam5 * mid.v_z
    return EzReport(
        z=mid.z,
        t=mid.t,
        vv_max=float(np.max(np.abs(vv))),
        vw_max=float(np.max(np.abs(vw))),
        ww_max=float(np.max(np.abs(ww))),
        uu_minus_two_max=float(np.max(np.abs(uu - 2.0))),
        dt_section_norm_plus_two=float(np.max(np.abs(dtdt + 2.0))),
        bracket_residual=grid_norm(residual, lattice_cell_volume(mid.n)),
        lambda_max=float(np.max(np.abs(lam5))),
    )


def dsigma_residual(slices: Sequence[SigmaSlice], method: str = "spectral") -> float:
    """|d sigma| at the middle slice: spatial d plus central time differences.

    d sigma = d5 rho(z) + dt ^ (d rho(z)/dt - d5 rho_hat(z)); closedness of
    the flow data makes this O(dt^2) plus spatial truncation.
    """
    prev, mid, nxt, dt = _central_slices(slices)
    maps = _index_maps()
    ft6 = form_tables(DIM6)
    rho = [s.rho_z for s in (prev, mid, nxt)]
    spatial = grid_d(rho[1], 0, mid.n, method)
    dt_part = _time_derivative(rho, dt)
    dt_part -= grid_d(mid.hat_z, 1, mid.n, method)
    residual = np.zeros((ft6.n_odd,) + mid.sigma.shape[1:])
    for src, dst in enumerate(maps["odd5_odd6"]):
        residual[dst] += spatial[src]
    for src, dst in enumerate(maps["even5_dt_odd6"]):
        residual[dst] += dt_part[src]
    return grid_norm(residual, lattice_cell_volume(mid.n))


@dataclass
class SixdimReport:
    z_values: list[str]
    annihilator_v: dict[str, float]
    annihilator_w: dict[str, float]
    nullity: dict[str, int]
    ez: dict[str, EzReport]
    dsigma: dict[str, float]
    signature: tuple[int, int, int]

    def max_annihilator(self) -> float:
        vals = list(self.annihilator_v.values()) + list(self.annihilator_w.values())
        return max(vals, default=0.0)


def check_trajectory(source: Trajectory | Sequence[GridState],
                     z_values: Sequence[ZValue] = DEFAULT_Z_SWEEP,
                     method: str = "spectral", floor: float = 1e-6) -> SixdimReport:
    """Run annihilator, isotropy/integrability, d sigma and signature checks.

    The z-independent fields, the signature included, are memoized on the
    states (see ``build_sigma``), so repeated calls on one trajectory
    evaluate them once; the states' rho1/rho2 become read-only.
    """
    states = _states(source)
    ann_v: dict[str, float] = {}
    ann_w: dict[str, float] = {}
    nullity: dict[str, int] = {}
    ez: dict[str, EzReport] = {}
    dsig: dict[str, float] = {}
    signature = None
    if z_values:
        first = _spin_memo(states[0], floor)
        if first.signature is None:
            first.signature = _triple_signature(first.triple)
        signature = first.signature
    for z in z_values:
        key = str(z)
        slices = build_sigma(states, z, floor)
        checks = [annihilator_check(s) for s in slices]
        ann_v[key] = max(c[0] for c in checks)
        ann_w[key] = max(c[1] for c in checks)
        nullity[key] = annihilator_nullity(slices[0])
        if len(slices) >= 3:
            ez[key] = ez_check(slices, method)
            dsig[key] = dsigma_residual(slices, method)
    return SixdimReport(
        z_values=[str(z) for z in z_values],
        annihilator_v=ann_v,
        annihilator_w=ann_w,
        nullity=nullity,
        ez=ez,
        dsigma=dsig,
        signature=signature or (0, 0, 0),
    )
