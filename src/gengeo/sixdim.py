"""The six-dimensional structure sigma(z) = dt ^ rho_hat(z) + rho(z) on R x M.

Each time slice of a trajectory yields, for a spectral parameter z, an
even form sigma(z) on the 6-chart (t, x1..x5) together with the section
pair v(z) = v1 + 2z h + z^2 v2 and w(z) = d/dt - 2dt - u(z), where
u(z) = z^{-1} v1 - z v2 and the triple is the orbit-signed one.  v(z) and
w(z) annihilate sigma(z) pointwise, span an isotropic Courant-integrable
plane, and sweep out a rank-4 subbundle of signature (2,2).

z = 0 and z = infinity use the polynomial reductions u -> u -+ z^{-+1} v:
u_red(0) = -2h with sigma(0) = sigma_1, u_red(inf) = +2h with sigma_2.

``check_trajectory`` writes sigma(z), v(z), w(z), the checks' outputs and the
bracket's gradients in place into one ``ZWorkspace``, kept on the first state's
spin memo and reused for every z; called without one, ``build_sigma`` and the
checks build a fresh ``ZWorkspace`` and run the same path.  v(z) vanishes on the
d/dt and dt slots and w(z) holds the constants 1 and -2 there, so the checks skip
or scale those terms.
Every output component keeps its term order: only the sign of an exact zero
can differ from the allocating formulas, and every report is unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
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
    """The comma-separated z values: "inf" (or "oo"), or rationals with finite floats
    z and, for z != 0, 1/z, as sigma(z) uses them; ValueError otherwise."""
    return [_z_value(token.strip()) for token in text.split(",") if token.strip()]


def _z_value(token: str) -> ZValue:
    if token in ("inf", "oo"):
        return "inf"
    try:
        z = Fraction(token)
        finite = not z or math.isfinite(1.0 / float(z))
    except (ZeroDivisionError, OverflowError):     # 1/0, a float overflow or underflow
        finite = False
    if not finite:
        raise ValueError(f"z = {token} has no finite float z or 1/z")
    return z


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


_DT_SECTION = {0: 1.0, DIM6: -2.0}     # d/dt - 2dt: its two nonzero slots
# the 6-chart slots of a spatial section's 10 slots, in order
_SPATIAL_SLOTS = tuple(k for k in range(2 * DIM6) if k not in _DT_SECTION)


def _add_dt_section(sec: np.ndarray) -> np.ndarray:
    """sec + (d/dt - 2dt) in place on the 6-chart layout (12, grid); returns sec."""
    for slot, value in _DT_SECTION.items():
        sec[slot] += value
    return sec


def _dt_section_norm() -> float:
    """(d/dt - 2dt, d/dt - 2dt), read at one node: the section is constant."""
    dt_sec = _add_dt_section(np.zeros((2 * DIM6, 1)))
    return float(section_inner(dt_sec, dt_sec, DIM6)[0])


def _spatial(sec: np.ndarray) -> list[np.ndarray]:
    """The 10 spatial slots of a 6-chart section, as views in 5-d slot order."""
    return [sec[k] for k in _SPATIAL_SLOTS]


def _max_abs(x: np.ndarray) -> float:
    """max |x| without an |x| copy."""
    return float(max(x.max(), -x.min()))


class ZWorkspace:
    """The z checks' buffers on one grid, rewritten for every z: ``count`` slices'
    (sigma, v, w), v's d/dt and dt slots 0 and w's d/dt - 2dt (the parts of v(z) and
    w(z) that depend on neither the state nor z); one shared 32-component output for
    the Clifford actions, inner products, bracket and d sigma; a two-field scratch;
    and the bracket's spacetime gradients of two sections (6, 12, grid) and of their
    pairing (6, grid).  All but v and w come from ``np.empty``, untouched until written."""

    def __init__(self, grid: tuple[int, ...], count: int = 0):
        sec, ft6 = (2 * DIM6,) + grid, form_tables(DIM6)
        self.slices = [(np.empty((ft6.n_even,) + grid), np.zeros(sec),
                        _add_dt_section(np.zeros(sec))) for _ in range(count)]
        self.out = np.empty((ft6.n_odd,) + grid)
        self.term = np.empty((2,) + grid)
        self.gradients = np.empty((DIM6,) + sec), np.empty((DIM6,) + sec), np.empty((DIM6,) + grid)


def _write_slice(state: GridState, memo: SpinMemo, z: ZValue, buffers: tuple[np.ndarray, ...],
                 term: np.ndarray) -> None:
    """Write sigma(z) = dt ^ hat_z + rho_z and the spatial slots of v(z) and w(z) into
    ``buffers``, one component at a time through ``term`` (one field).  Each value
    equals the allocating formula's, bar the sign of an exact zero."""
    sigma, v_z, w_z = buffers
    v1, h, v2 = memo.triple
    maps = _index_maps()
    parts = ((sigma, maps["even5_even6"], state.rho1, state.rho2),
             (sigma, maps["odd5_dt_even6"], memo.hat1, memo.hat2),
             (v_z, _SPATIAL_SLOTS, v1, v2))
    if z == "inf" or z == 0:
        # the reduced slices: sigma_2 and v2 at infinity, sigma_1 and v1 at 0, and
        # w = -u_red with u_red = +-2h
        k = 1 if z == "inf" else 0
        for out, dst, *pair in parts:
            for i, j in enumerate(dst):
                np.copyto(out[j], pair[k][i])
        for i, j in enumerate(_SPATIAL_SLOTS):
            np.multiply(h[i], -2.0 if k else 2.0, out=w_z[j])
        return
    zf = float(z)
    for out, dst, a, b in parts[:2]:            # rho1 + z rho2, hat1 + z hat2
        for i, j in enumerate(dst):
            np.multiply(b[i], zf, out=out[j])
            out[j] += a[i]
    for i, j in enumerate(_SPATIAL_SLOTS):
        v, w = v_z[j], w_z[j]
        np.multiply(h[i], 2 * zf, out=v)        # v = (v1 + 2z h) + z^2 v2
        v += v1[i]
        v += np.multiply(v2[i], zf * zf, out=term)
        np.multiply(v2[i], zf, out=w)           # w = -u = z v2 - z^-1 v1
        w -= np.multiply(v1[i], 1.0 / zf, out=term)


@dataclass
class SigmaSlice:
    """sigma(z), v(z), w(z) and the underlying spatial data on one time slice, in
    the buffers of the ``ZWorkspace`` it was built in (overwritten by its next z)."""

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


def _spin_memo(state: GridState, floor: float) -> SpinMemo:
    """The state's z-independent hat pair and signed triple, evaluated once per floor.

    Once memoized, the state's rho1/rho2 and the memo arrays are read-only,
    so an in-place write raises instead of leaving a stale memo.
    """
    memo = state.spin
    if memo is None or memo.floor != floor:
        memo = rho_hat_grid(state.rho1, state.rho2, floor, state.t)
        for arr in (state.rho1, state.rho2, memo.hat1, memo.hat2, *memo.triple):
            arr.flags.writeable = False
        state.spin = memo
    return memo


def _states(source: Trajectory | Sequence[GridState]) -> list[GridState]:
    states = source.states() if isinstance(source, Trajectory) else list(source)
    if not states:
        raise ValueError("no states to build sigma from")
    return states


def _workspace(states: Sequence[GridState], floor: float) -> ZWorkspace:
    """The z checks' workspace for these states, kept on the first state's memo."""
    memo = _spin_memo(states[0], floor)
    if memo.workspace is None or len(memo.workspace.slices) < len(states):
        memo.workspace = ZWorkspace(states[0].rho1.shape[1:], len(states))
    return memo.workspace


def build_sigma(source: Trajectory | Sequence[GridState], z: ZValue,
                floor: float = 1e-6, ws: ZWorkspace | None = None) -> list[SigmaSlice]:
    """Assemble sigma(z) slices (one per stored state) from a trajectory.

    rho_hat and the signed triple do not depend on z, so each state
    evaluates them once and keeps them in its ``spin`` memo for every later
    z and floor-matching call.  From then on the state's rho1/rho2 (and the
    memo arrays a slice's ``triple`` refers to) are read-only; copy a state
    to modify it.  The slices are written into ``ws`` (one slice buffer per
    state), a fresh ``ZWorkspace`` if None.
    """
    states = _states(source)
    ws = ZWorkspace(states[0].rho1.shape[1:], len(states)) if ws is None else ws
    slices = []
    for k, state in enumerate(states):
        memo = _spin_memo(state, floor)
        _write_slice(state, memo, z, ws.slices[k], ws.term[0])
        slices.append(SigmaSlice(z, state.t, state.n, *ws.slices[k], memo))
    return slices


# -- pointwise checks -----------------------------------------------------------


@lru_cache(maxsize=None)
def _entries(skip_dt_slots: bool) -> list:
    """The 6-d Clifford entries on even forms grouped by output component, each
    component's terms in table order (a stable sort), so that each output stays in
    cache while it is summed; without the d/dt and dt slots if ``skip_dt_slots``."""
    entries = form_tables(DIM6).clifford[0]
    if skip_dt_slots:
        entries = [e for e in entries if e[0] not in _DT_SECTION]
    return sorted(entries, key=lambda e: e[2])


def annihilator_check(s: SigmaSlice, ws: ZWorkspace | None = None) -> tuple[float, float]:
    """Max-abs of v(z).sigma(z) and w(z).sigma(z) over all nodes, each written into
    ``ws.out`` (a fresh workspace's if None).

    v(z) vanishes on the d/dt and dt slots, so their terms are left out, and w(z)
    holds the constants of d/dt - 2dt there, applied as scalars: an output can
    differ only in the sign of an exact zero, which max|.| ignores.
    """
    ft6 = form_tables(DIM6)
    ws = ZWorkspace(s.sigma.shape[1:]) if ws is None else ws
    w = list(s.w_z)
    for slot, value in _DT_SECTION.items():
        w[slot] = value
    ft6.clifford_apply(s.v_z, s.sigma, 0, ws.out, ws.term[0], _entries(True))
    av = _max_abs(ws.out)
    ft6.clifford_apply(w, s.sigma, 0, ws.out, ws.term[0], _entries(False))
    return av, _max_abs(ws.out)


@lru_cache(maxsize=None)
def _clifford_columns() -> tuple[np.ndarray, ...]:
    """The 6-d Clifford entries on even forms as (slot, src, dst, sign) index arrays."""
    return tuple(np.array(col) for col in zip(*form_tables(DIM6).clifford[0]))


def annihilator_nullity(s: SigmaSlice) -> int:
    """Minimum nullity of the Clifford-action matrix over about 64 sampled nodes.

    Rows are e_a . sigma for the 12 pointwise basis sections, each read off its
    slot's table entries (one per (slot, dst) pair); the annihilator of sigma(z)
    must contain span{v(z), w(z)}, so the nullity is at least 2.
    """
    ft6 = form_tables(DIM6)
    flat = s.sigma.reshape(s.sigma.shape[0], -1)
    stride = max(1, flat.shape[1] // 64)
    sigma_nodes = flat[:, ::stride]
    slot, src, dst, sign = _clifford_columns()
    mats = np.zeros((sigma_nodes.shape[1], 2 * DIM6, ft6.n_odd))   # (node, section, odd comp)
    mats[:, slot, dst] = (sign[:, None] * sigma_nodes[src]).T
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
    # d/dt - 2dt is constant and pairs to zero with the spatial triple, whose 6-chart
    # padding adds only exact zeros: six 5-d inner products fill the Gram matrix
    # (section_inner is symmetric bit for bit)
    gram = np.zeros(triple[0].shape[1:] + (4, 4))
    gram[..., 0, 0] = _dt_section_norm()
    for i, j in combinations_with_replacement(range(3), 2):
        gram[..., i + 1, j + 1] = gram[..., j + 1, i + 1] = section_inner(triple[i], triple[j], DIM)
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


def _spacetime_gradient(slices: Sequence[np.ndarray], n: int, dt: float, method: str,
                        out: np.ndarray) -> np.ndarray:
    """(d/dt, d/dx_1..d/dx_5) of the middle slice into ``out``, d/dt by central
    differences."""
    np.subtract(slices[2], slices[0], out=out[0])
    out[0] /= 2 * dt
    gradient(slices[1], n, method, out=out[1:])
    return out


def courant_bracket_6d(u_slices: Sequence[np.ndarray], v_slices: Sequence[np.ndarray],
                       n: int, dt: float, method: str = "spectral",
                       ws: ZWorkspace | None = None) -> np.ndarray:
    """[u, v] on the 6-chart at the middle slice, through ``ws``'s gradients (a fresh
    ``ZWorkspace`` if None) into ``ws.out[:12]``.

    Sections are (12, grid) per slice; the time axis enters through central
    differences of the slice sequence, the spatial axes spectrally.
    """
    ws = ZWorkspace(u_slices[1].shape[1:]) if ws is None else ws
    pairings = [section_pairing(us, vs, DIM6) for us, vs in zip(u_slices, v_slices)]
    return bracket_from_derivatives(u_slices[1], v_slices[1], *(
        _spacetime_gradient(slices, n, dt, method, out)
        for slices, out in zip((u_slices, v_slices, pairings), ws.gradients)),
        out=ws.out[:2 * DIM6])


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


def _lambda5(memo: SpinMemo, n: int, method: str) -> np.ndarray:
    """lambda of the 5-d [v1, v2], z-independent: once per state and method, kept
    read-only like the other memo arrays."""
    lam5 = memo.lambdas.get(method)
    if lam5 is None:
        v1, h, v2 = memo.triple
        lam5 = lambda_field(h, courant_bracket_grid(v1, v2, n, method))
        lam5.flags.writeable = False
        memo.lambdas[method] = lam5
    return lam5


def ez_check(slices: Sequence[SigmaSlice], method: str = "spectral",
             ws: ZWorkspace | None = None) -> EzReport:
    """Inner products among {v(z), w(z)} and the [w(z), v(z)] = lambda v(z) residual,
    built in ``ws`` (a fresh workspace if None).

    v(z) and u(z) = d/dt - 2dt - w(z) vanish on the d/dt and dt slots, so their
    inner products sum the five spatial pairs only (the dropped pairs are exact
    zeros); (d/dt - 2dt, d/dt - 2dt) is constant and read at one node.
    """
    prev, mid, nxt, dt = _central_slices(slices)

    # first, so that the kept array is not allocated amid this call's temporaries
    lam5 = _lambda5(mid.spin, mid.n, method)
    ws = ZWorkspace(mid.v_z.shape[1:]) if ws is None else ws
    out, term = ws.out, ws.term
    v, w = _spatial(mid.v_z), _spatial(mid.w_z)
    vv = _max_abs(section_inner(v, v, DIM, out[0], term))
    vw = _max_abs(section_inner(v, w, DIM, out[0], term))
    ww = _max_abs(section_inner(mid.w_z, mid.w_z, DIM6, out[0], term))
    # (u,u) = 2 and (d/dt-2dt, d/dt-2dt) = -2 feed (w,w) = 0; u = -w on the spatial slots
    uu = section_inner(w, w, DIM, out[0], term)
    uu_minus_two = _max_abs(np.subtract(uu, 2.0, out=uu))
    residual = courant_bracket_6d([s.w_z for s in (prev, mid, nxt)],
                                  [s.v_z for s in (prev, mid, nxt)], mid.n, dt, method, ws)
    residual -= np.multiply(mid.v_z, lam5, out=out[2 * DIM6:4 * DIM6])
    return EzReport(
        z=mid.z,
        t=mid.t,
        vv_max=vv,
        vw_max=vw,
        ww_max=ww,
        uu_minus_two_max=uu_minus_two,
        dt_section_norm_plus_two=abs(_dt_section_norm() + 2.0),
        bracket_residual=grid_norm(residual, lattice_cell_volume(mid.n), out=residual),
        lambda_max=_max_abs(lam5),
    )


def dsigma_residual(slices: Sequence[SigmaSlice], method: str = "spectral",
                    ws: ZWorkspace | None = None) -> float:
    """|d sigma| at the middle slice: spatial d plus central time differences, built
    in ``ws.out`` (a fresh workspace's if None).

    d sigma = d5 rho(z) + dt ^ (d rho(z)/dt - d5 rho_hat(z)); closedness of
    the flow data makes this O(dt^2) plus spatial truncation.  rho(z) and
    rho_hat(z) are read in place from their components of sigma.
    """
    prev, mid, nxt, dt = _central_slices(slices)
    maps = _index_maps()
    ws = ZWorkspace(mid.sigma.shape[1:]) if ws is None else ws
    out, term = ws.out, ws.term[0]
    rho_at, hat_at = maps["even5_even6"], maps["odd5_dt_even6"]
    dt_part = [out[k] for k in maps["even5_dt_odd6"]]
    grid_d([mid.sigma[k] for k in rho_at], 0, mid.n, method,
           [out[k] for k in maps["odd5_odd6"]], term)
    # -d5 rho_hat(z) first, then + d rho(z)/dt: the same sum as d rho/dt - d5 rho_hat
    grid_d([mid.sigma[k] for k in hat_at], 1, mid.n, method, dt_part, term, sign=-1)
    for k, acc in zip(rho_at, dt_part):
        np.subtract(nxt.sigma[k], prev.sigma[k], out=term)
        term /= 2 * dt
        acc += term
    return grid_norm(out, lattice_cell_volume(mid.n), out=out)


@dataclass
class SixdimReport:
    z_values: list[str]
    annihilator_v: dict[str, float]
    annihilator_w: dict[str, float]
    nullity: dict[str, int]
    ez: dict[str, EzReport]
    dsigma: dict[str, float]
    signature: tuple[int, int, int]


def check_trajectory(source: Trajectory | Sequence[GridState],
                     z_values: Sequence[ZValue] = DEFAULT_Z_SWEEP,
                     method: str = "spectral", floor: float = 1e-6) -> SixdimReport:
    """Run annihilator, isotropy/integrability, d sigma and signature checks.

    The z-independent fields, the signature included, are memoized on the
    states (see ``build_sigma``), so repeated calls on one trajectory
    evaluate them once; the states' rho1/rho2 become read-only.  Every z
    is checked in the one ``ZWorkspace`` kept on the first state's memo, so
    calls on one trajectory must not run concurrently.
    """
    states = _states(source)
    ann_v: dict[str, float] = {}
    ann_w: dict[str, float] = {}
    nullity: dict[str, int] = {}
    ez: dict[str, EzReport] = {}
    dsig: dict[str, float] = {}
    signature = None
    if z_values:
        # the z-independent fields first, so that the workspace, allocated once,
        # can reuse the pages of their temporaries
        memos = [_spin_memo(state, floor) for state in states]
        if memos[0].signature is None:
            memos[0].signature = _triple_signature(memos[0].triple)
        signature = memos[0].signature
        if len(states) >= 3:
            _lambda5(memos[-2], states[-2].n, method)
        ws = _workspace(states, floor)
    for z in z_values:
        key = str(z)
        slices = build_sigma(states, z, floor, ws)
        checks = [annihilator_check(s, ws) for s in slices]
        ann_v[key] = max(c[0] for c in checks)
        ann_w[key] = max(c[1] for c in checks)
        nullity[key] = annihilator_nullity(slices[0])
        if len(slices) >= 3:
            ez[key] = ez_check(slices, method, ws)
            dsig[key] = dsigma_residual(slices, method, ws)
    return SixdimReport(
        z_values=[str(z) for z in z_values],
        annihilator_v=ann_v,
        annihilator_w=ann_w,
        nullity=nullity,
        ez=ez,
        dsigma=dsig,
        signature=signature or (0, 0, 0),
    )
