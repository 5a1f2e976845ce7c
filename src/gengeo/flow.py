"""The volume-functional evolution d rho/dt = d rho_hat on a five-torus grid.

State is the 16 even coefficients of each of rho1, rho2 sampled on an
N^5 lattice over [0, 2pi)^5.  rho_hat is evaluated nodewise through the
same structure constants as the exact kernel, d is spectral (exact for
band-limited data), and time stepping is classical RK4.  Initial data is
the constant normal form plus a closed trigonometric perturbation
eps * d(alpha), so the flow stays in one cohomology class.

In five dimensions the pairing int <d alpha, beta> on odd forms is
antisymmetric, so the epsilon-twisted bilinear generating this evolution
is symmetric: the flow transports the total volume V monotonically
(gradient-like) rather than conserving it.  The per-step V series is
recorded; convergence of V at fixed final time measures the stepper's
fourth order.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .spin55 import StabilityError, normal_form
from .tables import form_tables, q_tables, section_inner

DIM = 5
N_COEFF = 16


# -- configuration -------------------------------------------------------------


@dataclass
class FlowConfig:
    n: int = 8
    dt: float = 0.02
    steps: int = 100
    epsilon: float = 1e-2
    perturbation: str | list[dict] = "default"
    diagnostics: tuple[str, ...] = ("hamiltonian", "mean-modes", "closedness")
    ring: int = 3
    stability_floor: float = 1e-6
    method: str = "spectral"

    def __post_init__(self) -> None:
        if self.n < 4:
            raise ValueError("grid size N must be >= 4")
        if self.method not in ("spectral", "fd4"):
            raise ValueError("method must be 'spectral' or 'fd4'")
        if self.ring < 3:
            raise ValueError("ring must keep at least 3 states")

    @staticmethod
    def from_json_obj(obj: Mapping) -> "FlowConfig":
        kwargs = dict(obj)
        if "N" in kwargs:
            kwargs["n"] = kwargs.pop("N")
        known = {f for f in FlowConfig.__dataclass_fields__}
        unknown = set(kwargs) - known
        if unknown:
            raise ValueError(f"unknown flow config keys: {sorted(unknown)}")
        if "diagnostics" in kwargs:
            kwargs["diagnostics"] = tuple(kwargs["diagnostics"])
        return FlowConfig(**kwargs)


def lattice_cell_volume(n: int) -> float:
    """Volume of one cell of the N^5 lattice over [0, 2pi)^5."""
    return (2 * np.pi / n) ** DIM


@dataclass
class SpinMemo:
    """The z-independent spin fields of one state at one stability floor.

    Filled by ``sixdim`` and reused for every spectral parameter z: the hat
    pair, the signed triple (v1, h, v2) and, once asked for, the Gram
    signature of span{d/dt - 2dt, v1, h, v2}.
    """

    floor: float
    hat1: np.ndarray
    hat2: np.ndarray
    triple: tuple[np.ndarray, np.ndarray, np.ndarray]
    signature: tuple[int, int, int] | None = None


@dataclass
class GridState:
    """Sampled rho on the periodic lattice: arrays of shape (16, n,...,n).

    ``spin`` holds the memoized spin fields once ``sixdim`` has evaluated
    them; rho1 and rho2 are then read-only, so the memo cannot go stale.
    """

    n: int
    rho1: np.ndarray
    rho2: np.ndarray
    t: float
    dt: float
    spin: SpinMemo | None = field(default=None, init=False, repr=False, compare=False)

    def copy(self) -> "GridState":
        return GridState(self.n, self.rho1.copy(), self.rho2.copy(), self.t, self.dt)

    @property
    def cell_volume(self) -> float:
        return lattice_cell_volume(self.n)


# -- derivatives ---------------------------------------------------------------


def _wavenumbers(n: int) -> np.ndarray:
    k = np.fft.fftfreq(n, d=1.0 / n)
    if n % 2 == 0:
        k[n // 2] = 0.0  # drop the Nyquist mode from odd derivatives
    return k


@lru_cache(maxsize=None)
def derivative_matrix(n: int, method: str) -> np.ndarray:
    """Circulant one-axis derivative as a dense n x n matrix.

    The derivative mixes only along its own axis, so for the small periodic
    grids used here a batched matmul beats many short FFT passes; the
    spectral matrix is built from the FFT itself (Nyquist mode dropped), so
    both paths agree to roundoff.
    """
    if method == "spectral":
        k = _wavenumbers(n)
        spec = np.fft.fft(np.eye(n), axis=0)
        return np.real(np.fft.ifft(spec * (1j * k)[:, None], axis=0))
    if method == "fd4":
        h = 2 * np.pi / n
        d = np.zeros((n, n))
        for i in range(n):
            d[i, (i + 1) % n] += 8 / (12 * h)
            d[i, (i - 1) % n] -= 8 / (12 * h)
            d[i, (i + 2) % n] -= 1 / (12 * h)
            d[i, (i - 2) % n] += 1 / (12 * h)
        return d
    raise ValueError(f"unknown derivative method {method!r}")


def _axis_derivative(fields: np.ndarray, axis: int, dmat: np.ndarray,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Apply dmat along one axis as a (pre, n, post) contraction.

    The batched matmul issues one dgemm per pre-slice.  On the last axis
    (post = 1) those would be pre separate matvecs, so it runs as a single
    (pre, n) @ dmat.T GEMM instead.  A given ``out`` must be C-contiguous:
    it is written through reshaped views.
    """
    shape = fields.shape
    n = shape[axis]
    pre = int(np.prod(shape[:axis], dtype=np.int64))
    post = int(np.prod(shape[axis + 1:], dtype=np.int64))
    if out is None:
        out = np.empty(shape, dtype=np.float64)
    if post == 1:
        np.matmul(fields.reshape(pre, n), dmat.T, out=out.reshape(pre, n))
    else:
        np.matmul(dmat, fields.reshape(pre, n, post), out=out.reshape(pre, n, post))
    return out


def spectral_gradient(fields: np.ndarray, n: int) -> np.ndarray:
    """d(fields)/dx_i for every component; shape (5,) + fields.shape."""
    return _gradient(fields, n, "spectral")


def fd4_gradient(fields: np.ndarray, n: int) -> np.ndarray:
    """4th-order centered differences, the non-smooth-data fallback."""
    return _gradient(fields, n, "fd4")


def _gradient(fields: np.ndarray, n: int, method: str,
              out: np.ndarray | None = None) -> np.ndarray:
    """Gradient of shape (5,) + fields.shape, written into ``out`` if given
    (C-contiguous, as for ``_axis_derivative``)."""
    dmat = derivative_matrix(n, method)
    if out is None:
        out = np.empty((DIM,) + fields.shape, dtype=np.float64)
    for i in range(DIM):
        _axis_derivative(fields, fields.ndim - DIM + i, dmat, out[i])
    return out


def gradient_op(method: str) -> Callable[[np.ndarray, int], np.ndarray]:
    return spectral_gradient if method == "spectral" else fd4_gradient


def grid_d(fields: np.ndarray, parity: int, n: int, method: str = "spectral") -> np.ndarray:
    """Exterior derivative of a sampled form (leading axis = component)."""
    tables = form_tables(DIM)
    dmat = derivative_matrix(n, method)
    first = fields.ndim - DIM
    blocks = [_axis_derivative(fields[sources], first + i, dmat)
              for i, sources in enumerate(tables.ext_sources[parity])]
    return tables.d_apply(blocks, parity)


# -- pointwise spin geometry on the grid -----------------------------------------


@dataclass
class HatResult:
    hat1: np.ndarray
    hat2: np.ndarray
    f: np.ndarray
    phi: np.ndarray
    sign: int


def stability_field(rho1: np.ndarray, rho2: np.ndarray) -> np.ndarray:
    qt = q_tables()
    return section_inner(qt.q_apply(rho1), qt.q_apply(rho2), DIM)


def _node(flat_index: int, shape: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(int(i) for i in np.unravel_index(flat_index, shape))


def _check_stability(f: np.ndarray, floor: float, t: float) -> int:
    fmin = float(np.min(np.abs(f)))
    if fmin <= floor:
        node = _node(int(np.argmin(np.abs(f))), f.shape)
        raise StabilityError(f"stability lost at t={t:.6g}: |f|={fmin:.3e} at node {node}")
    signs = np.sign(f)
    if signs.max() != signs.min():
        node = _node(int(np.argmax(signs != signs.flat[0])), f.shape)
        raise StabilityError(f"orbit sign flip at t={t:.6g}, node {node}")
    return int(signs.flat[0])


def rho_hat_grid(rho1: np.ndarray, rho2: np.ndarray, floor: float = 1e-6,
                 t: float = 0.0) -> HatResult:
    """Nodewise rho_hat = s (v1.rho2, -v2.rho1) with v_i = Q_i / phi."""
    qt = q_tables()
    ft = qt.forms
    q1 = qt.q_apply(rho1)
    q2 = qt.q_apply(rho2)
    f = section_inner(q1, q2, DIM)
    sign = _check_stability(f, floor, t)
    phi = np.sqrt(np.abs(f))
    hat1 = ft.clifford_apply(q1 / phi, rho2, 0) * sign
    hat2 = ft.clifford_apply(q2 / phi, rho1, 0) * (-sign)
    return HatResult(hat1=hat1, hat2=hat2, f=f, phi=phi, sign=sign)


def signed_triple(rho1: np.ndarray, rho2: np.ndarray, floor: float = 1e-6,
                  t: float = 0.0) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """(v1, h, v2, phi, s): s-signed normalized triple fields, shape (10, grid)."""
    qt = q_tables()
    q1 = qt.q_apply(rho1)
    q2 = qt.q_apply(rho2)
    p12 = qt.p_apply(rho1, rho2)
    f = section_inner(q1, q2, DIM)
    sign = _check_stability(f, floor, t)
    phi = np.sqrt(np.abs(f))
    scale = sign / phi
    return q1 * scale, p12 * scale, q2 * scale, phi, sign


# -- time stepping -----------------------------------------------------------------


def _rhs(rho1: np.ndarray, rho2: np.ndarray, n: int, method: str, floor: float,
         t: float) -> tuple[np.ndarray, np.ndarray]:
    hat = rho_hat_grid(rho1, rho2, floor, t)
    return (grid_d(hat.hat1, 1, n, method), grid_d(hat.hat2, 1, n, method))


def flow_step(state: GridState, method: str = "spectral",
              floor: float = 1e-6) -> GridState:
    """One classical RK4 step of d rho/dt = d rho_hat."""
    n, dt, t = state.n, state.dt, state.t
    if dt == 0.0:
        return state.copy()
    r1, r2 = state.rho1, state.rho2
    k1 = _rhs(r1, r2, n, method, floor, t)
    k2 = _rhs(r1 + 0.5 * dt * k1[0], r2 + 0.5 * dt * k1[1], n, method, floor, t + 0.5 * dt)
    k3 = _rhs(r1 + 0.5 * dt * k2[0], r2 + 0.5 * dt * k2[1], n, method, floor, t + 0.5 * dt)
    k4 = _rhs(r1 + dt * k3[0], r2 + dt * k3[1], n, method, floor, t + dt)
    new1 = r1 + (dt / 6.0) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
    new2 = r2 + (dt / 6.0) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
    return GridState(n, new1, new2, t + dt, dt)


def hamiltonian(state: GridState, floor: float = 1e-6) -> float:
    """Total volume V = sum of phi over nodes times the cell volume.

    V generates the evolution; in five dimensions it drifts monotonically
    along the flow (the generating bilinear is symmetric, see the module
    docstring), so V enters the diagnostics as a stepper-order probe, not
    a conserved quantity.
    """
    f = stability_field(state.rho1, state.rho2)
    _check_stability(f, floor, state.t)
    return _total_volume(f, state.cell_volume)


def _total_volume(f: np.ndarray, cell_volume: float) -> float:
    return float(np.sum(np.sqrt(np.abs(f)))) * cell_volume


def mean_modes(state: GridState) -> np.ndarray:
    """Spatial zero-Fourier mode of each of the 32 coefficients."""
    axes = tuple(range(-DIM, 0))
    return np.concatenate([state.rho1.mean(axis=axes), state.rho2.mean(axis=axes)])


def closedness_norms(state: GridState, method: str = "spectral") -> tuple[float, float]:
    d1 = grid_d(state.rho1, 0, state.n, method)
    d2 = grid_d(state.rho2, 0, state.n, method)
    return grid_norm(d1, state.cell_volume), grid_norm(d2, state.cell_volume)


def grid_norm(fields: np.ndarray, cell_volume: float) -> float:
    """L2 norm over components and nodes, fixed axis-major reduction."""
    return float(np.sqrt(np.sum(fields * fields) * cell_volume))


# -- initial data ------------------------------------------------------------------


DEFAULT_PERTURBATION: list[dict] = [
    {"component": "rho1", "indices": [3], "k": [1, 0, 0, 0, 0], "cos": 1.0, "sin": 0.0},
    {"component": "rho1", "indices": [5], "k": [0, 1, 0, 0, 0], "cos": 0.0, "sin": 1.0},
    {"component": "rho1", "indices": [1, 2, 4], "k": [0, 0, 1, 0, 0], "cos": 0.5, "sin": 0.0},
    {"component": "rho2", "indices": [2], "k": [0, 0, 0, 1, 0], "cos": 0.0, "sin": 1.0},
    {"component": "rho2", "indices": [4], "k": [1, 0, 0, 0, -1], "cos": 0.7, "sin": 0.0},
    {"component": "rho2", "indices": [1, 3, 5], "k": [0, 1, 1, 0, 0], "cos": 0.0, "sin": 0.4},
]


def _mode_field(n: int, k: Sequence[int], cos_amp: float, sin_amp: float) -> np.ndarray:
    xs = np.meshgrid(*(np.arange(n) * (2 * np.pi / n) for _ in range(DIM)), indexing="ij")
    phase = sum(ki * x for ki, x in zip(k, xs))
    return cos_amp * np.cos(phase) + sin_amp * np.sin(phase)


def perturbation_forms(n: int, modes: Iterable[Mapping]) -> tuple[np.ndarray, np.ndarray]:
    """Sample the odd-form pair alpha = (alpha1, alpha2) from mode entries.

    Each entry: {"component": "rho1"|"rho2", "indices": 1-based increasing
    odd multi-index, "k": 5 integers, "cos": amp, "sin": amp}.
    """
    tables = form_tables(DIM)
    alpha1 = np.zeros((N_COEFF,) + (n,) * DIM)
    alpha2 = np.zeros((N_COEFF,) + (n,) * DIM)
    for entry in modes:
        idx = tuple(int(i) - 1 for i in entry["indices"])
        if idx not in tables.pos or tables.pos[idx][0] != 1:
            raise ValueError(f"perturbation indices {entry['indices']} are not an odd multi-index")
        target = alpha1 if entry["component"] == "rho1" else alpha2
        slot = tables.pos[idx][1]
        target[slot] += _mode_field(n, entry["k"], float(entry.get("cos", 0.0)),
                                    float(entry.get("sin", 0.0)))
    return alpha1, alpha2


def initial_state(config: FlowConfig) -> GridState:
    """Constant normal form plus eps * d(alpha): closed by construction."""
    n = config.n
    tables = form_tables(DIM)
    nf = normal_form()
    rho1 = np.zeros((N_COEFF,) + (n,) * DIM)
    rho2 = np.zeros((N_COEFF,) + (n,) * DIM)
    for target, form in ((rho1, nf.rho1), (rho2, nf.rho2)):
        for idx, poly in form.terms.items():
            target[tables.pos[idx][1]] += float(poly.constant_value())
    if config.epsilon:
        modes = DEFAULT_PERTURBATION if config.perturbation == "default" else config.perturbation
        if modes:
            a1, a2 = perturbation_forms(n, modes)
            rho1 += config.epsilon * grid_d(a1, 1, n, config.method)
            rho2 += config.epsilon * grid_d(a2, 1, n, config.method)
    return GridState(n, rho1, rho2, 0.0, config.dt)


# -- trajectories -------------------------------------------------------------------


@dataclass
class Trajectory:
    config: FlowConfig
    diagnostics: list[dict] = field(default_factory=list)
    ring: deque = field(default_factory=deque)
    initial: GridState | None = None
    final: GridState | None = None

    def states(self) -> list[GridState]:
        return list(self.ring)

    def save(self, path: str) -> None:
        states = self.states()
        np.savez_compressed(
            path,
            n=self.config.n,
            dt=self.config.dt,
            times=np.array([s.t for s in states]),
            rho1=np.stack([s.rho1 for s in states]),
            rho2=np.stack([s.rho2 for s in states]),
            diagnostics=json.dumps(self.diagnostics),
            config=json.dumps({**self.config.__dict__,
                               "diagnostics": list(self.config.diagnostics)}),
        )

    @staticmethod
    def load(path: str) -> "Trajectory":
        """Read a saved ring; raises ValueError if its arrays do not fit together."""
        # every npz access decompresses the member again: read each one once
        with np.load(path, allow_pickle=False) as data:
            config = FlowConfig.from_json_obj(json.loads(str(data["config"])))
            diagnostics = json.loads(str(data["diagnostics"]))
            n, dt = int(data["n"]), float(data["dt"])
            times, rho1, rho2 = data["times"], data["rho1"], data["rho2"]
        if n != config.n:
            raise ValueError(f"trajectory has n={n} but its config has N={config.n}")
        if times.ndim != 1 or len(times) < 1:
            raise ValueError(f"trajectory times must be a non-empty list, got shape {times.shape}")
        shape = (len(times), N_COEFF) + (n,) * DIM
        for name, arr in (("rho1", rho1), ("rho2", rho2)):
            if arr.shape != shape:
                raise ValueError(f"trajectory {name} has shape {arr.shape}, expected {shape}")
        steps = np.diff(times)
        if not np.all(np.isclose(steps, steps[:1])):
            raise ValueError("trajectory states are not uniformly spaced in time")
        traj = Trajectory(config=config, diagnostics=diagnostics)
        for i, t in enumerate(times):
            traj.ring.append(GridState(n, rho1[i], rho2[i], float(t), dt))
        traj.initial = traj.ring[0]
        traj.final = traj.ring[-1]
        return traj


def run_flow(config: FlowConfig, on_step: Callable[[GridState], None] | None = None) -> Trajectory:
    """Integrate the flow, collecting per-step diagnostics and a state ring."""
    state = initial_state(config)
    traj = Trajectory(config=config, ring=deque(maxlen=config.ring))
    traj.initial = state.copy()
    mean0 = mean_modes(state)

    def record(s: GridState) -> None:
        # one Q/f evaluation per state feeds V, min|f| and the orbit sign
        f = stability_field(s.rho1, s.rho2)
        sign = _check_stability(f, config.stability_floor, s.t)
        entry: dict = {"t": s.t}
        if "hamiltonian" in config.diagnostics:
            entry["hamiltonian"] = _total_volume(f, s.cell_volume)
        if "mean-modes" in config.diagnostics:
            entry["mean_mode_drift"] = float(np.max(np.abs(mean_modes(s) - mean0)))
        if "closedness" in config.diagnostics:
            d1, d2 = closedness_norms(s, config.method)
            entry["d_rho1"] = d1
            entry["d_rho2"] = d2
        entry["min_abs_f"] = float(np.min(np.abs(f)))
        entry["orbit_sign"] = sign
        traj.diagnostics.append(entry)

    def record_nahm() -> None:
        # the centered residual lives at the middle of the last three states
        if "nahm" in config.diagnostics and len(traj.ring) >= 3:
            r = nahm_residual(list(traj.ring)[-3:], config.method, config.stability_floor)
            traj.diagnostics[-2].update({
                "nahm_v1": r.v1_residual, "nahm_h": r.h_residual,
                "nahm_v2": r.v2_residual, "lambda_max": r.lambda_max,
            })

    record(state)
    traj.ring.append(state.copy())
    for _ in range(config.steps):
        state = flow_step(state, config.method, config.stability_floor)
        record(state)
        traj.ring.append(state.copy())
        record_nahm()
        if on_step is not None:
            on_step(state)
    traj.final = state
    return traj


# -- Courant brackets and the evolution-equation residual ----------------------------


def courant_bracket_grid(u: np.ndarray, v: np.ndarray, n: int,
                         method: str = "spectral") -> np.ndarray:
    """[u, v] for sampled sections (10, grid): Lie bracket plus form terms."""
    grad = gradient_op(method)
    du = grad(u, n)   # (5, 10, grid)
    dv = grad(v, n)
    out = np.zeros_like(u)
    xu, xv = u[:DIM], v[:DIM]
    eu, ev = u[DIM:], v[DIM:]
    dxu, dxv = du[:, :DIM], dv[:, :DIM]
    deu, dev = du[:, DIM:], dv[:, DIM:]
    # vector part: X_u^j d_j X_v^i - X_v^j d_j X_u^i
    for i in range(DIM):
        acc = out[i]
        for j in range(DIM):
            acc += xu[j] * dxv[j][i] - xv[j] * dxu[j][i]
    # one-form part: L_{X_u} ev - L_{X_v} eu - d(i_{X_u} ev - i_{X_v} eu)/2
    pairing = np.zeros_like(u[0])
    for j in range(DIM):
        pairing += xu[j] * ev[j] - xv[j] * eu[j]
    dpairing = grad(pairing, n)
    for i in range(DIM):
        acc = out[DIM + i]
        for j in range(DIM):
            acc += xu[j] * dev[j][i] + ev[j] * dxu[i][j]
            acc -= xv[j] * deu[j][i] + eu[j] * dxv[i][j]
        acc -= 0.5 * dpairing[i]
    return out


def lambda_field(h: np.ndarray, bracket_v1v2: np.ndarray) -> np.ndarray:
    """lambda = -(h, [v1,v2]) / (h,h), the trace formula of the h-equation.

    (h,h) is computed pointwise; on stable data it equals the orbit
    constant (1/2 in the f < 0 orbit), so this is the exact multiplier
    that closes the evolution equations.
    """
    hh = section_inner(h, h, DIM)
    return -section_inner(h, bracket_v1v2, DIM) / hh


@dataclass
class NahmResidual:
    """Norms of the three evolution-equation residuals at one time slice."""

    t: float
    v1_residual: float
    h_residual: float
    v2_residual: float
    h_residual_lambda0: float
    h_residual_lambda_hh2: float
    lambda_max: float
    triple_scale: float

    @property
    def total(self) -> float:
        return max(self.v1_residual, self.h_residual, self.v2_residual)


def nahm_residual(states: Sequence[GridState], method: str = "spectral",
                  floor: float = 1e-6) -> NahmResidual:
    """Central-difference residuals of the bracket evolution equations.

        v1' = -2[h, v1] + lambda v1,
        h'  =  [v1, v2] + lambda h,
        v2' =  2[h, v2] + lambda v2,

    for the signed triple, with lambda = -(h,[v1,v2])/(h,h) pointwise.
    Also reports the h-equation residual with lambda = 0 and with the
    alternative normalization (h,h) = 2, i.e. lambda = -(h,[v1,v2])/2.
    """
    if len(states) < 3:
        raise ValueError("need at least 3 stored states for central differences")
    prev, mid, nxt = states[-3], states[-2], states[-1]
    dt = mid.t - prev.t
    if not np.isclose(nxt.t - mid.t, dt):
        raise ValueError("states are not uniformly spaced in time")
    n = mid.n
    cell = mid.cell_volume

    triples = [signed_triple(s.rho1, s.rho2, floor, s.t) for s in (prev, mid, nxt)]
    (v1m, hm, v2m, _, _) = triples[1]
    dot = [(b - a) / (2 * dt) for a, b in zip(triples[0][:3], triples[2][:3])]

    br_hv1 = courant_bracket_grid(hm, v1m, n, method)
    br_v1v2 = courant_bracket_grid(v1m, v2m, n, method)
    br_hv2 = courant_bracket_grid(hm, v2m, n, method)
    lam = lambda_field(hm, br_v1v2)

    r1 = dot[0] + 2 * br_hv1 - lam * v1m
    rh = dot[1] - br_v1v2 - lam * hm
    r2 = dot[2] - 2 * br_hv2 - lam * v2m
    rh0 = dot[1] - br_v1v2
    lam_hh2 = -0.5 * section_inner(hm, br_v1v2, DIM)
    rhp = dot[1] - br_v1v2 - lam_hh2 * hm

    return NahmResidual(
        t=mid.t,
        v1_residual=grid_norm(r1, cell),
        h_residual=grid_norm(rh, cell),
        v2_residual=grid_norm(r2, cell),
        h_residual_lambda0=grid_norm(rh0, cell),
        h_residual_lambda_hh2=grid_norm(rhp, cell),
        lambda_max=float(np.max(np.abs(lam))),
        triple_scale=grid_norm(np.concatenate([v1m, hm, v2m]), cell),
    )


@dataclass
class MeanModeReport:
    max_drift: float
    per_step: list[float]

    def within(self, tol: float) -> bool:
        return self.max_drift < tol


def mean_mode_invariants(traj: Trajectory) -> MeanModeReport:
    """Zero-Fourier-mode drift of every coefficient along the trajectory."""
    drifts = [d.get("mean_mode_drift", 0.0) for d in traj.diagnostics]
    return MeanModeReport(max_drift=max(drifts, default=0.0), per_step=drifts)
