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

``Workspace`` is the grid layer's one buffer class.  Each ``run_flow`` owns
one: the RK4 stages, their Q/f fields and slopes, and the per-step diagnostics
write into its buffers, so a step allocates only the new state's arrays, k1
written straight into them.  No step writes into its input, so the trajectory
ring holds the live states, not copies.  The Q/f recorded for a state feeds the
next step's first stage.  ``rho_hat_grid``, ``stability_field`` and a call made
without a workspace build their own, from ``np.empty``: the buffers such a call
never writes (the RK4 stage and slopes, for one) are never touched.

Each half of a slope, d rho_hat_i, is one stream over the 16 hat components:
component src is built from its Clifford entries into one scratch component
and its d terms are added to the slope straight away (``d_apply`` reads its
sources in order), with the orbit sign folded into ``grid_d``; no full hat
is stored.  ``closedness_norms`` builds each d rho_i in the workspace's
slope ``k[i]``, which is free while a state is recorded.

Where the flow treats rho1 and rho2 alike (the two Q's, the two halves of a
slope, the RK4 updates and the two closedness norms), ``_halves`` runs half 0
on the calling thread and half 1 on one helper thread per process, started on
first use; on a one-CPU process both run inline.  Every result is bitwise
the serial one.  Calls that share one ``Workspace`` must not run
concurrently.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import queue
import threading
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from .spin55 import StabilityError, normal_form
from .tables import form_tables, q_tables, section_inner

DIM = 5
N_COEFF = 16
DIAGNOSTICS = ("hamiltonian", "mean-modes", "closedness", "nahm")


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
        """Reject a config that cannot run as asked (ValueError).  dt = 0 is valid
        without the nahm diagnostic: every step then returns its state unchanged."""
        for name, least in (("n", 4), ("steps", 0), ("ring", 3)):
            value = getattr(self, name)
            if not _is_int(value) or value < least:
                raise ValueError(f"{'N' if name == 'n' else name} must be an integer >= {least}")
        for name in ("dt", "epsilon", "stability_floor"):
            if not _is_finite(getattr(self, name)):
                raise ValueError(f"{name} must be a finite number")
        if self.stability_floor <= 0:
            raise ValueError("stability_floor must be > 0")
        if self.method not in ("spectral", "fd4"):
            raise ValueError("method must be 'spectral' or 'fd4'")
        unknown = [d for d in self.diagnostics if d not in DIAGNOSTICS]
        if unknown:
            raise ValueError(f"diagnostics: unknown {unknown}; known {list(DIAGNOSTICS)}")
        if isinstance(self.perturbation, list):
            for k, entry in enumerate(self.perturbation):
                _mode_index(k, entry)
        elif self.perturbation != "default":
            raise ValueError('perturbation must be "default" or a list of mode objects')
        if self.dt == 0 and "nahm" in self.diagnostics:
            raise ValueError("dt must be nonzero for the nahm diagnostic's central differences")

    @staticmethod
    def from_json_obj(obj: Mapping) -> "FlowConfig":
        if not isinstance(obj, Mapping):
            raise ValueError(f"flow config must be a JSON object, got {type(obj).__name__}")
        kwargs = dict(obj)
        if "N" in kwargs:
            if "n" in kwargs:
                raise ValueError("N and n both set the grid size: give one of them")
            kwargs["n"] = kwargs.pop("N")
        known = {f for f in FlowConfig.__dataclass_fields__}
        unknown = set(kwargs) - known
        if unknown:
            raise ValueError(f"unknown flow config keys: {sorted(unknown)}")
        if "diagnostics" in kwargs:
            if not isinstance(kwargs["diagnostics"], list):
                raise ValueError("diagnostics must be a list of names")
            kwargs["diagnostics"] = tuple(kwargs["diagnostics"])
        return FlowConfig(**kwargs)


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and type(value) is not bool


def _is_finite(value) -> bool:
    return isinstance(value, numbers.Real) and type(value) is not bool and math.isfinite(value)


def _mode_index(k: int, entry) -> tuple[int, ...]:
    """The 0-based odd multi-index of perturbation entry k; ValueError unless the
    entry is a mode object as ``perturbation_forms`` describes."""
    where = f"perturbation[{k}]"
    if not isinstance(entry, Mapping):
        raise ValueError(f"{where}: expected a mode object")
    unknown = set(entry) - {"component", "indices", "k", "cos", "sin"}
    if unknown:
        raise ValueError(f"{where}: unknown keys {sorted(unknown)}")
    if entry.get("component") not in ("rho1", "rho2"):
        raise ValueError(f"{where}: component must be 'rho1' or 'rho2'")
    indices = entry.get("indices")
    idx = (tuple(i - 1 for i in indices)
           if isinstance(indices, (list, tuple)) and all(map(_is_int, indices)) else None)
    pos = form_tables(DIM).pos
    if idx not in pos or pos[idx][0] != 1:
        raise ValueError(f"{where}: indices {indices!r} are not an odd multi-index")
    wave = entry.get("k")
    if not (isinstance(wave, (list, tuple)) and len(wave) == DIM and all(map(_is_int, wave))):
        raise ValueError(f"{where}: k must be a list of {DIM} integers")
    if not all(_is_finite(entry.get(amp, 0.0)) for amp in ("cos", "sin")):
        raise ValueError(f"{where}: cos and sin must be finite numbers")
    return idx


def lattice_cell_volume(n: int) -> float:
    """Volume of one cell of the N^5 lattice over [0, 2pi)^5."""
    return (2 * np.pi / n) ** DIM


@dataclass
class SpinMemo:
    """The z-independent spin fields of one state at one stability floor.

    Built by ``rho_hat_grid``, memoized by ``sixdim`` and reused for every
    spectral parameter z: the hat pair, the signed triple (v1, h, v2) and, once
    asked for, the Gram signature of span{d/dt - 2dt, v1, h, v2} and, per method,
    the multiplier lambda of the 5-d bracket [v1, v2].  On the first state
    of a checked sequence it also keeps the z checks' buffers
    (``sixdim.ZWorkspace``), rewritten for every z.
    """

    floor: float
    hat1: np.ndarray
    hat2: np.ndarray
    triple: tuple[np.ndarray, np.ndarray, np.ndarray]
    signature: tuple[int, int, int] | None = None
    lambdas: dict[str, np.ndarray] = field(default_factory=dict)
    workspace: Any = None


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


# -- the two halves of a pair --------------------------------------------------


class _Helper:
    """The thread that runs half 1 of every ``_halves`` call in this process."""

    def __init__(self):
        self.tasks: queue.SimpleQueue = queue.SimpleQueue()
        self.thread = threading.Thread(target=self._serve, name="gengeo-flow-half",
                                       daemon=True)
        self.thread.start()

    def _serve(self) -> None:
        while True:
            self._run(*self.tasks.get())

    @staticmethod
    def _run(fn: Callable[[int], Any], done: queue.SimpleQueue) -> None:
        # a frame of its own, so that no task outlives its call (fn may hold a state)
        try:
            done.put((fn(1), None))
        except BaseException as exc:        # handed to the caller, which raises it
            done.put((None, exc))


_helper: list[_Helper] = []                 # the process's helper, once started
_helper_lock = threading.Lock()
os.register_at_fork(after_in_child=_helper.clear)   # a forked child has no helper thread


def _cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _halves(fn: Callable[[int], Any]) -> list:
    """[fn(0), fn(1)], fn(0) on the calling thread while the helper thread runs fn(1);
    both inline when this process may use one CPU only or when called from the
    helper itself.  Returns only once both halves have finished, even when fn(0)
    raises; then fn(0)'s exception is raised, else fn(1)'s."""
    if _cpus() < 2 or (_helper and threading.current_thread() is _helper[0].thread):
        return [fn(0), fn(1)]
    with _helper_lock:
        if not _helper:
            _helper.append(_Helper())
    done: queue.SimpleQueue = queue.SimpleQueue()
    _helper[0].tasks.put((fn, done))
    try:
        first = fn(0)
    finally:
        second, exc = done.get()
    if exc is not None:
        raise exc
    return [first, second]


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
                     out: np.ndarray) -> np.ndarray:
    """Apply dmat along one axis as a (pre, n, post) contraction.

    The batched matmul issues one dgemm per pre-slice.  On the last axis
    (post = 1) those would be pre separate matvecs, so it runs as a single
    (pre, n) @ dmat.T GEMM instead.  ``out`` must be C-contiguous: it is
    written through reshaped views.
    """
    shape = fields.shape
    n = shape[axis]
    pre = math.prod(shape[:axis])
    post = math.prod(shape[axis + 1:])
    if post == 1:
        np.matmul(fields.reshape(pre, n), dmat.T, out=out.reshape(pre, n))
    else:
        np.matmul(dmat, fields.reshape(pre, n, post), out=out.reshape(pre, n, post))
    return out


def gradient(fields: np.ndarray, n: int, method: str,
             out: np.ndarray | None = None) -> np.ndarray:
    """d(fields)/dx_i for every component, shape (5,) + fields.shape, written
    into ``out`` if given (C-contiguous, as for ``_axis_derivative``)."""
    dmat = derivative_matrix(n, method)
    if out is None:
        out = np.empty((DIM,) + fields.shape, dtype=np.float64)
    for i in range(DIM):
        _axis_derivative(fields, fields.ndim - DIM + i, dmat, out[i])
    return out


def spectral_gradient(fields: np.ndarray, n: int) -> np.ndarray:
    # kept only as a name that bench/tracing.py and bench/run.py look up
    return gradient(fields, n, "spectral")


def grid_d(fields: np.ndarray, parity: int, n: int, method: str = "spectral",
           out: np.ndarray | None = None, term: np.ndarray | None = None,
           sign: int = 1) -> np.ndarray:
    """Exterior derivative of sign * fields (sign = +-1) for a sampled form (leading
    axis = component); each (axis, src) derivative goes straight into its
    d-component (FormTables.d_apply), written into ``out`` if given, through the
    one-component scratch ``term``.  A negative first term is the GEMM with -D:
    GEMMs sum from +0 and -D negates every product, so the result is bitwise a
    zero fill plus signed adds, the signs of zeros included.  With ``out`` and
    ``term`` given, ``fields`` and ``out`` may be sequences of component views."""
    dmat = derivative_matrix(n, method)
    mats = dmat, -dmat
    return form_tables(DIM).d_apply(fields, parity, lambda comp, i, t, negate: _axis_derivative(
        comp, comp.ndim - DIM + i, mats[negate], t), out, term, sign)


# -- pointwise spin geometry on the grid -----------------------------------------


@dataclass
class PointwiseSpin:
    """Nodewise Q1 = Q(rho1), Q2 = Q(rho2), f = (Q1, Q2), phi = sqrt|f| and the orbit sign."""

    q1: np.ndarray
    q2: np.ndarray
    f: np.ndarray
    phi: np.ndarray
    sign: int

    def triple(self, rho1: np.ndarray, rho2: np.ndarray) -> tuple[np.ndarray, ...]:
        """(v1, h, v2) = s (Q1, P12, Q2) / phi, each of shape (10, grid)."""
        scale = self.sign / self.phi
        return self.q1 * scale, q_tables().p_apply(rho1, rho2) * scale, self.q2 * scale


class Workspace:
    """The buffers of the pointwise spin and flow kernels on one grid (the node shape
    of the fields): Q1, Q2, f, phi and two scalar term fields, one per half; per half,
    v = Q/phi (2, 10, grid) and one scalar hat component; the RK4 stage input and
    slopes, each a (rho1, rho2) pair of shape (2, 16, grid).  Calls that share one
    Workspace must not run concurrently."""

    def __init__(self, grid: tuple[int, ...]):
        self.q1, self.q2 = (np.empty((2 * DIM,) + grid) for _ in range(2))
        self.f, self.phi = np.empty(grid), np.empty(grid)
        self.terms = np.empty((2,) + grid)
        self.v = np.empty((2, 2 * DIM) + grid)
        self.hat = np.empty((2,) + grid)
        self.stage, self.k = np.empty((2, 2, N_COEFF) + grid)


def _q_f(rho1: np.ndarray, rho2: np.ndarray, ws: Workspace) -> np.ndarray:
    """Q(rho1), Q(rho2) into ws.q1, ws.q2 and f = (Q1, Q2) into ws.f; returns ws.f."""
    qt = q_tables()
    _halves(lambda i: qt.q_apply((rho1, rho2)[i], (ws.q1, ws.q2)[i], ws.terms[i]))
    return section_inner(ws.q1, ws.q2, DIM, ws.f, ws.terms)


def stability_field(rho1: np.ndarray, rho2: np.ndarray) -> np.ndarray:
    return _q_f(rho1, rho2, Workspace(rho1.shape[1:]))


def _node(flat_index: int, shape: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(int(i) for i in np.unravel_index(flat_index, shape))


def _check_stability(f: np.ndarray, floor: float, t: float) -> int:
    fmin = float(np.min(np.abs(f)))         # NaN if any f is NaN
    if not math.isfinite(fmin):
        node = _node(int(np.argmax(~np.isfinite(f))), f.shape)
        raise StabilityError(f"f is not finite at t={t:.6g}, node {node}")
    if fmin <= floor:
        node = _node(int(np.argmin(np.abs(f))), f.shape)
        raise StabilityError(f"stability lost at t={t:.6g}: |f|={fmin:.3e} at node {node}")
    signs = np.sign(f)
    if signs.max() != signs.min():
        node = _node(int(np.argmax(signs != signs.flat[0])), f.shape)
        raise StabilityError(f"orbit sign flip at t={t:.6g}, node {node}")
    return int(signs.flat[0])


def _pointwise_spin(rho1: np.ndarray, rho2: np.ndarray, floor: float, t: float,
                    ws: Workspace | None = None) -> PointwiseSpin:
    """The one Q/f evaluation behind rho_hat, the triple, V and the recorded
    diagnostics, written into ws (a fresh Workspace if None); raises StabilityError
    where f is not finite, |f| <= floor or the orbit sign flips."""
    ws = Workspace(rho1.shape[1:]) if ws is None else ws
    f = _q_f(rho1, rho2, ws)
    sign = _check_stability(f, floor, t)
    phi = np.sqrt(np.abs(f, out=ws.phi), out=ws.phi)
    return PointwiseSpin(ws.q1, ws.q2, f, phi, sign)


def _v(spin: PointwiseSpin, i: int, rho: Sequence[np.ndarray], v: np.ndarray
       ) -> tuple[np.ndarray, int]:
    """Half i of rho_hat = s (v1.rho2, -v2.rho1): v = Q_i/phi written into ``v`` one
    component at a time (a broadcast divide would take a ufunc buffer per thread);
    returns the form v acts on and the sign."""
    q, other, sign = (spin.q1, rho[1], spin.sign) if i == 0 else (spin.q2, rho[0], -spin.sign)
    for qc, vc in zip(q, v):
        np.divide(qc, spin.phi, out=vc)
    return other, sign


def rho_hat_grid(rho1: np.ndarray, rho2: np.ndarray, floor: float = 1e-6,
                 t: float = 0.0) -> SpinMemo:
    """The state's spin fields at this floor from one Q/f evaluation: nodewise
    rho_hat = s (v1.rho2, -v2.rho1) with v_i = Q_i / phi, and the signed triple."""
    ws = Workspace(rho1.shape[1:])
    s = _pointwise_spin(rho1, rho2, floor, t, ws)
    hats = []
    for i in range(2):
        other, sign = _v(s, i, (rho1, rho2), ws.v[0])
        hats.append(form_tables(DIM).clifford_apply(ws.v[0], other, 0, None, ws.terms[0]))
        hats[i] *= sign
    return SpinMemo(floor, *hats, s.triple(rho1, rho2))


class _OnDemand:
    """A form read in component order, component src built by build(src, buf) into
    the one buffer ``buf`` when it is first read."""

    def __init__(self, build: Callable[[int, np.ndarray], Any], buf: np.ndarray):
        self.build, self.buf, self.src = build, buf, -1

    def __getitem__(self, src: int) -> np.ndarray:
        if src != self.src:
            self.build(src, self.buf)
            self.src = src
        return self.buf


def _slope(spin: PointwiseSpin, i: int, rho: Sequence[np.ndarray], ws: Workspace,
           out: np.ndarray, n: int, method: str) -> None:
    """Half i of d rho_hat into ``out``: each hat component v.rho is built into ws.hat[i]
    as ``grid_d`` first reads it, bitwise the components of ``clifford_apply``.  Both
    use ws.terms[i], one after the other."""
    v = ws.v[i]
    other, sign = _v(spin, i, rho, v)
    ft, term = form_tables(DIM), ws.terms[i]
    by_dst = ft.clifford_by_dst[0]
    hat = _OnDemand(lambda src, buf: ft.clifford_apply(v, other, 0, (buf,), term, by_dst[src]),
                    ws.hat[i])
    grid_d(hat, 1, n, method, out, term, sign)


def signed_triple(rho1: np.ndarray, rho2: np.ndarray, floor: float = 1e-6, t: float = 0.0,
                  spin: PointwiseSpin | None = None
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """(v1, h, v2, phi, s): s-signed normalized triple fields, shape (10, grid), from
    ``spin``, the state's Q/f at this floor, if given; phi is a copy, as spin.phi may
    be a workspace buffer."""
    spin = _pointwise_spin(rho1, rho2, floor, t) if spin is None else spin
    return spin.triple(rho1, rho2) + (spin.phi.copy(), spin.sign)


# -- time stepping -----------------------------------------------------------------


def flow_step(state: GridState, method: str = "spectral", floor: float = 1e-6,
              ws: Workspace | None = None, spin: PointwiseSpin | None = None) -> GridState:
    """One classical RK4 step of d rho/dt = d rho_hat, r + (dt/6)(k1 + 2k2 + 2k3 + k4)
    in that order.  Every stage writes into ws (a fresh Workspace if None), so the
    returned pair is the only new array; the input state is never written.  The
    first stage uses ``spin``, the state's Q/f from ``_pointwise_spin`` at this
    floor, if given."""
    n, dt, t = state.n, state.dt, state.t
    if dt == 0.0:
        return state.copy()
    ws = Workspace(state.rho1.shape[1:]) if ws is None else ws
    r, stage, k = (state.rho1, state.rho2), ws.stage, ws.k

    def slopes(rho: Sequence[np.ndarray], tc: float, out: np.ndarray,
               spin: PointwiseSpin | None = None) -> None:
        spin = _pointwise_spin(rho[0], rho[1], floor, tc, ws) if spin is None else spin
        _halves(lambda i: _slope(spin, i, rho, ws, out[i], n, method))

    def next_stage(i: int, j: int, c: float) -> None:
        np.multiply(k[i] if j else acc[i], c, out=stage[i])
        stage[i] += r[i]
        if j:                               # k2 and k3 enter the sum twice
            k[i] *= 2
            acc[i] += k[i]

    def last(i: int) -> None:
        acc[i] += k[i]
        acc[i] *= dt / 6.0
        acc[i] += r[i]

    acc = np.empty_like(k)
    slopes(r, t, acc, spin)                 # k1, in the new state's pair
    for j, (c, tc) in enumerate(((0.5 * dt, t + 0.5 * dt), (0.5 * dt, t + 0.5 * dt),
                                 (dt, t + dt))):
        _halves(lambda i: next_stage(i, j, c))
        slopes(stage, tc, k)
    _halves(last)
    return GridState(n, acc[0], acc[1], t + dt, dt)


def hamiltonian(state: GridState, floor: float = 1e-6) -> float:
    """Total volume V = sum of phi over nodes times the cell volume.

    V generates the evolution; in five dimensions it drifts monotonically
    along the flow (the generating bilinear is symmetric, see the module
    docstring), so V enters the diagnostics as a stepper-order probe, not
    a conserved quantity.
    """
    spin = _pointwise_spin(state.rho1, state.rho2, floor, state.t)
    return _total_volume(spin.phi, state.cell_volume)


def _total_volume(phi: np.ndarray, cell_volume: float) -> float:
    return float(np.sum(phi)) * cell_volume


def mean_modes(state: GridState) -> np.ndarray:
    """Spatial zero-Fourier mode of each of the 32 coefficients."""
    axes = tuple(range(-DIM, 0))
    return np.concatenate([state.rho1.mean(axis=axes), state.rho2.mean(axis=axes)])


def closedness_norms(state: GridState, method: str = "spectral",
                     ws: Workspace | None = None) -> tuple[float, float]:
    """L2 norms of d rho1 and d rho2, one per half, each d built and squared in
    ws.k[i] with ws.terms[i] as scratch (a fresh Workspace if None)."""
    ws = Workspace(state.rho1.shape[1:]) if ws is None else ws
    return tuple(_halves(lambda i: grid_norm(
        grid_d((state.rho1, state.rho2)[i], 0, state.n, method, ws.k[i], ws.terms[i]),
        state.cell_volume, out=ws.k[i])))


def grid_norm(fields: np.ndarray, cell_volume: float, out: np.ndarray | None = None) -> float:
    """L2 norm over components and nodes, fixed axis-major reduction; the squares
    go into ``out`` if given (``fields`` itself when it is scratch)."""
    return float(np.sqrt(np.sum(np.multiply(fields, fields, out=out)) * cell_volume))


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
    odd multi-index, "k": 5 integers, "cos": amp, "sin": amp}, with finite
    amplitudes that default to 0; anything else raises ValueError.
    """
    tables = form_tables(DIM)
    alpha1 = np.zeros((N_COEFF,) + (n,) * DIM)
    alpha2 = np.zeros((N_COEFF,) + (n,) * DIM)
    for k, entry in enumerate(modes):
        slot = tables.pos[_mode_index(k, entry)][1]
        target = alpha1 if entry["component"] == "rho1" else alpha2
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
        traj.final = traj.ring[-1]
        return traj


def run_flow(config: FlowConfig, on_step: Callable[[GridState], None] | None = None) -> Trajectory:
    """Integrate the flow, collecting per-step diagnostics and a state ring."""
    state = initial_state(config)
    traj = Trajectory(config=config, ring=deque(maxlen=config.ring))
    mean0 = mean_modes(state)
    ws = Workspace((config.n,) * DIM)

    nahm = "nahm" in config.diagnostics
    triples: list = []                      # signed triples of the window's states

    def record(s: GridState) -> PointwiseSpin:
        # one Q/f evaluation per state feeds V, min|f|, the orbit sign, the nahm
        # triple and the next step's first stage (no diagnostic writes ws's Q/f;
        # closedness writes ws.k, which the next step overwrites before reading)
        spin = _pointwise_spin(s.rho1, s.rho2, config.stability_floor, s.t, ws)
        entry: dict = {"t": s.t}
        if "hamiltonian" in config.diagnostics:
            entry["hamiltonian"] = _total_volume(spin.phi, s.cell_volume)
        if "mean-modes" in config.diagnostics:
            entry["mean_mode_drift"] = float(np.max(np.abs(mean_modes(s) - mean0)))
        if "closedness" in config.diagnostics:
            entry["d_rho1"], entry["d_rho2"] = closedness_norms(s, config.method, ws)
        entry["min_abs_f"] = float(np.min(np.abs(spin.f)))
        entry["orbit_sign"] = spin.sign
        traj.diagnostics.append(entry)
        if nahm:
            triples.append(signed_triple(s.rho1, s.rho2, config.stability_floor, s.t, spin))
        return spin

    def record_nahm() -> None:
        # the centered residual lives at the middle of the last three states
        if nahm and len(traj.ring) >= 3:
            window = list(traj.ring)[-3:]
            r = nahm_residual(window, config.method, config.stability_floor, triples)
            del triples[0]
            traj.diagnostics[-2].update({
                "nahm_v1": r.v1_residual, "nahm_h": r.h_residual,
                "nahm_v2": r.v2_residual, "lambda_max": r.lambda_max,
            })

    spin = record(state)
    traj.ring.append(state)
    for _ in range(config.steps):
        state = flow_step(state, config.method, config.stability_floor, ws, spin)
        spin = record(state)
        traj.ring.append(state)
        record_nahm()
        if on_step is not None:
            on_step(state)
    traj.final = state
    return traj


# -- Courant brackets and the evolution-equation residual ----------------------------


def section_pairing(u: np.ndarray, v: np.ndarray, dim: int) -> np.ndarray:
    """Pointwise i_{X_u} xi_v - i_{X_v} xi_u of sections (2 dim, grid)."""
    acc = np.zeros_like(u[0])
    for a in range(dim):
        acc += u[a] * v[dim + a] - v[a] * u[dim + a]
    return acc


def bracket_from_derivatives(u: np.ndarray, v: np.ndarray, du: np.ndarray, dv: np.ndarray,
                             dpairing: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """[u, v] = [X_u, X_v] + L_{X_u} xi_v - L_{X_v} xi_u - d(section_pairing(u, v))/2 for
    sections (2 dim, grid), dim = len(du), from du[a][c] = d_a u_c and dpairing[a],
    summed into ``out`` from zero if given."""
    dim = len(du)
    if out is None:
        out = np.zeros_like(u)
    else:
        out.fill(0)
    xu, xv = u[:dim], v[:dim]
    eu, ev = u[dim:], v[dim:]
    for b in range(dim):
        acc_v = out[b]
        acc_f = out[dim + b]
        for a in range(dim):
            acc_v += xu[a] * dv[a][b] - xv[a] * du[a][b]
            acc_f += xu[a] * dv[a][dim + b] + ev[a] * du[b][a]
            acc_f -= xv[a] * du[a][dim + b] + eu[a] * dv[b][a]
        acc_f -= 0.5 * dpairing[b]
    return out


def courant_bracket_grid(u: np.ndarray, v: np.ndarray, n: int,
                         method: str = "spectral") -> np.ndarray:
    """[u, v] for sampled sections (10, grid) on the five-torus."""
    return bracket_from_derivatives(u, v, gradient(u, n, method), gradient(v, n, method),
                                    gradient(section_pairing(u, v, DIM), n, method))


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

    @property
    def total(self) -> float:
        return max(self.v1_residual, self.h_residual, self.v2_residual)


def nahm_residual(states: Sequence[GridState], method: str = "spectral",
                  floor: float = 1e-6, triples: Sequence[tuple] | None = None) -> NahmResidual:
    """Central-difference residuals of the bracket evolution equations.

        v1' = -2[h, v1] + lambda v1,
        h'  =  [v1, v2] + lambda h,
        v2' =  2[h, v2] + lambda v2,

    for the signed triple, with lambda = -(h,[v1,v2])/(h,h) pointwise.
    Also reports the h-equation residual with lambda = 0 and with the
    alternative normalization (h,h) = 2, i.e. lambda = -(h,[v1,v2])/2.
    ``triples`` gives the three states' ``signed_triple`` values if already built.
    """
    if len(states) < 3:
        raise ValueError("need at least 3 stored states for central differences")
    prev, mid, nxt = states[-3], states[-2], states[-1]
    dt = mid.t - prev.t
    if dt == 0:
        raise ValueError("central time differences need dt != 0")
    if not np.isclose(nxt.t - mid.t, dt):
        raise ValueError("states are not uniformly spaced in time")
    n = mid.n
    cell = mid.cell_volume

    if triples is None:
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
    )


@dataclass
class MeanModeReport:
    max_drift: float


def mean_mode_invariants(traj: Trajectory) -> MeanModeReport:
    """Zero-Fourier-mode drift of every coefficient along the trajectory."""
    drifts = [d.get("mean_mode_drift", 0.0) for d in traj.diagnostics]
    return MeanModeReport(max_drift=max(drifts, default=0.0))
