"""The three benchmark workloads: inputs from a seed, one solution, its checks.

A workload object is built during set-up (its inputs, or for exact-suite the
means to draw them per solution; nothing is timed).
``solve(index)`` computes one solution -- the unit whose wall time is
``wall_s`` -- and returns the latency and verdict of every op in it.  An
optional ``gap`` callable runs after every op (and after flow-sixdim's
preparation); its time is kept off the op latencies and the wall time.
Each op is checked with the thresholds the CLI reports use; an op that
raises counts as failed, with the error kept for the report.
"""

from __future__ import annotations

import json
import math
import random
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np

from gengeo import cli, flow, io, sixdim, spin55
from gengeo.algebra import Chart
from gengeo.spin55 import StabilityError

FLOW_N = 8
FLOW_DT = 0.02
FLOW_EPSILON = 1e-2
FLOW_N8_STEPS = 10          # steps per flow-n8 solution: 9 timed step-to-step ops
SIXDIM_STEPS = 2            # initial state + 2 steps fill the ring
SIXDIM_RING = 3
PERTURBATION_MODES = 6
EXACT_DIMS = (3, 4, 5)

CLOSEDNESS_TOL = 1e-9       # cli.flow_run_report
MEAN_MODE_TOL = 1e-10       # cli.flow_run_report
SIXDIM_TOL = 1e-10          # cli.sixdim_report
REFERENCE_RTOL = 1e-10

GRID_PAIR_BYTES = 2 * flow.N_COEFF * FLOW_N ** flow.DIM * 8


@dataclass
class Solution:
    wall_s: float
    op_ms: list[float]
    op_ok: list[bool]
    errors: list[str]


def _error(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


class Pauses:
    """Runs ``gap`` between ops and keeps the time it takes off every clock.

    ``gap`` is untimed work interleaved with the ops (the benchmark's host
    calibration); with None nothing runs.
    """

    def __init__(self, gap=None):
        self.gap = gap
        self.total = 0.0

    def __call__(self) -> float:
        """Run the gap; return the time it ended, when the next op may start."""
        t0 = time.perf_counter()
        if self.gap is None:
            return t0
        self.gap()
        t1 = time.perf_counter()
        self.total += t1 - t0
        return t1


def _set_op(tracer, label) -> None:
    if tracer is not None:
        tracer.op = label


def perturbation_modes(rng: random.Random, count: int = PERTURBATION_MODES) -> list[dict]:
    """Trig modes on odd 1- and 3-form components with nonzero wave vectors."""
    odd = [list(c) for k in (1, 3) for c in combinations(range(1, flow.DIM + 1), k)]
    modes = []
    for _ in range(count):
        k = [0] * flow.DIM
        while not any(k):
            k = [rng.choice((-1, 0, 1)) for _ in range(flow.DIM)]
        modes.append({
            "component": rng.choice(("rho1", "rho2")),
            "indices": rng.choice(odd),
            "k": k,
            "cos": round(rng.uniform(-1.0, 1.0), 3),
            "sin": round(rng.uniform(-1.0, 1.0), 3),
        })
    return modes


class FlowN8:
    """run_flow at N=8; one op is one RK4 step plus its per-step diagnostics."""

    name = "flow-n8"
    trace_solutions = 1

    def __init__(self, seed: int, reference: tuple[float, float] | None = None):
        self.config = flow.FlowConfig(n=FLOW_N, dt=FLOW_DT, steps=FLOW_N8_STEPS,
                                      epsilon=FLOW_EPSILON,
                                      perturbation=perturbation_modes(random.Random(seed)))
        self.reference = reference    # (final V, final min|f|) recorded for this seed
        self.first_final: tuple[float, float] | None = None

    def sizes(self) -> dict:
        return {"n": FLOW_N, "dt": FLOW_DT, "steps_per_solution": FLOW_N8_STEPS,
                "ops_per_solution": FLOW_N8_STEPS - 1, "epsilon": FLOW_EPSILON,
                "perturbation": self.config.perturbation}

    @staticmethod
    def working_set() -> dict:
        grad = flow.DIM * flow.N_COEFF * FLOW_N ** flow.DIM * 8
        return {"rho_pair_bytes": GRID_PAIR_BYTES,
                "rk4_step_bytes": 6 * GRID_PAIR_BYTES + grad,
                "basis": "computed: state, stage input and four stage slopes as (rho1, rho2) "
                         "pairs plus one 5-axis gradient buffer"}

    def solve(self, index: int, tracer=None, workdir: Path | None = None,
              gap=None) -> Solution:
        pauses = Pauses(gap)
        ends: list[float] = []       # each step's end, and when the next one started
        resumes: list[float] = []

        def on_step(_state) -> None:
            ends.append(time.perf_counter())
            _set_op(tracer, ("step", index, len(ends)))
            resumes.append(pauses())

        _set_op(tracer, ("step", index, 0))
        n_ops = FLOW_N8_STEPS - 1
        start = time.perf_counter()
        try:
            traj = flow.run_flow(self.config, on_step=on_step)
        except StabilityError as exc:
            traj, failure = None, _error(exc)
        wall = time.perf_counter() - start - pauses.total
        op_ms = [(end - resume) * 1e3 for resume, end in zip(resumes, ends[1:])]
        if traj is None:
            return Solution(wall, op_ms, [False] * n_ops, [failure])
        diag = traj.diagnostics          # [initial, step 1, ..., step S]
        ok, errors = [], []
        for entry in diag[2:]:           # op j covers step j + 1
            good = (max(entry["d_rho1"], entry["d_rho2"]) < CLOSEDNESS_TOL
                    and entry["mean_mode_drift"] < MEAN_MODE_TOL
                    and math.isfinite(entry["hamiltonian"]))
            ok.append(good)
            if not good:
                errors.append(f"step at t={entry['t']:.4g} fails closedness or mean-mode drift")
        final = (diag[-1]["hamiltonian"], diag[-1]["min_abs_f"])
        expected = self.reference if self.reference is not None else self.first_final
        if expected is not None and not all(
                abs(a - b) <= REFERENCE_RTOL * abs(b) for a, b in zip(final, expected)):
            ok[-1] = False
            errors.append(f"final (V, min|f|) = {final} differs from {expected}")
        if self.first_final is None:
            self.first_final = final
        return Solution(wall, op_ms, ok, errors)


class FlowSixdim:
    """A short nahm run, a trajectory write and read, then one op per z value."""

    name = "flow-sixdim"
    trace_solutions = 1

    def __init__(self, seed: int):
        self.config = flow.FlowConfig(
            n=FLOW_N, dt=FLOW_DT, steps=SIXDIM_STEPS, epsilon=FLOW_EPSILON,
            perturbation=perturbation_modes(random.Random(seed)),
            diagnostics=("hamiltonian", "mean-modes", "closedness", "nahm"), ring=SIXDIM_RING)
        self.z_values = list(sixdim.DEFAULT_Z_SWEEP)

    def sizes(self) -> dict:
        return {"n": FLOW_N, "dt": FLOW_DT, "steps_per_solution": SIXDIM_STEPS,
                "ring": SIXDIM_RING, "z_values": [str(z) for z in self.z_values],
                "ops_per_solution": len(self.z_values), "epsilon": FLOW_EPSILON,
                "perturbation": self.config.perturbation}

    @staticmethod
    def working_set() -> dict:
        sigma = 32 * FLOW_N ** flow.DIM * 8   # even forms on the 6-chart
        return {"rho_pair_bytes": GRID_PAIR_BYTES,
                "ring_bytes": SIXDIM_RING * GRID_PAIR_BYTES,
                "sigma_slices_bytes": SIXDIM_RING * sigma,
                "basis": "computed: the stored ring of 3 (rho1, rho2) pairs plus one sigma(z) "
                         "slice per stored state"}

    def _prepare(self, index: int, workdir: Path) -> flow.Trajectory:
        traj = flow.run_flow(self.config)
        nahm = [d for d in traj.diagnostics if "nahm_v1" in d]
        keys = ("nahm_v1", "nahm_h", "nahm_v2", "lambda_max")
        if not nahm or not all(math.isfinite(d[k]) for d in nahm for k in keys):
            raise ValueError(f"nahm residuals missing or not finite: {nahm}")
        path = workdir / f"traj-{index}.npz"
        try:
            traj.save(str(path))
            loaded = flow.Trajectory.load(str(path))
        finally:
            path.unlink(missing_ok=True)
        saved = traj.states()
        if len(loaded.states()) != len(saved) or not all(
                a.t == b.t and np.array_equal(a.rho1, b.rho1) and np.array_equal(a.rho2, b.rho2)
                for a, b in zip(saved, loaded.states())):
            raise ValueError("trajectory read back differs from the one written")
        return loaded

    @staticmethod
    def _verdict(rep: sixdim.SixdimReport, key: str) -> str | None:
        ez = rep.ez.get(key)
        iso = max(ez.vv_max, ez.vw_max, ez.ww_max, ez.uu_minus_two_max) if ez else math.inf
        if (rep.annihilator_v[key] < SIXDIM_TOL and rep.annihilator_w[key] < SIXDIM_TOL
                and iso < SIXDIM_TOL and rep.nullity[key] >= 2 and rep.signature[:2] == (2, 2)):
            return None
        return (f"annihilator {rep.annihilator_v[key]:.2e}/{rep.annihilator_w[key]:.2e}, "
                f"isotropy {iso:.2e}, nullity {rep.nullity[key]}, signature {rep.signature}")

    def solve(self, index: int, tracer=None, workdir: Path | None = None,
              gap=None) -> Solution:
        pauses = Pauses(gap)
        start = time.perf_counter()
        _set_op(tracer, ("prepare", index))
        try:
            traj = self._prepare(index, workdir)
        except (StabilityError, ValueError, OSError) as exc:
            n = len(self.z_values)
            return Solution(time.perf_counter() - start, [], [False] * n, [_error(exc)])
        t0 = pauses()
        op_ms, ok, errors = [], [], []
        for k, z in enumerate(self.z_values):
            _set_op(tracer, ("check", index, k))
            try:
                failure = self._verdict(sixdim.check_trajectory(traj, [z]), str(z))
            except Exception as exc:  # an op that raises is a failed op, not a crash
                failure = _error(exc)
            op_ms.append((time.perf_counter() - t0) * 1e3)
            ok.append(failure is None)
            if failure is not None:
                errors.append(f"z={z}: {failure}")
            t0 = pauses()
        return Solution(time.perf_counter() - start - pauses.total, op_ms, ok, errors)


class ExactSuite:
    """Round-robin over the exact CLI suites; one op is one suite call."""

    name = "exact-suite"
    trace_solutions = 2

    def __init__(self, seed: int):
        self.seed = seed
        self.chart = Chart(5)
        self.normal_form = spin55.normal_form()
        self._calls: dict[int, list[tuple[str, object]]] = {}

    def spin55_pair(self, rng: random.Random) -> str:
        """Normal form + bump/8 as JSON, redrawn until f < 0 at every probe point.

        Staying in the normal form's orbit at the probe points is the
        criterion-8 condition.
        """
        while True:
            rho = self.normal_form + spin55.random_rho_pair(self.chart, rng).scale(Fraction(1, 8))
            f = spin55.quartic_invariant(rho)
            if all(f.evaluate(p) < 0 for p in spin55.DEFAULT_PROBE_POINTS):
                return json.dumps(io.rho_pair_to_json(rho))

    def sizes(self) -> dict:
        return {"dims": list(EXACT_DIMS), "cases": 1, "metrics": 1, "sample_points": 1,
                "spin55_pairs": "a fresh pair per call, drawn from (seed, solution)",
                "ops_per_solution": 4 * len(EXACT_DIMS)}

    @staticmethod
    def working_set() -> dict:
        return {"basis": "no grid arrays: Fraction/Polynomial objects only"}

    def calls(self, index: int) -> list[tuple[str, object]]:
        """The 12 suite calls of solution ``index``, deterministic in (seed, index).

        The inputs are drawn here, before the solution's clock starts.  Those
        of the solutions a traced run repeats are kept, so the re-run draws
        nothing inside its spans.
        """
        if index in self._calls:
            return self._calls[index]
        rng = random.Random(self.seed * 1_000_003 + index)
        out = []
        for dim in EXACT_DIMS:
            s1, s2, s3 = (rng.randrange(2 ** 31) for _ in range(3))
            text = self.spin55_pair(rng)
            out += [
                ("identities", lambda d=dim, s=s1: cli.identities_suite(d, 1, s)),
                ("skew-torsion", lambda d=dim, s=s2: cli.skew_torsion_suite(d, 1, 1, s)),
                ("twisted", lambda d=dim, s=s3: cli.twisted_suite(d, 1, s)),
                ("spin55", lambda t=text: cli.spin55_analyze(io.parse_rho_pair(json.loads(t)))),
            ]
        if index <= self.trace_solutions:
            self._calls[index] = out
        return out

    def solve(self, index: int, tracer=None, workdir: Path | None = None,
              gap=None) -> Solution:
        calls = self.calls(index)
        pauses = Pauses(gap)
        op_ms, ok, errors = [], [], []
        start = t0 = time.perf_counter()
        for k, (kind, call) in enumerate(calls):
            _set_op(tracer, (kind, index, k))
            try:
                passed = call().passed
                error = "report did not pass"
            except Exception as exc:  # an op that raises is a failed op, not a crash
                passed = False
                error = _error(exc)
            op_ms.append((time.perf_counter() - t0) * 1e3)
            ok.append(passed)
            if not passed:
                errors.append(f"{kind} (solution {index}, call {k}): {error}")
            t0 = pauses()
        return Solution(time.perf_counter() - start - pauses.total, op_ms, ok, errors)


WORKLOADS = {w.name: w for w in (FlowN8, FlowSixdim, ExactSuite)}
