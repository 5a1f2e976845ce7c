"""gengeo benchmark: one workload per run, closed loop, one caller.

    python3 bench/run.py --workload flow-n8 --seed 0 --seconds 30 --trace 0

Run from a checkout of the repository; the program is imported from its
``src/`` tree, nothing is installed.  Set-up (import, the cold
``form_tables(5)``, ``q_tables()``, ``form_tables(6)`` builds and input
generation) is timed in fresh processes, started one at a time between
the solutions of an untraced run.  The timed phase repeats whole solutions
until ``--seconds`` of solution time have passed, each op starting after
the previous one returns.  With ``--trace 1`` half of the time runs
untraced, then fixed solutions after the first (warm-up) one run again
with every public function of ``tracing.LAYERS`` wrapped in spans.

Standard output: one JSON line with the full report (provenance, samples,
failures, computed and projected figures), then the result line
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 only
if every op passed its correctness check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

# Pinned before numpy is imported by anything in this process or its probes.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 7
CAL_REF_MS = 3.0          # calibration unit time on the reference host
CAL_SHARE = 0.15          # calibration time after each op, as a share of the op's time
PROBE_TIMEOUT_S = 120
CRIT9_BOUND_S = 300.0
CRIT9_STEPS = 700         # the three criterion-9 drift runs: 100 + 200 + 400 RK4 steps
WORKLOAD_NAMES = ("flow-n8", "flow-sixdim", "exact-suite")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program() -> bool:
    """Put this checkout's src/ first on the path; refuse any other gengeo."""
    if not (SRC / "gengeo" / "__init__.py").is_file():
        print(f"bench: no gengeo sources under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import gengeo

    if Path(gengeo.__file__).resolve().parent != SRC / "gengeo":
        print(f"bench: imported gengeo from {gengeo.__file__}, not {SRC}", file=sys.stderr)
        return False
    return True


def setup(workload: str, seed: int):
    """Everything before the first timed op; returns (workload, table build ms)."""
    import workloads
    from gengeo import tables

    build_ms = {}
    for label, build in (("form_tables(5)", lambda: tables.form_tables(5)),
                         ("q_tables()", tables.q_tables),
                         ("form_tables(6)", lambda: tables.form_tables(6))):
        t0 = time.perf_counter()
        build()
        build_ms[label] = (time.perf_counter() - t0) * 1e3
    cls = workloads.WORKLOADS[workload]
    if cls is workloads.FlowN8:
        ref = json.loads((BENCH_DIR / "reference.json").read_text())[workload]
        final = (ref["final_hamiltonian"], ref["final_min_abs_f"]) if ref["seed"] == seed else None
        return cls(seed, final), build_ms
    return cls(seed), build_ms


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter until its set-up is done."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          cwd=ROOT) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError("set-up probe did not exit") from None
        except BaseException:
            proc.kill()             # leaving the with block waits for it
            raise
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {err.strip()}")
    return elapsed


def calibration_unit() -> float:
    """Milliseconds for one fixed piece of stdlib-only work (Fraction sums, dict stores).

    It shares no code with gengeo, so a change to the program cannot move it;
    only the speed the host gives this process does.
    """
    t0 = time.perf_counter()
    total, seen = Fraction(0), {}
    for i in range(1, 600):
        total += Fraction(i, i * i + 1)
        seen[i, i % 7] = total
    return (time.perf_counter() - t0) * 1e3


class Calibration:
    """Runs calibration units after each op for CAL_SHARE of the time since the last ones.

    Interleaved this finely, the units sample the host at the same moments
    as the ops they follow.
    """

    def __init__(self):
        self.units: list[float] = []
        self.last = time.perf_counter()

    def __call__(self) -> None:
        t1 = time.perf_counter()
        worked = t1 - self.last
        self.units.append(calibration_unit())
        while time.perf_counter() - t1 < CAL_SHARE * worked:
            self.units.append(calibration_unit())
        self.last = time.perf_counter()


def closed_loop(wl, seconds: float, workdir: Path, min_solutions: int, probe=None) -> tuple:
    """Solutions back to back until ``seconds`` of solutions and calibration have run.

    ``probe`` (a set-up probe) runs SETUP_PROBES times between solutions,
    spread over the timed phase; its time is not counted in ``seconds``.
    Returns the solutions, the probe times and the calibration unit times.
    """
    solutions, probes = [], []
    calibration = Calibration()
    busy = 0.0
    while len(solutions) < min_solutions or busy < seconds:
        if probe is not None and busy >= len(probes) * seconds / SETUP_PROBES:
            probes.append(probe())
        t0 = calibration.last = time.perf_counter()
        solutions.append(wl.solve(len(solutions), None, workdir, calibration))
        busy += time.perf_counter() - t0
    while probe is not None and len(probes) < SETUP_PROBES:
        probes.append(probe())
    # no unit has run if every solution failed before its first op
    return solutions, probes, calibration.units or [calibration_unit()]


def trace_solutions(wl, indices: range, workdir: Path):
    """Run the solutions ``indices`` again with every layer function wrapped."""
    import tracing

    named, package = tracing.gengeo_modules()
    tracer = tracing.Tracer()
    patches = tracing.install(tracer, tracing.layer_targets(named), package,
                              sizes=tracing.GRID_LAYERS)
    try:
        solutions = [wl.solve(i, tracer, workdir) for i in indices]
    finally:
        tracing.uninstall(patches)
    return tracer, solutions


# -- statistics -------------------------------------------------------------------


def tail(values: list[float]) -> dict:
    """The highest percentile with at least ten samples beyond it."""
    s = sorted(values)
    n = len(s)
    idx = max(n - 11, 0) if n > 10 else n - 1
    return {"value": s[idx], "percentile": 100.0 * (idx + 1) / n, "samples": n,
            "samples_beyond": n - 1 - idx}


def derived_counts(tracer, n_solutions: int) -> dict:
    """Counts of repeated work, computed from the spans of the traced solutions."""
    import tracing as tr
    import workloads
    from gengeo import tables

    spans = tracer.spans
    kids = tr.children_of(spans)
    ext = tables.form_tables(5).ext
    referenced = {p: len({(i, src) for i, src, _, _ in ext[p]}) for p in ext}
    useful = computed = 0
    analyze = quartics = hats_in_checks = steps = step_bytes = 0
    for idx, rec in enumerate(spans):
        name = rec[tr.NAME]
        if name == "flow.grid_d":
            args, kwargs, _ = rec[tr.META]
            useful += referenced[args[1] if len(args) > 1 else kwargs["parity"]]
            for c in kids[idx]:
                if spans[c][tr.NAME] == "flow.spectral_gradient":
                    shape = spans[c][tr.META][2]
                    computed += shape[0] * shape[1]
        elif name == "cli.spin55_analyze":
            analyze += 1
        elif name == "spin55.quartic_invariant":
            quartics += tr.has_ancestor(spans, idx, "cli.spin55_analyze")
        elif name == "flow.flow_step":
            steps += 1
        if name == "flow.rho_hat_grid" and rec[tr.OP][0] == "check":
            hats_in_checks += 1
        if rec[tr.META] is not None and not kids[idx] and tr.has_ancestor(
                spans, idx, "flow.flow_step"):
            step_bytes += rec[tr.IN_BYTES] + rec[tr.OUT_BYTES]
    return {
        "flow.gradient.useful_ratio": useful / computed if computed else 0.0,
        "spin55.quartic_invariant.per_analyze": quartics / analyze if analyze else 0.0,
        "sixdim.rho_hat_grid.per_state": hats_in_checks / (n_solutions * workloads.SIXDIM_RING),
        "flow.bytes_per_step": step_bytes / steps if steps else 0.0,
    }


def layer_metrics(tracer, untraced: list, traced: list, build_ms: dict) -> dict:
    """Per-layer metrics; ``untraced`` holds the same solutions as ``traced``, run untraced."""
    import tracing

    metrics = {}
    for name, (calls, secs) in tracing.per_name(tracer.spans, tracing.span_names()).items():
        metrics[f"{name}.calls"] = {"value": calls, "unit": "count"}
        metrics[f"{name}.self_ms"] = {"value": secs * 1e3, "unit": "ms"}
    metrics["tables.build_ms"] = {"value": sum(build_ms.values()), "unit": "ms"}
    metrics["trace.overhead_frac"] = {
        "value": sum(s.wall_s for s in traced) / sum(s.wall_s for s in untraced) - 1.0,
        "unit": "ratio"}
    units = {"flow.gradient.useful_ratio": "ratio",
             "spin55.quartic_invariant.per_analyze": "calls/analyze",
             "sixdim.rho_hat_grid.per_state": "calls/state",
             "flow.bytes_per_step": "B"}
    for name, value in derived_counts(tracer, len(traced)).items():
        metrics[name] = {"value": value, "unit": units[name]}
    return metrics


# -- provenance -------------------------------------------------------------------


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def provenance(args, wl) -> dict:
    import numpy as np

    import gengeo

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cache = {name: os.sysconf(name) for name in
             ("SC_LEVEL1_DCACHE_SIZE", "SC_LEVEL2_CACHE_SIZE", "SC_LEVEL3_CACHE_SIZE")
             if name in os.sysconf_names}
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "loop": "closed, one caller",
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "numpy": np.__version__, "python": platform.python_version(),
        "gengeo": gengeo.__version__, "commit": git_commit(),
        "sizes": wl.sizes(), "working_set": wl.working_set(),
        "cache_bytes": cache or None,
    }


# -- main ---------------------------------------------------------------------------


def _terminate(signum, _frame):
    raise SystemExit(128 + signum)   # so cleanup runs and a running probe is stopped


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    args = parse_args(argv)
    if not import_program():
        return 2
    if args.setup_probe:
        setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    t0 = time.perf_counter()
    wl, build_ms = setup(args.workload, args.seed)
    main_setup_s = time.perf_counter() - t0

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    tracer = None
    traced = []
    try:
        budget = args.seconds / 2 if args.trace else args.seconds
        # traced runs repeat fixed solutions past the warm-up one, so calls repeat exactly
        indices = range(1, 1 + wl.trace_solutions) if args.trace else range(0)
        # set-up is reported untraced only, so traced runs spend no time probing it
        probe = None if args.trace else (lambda: probe_setup(args.workload, args.seed))
        solutions, setup_samples, units = closed_loop(wl, budget, workdir, 1 + len(indices),
                                                      probe)
        if args.trace:
            tracer, traced = trace_solutions(wl, indices, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = [ms for s in solutions for ms in s.op_ms]
    attempted = sum(len(s.op_ok) for s in solutions + traced)
    failed = sum(not ok for s in solutions + traced for ok in s.op_ok)
    report = {
        "provenance": provenance(args, wl),
        "setup": {"samples_s": setup_samples, "main_process_s": main_setup_s,
                  "tables_build_ms": build_ms},
        "timed": {"solutions": len(solutions), "wall_s_samples": [s.wall_s for s in solutions],
                  "ops": len(ops)},
        "host": {"calibration_unit_ms": statistics.fmean(units), "units": len(units),
                 "reference_unit_ms": CAL_REF_MS,
                 "scale": CAL_REF_MS / statistics.fmean(units),
                 "basis": "end-to-end times are the measured ones times scale, i.e. at the "
                          "host speed where a calibration unit takes reference_unit_ms"},
        "failed_frac": failed / attempted,
        "errors": [e for s in solutions + traced for e in s.errors][:20],
    }
    if not ops:
        print(json.dumps(report))
        print("bench: no op completed", file=sys.stderr)
        return 1
    report["timed"].update(op_ms_p50=statistics.median(ops), op_ms_tail=tail(ops))
    if args.workload == "flow-n8":
        report["projected"] = {"flow.crit9_projected_headroom_s":
                               CRIT9_BOUND_S - CRIT9_STEPS * statistics.median(ops) / 1e3,
                               "basis": "projected: 300 s minus 700 RK4 steps at the measured "
                                        "(unscaled) op_ms_p50"}
    if args.trace:
        metrics = layer_metrics(tracer, [solutions[i] for i in indices], traced, build_ms)
        report["computed"] = {"flow.bytes_per_step": metrics["flow.bytes_per_step"]["value"],
                              "basis": "computed: array bytes in and out of every leaf span "
                                       "inside flow_step, per step",
                              "cache_bytes": report["provenance"]["cache_bytes"]}
        report["trace"] = {"solutions": len(traced), "spans": len(tracer.spans),
                           "spans_file": str(write_spans(args.workload, tracer).relative_to(ROOT))}
    else:
        measured = {"setup_s": (statistics.median(setup_samples), "s"),
                    "wall_s": (statistics.fmean(s.wall_s for s in solutions), "s"),
                    "op_ms_p50": (report["timed"]["op_ms_p50"], "ms"),
                    "op_ms_tail": (report["timed"]["op_ms_tail"]["value"], "ms")}
        report["measured"] = {name: value for name, (value, _) in measured.items()}
        metrics = {name: {"value": value * report["host"]["scale"], "unit": unit}
                   for name, (value, unit) in measured.items()}
        metrics["peak_rss_mb"] = {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"}

    print(json.dumps(report))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def write_spans(workload: str, tracer) -> Path:
    """Spans as JSON lines: [id, parent, op, name, start_us, end_us, in_bytes, out_bytes].

    Times are microseconds from the start of the first span.
    """
    import tracing as tr

    path = OUT_DIR / f"spans-{workload}.jsonl"
    t0 = tracer.spans[0][tr.START] if tracer.spans else 0.0
    with path.open("w") as fh:
        for i, rec in enumerate(tracer.spans):
            fh.write(json.dumps([i, rec[tr.PARENT], rec[tr.OP], rec[tr.NAME],
                                 round((rec[tr.START] - t0) * 1e6, 1),
                                 round((rec[tr.END] - t0) * 1e6, 1),
                                 rec[tr.IN_BYTES], rec[tr.OUT_BYTES]]) + "\n")
    return path


if __name__ == "__main__":
    sys.exit(main())
