"""The benchmark's view of gengeo still matches gengeo.

``bench/tracing.py`` wraps each name in its ``LAYERS`` table by looking it
up in the owning module or class dict; a deleted or renamed function breaks
``bench/run.py --trace 1`` and ``python3 -m pytest bench``.  These tests read
the table (they edit nothing under ``bench/``) and resolve each name the
way the tracer does.  ``bench/workloads.py`` judges its ops with copies of
the CLI's pass thresholds, which must equal the CLI's own, and
``bench/run.py:derived_counts`` reads a traced ``grid_d`` call's parity as its
second positional argument.  The workloads' ops call the library positionally
and read report fields by name; the last two tests run those ops here.
"""

import importlib
import importlib.util
import inspect
import random
import sys
from pathlib import Path

from gengeo import cli, flow, sixdim

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # a dataclass looks its module up there
    spec.loader.exec_module(module)
    return module


def layer_names() -> list[tuple[str, str]]:
    return [(layer, qualname) for layer, names in load("tracing").LAYERS.items()
            for qualname in names]


def test_every_traced_name_resolves():
    names = layer_names()
    assert names
    missing = []
    for layer, qualname in names:
        owner_name, _, attr = qualname.rpartition(".")
        owner = importlib.import_module(f"gengeo.{layer}")
        if owner_name:
            owner = getattr(owner, owner_name, None)
        raw = vars(owner).get(attr) if owner is not None else None
        if not callable(getattr(raw, "__func__", raw)):
            missing.append(f"{layer}.{qualname}")
    assert missing == []


def test_the_benchmark_judges_ops_with_the_cli_tolerances():
    workloads = load("workloads")
    names = ("CLOSEDNESS_TOL", "MEAN_MODE_TOL", "SIXDIM_TOL")
    assert [getattr(workloads, n) for n in names] == [getattr(cli, n) for n in names]


def test_grid_d_takes_its_parity_second():
    assert list(inspect.signature(flow.grid_d).parameters)[1] == "parity"


def test_the_exact_suite_ops_pass():
    # the positional calls of twisted_suite, skew_torsion_suite, identities_suite and
    # spin55_analyze at dims 3, 4 and 5
    solution = load("workloads").ExactSuite(0).solve(0)
    assert (solution.op_ok, solution.errors) == ([True] * 12, [])


def test_the_sixdim_verdict_reads_the_report_of_a_short_nahm_run():
    workloads = load("workloads")
    traj = flow.run_flow(flow.FlowConfig(
        n=4, dt=workloads.FLOW_DT, steps=2, epsilon=workloads.FLOW_EPSILON,
        perturbation=workloads.perturbation_modes(random.Random(0)),
        diagnostics=("hamiltonian", "mean-modes", "closedness", "nahm"),
        ring=workloads.SIXDIM_RING))
    for z in sixdim.DEFAULT_Z_SWEEP:
        assert workloads.FlowSixdim._verdict(sixdim.check_trajectory(traj, [z]), str(z)) is None
