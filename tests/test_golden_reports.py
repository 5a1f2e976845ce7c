"""CLI reports for fixed inputs, compared byte for byte with committed files.

`tests/data/golden/` holds the `--out` JSON of each command in `CASES`, the
`flow run` report and CSV and the `sixdim check` report of each config in
`FLOW_RUNS` (temporary paths masked), and the inputs those commands read
(`INPUTS`).  Rewrite every file from the code on the path with

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import json
import random
import sys
import tempfile
from pathlib import Path

import pytest

from gengeo import io as gio
from gengeo.algebra import Chart
from gengeo.cli import main
from gengeo.forms import exterior_derivative, random_mixed_form
from gengeo.spin55 import (DEFAULT_PROBE_POINTS, RhoPair, normal_form, quartic_invariant,
                           random_rho_pair)

GOLDEN = Path(__file__).parent / "data" / "golden"

CASES = {
    "spin55_normal_form.json": ["spin55", "analyze", "--normal-form"],
    "spin55_critical.json": ["spin55", "analyze", "{golden}/rho_critical.json"],
    "spin55_noncritical.json": ["spin55", "analyze", "{golden}/rho_noncritical.json"],
    # stable with one sign at the given point, so the mixed sign at the probe
    # points only shows inside the analysis: a failed `stability` check
    "spin55_mixed_sign.json": ["spin55", "analyze", "{golden}/rho_mixed_sign.json",
                               "--points", "{golden}/points_origin.json"],
    "spin55_unstable.json": ["spin55", "analyze", "{golden}/rho_unstable.json"],
    "identities_dim3.json": ["verify", "identities", "--dim", "3", "--cases", "3",
                             "--seed", "11"],
    "identities_dim5.json": ["verify", "identities", "--dim", "5", "--cases", "1",
                             "--seed", "12"],
    "skew_torsion_dim3.json": ["verify", "skew-torsion", "--dim", "3", "--metrics", "2",
                               "--sample-points", "2", "--seed", "13"],
    "twisted_dim4.json": ["verify", "twisted", "--dim", "4", "--cases", "3", "--seed", "14"],
}


def critical_pair():
    """The normal form moved by a seeded exact B-field: still critical."""
    chart = Chart(5)
    b = exterior_derivative(random_mixed_form(chart, random.Random(21), degrees=(1,)))
    return normal_form(chart).bfield(b)


def noncritical_pair():
    """Normal form + a seeded bump / 8, in the normal form's orbit at the probes."""
    chart = Chart(5)
    rng = random.Random(22)
    while True:
        rho = normal_form(chart) + random_rho_pair(chart, rng).scale("1/8")
        f = quartic_invariant(rho)
        if all(f.evaluate(p) < 0 for p in DEFAULT_PROBE_POINTS):
            return rho


def mixed_sign_pair():
    """Normal form + a seeded bump / 2: f = -8 at the origin, f > 0 at a probe point."""
    chart = Chart(5)
    return normal_form(chart) + random_rho_pair(chart, random.Random(1)).scale("1/2")


def unstable_pair():
    nf = normal_form()
    return RhoPair(nf.rho2, nf.rho2)


# N=4 runs through every grid layer: rho_hat, the nahm triple and brackets, sigma(z)
FLOW_RUNS = {
    "spectral": {"N": 4, "dt": 0.01, "steps": 4, "epsilon": 0.01, "method": "spectral",
                 "diagnostics": ["hamiltonian", "mean-modes", "closedness", "nahm"]},
    "fd4": {"N": 4, "dt": 0.01, "steps": 4, "epsilon": 0.01, "method": "fd4",
            "stability_floor": 1e-3,
            "diagnostics": ["hamiltonian", "mean-modes", "closedness", "nahm"]},
}

INPUTS = {
    "rho_critical.json": lambda: gio.rho_pair_to_json(critical_pair()),
    "rho_noncritical.json": lambda: gio.rho_pair_to_json(noncritical_pair()),
    "rho_mixed_sign.json": lambda: gio.rho_pair_to_json(mixed_sign_pair()),
    "rho_unstable.json": lambda: gio.rho_pair_to_json(unstable_pair()),
    "points_origin.json": lambda: {"points": [[0, 0, 0, 0, 0]]},
    **{f"flow_{run}_config.json": (lambda run=run: FLOW_RUNS[run]) for run in FLOW_RUNS},
}


def _args(name, out):
    return [a.format(golden=GOLDEN) for a in CASES[name]] + ["--out", str(out)]


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden_file(name, tmp_path):
    out = tmp_path / name
    code = main(_args(name, out))
    expected = json.loads((GOLDEN / name).read_text())
    assert code == (0 if expected["pass"] else 1)
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


MASK = "<tmp>"


def _flow_outputs(run, tmp):
    """Run `flow run` then `sixdim check` on its trajectory; returns the two exit
    codes and {golden name: output text with the temporary directory masked}."""
    traj, names = tmp / "trajectory.npz", (f"flow_{run}.json", f"flow_{run}.csv",
                                           f"sixdim_{run}.json")
    codes = (main(["flow", "run", "--config", str(GOLDEN / f"flow_{run}_config.json"),
                   "--trajectory", str(traj), "--csv", str(tmp / names[1]),
                   "--out", str(tmp / names[0])]),
             main(["sixdim", "check", "--trajectory", str(traj), "--out", str(tmp / names[2])]))
    return codes, {name: (tmp / name).read_text().replace(str(tmp), MASK) for name in names}


@pytest.mark.parametrize("run", sorted(FLOW_RUNS))
def test_flow_and_sixdim_reports_match_golden_files(run, tmp_path):
    codes, outputs = _flow_outputs(run, tmp_path)
    for code, name in zip(codes, (f"flow_{run}.json", f"sixdim_{run}.json")):
        assert code == (0 if json.loads(outputs[name])["pass"] else 1)
    for name, text in outputs.items():
        assert text == (GOLDEN / name).read_text(), name


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_golden_inputs_are_the_seeded_pairs(name):
    assert json.loads((GOLDEN / name).read_text()) == INPUTS[name]()


def _rewrite() -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name, build in INPUTS.items():
        (GOLDEN / name).write_text(json.dumps(build(), indent=1) + "\n")
    for name in CASES:
        main(_args(name, GOLDEN / name))
    with tempfile.TemporaryDirectory() as tmp:
        for run in FLOW_RUNS:
            for name, text in _flow_outputs(run, Path(tmp))[1].items():
                (GOLDEN / name).write_text(text)


if __name__ == "__main__":
    _rewrite()
    sys.exit(0)
