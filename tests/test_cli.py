import json
import random
import subprocess
import sys

import numpy as np
import pytest

from gengeo import io as gio
from gengeo.algebra import Chart, random_polynomial
from gengeo.cli import main
from gengeo.forms import random_mixed_form
from gengeo.generalized import random_section
from gengeo.spin55 import normal_form


def run_cli(args):
    return main(list(args))


def read(path):
    with open(path) as fh:
        return json.load(fh)


def test_identities_report(tmp_path):
    out = tmp_path / "r.json"
    assert run_cli(["verify", "identities", "--dim", "2", "--cases", "5",
                    "--seed", "7", "--out", str(out)]) == 0
    report = read(out)
    assert report["pass"]
    assert report["environment"]["seed"] == 7
    assert all("anchor" in c for c in report["checks"])
    ids = {c["id"] for c in report["checks"]}
    assert "courant-definitional" in ids and "identity-3" in ids and "identity-4" in ids


def test_reports_are_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["verify", "identities", "--dim", "2", "--cases", "4", "--seed", "3"]
    run_cli(argv + ["--out", str(a)])
    run_cli(argv + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_skew_torsion_random_and_file(tmp_path):
    out = tmp_path / "r.json"
    assert run_cli(["verify", "skew-torsion", "--dim", "3", "--metrics", "2",
                    "--sample-points", "3", "--seed", "1", "--out", str(out)]) == 0
    assert read(out)["pass"]

    metric = {"C": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}
    mpath = tmp_path / "metric.json"
    mpath.write_text(json.dumps(metric))
    ppath = tmp_path / "points.json"
    ppath.write_text(json.dumps({"points": [["0", "0", "0"], ["1/2", "0", "1/3"]]}))
    assert run_cli(["verify", "skew-torsion", "--input", str(mpath),
                    "--points", str(ppath), "--out", str(out)]) == 0
    report = read(out)
    assert report["pass"]
    assert any(c["id"] == "christoffel-oracle" for c in report["checks"])


def test_twisted_suite(tmp_path):
    out = tmp_path / "r.json"
    assert run_cli(["verify", "twisted", "--cases", "5", "--seed", "2",
                    "--out", str(out)]) == 0
    assert read(out)["pass"]


def test_spin55_analyze_normal_form(tmp_path):
    out = tmp_path / "r.json"
    assert run_cli(["spin55", "analyze", "--normal-form", "--out", str(out)]) == 0
    report = read(out)
    # report interface: stable, orbit_sign, f, residuals, triple, gram, commuting
    assert report["stable"] and report["orbit_sign"] == -1
    assert report["residuals"]["critical"]
    assert report["commuting"]["all_zero"]
    assert report["gram"][0][2] == "-1" and report["gram"][1][1] == "1/2"
    assert "f" in report and "triple" in report


def test_spin55_analyze_file_and_unstable(tmp_path):
    rho = gio.rho_pair_to_json(normal_form())
    path = tmp_path / "rho.json"
    path.write_text(json.dumps(rho))
    assert run_cli(["spin55", "analyze", str(path)]) == 0
    # unstable pair: rho1 = rho2
    rho_bad = dict(rho)
    rho_bad["rho1"] = rho["rho2"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(rho_bad))
    assert run_cli(["spin55", "analyze", str(bad)]) == 1


def test_flow_and_sixdim_cli(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 4, "dt": 0.02, "steps": 4, "epsilon": 0.01}))
    out = tmp_path / "flow.json"
    traj = tmp_path / "traj.npz"
    csv_path = tmp_path / "diag.csv"
    assert run_cli(["flow", "run", "--config", str(cfg), "--out", str(out),
                    "--trajectory", str(traj), "--csv", str(csv_path)]) == 0
    report = read(out)
    assert report["pass"]
    assert "volume_series" in report and len(report["volume_series"]) == 5
    assert csv_path.exists()

    sixout = tmp_path / "six.json"
    assert run_cli(["sixdim", "check", "--trajectory", str(traj),
                    "--z", "1,-1,1/2,0,inf", "--out", str(sixout)]) == 0
    sreport = read(sixout)
    assert sreport["pass"]
    assert any(c["id"] == "gram-signature" for c in sreport["checks"])


def test_sixdim_check_uses_trajectory_method_and_floor(tmp_path, monkeypatch):
    from gengeo import sixdim

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 6, "dt": 0.02, "steps": 3, "epsilon": 0.01,
                               "method": "fd4", "stability_floor": 1e-3}))
    traj = tmp_path / "traj.npz"
    assert run_cli(["flow", "run", "--config", str(cfg), "--out", str(tmp_path / "flow.json"),
                    "--trajectory", str(traj)]) == 0
    seen = []
    check = sixdim.check_trajectory

    def spy(source, z_values, method="spectral", floor=1e-6):
        seen.append((method, floor))
        return check(source, z_values, method, floor)

    monkeypatch.setattr(sixdim, "check_trajectory", spy)
    out = tmp_path / "six.json"
    assert run_cli(["sixdim", "check", "--trajectory", str(traj), "--z", "1",
                    "--out", str(out)]) == 0
    assert seen == [("fd4", 1e-3)]
    # fd4 data under fd4 d: 5.8e-4; under the spectral d it would read 6.5e-2
    assert read(out)["dsigma"]["1"] < 1e-2


def _flow_trajectory(tmp_path, **config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 4, "dt": 0.02, "steps": 2, "epsilon": 0.01, **config}))
    traj = tmp_path / "traj.npz"
    assert run_cli(["flow", "run", "--config", str(cfg), "--out", str(tmp_path / "flow.json"),
                    "--trajectory", str(traj)]) == 0
    return traj


def test_sixdim_check_violated_invariants_exit_1(tmp_path, monkeypatch):
    from gengeo import sixdim

    traj = _flow_trajectory(tmp_path)
    with np.load(traj) as data:
        members = {key: data[key] for key in data.files}
    members["rho1"] = members["rho2"]          # f = (Q, Q) = 0 at every node
    unstable = tmp_path / "unstable.npz"
    np.savez_compressed(unstable, **members)
    out = tmp_path / "six.json"
    assert run_cli(["sixdim", "check", "--trajectory", str(unstable), "--z", "1",
                    "--out", str(out)]) == 1
    checks = read(out)["checks"]
    assert [c["id"] for c in checks] == ["stability"]
    assert not checks[0]["passed"] and "stability lost at t=0" in checks[0]["residual"]

    def varies(triple):
        raise sixdim.SignatureError("signature varies across nodes")

    monkeypatch.setattr(sixdim, "_triple_signature", varies)
    assert run_cli(["sixdim", "check", "--trajectory", str(traj), "--z", "1",
                    "--out", str(out)]) == 1
    checks = read(out)["checks"]
    assert [(c["id"], c["passed"], c["residual"]) for c in checks] == [
        ("gram-signature", False, "signature varies across nodes")]


def test_sixdim_check_malformed_trajectory_exit_2(tmp_path):
    traj = _flow_trajectory(tmp_path)
    with np.load(traj) as data:
        members = {key: data[key] for key in data.files}
    members["n"] = np.array(5)                 # N=5 over 4^5 arrays
    bad = tmp_path / "bad.npz"
    np.savez_compressed(bad, **members)
    assert run_cli(["sixdim", "check", "--trajectory", str(bad)]) == 2


def test_input_errors_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert run_cli(["spin55", "analyze", str(bad)]) == 2
    missing = tmp_path / "missing.json"
    assert run_cli(["flow", "run", "--config", str(missing)]) == 2
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"rho1": {"terms": []}}))
    assert run_cli(["spin55", "analyze", str(wrong)]) == 2


def test_unknown_subcommand_exit_2():
    with pytest.raises(SystemExit) as exc:
        run_cli(["frobnicate"])
    assert exc.value.code == 2


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "gengeo.cli", "verify", "identities",
                           "--dim", "2", "--cases", "2", "--seed", "1"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["pass"]


# -- io round trips ------------------------------------------------------------


def test_io_round_trips():
    rng = random.Random(11)
    chart = Chart(3)
    p = random_polynomial(chart, rng)
    assert gio.parse_polynomial(chart, gio.polynomial_to_json(p)) == p
    m = random_mixed_form(chart, rng)
    assert gio.parse_mixed_form(chart, gio.mixed_form_to_json(m)) == m
    u = random_section(chart, rng)
    assert gio.parse_gen_section(chart, gio.gen_section_to_json(u)) == u
    rho = normal_form()
    back = gio.parse_rho_pair(gio.rho_pair_to_json(rho))
    assert back.rho1 == rho.rho1 and back.rho2 == rho.rho2


def test_io_validation_messages():
    chart = Chart(3)
    with pytest.raises(gio.InputError, match="exponents"):
        gio.parse_polynomial(chart, [{"coeff": "1"}])
    with pytest.raises(gio.InputError, match="rational"):
        gio.parse_polynomial(chart, [{"exponents": [0, 0, 0], "coeff": "1.5.2"}])
    with pytest.raises(gio.InputError):
        gio.parse_mixed_form(chart, {"terms": [{"indices": [1, 1], "coeff": 1}]})
    with pytest.raises(gio.InputError):
        gio.parse_points({"points": [["1/2"]]}, dim=3)
    with pytest.raises(gio.InputError, match="no such file"):
        gio.load_json("/nonexistent/file.json")
