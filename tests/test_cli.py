import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gengeo
from gengeo import io as gio
from gengeo.algebra import Chart, random_polynomial
from gengeo.cli import main
from gengeo.forms import random_mixed_form
from gengeo.generalized import random_section
from gengeo.spin55 import DEFAULT_PROBE_POINTS, normal_form, quartic_invariant


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


def test_spin55_analyze_reports_the_orbit_sign_points(tmp_path):
    # the golden mixed-sign pair is stable at the one given point, but the orbit
    # sign is probed at the default points, where f changes sign: the report names both
    golden = Path(__file__).parent / "data" / "golden"
    rho, points = golden / "rho_mixed_sign.json", golden / "points_origin.json"
    out = tmp_path / "r.json"
    assert run_cli(["spin55", "analyze", str(rho), "--points", str(points),
                    "--out", str(out)]) == 1
    report = read(out)
    assert report["checks"][-1]["residual"] == (
        "f changes sign across probe points; no single orbit")
    env = report["environment"]
    assert env["points"] == [["0"] * 5]
    assert env["sign_points"] == [list(map(str, p)) for p in DEFAULT_PROBE_POINTS]
    f = quartic_invariant(gio.parse_rho_pair(gio.load_json(str(rho))))
    assert {f.evaluate(p) > 0 for p in DEFAULT_PROBE_POINTS} == {True, False}
    # without --points the sign points are the sample points
    assert run_cli(["spin55", "analyze", "--normal-form", "--out", str(out)]) == 0
    env = read(out)["environment"]
    assert env["sign_points"] == env["points"]


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


def test_sixdim_check_unreadable_trajectory_exit_2(tmp_path, capsys):
    missing = tmp_path / "missing.npz"
    assert run_cli(["sixdim", "check", "--trajectory", str(missing)]) == 2
    assert f"{missing}: no such file" in capsys.readouterr().err
    no_config = tmp_path / "no_config.npz"
    np.savez_compressed(no_config, n=np.array(4))
    assert run_cli(["sixdim", "check", "--trajectory", str(no_config)]) == 2
    err = capsys.readouterr().err
    assert str(no_config) in err and "config" in err


def test_directory_inputs_exit_2(tmp_path, capsys):
    d = tmp_path / "adir"
    d.mkdir()
    rho = tmp_path / "rho.json"
    rho.write_text(json.dumps(gio.rho_pair_to_json(normal_form())))
    for args in (["sixdim", "check", "--trajectory", str(d)],
                 ["spin55", "analyze", str(d)],
                 ["spin55", "analyze", str(rho), "--points", str(d)],
                 ["flow", "run", "--config", str(d)],
                 ["verify", "skew-torsion", "--input", str(d)],
                 ["verify", "twisted", "--input", str(d)]):
        assert run_cli(args) == 2, args
        assert f"{d}: is a directory" in capsys.readouterr().err


@pytest.mark.parametrize("points, message", [
    ([], "points: expected at least one point"),                 # analyzed the default points
    ([1], "points[0]: expected a list of 5 coordinates"),        # TypeError traceback
    (["12345"], "points[0]: expected a list of 5 coordinates"),  # a string read as 5 digits
])
def test_bad_points_file_exit_2(tmp_path, capsys, points, message):
    ppath = tmp_path / "points.json"
    ppath.write_text(json.dumps({"points": points}))
    mpath = tmp_path / "metric.json"
    mpath.write_text(json.dumps({"C": [[int(i == j) for j in range(5)] for i in range(5)]}))
    for args in (["spin55", "analyze", "--normal-form", "--points", str(ppath)],
                 ["verify", "skew-torsion", "--input", str(mpath), "--points", str(ppath)]):
        assert run_cli(args) == 2, args
        assert message in capsys.readouterr().err


def test_non_object_flow_config_exit_2(tmp_path, capsys):
    cfg = tmp_path / "list.json"
    cfg.write_text("[1]")
    assert run_cli(["flow", "run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"{cfg}: flow config must be a JSON object" in err
    traj = _flow_trajectory(tmp_path)
    with np.load(traj) as data:
        members = {key: data[key] for key in data.files}
    members["config"] = np.array("[1]")
    bad = tmp_path / "list_config.npz"
    np.savez_compressed(bad, **members)
    assert run_cli(["sixdim", "check", "--trajectory", str(bad)]) == 2
    assert f"{bad}: flow config must be a JSON object" in capsys.readouterr().err


MODE = {"component": "rho1", "indices": [3], "k": [1, 0, 0, 0, 0], "cos": 1.0, "sin": 0.0}


@pytest.mark.parametrize("bad, field", [
    ({"steps": -3}, "steps"),                        # ran zero steps and passed
    ({"steps": 1.5}, "steps"),                       # TypeError traceback
    ({"N": 4.5}, "N"),                               # TypeError traceback
    ({"n": 6}, "N and n"),                           # ran N = 4 and ignored n
    ({"stability_floor": -1}, "stability_floor"),    # switched the floor check off
    ({"dt": float("nan")}, "dt"),                    # failed as a stability check
    ({"epsilon": float("inf")}, "epsilon"),          # failed as a stability check
    ({"diagnostics": ["hamiltonain"]}, "diagnostics"),   # silently ignored
    ({"diagnostics": "nahm"}, "diagnostics"),        # read as the letters n, a, h, m
    ({"perturbation": [1]}, "perturbation"),         # TypeError traceback
    ({"perturbation": "none"}, "perturbation"),      # TypeError traceback
    ({"perturbation": [{**MODE, "k": [1, 0]}]}, "perturbation"),    # ran, zipped against 5 axes
    ({"perturbation": [{**MODE, "k": [1, 0, 0, 0, 0.5]}]}, "perturbation"),
    ({"perturbation": [{**MODE, "component": "rho3"}]}, "perturbation"),    # read as rho2
    ({"perturbation": [{**MODE, "indices": [1, 2]}]}, "perturbation"),     # even index
    ({"perturbation": [{**MODE, "indices": 3}]}, "perturbation"),
    ({"perturbation": [{**MODE, "cos": float("nan")}]}, "perturbation"),
    ({"perturbation": [{**MODE, "sin": "1"}]}, "perturbation"),
    ({"perturbation": [{**MODE, "phase": 1}]}, "perturbation"),
], ids=["negative-steps", "fractional-steps", "fractional-N", "both-N-and-n", "negative-floor",
        "nan-dt", "infinite-epsilon", "unknown-diagnostic", "diagnostics-not-a-list",
        "perturbation-entry-not-object", "perturbation-not-list", "perturbation-short-k",
        "perturbation-fractional-k", "perturbation-unknown-component",
        "perturbation-even-indices", "perturbation-indices-not-list", "perturbation-nan-cos",
        "perturbation-string-sin", "perturbation-unknown-key"])
def test_invalid_flow_config_exit_2(tmp_path, capsys, bad, field):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": 4, "steps": 1, **bad}))    # NaN / Infinity literals
    out = tmp_path / "r.json"
    assert run_cli(["flow", "run", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"input error: {cfg}: {field}" in capsys.readouterr().err
    assert not out.exists()


def test_zero_dt_flow_config_is_valid(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": 4, "steps": 2, "dt": 0}))
    out = tmp_path / "r.json"
    assert run_cli(["flow", "run", "--config", str(cfg), "--out", str(out)]) == 0
    assert read(out)["times"] == [0, 0, 0]


def test_custom_perturbation_runs(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": 4, "steps": 1, "perturbation": [MODE, {**MODE, "k": [0] * 5}]}))
    assert run_cli(["flow", "run", "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 0


def test_zero_dt_with_nahm_exit_2(tmp_path, capsys):
    # the central differences of the nahm residual divided by 2 dt = 0: nan, exit 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": 4, "steps": 3, "dt": 0, "diagnostics": ["nahm"]}))
    out = tmp_path / "r.json"
    assert run_cli(["flow", "run", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"input error: {cfg}: dt must be nonzero for the nahm diagnostic" in err
    assert not out.exists()


def test_sixdim_check_zero_dt_trajectory_names_dt(tmp_path, capsys):
    # the slices of a dt = 0 run are uniformly spaced (all at t = 0), so the old
    # "not uniformly spaced" message was false: the time derivatives need dt > 0
    traj = _flow_trajectory(tmp_path, dt=0)
    assert run_cli(["sixdim", "check", "--trajectory", str(traj)]) == 2
    err = capsys.readouterr().err
    assert "time derivatives need slices with dt > 0, got dt = 0" in err
    assert "uniformly spaced" not in err


@pytest.mark.parametrize("z", ["1/0", "1e400", "1e-400", "1e-310"])
def test_sixdim_check_z_without_finite_floats_exit_2(tmp_path, capsys, z):
    # 1/0 escaped parse_z_list as ZeroDivisionError and 1e400 the slice builder's
    # float(z) as OverflowError, each a traceback; 1e-400 divided by float(z) = 0, and
    # 1/float(1e-310) = inf failed the checks (exit 1)
    traj = _flow_trajectory(tmp_path)
    out = tmp_path / "six.json"
    assert run_cli(["sixdim", "check", "--trajectory", str(traj), "--z", f"1,{z}",
                    "--out", str(out)]) == 2
    assert f"z = {z} has no finite float z or 1/z" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_flow_with_a_non_finite_f_is_a_failed_stability_check(tmp_path):
    # dt = 1e308 overflows the state and f becomes NaN; "nan <= floor" is False, so
    # the failure was reported as an orbit sign flip
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": 4, "steps": 1, "dt": 1e308}))
    out = tmp_path / "r.json"
    assert run_cli(["flow", "run", "--config", str(cfg), "--out", str(out)]) == 1
    check, = (c for c in read(out)["checks"] if c["id"] == "stability")
    assert not check["passed"] and check["residual"].startswith("f is not finite at t=")


def test_spin55_analyze_late_stability_error_is_failed_check(tmp_path, monkeypatch):
    from gengeo import cli
    from gengeo.spin55 import StabilityError

    def unstable(rho):
        raise StabilityError("triple Gram entry is not a constant multiple of f")

    monkeypatch.setattr(cli, "v_triple", unstable)
    out = tmp_path / "r.json"
    assert run_cli(["spin55", "analyze", "--normal-form", "--out", str(out)]) == 1
    report = read(out)
    assert [(c["id"], c["passed"]) for c in report["checks"]] == [
        ("stable", True), ("stability", False)]
    assert "not a constant multiple" in report["checks"][1]["residual"]
    assert report["stable"] and "triple" not in report


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
    src = Path(gengeo.__file__).resolve().parent.parent      # the child imports this gengeo
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "gengeo.cli", "verify", "identities",
                           "--dim", "2", "--cases", "2", "--seed", "1"],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["pass"]


# -- io round trips ------------------------------------------------------------


def test_io_round_trips():
    rng = random.Random(11)
    chart = Chart(3)
    p = random_polynomial(chart, rng)
    assert gio.parse_polynomial(chart, p.to_json_obj()) == p
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


def _analyze_checks(tmp_path):
    out = tmp_path / "r.json"
    assert run_cli(["spin55", "analyze", "--normal-form", "--out", str(out)]) == 1
    report = read(out)
    return [(c["id"], c["passed"]) for c in report["checks"]], report


def test_spin55_analyze_gram_failure_is_the_gram_constant_check(tmp_path, monkeypatch):
    # a wrong (h, h) constant makes the exact Gram comparison fail
    from fractions import Fraction

    from gengeo import spin55

    monkeypatch.setattr(spin55, "GRAM_HH", Fraction(1, 2))
    checks, report = _analyze_checks(tmp_path)
    assert checks == [("stable", True), ("gram-constant", False)]
    assert "unexpected triple Gram" in report["checks"][1]["residual"]


def test_spin55_analyze_normalization_failure_is_the_normalization_check(tmp_path,
                                                                        monkeypatch):
    # a doubled q makes <rho_hat_1, rho2> = q fail exactly
    from gengeo.spin55 import PairAnalysis

    signed = PairAnalysis.signed.func
    monkeypatch.setattr(PairAnalysis, "signed",
                        property(lambda self: (lambda q, s: (q + q, s))(*signed(self))))
    checks, report = _analyze_checks(tmp_path)
    assert checks == [("stable", True), ("normalization", False)]
    assert "normalization failed" in report["checks"][1]["residual"]
