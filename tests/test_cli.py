import json
import os
import random
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gengeo
from gengeo import io as gio
from gengeo.algebra import Chart, Polynomial, random_polynomial
from gengeo.cli import Report, _exact_check, main
from gengeo.forms import MixedForm, VectorField, random_mixed_form
from gengeo.generalized import GenSection
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


def test_spin55_analyze_fails_the_orbit_check_on_mixed_sign_sample_points(tmp_path):
    # f = -8 at the origin and 24 at (1,2,3,4,5): stable, with no single orbit sign
    rho = Path(__file__).parent / "data" / "golden" / "rho_mixed_sign.json"
    f = quartic_invariant(gio.parse_rho_pair(gio.load_json(str(rho))))
    pts = [[0] * 5, [1, 2, 3, 4, 5]]
    assert [f.evaluate(p) for p in pts] == [-8, 24]
    points, out = tmp_path / "points.json", tmp_path / "r.json"
    points.write_text(json.dumps({"points": pts}))
    assert run_cli(["spin55", "analyze", str(rho), "--points", str(points),
                    "--out", str(out)]) == 1
    report = read(out)
    assert [(c["id"], c["passed"], c["residual"]) for c in report["checks"]] == [
        ("stable", True, "0"), ("orbit", False, "sign of f varies across points")]
    assert report["stable"] and report["orbit_sign"] is None and "triple" not in report
    assert report["environment"]["points"] == [list(map(str, p)) for p in pts]


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


def test_sixdim_check_malformed_trajectory_exit_2(tmp_path, capsys):
    traj = _flow_trajectory(tmp_path)
    with np.load(traj) as data:
        members = {key: data[key] for key in data.files}
    members["config"] = json.dumps({**json.loads(str(members["config"])), "n": 5})
    bad = tmp_path / "bad.npz"                 # N=5 over 4^5 arrays
    np.savez_compressed(bad, **members)
    assert run_cli(["sixdim", "check", "--trajectory", str(bad)]) == 2
    assert "rho1 has shape (3, 16, 4, 4, 4, 4, 4), expected (3, 16, 5, 5, 5, 5, 5)" in (
        capsys.readouterr().err)


def test_sixdim_check_non_uniform_last_states_exit_2(tmp_path, capsys):
    # the trajectory file checks no spacing of its own: central_window refuses it
    traj = _flow_trajectory(tmp_path)
    with np.load(traj) as data:
        members = {key: data[key] for key in data.files}
    members["times"] = members["times"] * np.array([1.0, 1.0, 1.5])
    bad = tmp_path / "bad.npz"
    np.savez_compressed(bad, **members)
    out = tmp_path / "six.json"
    assert run_cli(["sixdim", "check", "--trajectory", str(bad), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: states are not uniformly spaced in time\n"
    assert not out.exists()


def test_sixdim_check_refuses_uneven_tiny_time_steps(tmp_path, capsys):
    # numpy's default atol = 1e-8 let any spacing pass once |dt| < 1e-8 (exit 0)
    traj = _flow_trajectory(tmp_path, dt=1e-9)
    with np.load(traj) as data:
        members = {key: data[key] for key in data.files}
    members["times"] = np.array([0.0, 1e-9, 3e-9])
    bad = tmp_path / "bad.npz"
    np.savez_compressed(bad, **members)
    assert run_cli(["sixdim", "check", "--trajectory", str(bad), "--z", "1"]) == 2
    assert capsys.readouterr().err == "error: states are not uniformly spaced in time\n"
    assert run_cli(["sixdim", "check", "--trajectory", str(traj), "--z", "1",
                    "--out", str(tmp_path / "six.json")]) == 0


def test_trajectory_is_written_at_the_path_given(tmp_path):
    # numpy's savez added ".npz": the file was noext.npz, the report named noext, and
    # sixdim check on noext exited 2 ("no such file")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 4, "dt": 0.02, "steps": 2, "epsilon": 0.01}))
    d = tmp_path / "out"
    d.mkdir()
    traj, out = d / "noext", tmp_path / "flow.json"
    assert run_cli(["flow", "run", "--config", str(cfg), "--out", str(out),
                    "--trajectory", str(traj)]) == 0
    assert sorted(os.listdir(d)) == ["noext"]
    assert read(out)["trajectory"] == str(traj)
    assert run_cli(["sixdim", "check", "--trajectory", str(traj), "--z", "1",
                    "--out", str(tmp_path / "six.json")]) == 0


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


TWISTED = ["verify", "twisted", "--cases", "1", "--input"]


@pytest.mark.parametrize("command, obj, message", [
    (["verify", "skew-torsion", "--input"], {"C": 5}, "metric.C: expected a list of rows"),
    (["verify", "skew-torsion", "--input"], {"C": [1, 2]},
     "metric.C[0]: expected a list of 2 entries"),
    (TWISTED, {"charts": 5}, "cover.charts: expected a list of chart labels"),
    (TWISTED, {"charts": "ab"}, "cover.charts: expected a list of chart labels"),
    (TWISTED, {"charts": ["a", "b"], "A": [1]}, "cover.A: expected an object"),
    (TWISTED, {"charts": ["a", "b"], "B": [1]}, "cover.B: expected an object"),
    (["spin55", "analyze"], {"rho1": {"terms": 5}, "rho2": {"terms": []}},
     "rho.rho1: expected {'terms': [...]}"),
    (["verify", "skew-torsion", "--input"], {"C": [[[{"exponents": [0, 0], "coeff": 1}]]]},
     "metric.C[0][0][0]: 2 exponents for dim 1"),
    (["spin55", "analyze"], {"rho1": {"terms": [{"coeff": 1}]}, "rho2": {"terms": []}},
     "rho.rho1.terms[0]: needs 'indices'"),
    (TWISTED, {"charts": ["a", "b"], "A": {"a": {"terms": []}}},
     "cover.A: overlap key 'a' is not 'a,b'"),
    (TWISTED, {"charts": ["a", "a"]}, "cover: duplicate chart labels"),
    (["spin55", "analyze"], {"dim": 4, "rho1": {"terms": []}, "rho2": {"terms": []}},
     "rho: rho pairs live on a 5-chart, got dim 4"),
    (["spin55", "analyze"], {"rho1": {"terms": [{"indices": [1]}]}, "rho2": {"terms": []}},
     "rho: rho1 must be an even form"),
    (["spin55", "analyze"], {"rho1": {"terms": [{"indices": "12"}]}, "rho2": {"terms": []}},
     "rho.rho1.terms[0].indices: expected a list of integers"),
    (["spin55", "analyze"], {"rho1": {"terms": [{"indices": [1, 2], "coeff": [
        {"exponents": [-1, 0, 0, 0, 0], "coeff": 1}]}]}, "rho2": {"terms": []}},
     "rho.rho1.terms[0].coeff[0].exponents: negative exponent in [-1, 0, 0, 0, 0]"),
    (TWISTED, {"charts": ["a", "b"], "B": {"c": {"terms": []}}},
     "cover: curving given for unknown chart 'c'"),
    (TWISTED, {"charts": ["a", "b"], "B": {"a": {"terms": [{"indices": [1]}]},
                                           "b": {"terms": []}}},
     "cover: B_a must be a 2-form"),
    (TWISTED, {"charts": ["a", "b"], "B": {"a": {"terms": []}}},
     "cover: curving missing for charts ['b']"),
], ids=["metric-C-number", "metric-C-row-numbers", "cover-charts-number",
        "cover-charts-string", "cover-A-list", "cover-B-list", "rho-terms-number",
        "polynomial-exponent-count", "form-term-without-indices", "cover-A-key",
        "cover-duplicate-labels", "rho-dim", "rho-odd-form", "form-indices-string",
        "polynomial-negative-exponent",
        "cover-B-unknown-chart", "cover-B-not-a-2-form", "cover-B-missing-chart"])
def test_malformed_input_files_exit_2(tmp_path, capsys, command, obj, message):
    # each of the first six was a TypeError or AttributeError traceback (exit 1); the
    # charts string ran as two charts named a and b (exit 0); a rho pair's field errors
    # read "rho: rho.rho1...", prefixed twice; a negative exponent was reported by the
    # Polynomial constructor, without the input-error prefix or its place in the file
    path = tmp_path / "in.json"
    path.write_text(json.dumps(obj))
    assert run_cli([*command, str(path)]) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"


def test_a_cover_file_with_curvings_runs_as_the_built_in_cover(tmp_path):
    # A_ab = x1 dx2, B_a = dx1 dx2 and B_b = B_a + dA_ab: the built-in cover at dim 2
    cover = tmp_path / "cover.json"
    cover.write_text(json.dumps({
        "dim": 2, "charts": ["a", "b"],
        "A": {"a,b": {"terms": [{"indices": [2], "coeff": [{"exponents": [1, 0], "coeff": 1}]}]}},
        "B": {"a": {"terms": [{"indices": [1, 2]}]},
              "b": {"terms": [{"indices": [1, 2], "coeff": 2}]}}}))
    reports = []
    for extra in ([], ["--input", str(cover)]):
        out = tmp_path / "r.json"
        assert run_cli(["verify", "twisted", "--dim", "2", "--cases", "10", *extra,
                        "--out", str(out)]) == 0
        reports.append(read(out)["checks"])
    assert reports[0] == reports[1]
    assert reports[1][-1] == {"id": "globalize-curving", "passed": True, "residual": "0",
                              "anchor": "e^{B_a} phi_a = e^{B_b} phi_b and (d-H)psi = 0"}


def test_a_cover_file_whose_curving_breaks_the_cocycle_fails_exit_1(tmp_path):
    # B_b - B_a = dx1 dx2 but dA_ab = 0: the sections agree on the overlap and their
    # e^{B} images do not, so globalization fails as well as the cocycle check
    cover = tmp_path / "cover.json"
    cover.write_text(json.dumps({
        "dim": 2, "charts": ["a", "b"], "A": {"a,b": {"terms": []}},
        "B": {"a": {"terms": []}, "b": {"terms": [{"indices": [1, 2]}]}}}))
    out = tmp_path / "r.json"
    assert run_cli(["verify", "twisted", "--dim", "2", "--cases", "2", "--input", str(cover),
                    "--out", str(out)]) == 1
    # the cocycle fails with its largest coefficient, the globalization with its
    # CoverError message; both read "nonzero"
    assert [(c["id"], c["residual"]) for c in read(out)["checks"] if not c["passed"]] == [
        ("cocycle", 1.0), ("globalize-curving", "globalization failed: psi_b differs")]


def test_repeated_form_indices_are_summed(tmp_path):
    # the normal form with its dx1 dx2 term of rho1 written as 1/3 + 2/3
    rho = gio.rho_pair_to_json(normal_form())
    assert rho["rho1"]["terms"][0]["indices"] == [1, 2]
    rho["rho1"]["terms"][:1] = [{"indices": [1, 2], "coeff": "1/3"},
                                {"indices": [1, 2], "coeff": "2/3"}]
    assert gio.parse_rho_pair(rho).rho1 == normal_form().rho1
    path, out, ref = tmp_path / "rho.json", tmp_path / "r.json", tmp_path / "ref.json"
    path.write_text(json.dumps(rho))
    assert run_cli(["spin55", "analyze", str(path), "--out", str(out)]) == 0
    assert run_cli(["spin55", "analyze", "--normal-form", "--out", str(ref)]) == 0
    assert read(out) == read(ref)


def test_singular_metric_at_a_given_point_exit_2(tmp_path, capsys):
    # the B = 0 oracle's exact solve raised ZeroDivisionError (a traceback, exit 1)
    metric, points = tmp_path / "m.json", tmp_path / "p.json"
    metric.write_text(json.dumps({"C": [[0, 0], [0, 0]]}))
    points.write_text(json.dumps({"points": [[0, 0]]}))
    assert run_cli(["verify", "skew-torsion", "--input", str(metric),
                    "--points", str(points)]) == 2
    assert "input error: points[0] = (0, 0): g is singular there" in capsys.readouterr().err


def test_a_metric_file_warns_where_g_is_not_positive_definite(tmp_path):
    metric, points, out = tmp_path / "m.json", tmp_path / "p.json", tmp_path / "r.json"
    metric.write_text(json.dumps({"C": [[-1, 0], [0, 1]]}))
    points.write_text(json.dumps({"points": [[0, 0], ["1/2", 1]]}))
    assert run_cli(["verify", "skew-torsion", "--input", str(metric), "--points", str(points),
                    "--out", str(out)]) == 0
    assert read(out)["warnings"] == ["g not positive definite at ('0', '0')",
                                     "g not positive definite at ('1/2', '1')"]


def _shift_connection(connection_at):
    def shifted(v, point, deltas):
        return [[[g + 1 for g in row] for row in plane]
                for plane in connection_at(v, point, deltas)]
    return shifted


def _shift_first_delta(coordinate_deltas):
    def shifted(v):
        deltas = coordinate_deltas(v)
        deltas[0][0] = deltas[0][0] + MixedForm.basis(v.chart, (0,))
        return deltas
    return shifted


@pytest.mark.parametrize("name, shift, failed", [
    ("connection_at", _shift_connection, [("christoffel-oracle", 1.0)]),
    ("coordinate_deltas", _shift_first_delta,
     [("christoffel-oracle", None), ("levi-civita-expansion", 1.0)]),
], ids=["connection", "deltas"])
def test_skew_torsion_oracles_fail_on_a_wrong_connection(tmp_path, monkeypatch, name, shift,
                                                         failed):
    # a check that cannot fail proves nothing: a shifted connection or Delta fails the
    # oracles that read it, with exit 1 and its largest coefficient (None: some float
    # > 0), where it read "nonzero"
    from gengeo import cli

    monkeypatch.setattr(cli, name, shift(getattr(cli, name)))
    out = tmp_path / "r.json"
    assert run_cli(["verify", "skew-torsion", "--dim", "2", "--metrics", "1",
                    "--sample-points", "1", "--out", str(out)]) == 1
    bad = [c for c in read(out)["checks"] if not c["passed"]]
    assert [c["id"] for c in bad] == [check for check, _ in failed]
    for c, (_, residual) in zip(bad, failed):
        assert c["residual"] == residual if residual is not None else c["residual"] > 0


def test_a_metric_file_fails_the_christoffel_oracle_on_a_wrong_connection(tmp_path,
                                                                         monkeypatch):
    from gengeo import cli

    monkeypatch.setattr(cli, "connection_at", _shift_connection(cli.connection_at))
    metric, points, out = tmp_path / "m.json", tmp_path / "p.json", tmp_path / "r.json"
    metric.write_text(json.dumps({"C": [[1, 0], [0, [{"exponents": [1, 0], "coeff": "1/4"},
                                                     {"exponents": [0, 0], "coeff": 1}]]]}))
    points.write_text(json.dumps({"points": [[0, 0], ["1/2", 1]]}))
    assert run_cli(["verify", "skew-torsion", "--input", str(metric), "--points", str(points),
                    "--out", str(out)]) == 1
    assert [(c["id"], c["residual"]) for c in read(out)["checks"] if not c["passed"]] == [
        ("christoffel-oracle", 1.0)]


def _bump_torsion(field):
    """torsion_check with 1 added to the first of the report's `field` residuals."""
    def wrap(torsion_check):
        def bumped(v, *args, **kwargs):
            rep = torsion_check(v, *args, **kwargs)
            residuals = getattr(rep, field)
            residuals[0] = residuals[0] + 1
            return rep
        return bumped
    return wrap


def _bump_cocycle(check_cocycle):
    def bumped(cover):
        rep = check_cocycle(cover)
        key = next(iter(rep.curving_residuals))
        rep.curving_residuals[key] = (rep.curving_residuals[key]
                                      + MixedForm.basis(cover.chart, (0, 1), 3))
        return rep
    return bumped


def _unoriented_glue(glue_section):
    # glues by dA_ab in both directions, so the round trip adds 2 i_X dA_ab
    return lambda cover, u, overlap: glue_section(cover, u, tuple(sorted(overlap)))


def _half_pairing(gv_inner):
    # xi(Y) without its symmetrization: gluing adds dA(X, Y), which the half with
    # eta(X) would cancel
    return lambda u, v: sum((u.oneform.coefficient((i,)) * y
                             for i, y in enumerate(v.vector.components)),
                            Polynomial.zero(u.chart))


def _plus_vector(courant_bracket):
    # a vector part d/dx1 that the bracket of the glued sections gets unglued
    return lambda u, v: courant_bracket(u, v) + GenSection.from_vector(
        VectorField.coordinate(u.chart, 0))


def _plus_one(twisted_differential):
    return lambda psi, h: twisted_differential(psi, h) + MixedForm.function(psi.chart, 1)


SKEW_TORSION = ["verify", "skew-torsion", "--dim", "3", "--metrics", "2",
                "--sample-points", "1"]
TWISTED = ["verify", "twisted", "--dim", "3", "--cases", "10"]


@pytest.mark.parametrize("args, name, wrap, failed", [
    (SKEW_TORSION, "torsion_check", _bump_torsion("torsion_residuals"),
     [("skew-torsion", 1.0), ("swapped-roles", 1.0)]),
    (SKEW_TORSION, "torsion_check", _bump_torsion("compatibility_residuals"),
     [("metric-compatibility", 1.0), ("swapped-roles", 1.0)]),
    (TWISTED, "check_cocycle", _bump_cocycle, [("cocycle", 3.0)]),
    (TWISTED, "glue_section", _unoriented_glue, [("glue-round-trip", 8.0)]),
    (TWISTED, "gv_inner", _half_pairing, [("glue-inner", 12.0)]),
    (TWISTED, "courant_bracket", _plus_vector, [("glue-bracket", 1.0)]),
    (TWISTED, "twisted_differential", _plus_one,
     [("twisted-d-squared", 4.0), ("globalize-curving", 1.0)]),
], ids=["torsion", "compatibility", "cocycle", "glue", "inner", "bracket", "twisted-d"])
def test_each_exact_check_fails_with_a_number(tmp_path, monkeypatch, args, name, wrap, failed):
    # a wrong library call fails exactly the checks that read it, each with its largest
    # coefficient; every one of them read "nonzero"
    from gengeo import cli

    monkeypatch.setattr(cli, name, wrap(getattr(cli, name)))
    out = tmp_path / "r.json"
    assert run_cli([*args, "--out", str(out)]) == 1
    assert [(c["id"], c["residual"]) for c in read(out)["checks"] if not c["passed"]] == failed


@pytest.mark.parametrize("args", [
    ["verify", "identities", "--cases", "0"], ["verify", "identities", "--cases", "-4"],
    ["verify", "skew-torsion", "--metrics", "0"],
    ["verify", "skew-torsion", "--sample-points", "0"], ["verify", "twisted", "--cases", "0"]])
def test_counts_below_1_exit_2(capsys, args):
    # each tested nothing and passed every check (exit 0)
    with pytest.raises(SystemExit) as exc:
        run_cli(args)
    assert exc.value.code == 2
    assert f"argument {args[2]}: expected an integer >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("args, message", [
    (["verify", "identities", "--max-degree", "-1"],          # empty range for randrange()
     "argument --max-degree: expected an integer >= 0, got '-1'"),
    (["verify", "twisted", "--dim", "1"],                     # index tuple (1,) out of range
     "--dim: the built-in cover needs dim >= 2, got 1"),
    # the next three printed the chart's limit without naming the option
    (["verify", "identities", "--dim", "0"],
     "argument --dim: expected an integer in 1..8, got '0'"),
    (["verify", "skew-torsion", "--dim", "9"],
     "argument --dim: expected an integer in 1..8, got '9'"),
    (["verify", "twisted", "--dim", "0", "--input", "cover.json"],
     "argument --dim: expected an integer in 1..8, got '0'"),
    (["spin55", "analyze"], "spin55 analyze needs a rho file or --normal-form"),
    # the next two ignored an option and exited 0, even for a file that does not exist
    (["verify", "skew-torsion", "--points", "missing.json"], "--points is read only with --input"),
    (["spin55", "analyze", "missing.json", "--normal-form"],
     "spin55 analyze takes a rho file or --normal-form, not both"),
], ids=["max-degree-negative", "twisted-dim-1", "identities-dim-0", "skew-torsion-dim-9",
        "twisted-dim-0-with-a-cover", "spin55-analyze-without-a-pair",
        "skew-torsion-points-without-an-input", "spin55-analyze-with-a-pair-and-the-normal-form"])
def test_usage_errors_name_the_option_and_its_limit(capsys, args, message):
    # the errors main raises itself print their subcommand's usage and prefix, as
    # argparse's own do (they printed the top-level ones, "gengeo: error:")
    with pytest.raises(SystemExit) as exc:
        run_cli(args)
    assert exc.value.code == 2
    command = "gengeo " + " ".join(args[:2])
    err = capsys.readouterr().err
    assert err.startswith(f"usage: {command} [-h]")
    assert err.splitlines()[-1] == f"{command}: error: {message}"


def test_twisted_dim_1_with_a_cover_file_runs(tmp_path):
    # only the built-in cover needs dim >= 2; A_ab = x1 dx1
    cover = tmp_path / "cover.json"
    cover.write_text(json.dumps({"dim": 1, "charts": ["a", "b"], "A": {"a,b": {"terms": [
        {"indices": [1], "coeff": [{"exponents": [1], "coeff": 1}]}]}}}))
    assert run_cli(["verify", "twisted", "--dim", "1", "--cases", "2", "--input", str(cover),
                    "--out", str(tmp_path / "r.json")]) == 0


def test_a_cover_without_an_overlap_exits_2(tmp_path, capsys):
    # the cocycle and glue checks tested nothing and passed with residual "0" (exit 0)
    cover = tmp_path / "cover.json"
    cover.write_text(json.dumps({"dim": 1, "charts": ["a", "b"], "A": {}}))
    out = tmp_path / "r.json"
    assert run_cli(["verify", "twisted", "--dim", "1", "--cases", "2", "--input", str(cover),
                    "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "input error: cover.A: no overlap, so the glue checks would test nothing\n")
    assert not out.exists()


def x_dx(j, i, coeff=1):        # coeff x_j dx_i on the 3-chart
    return {"indices": [i], "coeff": [
        {"exponents": [int(k == j) for k in (1, 2, 3)], "coeff": coeff}]}


def dx_dx(i, j, coeff=1):       # coeff dx_i dx_j
    return {"indices": [i, j], "coeff": coeff}


def write_cover(path, charts, overlaps, curvings=None):
    obj = {"dim": 3, "charts": charts, "A": {k: {"terms": [t]} for k, t in overlaps.items()}}
    if curvings is not None:
        obj["B"] = {a: {"terms": terms} for a, terms in curvings.items()}
    path.write_text(json.dumps(obj))
    return ["verify", "twisted", "--dim", "3", "--cases", "3", "--input", str(path), "--out",
            str(path.with_suffix(".out.json"))]


def test_every_overlap_of_a_cover_is_glued(tmp_path, monkeypatch):
    # only the first overlap, (a,b), was glued: a glue that goes wrong on (b,c) passed
    from gengeo import cli

    glue_section = cli.glue_section

    def wrong_on_bc(cover, u, overlap):
        glued = glue_section(cover, u, overlap)
        if set(overlap) == {"b", "c"}:
            glued = glued + GenSection.from_vector(VectorField.coordinate(cover.chart, 0))
        return glued

    args = write_cover(tmp_path / "cover.json", ["a", "b", "c"],
                       {"a,b": x_dx(2, 1), "b,c": x_dx(3, 2)})
    assert run_cli(args) == 0
    monkeypatch.setattr(cli, "glue_section", wrong_on_bc)
    assert run_cli(args) == 1
    assert [c["id"] for c in read(args[-1])["checks"] if not c["passed"]] == [
        "glue-round-trip", "glue-inner", "glue-bracket"]


def test_a_chain_of_charts_globalizes(tmp_path):
    # A_ab = x2 dx1 and A_bc = x3 dx2, so dA_ab = -dx1 dx2 and dA_bc = -dx2 dx3; chart c
    # meets only b, and globalize-curving failed with "unknown overlap (a,c)" (exit 1)
    args = write_cover(tmp_path / "chain.json", ["a", "b", "c"],
                       {"a,b": x_dx(2, 1), "b,c": x_dx(3, 2)},
                       {"a": [], "b": [dx_dx(1, 2, -1)], "c": [dx_dx(1, 2, -1), dx_dx(2, 3, -1)]})
    assert run_cli(args) == 0
    assert read(args[-1])["checks"][-1]["id"] == "globalize-curving"


def test_a_split_cover_with_curvings_exits_2(tmp_path, capsys):
    # charts c and d meet no chart that a meets: globalize-curving failed with
    # "unknown overlap (a,c)" (exit 1); without curvings every overlap is still glued
    overlaps = {"a,b": x_dx(2, 1), "c,d": x_dx(3, 2)}
    args = write_cover(tmp_path / "split.json", ["a", "b", "c", "d"], overlaps,
                       {"a": [], "b": [dx_dx(1, 2, -1)], "c": [], "d": [dx_dx(2, 3, -1)]})
    assert run_cli(args) == 2
    assert capsys.readouterr().err == (
        "input error: cover: charts ['c', 'd'] are not joined to chart 'a' by overlaps, "
        "so no single section globalizes\n")
    assert not Path(args[-1]).exists()
    args = write_cover(tmp_path / "uncurved.json", ["a", "b", "c", "d"], overlaps)
    assert run_cli(args) == 0
    assert read(args[-1])["checks"][-1]["id"] == "glue-bracket"


def test_an_overlap_given_both_ways_is_glued_once(tmp_path, monkeypatch):
    # each case glues u, v, u back and [u, v] across each of the two overlaps once
    from gengeo import cli

    calls = []
    glue_section = cli.glue_section

    def spy(cover, u, overlap):
        calls.append(overlap)
        return glue_section(cover, u, overlap)

    monkeypatch.setattr(cli, "glue_section", spy)
    args = write_cover(tmp_path / "both.json", ["a", "b", "c"],
                       {"a,b": x_dx(2, 1), "b,a": x_dx(2, 1, -1), "c,b": x_dx(3, 2)})
    assert run_cli(args) == 0
    assert len(calls) == 4 * 3 * 2
    assert set(calls) == {("a", "b"), ("b", "a"), ("c", "b"), ("b", "c")}


def test_exact_check_reads_every_vector_component():
    # nonclosed-b-defect read only the first vector component: residual 0.0 here
    chart = Chart(3)
    section = GenSection.from_vector(VectorField.coordinate(chart, 2)).scale(Fraction(3, 2))
    report = Report("r", {})
    _exact_check(report, "c", "a", [GenSection.zero(chart), section])
    assert (report.checks[0].residual, report.checks[0].passed) == (1.5, False)


def test_exact_check_fails_with_the_largest_coefficient_of_any_residual():
    # no exact check had failed with a form residual: the MixedForm branch of
    # _max_abs_coeff never ran
    chart = Chart(3)
    poly = Polynomial.monomial(chart, (1, 0, 2), Fraction(-5, 2))
    form = MixedForm(chart, {(0, 1): Polynomial.monomial(chart, (0, 1, 0), 7), (2,): 1})
    section = GenSection.from_oneform(MixedForm(chart, {(1,): Fraction(-4)}))
    for residuals, worst in (([poly], 2.5), ([form], 7.0), ([section], 4.0),
                             ([poly, form, section], 7.0)):
        report = Report("r", {})
        _exact_check(report, "c", "a", [Polynomial.zero(chart), *residuals])
        assert (report.checks[0].residual, report.checks[0].passed) == (worst, False)


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
    # "not uniformly spaced" message was false: the time derivatives need dt != 0
    traj = _flow_trajectory(tmp_path, dt=0)
    assert run_cli(["sixdim", "check", "--trajectory", str(traj)]) == 2
    err = capsys.readouterr().err
    assert "central time differences need dt != 0" in err
    assert "uniformly spaced" not in err


def test_sixdim_check_passes_a_nahm_run_with_negative_dt(tmp_path):
    # the nahm residual took dt < 0, but sixdim check refused the same trajectory
    residuals = []
    for dt in (0.01, -0.01):
        run = tmp_path / str(dt)
        run.mkdir()
        traj = _flow_trajectory(run, dt=dt, steps=6, diagnostics=["nahm"])
        out = run / "six.json"
        assert run_cli(["sixdim", "check", "--trajectory", str(traj), "--out", str(out)]) == 0
        report = read(out)
        residuals.append([sorted(report[key].values()) for key in ("bracket_residuals", "dsigma")])
    forward, backward = residuals
    for a, b in zip(forward, backward):
        assert b == pytest.approx(a, rel=1e-8)


@pytest.mark.parametrize("z, message", [
    (",", "names no z"), (" ", "names no z"), ("", "names no z"),
    ("1,1", "names z = 1 twice"), ("1,2/2", "names z = 1 twice"),
    ("inf,oo", "names z = inf twice"),
])
def test_sixdim_check_z_list_without_a_z_or_with_a_repeat_exit_2(tmp_path, capsys, z, message):
    # "," and " " ran no z and failed gram-signature with "(0, 0, 0)", "" ran the
    # default sweep, and a repeated z wrote each of its check ids twice
    traj = _flow_trajectory(tmp_path)
    out = tmp_path / "six.json"
    assert run_cli(["sixdim", "check", "--trajectory", str(traj), "--z", z,
                    "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("content", [b'{"n": 4}', b"", b"PK\x03\x04 truncated"])
def test_sixdim_check_non_npz_trajectory_exit_2(tmp_path, capsys, content):
    # numpy's "This file contains pickled (object) data" for a JSON file, and an
    # EOFError or BadZipFile traceback for an empty file or a truncated archive
    path = tmp_path / "traj.npz"
    path.write_bytes(content)
    assert run_cli(["sixdim", "check", "--trajectory", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"{path}: not a trajectory written by `flow run`" in err
    assert "pickled" not in err


def test_outputs_in_a_missing_directory_exit_2_before_any_work(tmp_path, capsys, monkeypatch):
    # a FileNotFoundError traceback, for flow run after the whole flow
    from gengeo import cli

    monkeypatch.setattr(cli, "flow_run_report", lambda *args: pytest.fail("the flow ran"))
    monkeypatch.setattr(cli, "identities_suite", lambda *args: pytest.fail("the suite ran"))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 4, "steps": 1}))
    (tmp_path / "file").write_text("")
    for path in (tmp_path / "missing" / "x", tmp_path / "file" / "x"):
        for option in ("--out", "--trajectory", "--csv"):
            assert run_cli(["flow", "run", "--config", str(cfg), option, str(path)]) == 2
            assert f"input error: {path}: no such directory" in capsys.readouterr().err
        assert run_cli(["verify", "identities", "--out", str(path)]) == 2
        assert f"input error: {path}: no such directory" in capsys.readouterr().err


def test_an_output_that_is_a_directory_exits_2(tmp_path, capsys, monkeypatch):
    # --csv ran the whole flow first; --trajectory wrote DIR.npz beside DIR (exit 0)
    from gengeo import cli

    monkeypatch.setattr(cli, "flow_run_report", lambda *args: pytest.fail("the flow ran"))
    monkeypatch.setattr(cli, "identities_suite", lambda *args: pytest.fail("the suite ran"))
    assert run_cli(["verify", "identities", "--cases", "1", "--out", str(tmp_path)]) == 2
    assert f"input error: {tmp_path}: is a directory" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 4, "steps": 1}))
    out = tmp_path / "r.json"
    for option in ("--out", "--trajectory", "--csv"):
        args = ["flow", "run", "--config", str(cfg), option, str(tmp_path)]
        if option != "--out":
            args += ["--out", str(out)]
        assert run_cli(args) == 2, option
        assert f"input error: {tmp_path}: is a directory" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["cfg.json"]
    assert not os.path.exists(f"{tmp_path}.npz")


@pytest.mark.parametrize("args, clash", [
    # each of the first three exited 0: the report replaced the config or the trajectory,
    # or the CSV replaced the trajectory the report names
    (["flow", "run", "--config", "IN", "--out", "IN"], "--out names the same file as --config"),
    (["sixdim", "check", "--trajectory", "IN", "--out", "IN"],
     "--out names the same file as --trajectory"),
    (["flow", "run", "--config", "IN", "--out", "OUT", "--trajectory", "X", "--csv", "X"],
     "--csv names the same file as --trajectory"),
    (["flow", "run", "--config", "IN", "--trajectory", "OUT", "--out", "OUT"],
     "--out names the same file as --trajectory"),
    (["flow", "run", "--config", "LINK", "--csv", "IN"], "--csv names the same file as --config"),
    (["verify", "twisted", "--input", "IN", "--out", "DOT"],
     "--out names the same file as --input"),
    (["verify", "skew-torsion", "--input", "OTHER", "--points", "IN", "--out", "IN"],
     "--out names the same file as --points"),
    (["spin55", "analyze", "IN", "--out", "IN"], "--out names the same file as the rho file"),
    (["spin55", "analyze", "--normal-form", "--points", "IN", "--out", "IN"],
     "--out names the same file as --points"),
], ids=["flow-config", "sixdim-trajectory", "flow-trajectory-csv", "flow-trajectory-out",
        "flow-config-symlink", "twisted-input-dot-path", "skew-torsion-points", "spin55-rho",
        "spin55-points"])
def test_an_output_naming_an_input_or_another_output_exits_2_before_any_work(
        tmp_path, capsys, monkeypatch, args, clash):
    from gengeo import cli

    for name in ("flow_run_report", "sixdim_report", "twisted_suite", "skew_torsion_file",
                 "spin55_analyze"):
        monkeypatch.setattr(cli, name, lambda *a, name=name: pytest.fail(f"{name} ran"))
    paths = {"IN": tmp_path / "in.json", "OTHER": tmp_path / "other.json",
             "OUT": tmp_path / "out.json", "X": tmp_path / "x.npz",
             "LINK": tmp_path / "link.json", "DOT": os.path.join(tmp_path, ".", "in.json")}
    paths["IN"].write_text("not read")
    paths["OTHER"].write_text("not read")
    paths["LINK"].symlink_to(paths["IN"])
    before = sorted(os.listdir(tmp_path))
    argv = [str(paths.get(a, a)) for a in args]
    assert run_cli(argv) == 2
    clashing = argv[argv.index(clash.split()[0]) + 1]      # the path of the output named
    assert capsys.readouterr().err == f"input error: {clashing}: {clash}\n"
    assert paths["IN"].read_text() == "not read"
    assert sorted(os.listdir(tmp_path)) == before


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


def test_flow_with_a_non_finite_f_is_a_failed_stability_check(tmp_path):
    # dt = 1e308 overflows the state and f becomes NaN; "nan <= floor" is False, so
    # the failure was reported as an orbit sign flip.  No RuntimeWarning may escape
    # either thread (the test configuration turns one into an error).
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": 4, "steps": 1, "dt": 1e308}))
    out = tmp_path / "r.json"
    assert run_cli(["flow", "run", "--config", str(cfg), "--out", str(out)]) == 1
    check, = (c for c in read(out)["checks"] if c["id"] == "stability")
    assert not check["passed"] and check["residual"].startswith("f is not finite at t=")


def test_flow_with_a_non_finite_f_writes_nothing_to_stderr(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": 4, "steps": 1, "dt": 1e308}))
    in_process, child = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(["flow", "run", "--config", str(cfg), "--out", str(in_process)]) == 1
    src = Path(gengeo.__file__).resolve().parent.parent      # the child imports this gengeo
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "gengeo.cli", "flow", "run", "--config", str(cfg),
                           "--out", str(child)],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert (proc.returncode, proc.stderr) == (1, "")
    assert child.read_bytes() == in_process.read_bytes()


def test_run_flow_called_directly_still_warns_on_overflow():
    from gengeo.flow import FlowConfig, run_flow

    # only the CLI silences numpy; the library's warnings still reach the filters
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RuntimeWarning, match="overflow|invalid value"):
            run_flow(FlowConfig(n=4, steps=1, dt=1e308))


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


def _json_objects(inner):
    """JSON objects: arbitrary keys, or any of the fields of a nested input format."""
    formats = [("terms",), ("indices", "coeff"), ("exponents", "coeff"),
               ("component", "indices", "k", "cos", "sin")]
    return st.one_of(st.dictionaries(st.text(max_size=2), inner, max_size=3), *(
        st.fixed_dictionaries({}, optional=dict.fromkeys(keys, inner)) for keys in formats))


# bounded arbitrary JSON, NaN and Infinity included (json.load reads both)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 6) | st.floats()
    | st.sampled_from(["", "a", "b", "1/2", "1/0", "a,b", "x1"]),
    lambda inner: st.lists(inner, max_size=5) | _json_objects(inner), max_leaves=20)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_JSON_VALUES)
def test_input_parsers_raise_only_value_errors(obj):
    # each parser reads the value itself and the value in the places of its fields
    from gengeo.flow import FlowConfig

    ab = {"charts": ["a", "b"]}
    for parse, value in (
            (gio.parse_metric, obj), (gio.parse_metric, {"C": obj}),
            (gio.parse_metric, {"C": [[obj]]}),
            (gio.parse_cover, obj), (gio.parse_cover, {"charts": obj}),
            (gio.parse_cover, {**ab, "dim": obj, "A": obj, "B": obj}),
            (gio.parse_cover, {**ab, "A": {"a,b": obj}, "B": {"a": obj, "b": obj}}),
            (gio.parse_rho_pair, obj), (gio.parse_rho_pair, {"rho1": obj, "rho2": obj}),
            (lambda o: gio.parse_points(o, 5), obj),
            (lambda o: gio.parse_points(o, 5), {"points": [obj]}),
            (FlowConfig.from_json_obj, obj),
            (FlowConfig.from_json_obj, {"N": obj, "dt": obj, "diagnostics": obj}),
            (FlowConfig.from_json_obj, {"perturbation": obj}),
            (FlowConfig.from_json_obj, {"perturbation": [obj]})):
        try:
            parse(value)
        except ValueError:      # an input error; any other exception is a traceback
            pass


def _analyze_checks(tmp_path):
    out = tmp_path / "r.json"
    assert run_cli(["spin55", "analyze", "--normal-form", "--out", str(out)]) == 1
    report = read(out)
    return [(c["id"], c["passed"]) for c in report["checks"]], report


def test_spin55_analyze_gram_failure_is_the_gram_constant_check(tmp_path, monkeypatch):
    # a wrong (h, h) constant makes the exact Gram comparison fail
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
