"""Command-line entry point: verification suites and machine-readable reports.

Subcommands: `verify identities`, `verify skew-torsion`, `verify twisted`,
`spin55 analyze`, `flow run`, `sixdim check`.  Every report is a JSON
document whose checks carry the identity being tested as an anchor string
and an exact "0" or float residual; reruns with the same inputs and seed
are byte-identical.  Exit codes: 0 all checks pass, 1 a check failed,
2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .algebra import Chart, Polynomial, random_polynomial
from .forms import (MixedForm, exterior_derivative, interior_product, mukai_pairing,
                    random_mixed_form)
from .generalized import (GenSection, bfield_on_form, bfield_on_section, clifford_act,
                          courant_bracket, courant_spinor_residual, d_scalar, gv_inner,
                          pi_derivative, random_section)
from . import io as gio
from .metric import (GeneralizedMetric, christoffel_classical_at, connection_at,
                     coordinate_deltas, random_metric, torsion_check)
from .spin55 import (GramError, NormalizationError, PairAnalysis, RhoPair, StabilityError,
                     commuting_triple_check, is_stable, normal_form, v_triple,
                     variational_residual)
from .twisted import (CoverData, CoverError, check_cocycle, glue_section,
                      globalize_with_curving, twisted_differential)


@dataclass
class Check:
    id: str
    anchor: str
    residual: str | float
    passed: bool


@dataclass
class Report:
    suite: str
    environment: dict
    checks: list[Check] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def add(self, id: str, anchor: str, exact_zero: bool | None = None,
            residual: str | float | None = None, passed: bool | None = None) -> None:
        if exact_zero is not None:
            residual = "0" if exact_zero else (residual if residual is not None else "nonzero")
            passed = exact_zero if passed is None else passed
        self.checks.append(Check(id, anchor, residual, bool(passed)))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_obj(self) -> dict:
        obj = {
            "suite": self.suite,
            "environment": self.environment,
            "checks": [c.__dict__ for c in self.checks],
            "pass": self.passed,
        }
        obj.update(self.extra)
        return obj


def emit(report: Report, out: str | None) -> int:
    text = json.dumps(report.to_json_obj(), indent=2, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0 if report.passed else 1


def _max_abs_coeff(values) -> float:
    worst = 0.0
    for v in values:
        if isinstance(v, Polynomial):
            worst = max(worst, max((abs(float(c)) for c in v.terms.values()), default=0.0))
        elif isinstance(v, MixedForm):
            for p in v.terms.values():
                worst = max(worst, max((abs(float(c)) for c in p.terms.values()), default=0.0))
        elif isinstance(v, GenSection):
            worst = max(worst, _max_abs_coeff([v.oneform]))
            worst = max(worst, _max_abs_coeff(list(v.vector.components)))
    return worst


# -- verify identities -----------------------------------------------------------


def identities_suite(dim: int, cases: int, seed: int, max_degree: int = 2) -> Report:
    rng = random.Random(seed)
    chart = Chart(dim)
    report = Report("verify-identities",
                    {"dim": dim, "cases": cases, "seed": seed, "max_degree": max_degree})

    def run(check_id: str, anchor: str, one_case) -> None:
        bad = []
        for _ in range(cases):
            res = one_case()
            if res:
                bad.extend(res)
        report.add(check_id, anchor, exact_zero=not bad, residual=_max_abs_coeff(bad))

    def courant_case():
        u, v = random_section(chart, rng, max_degree), random_section(chart, rng, max_degree)
        forms = [random_mixed_form(chart, rng, max_degree=max_degree) for _ in range(2)]
        forms += [MixedForm.basis(chart, idx)
                  for k in range(dim + 1) for idx in combinations(range(dim), k)]
        return [r for r in courant_spinor_residual(u, v, forms) if not r.is_zero]

    run("courant-definitional",
        "2[u,v].a = d((uv-vu).a) + 2u.d(v.a) - 2v.d(u.a) + (uv-vu).da",
        courant_case)

    def identity3_case():
        u, v = random_section(chart, rng, max_degree), random_section(chart, rng, max_degree)
        f = random_polynomial(chart, rng, max_degree=max_degree)
        lhs = courant_bracket(u, v.scale(f))
        rhs = (courant_bracket(u, v).scale(f) + v.scale(pi_derivative(u, f))
               - GenSection.from_oneform(d_scalar(f)).scale(gv_inner(u, v)))
        diff = lhs - rhs
        return [] if diff.is_zero else [diff]

    run("identity-3", "[u,fv] = f[u,v] + (pi(u)f)v - (u,v)df", identity3_case)

    def identity4_case():
        u = random_section(chart, rng, max_degree)
        v = random_section(chart, rng, max_degree)
        w = random_section(chart, rng, max_degree)
        lhs = pi_derivative(u, gv_inner(v, w))
        t1 = courant_bracket(u, v) + GenSection.from_oneform(d_scalar(gv_inner(u, v)))
        t2 = courant_bracket(u, w) + GenSection.from_oneform(d_scalar(gv_inner(u, w)))
        diff = lhs - gv_inner(t1, w) - gv_inner(v, t2)
        return [] if diff.is_zero else [diff]

    run("identity-4", "pi(u)(v,w) = ([u,v]+d(u,v),w) + (v,[u,w]+d(u,w))", identity4_case)

    def closed_b_case():
        u, v = random_section(chart, rng, max_degree), random_section(chart, rng, max_degree)
        b = exterior_derivative(random_mixed_form(chart, rng, degrees=(1,), max_degree=max_degree))
        diff = (courant_bracket(bfield_on_section(b, u), bfield_on_section(b, v))
                - bfield_on_section(b, courant_bracket(u, v)))
        return [] if diff.is_zero else [diff]

    run("closed-b-invariance", "dB = 0  =>  [u + i_X B, v + i_Y B] = [u,v] + i_[X,Y] B",
        closed_b_case)

    def defect_case():
        u, v = random_section(chart, rng, max_degree), random_section(chart, rng, max_degree)
        b = random_mixed_form(chart, rng, degrees=(2,), max_degree=max_degree)
        db = exterior_derivative(b)
        diff = (courant_bracket(bfield_on_section(b, u), bfield_on_section(b, v))
                - bfield_on_section(b, courant_bracket(u, v)))
        expected = -interior_product(u.vector, interior_product(v.vector, db))
        bad = []
        if not diff.vector.is_zero:
            bad.append(diff.vector.components[0])
        if diff.oneform != expected:
            bad.append(diff.oneform - expected)
        return bad

    run("nonclosed-b-defect", "[u + i_X B, v + i_Y B] - (u,v)-image = -i_X i_Y dB", defect_case)

    def clifford_case():
        u = random_section(chart, rng, max_degree)
        a = random_mixed_form(chart, rng, max_degree=max_degree)
        diff = clifford_act(u, clifford_act(u, a)) - a.scale(gv_inner(u, u))
        return [] if diff.is_zero else [diff]

    run("clifford-square", "u.(u.a) = (u,u) a", clifford_case)

    def mukai_case():
        a = random_mixed_form(chart, rng, max_degree=max_degree)
        bform = random_mixed_form(chart, rng, max_degree=max_degree)
        b2 = random_mixed_form(chart, rng, degrees=(2,), max_degree=max_degree)
        diff = (mukai_pairing(bfield_on_form(b2, a), bfield_on_form(b2, bform))
                - mukai_pairing(a, bform))
        return [] if diff.is_zero else [diff]

    run("mukai-bfield-invariance", "<e^B a, e^B b> = <a, b>", mukai_case)

    def dsquared_case():
        a = random_mixed_form(chart, rng, max_degree=max_degree)
        dd = exterior_derivative(exterior_derivative(a))
        return [] if dd.is_zero else [dd]

    run("d-squared", "d(d(a)) = 0", dsquared_case)

    return report


# -- verify skew-torsion -----------------------------------------------------------


def skew_torsion_suite(dim: int, metrics: int, points: int, seed: int) -> Report:
    rng = random.Random(seed)
    chart = Chart(dim)
    report = Report("verify-skew-torsion",
                    {"dim": dim, "metrics": metrics, "points": points, "seed": seed})

    sample_points = [[Fraction(rng.randint(-1, 1), rng.randint(2, 4)) for _ in range(dim)]
                     for _ in range(points)]

    oracle_ok = True
    for _ in range(metrics):
        v = random_metric(chart, rng)
        g_only = GeneralizedMetric.from_g_and_b(
            chart, [[v.g_entry(i, j) for j in range(dim)] for i in range(dim)])
        deltas = coordinate_deltas(g_only)
        for pt in sample_points:
            if connection_at(g_only, pt, deltas) != christoffel_classical_at(g_only, pt):
                oracle_ok = False
    report.add("christoffel-oracle",
               "B=0: Gamma^l_ij = g^{lk}(g_jk,i + g_ik,j - g_ij,k)/2 (independent oracle)",
               exact_zero=oracle_ok)

    torsion_ok = compat_ok = True
    for _ in range(metrics):
        v = random_metric(chart, rng)
        rep = torsion_check(v)
        torsion_ok &= rep.torsion_matches_minus_h
        compat_ok &= rep.metric_compatible
    report.add("skew-torsion", "(Delta_X Y - Delta_Y X)/2 - g[X,Y] = -i_X i_Y dB",
               exact_zero=torsion_ok)
    report.add("metric-compatibility", "X g(Y,Z) = g(nabla_X Y, Z) + g(Y, nabla_X Z)",
               exact_zero=compat_ok)

    # diagonal-metric expansion, symbol for symbol
    diag_ok = True
    diag = [[Polynomial.zero(chart) for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        diag[i][i] = Polynomial.constant(chart, 1) + random_polynomial(
            chart, rng, max_degree=1, max_terms=1) * Fraction(1, 4)
    v = GeneralizedMetric.from_g_and_b(chart, diag)
    deltas = coordinate_deltas(v)
    for i in range(dim):
        for j in range(dim):
            expected = MixedForm(chart, {(k,): (v.g_entry(j, k).differentiate(i)
                                                + v.g_entry(i, k).differentiate(j)
                                                - v.g_entry(i, j).differentiate(k))
                                         for k in range(dim)})
            if deltas[i][j] != expected:
                diag_ok = False
    report.add("levi-civita-expansion",
               "[d_i - g_ik dx_k, d_j + g_jk dx_k] = (g_jk,i + g_ik,j - g_ij,k) dx_k"
               " = 2 g_lk Gamma^l_ij dx_k", exact_zero=diag_ok)

    swapped_ok = all(torsion_check(random_metric(chart, rng), swapped=True).all_zero
                     for _ in range(max(1, metrics // 2)))
    report.add("swapped-roles", "interchanging V and its complement gives torsion +H",
               exact_zero=swapped_ok)
    return report


def skew_torsion_file(metric_path: str, points_path: str | None) -> Report:
    v = gio.parse_metric(gio.load_json(metric_path))
    pts = (gio.parse_points(gio.load_json(points_path), v.chart.dim)
           if points_path else None)
    report = Report("verify-skew-torsion", {"input": metric_path, "points": points_path})
    rep = torsion_check(v, points=pts)
    report.add("skew-torsion", "(Delta_X Y - Delta_Y X)/2 - g[X,Y] = -i_X i_Y dB",
               exact_zero=rep.torsion_matches_minus_h,
               residual=_max_abs_coeff(rep.torsion_residuals))
    report.add("metric-compatibility", "X g(Y,Z) = g(nabla_X Y, Z) + g(Y, nabla_X Z)",
               exact_zero=rep.metric_compatible,
               residual=_max_abs_coeff(rep.compatibility_residuals))
    if pts:
        oracle_ok = True
        b_zero = all(v.b_entry(i, j).is_zero
                     for i in range(v.chart.dim) for j in range(v.chart.dim))
        if b_zero:
            deltas = coordinate_deltas(v)
            for pt in pts:
                if connection_at(v, pt, deltas) != christoffel_classical_at(v, pt):
                    oracle_ok = False
            report.add("christoffel-oracle",
                       "B=0: Gamma matches the classical Christoffel symbols",
                       exact_zero=oracle_ok)
    if rep.definiteness_warnings:
        report.extra["warnings"] = rep.definiteness_warnings
    return report


# -- verify twisted ------------------------------------------------------------------


def twisted_suite(dim: int, cases: int, seed: int, cover_path: str | None = None) -> Report:
    rng = random.Random(seed)
    chart = Chart(dim)
    report = Report("verify-twisted",
                    {"dim": dim, "cases": cases, "seed": seed, "input": cover_path})

    bad = []
    for _ in range(cases):
        psi = random_mixed_form(chart, rng)
        h = exterior_derivative(random_mixed_form(chart, rng, degrees=(2,)))
        r = twisted_differential(twisted_differential(psi, h), h)
        if not r.is_zero:
            bad.append(r)
    report.add("twisted-d-squared", "(d - H)^2 psi = 0 for closed H", exact_zero=not bad,
               residual=_max_abs_coeff(bad))

    if cover_path:
        cover = gio.parse_cover(gio.load_json(cover_path))
    else:
        x1 = Polynomial.coordinate(chart, 0)
        a_ab = MixedForm.basis(chart, (1,), x1)
        b_a = MixedForm.basis(chart, (0, 1))
        cover = CoverData(chart, ["a", "b"], {("a", "b"): a_ab},
                          curving={"a": b_a, "b": b_a + exterior_derivative(a_ab)})
    coc = check_cocycle(cover)
    report.add("cocycle", "dA_ab + dA_bc + dA_ca = 0; B_b - B_a = dA_ab",
               exact_zero=coc.valid)

    glue_ok = inner_ok = bracket_ok = True
    overlap = next(iter(cover.overlaps), None)
    if overlap is not None:
        for _ in range(cases):
            u = random_section(cover.chart, rng)
            v = random_section(cover.chart, rng)
            gu = glue_section(cover, u, overlap)
            gv = glue_section(cover, v, overlap)
            back = glue_section(cover, gu, (overlap[1], overlap[0]))
            glue_ok &= back == u
            inner_ok &= gv_inner(gu, gv) == gv_inner(u, v)
            bracket_ok &= courant_bracket(gu, gv) == glue_section(
                cover, courant_bracket(u, v), overlap)
    report.add("glue-round-trip", "glue(a->b) then glue(b->a) is the identity",
               exact_zero=glue_ok)
    report.add("glue-inner", "gluing preserves (u, v)", exact_zero=inner_ok)
    report.add("glue-bracket", "gluing commutes with the Courant bracket (dA closed)",
               exact_zero=bracket_ok)

    if cover.curving is not None and overlap is not None:
        glob_ok = True
        for _ in range(max(1, cases // 10)):
            base = (MixedForm.function(cover.chart, 1)
                    + exterior_derivative(random_mixed_form(cover.chart, rng, degrees=(1,))))
            phis = {}
            ref_label = cover.labels[0]
            for a in cover.labels:
                if a == ref_label:
                    phis[a] = base
                else:
                    da = exterior_derivative(cover.overlap_form(ref_label, a))
                    phis[a] = bfield_on_form(-da, base)
            try:
                psis = globalize_with_curving(phis, cover)
                hh = exterior_derivative(cover.curving[ref_label])
                glob_ok &= twisted_differential(psis[ref_label], hh).is_zero
            except CoverError:
                glob_ok = False
        report.add("globalize-curving", "e^{B_a} phi_a = e^{B_b} phi_b and (d-H)psi = 0",
                   exact_zero=glob_ok)
    return report


# -- spin55 analyze -------------------------------------------------------------------


GRAM_CHECK = ("gram-constant", "(v_i, v_j)/phi^2 is constant on the chart")
NORMALIZATION_CHECK = ("normalization", "<rho_hat_1, rho2> = phi")


def spin55_analyze(rho: RhoPair, points=None) -> Report:
    pair = PairAnalysis(rho)    # every exact quantity of the pair, evaluated once
    stability = is_stable(pair, points)
    # the sample points test stability; the orbit sign comes from the sign points
    report = Report("spin55-analyze", {
        "points": [list(map(str, p)) for p in stability.points],
        "sign_points": [list(map(str, p)) for p in pair.sign_points]})
    payload: dict = {
        "stable": stability.all_stable,
        "orbit_sign": stability.orbit_sign,
        "f": pair.f.to_json_obj(),
    }
    report.add("stable", "f(rho) != 0 at every sample point", exact_zero=stability.all_stable,
               residual="f vanishes at a sample point")
    if stability.all_stable and stability.orbit_sign is None:
        report.add("orbit", "a single orbit sign across the sample points",
                   exact_zero=False, residual="sign of f varies across points")
    if stability.all_stable and stability.orbit_sign is not None:
        try:
            res = variational_residual(pair)
            triple = v_triple(pair)
            commuting = commuting_triple_check(pair)
        except StabilityError as e:
            # an exact invariant fails, or f != 0 at the sample points but not wherever
            # needed: a failed check (exit 1)
            check = {GramError: GRAM_CHECK, NormalizationError: NORMALIZATION_CHECK}.get(
                type(e), ("stability", "f != 0 wherever the analysis evaluates the pair"))
            report.add(*check, exact_zero=False, residual=str(e))
            report.extra.update(payload)
            return report
        payload["residuals"] = {
            "d_rho": [not r.is_zero for r in res.d_rho],
            "d_rho_hat": [not r.is_zero for r in res.d_rho_hat_cleared],
            "critical": res.is_critical,
        }
        payload["triple"] = {
            "v1_dens": gio.gen_section_to_json(triple.v1_dens),
            "h_dens": gio.gen_section_to_json(triple.h_dens),
            "v2_dens": gio.gen_section_to_json(triple.v2_dens),
            "q": triple.q.to_json_obj(),
        }
        payload["gram"] = [[str(x) for x in row] for row in triple.gram]
        payload["commuting"] = {
            "all_zero": commuting.all_zero,
            "brackets": {k: v.is_zero for k, v in commuting.bracket_residuals.items()},
            "invariance": {k: v.is_zero for k, v in commuting.lie_residuals.items()},
            "volume_preserving": {k: v.is_zero
                                  for k, v in commuting.volume_preserving_residuals.items()},
        }
        report.add(*GRAM_CHECK, exact_zero=True)
        report.add(*NORMALIZATION_CHECK, exact_zero=True)
    report.extra.update(payload)
    return report


# -- flow run ----------------------------------------------------------------------


def flow_run_report(config, trajectory_path: str | None, csv_path: str | None) -> Report:
    from .flow import mean_mode_invariants, run_flow

    report = Report("flow-run", {**config.__dict__, "diagnostics": list(config.diagnostics)})
    try:
        traj = run_flow(config)
    except StabilityError as e:
        report.add("stability", "f != 0 with a constant orbit sign at every node",
                   exact_zero=False, residual=str(e))
        return report
    report.add("stability", "f != 0 with a constant orbit sign at every node",
               exact_zero=True)
    diag = traj.diagnostics
    if "closedness" in config.diagnostics:
        worst = max(max(d["d_rho1"], d["d_rho2"]) for d in diag)
        report.add("closedness", "d rho = 0 is preserved along the flow",
                   residual=worst, passed=worst < 1e-9)
    if "mean-modes" in config.diagnostics:
        drift = mean_mode_invariants(traj).max_drift
        report.add("mean-modes", "spatial zero-Fourier mode of rho is constant in t",
                   residual=drift, passed=drift < 1e-10)
    if "hamiltonian" in config.diagnostics:
        v0, vT = diag[0]["hamiltonian"], diag[-1]["hamiltonian"]
        report.extra["volume_series"] = [d["hamiltonian"] for d in diag]
        report.extra["volume_drift"] = vT - v0
    report.extra["times"] = [d["t"] for d in diag]
    report.extra["final_min_abs_f"] = diag[-1]["min_abs_f"]
    if trajectory_path:
        traj.save(trajectory_path)
        report.extra["trajectory"] = trajectory_path
    if csv_path:
        _write_csv(csv_path, diag)
        report.extra["csv"] = csv_path
    return report


def _write_csv(path: str, diagnostics: list[dict]) -> None:
    import csv

    keys = sorted({k for d in diagnostics for k in d})
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=keys)
        writer.writeheader()
        for d in diagnostics:
            writer.writerow(d)


# -- sixdim check -------------------------------------------------------------------


def sixdim_report(trajectory_path: str, z_text: str | None) -> Report:
    from .flow import Trajectory
    from .sixdim import DEFAULT_Z_SWEEP, SignatureError, check_trajectory, parse_z_list

    with gio.reading(trajectory_path):
        try:
            traj = Trajectory.load(trajectory_path)
        except KeyError as e:      # a missing npz member; the message names it
            raise gio.InputError(f"{trajectory_path}: {e.args[0]}") from None
        except ValueError as e:    # malformed contents, e.g. a config that is not an object
            raise gio.InputError(f"{trajectory_path}: {e}") from None
    z_values = parse_z_list(z_text) if z_text else list(DEFAULT_Z_SWEEP)
    report = Report("sixdim-check",
                    {"trajectory": trajectory_path, "z": [str(z) for z in z_values]})
    signature_anchor = "span{dt-section, v1, h, v2} has signature (2,2)"
    # a violated invariant is a failed check (exit 1), not an input error
    try:
        rep = check_trajectory(traj, z_values, traj.config.method, traj.config.stability_floor)
    except StabilityError as e:
        report.add("stability", "f != 0 with a constant orbit sign at every node",
                   exact_zero=False, residual=str(e))
        return report
    except SignatureError as e:
        report.add("gram-signature", signature_anchor, residual=str(e), passed=False)
        return report
    tol = 1e-10
    for z in rep.z_values:
        report.add(f"annihilator-v[z={z}]", "v(z).sigma(z) = 0",
                   residual=rep.annihilator_v[z], passed=rep.annihilator_v[z] < tol)
        report.add(f"annihilator-w[z={z}]", "w(z).sigma(z) = 0",
                   residual=rep.annihilator_w[z], passed=rep.annihilator_w[z] < tol)
        report.add(f"nullity[z={z}]", "the annihilator of sigma(z) has dimension >= 2",
                   residual=float(rep.nullity[z]), passed=rep.nullity[z] >= 2)
        if z in rep.ez:
            ez = rep.ez[z]
            report.add(f"isotropy[z={z}]",
                       "(v,v) = (v,w) = (w,w) = 0 with (u,u) = 2 and (dt-section)^2 = -2",
                       residual=ez.isotropy_residual, passed=ez.isotropic)
    report.add("gram-signature", signature_anchor,
               residual=str(rep.signature), passed=rep.signature[:2] == (2, 2))
    report.extra["dsigma"] = rep.dsigma
    report.extra["bracket_residuals"] = {z: rep.ez[z].bracket_residual for z in rep.ez}
    return report


# -- argument parsing ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gengeo",
        description="Exact and numeric checks for Courant brackets, stable forms and"
                    " the five-dimensional volume-functional flow.")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run an exact identity suite")
    vsub = verify.add_subparsers(dest="suite", required=True)

    vi = vsub.add_parser("identities", help="Courant/Clifford/B-field identities")
    vi.add_argument("--dim", type=int, default=3)
    vi.add_argument("--cases", type=int, default=100)
    vi.add_argument("--seed", type=int, default=0)
    vi.add_argument("--max-degree", type=int, default=2)
    vi.add_argument("--out")

    vs = vsub.add_parser("skew-torsion", help="generalized-metric connection checks")
    vs.add_argument("--input", help="GeneralizedMetric JSON file")
    vs.add_argument("--points", help="points JSON file")
    vs.add_argument("--dim", type=int, default=3)
    vs.add_argument("--metrics", type=int, default=10)
    vs.add_argument("--sample-points", type=int, default=20)
    vs.add_argument("--seed", type=int, default=0)
    vs.add_argument("--out")

    vt = vsub.add_parser("twisted", help="cocycle, gluing and twisted differential")
    vt.add_argument("--input", help="CoverData JSON file")
    vt.add_argument("--dim", type=int, default=4)
    vt.add_argument("--cases", type=int, default=50)
    vt.add_argument("--seed", type=int, default=0)
    vt.add_argument("--out")

    spin = sub.add_parser("spin55", help="five-dimensional invariant analysis")
    ssub = spin.add_subparsers(dest="action", required=True)
    sa = ssub.add_parser("analyze", help="analyze a rho pair")
    sa.add_argument("rho", nargs="?", help="RhoPair JSON file")
    sa.add_argument("--normal-form", action="store_true", help="analyze the model pair")
    sa.add_argument("--points", help="points JSON file")
    sa.add_argument("--out")

    flow = sub.add_parser("flow", help="torus-grid evolution")
    fsub = flow.add_subparsers(dest="action", required=True)
    fr = fsub.add_parser("run", help="integrate d rho/dt = d rho_hat")
    fr.add_argument("--config", required=True, help="FlowConfig JSON file")
    fr.add_argument("--out")
    fr.add_argument("--trajectory", help="write the state ring to this .npz")
    fr.add_argument("--csv", help="write per-step diagnostics to this CSV")

    six = sub.add_parser("sixdim", help="six-dimensional structure checks")
    xsub = six.add_subparsers(dest="action", required=True)
    xc = xsub.add_parser("check", help="annihilator/isotropy checks on a trajectory")
    xc.add_argument("--trajectory", required=True, help="trajectory .npz from `flow run`")
    xc.add_argument("--z", help="comma-separated z values, e.g. '1,-1,1/2,0,inf'")
    xc.add_argument("--out")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify" and args.suite == "identities":
            return emit(identities_suite(args.dim, args.cases, args.seed, args.max_degree),
                        args.out)
        if args.command == "verify" and args.suite == "skew-torsion":
            if args.input:
                return emit(skew_torsion_file(args.input, args.points), args.out)
            return emit(skew_torsion_suite(args.dim, args.metrics, args.sample_points,
                                           args.seed), args.out)
        if args.command == "verify" and args.suite == "twisted":
            return emit(twisted_suite(args.dim, args.cases, args.seed, args.input), args.out)
        if args.command == "spin55":
            if args.normal_form:
                rho = normal_form()
            elif args.rho:
                rho = gio.parse_rho_pair(gio.load_json(args.rho))
            else:
                parser.error("spin55 analyze needs a rho file or --normal-form")
            pts = (gio.parse_points(gio.load_json(args.points), 5) if args.points else None)
            return emit(spin55_analyze(rho, pts), args.out)
        if args.command == "flow":
            from .flow import FlowConfig

            obj = gio.load_json(args.config)
            try:
                config = FlowConfig.from_json_obj(obj)
            except ValueError as e:
                raise gio.InputError(f"{args.config}: {e}") from None
            return emit(flow_run_report(config, args.trajectory, args.csv), args.out)
        if args.command == "sixdim":
            return emit(sixdim_report(args.trajectory, args.z), args.out)
    except gio.InputError as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except (CoverError, StabilityError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    parser.error("unknown command")
    return 2


# spec-facing name for the entry operation
run = main


if __name__ == "__main__":
    sys.exit(main())
