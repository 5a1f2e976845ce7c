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
import os
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .algebra import MAX_DIM, Chart, Polynomial, random_polynomial
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

    def add(self, id: str, anchor: str, residual: str | float, passed: bool) -> None:
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
        with gio.writing(out), open(out, "w") as fh:
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


def _exact_check(report: Report, id: str, anchor: str, residuals) -> None:
    """The exact rule: pass when every residual is zero, else report the largest
    coefficient of the nonzero ones."""
    bad = [r for r in residuals if not r.is_zero]
    report.add(id, anchor, _max_abs_coeff(bad) if bad else "0", not bad)


# -- verify identities -----------------------------------------------------------


def identities_suite(dim: int, cases: int, seed: int, max_degree: int = 2) -> Report:
    rng = random.Random(seed)
    chart = Chart(dim)
    report = Report("verify-identities",
                    {"dim": dim, "cases": cases, "seed": seed, "max_degree": max_degree})

    # each case draws its objects and returns its residuals
    def courant_case():
        u, v = random_section(chart, rng, max_degree), random_section(chart, rng, max_degree)
        forms = [random_mixed_form(chart, rng, max_degree=max_degree) for _ in range(2)]
        forms += [MixedForm.basis(chart, idx)
                  for k in range(dim + 1) for idx in combinations(range(dim), k)]
        return courant_spinor_residual(u, v, forms)

    def identity3_case():
        u, v = random_section(chart, rng, max_degree), random_section(chart, rng, max_degree)
        f = random_polynomial(chart, rng, max_degree=max_degree)
        lhs = courant_bracket(u, v.scale(f))
        rhs = (courant_bracket(u, v).scale(f) + v.scale(pi_derivative(u, f))
               - GenSection.from_oneform(d_scalar(f)).scale(gv_inner(u, v)))
        return [lhs - rhs]

    def identity4_case():
        u = random_section(chart, rng, max_degree)
        v = random_section(chart, rng, max_degree)
        w = random_section(chart, rng, max_degree)
        lhs = pi_derivative(u, gv_inner(v, w))
        t1 = courant_bracket(u, v) + GenSection.from_oneform(d_scalar(gv_inner(u, v)))
        t2 = courant_bracket(u, w) + GenSection.from_oneform(d_scalar(gv_inner(u, w)))
        return [lhs - gv_inner(t1, w) - gv_inner(v, t2)]

    def closed_b_case():
        u, v = random_section(chart, rng, max_degree), random_section(chart, rng, max_degree)
        b = exterior_derivative(random_mixed_form(chart, rng, degrees=(1,), max_degree=max_degree))
        return [courant_bracket(bfield_on_section(b, u), bfield_on_section(b, v))
                - bfield_on_section(b, courant_bracket(u, v))]

    def defect_case():
        u, v = random_section(chart, rng, max_degree), random_section(chart, rng, max_degree)
        b = random_mixed_form(chart, rng, degrees=(2,), max_degree=max_degree)
        db = exterior_derivative(b)
        diff = (courant_bracket(bfield_on_section(b, u), bfield_on_section(b, v))
                - bfield_on_section(b, courant_bracket(u, v)))
        expected = -interior_product(u.vector, interior_product(v.vector, db))
        return [diff - GenSection.from_oneform(expected)]

    def clifford_case():
        u = random_section(chart, rng, max_degree)
        a = random_mixed_form(chart, rng, max_degree=max_degree)
        return [clifford_act(u, clifford_act(u, a)) - a.scale(gv_inner(u, u))]

    def mukai_case():
        a = random_mixed_form(chart, rng, max_degree=max_degree)
        bform = random_mixed_form(chart, rng, max_degree=max_degree)
        b2 = random_mixed_form(chart, rng, degrees=(2,), max_degree=max_degree)
        return [mukai_pairing(bfield_on_form(b2, a), bfield_on_form(b2, bform))
                - mukai_pairing(a, bform)]

    def dsquared_case():
        a = random_mixed_form(chart, rng, max_degree=max_degree)
        return [exterior_derivative(exterior_derivative(a))]

    # all cases of one check run before the next check draws
    for check_id, anchor, case in (
            ("courant-definitional",
             "2[u,v].a = d((uv-vu).a) + 2u.d(v.a) - 2v.d(u.a) + (uv-vu).da", courant_case),
            ("identity-3", "[u,fv] = f[u,v] + (pi(u)f)v - (u,v)df", identity3_case),
            ("identity-4", "pi(u)(v,w) = ([u,v]+d(u,v),w) + (v,[u,w]+d(u,w))", identity4_case),
            ("closed-b-invariance", "dB = 0  =>  [u + i_X B, v + i_Y B] = [u,v] + i_[X,Y] B",
             closed_b_case),
            ("nonclosed-b-defect", "[u + i_X B, v + i_Y B] - (u,v)-image = -i_X i_Y dB",
             defect_case),
            ("clifford-square", "u.(u.a) = (u,u) a", clifford_case),
            ("mukai-bfield-invariance", "<e^B a, e^B b> = <a, b>", mukai_case),
            ("d-squared", "d(d(a)) = 0", dsquared_case)):
        _exact_check(report, check_id, anchor, [r for _ in range(cases) for r in case()])
    return report


# -- verify skew-torsion -----------------------------------------------------------


TORSION_CHECK = ("skew-torsion", "(Delta_X Y - Delta_Y X)/2 - g[X,Y] = -i_X i_Y dB")
COMPATIBILITY_CHECK = ("metric-compatibility", "X g(Y,Z) = g(nabla_X Y, Z) + g(Y, nabla_X Z)")


def _christoffel_residuals(v: GeneralizedMetric, points) -> list[Polynomial]:
    """The B = 0 oracle: the connection minus the classical Christoffel symbols at every
    point, as constants, one per nonzero difference; a point where g is singular is an
    input error."""
    deltas = coordinate_deltas(v)
    residuals = []
    for k, pt in enumerate(points):
        try:
            got, want = connection_at(v, pt, deltas), christoffel_classical_at(v, pt)
        except ZeroDivisionError:
            raise gio.InputError(
                f"points[{k}] = ({', '.join(map(str, pt))}): g is singular there") from None
        residuals += [Polynomial.constant(v.chart, a - b) for got_l, want_l in zip(got, want)
                      for got_i, want_i in zip(got_l, want_l)
                      for a, b in zip(got_i, want_i) if a != b]
    return residuals


def skew_torsion_suite(dim: int, metrics: int, points: int, seed: int) -> Report:
    rng = random.Random(seed)
    chart = Chart(dim)
    report = Report("verify-skew-torsion",
                    {"dim": dim, "metrics": metrics, "points": points, "seed": seed})

    sample_points = [[Fraction(rng.randint(-1, 1), rng.randint(2, 4)) for _ in range(dim)]
                     for _ in range(points)]

    residuals = []
    for _ in range(metrics):
        v = random_metric(chart, rng)
        residuals += _christoffel_residuals(GeneralizedMetric.from_g_and_b(
            chart, [[v.g_entry(i, j) for j in range(dim)] for i in range(dim)]), sample_points)
    _exact_check(report, "christoffel-oracle",
                 "B=0: Gamma^l_ij = g^{lk}(g_jk,i + g_ik,j - g_ij,k)/2 (independent oracle)",
                 residuals)

    reps = [torsion_check(random_metric(chart, rng)) for _ in range(metrics)]
    _exact_check(report, *TORSION_CHECK, [r for rep in reps for r in rep.torsion_residuals])
    _exact_check(report, *COMPATIBILITY_CHECK,
                 [r for rep in reps for r in rep.compatibility_residuals])

    # diagonal-metric expansion, symbol for symbol
    residuals = []
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
            residuals.append(deltas[i][j] - expected)
    _exact_check(report, "levi-civita-expansion",
                 "[d_i - g_ik dx_k, d_j + g_jk dx_k] = (g_jk,i + g_ik,j - g_ij,k) dx_k"
                 " = 2 g_lk Gamma^l_ij dx_k", residuals)

    reps = [torsion_check(random_metric(chart, rng), swapped=True)
            for _ in range(max(1, metrics // 2))]
    _exact_check(report, "swapped-roles", "interchanging V and its complement gives torsion +H",
                 [r for rep in reps for r in rep.torsion_residuals + rep.compatibility_residuals])
    return report


def skew_torsion_file(metric_path: str, points_path: str | None) -> Report:
    v = gio.parse_metric(gio.load_json(metric_path))
    pts = (gio.parse_points(gio.load_json(points_path), v.chart.dim)
           if points_path else None)
    report = Report("verify-skew-torsion", {"input": metric_path, "points": points_path})
    rep = torsion_check(v, points=pts)
    _exact_check(report, *TORSION_CHECK, rep.torsion_residuals)
    _exact_check(report, *COMPATIBILITY_CHECK, rep.compatibility_residuals)
    if pts and all(v.b_entry(i, j).is_zero
                   for i in range(v.chart.dim) for j in range(v.chart.dim)):
        _exact_check(report, "christoffel-oracle",
                     "B=0: Gamma matches the classical Christoffel symbols",
                     _christoffel_residuals(v, pts))
    if rep.definiteness_warnings:
        report.extra["warnings"] = rep.definiteness_warnings
    return report


# -- verify twisted ------------------------------------------------------------------


def twisted_suite(dim: int, cases: int, seed: int, cover_path: str | None = None) -> Report:
    rng = random.Random(seed)
    chart = Chart(dim)
    report = Report("verify-twisted",
                    {"dim": dim, "cases": cases, "seed": seed, "input": cover_path})
    if cover_path:
        cover = gio.parse_cover(gio.load_json(cover_path))
        if not cover.overlaps:
            raise gio.InputError("cover.A: no overlap, so the glue checks would test nothing")
    else:
        x1 = Polynomial.coordinate(chart, 0)
        a_ab = MixedForm.basis(chart, (1,), x1)
        b_a = MixedForm.basis(chart, (0, 1))
        cover = CoverData(chart, ["a", "b"], {("a", "b"): a_ab},
                          curving={"a": b_a, "b": b_a + exterior_derivative(a_ab)})
    try:
        walk = cover.walk() if cover.curving is not None else []
    except CoverError as e:
        raise gio.InputError(f"cover: {e}, so no single section globalizes") from None

    residuals = []
    for _ in range(cases):
        psi = random_mixed_form(chart, rng)
        h = exterior_derivative(random_mixed_form(chart, rng, degrees=(2,)))
        residuals.append(twisted_differential(twisted_differential(psi, h), h))
    _exact_check(report, "twisted-d-squared", "(d - H)^2 psi = 0 for closed H", residuals)

    coc = check_cocycle(cover)
    _exact_check(report, "cocycle", "dA_ab + dA_bc + dA_ca = 0; B_b - B_a = dA_ab",
                 [*coc.triple_residuals.values(), *coc.curving_residuals.values()])

    glue, inner, bracket = [], [], []
    for _ in range(cases):
        u = random_section(cover.chart, rng)
        v = random_section(cover.chart, rng)
        for overlap in cover.overlaps:
            gu = glue_section(cover, u, overlap)
            gv = glue_section(cover, v, overlap)
            back = glue_section(cover, gu, (overlap[1], overlap[0]))
            glue.append(back - u)
            inner.append(gv_inner(gu, gv) - gv_inner(u, v))
            bracket.append(courant_bracket(gu, gv)
                           - glue_section(cover, courant_bracket(u, v), overlap))
    _exact_check(report, "glue-round-trip", "glue(a->b) then glue(b->a) is the identity", glue)
    _exact_check(report, "glue-inner", "gluing preserves (u, v)", inner)
    _exact_check(report, "glue-bracket", "gluing commutes with the Courant bracket (dA closed)",
                 bracket)

    if cover.curving is not None:
        check = ("globalize-curving", "e^{B_a} phi_a = e^{B_b} phi_b and (d-H)psi = 0")
        ref_label = cover.labels[0]
        hh = exterior_derivative(cover.curving[ref_label])
        residuals = []
        try:    # the last check: stopping at a failed globalization moves no later draw
            for _ in range(max(1, cases // 10)):
                base = (MixedForm.function(cover.chart, 1)
                        + exterior_derivative(random_mixed_form(cover.chart, rng, degrees=(1,))))
                phis = {ref_label: base}
                for a, b in walk:       # phi_b = e^{-dA_ab} phi_a along the overlaps
                    phis[b] = bfield_on_form(-exterior_derivative(cover.overlap_form(a, b)),
                                             phis[a])
                residuals.append(twisted_differential(
                    globalize_with_curving(phis, cover)[ref_label], hh))
        except CoverError as e:
            report.add(*check, str(e), False)
        else:
            _exact_check(report, *check, residuals)
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
    report.add("stable", "f(rho) != 0 at every sample point",
               "0" if stability.all_stable else "f vanishes at a sample point",
               stability.all_stable)
    if stability.all_stable and stability.orbit_sign is None:
        report.add("orbit", "a single orbit sign across the sample points",
                   "sign of f varies across points", False)
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
            report.add(*check, str(e), False)
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
        report.add(*GRAM_CHECK, "0", True)
        report.add(*NORMALIZATION_CHECK, "0", True)
    report.extra.update(payload)
    return report


# -- flow run ----------------------------------------------------------------------


STABILITY_CHECK = ("stability", "f != 0 with a constant orbit sign at every node")
CLOSEDNESS_TOL, MEAN_MODE_TOL, SIXDIM_TOL = 1e-9, 1e-10, 1e-10    # bench/workloads.py copies them


def flow_run_report(config, trajectory_path: str | None, csv_path: str | None) -> Report:
    import numpy as np

    from .flow import run_flow

    report = Report("flow-run", {**config.__dict__, "diagnostics": list(config.diagnostics)})
    try:
        # an overflowing state is reported as a non-finite f, without numpy's warnings
        with np.errstate(over="ignore", invalid="ignore"):
            traj = run_flow(config)
    except StabilityError as e:
        report.add(*STABILITY_CHECK, str(e), False)
        return report
    report.add(*STABILITY_CHECK, "0", True)
    diag = traj.diagnostics
    if "closedness" in config.diagnostics:
        worst = max(max(d["d_rho1"], d["d_rho2"]) for d in diag)
        report.add("closedness", "d rho = 0 is preserved along the flow",
                   worst, worst < CLOSEDNESS_TOL)
    if "mean-modes" in config.diagnostics:
        drift = max(d["mean_mode_drift"] for d in diag)
        report.add("mean-modes", "spatial zero-Fourier mode of rho is constant in t",
                   drift, drift < MEAN_MODE_TOL)
    if "hamiltonian" in config.diagnostics:
        v0, vT = diag[0]["hamiltonian"], diag[-1]["hamiltonian"]
        report.extra["volume_series"] = [d["hamiltonian"] for d in diag]
        report.extra["volume_drift"] = vT - v0
    report.extra["times"] = [d["t"] for d in diag]
    report.extra["final_min_abs_f"] = diag[-1]["min_abs_f"]
    if trajectory_path:
        with gio.writing(trajectory_path):
            traj.save(trajectory_path)
        report.extra["trajectory"] = trajectory_path
    if csv_path:
        _write_csv(csv_path, diag)
        report.extra["csv"] = csv_path
    return report


def _write_csv(path: str, diagnostics: list[dict]) -> None:
    import csv

    keys = sorted({k for d in diagnostics for k in d})
    with gio.writing(path), open(path, "w", newline="") as fh:
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
    z_values = list(DEFAULT_Z_SWEEP) if z_text is None else parse_z_list(z_text)
    report = Report("sixdim-check",
                    {"trajectory": trajectory_path, "z": [str(z) for z in z_values]})
    signature_anchor = "span{dt-section, v1, h, v2} has signature (2,2)"
    # a violated invariant is a failed check (exit 1), not an input error
    try:
        rep = check_trajectory(traj, z_values, traj.config.method, traj.config.stability_floor)
    except StabilityError as e:
        report.add(*STABILITY_CHECK, str(e), False)
        return report
    except SignatureError as e:
        report.add("gram-signature", signature_anchor, str(e), False)
        return report
    for z in rep.z_values:
        report.add(f"annihilator-v[z={z}]", "v(z).sigma(z) = 0",
                   rep.annihilator_v[z], rep.annihilator_v[z] < SIXDIM_TOL)
        report.add(f"annihilator-w[z={z}]", "w(z).sigma(z) = 0",
                   rep.annihilator_w[z], rep.annihilator_w[z] < SIXDIM_TOL)
        report.add(f"nullity[z={z}]", "the annihilator of sigma(z) has dimension >= 2",
                   float(rep.nullity[z]), rep.nullity[z] >= 2)
        if z in rep.ez:
            ez = rep.ez[z]
            report.add(f"isotropy[z={z}]",
                       "(v,v) = (v,w) = (w,w) = 0 with (u,u) = 2 and (dt-section)^2 = -2",
                       ez.isotropy_residual, ez.isotropy_residual < SIXDIM_TOL)
    report.add("gram-signature", signature_anchor, str(rep.signature), rep.signature[:2] == (2, 2))
    report.extra["dsigma"] = rep.dsigma
    report.extra["bracket_residuals"] = {z: rep.ez[z].bracket_residual for z in rep.ez}
    return report


# -- argument parsing ------------------------------------------------------------------


def _at_least(least: int, most: int | None = None):
    """An argparse type: an integer >= least (1 for a count: 0 would test nothing),
    and <= most if given."""
    def parse(text: str) -> int:
        if not text.isdecimal() or int(text) < least or (most is not None and int(text) > most):
            limit = f">= {least}" if most is None else f"in {least}..{most}"
            raise argparse.ArgumentTypeError(f"expected an integer {limit}, got {text!r}")
        return int(text)
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gengeo",
        description="Exact and numeric checks for Courant brackets, stable forms and"
                    " the five-dimensional volume-functional flow.")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run an exact identity suite")
    vsub = verify.add_subparsers(dest="suite", required=True)

    vi = vsub.add_parser("identities", help="Courant/Clifford/B-field identities")
    vi.add_argument("--dim", type=_at_least(1, MAX_DIM), default=3)
    vi.add_argument("--cases", type=_at_least(1), default=100)
    vi.add_argument("--seed", type=int, default=0)
    vi.add_argument("--max-degree", type=_at_least(0), default=2)
    vi.add_argument("--out")

    vs = vsub.add_parser("skew-torsion", help="generalized-metric connection checks")
    vs.add_argument("--input", help="GeneralizedMetric JSON file")
    vs.add_argument("--points", help="points JSON file")
    vs.add_argument("--dim", type=_at_least(1, MAX_DIM), default=3)
    vs.add_argument("--metrics", type=_at_least(1), default=10)
    vs.add_argument("--sample-points", type=_at_least(1), default=20)
    vs.add_argument("--seed", type=int, default=0)
    vs.add_argument("--out")

    vt = vsub.add_parser("twisted", help="cocycle, gluing and twisted differential")
    vt.add_argument("--input", help="CoverData JSON file")
    vt.add_argument("--dim", type=_at_least(1, MAX_DIM), default=4)
    vt.add_argument("--cases", type=_at_least(1), default=50)
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
    fr.add_argument("--trajectory", help="write the state ring, an npz file, to exactly this path")
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
        # the inputs come first; an output that names a file named before it, or that is
        # in a missing directory or is a directory, exits 2 before any work
        outputs = ("trajectory", "out", "csv") if args.command == "flow" else ("out",)
        named: dict[str, str] = {}      # the real path of each file named so far -> its option
        for option in ("config", "input", "points", "rho", "trajectory", "out", "csv"):
            path = getattr(args, option, None)
            if not path:
                continue
            real = os.path.realpath(path)
            if option in outputs:
                if real in named:
                    raise gio.InputError(f"{path}: --{option} names the same file as {named[real]}")
                with gio.writing(path):
                    os.scandir(os.path.dirname(path) or ".").close()
                    if os.path.isdir(path):
                        raise IsADirectoryError(path)
            named.setdefault(real, "the rho file" if option == "rho" else f"--{option}")
        if args.command == "verify" and args.suite == "identities":
            return emit(identities_suite(args.dim, args.cases, args.seed, args.max_degree),
                        args.out)
        if args.command == "verify" and args.suite == "skew-torsion":
            if args.points and not args.input:
                parser.error("--points is read only with --input")
            if args.input:
                return emit(skew_torsion_file(args.input, args.points), args.out)
            return emit(skew_torsion_suite(args.dim, args.metrics, args.sample_points,
                                           args.seed), args.out)
        if args.command == "verify" and args.suite == "twisted":
            if args.dim < 2 and not args.input:
                parser.error(f"--dim: the built-in cover needs dim >= 2, got {args.dim}")
            return emit(twisted_suite(args.dim, args.cases, args.seed, args.input), args.out)
        if args.command == "spin55":
            if args.rho and args.normal_form:
                parser.error("spin55 analyze takes a rho file or --normal-form, not both")
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
        return emit(sixdim_report(args.trajectory, args.z), args.out)  # args.command == "sixdim"
    except gio.InputError as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:     # CoverError and StabilityError among them
        print(f"error: {e}", file=sys.stderr)
        return 2


# spec-facing name for the entry operation
run = main


if __name__ == "__main__":
    sys.exit(main())
