"""Finite chart-cover gluing data, curving, and the twisted differential.

Charts are open boxes in a single ambient coordinate system, so overlap
data are ordinary polynomial forms and cross-chart equality is exact
polynomial equality.  The content is the B-field gluing: sections glue by
u -> u + i_X dA, spinors by e^{dA}, and a curving B_a turns per-chart
closed forms into a global (d - H)-closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Mapping, Sequence

from .algebra import Chart
from .forms import MixedForm, exterior_derivative, wedge
from .generalized import GenSection, bfield_on_form, bfield_on_section

Overlap = tuple[str, str]


class CoverError(ValueError):
    """Malformed cover data (unknown overlap, inconsistent input, ...)."""


class CoverData:
    """Chart labels, overlap 1-forms A_ab, and optional curving 2-forms B_a.

    Each overlap is stored once, in the orientation first given; A_ba is
    read as -A_ab, and a second orientation given is validated, not stored.
    """

    def __init__(self, chart: Chart, labels: Sequence[str],
                 overlaps: Mapping[Overlap, MixedForm],
                 curving: Mapping[str, MixedForm] | None = None):
        self.chart = chart
        self.labels = list(labels)
        if len(set(self.labels)) != len(self.labels):
            raise CoverError("duplicate chart labels")
        self.overlaps: dict[Overlap, MixedForm] = {}
        for (a, b), form in overlaps.items():
            if a not in self.labels or b not in self.labels or a == b:
                raise CoverError(f"overlap ({a},{b}) does not name two distinct charts")
            chart.require_same(form.chart)
            if not (form.is_zero or form.is_homogeneous(1)):
                raise CoverError(f"A_({a},{b}) must be a 1-form")
            rev = self.overlaps.get((b, a))
            if rev is None:
                self.overlaps[(a, b)] = form
            elif rev != -form:
                raise CoverError(f"A_({a},{b}) != -A_({b},{a})")
        self.curving: dict[str, MixedForm] | None = None
        if curving is not None:
            self.curving = {}
            for a, form in curving.items():
                if a not in self.labels:
                    raise CoverError(f"curving given for unknown chart {a!r}")
                chart.require_same(form.chart)
                if not (form.is_zero or form.is_homogeneous(2)):
                    raise CoverError(f"B_{a} must be a 2-form")
                self.curving[a] = form
            missing = set(self.labels) - set(self.curving)
            if missing:
                raise CoverError(f"curving missing for charts {sorted(missing)}")

    def meet(self, a: str, b: str) -> bool:
        return (a, b) in self.overlaps or (b, a) in self.overlaps

    def overlap_form(self, a: str, b: str) -> MixedForm:
        if (a, b) in self.overlaps:
            return self.overlaps[(a, b)]
        if (b, a) in self.overlaps:
            return -self.overlaps[(b, a)]
        raise CoverError(f"unknown overlap ({a},{b})")

    def triples(self) -> list[tuple[str, str, str]]:
        return [(a, b, c) for a, b, c in combinations(self.labels, 3)
                if self.meet(a, b) and self.meet(b, c) and self.meet(c, a)]

    def walk(self) -> list[Overlap]:
        """Breadth first from the first chart: the overlap (a, b) first reaching each chart b."""
        reached, steps = [self.labels[0]], []
        for a in reached:
            for b in self.labels:
                if b not in reached and self.meet(a, b):
                    reached.append(b)
                    steps.append((a, b))
        if len(reached) < len(self.labels):
            missing = [a for a in self.labels if a not in reached]
            raise CoverError(f"charts {missing} are not joined to chart {reached[0]!r} by overlaps")
        return steps


@dataclass
class CocycleReport:
    triple_residuals: dict[tuple[str, str, str], MixedForm] = field(default_factory=dict)
    curving_residuals: dict[Overlap, MixedForm] = field(default_factory=dict)
    curvature: MixedForm | None = None

    @property
    def valid(self) -> bool:
        return (all(r.is_zero for r in self.triple_residuals.values())
                and all(r.is_zero for r in self.curving_residuals.values()))


def check_cocycle(cover: CoverData) -> CocycleReport:
    """Residuals of dA_ab + dA_bc + dA_ca on triples, plus curving data.

    A zero report certifies valid connective-structure data; with a
    curving, B_b - B_a = dA_ab is checked on every overlap and the global
    curvature H = dB_a is returned.
    """
    report = CocycleReport()
    for a, b, c in cover.triples():
        res = (exterior_derivative(cover.overlap_form(a, b))
               + exterior_derivative(cover.overlap_form(b, c))
               + exterior_derivative(cover.overlap_form(c, a)))
        report.triple_residuals[(a, b, c)] = res
    if cover.curving is not None:
        for (a, b), form in cover.overlaps.items():
            report.curving_residuals[(a, b)] = (cover.curving[b] - cover.curving[a]
                                                - exterior_derivative(form))
        h_forms = [exterior_derivative(cover.curving[a]) for a in cover.labels]
        if all(h == h_forms[0] for h in h_forms):
            report.curvature = h_forms[0]
    return report


def glue_section(cover: CoverData, u: GenSection, overlap: Overlap) -> GenSection:
    """Transport a section from U_a to U_b by the B-field action of dA_ab."""
    a, b = overlap
    return bfield_on_section(exterior_derivative(cover.overlap_form(a, b)), u)


def twisted_differential(psi: MixedForm, h: MixedForm) -> MixedForm:
    """(d - H) psi = d psi - H ^ psi for a closed 3-form H."""
    if not (h.is_zero or h.is_homogeneous(3)):
        raise ValueError("H must be a pure 3-form")
    if not exterior_derivative(h).is_zero:
        raise ValueError("H must be closed")
    return exterior_derivative(psi) - wedge(h, psi)


def globalize_with_curving(phis: Mapping[str, MixedForm], cover: CoverData) -> dict[str, MixedForm]:
    """psi_a = e^{B_a} phi_a; the psi_a agree across charts.

    Requires the input family to satisfy phi_a = e^{dA_ab} phi_b on every
    overlap; the outputs are asserted equal (shared ambient chart) and the
    twisted differential of the result is (d - H)-closed when the inputs
    are closed.
    """
    if cover.curving is None:
        raise CoverError("globalize_with_curving needs curving data")
    for a in cover.labels:
        if a not in phis:
            raise CoverError(f"missing section on chart {a!r}")
    for (a, b), form in cover.overlaps.items():
        if phis[a] != bfield_on_form(exterior_derivative(form), phis[b]):
            raise CoverError(f"inconsistent sections: phi_{a} != e^(dA_{a}{b}) phi_{b}")
    psis = {a: bfield_on_form(cover.curving[a], phis[a]) for a in cover.labels}
    reference = psis[cover.labels[0]]
    for a, psi in psis.items():
        if psi != reference:
            raise CoverError(f"globalization failed: psi_{a} differs")
    return psis
