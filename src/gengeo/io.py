"""JSON input formats for the symbolic objects.

Indices and exponents are 1-based in files (matching the x1..xn naming)
and 0-based internally.  Parse errors carry file/line/column context.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from fractions import Fraction
from typing import Any, Iterator, Mapping

from .algebra import Chart, Polynomial
from .forms import MixedForm
from .generalized import GenSection
from .metric import GeneralizedMetric
from .spin55 import RhoPair
from .twisted import CoverData


class InputError(ValueError):
    """Malformed input file or object."""


@contextmanager
def _path_errors(path: str, missing: str) -> Iterator[None]:
    try:
        yield
    except (FileNotFoundError, NotADirectoryError):
        raise InputError(f"{path}: {missing}") from None
    except IsADirectoryError:
        raise InputError(f"{path}: is a directory") from None


def reading(path: str):
    """Report a missing file or a directory at ``path`` as an InputError."""
    return _path_errors(path, "no such file")


def writing(path: str):
    """Report a missing directory for ``path``, or a directory at it, as an InputError."""
    return _path_errors(path, "no such directory")


def load_json(path: str) -> Any:
    with reading(path):
        try:
            with open(path) as fh:
                return json.load(fh)
        except json.JSONDecodeError as e:
            raise InputError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from None


def _fraction(value, where: str) -> Fraction:
    try:
        return Fraction(value)
    except (ValueError, TypeError, ZeroDivisionError, OverflowError):
        raise InputError(f"{where}: not a rational number: {value!r}") from None


def _int_list(value, where: str) -> list[int]:
    if not isinstance(value, list) or not all(type(x) is int for x in value):
        raise InputError(f"{where}: expected a list of integers")
    return value


def parse_polynomial(chart: Chart, obj, where: str = "polynomial") -> Polynomial:
    if isinstance(obj, (int, str)):
        return Polynomial.constant(chart, _fraction(obj, where))
    if not isinstance(obj, list):
        raise InputError(f"{where}: expected a list of monomial entries")
    terms: dict[tuple[int, ...], Fraction] = {}
    for k, entry in enumerate(obj):
        if not isinstance(entry, Mapping) or "exponents" not in entry or "coeff" not in entry:
            raise InputError(f"{where}[{k}]: needs 'exponents' and 'coeff'")
        exps = tuple(_int_list(entry["exponents"], f"{where}[{k}].exponents"))
        coeff = _fraction(entry["coeff"], f"{where}[{k}].coeff")
        if len(exps) != chart.dim:
            raise InputError(f"{where}[{k}]: {len(exps)} exponents for dim {chart.dim}")
        if min(exps) < 0:
            raise InputError(f"{where}[{k}].exponents: negative exponent in {list(exps)}")
        terms[exps] = terms.get(exps, Fraction(0)) + coeff
    return Polynomial(chart, terms)


def parse_mixed_form(chart: Chart, obj, where: str = "form") -> MixedForm:
    if not isinstance(obj, Mapping) or not isinstance(obj.get("terms"), list):
        raise InputError(f"{where}: expected {{'terms': [...]}}")
    terms: dict[tuple[int, ...], Polynomial] = {}
    for k, entry in enumerate(obj["terms"]):
        if not isinstance(entry, Mapping) or "indices" not in entry:
            raise InputError(f"{where}.terms[{k}]: needs 'indices'")
        indices = tuple(i - 1 for i in _int_list(entry["indices"], f"{where}.terms[{k}].indices"))
        coeff = parse_polynomial(chart, entry.get("coeff", 1), f"{where}.terms[{k}].coeff")
        if indices in terms:
            terms[indices] = terms[indices] + coeff
        else:
            terms[indices] = coeff
    try:
        return MixedForm(chart, terms)
    except ValueError as e:
        raise InputError(f"{where}: {e}") from None


def mixed_form_to_json(m: MixedForm) -> dict:
    out = []
    for idx in sorted(m.terms, key=lambda i: (len(i), i)):
        out.append({"indices": [i + 1 for i in idx], "coeff": m.terms[idx].to_json_obj()})
    return {"terms": out}


def gen_section_to_json(u: GenSection) -> dict:
    n = u.chart.dim
    return {
        "vector": [u.vector.components[i].to_json_obj() for i in range(n)],
        "oneform": [u.oneform_component(i).to_json_obj() for i in range(n)],
    }


def parse_metric(obj, where: str = "metric") -> GeneralizedMetric:
    if not isinstance(obj, Mapping) or "C" not in obj:
        raise InputError(f"{where}: expected {{'C': [[...], ...]}}")
    rows = obj["C"]
    if not isinstance(rows, list):
        raise InputError(f"{where}.C: expected a list of rows")
    n = len(rows)
    try:
        chart = Chart(n)
    except ValueError as e:
        raise InputError(f"{where}.C: {e}") from None
    matrix = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise InputError(f"{where}.C[{i}]: expected a list of {n} entries")
        matrix.append([parse_polynomial(chart, c, f"{where}.C[{i}][{j}]")
                       for j, c in enumerate(row)])
    return GeneralizedMetric(chart, matrix)


def parse_cover(obj, where: str = "cover") -> CoverData:
    if not isinstance(obj, Mapping) or "charts" not in obj:
        raise InputError(f"{where}: expected {{'dim':n, 'charts':[...], 'A':{{...}}}}")
    try:
        chart = Chart(obj.get("dim", 3))
    except ValueError as e:
        raise InputError(f"{where}.dim: {e}") from None
    labels = obj["charts"]
    if not isinstance(labels, list) or not all(isinstance(a, str) for a in labels):
        raise InputError(f"{where}.charts: expected a list of chart labels")
    for key in ("A", "B"):
        if not isinstance(obj.get(key, {}), (Mapping, type(None))):
            raise InputError(f"{where}.{key}: expected an object")
    overlaps = {}
    for key, form_obj in (obj.get("A") or {}).items():
        parts = [p.strip() for p in str(key).strip("()").split(",")]
        if len(parts) != 2:
            raise InputError(f"{where}.A: overlap key {key!r} is not 'a,b'")
        overlaps[(parts[0], parts[1])] = parse_mixed_form(chart, form_obj, f"{where}.A[{key}]")
    curving = None
    if obj.get("B") is not None:
        curving = {str(a): parse_mixed_form(chart, f, f"{where}.B[{a}]")
                   for a, f in obj["B"].items()}
    try:
        return CoverData(chart, labels, overlaps, curving)
    except ValueError as e:
        raise InputError(f"{where}: {e}") from None


def parse_rho_pair(obj, where: str = "rho") -> RhoPair:
    if not isinstance(obj, Mapping) or "rho1" not in obj or "rho2" not in obj:
        raise InputError(f"{where}: expected {{'rho1': form, 'rho2': form}}")
    if obj.get("dim", 5) != 5:
        raise InputError(f"{where}: rho pairs live on a 5-chart, got dim {obj['dim']!r}")
    chart = Chart(5)
    rho1, rho2 = (parse_mixed_form(chart, obj[k], f"{where}.{k}") for k in ("rho1", "rho2"))
    try:
        return RhoPair(rho1, rho2)
    except ValueError as e:
        raise InputError(f"{where}: {e}") from None


def rho_pair_to_json(rho: RhoPair) -> dict:
    return {"dim": 5, "rho1": mixed_form_to_json(rho.rho1), "rho2": mixed_form_to_json(rho.rho2)}


def parse_points(obj, dim: int, where: str = "points") -> list[list[Fraction]]:
    if isinstance(obj, Mapping):
        obj = obj.get("points")
    if not isinstance(obj, list):
        raise InputError(f"{where}: expected {{'points': [[...], ...]}}")
    if not obj:
        raise InputError(f"{where}: expected at least one point")
    out = []
    for k, pt in enumerate(obj):
        if not isinstance(pt, list) or len(pt) != dim:
            raise InputError(f"{where}[{k}]: expected a list of {dim} coordinates")
        out.append([_fraction(x, f"{where}[{k}][{i}]") for i, x in enumerate(pt)])
    return out
