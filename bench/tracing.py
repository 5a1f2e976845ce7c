"""In-memory spans around public gengeo functions, installed from outside.

The benchmark wraps each function named in ``LAYERS`` (and every alias of
it: class-dict aliases such as ``Polynomial.__radd__`` and module globals
such as ``sixdim.rho_hat_grid``, which is ``flow.rho_hat_grid``) with a
wrapper that records a span ``[name, start, end, parent, op, in_bytes,
out_bytes, meta]``.  ``uninstall`` puts every original object back, so an
untraced run executes the program's own functions and nothing else.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import sys
import time
from typing import Callable, Iterable, Sequence

import numpy as np

# Public functions wrapped per gengeo module ("Class.attr" for methods).
LAYERS: dict[str, tuple[str, ...]] = {
    "tables": ("QTables.q_apply", "QTables.p_apply", "FormTables.clifford_apply",
               "FormTables.d_apply", "section_inner"),
    "flow": ("flow_step", "spectral_gradient", "grid_d", "rho_hat_grid", "signed_triple",
             "stability_field", "hamiltonian", "closedness_norms", "courant_bracket_grid",
             "nahm_residual", "Trajectory.save", "Trajectory.load"),
    "sixdim": ("build_sigma", "annihilator_check", "annihilator_nullity", "gram_signature",
               "ez_check", "courant_bracket_6d", "dsigma_residual"),
    "algebra": ("Polynomial.__mul__", "Polynomial.__add__", "Polynomial.exact_divide",
                "Polynomial.sqrt"),
    "forms": ("wedge", "exterior_derivative", "interior_product", "mukai_pairing"),
    "generalized": ("clifford_act", "courant_bracket", "courant_spinor_residual", "gv_inner"),
    "metric": ("torsion_check", "coordinate_deltas", "connection_at"),
    "twisted": ("twisted_differential", "glue_section"),
    "spin55": ("quartic_invariant", "q_vector", "is_stable", "v_triple", "rho_hat",
               "commuting_triple_check"),
    "io": ("parse_rho_pair",),
    "cli": ("identities_suite", "skew_torsion_suite", "twisted_suite", "spin55_analyze"),
}

# Layers whose spans also record array sizes (for bytes moved and shapes).
GRID_LAYERS = frozenset({"tables", "flow", "sixdim"})

NAME, START, END, PARENT, OP, IN_BYTES, OUT_BYTES, META = range(8)


def span_names() -> list[str]:
    return [f"{layer}.{qualname}" for layer, names in LAYERS.items() for qualname in names]


def _nbytes(obj) -> int:
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(x.nbytes for x in obj if isinstance(x, np.ndarray))
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return sum(x.nbytes for x in vars(obj).values() if isinstance(x, np.ndarray))
    return 0


def _summary(value):
    if isinstance(value, np.ndarray):
        return value.shape
    if isinstance(value, (int, float, str)):
        return value
    return None


class Tracer:
    """Collects spans; ``op`` tags every span with the benchmark op it serves."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1

    def _open(self, name: str) -> list:
        rec = [name, self.clock(), 0.0, self.stack[-1] if self.stack else -1, self.op, 0, 0, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = self.clock()
        self.stack.pop()

    def wrap(self, name: str, func: Callable, sizes: bool = False) -> Callable:
        @functools.wraps(func)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(rec)
            if sizes:
                rec[IN_BYTES] = sum(map(_nbytes, args)) + sum(map(_nbytes, kwargs.values()))
                rec[OUT_BYTES] = _nbytes(result)
                rec[META] = (tuple(map(_summary, args)),
                             {k: _summary(v) for k, v in kwargs.items()}, _summary(result))
            return result

        return traced


# -- patching ------------------------------------------------------------------


Patch = tuple[object, str, object]  # (owner, attribute, original value)


def install(tracer: Tracer, targets: Iterable[tuple[object, str, str]],
            modules: Sequence[object], sizes: Iterable[str] = ()) -> list[Patch]:
    """Wrap each (module, layer, qualname) target and all of its aliases.

    Aliases are searched in the owning class dict and in the globals of
    every module in ``modules``.  Returns the records ``uninstall`` needs.
    """
    sized = set(sizes)
    patches: list[Patch] = []

    def put(owner, key, value) -> None:
        patches.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    for module, layer, qualname in targets:
        owner_name, _, attr = qualname.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        raw = vars(owner)[attr]
        descriptor = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
        func = raw.__func__ if descriptor else raw
        wrapper = tracer.wrap(f"{layer}.{qualname}", func, sizes=layer in sized)
        if owner_name:
            for key, value in list(vars(owner).items()):
                if value is raw:
                    put(owner, key, descriptor(wrapper) if descriptor else wrapper)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is func:
                    put(mod, key, wrapper)
    return patches


def uninstall(patches: list[Patch]) -> None:
    for owner, key, value in reversed(patches):
        setattr(owner, key, value)
    patches.clear()


def gengeo_modules() -> tuple[dict[str, object], list[object]]:
    """The module behind each layer, and every loaded gengeo module (alias search space)."""
    named = {layer: importlib.import_module(f"gengeo.{layer}") for layer in LAYERS}
    package = [m for name, m in sys.modules.items()
               if name == "gengeo" or name.startswith("gengeo.")]
    return named, package


def layer_targets(named: dict[str, object]) -> list[tuple[object, str, str]]:
    return [(named[layer], layer, qualname)
            for layer, names in LAYERS.items() for qualname in names]


# -- span arithmetic -----------------------------------------------------------------


def children_of(spans: Sequence[list]) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in spans]
    for i, rec in enumerate(spans):
        if rec[PARENT] >= 0:
            kids[rec[PARENT]].append(i)
    return kids


def self_times(spans: Sequence[list]) -> list[float]:
    """Duration of each span minus the part of it covered by its children."""
    kids = children_of(spans)
    out = []
    for rec, children in zip(spans, kids):
        start, end = rec[START], rec[END]
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((spans[c][START], spans[c][END]) for c in children):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def per_name(spans: Sequence[list], names: Iterable[str]) -> dict[str, tuple[int, float]]:
    """(calls, self seconds) for each name, zero for names never seen."""
    totals = {name: [0, 0.0] for name in names}
    for rec, own in zip(spans, self_times(spans)):
        entry = totals.get(rec[NAME])
        if entry is not None:
            entry[0] += 1
            entry[1] += own
    return {name: (calls, secs) for name, (calls, secs) in totals.items()}


def has_ancestor(spans: Sequence[list], index: int, name: str) -> bool:
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False
