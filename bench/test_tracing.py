"""Tests for the benchmark's tracing helpers.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import tracing  # noqa: E402
from tracing import END, NAME, PARENT, START, Tracer  # noqa: E402


def span(name, start, end, parent=-1):
    return [name, start, end, parent, -1, 0, 0, None]


def test_self_time_subtracts_covered_child_time():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, parent=0),
        span("a.leaf", 2.0, 3.0, parent=1),
        span("b", 5.0, 6.0, parent=0),
        span("c", 5.5, 7.0, parent=0),      # overlaps b: the union is 5..7
        span("d", 9.5, 12.0, parent=0),     # runs past its parent: clipped at 10
    ]
    assert tracing.self_times(spans) == pytest.approx([10 - 3 - 2 - 0.5, 2.0, 1.0, 1.0, 1.5, 2.5])


def test_per_name_aggregates_nested_wrapped_calls():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def leaf():
        return 1

    wrapped_leaf = tracer.wrap("m.leaf", leaf)

    def outer():
        return wrapped_leaf() + wrapped_leaf()

    tracer.wrap("m.outer", outer)()
    # outer opens at 0, leaves span 1..2 and 3..4, outer closes at 5
    assert [(s[NAME], s[START], s[END], s[PARENT]) for s in tracer.spans] == [
        ("m.outer", 0.0, 5.0, -1), ("m.leaf", 1.0, 2.0, 0), ("m.leaf", 3.0, 4.0, 0)]
    stats = tracing.per_name(tracer.spans, ["m.outer", "m.leaf", "m.idle"])
    assert stats == {"m.outer": (1, 3.0), "m.leaf": (2, 2.0), "m.idle": (0, 0.0)}


def _synthetic_modules():
    home = types.ModuleType("home")

    def f(x):
        return x + 1

    class K:
        def m(self):
            return "m"

        m2 = m

        @staticmethod
        def s():
            return "s"

    home.f, home.K = f, K
    user = types.ModuleType("user")
    user.f = f
    user.g = f          # renamed alias
    user.unrelated = len
    return home, user


def test_install_patches_every_alias_and_uninstall_restores():
    home, user = _synthetic_modules()
    before = [dict(vars(home)), dict(vars(user)), dict(vars(home.K))]
    tracer = Tracer()
    patches = tracing.install(tracer, [(home, "home", "f"), (home, "home", "K.m"),
                                       (home, "home", "K.s")], [home, user])
    assert home.f is user.f is user.g is not before[0]["f"]
    assert vars(home.K)["m"] is vars(home.K)["m2"]
    assert isinstance(vars(home.K)["s"], staticmethod)
    assert (user.g(1), home.K().m2(), home.K.s()) == (2, "m", "s")
    assert [s[NAME] for s in tracer.spans] == ["home.f", "home.K.m", "home.K.s"]

    tracing.uninstall(patches)
    after = [dict(vars(home)), dict(vars(user)), dict(vars(home.K))]
    for old, new in zip(before, after):
        assert old.keys() == new.keys()
        assert all(new[k] is old[k] for k in old)


def _namespaces(package):
    spaces = []
    for mod in package:
        spaces.append(mod)
        spaces += [v for v in vars(mod).values()
                   if isinstance(v, type) and v.__module__ == mod.__name__]
    return spaces


def test_gengeo_aliases_are_patched_and_restored():
    named, package = tracing.gengeo_modules()
    spaces = _namespaces(package)
    before = [dict(vars(ns)) for ns in spaces]
    original_hat = named["flow"].rho_hat_grid
    assert named["sixdim"].rho_hat_grid is original_hat
    targets = tracing.layer_targets(named)
    originals = []
    for module, _, qualname in targets:
        owner_name, _, attr = qualname.rpartition(".")
        raw = vars(getattr(module, owner_name) if owner_name else module)[attr]
        originals.append(getattr(raw, "__func__", raw))

    tracer = Tracer()
    patches = tracing.install(tracer, targets, package, sizes=tracing.GRID_LAYERS)
    try:
        # no module global or class attribute still refers to a wrapped original
        for ns in spaces:
            for key, value in vars(ns).items():
                value = getattr(value, "__func__", value)
                assert not any(value is f for f in originals), f"{ns.__name__}.{key} not patched"
        assert named["sixdim"].rho_hat_grid is named["flow"].rho_hat_grid
        assert named["sixdim"].section_inner is named["tables"].section_inner
        assert named["flow"].section_inner is named["tables"].section_inner
        poly = vars(named["algebra"].Polynomial)
        assert poly["__radd__"] is poly["__add__"] and poly["__rmul__"] is poly["__mul__"]
        assert len(patches) > len(tracing.span_names())
    finally:
        tracing.uninstall(patches)

    # unpatching leaves no wrapper behind: the untraced run is the program itself
    for ns, old in zip(spaces, before):
        new = dict(vars(ns))
        assert new.keys() == old.keys()
        assert all(new[k] is old[k] for k in old), ns
    assert named["sixdim"].rho_hat_grid is original_hat
