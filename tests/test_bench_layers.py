"""Every function the benchmark's tracer wraps still exists in gengeo.

``bench/tracing.py`` wraps each name in its ``LAYERS`` table by looking it
up in the owning module or class dict; a deleted or renamed function breaks
``bench/run.py --trace 1`` and ``python3 -m pytest bench``.  This test reads
the table (it edits nothing under ``bench/``) and resolves each name the
way the tracer does.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def layer_names() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("bench_tracing_layers", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(layer, qualname) for layer, names in module.LAYERS.items() for qualname in names]


def test_every_traced_name_resolves():
    names = layer_names()
    assert names
    missing = []
    for layer, qualname in names:
        owner_name, _, attr = qualname.rpartition(".")
        owner = importlib.import_module(f"gengeo.{layer}")
        if owner_name:
            owner = getattr(owner, owner_name, None)
        raw = vars(owner).get(attr) if owner is not None else None
        if not callable(getattr(raw, "__func__", raw)):
            missing.append(f"{layer}.{qualname}")
    assert missing == []
