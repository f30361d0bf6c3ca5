"""The traced benchmark looks ucenergy's functions up by name.

``perfbench/tracing.py`` rebinds each ``(module, name)`` in its ``LAYERS``
and ``PARTS`` tables; a package function renamed or deleted under it would
break ``--trace``.  This only reads the tables.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    entries = tracing.LAYERS + tracing.PARTS
    assert entries
    for module, name, *_ in entries:
        assert callable(getattr(importlib.import_module(module), name)), (module, name)
