"""Names that code outside the package looks up in ucenergy.

``perfbench/tracing.py`` rebinds each ``(module, name)`` in its ``LAYERS``
and ``PARTS`` tables; a package function renamed or deleted under it would
break ``--trace``.  This only reads the tables.  A stale ``__all__`` entry
would break ``from ucenergy import *``.
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


def test_public_names_resolve():
    namespace = {}
    exec("from ucenergy import *", namespace)
    ucenergy = importlib.import_module("ucenergy")
    assert ucenergy.__all__
    assert set(ucenergy.__all__) <= set(namespace)
