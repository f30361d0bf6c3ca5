"""Names and calls that code outside the package relies on in ucenergy.

``perfbench/tracing.py`` rebinds each ``(module, name)`` in its ``LAYERS``
and ``PARTS`` tables; a package function renamed or deleted under it would
break ``--trace``.  ``perfbench/workloads.py`` calls the public API with its
own arguments; a change to a signature it uses would fail the benchmark, so
each workload runs once here, in-process.  This only reads ``perfbench/``.
A stale ``__all__`` entry would break ``from ucenergy import *``.
"""

import importlib
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("name", ["search", "census", "enumerate", "paper"])
def test_every_benchmark_workload_passes_its_checks(name, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    checks = workloads.Checks()
    workloads.WORKLOADS[name](11, checks)
    assert checks.attempted > 0
    assert checks.failures == []
